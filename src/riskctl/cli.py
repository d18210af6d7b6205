"""Command-line front end.

Subcommands: score | path | matrix | simulate | report | verify.
Results go to standard out; diagnostics to standard error.  Exit codes:
0 success, 1 input or usage error (or standard out closed early, which
prints nothing), 2 verification failure.  Only ``simulate`` imports
numpy; ``matrix`` and ``verify`` read the chain's rows as plain floats.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .config import FORMULA_SOURCE, AnalysisConfig
from .cvss import score_breakdown
from .errors import RiskctlError, UnreachableTargetError
from .model import (
    Attacker,
    ReferenceDomain,
    ThreatModel,
    ViewDomain,
    builtin_paper_model,
    parse_model,
    resolve_score,
)
from .report import StageSeriesRow, _grid, _series, run_verification, stage_series
from .stages import _chain_rows, _derivation, _forward_entries

_SERIES_COLUMNS = [f.name for f in fields(StageSeriesRow)]


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 (not 2) on usage errors and takes
    each flag only as spelled in full (``--d`` is never ``--domain``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _table_lines(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in [header] + rows
    ]


def _emit(args, payload, header, rows, cell=str, trailer=(), notes=(), csv_view=None) -> None:
    """Print a command's result in the format ``args.format`` names.

    json prints ``payload``.  table pads ``header`` and ``rows`` into
    columns, each cell through ``cell``, then prints the ``trailer``
    and ``notes`` lines; a None header means no table.  csv writes the
    ``csv_view`` (header, rows, trailer) triple, by default the table's
    own, with the cells as they are (None as empty), and sends the
    ``notes`` to standard error.  A json payload carries its own notes.
    """
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return
    if args.format == "csv":
        header, rows, trailer = csv_view or (header, rows, trailer)
        if header is not None:
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    elif header is not None:
        trailer = _table_lines(header, [[cell(v) for v in row] for row in rows]) + list(trailer)
    for line in trailer:
        print(line)
    for note in notes:
        print(note, file=sys.stderr if args.format == "csv" else sys.stdout)


def _fixed6(value) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _load_model(args) -> ThreatModel:
    if args.model is None:
        return builtin_paper_model()
    return parse_model(Path(args.model).read_text(encoding="utf-8"))


def _effective_config(model: ThreatModel, args) -> AnalysisConfig:
    """The model's config with the override flags the command offers
    applied; a flag left unset (None) keeps the model's value."""
    changes = {
        field: getattr(args, field)
        for field in ("score_set", "defence_probability", "exponent_coefficient",
                      "defence_on_final_stage")
        if getattr(args, field, None) is not None
    }
    return replace(model.config, **changes) if changes else model.config


def _first_index(model: ThreatModel, args) -> ThreatModel:
    """``model`` with ``--first-index`` (path, matrix, simulate and
    report only) set on every path; checked even when there is none."""
    index = getattr(args, "first_index", None)
    if index is None:
        return model
    if index < 1:
        raise ValueError(f"--first-index must be >= 1, got {index}")
    return replace(model, paths=tuple(replace(p, first_stage_index=index) for p in model.paths))


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _cmd_score(args, model: ThreatModel, config: AnalysisConfig) -> int:
    source = args.source if args.source is not None else config.score_set

    if args.domain is None:
        domains = list(ViewDomain)
    else:
        try:
            domains = [ViewDomain(args.domain)]
        except ValueError:
            print(f"riskctl: error: unknown domain {args.domain!r}", file=sys.stderr)
            return 1

    # The named set the formula totals are compared against.
    reference_set = source if source != FORMULA_SOURCE else config.score_set
    if reference_set == FORMULA_SOURCE or reference_set not in model.score_sets:
        reference_set = None

    entries = []
    notes = []
    for domain in domains:
        entry: dict = {"domain": domain.code, "source": source}
        breakdown = None
        if model.vectors and domain in model.vectors:
            breakdown = score_breakdown(
                model.vectors[domain], model.weight_table, config.rounding
            )
            entry.update(
                base=breakdown.base,
                temporal=breakdown.temporal,
                environmental=breakdown.environmental,
                formula_total=breakdown.total,
            )
        entry["total"] = resolve_score(model, domain, source, config.rounding)
        if breakdown is not None and reference_set is not None:
            published = model.score_sets[reference_set].totals[domain]
            if abs(breakdown.total - published) > 0.05:
                notes.append(
                    f"{domain.code}: formula total {breakdown.total:.6g} diverges from "
                    f"score set {reference_set!r} total {published:.6g}"
                )
        entries.append(entry)

    _emit(
        args,
        {"scores": entries, "notes": notes},
        ["domain", "base", "temporal", "environmental", "total", "source"],
        [
            [e["domain"], e.get("base"), e.get("temporal"), e.get("environmental"),
             e["total"], e["source"]]
            for e in entries
        ],
        cell=lambda v: f"{v:.6g}" if isinstance(v, float) else "-" if v is None else str(v),
        notes=[f"note: {note}" for note in notes],
    )
    return 0


# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------

def _series_rows(rows) -> list[list]:
    return [[getattr(r, column) for column in _SERIES_COLUMNS] for r in rows]


def _cmd_path(args, model: ThreatModel, config: AnalysisConfig) -> int:
    path = model.path(args.id)
    rows = stage_series(path, model, config)
    series = _series_rows(rows)
    w = math.prod(row.forward_prob for row in rows)  # realization_probability, from the rows
    _emit(
        args,
        {
            "path_id": path.id,
            "attacker": path.attacker.value,
            "origin": path.origin.code,
            "stages": [dict(zip(_SERIES_COLUMNS[1:], row[1:])) for row in series],
            "realization_probability": w,
            "percent": 100.0 * w,
        },
        ["pos", "index", "ref", "domain", "attack_prob", "forward_prob"],
        [row[1:] for row in series],
        cell=_fixed6,
        trailer=[f"realization probability W = {w:.6f} ({100.0 * w:.2f}%)"],
        csv_view=(_SERIES_COLUMNS, series, [f"# realization_probability,{w!r}"]),
    )
    return 0


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

# The most fractional digits a double in [0, 1] has: 2**-1074 has 1074.
_MAX_ROUND = 1074


def _cmd_matrix(args, model: ThreatModel, config: AnalysisConfig) -> int:
    if args.round is not None and args.round < 0:
        raise ValueError(f"--round must be >= 0, got {args.round}")
    if args.round is not None and args.round > _MAX_ROUND:
        raise ValueError(f"--round must be <= {_MAX_ROUND}, got {args.round}")
    path = model.path(args.id)
    states, matrix, stage_probs = _chain_rows(path, model, config)
    product = math.prod(_forward_entries(matrix))
    header = ["state"] + list(states)
    rows = [[state] + row for state, row in zip(states, matrix)]
    digits = args.round
    _emit(
        args,
        {"path_id": path.id, "states": list(states), "matrix": matrix,
         "stage_probs": stage_probs, "forward_path_product": product},
        header,
        rows,
        cell=lambda v: v if isinstance(v, str)
        else f"{v:.{digits}f}" if digits is not None else repr(v),
        trailer=[
            f"forward path product (no detours): {product:.6f} ({100.0 * product:.2f}%)"
        ],
        csv_view=(header, rows, [f"# forward_path_product,{product!r}"]),
    )
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _z_score(simulated, analytic, se) -> float | None:
    """(simulated - analytic) / se; None when se is 0 or a value is missing."""
    if analytic is None or not se:
        return None
    return (simulated - analytic) / se


def _cmd_simulate(args, model: ThreatModel, config: AnalysisConfig) -> int:
    from .chain import _hit_within, build_chain, mean_time_to_compromise, simulate

    path = model.path(args.id)
    chain = build_chain(path, model, config)
    report = simulate(chain, trials=args.trials, horizon=args.horizon,
                      seed=args.seed, workers=args.workers)
    analytic_hit, analytic_ttc_within = _hit_within(chain, args.horizon)
    try:
        analytic_ttc = mean_time_to_compromise(chain)
    except UnreachableTargetError:
        analytic_ttc = None

    payload = report.to_dict()
    payload["analytic_hit_probability"] = analytic_hit
    payload["analytic_mean_ttc"] = analytic_ttc
    # The simulated mean covers only the walks that hit within the
    # horizon, so it is compared with E[T | T <= horizon].
    payload["analytic_mean_ttc_within"] = analytic_ttc_within
    payload["z_hit"] = _z_score(report.hit_fraction, analytic_hit, report.hit_fraction_se)
    payload["z_ttc"] = _z_score(report.mean_ttc, analytic_ttc_within, report.mean_ttc_se)
    _emit(
        args,
        payload,
        None,
        [],
        trailer=[f"{k}: {'-' if v is None else repr(v)}" for k, v in payload.items()],
        csv_view=(["key", "value"], [[k, v] for k, v in payload.items()], []),
    )
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _grid_cell_text(cells) -> str:
    if not cells:
        return "-"
    if len(cells) == 1:
        return f"{cells[0].percent:.2f}"
    # Variant paths (e.g. ids 2a/2b) share a cell; label by suffix.
    return " / ".join(
        f"{c.percent:.2f} ({c.path_id.lstrip('0123456789') or c.path_id})" for c in cells
    )


def _cmd_report(args, model: ThreatModel, config: AnalysisConfig) -> int:
    derive = _derivation(model, config)
    path_rows = [_series(path, derive) for path in model.paths]
    # W = realization_probability, from each path's rows.
    grid = _grid(model, [math.prod(row.forward_prob for row in rows) for rows in path_rows])
    cells = [(a, o, grid.get((a, o), [])) for a in Attacker for o in ReferenceDomain]
    payload = {
        "grid": [
            {
                "attacker": attacker.value,
                "origin": origin.code,
                "cells": [
                    {"path_id": c.path_id, "probability": c.probability, "percent": c.percent}
                    for c in row
                ],
            }
            for attacker, origin, row in cells
        ],
    }
    csv_view = (
        ["attacker", "origin", "path_id", "probability", "percent"],
        [
            [attacker.value, origin.code, c.path_id, c.probability, c.percent]
            for attacker, origin, row in cells
            for c in row
        ],
        [],
    )
    trailer = []
    if args.series:
        series = _series_rows(row for rows in path_rows for row in rows)
        payload["series"] = [dict(zip(_SERIES_COLUMNS, row)) for row in series]
        csv_view = (_SERIES_COLUMNS, series, [])
        if args.format == "table":
            trailer = [""] + _table_lines(
                _SERIES_COLUMNS, [[_fixed6(v) for v in row] for row in series]
            )
    _emit(
        args,
        payload,
        ["attacker"] + [o.display for o in ReferenceDomain],
        [[attacker.value] + [_grid_cell_text(row) for a, _, row in cells if a is attacker]
         for attacker in Attacker],
        trailer=trailer,
        csv_view=csv_view,
    )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args, model: ThreatModel, config: AnalysisConfig) -> int:
    if config != model.config:
        model = replace(model, config=config)
    results = run_verification(model)
    _emit(
        args,
        [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        None,
        [],
        trailer=[
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
        ],
    )
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--model", metavar="FILE",
                        help="threat-model document (default: built-in model)")
    common.add_argument("--format", choices=("table", "json", "csv"), default="table",
                        help="output format (default: table)")
    common.add_argument("--score-set", dest="score_set", metavar="NAME",
                        help="score source: a named score set or 'formula'")

    # Each group's flags go only to the commands that read them.
    indexed = _Parser(add_help=False)  # the commands that build a path's stages
    indexed.add_argument("--first-index", dest="first_index", type=int, metavar="N",
                         help="override the first stage index")
    tuned = _Parser(add_help=False)  # the commands that derive stage probabilities
    tuned.add_argument("--d", dest="defence_probability", type=float, metavar="PROB",
                       help="override the defence probability")
    tuned.add_argument("--k", dest="exponent_coefficient", type=float, metavar="REAL",
                       help="override the exponent coefficient")
    gated = _Parser(add_help=False)  # the commands that use forward probabilities
    gated.add_argument("--defence-on-final", dest="defence_on_final_stage",
                       action="store_true", default=None,
                       help="gate the final stage by (1 - d) as well")

    parser = _Parser(prog="riskctl",
                     description="Quantitative attack-path security verification.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("score", parents=[common],
                       help="CVSS-style score breakdown per view domain")
    p.add_argument("--domain", metavar="CODE",
                   help="single domain (data|software|networking|hardware); default all")
    p.add_argument("--source", metavar="NAME",
                   help="total column source: named set or 'formula' (default: config)")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("path", parents=[common, tuned, gated, indexed],
                       help="stage probabilities and realization probability for a path")
    p.add_argument("--id", required=True, help="attack path id")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("matrix", parents=[common, tuned, indexed],
                       help="transition matrix for a path's chain")
    p.add_argument("--id", required=True, help="attack path id")
    p.add_argument("--round", type=int, metavar="N",
                   help="round displayed entries to N decimals (table format only)")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("simulate", parents=[common, tuned, indexed],
                       help="seeded Monte Carlo first-passage simulation")
    p.add_argument("--id", required=True, help="attack path id")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility (>= 1); has no effect on results "
                        "or speed, and no thread is started")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", parents=[common, tuned, gated, indexed],
                       help="attacker/origin realization grid (and stage series)")
    p.add_argument("--series", action="store_true",
                   help="also emit per-path stage series (csv: series only)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify", parents=[common, tuned, gated],
                       help="run the built-in reproduction checks")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        model = _first_index(_load_model(args), args)
        code = args.func(args, model, _effective_config(model, args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of standard out has gone (`riskctl ... | head`).
        # Send what is still buffered to devnull, so the flush at exit
        # does not fail again (see the SIGPIPE note of the `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RiskctlError, OSError, ValueError, MemoryError) as exc:
        print(f"riskctl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
