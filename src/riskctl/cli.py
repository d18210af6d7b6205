"""Command-line front end.

Subcommands: score | path | matrix | simulate | report | verify.
Results go to standard out; diagnostics to standard error.  Exit codes:
0 success, 1 input or usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .chain import (
    build_chain,
    hit_probability_within,
    mean_time_to_compromise,
    realization_probability,
    simulate,
    validate_stochastic,
)
from .config import FORMULA_SOURCE, AnalysisConfig
from .cvss import score_breakdown
from .errors import RiskctlError, UnreachableTargetError
from .model import (
    Attacker,
    AttackPath,
    ReferenceDomain,
    ThreatModel,
    ViewDomain,
    builtin_paper_model,
    parse_model,
)
from .report import build_results_grid, run_verification, stage_series

_ATTACKER_ORDER = (Attacker.AUTHORIZED, Attacker.UNAUTHORIZED)
_ORIGIN_ORDER = (ReferenceDomain.CLOUD, ReferenceDomain.INFRA_EDGE, ReferenceDomain.VEHICLE)
_SERIES_COLUMNS = (
    "path_id", "stage_pos", "stage_index", "ref_domain", "view_domain",
    "attack_prob", "forward_prob",
)


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    for line in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def _write_csv(header: list[str], rows: list[list]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _load_model(args) -> ThreatModel:
    if args.model is None:
        return builtin_paper_model()
    return parse_model(Path(args.model).read_text(encoding="utf-8"))


def _effective_config(model: ThreatModel, args) -> AnalysisConfig:
    changes = {}
    if getattr(args, "score_set", None) is not None:
        changes["score_set"] = args.score_set
    if getattr(args, "defence", None) is not None:
        changes["defence_probability"] = args.defence
    if getattr(args, "coefficient", None) is not None:
        changes["exponent_coefficient"] = args.coefficient
    if getattr(args, "defence_on_final", None):
        changes["defence_on_final_stage"] = True
    return replace(model.config, **changes) if changes else model.config


def _select_path(model: ThreatModel, args) -> AttackPath:
    path = model.path(args.id)
    if getattr(args, "first_index", None) is not None:
        path = replace(path, first_stage_index=args.first_index)
    return path


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _cmd_score(args) -> int:
    model = _load_model(args)
    config = _effective_config(model, args)
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
        if source == FORMULA_SOURCE:
            if breakdown is None:
                print(
                    f"riskctl: error: formula scoring requires a vector for {domain.code}",
                    file=sys.stderr,
                )
                return 1
            entry["total"] = breakdown.total
        else:
            if source not in model.score_sets:
                print(f"riskctl: error: no score set named {source!r}", file=sys.stderr)
                return 1
            entry["total"] = model.score_sets[source].totals[domain]
        if breakdown is not None and reference_set is not None:
            published = model.score_sets[reference_set].totals[domain]
            if abs(breakdown.total - published) > 0.05:
                notes.append(
                    f"{domain.code}: formula total {breakdown.total:.6g} diverges from "
                    f"score set {reference_set!r} total {published:.6g}"
                )
        entries.append(entry)

    if args.format == "json":
        print(json.dumps({"scores": entries, "notes": notes}, indent=2))
    elif args.format == "csv":
        _write_csv(
            ["domain", "base", "temporal", "environmental", "total", "source"],
            [
                [e["domain"], e.get("base", ""), e.get("temporal", ""),
                 e.get("environmental", ""), e["total"], e["source"]]
                for e in entries
            ],
        )
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    else:
        def fmt(value):
            return f"{value:.6g}" if isinstance(value, float) else "-"
        _print_table(
            ["domain", "base", "temporal", "environmental", "total", "source"],
            [
                [e["domain"], fmt(e.get("base")), fmt(e.get("temporal")),
                 fmt(e.get("environmental")), fmt(e["total"]), e["source"]]
                for e in entries
            ],
        )
        for note in notes:
            print(f"note: {note}")
    return 0


# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------

def _series_rows(rows) -> list[list]:
    return [
        [r.path_id, r.stage_pos, r.stage_index, r.ref_domain, r.view_domain,
         r.attack_prob, r.forward_prob]
        for r in rows
    ]


def _cmd_path(args) -> int:
    model = _load_model(args)
    config = _effective_config(model, args)
    path = _select_path(model, args)
    rows = stage_series(path, model, config)
    w = realization_probability(path, model, config)

    if args.format == "json":
        print(json.dumps(
            {
                "path_id": path.id,
                "attacker": path.attacker.value,
                "origin": path.origin.code,
                "stages": [
                    {
                        "stage_pos": r.stage_pos,
                        "stage_index": r.stage_index,
                        "ref_domain": r.ref_domain,
                        "view_domain": r.view_domain,
                        "attack_prob": r.attack_prob,
                        "forward_prob": r.forward_prob,
                    }
                    for r in rows
                ],
                "realization_probability": w,
                "percent": 100.0 * w,
            },
            indent=2,
        ))
    elif args.format == "csv":
        _write_csv(list(_SERIES_COLUMNS), _series_rows(rows))
        print(f"# realization_probability,{w!r}")
    else:
        _print_table(
            ["pos", "index", "ref", "domain", "attack_prob", "forward_prob"],
            [
                [str(r.stage_pos), str(r.stage_index), r.ref_domain, r.view_domain,
                 f"{r.attack_prob:.6f}", f"{r.forward_prob:.6f}"]
                for r in rows
            ],
        )
        print(f"realization probability W = {w:.6f} ({100.0 * w:.2f}%)")
    return 0


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def _cmd_matrix(args) -> int:
    model = _load_model(args)
    config = _effective_config(model, args)
    path = _select_path(model, args)
    chain = build_chain(path, model, config)
    violations = validate_stochastic(chain)
    if violations:
        print(f"riskctl: error: constructed matrix is not stochastic: {violations}",
              file=sys.stderr)
        return 1
    product = float(np.prod(chain.forward_probabilities()))

    if args.format == "json":
        print(json.dumps(
            {
                "path_id": path.id,
                "states": list(chain.states),
                "matrix": chain.matrix.tolist(),
                "stage_probs": list(chain.stage_probs),
                "forward_path_product": product,
            },
            indent=2,
        ))
    elif args.format == "csv":
        _write_csv(
            ["state"] + list(chain.states),
            [[state] + list(row) for state, row in zip(chain.states, chain.matrix)],
        )
        print(f"# forward_path_product,{product!r}")
    else:
        digits = args.round
        def fmt(value: float) -> str:
            return f"{value:.{digits}f}" if digits is not None else repr(float(value))
        _print_table(
            ["state"] + list(chain.states),
            [[state] + [fmt(v) for v in row] for state, row in zip(chain.states, chain.matrix)],
        )
        print(f"forward path product (no detours): {product:.6f} ({100.0 * product:.2f}%)")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _z_score(simulated, analytic, se) -> float | None:
    """(simulated - analytic) / se; None when se is 0 or a value is missing."""
    if analytic is None or not se:
        return None
    return (simulated - analytic) / se


def _cmd_simulate(args) -> int:
    model = _load_model(args)
    config = _effective_config(model, args)
    path = _select_path(model, args)
    chain = build_chain(path, model, config)
    report = simulate(chain, trials=args.trials, horizon=args.horizon,
                      seed=args.seed, workers=args.workers)
    analytic_hit = hit_probability_within(chain, args.horizon)
    try:
        analytic_ttc = mean_time_to_compromise(chain)
    except UnreachableTargetError:
        analytic_ttc = None

    payload = report.to_dict()
    payload["analytic_hit_probability"] = analytic_hit
    payload["analytic_mean_ttc"] = analytic_ttc
    payload["z_hit"] = _z_score(report.hit_fraction, analytic_hit, report.hit_fraction_se)
    payload["z_ttc"] = _z_score(report.mean_ttc, analytic_ttc, report.mean_ttc_se)

    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        _write_csv(["key", "value"], [[k, "" if v is None else v] for k, v in payload.items()])
    else:
        for key, value in payload.items():
            print(f"{key}: {'-' if value is None else value!r}")
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
    parts = []
    for cell in cells:
        suffix = cell.path_id.lstrip("0123456789") or cell.path_id
        parts.append(f"{cell.percent:.2f} ({suffix})")
    return " / ".join(parts)


def _cmd_report(args) -> int:
    model = _load_model(args)
    config = _effective_config(model, args)
    if getattr(args, "first_index", None) is not None:
        model = replace(
            model,
            paths=tuple(replace(p, first_stage_index=args.first_index) for p in model.paths),
        )
    grid = build_results_grid(model, config)
    series = [
        row for path in model.paths for row in stage_series(path, model, config)
    ] if args.series else []

    if args.format == "json":
        payload = {
            "grid": [
                {
                    "attacker": attacker.value,
                    "origin": origin.code,
                    "cells": [
                        {"path_id": c.path_id, "probability": c.probability,
                         "percent": c.percent}
                        for c in grid.get((attacker, origin), [])
                    ],
                }
                for attacker in _ATTACKER_ORDER
                for origin in _ORIGIN_ORDER
            ],
        }
        if args.series:
            payload["series"] = [
                {col: getattr(r, col) for col in _SERIES_COLUMNS} for r in series
            ]
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        if args.series:
            _write_csv(list(_SERIES_COLUMNS), _series_rows(series))
        else:
            _write_csv(
                ["attacker", "origin", "path_id", "probability", "percent"],
                [
                    [attacker.value, origin.code, c.path_id, c.probability, c.percent]
                    for attacker in _ATTACKER_ORDER
                    for origin in _ORIGIN_ORDER
                    for c in grid.get((attacker, origin), [])
                ],
            )
    else:
        _print_table(
            ["attacker"] + [o.display for o in _ORIGIN_ORDER],
            [
                [attacker.value]
                + [_grid_cell_text(grid.get((attacker, origin), []))
                   for origin in _ORIGIN_ORDER]
                for attacker in _ATTACKER_ORDER
            ],
        )
        if args.series:
            print()
            _print_table(
                list(_SERIES_COLUMNS),
                [[str(v) if not isinstance(v, float) else f"{v:.6f}" for v in row]
                 for row in _series_rows(series)],
            )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    model = _load_model(args)
    config = _effective_config(model, args)
    if config != model.config:
        model = replace(model, config=config)
    results = run_verification(model)
    if args.format == "json":
        print(json.dumps(
            [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
            indent=2,
        ))
    else:
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name}: {result.detail}")
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
    common.add_argument("--d", dest="defence", type=float, metavar="PROB",
                        help="override the defence probability")
    common.add_argument("--k", dest="coefficient", type=float, metavar="REAL",
                        help="override the exponent coefficient")
    common.add_argument("--defence-on-final", dest="defence_on_final",
                        action="store_true", default=None,
                        help="gate the final stage by (1 - d) as well")
    common.add_argument("--first-index", dest="first_index", type=int, metavar="N",
                        help="override the first stage index")

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

    p = sub.add_parser("path", parents=[common],
                       help="stage probabilities and realization probability for a path")
    p.add_argument("--id", required=True, help="attack path id")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("matrix", parents=[common],
                       help="transition matrix for a path's chain")
    p.add_argument("--id", required=True, help="attack path id")
    p.add_argument("--round", type=int, metavar="N",
                   help="round displayed entries to N decimals (table format only)")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("simulate", parents=[common],
                       help="seeded Monte Carlo first-passage simulation")
    p.add_argument("--id", required=True, help="attack path id")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="trial-axis parallelism; does not affect results")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", parents=[common],
                       help="attacker/origin realization grid (and stage series)")
    p.add_argument("--series", action="store_true",
                   help="also emit per-path stage series (csv: series only)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("verify", parents=[common],
                       help="run the built-in reproduction checks")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RiskctlError, OSError, ValueError) as exc:
        print(f"riskctl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
