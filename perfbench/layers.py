"""Per-layer metrics for the traced run.

The layers are riskctl's modules: model, cvss, chain, report, cli, and
proc (interpreter start plus the numpy/riskctl imports).  A traced run
first records spans from the workload's own ops, then ``probe`` calls
every public entry point once or a few times, so each traced run reports
every layer metric whichever workload it ran.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import gen
from riskctl import (
    build_chain,
    build_results_grid,
    builtin_paper_model,
    hit_probability_within,
    mean_time_to_compromise,
    parse_model,
    realization_probability,
    resolve_score,
    run_verification,
    simulate,
    stage_attack_probabilities,
    stage_series,
)
from riskctl import cli as riskctl_cli
from riskctl.config import FORMULA_SOURCE
from riskctl.cvss import score_breakdown
from spans import Span, Tracer
from workloads import (
    CLI_DOC_PATHS,
    CLI_FORMAT,
    HORIZON,
    MC_TRIALS,
    WORKERS,
    cli_argv,
    run_child,
    single_thread_rerun,
)

LAYERS = ("model", "cvss", "chain", "report", "cli", "proc")
CLI_COMMANDS = ("score", "path", "matrix", "simulate", "report", "verify")
# Built-in arguments for each command, as in the cli mix.
_BUILTIN_ARGS = {
    "score": [], "path": ["--id", "1"], "matrix": ["--id", "1"],
    "simulate": ["--id", "1", "--seed", "0"], "report": ["--series"], "verify": [],
}


def draw_use_ratio(report) -> float:
    """Used / drawn uniforms, computed from the TTC samples and the horizon.

    Every live walk uses one draw per step.  The simulator draws one
    uniform per trial per step until the last walk ends, which is the
    horizon if any walk missed and the longest TTC otherwise.
    """
    samples = report.ttc_samples
    misses = report.trials - report.hits
    used = int(samples.sum()) + misses * report.horizon
    steps = report.horizon if misses else int(samples.max())
    return used / (report.trials * steps)


def _child(args, kwargs, result):
    code, out, _, _ = result
    return {"stdout_bytes": len(out), "exit_code": code}


EXTRACTORS = {
    "chain.simulate": lambda a, k, r: {"trials": r.trials, "draw_use_ratio": draw_use_ratio(r)},
    "chain.hit_probability_within": lambda a, k, r: {"states": len(a[0].states),
                                                     "horizon": a[1]},
    "chain.build_chain": lambda a, k, r: {"matrix_bytes": r.matrix.nbytes},
    "model.parse_model": lambda a, k, r: {"stages": sum(len(p.stages) for p in r.paths)},
    **{f"proc.cli.{cmd}": _child for cmd in CLI_COMMANDS},
}


def _cli_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return riskctl_cli.main(argv)


def probe(tr: Tracer, rng: random.Random, workdir: Path) -> None:
    """Call each layer's public functions on the built-in model and one
    generated formula-scored document."""
    for _ in range(20):
        builtin = tr.call("model.builtin_paper_model", builtin_paper_model)
    document = gen.threat_model_document(rng, CLI_DOC_PATHS, FORMULA_SOURCE)
    for _ in range(3):
        generated = tr.call("model.parse_model", parse_model, document)
    for model in (builtin, generated):
        for domain, vector in model.vectors.items():
            tr.call("cvss.score_breakdown", score_breakdown, vector, model.weight_table,
                    model.config.rounding)
            tr.call("model.resolve_score.formula", resolve_score, model, domain,
                    FORMULA_SOURCE)
        for path in model.paths[:6]:
            tr.call("chain.stage_attack_probabilities", stage_attack_probabilities,
                    path, model)
            tr.call("chain.realization_probability", realization_probability, path, model)
            chain = tr.call("chain.build_chain", build_chain, path, model)
            tr.call("chain.mean_time_to_compromise", mean_time_to_compromise, chain)
            tr.call("chain.hit_probability_within", hit_probability_within, chain, HORIZON)
            tr.call("report.stage_series", stage_series, path, model)
        tr.call("report.build_results_grid", build_results_grid, model)
    for _ in range(3):
        tr.call("report.run_verification", run_verification, builtin)

    if not tr.named("chain.simulate"):
        chain = build_chain(builtin.paths[0], builtin)
        tr.call("chain.simulate", simulate, chain, trials=MC_TRIALS, horizon=HORIZON,
                seed=0, workers=WORKERS)
        single_thread_rerun(tr, chain, 0)

    for cmd in CLI_COMMANDS:
        argv = [cmd, "--format", "json", *_BUILTIN_ARGS[cmd]]
        for _ in range(3):
            try:
                tr.call(f"cli.main.{cmd}", _cli_main, argv)
            except Exception:  # recorded as the span's error; the probe goes on
                pass

    stderr_path = workdir / "probe-stderr.txt"
    for _ in range(3):
        tr.call("proc.import_numpy", run_child, [sys.executable, "-c", "import numpy"],
                stderr_path)
        tr.call("proc.import_riskctl", run_child,
                [sys.executable, "-c", "import riskctl.cli"], stderr_path)
    if not tr.named("proc.cli"):
        for cmd in CLI_COMMANDS:
            tr.call(f"proc.cli.{cmd}", run_child,
                    cli_argv(cmd, _BUILTIN_ARGS[cmd], CLI_FORMAT.get(cmd, "json")),
                    stderr_path)


def _ms(span: Span) -> float:
    return span.ns / 1e6


def metrics(tr: Tracer, workload: str, cli_p50_ms: float | None,
            overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: name -> (value, unit)."""
    us = tr.median_us
    out: dict[str, tuple[float, str]] = {
        "chain.simulate.ms": (us("chain.simulate") / 1e3, "ms"),
        "chain.simulate.trials_per_s": (
            tr.median_of("chain.simulate", lambda s: s.attrs["trials"] / (s.ns / 1e9),
                         "trials"), "1/s"),
        "chain.simulate.draw_use_ratio": (
            tr.median_of("chain.simulate", lambda s: s.attrs["draw_use_ratio"],
                         "draw_use_ratio"), "ratio"),
        "chain.simulate.scaling_eff": (
            tr.median_of("chain.simulate_w1", lambda s: s.attrs["scaling_eff"],
                         "scaling_eff"), "ratio"),
        "chain.hit_probability_within.us": (us("chain.hit_probability_within"), "us"),
        "chain.hit_probability_within.ns_per_step": (
            tr.median_of("chain.hit_probability_within",
                         lambda s: s.ns / s.attrs["horizon"], "horizon"), "ns"),
        "chain.hit_probability_within.flops": (
            tr.median_of("chain.hit_probability_within",
                         lambda s: 2 * s.attrs["states"] ** 2 * s.attrs["horizon"],
                         "states"), "flop"),
        "chain.build_chain.us": (us("chain.build_chain"), "us"),
        "chain.build_chain.matrix_bytes": (
            tr.median_of("chain.build_chain", lambda s: s.attrs["matrix_bytes"],
                         "matrix_bytes"), "bytes"),
        "chain.mean_time_to_compromise.us": (us("chain.mean_time_to_compromise"), "us"),
        "chain.realization_probability.us": (us("chain.realization_probability"), "us"),
        "chain.stage_attack_probabilities.us": (us("chain.stage_attack_probabilities"), "us"),
        "cvss.score_breakdown.us": (us("cvss.score_breakdown"), "us"),
        "model.resolve_score.formula.us": (us("model.resolve_score.formula"), "us"),
        "model.parse_model.us": (us("model.parse_model"), "us"),
        "model.parse_model.us_per_stage": (
            tr.median_of("model.parse_model", lambda s: s.ns / 1e3 / s.attrs["stages"],
                         "stages"), "us"),
        "model.builtin_paper_model.us": (us("model.builtin_paper_model"), "us"),
        "report.build_results_grid.us": (us("report.build_results_grid"), "us"),
        "report.stage_series.us": (us("report.stage_series"), "us"),
        "report.run_verification.us": (us("report.run_verification"), "us"),
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.main.{cmd}.ms"] = (us(f"cli.main.{cmd}") / 1e3, "ms")
    out["cli.stdout_bytes"] = (
        tr.median_of("proc.cli", lambda s: s.attrs["stdout_bytes"], "stdout_bytes"), "bytes")
    import_floor = tr.median_of("proc.import_riskctl", _ms)
    out["proc.import_numpy.ms"] = (tr.median_of("proc.import_numpy", _ms), "ms")
    out["proc.import_riskctl.ms"] = (import_floor, "ms")
    if cli_p50_ms is None:
        cli_p50_ms = tr.median_of("proc.cli", _ms)
    out["proc.startup_share"] = (import_floor / cli_p50_ms, "ratio")

    errors = tr.errors_by_layer()
    for s in tr.named("proc.cli"):
        if s.attrs.get("exit_code"):
            errors["proc"] += 1
    for layer in LAYERS:
        out[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    shares = tr.self_share(f"bench.op.{workload}")
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_share"] = (shares.get(layer, 0.0), "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
