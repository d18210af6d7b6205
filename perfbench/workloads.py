"""The three closed-loop workloads: one caller, next op after the last returns.

Each workload class provides ``next_input()`` (untimed), ``op(input,
tracer)`` (timed), ``check(input, output)`` (untimed; returns
``(errors, wrong)``: ops that did not complete, and completed ops whose
values are wrong) and ``trace_extras(input, output, tracer)``, extra
traced calls made after a traced op to measure layers the op itself
reaches only indirectly.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import gen
from prepare import SRC, prepare
from riskctl import (
    ViewDomain,
    build_chain,
    build_results_grid,
    hit_probability_within,
    mean_time_to_compromise,
    parse_model,
    realization_probability,
    resolve_score,
    run_verification,
    simulate,
    stage_attack_probabilities,
    stage_series,
    validate_stochastic,
)
from riskctl.config import FORMULA_SOURCE
from riskctl.cvss import score_breakdown

# The thread budget: nproc is 2 here.  `simulate` runs at WORKERS
# threads, BLAS is pinned to one thread and the cli runs one child at a
# time, so no op uses more than THREAD_BUDGET threads.
THREAD_BUDGET = 2
WORKERS = 2
MC_TRIALS = 200_000
HORIZON = 200
D_GRID = tuple(0.5 * i / 7 for i in range(8))
SWEEP_PATHS = 6
CLI_DOC_PATHS = 32
# `riskctl simulate` defaults; the cli mix relies on them.
CLI_SIM_TRIALS, CLI_SIM_HORIZON, CLI_SIM_WORKERS = 10_000, 1000, 1


# ---------------------------------------------------------------------------
# mc: simulate over the six reference chains
# ---------------------------------------------------------------------------

class MonteCarlo:
    name = "mc"

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        _, self.chains = prepare("mc")
        self.analytic = [
            (hit_probability_within(c, HORIZON), mean_time_to_compromise(c))
            for c in self.chains
        ]
        self.count = 0
        self.identity_checked = False

    def next_input(self) -> tuple[int, int]:
        index = self.count % len(self.chains)
        self.count += 1
        return index, gen.op_seed(self.rng)

    def op(self, inp, tr):
        index, seed = inp
        return tr.call("chain.simulate", simulate, self.chains[index],
                       trials=MC_TRIALS, horizon=HORIZON, seed=seed, workers=WORKERS)

    def check(self, inp, report):
        index, seed = inp
        wrong = checks.mc_agreement(report, *self.analytic[index])
        if not self.identity_checked:
            self.identity_checked = True
            single = simulate(self.chains[index], trials=MC_TRIALS, horizon=HORIZON,
                              seed=seed, workers=1)
            wrong += checks.mc_identical(report, single)
        return [], wrong

    def trace_extras(self, inp, report, tr):
        # Every fourth op also runs on one thread: the scaling baseline.
        if self.count % 4 == 1:
            index, seed = inp
            single_thread_rerun(tr, self.chains[index], seed)


def single_thread_rerun(tr, chain, seed: int) -> None:
    """Re-run the last traced ``chain.simulate`` at ``workers=1``.

    Stores trials/s at WORKERS over WORKERS x trials/s at one worker as
    the ``scaling_eff`` of the new span.
    """
    tr.call("chain.simulate_w1", simulate, chain, trials=MC_TRIALS, horizon=HORIZON,
            seed=seed, workers=1)
    parallel, single = tr.last("chain.simulate"), tr.last("chain.simulate_w1")
    single.attrs["scaling_eff"] = single.ns / (WORKERS * parallel.ns)


# ---------------------------------------------------------------------------
# sweep: parse a generated document, then analytics over a d grid
# ---------------------------------------------------------------------------

def sweep_op(document: str, tr):
    model = tr.call("model.parse_model", parse_model, document)
    points = []
    for path in model.paths:
        for d in D_GRID:
            config = tr.call("model.replace_config", replace, model.config,
                             defence_probability=d)
            w = tr.call("chain.realization_probability", realization_probability,
                        path, model, config)
            chain = tr.call("chain.build_chain", build_chain, path, model, config)
            ttc = tr.call("chain.mean_time_to_compromise", mean_time_to_compromise, chain)
            hit = tr.call("chain.hit_probability_within", hit_probability_within,
                          chain, HORIZON)
            points.append((w, chain, ttc, hit))
    return model, points


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.sources = gen.balanced_sources(self.rng)
        prepare("sweep")

    def next_input(self) -> str:
        return gen.threat_model_document(self.rng, SWEEP_PATHS, next(self.sources))

    def op(self, document, tr):
        return sweep_op(document, tr)

    def check(self, document, output):
        model, points = output
        wrong = []
        for w, chain, ttc, hit in points:
            wrong += checks.sweep_point(validate_stochastic(chain), w, hit, ttc,
                                        checks.birth_death_ttc(chain.matrix))
        for i in range(0, len(points), len(D_GRID)):
            wrong += checks.non_increasing([p[0] for p in points[i:i + len(D_GRID)]])
        return [], wrong

    def trace_extras(self, document, output, tr):
        model, _ = output
        for path in model.paths:
            tr.call("chain.stage_attack_probabilities", stage_attack_probabilities,
                    path, model)
        for domain, vector in model.vectors.items():
            tr.call("cvss.score_breakdown", score_breakdown, vector,
                    model.weight_table, model.config.rounding)
            tr.call("model.resolve_score.formula", resolve_score, model, domain,
                    FORMULA_SOURCE)


# ---------------------------------------------------------------------------
# cli: one `python -m riskctl.cli <cmd> --format json` child per op
# ---------------------------------------------------------------------------

# (command, model): "builtin" or a generated CLI_DOC_PATHS-path document.
CLI_MIX = tuple(
    (cmd, which)
    for cmd in ("score", "path", "matrix", "simulate", "report")
    for which in ("builtin", "generated")
) + (("verify", "builtin"),)
# `verify --format json` exits 1 at the baseline: `CheckResult.passed` is a
# numpy bool, which json cannot encode, and `cli.main` does not catch the
# TypeError.  The mix runs `verify` in its table format, so no op fails
# for a known defect; `known_defect_probe` runs the json form once per run,
# untimed, and reports what it does.
CLI_FORMAT = {"verify": "table"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, bytes, str, int]:
    """Run one child to completion: (exit code, stdout, stderr, peak RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, env=child_env(),
                                cwd=SRC.parent)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, stderr_path.read_text(errors="replace"), usage.ru_maxrss


def cli_argv(cmd: str, extra: list[str], fmt: str = "json") -> list[str]:
    return [sys.executable, "-m", "riskctl.cli", cmd, "--format", fmt, *extra]


def verify_lines(model) -> list[str]:
    """`riskctl verify` in table format: one PASS/FAIL line per check."""
    return [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
            for r in run_verification(model)]


def known_defect_probe(model, stderr_path: Path) -> str:
    """Run `verify --format json` once and say whether it still fails."""
    code, out, err, _ = run_child(cli_argv("verify", []), stderr_path)
    if code:
        return "verify --format json still fails: " + checks.exit_code(code, err)[0]
    try:
        wrong = checks.same_values(json.loads(out), cli_expected("verify", model, None, None))
    except json.JSONDecodeError as exc:
        wrong = [f"stdout is not JSON: {exc}"]
    return ("verify --format json exits 0 with "
            + (f"wrong values: {wrong[0]}" if wrong else "the library's values"))


def cli_expected(cmd: str, model, path_id: str | None, seed: int | None):
    """The library's results for one cli op, shaped like the command's JSON."""
    if cmd == "score":
        scores = []
        for domain in ViewDomain:
            b = score_breakdown(model.vectors[domain], model.weight_table,
                                model.config.rounding)
            scores.append({"domain": domain.code, "base": b.base, "temporal": b.temporal,
                           "environmental": b.environmental, "formula_total": b.total,
                           "total": resolve_score(model, domain)})
        return {"scores": scores}
    if cmd == "report":
        grid = build_results_grid(model)
        return {
            "grid": {f"{a.value}/{o.code}/{c.path_id}": c.probability
                     for (a, o), cells in grid.items() for c in cells},
            "series": [
                {"path_id": r.path_id, "stage_pos": r.stage_pos,
                 "attack_prob": r.attack_prob, "forward_prob": r.forward_prob}
                for p in model.paths for r in stage_series(p, model)
            ],
        }
    if cmd == "verify":
        return [{"name": r.name, "passed": bool(r.passed), "detail": r.detail}
                for r in run_verification(model)]
    path = model.path(path_id)
    if cmd == "path":
        return {
            "path_id": path.id,
            "stages": [{"stage_index": r.stage_index, "attack_prob": r.attack_prob,
                        "forward_prob": r.forward_prob} for r in stage_series(path, model)],
            "realization_probability": realization_probability(path, model),
        }
    chain = build_chain(path, model)
    if cmd == "matrix":
        return {"states": list(chain.states), "matrix": chain.matrix.tolist(),
                "stage_probs": list(chain.stage_probs),
                "forward_path_product": float(np.prod(chain.forward_probabilities()))}
    report = simulate(chain, trials=CLI_SIM_TRIALS, horizon=CLI_SIM_HORIZON,
                      seed=seed, workers=CLI_SIM_WORKERS)
    return {**report.to_dict(),
            "analytic_hit_probability": hit_probability_within(chain, CLI_SIM_HORIZON),
            "analytic_mean_ttc": mean_time_to_compromise(chain)}


def cli_comparable(cmd: str, payload):
    """Reshape the `report` grid, a list of cells per (attacker, origin), to a map."""
    if cmd != "report":
        return payload
    return {
        "grid": {f"{row['attacker']}/{row['origin']}/{c['path_id']}": c["probability"]
                 for row in payload["grid"] for c in row["cells"]},
        "series": payload.get("series"),
    }


class Cli:
    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.sources = gen.balanced_sources(self.rng)
        self.builtin = prepare("cli")
        self.workdir = workdir
        self.stderr_path = workdir / "stderr.txt"
        self.count = 0
        self.peak_rss_kib = 0
        self.notes = [known_defect_probe(self.builtin, self.stderr_path)]

    def next_input(self):
        cmd, which = CLI_MIX[self.count % len(CLI_MIX)]
        self.count += 1
        extra, document, path_id, seed = [], None, None, None
        if which == "generated":
            document = gen.threat_model_document(self.rng, CLI_DOC_PATHS, next(self.sources))
            doc_path = self.workdir / "model.json"
            doc_path.write_text(document, encoding="utf-8")
            extra += ["--model", str(doc_path)]
        if cmd in ("path", "matrix", "simulate"):
            n_paths = CLI_DOC_PATHS if document else len(self.builtin.paths)
            path_id = (f"g{self.rng.randrange(n_paths)}" if document
                       else self.builtin.paths[self.rng.randrange(n_paths)].id)
            extra += ["--id", path_id]
        if cmd == "simulate":
            seed = gen.op_seed(self.rng)
            extra += ["--seed", str(seed)]
        if cmd == "report":
            extra.append("--series")
        return cmd, cli_argv(cmd, extra, CLI_FORMAT.get(cmd, "json")), document, path_id, seed

    def op(self, inp, tr):
        cmd, argv = inp[0], inp[1]
        return tr.call(f"proc.cli.{cmd}", run_child, argv, self.stderr_path)

    def check(self, inp, output):
        cmd, _, document, path_id, seed = inp
        code, out, err, rss_kib = output
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        errors = checks.exit_code(code, err)
        if errors:
            return errors, []
        if CLI_FORMAT.get(cmd) == "table":
            return [], checks.same_values(out.decode().splitlines(),
                                          verify_lines(self.builtin))
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return [], [f"stdout is not JSON: {exc}"]
        model = parse_model(document) if document else self.builtin
        expected = cli_expected(cmd, model, path_id, seed)
        return [], checks.same_values(cli_comparable(cmd, payload), expected)

    def trace_extras(self, inp, output, tr):
        pass


WORKLOADS = {w.name: w for w in (MonteCarlo, Sweep, Cli)}
