"""riskctl benchmark: closed-loop workloads with an optional traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mc|sweep|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1 [--out FILE]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 100           # so that at least 10 latency samples lie beyond p90
MIN_TRACED_PAIRS = 20
LOOP_WALL_CAP_S = 120   # keeps every run well inside 180 s
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("mc", "sweep", "cli")


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def pin_threads() -> None:
    """BLAS to one thread, before numpy is imported; fail fast otherwise."""
    if "numpy" in sys.modules:
        fail("numpy was imported before the BLAS thread pin", 4)
    for var in BLAS_VARS:
        os.environ[var] = "1"


def check_thread_budget(workloads) -> None:
    budget = workloads.THREAD_BUDGET
    for what, threads in (("simulate workers", workloads.WORKERS),
                          ("cli simulate workers", workloads.CLI_SIM_WORKERS)):
        if threads > budget:
            fail(f"{what} = {threads} exceeds the thread budget of {budget}", 4)


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "riskctl").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def provenance(args, workloads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "simulate_workers": workloads.WORKERS,
        "thread_budget": workloads.THREAD_BUDGET,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds(workload: str) -> list[float]:
    """Fresh interpreter start until the workload's set-up is done, repeated."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "prepare.py"), workload],
                                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        with proc.stdout:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
        if proc.wait() != 0 or line.strip() != "ready":
            fail(f"set-up of {workload} failed in a fresh interpreter")
    return times


class Tally:
    """Op outcomes: errors (did not complete) and wrong values."""

    def __init__(self):
        self.attempted = self.errored = self.wrong = 0
        self.messages: list[str] = []

    def record(self, errors: list[str], wrong: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.errored += 1
        elif wrong:
            self.wrong += 1
        for message in (errors or wrong)[:1]:
            if len(self.messages) < 5:
                self.messages.append(message)

    @property
    def failed(self) -> int:
        return self.errored + self.wrong


def timed_op(op, check, inp, tally: Tally):
    """One op: timed call, then untimed check.  Returns (seconds, output)."""
    start = perf_counter()
    try:
        out = op(inp)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        elapsed = perf_counter() - start
        tally.record([f"{type(exc).__name__}: {exc}"], [])
        return elapsed, None
    elapsed = perf_counter() - start
    tally.record(*check(inp, out))
    return elapsed, out


def untraced_loop(wl, seconds: float, tally: Tally, null) -> tuple[list[float], float]:
    def op(inp):
        return wl.op(inp, null)

    latencies: list[float] = []
    wall = perf_counter()
    busy = 0.0
    while (busy < seconds or len(latencies) < MIN_OPS) and perf_counter() - wall < LOOP_WALL_CAP_S:
        latencies.append(timed_op(op, wl.check, wl.next_input(), tally)[0])
        busy += latencies[-1]
    return latencies, perf_counter() - wall


def traced_loop(wl, seconds: float, tally: Tally, null, tr):
    """Each input runs once untraced and once traced, in alternating order.

    Returns the two latency lists; their medians give the tracing overhead.
    """
    def plain_op(inp):
        return wl.op(inp, null)

    def traced_op(inp):
        return tr.call(f"bench.op.{wl.name}", wl.op, inp, tr)

    plain: list[float] = []
    traced: list[float] = []
    wall = perf_counter()
    while ((sum(plain) + sum(traced) < seconds or len(plain) < MIN_TRACED_PAIRS)
           and perf_counter() - wall < LOOP_WALL_CAP_S):
        inp = wl.next_input()
        traced_first = len(plain) % 2 == 1
        if traced_first:
            elapsed, out = timed_op(traced_op, wl.check, inp, tally)
            traced.append(elapsed)
        plain.append(timed_op(plain_op, wl.check, inp, tally)[0])
        if not traced_first:
            elapsed, out = timed_op(traced_op, wl.check, inp, tally)
            traced.append(elapsed)
        if out is not None:
            wl.trace_extras(inp, out, tr)
    return plain, traced


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(args) -> dict:
    pin_threads()
    sys.path.insert(0, str(SRC))
    import checks
    import layers
    import workloads
    from spans import NullTracer, Tracer

    check_thread_budget(workloads)
    prov = provenance(args, workloads)
    print("# provenance " + json.dumps(prov))

    n_checks, missed = checks.self_check()
    print(f"self-check: {n_checks - len(missed)}/{n_checks} checks caught their corrupted value"
          + (f"; MISSED: {', '.join(missed)}" if missed else ""))

    setup = None if args.trace else setup_seconds(args.workload)

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tally = Tally()
    null = NullTracer()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for note in getattr(wl, "notes", []):
            print(f"note: {note}")
        if args.trace:
            tr = Tracer(layers.EXTRACTORS)
            plain, traced = traced_loop(wl, args.seconds, tally, null, tr)
            overhead = statistics.median(traced) / statistics.median(plain)
            layers.probe(tr, random.Random(args.seed), workdir)
            cli_p50 = statistics.median(plain) * 1e3 if args.workload == "cli" else None
            metrics = layers.metrics(tr, args.workload, cli_p50, overhead)
            print(f"traced run: {len(plain)} ops untraced + {len(traced)} traced, "
                  f"{len(tr.spans)} spans; tracing overhead {100 * (overhead - 1):+.2f}% "
                  f"on the op median")
        else:
            latencies, wall = untraced_loop(wl, args.seconds, tally, null)
            n = len(latencies)
            if args.workload == "cli":
                rss_kib = wl.peak_rss_kib
            else:
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (n / sum(latencies), "1/s"),
                "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                "op_p90_ms": (p90(latencies) * 1e3, "ms"),
                "peak_rss_mb": (rss_kib / 1024, "MB"),
            }
            beyond = sum(1 for x in latencies if x * 1e3 > metrics["op_p90_ms"][0])
            print(f"{args.workload}: {n} ops, {sum(latencies):.2f} s timed, "
                  f"{wall:.2f} s wall (checks and input generation untimed)")
            print(f"  samples: setup {len(setup)}, latency {n} ({beyond} beyond p90); "
                  f"failed_ratio {tally.failed / tally.attempted:.4f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still has its directory there
            pass

    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    print(f"  ops attempted {tally.attempted}, failed {tally.failed} "
          f"({tally.errored} did not complete, {tally.wrong} wrong values)")
    for message in tally.messages:
        print(f"  failure: {message}")
    return {
        # A completed op with a wrong value makes the run incorrect; an op
        # that did not complete (raised, or exited non-zero) counts as failed.
        "correct": not missed and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            fail(f"workload {name} exited with {done.returncode}")
        results[name] = json.loads(lines[-1])
        provenance_line = next(l for l in lines if l.startswith("# provenance "))
        results[name]["provenance"] = json.loads(provenance_line[len("# provenance "):])
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items() for metric, value in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every result here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "riskctl" / "__init__.py").is_file():
        fail(f"no riskctl source tree at {SRC}; run from a checkout of the repository")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
