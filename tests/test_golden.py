"""Golden CLI outputs: each command's stdout (and stderr notes) byte for byte.

The files under ``tests/golden/`` were recorded from ``python -m
riskctl.cli <args> --format <fmt>``.  A file ``<name>.<fmt>.err`` holds
the expected standard error; without one, standard error must be empty.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import riskctl
from riskctl.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "score": ["score"],
    "score-networking-formula": ["score", "--domain", "networking", "--source", "formula"],
    "path-1": ["path", "--id", "1"],
    "matrix-3-legacy": [
        "matrix", "--id", "3", "--score-set", "legacy", "--k", "1", "--first-index", "2",
    ],
    "report-series": ["report", "--series"],
    "report": ["report"],
    "verify": ["verify"],
    "simulate-1": [
        "simulate", "--id", "1", "--trials", "20000", "--horizon", "200", "--seed", "7",
    ],
}
FORMATS = {"simulate-1": ("json", "csv")}


@pytest.mark.parametrize(
    "name,fmt",
    [(name, fmt) for name in CASES for fmt in FORMATS.get(name, ("table", "json", "csv"))],
)
def test_output_matches_golden(capsys, name, fmt):
    code = main(CASES[name] + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    err_file = GOLDEN / f"{name}.{fmt}.err"
    expected_err = err_file.read_text(encoding="utf-8") if err_file.exists() else ""
    assert captured.err == expected_err


def _cpu_flags() -> set[str]:
    try:
        lines = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        return set()
    return {f for line in lines if line.startswith("flags") for f in line.split(":", 1)[1].split()}


@pytest.mark.skipif(
    platform.machine() != "x86_64" or "avx" not in _cpu_flags(),
    reason="OpenBLAS's Sandybridge kernel needs an x86-64 CPU with AVX",
)
def test_simulate_bytes_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE picks OpenBLAS's kernel when numpy loads it.  Only
    # kernels this CPU can run are forced: Haswell without AVX2 or
    # SkylakeX without AVX-512 would kill the child with SIGILL.
    src = str(Path(riskctl.__file__).resolve().parent.parent)
    outputs = []
    for kernel in ("Prescott", "Sandybridge"):
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "riskctl.cli", *CASES["simulate-1"], "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
