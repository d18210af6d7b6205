"""Golden CLI outputs: each command's stdout (and stderr notes) byte for byte.

The files under ``tests/golden/`` were recorded from ``python -m
riskctl.cli <args> --format <fmt>``.  A file ``<name>.<fmt>.err`` holds
the expected standard error; without one, standard error must be empty.
"""

from pathlib import Path

import pytest

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
