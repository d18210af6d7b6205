"""Which commands load numpy.

Only ``simulate`` may import numpy and ``riskctl.chain``, for its
seeded draws; ``import riskctl`` and the score, path, report, matrix
and verify commands stay free of both, with the built-in model and with
a model document.  Each check runs in a fresh interpreter, because this
test process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskctl
from riskctl import builtin_paper_model, serialize_model

SRC = str(Path(riskctl.__file__).resolve().parent.parent)
HEAVY = ("numpy", "riskctl.chain")


def heavy_modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the HEAVY modules it loaded."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def heavy_modules_after_main(argv: list[str]) -> list[str]:
    return heavy_modules_after(
        f"from riskctl.cli import main\nassert main({argv!r}) == 0"
    )


@pytest.fixture(params=["builtin", "document"])
def model_args(request, tmp_path):
    if request.param == "builtin":
        return []
    doc = tmp_path / "model.json"
    doc.write_text(serialize_model(builtin_paper_model()), encoding="utf-8")
    return ["--model", str(doc)]


def test_import_riskctl_loads_no_numpy():
    assert heavy_modules_after("import riskctl") == []


@pytest.mark.parametrize(
    "argv",
    [["score"], ["path", "--id", "1"], ["report", "--series"], ["matrix", "--id", "1"],
     ["verify"]],
)
def test_commands_without_a_chain_load_no_numpy(argv, model_args):
    assert heavy_modules_after_main(argv + model_args) == []


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--id", "1", "--trials", "100", "--horizon", "50", "--seed", "7"],
     ["simulate", "--id", "1", "--trials", "100"]],
)
def test_commands_with_a_chain_load_numpy(argv):
    assert heavy_modules_after_main(argv) == list(HEAVY)


def test_public_names_resolve():
    assert heavy_modules_after(
        "import riskctl\n"
        "missing = [n for n in riskctl.__all__ if not hasattr(riskctl, n)]\n"
        "assert not missing, missing\n"
        "from riskctl import simulate\n"
        "from riskctl.chain import simulate as direct\n"
        "assert simulate is direct\n"
        "try:\n"
        "    riskctl.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')"
    ) == list(HEAVY)
