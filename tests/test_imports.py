"""Which commands load numpy, and what ``import riskctl`` loads.

Only ``simulate`` may import numpy and ``riskctl.chain``, for its
seeded draws; the score, path, report, matrix and verify commands stay
free of both, with the built-in model and with a model document.
``import riskctl`` loads no submodule at all: each public name loads
its home module on first use.  Each check runs in a fresh interpreter,
because this test process has numpy loaded already.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import riskctl
from riskctl import builtin_paper_model, serialize_model

SRC = str(Path(riskctl.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("numpy", "riskctl.chain")


def modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the numpy and riskctl
    modules it loaded, sorted."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(m for m in sys.modules\n"
        "                          if m.split('.')[0] in ('numpy', 'riskctl'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def heavy_modules_after(code: str) -> list[str]:
    """The HEAVY modules that ``code`` loads in a fresh interpreter."""
    loaded = modules_after(code)
    return [m for m in HEAVY if m in loaded]


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
    # Nor any submodule: each public name loads its module on first use.
    assert modules_after("import riskctl") == ["riskctl"]


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
        "assert set(riskctl.__all__) <= set(dir(riskctl))\n"
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


def test_the_name_table_lists_each_name_once_under_its_home():
    # The name-to-module dict the package looks names up in would drop a
    # duplicate without a word.
    names = [name for names in riskctl._HOMES.values() for name in names]
    assert len(names) == len(set(names)) and riskctl.__all__ == sorted(names)
    for module, names in riskctl._HOMES.items():
        home = importlib.import_module(f"riskctl.{module}")
        for name in names:
            assert getattr(riskctl, name) is getattr(home, name), name


def test_names_the_harness_demos_and_acceptance_suite_import_are_public():
    # Dropping a name from the table must not break the benchmark
    # harness, the demos or the acceptance suite, which import from
    # riskctl public names and submodules (``from riskctl import cli``).
    modules = {module.name for module in pkgutil.iter_modules(riskctl.__path__)}
    files = [*sorted(ROOT.glob("perfbench/*.py")), *sorted(ROOT.glob("demos/*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    imported = {
        (path.relative_to(ROOT).as_posix(), alias.name)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "riskctl" and not node.level
        for alias in node.names
    }
    assert {path for path, _ in imported} >= {"perfbench/workloads.py", "tests/test_acceptance.py"}
    unknown = [item for item in sorted(imported) if item[1] not in {*riskctl.__all__, *modules}]
    assert unknown == []
