"""What `parse_model` makes of every single-field fault in a document.

Two base documents are mutated: the shipped one, and a variant with a
`weight_table` override, an `origin` list and a per-stage `defence`
array.  Each key is deleted, each value replaced by null, "x", 1.5, -1,
[], {} and true, and each object given an unknown key; only the first
two paths are mutated, as they hold every kind of key.  A third group
puts one fault into each of two top-level sections, and a fourth puts
two faults into one object, to pin which error wins.  A rejected
document records its error line; an accepted one the SHA-256 of its
`serialize_model` text.

The record is ``tests/golden/document-errors.json``.  To rewrite it
after a change that is meant to alter an outcome, run
``PYTHONPATH=src python tests/test_document_errors.py`` and review the
diff.
"""

import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest

from riskctl import (
    DocumentError,
    builtin_paper_model,
    paper_model_document,
    parse_model,
    serialize_model,
)

RECORD = Path(__file__).parent / "golden" / "document-errors.json"
VALUES = (None, "x", 1.5, -1, [], {}, True)
UNKNOWN = "zz_unknown"
MUTATED_PATHS = 2


def base_documents() -> dict:
    shipped = json.loads(paper_model_document())
    variant = copy.deepcopy(shipped)
    # Path "4" has the origin list; it goes first so that it is mutated.
    variant["paths"].insert(0, variant["paths"].pop(4))
    variant["defence"] = {"probability": [0.1, 0.2, 0.1, 0.3]}
    variant["weight_table"] = {
        "av": {"L": 0.6, "R": 1.0},
        "ib": {"N": [0.3, 0.3, 0.3], "C": [0.5, 0.25, 0.25],
               "I": [0.25, 0.5, 0.25], "A": [0.25, 0.25, 0.5]},
    }
    return {"shipped": shipped, "variant": variant}


def _where(keys) -> str:
    text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    return text[1:] or "$"


def _nodes(value, keys=()):
    """(key path, value) of every node, the root first, skipping the
    paths after the first ``MUTATED_PATHS``."""
    yield keys, value
    if keys[:1] == ("paths",) and len(keys) >= 2 and keys[1] >= MUTATED_PATHS:
        return
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _nodes(item, keys + (key,))


def _mutate(doc, keys, change):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    change(parent, keys[-1]) if keys else change(doc, None)
    return doc


def _set(value):
    def change(parent, key):
        parent[key] = copy.deepcopy(value)
    return change


def _delete(parent, key):
    del parent[key]


def _add_unknown(parent, key):
    (parent[key] if key is not None else parent)[UNKNOWN] = 1


def single_faults(doc):
    for keys, value in _nodes(doc):
        if keys:
            yield f"{_where(keys)} del", _mutate(doc, keys, _delete)
            for new in VALUES:
                yield f"{_where(keys)} = {json.dumps(new)}", _mutate(doc, keys, _set(new))
        if isinstance(value, dict):
            yield f"{_where(keys)} + {UNKNOWN}", _mutate(doc, keys, _add_unknown)


# One fault per top-level section, of two kinds: a wrong value deep in
# the section, and an unknown key in one of its objects.
SECTION_FAULTS = {
    "score_sets": (("score_sets", "legacy", "data"), ("score_sets", "legacy")),
    "vectors": (("vectors", "hardware", "td"), ("vectors", "software")),
    "weight_table": (("weight_table", "av", "L"), ("weight_table",)),
    "defence": (("defence", "probability", 1), ("defence",)),
    "config": (("config", "rounding"), ("config",)),
    "paths": (("paths", 1, "stages", 2, "domain"), ("paths", 1, "stages", 0)),
}


def two_faults(doc):
    sections = list(SECTION_FAULTS)
    for i, first in enumerate(sections):
        for second in sections[i + 1:]:
            for kind, change in (("value", _set("x")), ("unknown key", _add_unknown)):
                mutated = doc
                for section in (first, second):
                    keys = SECTION_FAULTS[section][kind != "value"]
                    mutated = _mutate(mutated, keys, change)
                yield f"{first} + {second} ({kind})", mutated


# Two faults inside one object, its keys out of document order where
# that order decides which fault is reported.
ONE_OBJECT = {
    "config, rounding before normalization": (
        ("config",), {"rounding": "x", "normalization": "y"}),
    "score set, two negative totals": (
        ("score_sets", "legacy"), {"software": -1, "data": -2, "networking": 1, "hardware": 1}),
    "stage, every value wrong": (
        ("paths", 1, "stages", 0), {"domain": "x", "ref": "y", "desc": ""}),
    "path, stages before id": (
        ("paths", 1), {"stages": [], "origin": "x", "attacker": "y", "id": True}),
    "vector, unknown label before a non-string": (
        ("vectors", "data"),
        {"av": "Q", "ac": 1, "a": "N", "ci": "P", "ii": "C", "ai": "P", "ib": "I", "e": "PoC",
         "rl": "TF", "rc": "UCB", "cdp": "H", "td": "M"}),
    "vectors, second domain first": (
        ("vectors",), {"software": {}, "data": {}, "networking": {}, "hardware": {}}),
    "weight table, two weights out of range": (
        ("weight_table",), {"td": {"L": 2.0}, "av": {"L": 2.0}}),
    "weight table, two non-numbers": (("weight_table",), {"td": {"L": "x"}, "av": {"L": "y"}}),
}


def one_object_faults(doc):
    for case, (keys, value) in ONE_OBJECT.items():
        yield case, _mutate(doc, keys, _set(value))


def outcome(doc) -> str:
    try:
        model = parse_model(json.dumps(doc))
    except DocumentError as exc:
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(serialize_model(model).encode("utf-8")).hexdigest()


def outcomes() -> dict:
    bases = base_documents()
    record = {name: {case: outcome(doc) for case, doc in single_faults(base)}
              for name, base in bases.items()}
    variant = bases["variant"]
    record["two faults"] = {case: outcome(doc) for case, doc in two_faults(variant)}
    record["one object"] = {case: outcome(doc) for case, doc in one_object_faults(variant)}
    return record


@pytest.fixture(scope="module")
def actual():
    return outcomes()


@pytest.mark.parametrize("group", ["shipped", "variant", "two faults", "one object"])
def test_outcomes_match_record(actual, group):
    expected = json.loads(RECORD.read_text(encoding="utf-8"))[group]
    changed = {
        case: (expected.get(case), actual[group].get(case))
        for case in expected.keys() | actual[group].keys()
        if expected.get(case) != actual[group].get(case)
    }
    assert changed == {}


def test_serialize_gives_shipped_bytes():
    assert serialize_model(builtin_paper_model()) == paper_model_document()


if __name__ == "__main__":
    RECORD.write_text(json.dumps(outcomes(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
