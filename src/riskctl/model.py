"""Threat models: view domains, attack paths, score sets, and their JSON form.

A threat model bundles everything one verification run needs: per-domain
score vectors and/or named score-set totals, the defense probability,
the analysis configuration, and a list of declaratively defined attack
paths.  Models are immutable after construction and safe to share.

The document format is a UTF-8 JSON object with top-level keys
``score_sets``, ``vectors``, ``defence``, ``config``, ``paths``, and the
optional ``weight_table`` override.  Unknown keys anywhere are errors.
See :func:`parse_model` for the full schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from enum import Enum
from importlib import resources
from typing import Any, Iterable, Mapping

from .config import FORMULA_SOURCE, AnalysisConfig, ProbabilityLaw
from .cvss import (
    DEFAULT_WEIGHT_TABLE,
    PARAMETERS,
    CvssVector,
    Rounding,
    WeightTable,
    score_breakdown,
)
from .errors import (
    DocumentSyntaxError,
    InvalidConfigError,
    MissingVectorError,
    UnknownPathError,
    UnknownScoreSetError,
    ValidationError,
)


class ViewDomain(Enum):
    """The four view-model perspectives an attack stage can target."""

    DATA = "data"
    SOFTWARE = "software"
    NETWORKING = "networking"
    HARDWARE = "hardware"

    @property
    def code(self) -> str:
        return self.value

    @property
    def short(self) -> str:
        return _VIEW_SHORT[self]


_VIEW_SHORT = {
    ViewDomain.DATA: "Data",
    ViewDomain.SOFTWARE: "SW",
    ViewDomain.NETWORKING: "Net",
    ViewDomain.HARDWARE: "HW",
}


class ReferenceDomain(Enum):
    """Where a stage occurs in the infrastructure; does not affect scores."""

    CLOUD = "cloud"
    INFRA_EDGE = "infra_edge"
    VEHICLE = "vehicle"

    @property
    def code(self) -> str:
        return self.value

    @property
    def short(self) -> str:
        return _REF_SHORT[self]

    @property
    def display(self) -> str:
        return _REF_DISPLAY[self]


_REF_SHORT = {
    ReferenceDomain.CLOUD: "C",
    ReferenceDomain.INFRA_EDGE: "I",
    ReferenceDomain.VEHICLE: "V",
}
_REF_DISPLAY = {
    ReferenceDomain.CLOUD: "Cloud",
    ReferenceDomain.INFRA_EDGE: "Infra & Edge",
    ReferenceDomain.VEHICLE: "Vehicle",
}


class Attacker(Enum):
    AUTHORIZED = "authorized"
    UNAUTHORIZED = "unauthorized"


@dataclass(frozen=True)
class AttackStage:
    """One step of an attack path: where it happens and what it targets."""

    ref_domain: ReferenceDomain
    view_domain: ViewDomain
    description: str = ""

    @property
    def code(self) -> str:
        """Compact stage tag such as ``C-Net`` or ``V-Data``."""
        return f"{self.ref_domain.short}-{self.view_domain.short}"


@dataclass(frozen=True)
class AttackPath:
    """An ordered, linear sequence of attack stages; the unit of verification.

    Stage j (1-based position) is assigned index ``first_stage_index +
    (j - 1)`` for probability purposes.  ``origin_aliases`` lists
    additional origins the same path applies to (the probabilities are
    origin-independent, so aliased cells share one value).
    """

    id: str
    attacker: Attacker
    origin: ReferenceDomain
    stages: tuple[AttackStage, ...]
    first_stage_index: int = 1
    origin_aliases: tuple[ReferenceDomain, ...] = ()

    @property
    def origins(self) -> tuple[ReferenceDomain, ...]:
        return (self.origin, *self.origin_aliases)


@dataclass(frozen=True)
class ScoreSet:
    """Named mapping from view domain to total score.

    Every domain needs a total, and every total is a valid score (see
    :meth:`valid_score`).
    """

    name: str
    totals: Mapping[ViewDomain, float]

    def __post_init__(self):
        missing = [d.code for d in ViewDomain if d not in self.totals]
        if missing:
            raise InvalidConfigError(f"score set {self.name!r} missing domains: {missing}")
        for domain, value in self.totals.items():
            if not ScoreSet.valid_score(value):
                raise InvalidConfigError(
                    f"score set {self.name!r} {domain.code} = {value}, "
                    "expected a finite number >= 0",
                    domain.code,
                )

    @staticmethod
    def valid_score(value: float) -> bool:
        """A domain score is finite and non-negative."""
        return 0.0 <= value < math.inf


@dataclass(frozen=True)
class ThreatModel:
    """Immutable bundle of score sources, defense, config, and paths.

    A per-stage defence tuple needs an entry for every stage position of
    the longest path.
    """

    score_sets: Mapping[str, ScoreSet] = field(default_factory=dict)
    vectors: Mapping[ViewDomain, CvssVector] | None = None
    paths: tuple[AttackPath, ...] = ()
    config: AnalysisConfig = AnalysisConfig()
    weight_table: WeightTable = DEFAULT_WEIGHT_TABLE

    def __post_init__(self):
        if not self.score_sets and not self.vectors:
            raise InvalidConfigError(
                "model needs at least one score source (vectors or score_sets)", "score_sources"
            )
        d = self.config.defence_probability
        longest = max((len(p.stages) for p in self.paths), default=0)
        if isinstance(d, tuple) and len(d) < longest:
            raise InvalidConfigError(
                f"per-stage defence tuple of length {len(d)} is shorter than "
                f"the longest path ({longest} stages)",
                "defence_probability",
            )

    def path(self, path_id: str) -> AttackPath:
        for p in self.paths:
            if p.id == path_id:
                return p
        raise UnknownPathError(f"no path with id {path_id!r}")


# ---------------------------------------------------------------------------
# Score resolution
# ---------------------------------------------------------------------------

def resolve_score(
    model: ThreatModel,
    domain: ViewDomain,
    source: str | None = None,
    rounding: Rounding | None = None,
) -> float:
    """Total score for ``domain`` from a named score set or ``"formula"``.

    ``"formula"`` computes the total from the model's vector for the
    domain (rounding defaults to the model config).  ``source`` defaults
    to the model config's score-set selection.
    """
    source = source if source is not None else model.config.score_set
    if source == FORMULA_SOURCE:
        if not model.vectors or domain not in model.vectors:
            raise MissingVectorError(
                f"formula scoring requested but model has no vector for {domain.code}"
            )
        mode = rounding if rounding is not None else model.config.rounding
        return score_breakdown(model.vectors[domain], model.weight_table, mode).total
    try:
        score_set = model.score_sets[source]
    except KeyError:
        raise UnknownScoreSetError(f"no score set named {source!r}") from None
    return score_set.totals[domain]


# ---------------------------------------------------------------------------
# Built-in model
# ---------------------------------------------------------------------------

def builtin_paper_model() -> ThreatModel:
    """The built-in IoV location-service threat model.

    Parsed from the shipped document (:func:`paper_model_document`),
    which carries the four published view-domain vectors, the two
    reference score sets ("paper-published" totals and the "legacy"
    totals from the earlier revision of the same assessment), defense
    probability 0.1, and the six evaluated attack paths.
    """
    return parse_model(paper_model_document())


def paper_model_document() -> str:
    """The built-in model in document form, as shipped with the package."""
    return resources.files("riskctl").joinpath("data/paper_model.json").read_text("utf-8")


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = ("score_sets", "vectors", "defence", "config", "paths", "weight_table")
# Document path of each AnalysisConfig field its checks can reject.
_CONFIG_PATHS = {
    "defence_probability": "defence.probability",
    "exponent_coefficient": "config.exponent_coefficient",
    "normalization": "config.normalization",
    "score_sources": "$",
}


def _expect_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(path, f"expected a finite number, got {value!r}")
    return number


def _expect_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(path, f"expected a string, got {value!r}")
    return value


def _expect_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(path, f"expected a boolean, got {value!r}")
    return value


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: Iterable[str] = ()) -> None:
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValidationError(path, f"unknown key(s): {', '.join(unknown)}")
    for key in required:
        if key not in obj:
            raise ValidationError(path, f"missing key {key!r}")


def _enum_from_code(enum_cls, value: Any, path: str):
    code = _expect_string(value, path)
    try:
        return enum_cls(code)
    except ValueError:
        valid = "|".join(member.value for member in enum_cls)
        raise ValidationError(path, f"unknown code {code!r} (expected {valid})") from None


def _parse_score_sets(raw: Any) -> dict[str, ScoreSet]:
    raw = _expect_object(raw, "score_sets")
    sets: dict[str, ScoreSet] = {}
    for name, entry in raw.items():
        path = f"score_sets.{name}"
        if not name or name == FORMULA_SOURCE:
            raise ValidationError(path, f"reserved or empty score-set name {name!r}")
        entry = _expect_object(entry, path)
        _check_keys(entry, path, (), [d.code for d in ViewDomain])
        totals = {
            ViewDomain(code): _expect_number(value, f"{path}.{code}")
            for code, value in entry.items()
        }
        try:
            sets[name] = ScoreSet(name=name, totals=totals)
        except InvalidConfigError as exc:
            raise ValidationError(f"{path}.{exc.field}" if exc.field else path, str(exc)) from None
    return sets


def _parse_vectors(raw: Any, table: WeightTable) -> dict[ViewDomain, CvssVector]:
    raw = _expect_object(raw, "vectors")
    vectors: dict[ViewDomain, CvssVector] = {}
    lower = tuple(p.lower() for p in PARAMETERS)
    for code, entry in raw.items():
        domain = _enum_from_code(ViewDomain, code, f"vectors.{code}")
        path = f"vectors.{code}"
        entry = _expect_object(entry, path)
        _check_keys(entry, path, lower)
        labels: dict[str, str] = {}
        for parameter, key in zip(PARAMETERS, lower):
            label = _expect_string(entry[key], f"{path}.{key}")
            known = table.impact_bias if parameter == "IB" else table.weights.get(parameter, {})
            if label not in known:
                raise ValidationError(f"{path}.{key}", f"unknown label {label!r}")
            labels[key] = label
        vectors[domain] = CvssVector(**labels)
    return vectors


def _parse_weight_table(raw: Any) -> WeightTable:
    raw = _expect_object(raw, "weight_table")
    _check_keys(raw, "weight_table", (), [p.lower() for p in PARAMETERS])
    weights = {p: dict(DEFAULT_WEIGHT_TABLE.weights[p]) for p in PARAMETERS if p != "IB"}
    impact_bias = dict(DEFAULT_WEIGHT_TABLE.impact_bias)
    for key, entry in raw.items():
        parameter = key.upper()
        path = f"weight_table.{key}"
        entry = _expect_object(entry, path)
        if parameter == "IB":
            triples: dict[str, tuple[float, float, float]] = {}
            for label, triple in entry.items():
                if not isinstance(triple, list) or len(triple) != 3:
                    raise ValidationError(
                        f"{path}.{label}", "expected a 3-element array [cib, iib, aib]"
                    )
                values = tuple(
                    _expect_number(v, f"{path}.{label}[{i}]") for i, v in enumerate(triple)
                )
                triples[label] = values
            impact_bias = triples
        else:
            weights[parameter] = {
                label: _expect_number(w, f"{path}.{label}") for label, w in entry.items()
            }
    try:
        return WeightTable(weights=weights, impact_bias=impact_bias)
    except ValueError as exc:
        raise ValidationError("weight_table", str(exc)) from None


# The parser of each `config` key, in document order.
_CONFIG_FIELDS = {
    "exponent_coefficient": _expect_number,
    "normalization": _expect_number,
    "defence_on_final_stage": _expect_bool,
    "score_set": _expect_string,
    "rounding": partial(_enum_from_code, Rounding),
    "probability_law": partial(_enum_from_code, ProbabilityLaw),
}


def _parse_config(
    raw: Any, defence: float | tuple[float, ...] | None, score_sets: dict
) -> AnalysisConfig:
    raw = _expect_object(raw, "config") if raw is not None else {}
    _check_keys(raw, "config", (), _CONFIG_FIELDS)
    kwargs = {key: _CONFIG_FIELDS[key](value, f"config.{key}") for key, value in raw.items()}
    if defence is not None:
        kwargs["defence_probability"] = defence
    kwargs.setdefault("score_set", next(iter(score_sets), FORMULA_SOURCE))
    return AnalysisConfig(**kwargs)


def _parse_path(raw: Any, index: int) -> AttackPath:
    path = f"paths[{index}]"
    raw = _expect_object(raw, path)
    _check_keys(raw, path, ("id", "attacker", "origin", "stages"), ("first_stage_index",))

    raw_id = raw["id"]
    if isinstance(raw_id, bool) or not isinstance(raw_id, (str, int)):
        raise ValidationError(f"{path}.id", f"expected a string or integer, got {raw_id!r}")
    path_id = str(raw_id)

    attacker = _enum_from_code(Attacker, raw["attacker"], f"{path}.attacker")

    origin_raw = raw["origin"]
    if isinstance(origin_raw, list):
        if not origin_raw:
            raise ValidationError(f"{path}.origin", "origin list must be non-empty")
        origins = [
            _enum_from_code(ReferenceDomain, o, f"{path}.origin[{i}]")
            for i, o in enumerate(origin_raw)
        ]
        if len(set(origins)) != len(origins):
            raise ValidationError(f"{path}.origin", "origin list has duplicates")
    else:
        origins = [_enum_from_code(ReferenceDomain, origin_raw, f"{path}.origin")]

    first = 1
    if "first_stage_index" in raw:
        value = raw["first_stage_index"]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{path}.first_stage_index", f"expected an integer, got {value!r}")
        if value < 1:
            raise ValidationError(f"{path}.first_stage_index", f"index must be >= 1, got {value}")
        first = value

    stages_raw = raw["stages"]
    if not isinstance(stages_raw, list) or not stages_raw:
        raise ValidationError(f"{path}.stages", "stages must be a non-empty array")
    stages = []
    for i, entry in enumerate(stages_raw):
        spath = f"{path}.stages[{i}]"
        entry = _expect_object(entry, spath)
        _check_keys(entry, spath, ("ref", "domain", "desc"))
        desc = _expect_string(entry["desc"], f"{spath}.desc")
        if not desc:
            raise ValidationError(f"{spath}.desc", "description must be non-empty")
        stages.append(
            AttackStage(
                ref_domain=_enum_from_code(ReferenceDomain, entry["ref"], f"{spath}.ref"),
                view_domain=_enum_from_code(ViewDomain, entry["domain"], f"{spath}.domain"),
                description=desc,
            )
        )

    return AttackPath(
        id=path_id,
        attacker=attacker,
        origin=origins[0],
        origin_aliases=tuple(origins[1:]),
        stages=tuple(stages),
        first_stage_index=first,
    )


def parse_model(document: str) -> ThreatModel:
    """Parse and fully validate a threat-model document.

    Schema (all top-level keys optional unless noted)::

        {
          "score_sets":   {name: {"data": t, "software": t, "networking": t, "hardware": t}},
          "vectors":      {domain: {"av": .., "ac": .., "a": .., "ci": .., "ii": .., "ai": ..,
                                    "ib": .., "e": .., "rl": .., "rc": .., "cdp": .., "td": ..}},
          "defence":      {"probability": d},
          "config":       {"exponent_coefficient": k, "normalization": n,
                           "defence_on_final_stage": bool, "score_set": name | "formula",
                           "rounding": "paper" | "raw", "probability_law": "exponential" | "linear"},
          "weight_table": {parameter: {label: weight}, "ib": {label: [cib, iib, aib]}},
          "paths":        [{"id": .., "attacker": "authorized" | "unauthorized",
                            "origin": ref | [ref, ...], "first_stage_index": n,
                            "stages": [{"ref": .., "domain": .., "desc": ..}]}]
        }

    Domain codes: ``data|software|networking|hardware``; ref codes:
    ``cloud|infra_edge|vehicle``.  At least one score source
    (``vectors`` or a score set) must be present.  ``weight_table``
    entries replace the default table per parameter.  Unknown keys,
    NaN and infinite numbers are rejected.  A ``defence.probability``
    array needs an entry for every stage of the longest path.  Value
    ranges are checked by the value objects (``AnalysisConfig``,
    ``ScoreSet``, ``ThreatModel``); their errors get the field path here.

    Raises:
        DocumentSyntaxError: malformed JSON.
        ValidationError: schema violation, with the offending field path.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"malformed document: {exc}") from None
    raw = _expect_object(raw, "$")
    _check_keys(raw, "$", (), _TOP_KEYS)

    table = _parse_weight_table(raw["weight_table"]) if "weight_table" in raw else DEFAULT_WEIGHT_TABLE
    score_sets = _parse_score_sets(raw["score_sets"]) if "score_sets" in raw else {}
    vectors = _parse_vectors(raw["vectors"], table) if "vectors" in raw else None

    defence: float | tuple[float, ...] | None = None
    if "defence" in raw:
        entry = _expect_object(raw["defence"], "defence")
        _check_keys(entry, "defence", ("probability",))
        value = entry["probability"]
        # Scalar d, or a per-stage-position array (forward-compatible form).
        if isinstance(value, list):
            defence = tuple(
                _expect_number(v, f"defence.probability[{i}]") for i, v in enumerate(value)
            )
        else:
            defence = _expect_number(value, "defence.probability")

    paths: list[AttackPath] = []
    if "paths" in raw:
        if not isinstance(raw["paths"], list):
            raise ValidationError("paths", "expected an array")
        seen: set[str] = set()
        for i, entry in enumerate(raw["paths"]):
            parsed = _parse_path(entry, i)
            if parsed.id in seen:
                raise ValidationError(f"paths[{i}].id", f"duplicate path id {parsed.id!r}")
            seen.add(parsed.id)
            paths.append(parsed)

    # The value objects check their own ranges; a rejected field gets its
    # document path here.
    try:
        model = ThreatModel(
            score_sets=score_sets,
            vectors=vectors,
            paths=tuple(paths),
            config=_parse_config(raw.get("config"), defence, score_sets),
            weight_table=table,
        )
    except InvalidConfigError as exc:
        raise ValidationError(_CONFIG_PATHS.get(exc.field, "config"), str(exc)) from None

    selected = model.config.score_set
    if selected == FORMULA_SOURCE:
        if vectors is None:
            raise ValidationError("config.score_set", "formula scoring requires vectors")
    elif selected not in score_sets:
        raise ValidationError("config.score_set", f"unknown score set {selected!r}")
    return model


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_to_dict(model: ThreatModel) -> dict[str, Any]:
    """Document-shaped dict such that ``parse_model(json.dumps(...))`` is identity."""
    doc: dict[str, Any] = {}
    if model.score_sets:
        doc["score_sets"] = {
            name: {d.code: s.totals[d] for d in ViewDomain}
            for name, s in model.score_sets.items()
        }
    if model.vectors:
        doc["vectors"] = {d.code: v.to_dict() for d, v in model.vectors.items()}
    if model.weight_table != DEFAULT_WEIGHT_TABLE:
        table: dict[str, Any] = {
            p.lower(): dict(model.weight_table.weights[p]) for p in PARAMETERS if p != "IB"
        }
        table["ib"] = {k: list(v) for k, v in model.weight_table.impact_bias.items()}
        doc["weight_table"] = table
    cfg = model.config
    doc["defence"] = {
        "probability": list(cfg.defence_probability)
        if isinstance(cfg.defence_probability, tuple)
        else cfg.defence_probability
    }
    values = {key: getattr(cfg, key) for key in _CONFIG_FIELDS}
    doc["config"] = {k: v.value if isinstance(v, Enum) else v for k, v in values.items()}
    doc["paths"] = [
        {
            "id": p.id,
            "attacker": p.attacker.value,
            "origin": p.origin.code if not p.origin_aliases
            else [o.code for o in p.origins],
            "first_stage_index": p.first_stage_index,
            "stages": [
                {"ref": s.ref_domain.code, "domain": s.view_domain.code, "desc": s.description}
                for s in p.stages
            ],
        }
        for p in model.paths
    ]
    return doc


def serialize_model(model: ThreatModel) -> str:
    """Serialize a model to its JSON document form."""
    return json.dumps(model_to_dict(model), indent=2) + "\n"
