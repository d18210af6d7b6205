"""Threat models: view domains, attack paths, score sets, and their JSON form.

A threat model bundles everything one verification run needs: per-domain
score vectors and/or named score-set totals, the defense probability,
the analysis configuration, and a list of declaratively defined attack
paths.  Models are immutable after construction and safe to share.

The JSON document form is read and written through one table of keys
per document object, at the end of this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

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
    NotFoundError,
    ValidationError,
    _check_types,
)


class _Domain(Enum):
    """A member of one of the paper's two asset dimensions.  It states
    its document code (its value), its short name and, for a reference
    domain, its display name, once, beside its own name."""

    def __new__(cls, code: str, short: str, display: str | None = None):
        member = object.__new__(cls)
        member._value_, member.short = code, short
        if display is not None:
            member.display = display
        return member

    @property
    def code(self) -> str:
        return self.value


class ViewDomain(_Domain):
    """The four view-model perspectives an attack stage can target."""

    DATA = "data", "Data"
    SOFTWARE = "software", "SW"
    NETWORKING = "networking", "Net"
    HARDWARE = "hardware", "HW"


class ReferenceDomain(_Domain):
    """Where a stage occurs in the infrastructure; does not affect scores."""

    CLOUD = "cloud", "C", "Cloud"
    INFRA_EDGE = "infra_edge", "I", "Infra & Edge"
    VEHICLE = "vehicle", "V", "Vehicle"


class Attacker(Enum):
    AUTHORIZED = "authorized"
    UNAUTHORIZED = "unauthorized"


@dataclass(frozen=True)
class AttackStage:
    """One step of an attack path: where it happens and what it targets."""

    ref_domain: ReferenceDomain
    view_domain: ViewDomain
    description: str

    def __post_init__(self):
        _check_types(vars(self), ref_domain=ReferenceDomain, view_domain=ViewDomain,
                     description=str)
        if not self.description:
            raise InvalidConfigError("description must be non-empty", "description")

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

    def __post_init__(self):
        _check_types(vars(self), id=str, attacker=Attacker, origin=ReferenceDomain,
                     stages=[AttackStage], first_stage_index=int,
                     origin_aliases=[ReferenceDomain])
        if len(set(self.origins)) != len(self.origins):
            raise InvalidConfigError("origin list has duplicates", "origin")
        if self.first_stage_index < 1:
            raise InvalidConfigError(
                f"index must be >= 1, got {self.first_stage_index}", "first_stage_index")
        if not self.stages:
            raise InvalidConfigError("stages must be a non-empty array", "stages")

    @property
    def origins(self) -> tuple[ReferenceDomain, ...]:
        return (self.origin, *self.origin_aliases)


@dataclass(frozen=True)
class ScoreSet:
    """Named mapping from view domain to total score.

    Each key is a view domain, every domain needs a total, and every
    total is a valid score (see :meth:`valid_score`).
    """

    name: str
    totals: Mapping[ViewDomain, float]

    def __post_init__(self):
        _check_types(vars(self), name=str, totals={ViewDomain: object})
        if not self.name or self.name == FORMULA_SOURCE:
            raise InvalidConfigError(f"reserved or empty score-set name {self.name!r}")
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
        """A domain score is a finite, non-negative number (not a bool)."""
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and 0.0 <= value < math.inf)


@dataclass(frozen=True)
class ThreatModel:
    """Immutable bundle of score sources, defense, config, and paths.

    Each vector label is one that the weight table defines, each score
    set is keyed by its name, path ids are distinct, and a per-stage
    defence tuple needs an entry for every stage position of the longest
    path.
    """

    score_sets: Mapping[str, ScoreSet] = field(default_factory=dict)
    vectors: Mapping[ViewDomain, CvssVector] | None = None
    paths: tuple[AttackPath, ...] = ()
    config: AnalysisConfig = AnalysisConfig()
    weight_table: WeightTable = DEFAULT_WEIGHT_TABLE

    def __post_init__(self):
        _check_types(vars(self), score_sets={str: ScoreSet}, paths=[AttackPath],
                     config=AnalysisConfig, weight_table=WeightTable)
        if self.vectors is not None:
            _check_types(vars(self), vectors={ViewDomain: CvssVector})
        table = self.weight_table
        for domain, vector in (self.vectors or {}).items():
            for p in PARAMETERS:  # the first label the table lacks, in document order
                label = vector.label(p)
                if label not in (table.impact_bias if p == "IB" else table.weights.get(p, {})):
                    raise InvalidConfigError(f"unknown label {label!r}",
                                             ("vectors", domain.code, p.lower()))
        for key, score_set in self.score_sets.items():
            if key != score_set.name:
                raise InvalidConfigError(
                    f"score set {score_set.name!r} is keyed {key!r}", ("score_sets", key))
        ids = [p.id for p in self.paths]
        if len(set(ids)) < len(ids):
            i = next(i for i, path_id in enumerate(ids) if path_id in ids[:i])
            raise InvalidConfigError(f"duplicate path id {ids[i]!r}", ("paths", i, "id"))
        if not self.score_sets and not self.vectors:
            raise InvalidConfigError(
                "model needs at least one score source (vectors or score_sets)")
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
        raise NotFoundError(f"no path with id {path_id!r}")


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
    if not isinstance(domain, ViewDomain):
        raise NotFoundError(f"no view domain {domain!r}")
    source = source if source is not None else model.config.score_set
    if source == FORMULA_SOURCE:
        if not model.vectors or domain not in model.vectors:
            raise NotFoundError(
                f"formula scoring requested but model has no vector for {domain.code}"
            )
        mode = rounding if rounding is not None else model.config.rounding
        return score_breakdown(model.vectors[domain], model.weight_table, mode).total
    try:
        score_set = model.score_sets[source]
    except KeyError:
        raise NotFoundError(f"no score set named {source!r}") from None
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
# The document: one table of keys per object
# ---------------------------------------------------------------------------
# A field path is a (parent, key) chain that ends in None, the document
# itself; it becomes text only in the error that reports it.

def _invalid(path, reason: str) -> ValidationError:
    parts = []
    while path is not None:
        path, key = path
        parts.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return ValidationError("".join(reversed(parts))[1:] or "$", reason)


def _object(value: Any, path) -> dict:
    if not isinstance(value, dict):
        raise _invalid(path, f"expected an object, got {type(value).__name__}")
    return value


def _typed(types, what: str):
    """Parser of a value of ``types``; a bool is one only if ``types`` is bool."""
    def parse(value: Any, path):
        if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
            raise _invalid(path, f"expected {what}, got {value!r}")
        return value

    return parse


_string, _bool = _typed(str, "a string"), _typed(bool, "a boolean")
_integer, _numeric = _typed(int, "an integer"), _typed((int, float), "a number")
_id = _typed((str, int), "a string or integer")


def _number(value: Any, path) -> float:
    try:
        number = float(_numeric(value, path))
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _invalid(path, f"expected a finite number, got {value!r}")
    return number


def _enum(enum_cls):
    """Parser of a string that is the code of an ``enum_cls`` member."""
    codes = {member.value: member for member in enum_cls}

    def parse(value: Any, path):
        if _string(value, path) not in codes:
            raise _invalid(path, f"unknown code {value!r} (expected {'|'.join(codes)})")
        return codes[value]

    return parse


_view, _ref = _enum(ViewDomain), _enum(ReferenceDomain)


def _field_error(exc: InvalidConfigError, path, renamed: Mapping = MappingProxyType({})):
    """The error of a value object built at ``path``, at its field: the
    field, renamed by ``renamed``, is a key or a tuple of keys below
    ``path``, or None for the object itself."""
    field = renamed.get(exc.field, exc.field)
    for key in (field,) if isinstance(field, str) else field or ():
        path = (path, key)
    return _invalid(path, str(exc))


_REQUIRED = object()


class _Key(NamedTuple):
    """One key of a document object.

    ``parse(value, path)`` gives the model value.  ``dump(owner)``
    gives the document value (an enum member stands for its code), or
    None to leave the key out: null is never a valid value.  An absent
    key takes ``default``, unless that is ``_REQUIRED``.
    """

    name: str
    parse: Callable
    dump: Callable
    default: Any = _REQUIRED


class _Table:
    """The keys of one document object, and the one reader of them.

    The reader rejects unknown keys (all named, sorted), then a missing
    key (the first in table order), then parses the values.  With a
    ``build``, the object is a record, read and built from its values in
    table order; ``renamed`` maps a field its errors name to the document's.
    Without one it holds options: they are read in document order, and
    the reader returns the ones given as a dict.
    """

    def __init__(self, *keys: _Key, build: Callable | None = None,
                 renamed: Mapping = MappingProxyType({})):
        self.keys, self.build, self.renamed = keys, build, renamed
        self.by_name = {key.name: key for key in keys}
        self.required = [key.name for key in keys if key.default is _REQUIRED]

    def parse(self, value: Any, path):
        obj = _object(value, path)
        if not self.by_name.keys() >= obj.keys():
            unknown = ", ".join(sorted(obj.keys() - self.by_name.keys()))
            raise _invalid(path, f"unknown key(s): {unknown}")
        for name in self.required:
            if name not in obj:
                raise _invalid(path, f"missing key {name!r}")
        out: dict[str, Any] = {}
        if self.build is None:
            for name, item in obj.items():
                out[name] = self.by_name[name].parse(item, (path, name))
            return out
        for key in self.keys:
            name = key.name
            out[name] = key.parse(obj[name], (path, name)) if name in obj else key.default
        try:
            return self.build(*out.values())
        except InvalidConfigError as exc:
            raise _field_error(exc, path, self.renamed) from None

    def dump(self, owner) -> dict[str, Any]:
        values = ((key.name, key.dump(owner)) for key in self.keys)
        return {name: value.value if isinstance(value, Enum) else value
                for name, value in values if value is not None}


_TOTALS = _Table(*(_Key(d.code, _number, lambda s, d=d: s.totals[d], None) for d in ViewDomain))


def _parse_score_sets(value: Any, path) -> dict[str, ScoreSet]:
    sets: dict[str, ScoreSet] = {}
    for name, entry in _object(value, path).items():
        totals = _TOTALS.parse(entry, (path, name))
        try:
            sets[name] = ScoreSet(name, {ViewDomain(code): t for code, t in totals.items()})
        except InvalidConfigError as exc:
            raise _field_error(exc, (path, name)) from None
    return sets


_VECTOR = _Table(*(_Key(p.lower(), _string, lambda vector, p=p: vector.label(p))
                   for p in PARAMETERS), build=CvssVector)


def _parse_vectors(value: Any, path) -> dict[ViewDomain, CvssVector]:
    return {_view(code, (path, code)): _VECTOR.parse(entry, (path, code))
            for code, entry in _object(value, path).items()}


def _weights(value: Any, path) -> dict[str, float]:
    return {label: _number(w, (path, label)) for label, w in _object(value, path).items()}


def _triples(value: Any, path) -> dict[str, tuple[float, float, float]]:
    triples = {}
    for label, triple in _object(value, path).items():
        if not isinstance(triple, list) or len(triple) != 3:
            raise _invalid((path, label), "expected a 3-element array [cib, iib, aib]")
        triples[label] = tuple(_number(w, ((path, label), i)) for i, w in enumerate(triple))
    return triples


# Every parameter but IB, then IB: the order a custom table is written in.
_WEIGHTS = _Table(
    *(_Key(p.lower(), _weights, lambda t, p=p: dict(t.weights[p]), None)
      for p in PARAMETERS if p != "IB"),
    _Key("ib", _triples, lambda t: dict(t.impact_bias), None),
)


def _parse_weight_table(value: Any, path) -> WeightTable:
    """The default table, with the parameters the document gives replaced."""
    given = {key.upper(): entry for key, entry in _WEIGHTS.parse(value, path).items()}
    try:
        return WeightTable(
            weights={p: dict(given.get(p, w)) for p, w in DEFAULT_WEIGHT_TABLE.weights.items()},
            impact_bias=dict(given.get("IB", DEFAULT_WEIGHT_TABLE.impact_bias)),
        )
    except ValueError as exc:
        raise _invalid(path, str(exc)) from None


def _parse_probability(value: Any, path) -> float | tuple[float, ...]:
    # Scalar d, or a per-stage-position array.
    if isinstance(value, list):
        return tuple(_number(d, (path, i)) for i, d in enumerate(value))
    return _number(value, path)


_PROBABILITY = _Key("probability", _parse_probability, lambda c: c.defence_probability)
_DEFENCE = _Table(_PROBABILITY, build=lambda d: d)


def _option(name: str, parse: Callable) -> _Key:
    """A config key, named as the AnalysisConfig field it sets."""
    return _Key(name, parse, attrgetter(name), None)


_SCORE_SET = _option("score_set", _string)
_OPTIONS = _Table(
    _option("exponent_coefficient", _number),
    _option("normalization", _number),
    _option("defence_on_final_stage", _bool),
    _SCORE_SET,
    _option("rounding", _enum(Rounding)),
    _option("probability_law", _enum(ProbabilityLaw)),
)


def _parse_origins(value: Any, path) -> tuple[ReferenceDomain, ...]:
    if not isinstance(value, list):
        return (_ref(value, path),)
    if not value:
        raise _invalid(path, "origin list must be non-empty")
    return tuple(_ref(origin, (path, i)) for i, origin in enumerate(value))


def _array(table: _Table, reason: str = "expected an array"):
    """Parser of an array of ``table``'s objects, as a tuple."""
    def parse(value: Any, path) -> tuple:
        if not isinstance(value, list):
            raise _invalid(path, reason)
        return tuple(table.parse(entry, (path, i)) for i, entry in enumerate(value))

    return parse


_STAGE = _Table(
    _Key("ref", _ref, lambda s: s.ref_domain),
    _Key("domain", _view, lambda s: s.view_domain),
    _Key("desc", _string, lambda s: s.description),
    build=AttackStage, renamed={"description": "desc"},
)
_PATH = _Table(
    _Key("id", lambda v, path: str(_id(v, path)), lambda p: p.id),
    _Key("attacker", _enum(Attacker), lambda p: p.attacker),
    _Key("origin", _parse_origins,
         lambda p: [o.code for o in p.origins] if p.origin_aliases else p.origin.code),
    _Key("first_stage_index", _integer, lambda p: p.first_stage_index, 1),
    _Key("stages", _array(_STAGE, "stages must be a non-empty array"),
         lambda p: [_STAGE.dump(s) for s in p.stages]),
    build=lambda path_id, attacker, origins, first, stages: AttackPath(
        path_id, attacker, origins[0], stages, first, origins[1:]),
)


def _build_model(score_sets, vectors, table, defence, options, paths) -> ThreatModel:
    """The model, whose value objects check their own rules, and its score-set selection."""
    options = {_SCORE_SET.name: next(iter(score_sets), FORMULA_SOURCE), **options}
    config_path = (None, _CONFIG.name)
    model = ThreatModel(score_sets, vectors, paths, AnalysisConfig(defence, **options), table)
    selected = model.config.score_set
    if selected == FORMULA_SOURCE and vectors is None:
        raise _invalid((config_path, _SCORE_SET.name), "formula scoring requires vectors")
    if selected != FORMULA_SOURCE and selected not in score_sets:
        raise _invalid((config_path, _SCORE_SET.name), f"unknown score set {selected!r}")
    return model


_DEFENCE_KEY = _Key("defence", _DEFENCE.parse, lambda m: _DEFENCE.dump(m.config),
                    AnalysisConfig.defence_probability)
_CONFIG = _Key("config", _OPTIONS.parse, lambda m: _OPTIONS.dump(m.config), {})
_DOCUMENT = _Table(
    _Key("score_sets", _parse_score_sets,
         lambda m: {name: _TOTALS.dump(s) for name, s in m.score_sets.items()} or None,
         MappingProxyType({})),
    _Key("vectors", _parse_vectors,
         lambda m: {d.code: _VECTOR.dump(v) for d, v in (m.vectors or {}).items()} or None, None),
    _Key("weight_table", _parse_weight_table,
         lambda m: _WEIGHTS.dump(m.weight_table) if m.weight_table != DEFAULT_WEIGHT_TABLE
         else None, DEFAULT_WEIGHT_TABLE),
    _DEFENCE_KEY,
    _CONFIG,
    _Key("paths", _array(_PATH), lambda m: [_PATH.dump(p) for p in m.paths], ()),
    build=_build_model,
    # AnalysisConfig's fields: its defence's key, and config keys of the same name.
    renamed={"defence_probability": (_DEFENCE_KEY.name, _PROBABILITY.name),
             **{key.name: (_CONFIG.name, key.name) for key in _OPTIONS.keys}},
)


def parse_model(document: str) -> ThreatModel:
    """Parse and fully validate a threat-model document.

    The keys are those of the tables above; the README shows a full
    document.  At least one score source (``vectors`` or a score set)
    must be present, and ``weight_table`` entries replace the default
    table per parameter.  Unknown keys, ``null`` values, NaN and
    infinite numbers are rejected.  A ``defence.probability`` array
    needs an entry for every stage of the longest path.  Value ranges
    and the model's rules are checked by the value objects
    (``AnalysisConfig``, ``AttackStage``, ``AttackPath``, ``ScoreSet``,
    ``ThreatModel``); their errors get the field path here.

    Raises:
        DocumentSyntaxError: malformed JSON, nesting too deep to read, or
            an integer literal past Python's digit limit.
        ValidationError: schema violation, with the offending field path.
    """
    try:
        raw = json.loads(document)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise DocumentSyntaxError(f"malformed document: {exc}") from None
    return _DOCUMENT.parse(raw, None)


def serialize_model(model: ThreatModel) -> str:
    """The model's document, which :func:`parse_model` reads back as an equal model."""
    return json.dumps(_DOCUMENT.dump(model), indent=2) + "\n"
