"""Tests for threat-model types, the built-in model, and document parsing."""

import json
from dataclasses import replace

import pytest

from riskctl import (
    AnalysisConfig,
    Attacker,
    AttackPath,
    AttackStage,
    MarkovChain,
    ProbabilityLaw,
    ReferenceDomain,
    Rounding,
    ScoreSet,
    ThreatModel,
    ViewDomain,
    build_chain,
    builtin_paper_model,
    hit_probability_within,
    paper_model_document,
    parse_model,
    resolve_score,
    serialize_model,
    simulate,
    stage_attack_probability,
)
from riskctl.errors import (
    DocumentError,
    DocumentSyntaxError,
    InvalidConfigError,
    NotFoundError,
    ValidationError,
)

MINIMAL_DOC = {
    "score_sets": {
        "default": {"data": 17.7, "software": 9.6, "networking": 14.5, "hardware": 7.0}
    },
    "paths": [
        {
            "id": "p1",
            "attacker": "unauthorized",
            "origin": "vehicle",
            "stages": [{"ref": "vehicle", "domain": "data", "desc": "single stage"}],
        }
    ],
}


# Each member of the two asset dimensions: (enum, name, code, short, display or None).
DOMAINS = [
    (ViewDomain, "DATA", "data", "Data", None),
    (ViewDomain, "SOFTWARE", "software", "SW", None),
    (ViewDomain, "NETWORKING", "networking", "Net", None),
    (ViewDomain, "HARDWARE", "hardware", "HW", None),
    (ReferenceDomain, "CLOUD", "cloud", "C", "Cloud"),
    (ReferenceDomain, "INFRA_EDGE", "infra_edge", "I", "Infra & Edge"),
    (ReferenceDomain, "VEHICLE", "vehicle", "V", "Vehicle"),
]


class TestDomains:
    def test_each_member_keeps_its_code_and_names(self):
        for enum, name, code, short, display in DOMAINS:
            member = enum[name]
            assert (member.value, member.code, member.short) == (code, code, short)
            assert enum(code) is member
            assert repr(member) == f"<{enum.__name__}.{name}: {code!r}>"
            if display is None:
                assert not hasattr(member, "display")
            else:
                assert member.display == display

    def test_iteration_order(self):
        for enum in (ViewDomain, ReferenceDomain):
            assert [m.name for m in enum] == [name for e, name, *_ in DOMAINS if e is enum]


class TestBuiltinModel:
    def test_path_inventory(self, model):
        assert [p.id for p in model.paths] == ["1", "2a", "2b", "3", "4", "5"]
        assert [len(p.stages) for p in model.paths] == [4, 3, 3, 3, 2, 1]

    def test_score_sets(self, model):
        published = model.score_sets["paper-published"].totals
        assert published[ViewDomain.DATA] == 17.7
        assert published[ViewDomain.NETWORKING] == 14.5
        legacy = model.score_sets["legacy"].totals
        assert legacy[ViewDomain.NETWORKING] == 15.0
        assert legacy[ViewDomain.DATA] == 21.1

    def test_defence_and_config(self, model):
        assert model.config.defence_probability == 0.1
        assert model.config.exponent_coefficient == 2.0
        assert model.config.normalization == 42.5
        assert model.config.score_set == "paper-published"
        assert model.config.defence_on_final_stage is False

    def test_id4_origin_alias(self, model):
        path = model.path("4")
        assert path.origin is ReferenceDomain.CLOUD
        assert path.origins == (ReferenceDomain.CLOUD, ReferenceDomain.INFRA_EDGE)

    def test_unknown_path(self, model):
        with pytest.raises(NotFoundError, match="no path with id '99'"):
            model.path("99")

    def test_stage_codes(self, model):
        assert [s.code for s in model.path("1").stages] == [
            "C-Net", "C-SW", "V-Net", "V-Data",
        ]


class TestResolveScore:
    def test_named_set(self, model):
        assert resolve_score(model, ViewDomain.DATA, "paper-published") == 17.7

    def test_formula_agrees_for_hardware(self, model):
        assert resolve_score(model, ViewDomain.HARDWARE, "formula") == pytest.approx(7.0)

    def test_formula_diverges_for_networking(self, model):
        formula = resolve_score(model, ViewDomain.NETWORKING, "formula")
        published = resolve_score(model, ViewDomain.NETWORKING, "paper-published")
        assert formula == pytest.approx(15.1, abs=1e-9)
        assert published == 14.5

    def test_default_source_comes_from_config(self, model):
        assert resolve_score(model, ViewDomain.SOFTWARE) == 9.6

    def test_total_over_all_domains_and_sets(self, model):
        for name in model.score_sets:
            for domain in ViewDomain:
                assert resolve_score(model, domain, name) >= 0.0

    def test_unknown_set(self, model):
        with pytest.raises(NotFoundError, match="no score set named 'nope'"):
            resolve_score(model, ViewDomain.DATA, "nope")

    def test_formula_without_vectors(self, model):
        stripped = replace(model, vectors=None)
        with pytest.raises(
            NotFoundError, match="formula scoring requested but model has no vector for data"
        ):
            resolve_score(stripped, ViewDomain.DATA, "formula")


class TestParseModel:
    def test_minimal_document(self):
        parsed = parse_model(json.dumps(MINIMAL_DOC))
        assert parsed.config == AnalysisConfig(score_set="default")
        assert parsed.config.exponent_coefficient == 2.0
        assert parsed.config.defence_probability == 0.1
        assert parsed.config.rounding is Rounding.PAPER
        assert parsed.vectors is None
        path = parsed.path("p1")
        assert path.first_stage_index == 1
        assert path.stages[0].view_domain is ViewDomain.DATA

    def test_malformed_json(self):
        with pytest.raises(DocumentSyntaxError):
            parse_model("{not json")

    def test_nesting_too_deep_to_read(self):
        with pytest.raises(DocumentSyntaxError, match="malformed document: maximum recursion"):
            parse_model("[" * 100_000 + "]" * 100_000)

    def test_integer_literal_past_the_digit_limit(self):
        # Python 3.10 before 3.10.7 has no digit limit: the literal then
        # reads as a number past the float range, a ValidationError.
        document = json.dumps(MINIMAL_DOC).replace("17.7", "1" * 5000)
        with pytest.raises(DocumentError):
            parse_model(document)

    def test_non_object_document(self):
        with pytest.raises(ValidationError):
            parse_model("[1, 2]")

    def test_unknown_top_level_key(self):
        doc = dict(MINIMAL_DOC, extra={})
        with pytest.raises(ValidationError, match="unknown key"):
            parse_model(json.dumps(doc))

    def test_unknown_domain_names_field(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["paths"][0]["stages"][0]["domain"] = "firmware"
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(doc))
        assert info.value.path == "paths[0].stages[0].domain"
        assert "firmware" in str(info.value)

    def test_defence_out_of_range(self):
        doc = dict(MINIMAL_DOC, defence={"probability": 1.5})
        with pytest.raises(ValidationError, match="defence.probability"):
            parse_model(json.dumps(doc))

    def test_defence_must_be_numeric(self):
        doc = dict(MINIMAL_DOC, defence={"probability": True})
        with pytest.raises(ValidationError, match="expected a number"):
            parse_model(json.dumps(doc))

    def test_per_stage_defence_array(self):
        doc = dict(MINIMAL_DOC, defence={"probability": [0.1, 0.2]})
        parsed = parse_model(json.dumps(doc))
        assert parsed.config.defence_probability == (0.1, 0.2)

    def test_missing_score_source(self):
        # Reported before the score-set selection, even when the config
        # selects formula scoring.
        for config in ({}, {"config": {"score_set": "formula"}}):
            doc = {"paths": MINIMAL_DOC["paths"], **config}
            with pytest.raises(ValidationError, match="score source") as info:
                parse_model(json.dumps(doc))
            assert info.value.path == "$"
            assert info.value.reason == (
                "model needs at least one score source (vectors or score_sets)"
            )

    def test_empty_stage_list(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["paths"][0]["stages"] = []
        with pytest.raises(ValidationError, match="non-empty"):
            parse_model(json.dumps(doc))

    def test_empty_description(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["paths"][0]["stages"][0]["desc"] = ""
        with pytest.raises(ValidationError, match="desc"):
            parse_model(json.dumps(doc))

    def test_bad_first_stage_index(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["paths"][0]["first_stage_index"] = 0
        with pytest.raises(ValidationError, match=">= 1"):
            parse_model(json.dumps(doc))

    def test_duplicate_path_ids(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["paths"].append(doc["paths"][0])
        with pytest.raises(ValidationError, match="duplicate"):
            parse_model(json.dumps(doc))

    def test_unknown_stage_key(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["paths"][0]["stages"][0]["severity"] = "high"
        with pytest.raises(ValidationError, match="unknown key"):
            parse_model(json.dumps(doc))

    def test_origin_list_becomes_aliases(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["paths"][0]["origin"] = ["cloud", "infra_edge"]
        parsed = parse_model(json.dumps(doc))
        path = parsed.path("p1")
        assert path.origin is ReferenceDomain.CLOUD
        assert path.origin_aliases == (ReferenceDomain.INFRA_EDGE,)

    def test_duplicate_origins_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["paths"][0]["origin"] = ["cloud", "cloud"]
        with pytest.raises(ValidationError, match="duplicates"):
            parse_model(json.dumps(doc))

    def test_null_config_rejected(self):
        # null is not "absent": like every other top-level key, config
        # must be an object when given.
        doc = dict(MINIMAL_DOC, config=None)
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(doc))
        assert str(info.value) == "config: expected an object, got NoneType"

    def test_config_unknown_score_set(self):
        doc = dict(MINIMAL_DOC, config={"score_set": "missing"})
        with pytest.raises(ValidationError, match="score_set"):
            parse_model(json.dumps(doc))

    def test_config_formula_requires_vectors(self):
        doc = dict(MINIMAL_DOC, config={"score_set": "formula"})
        with pytest.raises(ValidationError, match="formula"):
            parse_model(json.dumps(doc))

    def test_score_set_missing_domain(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        del doc["score_sets"]["default"]["hardware"]
        with pytest.raises(ValidationError, match="hardware"):
            parse_model(json.dumps(doc))

    def test_score_set_reserved_name(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["score_sets"]["formula"] = doc["score_sets"]["default"]
        with pytest.raises(ValidationError, match="reserved"):
            parse_model(json.dumps(doc))

    def test_vector_unknown_label(self, model):
        doc = json.loads(serialize_model(model))
        doc["vectors"]["data"]["av"] = "Q"
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(doc))
        assert info.value.path == "vectors.data.av"

    def test_weight_table_override(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["weight_table"] = {"av": {"L": 0.5, "R": 0.9, "X": 0.1}}
        doc["vectors"] = {
            "data": {"av": "X", "ac": "H", "a": "N", "ci": "P", "ii": "C",
                     "ai": "P", "ib": "I", "e": "PoC", "rl": "TF", "rc": "UCB",
                     "cdp": "H", "td": "M"}
        }
        parsed = parse_model(json.dumps(doc))
        assert parsed.weight_table.weights["AV"]["X"] == 0.1
        # Untouched parameters keep their defaults.
        assert parsed.weight_table.weights["AC"]["H"] == 0.8

    def test_weight_table_out_of_range(self):
        doc = dict(MINIMAL_DOC, weight_table={"av": {"R": 1.5}})
        with pytest.raises(ValidationError, match="weight_table"):
            parse_model(json.dumps(doc))


class TestRoundTrip:
    def test_builtin_round_trip(self, model):
        assert parse_model(serialize_model(model)) == model

    def test_shipped_document_matches_builtin(self, model):
        assert parse_model(paper_model_document()) == model

    def test_round_trip_with_overrides(self, model):
        tweaked = replace(
            model,
            config=replace(
                model.config,
                defence_probability=(0.1, 0.2, 0.3, 0.4),
                probability_law=ProbabilityLaw.LINEAR,
                rounding=Rounding.RAW,
            ),
        )
        assert parse_model(serialize_model(tweaked)) == tweaked

    def test_round_trip_minimal(self):
        parsed = parse_model(json.dumps(MINIMAL_DOC))
        assert parse_model(serialize_model(parsed)) == parsed

    def test_round_trip_custom_weight_table(self):
        doc = dict(
            MINIMAL_DOC,
            weight_table={"av": {"L": 0.5, "R": 0.95}, "ib": {"N": [0.4, 0.3, 0.3]}},
        )
        parsed = parse_model(json.dumps(doc))
        again = parse_model(serialize_model(parsed))
        assert again == parsed
        assert "weight_table" in serialize_model(parsed)


def _minimal_path(**changes):
    """MINIMAL_DOC's path, built in Python, with ``changes``."""
    stage = AttackStage(ReferenceDomain.VEHICLE, ViewDomain.DATA, "single stage")
    return replace(AttackPath("p1", Attacker.UNAUTHORIZED, ReferenceDomain.VEHICLE, (stage,)),
                   **changes)


def _minimal_model(**changes):
    totals = {ViewDomain(code): total
              for code, total in MINIMAL_DOC["score_sets"]["default"].items()}
    base = ThreatModel({"default": ScoreSet("default", totals)}, paths=(_minimal_path(),),
                       config=AnalysisConfig(score_set="default"))
    return replace(base, **changes)


def _doc(*keys, value):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value(target) if callable(value) else value
    return doc


# One case per model rule: the document that breaks it, the field path
# parse_model reports, and the same fault built in Python.
MODEL_RULES = {
    "empty description": (
        _doc("paths", 0, "stages", 0, "desc", value=""), "paths[0].stages[0].desc",
        lambda: AttackStage(ReferenceDomain.VEHICLE, ViewDomain.DATA, ""),
    ),
    "first stage index below 1": (
        _doc("paths", 0, "first_stage_index", value=0), "paths[0].first_stage_index",
        lambda: _minimal_path(first_stage_index=0),
    ),
    "duplicate origins": (
        _doc("paths", 0, "origin", value=["cloud", "infra_edge", "cloud"]), "paths[0].origin",
        lambda: _minimal_path(origin=ReferenceDomain.CLOUD,
                              origin_aliases=(ReferenceDomain.INFRA_EDGE, ReferenceDomain.CLOUD)),
    ),
    "no stages": (
        _doc("paths", 0, "stages", value=[]), "paths[0].stages",
        lambda: _minimal_path(stages=()),
    ),
    "duplicate path ids": (
        _doc("paths", value=lambda doc: [*doc["paths"], doc["paths"][0]]), "paths[1].id",
        lambda: _minimal_model(paths=(_minimal_path(), _minimal_path())),
    ),
    "score set named formula": (
        _doc("score_sets", "formula", value=lambda sets: sets["default"]), "score_sets.formula",
        lambda: ScoreSet("formula", _minimal_model().score_sets["default"].totals),
    ),
    "score set with an empty name": (
        _doc("score_sets", "", value=lambda sets: sets["default"]), "score_sets.",
        lambda: ScoreSet("", _minimal_model().score_sets["default"].totals),
    ),
}


class TestModelRulesLiveInTheValueObjects:
    """Each model rule is checked by its value object alone: a model
    built in Python is refused with the message parse_model reports, so
    serialize_model never writes a document parse_model refuses."""

    @pytest.mark.parametrize("case", MODEL_RULES)
    def test_library_object_raises_the_document_message(self, case):
        doc, path, build = MODEL_RULES[case]
        with pytest.raises(ValidationError) as document:
            parse_model(json.dumps(doc))
        with pytest.raises(InvalidConfigError) as library:
            build()
        assert document.value.path == path
        assert str(library.value) == document.value.reason

    def test_empty_path_error_is_a_config_error(self):
        with pytest.raises(InvalidConfigError, match="stages must be a non-empty array") as info:
            _minimal_path(stages=())
        assert info.value.field == "stages"

    def test_duplicate_id_names_the_second_path(self):
        paths = (_minimal_path(), _minimal_path(id="p2"), _minimal_path(id="p2"))
        with pytest.raises(InvalidConfigError, match="duplicate path id 'p2'") as info:
            _minimal_model(paths=paths)
        assert info.value.field == ("paths", 2, "id")

    def test_score_set_keyed_by_another_name(self, model):
        # The document keeps only the key, so such a model would read back unequal.
        with pytest.raises(InvalidConfigError, match="keyed 'other'") as info:
            replace(model, score_sets={**model.score_sets, "other": model.score_sets["legacy"]})
        assert info.value.field == ("score_sets", "other")

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: _minimal_path(id=1), "id"),
            (lambda: _minimal_path(first_stage_index=True), "first_stage_index"),
            (lambda: _minimal_path(origin="vehicle"), "origin"),
            (lambda: _minimal_path(origin_aliases=("cloud",)), ("origin_aliases", 0)),
            (lambda: _minimal_path(attacker="unauthorized"), "attacker"),
            (lambda: AttackStage(ReferenceDomain.VEHICLE, ViewDomain.DATA, 5), "description"),
            (lambda: AttackStage("vehicle", ViewDomain.DATA, "stage"), "ref_domain"),
            (lambda: AttackStage(ReferenceDomain.VEHICLE, "data", "stage"), "view_domain"),
        ],
        ids=["id=1", "first_stage_index=True", "origin", "alias", "attacker", "description=5",
             "ref_domain", "view_domain"],
    )
    def test_fields_the_document_types_are_typed(self, build, field):
        # Each would be written as a document that parse_model refuses or
        # reads back as an unequal model.
        with pytest.raises(InvalidConfigError, match="expected ") as info:
            build()
        assert info.value.field == field

    def test_round_trip_holds_except_for_the_selection(self):
        # The selection rule stays with the document: a library model may
        # select a score set it lacks, and its document is refused.
        model = _minimal_model(config=AnalysisConfig())
        assert model.config.score_set == "paper-published"
        with pytest.raises(ValidationError, match="unknown score set 'paper-published'"):
            parse_model(serialize_model(model))
        selected = replace(model, config=AnalysisConfig(score_set="default"))
        assert parse_model(serialize_model(selected)) == selected


class TestThreatModelInvariants:
    def test_requires_score_source(self):
        with pytest.raises(ValueError):
            ThreatModel(score_sets={}, vectors=None)

    def test_stage_description_is_free_text_only(self, model):
        # Descriptions do not affect the mathematics.
        renamed = replace(
            model,
            paths=tuple(
                replace(p, stages=tuple(replace(s, description="x") for s in p.stages))
                for p in model.paths
            ),
        )
        from riskctl import realization_probability

        for original, renamed_path in zip(model.paths, renamed.paths):
            assert realization_probability(original, model) == realization_probability(
                renamed_path, renamed
            )


class TestRejectsNonFiniteAndShortDefence:
    """NaN/infinity and per-stage defence arrays too short for the paths."""

    def test_document_nan_score(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["score_sets"]["default"]["data"] = float("nan")
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(doc))
        assert info.value.path == "score_sets.default.data"

    def test_document_nan_exponent_coefficient(self):
        doc = dict(MINIMAL_DOC, config={"exponent_coefficient": float("nan")})
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(doc))
        assert info.value.path == "config.exponent_coefficient"

    def test_document_infinite_normalization(self):
        doc = dict(MINIMAL_DOC, config={"normalization": float("inf")})
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(doc))
        assert info.value.path == "config.normalization"

    def test_integer_beyond_float_range(self):
        document = json.dumps(MINIMAL_DOC).replace("17.7", "1" + "0" * 400)
        with pytest.raises(ValidationError) as info:
            parse_model(document)
        assert info.value.path == "score_sets.default.data"

    def test_value_objects_reject_non_finite(self):
        with pytest.raises(InvalidConfigError):
            AnalysisConfig(exponent_coefficient=float("nan"))
        with pytest.raises(InvalidConfigError):
            AnalysisConfig(exponent_coefficient=float("inf"))
        with pytest.raises(InvalidConfigError):
            AnalysisConfig(normalization=float("inf"))
        totals = {d: 1.0 for d in ViewDomain}
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError) as info:
                ScoreSet(name="s", totals={**totals, ViewDomain.DATA: bad})
            assert info.value.field == "data"

    def test_short_defence_array(self, model):
        doc = json.loads(serialize_model(model))
        doc["defence"]["probability"] = [0.1, 0.2]
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(doc))
        assert info.value.path == "defence.probability"
        with pytest.raises(InvalidConfigError):
            replace(model, config=replace(model.config, defence_probability=(0.1, 0.2, 0.3)))


class TestRangeErrorsKeepFieldPaths:
    """Range rules live in the value objects; parse_model adds the path."""

    @pytest.mark.parametrize(
        "change,path",
        [
            ({"defence": {"probability": 1.5}}, "defence.probability"),
            ({"defence": {"probability": [0.1, -0.2]}}, "defence.probability"),
            ({"defence": {"probability": []}}, "defence.probability"),
            ({"config": {"exponent_coefficient": 0}}, "config.exponent_coefficient"),
            ({"config": {"normalization": -1}}, "config.normalization"),
        ],
    )
    def test_config_fields(self, change, path):
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(dict(MINIMAL_DOC, **change)))
        assert info.value.path == path

    def test_negative_score(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["score_sets"]["default"]["software"] = -0.5
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(doc))
        assert info.value.path == "score_sets.default.software"

    def test_missing_domain_names_the_set(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        del doc["score_sets"]["default"]["hardware"]
        with pytest.raises(ValidationError) as info:
            parse_model(json.dumps(doc))
        assert info.value.path == "score_sets.default"


def _simulate(model, **changes):
    chain = build_chain(model.path("1"), model)
    return simulate(chain, **{"trials": 100, "horizon": 10, **changes})


def _hit_within(model, horizon):
    return hit_probability_within(build_chain(model.path("1"), model), horizon)


_TOTALS = dict.fromkeys(ViewDomain, 1.0)

# Inputs that used to be accepted and then ignored or misread, or to fail
# with an error that named nothing: (build from the built-in model, error
# class, message).  InvalidConfigError is a ValueError, the class that
# simulate's and the stage functions' docstrings name.
REFUSED = [
    pytest.param(lambda m: AnalysisConfig(probability_law="linear"), InvalidConfigError,
                 "probability_law: expected ProbabilityLaw, got 'linear'", id="law-string"),
    pytest.param(lambda m: AnalysisConfig(rounding="paper"), InvalidConfigError,
                 "rounding: expected Rounding, got 'paper'", id="rounding-string"),
    pytest.param(lambda m: AnalysisConfig(defence_on_final_stage="no"), InvalidConfigError,
                 "defence_on_final_stage: expected bool, got 'no'", id="final-string"),
    pytest.param(lambda m: AnalysisConfig(defence_probability=True), InvalidConfigError,
                 "defence_probability: expected float or int, got True", id="d-bool"),
    pytest.param(lambda m: AnalysisConfig(defence_probability=(0.1, True)), InvalidConfigError,
                 "defence_probability: expected float or int, got True", id="d-tuple-bool"),
    pytest.param(lambda m: AnalysisConfig(defence_probability=[0.1]), InvalidConfigError,
                 r"defence_probability: expected float or int, got \[0.1\]", id="d-list"),
    pytest.param(lambda m: AnalysisConfig(exponent_coefficient=True), InvalidConfigError,
                 "exponent_coefficient: expected float or int, got True", id="k-bool"),
    pytest.param(lambda m: AnalysisConfig(normalization="42.5"), InvalidConfigError,
                 "normalization: expected float or int, got '42.5'", id="norm-string"),
    pytest.param(lambda m: AnalysisConfig(score_set=5), InvalidConfigError,
                 "score_set: expected str, got 5", id="score-set-int"),
    pytest.param(lambda m: ScoreSet(5, _TOTALS), InvalidConfigError,
                 "name: expected str, got 5", id="score-set-name"),
    pytest.param(lambda m: ScoreSet("s", {**_TOTALS, ViewDomain.DATA: True}), InvalidConfigError,
                 "score set 's' data = True, expected a finite number >= 0", id="total-bool"),
    pytest.param(lambda m: resolve_score(m, "data"), NotFoundError,
                 "no view domain 'data'", id="resolve-string"),
    pytest.param(lambda m: resolve_score(m, "data", "formula"), NotFoundError,
                 "no view domain 'data'", id="resolve-string-formula"),
    pytest.param(lambda m: _hit_within(m, True), ValueError,
                 "horizon: expected int, got True", id="hit-horizon-bool"),
    pytest.param(lambda m: _hit_within(m, 2.0), ValueError,
                 "horizon: expected int, got 2.0", id="hit-horizon-float"),
    pytest.param(lambda m: _simulate(m, trials=True), ValueError,
                 "trials: expected int, got True", id="trials-bool"),
    pytest.param(lambda m: _simulate(m, trials=2.0), ValueError,
                 "trials: expected int, got 2.0", id="trials-float"),
    pytest.param(lambda m: _simulate(m, horizon=True), ValueError,
                 "horizon: expected int, got True", id="horizon-bool"),
    pytest.param(lambda m: _simulate(m, seed=True), ValueError,
                 "seed: expected int, got True", id="seed-bool"),
    pytest.param(lambda m: _simulate(m, workers=True), ValueError,
                 "workers: expected int, got True", id="workers-bool"),
    pytest.param(lambda m: stage_attack_probability(1.5, 5.0, AnalysisConfig()), ValueError,
                 "stage_index: expected int, got 1.5", id="stage-index-float"),
    pytest.param(lambda m: stage_attack_probability(True, 5.0, AnalysisConfig()), ValueError,
                 "stage_index: expected int, got True", id="stage-index-bool"),
    pytest.param(lambda m: stage_attack_probability(1, True, AnalysisConfig()), ValueError,
                 "score must be finite and >= 0, got True", id="score-bool"),
    pytest.param(lambda m: replace(m.path("1"), stages=list(m.path("1").stages)),
                 InvalidConfigError, r"stages: expected tuple, got \[AttackStage\(.*\)\]",
                 id="stages-list"),
    pytest.param(lambda m: replace(m.path("1"), stages=("a",)), InvalidConfigError,
                 "expected AttackStage, got 'a'", id="stage-string"),
    pytest.param(lambda m: replace(m.path("1"), origin_aliases=[ReferenceDomain.VEHICLE]),
                 InvalidConfigError, r"origin_aliases: expected tuple, got \[<ReferenceDomain.*\]",
                 id="aliases-list"),
    pytest.param(lambda m: replace(m, paths=list(m.paths)), InvalidConfigError,
                 r"paths: expected tuple, got \[AttackPath\(.*\)\]", id="paths-list"),
    pytest.param(lambda m: ThreatModel(m.score_sets, paths=(1,)), InvalidConfigError,
                 "expected AttackPath, got 1", id="path-int"),
    pytest.param(lambda m: MarkovChain(["a", "b"], [[1, 0], [0, 1]]), InvalidConfigError,
                 r"states: expected tuple, got \['a', 'b'\]", id="states-list"),
    pytest.param(lambda m: MarkovChain(("a", 1), [[1, 0], [0, 1]]), InvalidConfigError,
                 "expected str, got 1", id="state-int"),
]


class TestWrongTypesAreRefused:
    @pytest.mark.parametrize("build, error, message", REFUSED)
    def test_refused_with_its_name(self, model, build, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            build(model)

    def test_ints_and_floats_stay_accepted(self):
        config = AnalysisConfig(defence_probability=(0, 0.5), exponent_coefficient=1,
                                normalization=40, defence_on_final_stage=True)
        assert config.defence_at(1) == 0
        assert ScoreSet("s", dict.fromkeys(ViewDomain, 0)).totals[ViewDomain.DATA] == 0
