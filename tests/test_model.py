"""Tests for threat-model types, the built-in model, and document parsing."""

import json
from dataclasses import replace

import pytest

from riskctl import (
    AnalysisConfig,
    AttackStage,
    ProbabilityLaw,
    ReferenceDomain,
    Rounding,
    ScoreSet,
    ThreatModel,
    ViewDomain,
    builtin_paper_model,
    paper_model_document,
    parse_model,
    resolve_score,
    serialize_model,
)
from riskctl.errors import (
    DocumentSyntaxError,
    InvalidConfigError,
    MissingVectorError,
    UnknownPathError,
    UnknownScoreSetError,
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
        with pytest.raises(UnknownPathError):
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
        with pytest.raises(UnknownScoreSetError):
            resolve_score(model, ViewDomain.DATA, "nope")

    def test_formula_without_vectors(self, model):
        stripped = replace(model, vectors=None)
        with pytest.raises(MissingVectorError):
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
