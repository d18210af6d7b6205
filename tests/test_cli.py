"""Tests for the riskctl command-line interface."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import riskctl
from riskctl import (
    builtin_paper_model,
    realization_probability,
    run_verification,
    serialize_model,
    stage_forward_probabilities,
)
from riskctl import cli, report, stages
from riskctl.cli import main

LEGACY_MATRIX = np.array(
    [
        [0.5, 0.5, 0.0, 0.0],
        [0.05, 0.55, 0.40, 0.0],
        [0.0, 0.01, 0.21, 0.78],
        [0.0, 0.0, 0.1, 0.9],
    ]
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """The error line of a usage error: exit 1, nothing on standard out,
    and a usage line before it on standard error."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 1
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == "" and usage.startswith("usage: riskctl ")
    return error


class TestScore:
    def test_default_table(self, capsys):
        code, out, _ = run(capsys, "score")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("data"))
        for value in ("6.8", "5.2", "5.7", "17.7"):
            assert value in line

    def test_networking_formula_divergence(self, capsys):
        code, out, _ = run(capsys, "score", "--domain", "networking", "--source", "formula")
        assert code == 0
        assert "5.9" in out
        assert "diverges" in out and "14.5" in out

    def test_formula_source_has_no_reference_set(self, capsys):
        # With the formula as the config's score set, no named set is
        # there to compare the formula totals against.
        code, out, _ = run(capsys, "score", "--score-set", "formula", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["notes"] == []
        assert all(e["total"] == e["formula_total"] for e in payload["scores"])

    @pytest.mark.parametrize("source", [[], ["--source", "formula"]], ids=["config", "formula"])
    def test_unknown_score_set(self, capsys, source):
        # With the formula as the source, the set is the one its totals
        # are compared against, and a missing one is an error too.
        code, out, err = run(capsys, "score", *source, "--score-set", "nope")
        assert (code, out, err) == (1, "", "riskctl: error: no score set named 'nope'\n")

    def test_unknown_domain(self, capsys):
        code, _, err = run(capsys, "score", "--domain", "engine")
        assert code == 1
        assert "unknown domain" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "score", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        data = next(e for e in payload["scores"] if e["domain"] == "data")
        assert data["base"] == 6.8
        assert data["total"] == 17.7

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "score", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["domain", "base", "temporal", "environmental", "total", "source"]
        assert len(rows) == 5


class TestPath:
    def test_id1_stage_values(self, capsys):
        code, out, _ = run(capsys, "path", "--id", "1")
        assert code == 0
        for value in ("0.494574", "0.535376", "0.783797", "0.964270"):
            assert value in out
        assert "20.01%" in out

    def test_id5(self, capsys):
        code, out, _ = run(capsys, "path", "--id", "5")
        assert code == 0
        assert "56.52%" in out

    def test_zero_defence_is_ungated(self, capsys):
        code, out, _ = run(capsys, "path", "--id", "1", "--d", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for stage in payload["stages"]:
            assert stage["forward_prob"] == stage["attack_prob"]

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "path", "--id", "42")
        assert code == 1
        assert "42" in err

    def test_json_full_precision(self, capsys, model):
        code, out, _ = run(capsys, "path", "--id", "1", "--format", "json")
        payload = json.loads(out)
        expected = realization_probability(model.path("1"), model)
        assert payload["realization_probability"] == expected
        forward = stage_forward_probabilities(model.path("1"), model)
        assert [s["forward_prob"] for s in payload["stages"]] == forward

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "path", "--id", "1", "--format", "csv")
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0] == ["path_id", "stage_pos", "stage_index", "ref_domain",
                           "view_domain", "attack_prob", "forward_prob"]
        assert len(rows) == 5
        assert any(l.startswith("# realization_probability,") for l in out.splitlines())


class TestMatrix:
    def test_legacy_invocation(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--id", "3", "--score-set", "legacy",
            "--k", "1", "--first-index", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        matrix = np.array(payload["matrix"])
        assert np.abs(matrix - LEGACY_MATRIX).max() <= 0.01
        assert payload["forward_path_product"] == pytest.approx(0.1541, abs=5e-4)

    def test_zero_defence_zero_subdiagonal(self, capsys):
        code, out, _ = run(capsys, "matrix", "--id", "1", "--d", "0", "--format", "json")
        matrix = np.array(json.loads(out)["matrix"])
        assert np.all(np.diag(matrix, k=-1) == 0.0)

    def test_rows_revalidated(self, capsys, model):
        code, out, _ = run(capsys, "matrix", "--id", "1", "--format", "json")
        matrix = np.array(json.loads(out)["matrix"])
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_table_rounding_flag(self, capsys):
        code, out, _ = run(capsys, "matrix", "--id", "1", "--round", "3")
        assert code == 0
        assert "0.495" in out and "0.505" in out

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_rounding_past_a_doubles_digits_rejected(self, capsys, fmt):
        code, out, err = run(capsys, "matrix", "--id", "1", "--round", "1075", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == "riskctl: error: --round must be <= 1074, got 1075\n"

    def test_rounding_to_every_digit_of_a_double(self, capsys):
        # 2**-1074, the smallest double above 0, has 1074 fractional digits.
        _, out, _ = run(capsys, "matrix", "--id", "1", "--format", "json")
        entry = json.loads(out)["matrix"][0][0]
        code, out, _ = run(capsys, "matrix", "--id", "1", "--round", "1074")
        assert code == 0
        assert f"{entry:.1074f}" in out.split()

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_negative_rounding_rejected(self, capsys, fmt):
        code, out, err = run(capsys, "matrix", "--id", "1", "--round", "-1", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == "riskctl: error: --round must be >= 0, got -1\n"


class TestSimulate:
    ARGS = ("simulate", "--id", "1", "--trials", "2000", "--horizon", "100",
            "--seed", "7")

    def test_fixed_seed_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, *self.ARGS)
        code2, out2, _ = run(capsys, *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_worker_setting_does_not_change_output(self, capsys):
        _, baseline, _ = run(capsys, *self.ARGS, "--workers", "1")
        _, split, _ = run(capsys, *self.ARGS, "--workers", "3")
        assert baseline == split

    def test_includes_analytic_cross_checks(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        payload = json.loads(out)
        assert 0.0 <= payload["analytic_hit_probability"] <= 1.0
        assert payload["analytic_mean_ttc"] > 0
        assert abs(payload["hit_fraction"] - payload["analytic_hit_probability"]) < 0.05

    def test_standard_errors_and_z_scores(self, capsys):
        code, out, _ = run(capsys, "simulate", "--id", "1", "--trials", "20000",
                           "--horizon", "8", "--seed", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hit_fraction_se"] > 0 and payload["mean_ttc_se"] > 0
        assert payload["z_hit"] == pytest.approx(
            (payload["hit_fraction"] - payload["analytic_hit_probability"])
            / payload["hit_fraction_se"]
        )
        assert abs(payload["z_hit"]) < 5
        # At this horizon only ~84% of the walks hit, so the simulated mean
        # estimates E[T | T <= 8], well below the unconditional mean.
        assert payload["analytic_mean_ttc_within"] < payload["analytic_mean_ttc"]
        assert payload["z_ttc"] == pytest.approx(
            (payload["mean_ttc"] - payload["analytic_mean_ttc_within"])
            / payload["mean_ttc_se"]
        )
        assert abs(payload["z_ttc"]) < 5

    def test_z_score_is_null_when_standard_error_is_zero(self, capsys):
        # Every walk hits within the horizon: the hit fraction has no spread.
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hit_fraction"] == 1.0 and payload["hit_fraction_se"] == 0.0
        assert payload["z_hit"] is None
        assert "NaN" not in out and "Infinity" not in out

    def test_table_prints_missing_values_as_dash(self, capsys):
        # One step is too short to hit: no TTC statistics, and SE 0.
        code, out, _ = run(capsys, "simulate", "--id", "1", "--horizon", "1",
                           "--trials", "100")
        assert code == 0
        lines = out.splitlines()
        for key in ("mean_ttc", "mean_ttc_se", "p50", "z_hit", "z_ttc"):
            assert f"{key}: -" in lines
        assert "'-'" not in out

    def test_unreachable_target_prints_nulls(self, capsys, tmp_path):
        # A zero score makes a stage's attack probability 0: no walk can
        # reach the target, so there is no mean TTC to print.
        doc = json.loads(serialize_model(builtin_paper_model()))
        doc["score_sets"]["zero"] = dict.fromkeys(("data", "software", "networking", "hardware"), 0)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", "--model", str(path), "--id", "1",
                             "--score-set", "zero", "--horizon", "50", "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["hits"] == 0 and payload["analytic_hit_probability"] == 0.0
        for key in ("mean_ttc", "analytic_mean_ttc", "analytic_mean_ttc_within", "z_ttc"):
            assert payload[key] is None

    def test_zero_trials(self, capsys):
        code, _, err = run(capsys, "simulate", "--id", "1", "--trials", "0")
        assert code == 1
        assert "trials" in err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--trials", "100000000000000000000"], "trials must be"),
            # The two allocations below ask for more than 100 TiB, so each
            # fails at once without touching memory.
            (["--trials", "1000000000000000"], "Unable to allocate"),
            (["--horizon", "100000000000000"], "Unable to allocate"),
        ],
    )
    def test_oversized_run_is_one_error_line(self, capsys, argv, reason):
        code, out, err = run(capsys, "simulate", "--id", "1", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"riskctl: error: {reason}")
        assert err.count("\n") == 1

    def test_samples_past_the_address_space_name_trials(self, capsys):
        # numpy refuses 2**63 - 1 int64 samples before allocating anything.
        code, out, err = run(capsys, "simulate", "--id", "1", "--trials", str(2**63 - 1))
        assert code == 1 and out == ""
        assert err.startswith("riskctl: error: Unable to allocate ")
        assert f"hit-time samples of trials={2**63 - 1}\n" in err
        assert err.count("\n") == 1


class TestReport:
    def test_grid_values(self, capsys):
        code, out, _ = run(capsys, "report", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        cells = {
            (entry["attacker"], entry["origin"]): {
                c["path_id"]: c["percent"] for c in entry["cells"]
            }
            for entry in payload["grid"]
        }
        expected = {
            ("authorized", "cloud"): {"4": 29.47},
            ("authorized", "infra_edge"): {"4": 29.47},
            ("authorized", "vehicle"): {"5": 56.52},
            ("unauthorized", "cloud"): {"1": 20.01},
            ("unauthorized", "infra_edge"): {"2a": 18.80, "2b": 33.13},
            ("unauthorized", "vehicle"): {"3": 24.30},
        }
        for key, paths in expected.items():
            for path_id, percent in paths.items():
                assert cells[key][path_id] == pytest.approx(percent, abs=0.05)

    def test_variant_cell_rendering(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 0
        assert "18.80 (a) / 33.13 (b)" in out

    def test_series_matches_path_command(self, capsys, model):
        code, out, _ = run(capsys, "report", "--series", "--format", "json")
        payload = json.loads(out)
        id1_rows = [r for r in payload["series"] if r["path_id"] == "1"]
        expected = stage_forward_probabilities(model.path("1"), model)
        assert [r["forward_prob"] for r in id1_rows] == expected

    def test_grid_cells_equal_path_command(self, capsys, model):
        _, out, _ = run(capsys, "report", "--format", "json")
        payload = json.loads(out)
        for entry in payload["grid"]:
            for cell in entry["cells"]:
                path = model.path(cell["path_id"])
                assert cell["probability"] == realization_probability(path, model)

    def test_empty_model(self, capsys, tmp_path):
        doc = tmp_path / "empty.json"
        doc.write_text(json.dumps({
            "score_sets": {"s": {"data": 1, "software": 1, "networking": 1, "hardware": 1}}
        }))
        code, out, _ = run(capsys, "report", "--model", str(doc))
        assert code == 0
        code, out, _ = run(capsys, "report", "--model", str(doc), "--format", "json")
        assert code == 0
        assert all(entry["cells"] == [] for entry in json.loads(out)["grid"])

    def test_series_derives_each_path_once(self, capsys, tmp_path, monkeypatch):
        # 32 paths of 1-12 stages drawn from the built-in ones, scored by
        # the formula.  One derivation serves the run: each path is derived
        # once and each of the 4 domains is scored once, where a pipeline
        # restarted per path and per pass made 86 score_breakdown calls.
        # The digest pins the printed bytes.
        rng = random.Random(19)
        doc = json.loads(serialize_model(builtin_paper_model()))
        pool = [stage for path in doc["paths"] for stage in path["stages"]]
        doc["paths"] = [
            {**rng.choice(doc["paths"]), "id": f"g{i}",
             "stages": [rng.choice(pool) for _ in range(rng.randint(1, 12))]}
            for i in range(32)
        ]
        doc["config"]["score_set"] = "formula"
        path = tmp_path / "g32.json"
        path.write_text(json.dumps(doc))
        scored, made, derived = [], [], []
        breakdown, derivation = riskctl.model.score_breakdown, stages._derivation
        monkeypatch.setattr(riskctl.model, "score_breakdown",
                            lambda *args: scored.append(args) or breakdown(*args))

        def counted(*args):
            derive = derivation(*args)
            made.append(derive)
            return lambda path: derived.append(path.id) or derive(path)

        for module in (cli, report, stages):
            monkeypatch.setattr(module, "_derivation", counted)
        code, out, _ = run(capsys, "report", "--series", "--format", "json", "--model", str(path))
        assert code == 0
        assert len(scored) == 4
        assert len(made) == 1
        assert derived == [f"g{i}" for i in range(32)]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "59b6229d90f92e20c5cfb5206a5303ec19695e69f715158f7e67daf68b0f5bc0"
        )

    def test_series_csv(self, capsys):
        code, out, _ = run(capsys, "report", "--series", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["path_id", "stage_pos", "stage_index", "ref_domain",
                           "view_domain", "attack_prob", "forward_prob"]
        assert len(rows) == 1 + 4 + 3 + 3 + 3 + 2 + 1


class TestVerify:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        assert code == 0
        results = json.loads(out)
        assert len(results) == 5
        assert all(r["passed"] is True for r in results)

    def test_perturbed_model_fails(self, capsys, tmp_path):
        doc = json.loads(serialize_model(builtin_paper_model()))
        doc["defence"]["probability"] = 0.5
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert any(l.startswith("FAIL") for l in out.splitlines())
        assert "expected" in out

    def test_published_total_read_from_model(self, capsys, tmp_path):
        doc = json.loads(serialize_model(builtin_paper_model()))
        doc["score_sets"]["paper-published"]["networking"] = 14.25
        path = tmp_path / "published.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--model", str(path))
        assert "diverges from published 14.25 (reported, not reconciled)" in out

    def test_model_without_published_set(self, capsys, tmp_path):
        doc = json.loads(serialize_model(builtin_paper_model()))
        doc["score_sets"]["renamed"] = doc["score_sets"].pop("paper-published")
        doc["config"]["score_set"] = "renamed"
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--model", str(path))
        assert code == 0
        assert out.splitlines()[0] == "PASS cvss-columns: all four columns reproduced"

    @pytest.mark.parametrize(
        "change, failures",
        [
            (lambda doc: doc.pop("vectors"),
             ["FAIL cvss-columns: model has no vectors to score"]),
            (lambda doc: doc["vectors"].pop("hardware"),
             ["FAIL cvss-columns: hardware: no vector"]),
            (lambda doc: doc["paths"][0]["stages"].pop(),
             ["FAIL stage-probabilities-id1: expected 4 stages, got 3",
              "FAIL results-grid: unauthorized/cloud path 1: expected 20.01%, got 23.06%"]),
            (lambda doc: doc.update(paths=[p for p in doc["paths"] if p["id"] != "1"]),
             ["FAIL stage-probabilities-id1: no path with id '1'",
              "FAIL results-grid: unauthorized/cloud: path 1 missing"]),
            (lambda doc: next(p for p in doc["paths"] if p["id"] == "3")["stages"].pop(),
             ["FAIL results-grid: unauthorized/vehicle path 3: expected 24.30%, got 29.42%",
              "FAIL legacy-matrix: matrix shape (3, 3), expected 4x4"]),
            (lambda doc: doc["score_sets"].pop("legacy"),
             ["FAIL legacy-matrix: no score set named 'legacy'"]),
            # TD M, which only the data vector uses, moves data's
            # environmental column; the maximum TD weight is unchanged.
            (lambda doc: doc.update(weight_table={"td": {"N": 0.0, "L": 0.25, "M": 0.5,
                                                          "H": 1.0}}),
             ["FAIL cvss-columns: data: expected (6.8, 5.2, 5.7, 17.7), "
              "got (6.8, 5.2, 3.8, 15.8)"]),
            # E H, which no vector uses, moves only the maximum total.
            (lambda doc: doc.update(weight_table={"e": {"U": 0.85, "PoC": 0.9, "F": 0.95,
                                                         "H": 0.99}}),
             ["FAIL normalization-constant: max total score = 42.275000000000006, "
              "expected 42.5"]),
        ],
        ids=["no-vectors", "no-hardware-vector", "path-1-three-stages", "no-path-1",
             "path-3-two-stages", "no-legacy-set", "data-column-moved", "max-total-moved"],
    )
    def test_document_faults_fail_their_checks(self, capsys, tmp_path, change, failures):
        doc = json.loads(serialize_model(builtin_paper_model()))
        change(doc)
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert [l for l in out.splitlines() if l.startswith("FAIL")] == failures

    def test_an_error_in_any_check_is_its_fail_line(self):
        # Without path "1", model.path raises in stage-probabilities-id1;
        # its message is the check's detail, and the later checks still run.
        model = builtin_paper_model()
        results = run_verification(
            replace(model, paths=tuple(p for p in model.paths if p.id != "1")))
        assert [r.passed for r in results] == [True, False, False, True, True]
        assert (results[1].name, results[1].detail) == (
            "stage-probabilities-id1", "no path with id '1'"
        )

    def test_config_flag_applies_to_the_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "0.5")
        assert code == 2
        assert [l.split(":")[0] for l in out.splitlines() if l.startswith("FAIL")] == [
            "FAIL stage-probabilities-id1", "FAIL results-grid", "FAIL legacy-matrix",
        ]
        assert ("FAIL stage-probabilities-id1: expected (0.4946, 0.53541, 0.78381, 0.9643), "
                "got (0.49457, 0.29743, 0.43544, 0.96427)") in out.splitlines()

    def test_checks_share_one_derivation(self, monkeypatch):
        # Path 1 needs three domains and the grid all four: one derivation
        # scores each once, where a derivation per check scored seven.
        model = builtin_paper_model()
        scored = []
        breakdown = riskctl.model.score_breakdown
        monkeypatch.setattr(riskctl.model, "score_breakdown",
                            lambda *args: scored.append(args) or breakdown(*args))
        run_verification(replace(model, config=replace(model.config, score_set="formula")))
        assert len(scored) == 4

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "/nonexistent/model.json")
        assert code == 1
        assert err


class TestNonFiniteFlags:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_coefficient_rejected(self, capsys, value):
        code, out, err = run(capsys, "path", "--id", "1", "--k", value)
        assert code == 1
        assert out == ""
        assert "exponent coefficient" in err

    def test_defence_nan_rejected(self, capsys):
        code, out, err = run(capsys, "path", "--id", "1", "--d", "nan")
        assert code == 1
        assert out == "" and "defence probability" in err


class TestStageProbabilityLimits:
    def test_zero_score_with_overflowing_coefficient(self, capsys, tmp_path):
        doc = json.loads(serialize_model(builtin_paper_model()))
        doc["score_sets"]["zero"] = dict.fromkeys(("data", "software", "networking", "hardware"), 0)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "path", "--model", str(path), "--id", "1", "--score-set",
                             "zero", "--k", "1e308", "--first-index", "2", "--format", "json")
        assert code == 0 and err == ""
        assert "NaN" not in out
        assert json.loads(out)["realization_probability"] == 0.0

    def test_first_index_past_float_range(self, capsys):
        code, out, err = run(capsys, "path", "--id", "1", "--first-index", str(10**400),
                             "--format", "json")
        assert code == 0 and err == ""
        assert "NaN" not in out
        assert [s["attack_prob"] for s in json.loads(out)["stages"]] == [1.0] * 4

    def test_report_on_document_with_huge_first_index(self, capsys, tmp_path):
        doc = json.loads(serialize_model(builtin_paper_model()))
        doc["paths"][0]["first_stage_index"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        for fmt in ("table", "json"):
            code, out, err = run(capsys, "report", "--model", str(path), "--format", fmt)
            assert code == 0 and err == ""
            assert "NaN" not in out


class TestFormulaWithoutVector:
    def test_score_formula_needs_vector(self, capsys, tmp_path):
        doc = json.loads(serialize_model(builtin_paper_model()))
        del doc["vectors"]["hardware"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "score", "--model", str(path), "--source", "formula")
        assert code == 1
        assert out == ""
        assert err == (
            "riskctl: error: formula scoring requested but model has no vector for hardware\n"
        )


class TestClosedStdout:
    def test_broken_pipe_exits_quietly(self):
        # Standard out is a pipe whose reader is already gone, as when
        # `riskctl score --format json | head -1` stops reading.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        src = str(Path(riskctl.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "riskctl.cli", "score", "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.stderr == ""
        assert result.returncode == 1


class TestFirstIndexFlag:
    @pytest.mark.parametrize("argv", [["path", "--id", "1"], ["matrix", "--id", "1"],
                                      ["simulate", "--id", "1"], ["report"]])
    def test_below_one_names_the_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--first-index", "0")
        assert code == 1 and out == ""
        assert err == "riskctl: error: --first-index must be >= 1, got 0\n"

    def test_checked_once_without_paths(self, capsys, tmp_path):
        doc = json.loads(serialize_model(builtin_paper_model()))
        doc["paths"] = []
        path = tmp_path / "no-paths.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "report", "--model", str(path), "--first-index", "0")
        assert code == 1 and out == ""
        assert err == "riskctl: error: --first-index must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["score", "verify"])
    def test_commands_without_a_path_refuse_it(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--first-index", "2"])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --first-index 2" in err


# The commands that read each override flag, and what it sets.
DERIVING = ["path", "matrix", "simulate", "report", "verify"]
FLAG_READERS = {
    ("--d", "0.3"): ("defence_probability", 0.3, DERIVING),
    ("--k", "3"): ("exponent_coefficient", 3.0, DERIVING),
    ("--defence-on-final",): ("defence_on_final_stage", True, ["path", "report", "verify"]),
}
COMMANDS = {"score": [], "path": ["--id", "1"], "matrix": ["--id", "1"],
            "simulate": ["--id", "1"], "report": [], "verify": []}


class TestFlagsOnlyWhereRead:
    @pytest.mark.parametrize("flag", FLAG_READERS, ids=lambda flag: flag[0])
    def test_offered_where_read(self, flag):
        dest, value, commands = FLAG_READERS[flag]
        for command in commands:
            args = cli._build_parser().parse_args([command, *COMMANDS[command], *flag])
            assert getattr(args, dest) == value, command

    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for flag, (_, _, readers) in FLAG_READERS.items()
         for command in COMMANDS if command not in readers
         and (command, flag[0]) != ("score", "--d")],  # refused below, as an abbreviation
    )
    def test_usage_error_where_unread(self, capsys, command, flag):
        error = usage_error(capsys, command, *COMMANDS[command], *flag)
        assert error == f"riskctl: error: unrecognized arguments: {' '.join(flag)}"

    @pytest.mark.parametrize(
        "argv, unrecognized",
        [(["score", "--d", "0.5"], "--d 0.5"),
         (["score", "--d", "data", "--format", "json"], "--d data"),
         (["simulate", "--id", "1", "--trial", "5"], "--trial 5")],
        ids=["score-d-0.5", "score-d-data", "simulate-trial"],
    )
    def test_abbreviation_is_refused(self, capsys, argv, unrecognized):
        # A flag is taken only as spelled in full: in score, --d is not
        # --domain, and in simulate, --trial is not --trials.
        error = usage_error(capsys, *argv)
        assert error == f"riskctl: error: unrecognized arguments: {unrecognized}"

    def test_defence_on_final_gates_the_last_stage(self, capsys):
        _, plain, _ = run(capsys, "path", "--id", "1", "--format", "json")
        _, gated, _ = run(capsys, "path", "--id", "1", "--defence-on-final", "--format", "json")
        last = [json.loads(out)["stages"][-1] for out in (plain, gated)]
        assert last[1]["forward_prob"] == pytest.approx(last[0]["forward_prob"] * 0.9)


class TestUnreadableDocuments:
    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"score_sets": ' + "1" * 5000 + "}"],
        ids=["deep-nesting", "long-integer"],
    )
    def test_error_line_without_traceback(self, capsys, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run(capsys, "score", "--model", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("riskctl: error: ") and err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_id(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["path"])
        assert info.value.code == 1
