"""Tests for the riskctl command-line interface."""

import csv
import io
import json

import numpy as np
import pytest

from riskctl import (
    builtin_paper_model,
    model_to_dict,
    realization_probability,
    stage_forward_probabilities,
)
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
        assert payload["z_ttc"] is not None

    def test_z_score_is_null_when_standard_error_is_zero(self, capsys):
        # Every walk hits within the horizon: the hit fraction has no spread.
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hit_fraction"] == 1.0 and payload["hit_fraction_se"] == 0.0
        assert payload["z_hit"] is None
        assert "NaN" not in out and "Infinity" not in out

    def test_zero_trials(self, capsys):
        code, _, err = run(capsys, "simulate", "--id", "1", "--trials", "0")
        assert code == 1
        assert "trials" in err


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
        doc = model_to_dict(builtin_paper_model())
        doc["defence"]["probability"] = 0.5
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert any(l.startswith("FAIL") for l in out.splitlines())
        assert "expected" in out

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "/nonexistent/model.json")
        assert code == 1
        assert err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_id(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["path"])
        assert info.value.code == 1
