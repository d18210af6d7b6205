"""Tests for the riskctl command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskctl
from riskctl import (
    builtin_paper_model,
    realization_probability,
    serialize_model,
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


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_required_id(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["path"])
        assert info.value.code == 1
