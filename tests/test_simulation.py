"""Tests for the seeded Monte Carlo first-passage simulator."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

import riskctl.chain
from riskctl import MarkovChain, build_chain, hit_probability_within, simulate
from riskctl.chain import _TRIAL_BLOCK


def reports_equal(a, b):
    return (
        a.to_dict() == b.to_dict()
        and np.array_equal(a.ttc_samples, b.ttc_samples)
    )


class TestDeterminism:
    def test_same_seed_same_report(self, model):
        chain = build_chain(model.path("1"), model)
        first = simulate(chain, trials=5000, horizon=200, seed=123)
        second = simulate(chain, trials=5000, horizon=200, seed=123)
        assert reports_equal(first, second)

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_worker_count_does_not_change_results(self, model, workers):
        chain = build_chain(model.path("2b"), model)
        baseline = simulate(chain, trials=4999, horizon=150, seed=9, workers=1)
        split = simulate(chain, trials=4999, horizon=150, seed=9, workers=workers)
        assert reports_equal(baseline, split)

    def test_different_seeds_differ(self, model):
        chain = build_chain(model.path("1"), model)
        a = simulate(chain, trials=5000, horizon=200, seed=1)
        b = simulate(chain, trials=5000, horizon=200, seed=2)
        assert not np.array_equal(a.ttc_samples, b.ttc_samples)

    def test_block_stream_does_not_depend_on_trial_count(self, model):
        # The stream contract: block 0 draws from its own (seed, 0)
        # stream, so its hit times (the leading samples of the report)
        # are the same however many trials follow it.
        chain = build_chain(model.path("1"), model)
        block0 = simulate(chain, trials=_TRIAL_BLOCK, horizon=40, seed=42).ttc_samples
        for trials in (_TRIAL_BLOCK + 1, 3 * _TRIAL_BLOCK + 5):
            longer = simulate(chain, trials=trials, horizon=40, seed=42).ttc_samples
            assert np.array_equal(longer[: block0.size], block0)


def reference_block(chain, seed, block, size, horizon):
    """Scalar reference walk of one trial block: the documented contract.

    The block's stream is Philox keyed by (seed, block); each step draws
    one uniform per live walk, in trial order.  Returns the hit times,
    ascending.
    """
    rows = chain.matrix.tolist()
    target = chain.target
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))
    states, hits = [0] * size, []
    for step in range(1, horizon + 1):
        if not states:
            break
        live = []
        for state, u in zip(states, rng.random(len(states)).tolist()):
            back = rows[state][state - 1] if state else 0.0
            state += (u >= 1.0 - rows[state][state + 1]) - (u < back)
            if state == target:
                hits.append(step)
            else:
                live.append(state)
        states = live
    return hits


class TestBlockStream:
    def test_matches_scalar_reference(self, model):
        chain = build_chain(model.path("2b"), model)
        trials, horizon, seed = _TRIAL_BLOCK + 300, 30, 11
        report = simulate(chain, trials=trials, horizon=horizon, seed=seed, workers=2)
        expected = reference_block(chain, seed, 0, _TRIAL_BLOCK, horizon)
        expected += reference_block(chain, seed, 1, 300, horizon)
        assert report.ttc_samples.tolist() == expected


class TestThreadCap:
    def test_pool_never_exceeds_cpu_count(self, monkeypatch):
        # A recording stand-in for the pool: runs serially, starts no thread.
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(riskctl.chain, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # More blocks than cores; one-step walks keep every block cheap.
        chain = MarkovChain(states=("S0", "S1"), matrix=np.array([[0.0, 1.0], [0.0, 1.0]]))
        trials = 4 * _TRIAL_BLOCK + 1
        report = simulate(chain, trials=trials, horizon=5, seed=0, workers=10_000)
        assert report.hits == trials
        assert requested and all(n <= os.cpu_count() for n in requested)


class TestWalkSemantics:
    def test_certain_walk_hits_in_exactly_m_steps(self):
        m = 3
        matrix = np.eye(m + 1, k=1)
        matrix[m, m] = 1.0
        chain = MarkovChain(states=tuple(f"S{i}" for i in range(m + 1)), matrix=matrix)
        report = simulate(chain, trials=500, horizon=10, seed=0)
        assert report.hit_fraction == 1.0
        assert np.all(report.ttc_samples == m)
        assert report.mean_ttc == float(m)
        assert report.p50 == report.p90 == report.p99 == float(m)

    def test_report_invariants(self, model):
        chain = build_chain(model.path("3"), model)
        report = simulate(chain, trials=2000, horizon=60, seed=5)
        assert report.hit_fraction == report.hits / report.trials
        assert len(report.ttc_samples) == report.hits
        assert np.all(report.ttc_samples >= 1)
        assert np.all(report.ttc_samples <= report.horizon)

    def test_standard_errors(self, model):
        chain = build_chain(model.path("1"), model)
        report = simulate(chain, trials=5000, horizon=8, seed=4)
        p = report.hit_fraction
        assert report.hit_fraction_se == math.sqrt(p * (1 - p) / report.trials)
        assert report.mean_ttc_se == pytest.approx(
            np.std(report.ttc_samples) / math.sqrt(report.hits)
        )
        payload = report.to_dict()
        assert payload["hit_fraction_se"] == report.hit_fraction_se
        assert payload["mean_ttc_se"] == report.mean_ttc_se

    def test_standard_errors_without_hits(self):
        chain = MarkovChain(states=("S0", "S1"), matrix=np.eye(2))
        report = simulate(chain, trials=100, horizon=50, seed=0)
        assert report.hit_fraction_se == 0.0
        assert report.mean_ttc_se is None

    def test_no_hits_when_unreachable(self):
        chain = MarkovChain(
            states=("S0", "S1"),
            matrix=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        report = simulate(chain, trials=100, horizon=50, seed=0)
        assert report.hits == 0
        assert report.hit_fraction == 0.0
        assert report.mean_ttc is None and report.p99 is None


class TestAgainstAnalytics:
    @pytest.mark.parametrize("horizon", [5, 8, 12, 50])
    def test_hit_fraction_within_three_sigma(self, model, horizon):
        chain = build_chain(model.path("1"), model)
        trials = 100_000
        report = simulate(chain, trials=trials, horizon=horizon, seed=2024)
        p = hit_probability_within(chain, horizon)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(report.hit_fraction - p) <= 3 * sigma

    def test_ttc_histogram_matches_first_passage_pmf(self, model):
        # Chi-square of the full simulated TTC histogram (plus a "no hit
        # within the horizon" bin) against the exact first-passage pmf.
        stats = pytest.importorskip("scipy.stats")
        chain = build_chain(model.path("1"), model)
        horizon, trials = 60, 400_000
        report = simulate(chain, trials=trials, horizon=horizon, seed=31337)
        cdf = np.array([hit_probability_within(chain, h) for h in range(horizon + 1)])
        expected = trials * np.append(np.diff(cdf), 1.0 - cdf[-1])
        observed = np.append(
            np.bincount(report.ttc_samples, minlength=horizon + 1)[1:],
            trials - report.hits,
        ).astype(float)
        # Steps the walk cannot reach the target in must see no hits.
        impossible = expected == 0.0
        assert not observed[impossible].any()
        expected, observed = expected[~impossible], observed[~impossible]
        # Pool the sparse bins of the tail, the miss bin included, until
        # each pooled bin expects at least 5.
        exp_bins, obs_bins = [], []
        exp_acc = obs_acc = 0.0
        for e, o in zip(expected, observed):
            exp_acc, obs_acc = exp_acc + e, obs_acc + o
            if exp_acc >= 5.0:
                exp_bins.append(exp_acc)
                obs_bins.append(obs_acc)
                exp_acc = obs_acc = 0.0
        exp_bins[-1] += exp_acc
        obs_bins[-1] += obs_acc
        assert min(exp_bins) >= 5.0
        chi2 = float(np.sum((np.array(obs_bins) - exp_bins) ** 2 / exp_bins))
        p_value = stats.chi2.sf(chi2, df=len(exp_bins) - 1)
        assert p_value > 1e-6, f"chi2 {chi2:.1f} on {len(exp_bins) - 1} dof"

    def test_single_stage_geometric_mean(self, model):
        config = replace(model.config, defence_probability=0.0)
        chain = build_chain(model.path("5"), model, config)
        p = chain.stage_probs[0]
        report = simulate(chain, trials=100_000, horizon=500, seed=77)
        expected_mean = 1.0 / p
        geometric_std = math.sqrt(1 - p) / p
        standard_error = geometric_std / math.sqrt(report.hits)
        assert report.hit_fraction == 1.0
        assert abs(report.mean_ttc - expected_mean) <= 3 * standard_error


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"horizon": 0},
            {"seed": -1},
            {"workers": 0},
        ],
    )
    def test_rejected(self, model, kwargs):
        chain = build_chain(model.path("5"), model)
        defaults = {"trials": 10, "horizon": 10, "seed": 0, "workers": 1}
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            simulate(chain, **defaults)
