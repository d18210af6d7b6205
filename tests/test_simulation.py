"""Tests for the seeded Monte Carlo first-passage simulator."""

import math
import random
import threading
from dataclasses import replace

import numpy as np
import pytest

from riskctl import MarkovChain, build_chain, hit_probability_within, simulate
from riskctl import chain as chain_module
from riskctl.chain import _first_passage_cdf, _hit_time_stats


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


def reference_arrivals(chain, trials, horizon, seed):
    """Per-state reference of the documented stream contract.

    One Philox stream keyed by ``SeedSequence(seed)``; at each step, one
    ``multinomial(n_j, (fwd_j, back_j, stay_j))`` call per transient
    state j = 0 .. m-1, in that order.  The forward moves out of S_{m-1}
    hit.  Returns the hits at steps 1, 2, ... until no walk is left or
    the horizon.
    """
    rows = chain.matrix.tolist()
    m = chain.target
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    live, arrivals = [trials] + [0] * (m - 1), []
    for step in range(1, horizon + 1):
        if not any(live):
            break
        moved, hit = [0] * m, 0
        for j, n in enumerate(live):
            row = [rows[j][j + 1], rows[j][j - 1] if j else 0.0, rows[j][j]]
            f, b, stay = rng.multinomial(int(n), row).tolist()
            if j:
                moved[j - 1] += b
            moved[j] += stay
            if j + 1 < m:
                moved[j + 1] += f
            else:
                hit = f
        live = moved
        arrivals.append(hit)
    return arrivals


def reference_hit_times(chain, trials, horizon, seed):
    """The hit times of ``reference_arrivals``, ascending."""
    arrivals = reference_arrivals(chain, trials, horizon, seed)
    return np.repeat(np.arange(1, len(arrivals) + 1), arrivals).tolist()


def chain_of(moves):
    """A chain whose transient state S_j moves forward, back and stays
    with ``moves[j]``; the target is absorbing."""
    m = len(moves)
    matrix = np.zeros((m + 1, m + 1))
    for j, (f, b, s) in enumerate(moves):
        matrix[j, j : j + 2] = s, f
        if j:
            matrix[j, j - 1] = b
    matrix[m, m] = 1.0
    return MarkovChain(states=tuple(f"S{j}" for j in range(m + 1)), matrix=matrix)


def generated_chain(m, rng):
    """``m`` transient states with random moves, every forward one positive."""
    moves = []
    for j in range(m):
        f = rng.uniform(0.01, 1.0)
        b = rng.uniform(0.0, 1.0 - f) if j else 0.0
        moves.append((f, b, 1.0 - f - b))
    return chain_of(moves)


def count_steps(monkeypatch):
    """Record the arrivals of each ``_step`` call ``simulate`` makes."""
    arrivals = []

    def step(moves):
        live, arrived = real_step(moves)
        arrivals.append(arrived)
        return live, arrived

    real_step = chain_module._step
    monkeypatch.setattr(chain_module, "_step", step)
    return arrivals


class TestCountStream:
    def test_matches_per_state_reference(self, model):
        chain = build_chain(model.path("2b"), model)
        trials, horizon, seed = 30_000, 30, 11
        report = simulate(chain, trials=trials, horizon=horizon, seed=seed, workers=2)
        assert report.ttc_samples.tolist() == reference_hit_times(chain, trials, horizon, seed)

    @pytest.mark.parametrize("trials, horizon", [(200_000, 200), (10_000, 1000)])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 21, 34, 64])
    def test_generated_chains_match_reference(self, m, trials, horizon):
        rng = random.Random(m)
        for seed in (0, 1, 2**40 + m):
            chain = generated_chain(m, rng)
            report = simulate(chain, trials=trials, horizon=horizon, seed=seed)
            assert report.ttc_samples.tolist() == reference_hit_times(chain, trials, horizon, seed)

    @pytest.mark.parametrize(
        "moves, trials",
        [
            # Forward exactly 1: the back draw never happens.
            ([(1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.4, 0.3, 0.3)], 10_000),
            # Forward 0 with a positive back; back 0; stay 0.
            ([(0.6, 0.0, 0.4), (0.0, 0.5, 0.5), (0.3, 0.7, 0.0), (0.5, 0.0, 0.5)], 10_000),
            # A few walks trickle out of S_0, so S_1 is often empty
            # between occupied S_0 and S_2.
            ([(0.02, 0.0, 0.98), (0.9, 0.05, 0.05), (0.01, 0.01, 0.98)], 50),
            # back / (1 - forward) rounds an ulp past 1, and lies 7e-13
            # past it: multinomial passes it on, simulate clamps it to 1.
            (
                [(0.5, 0.0, 0.5), (0.7, math.nextafter(1.0 - 0.7, 1.0), 0.0),
                 (0.3, 0.7 + 5e-13, 0.0)],
                10_000,
            ),
        ],
    )
    def test_edge_rows_match_reference(self, moves, trials):
        chain = chain_of(moves)
        for seed in range(5):
            report = simulate(chain, trials=trials, horizon=300, seed=seed)
            assert report.ttc_samples.tolist() == reference_hit_times(chain, trials, 300, seed)

    def test_int64_walk_counts_match_reference(self, model, monkeypatch):
        # The hit-time samples of 2**63 - 1 trials cannot be allocated,
        # so the draws are compared step by step.
        chain = build_chain(model.path("1"), model)
        trials = 2**63 - 1
        arrivals = count_steps(monkeypatch)
        with pytest.raises(MemoryError, match="hit-time samples"):
            simulate(chain, trials=trials, horizon=6, seed=3)
        assert arrivals == reference_arrivals(chain, trials, 6, 3)


class TestInvalidRows:
    """A row ``multinomial`` refuses is refused before any draw, even in a
    state no walk reaches: S_0 keeps every walk here."""

    @pytest.mark.parametrize(
        "row, message",
        [
            ((0.5, -0.1, 0.6), r"out of state S1 must lie in \[0, 1\]"),
            ((0.5, 0.2, 1.5), r"out of state S1 must lie in \[0, 1\]"),
            ((float("nan"), 0.2, 0.3), r"out of state S1 must lie in \[0, 1\]"),
            ((0.6, 0.4 + 2e-12, 0.0), "forward \\+ back probability out of state S1"),
        ],
    )
    def test_rejected_before_any_draw(self, monkeypatch, row, message):
        chain = chain_of([(0.0, 0.0, 1.0), (0.5, 0.2, 0.3)])
        # Set after construction, which refuses NaN.
        chain.matrix[1, :3] = row[1], row[2], row[0]
        with pytest.raises(ValueError):
            np.random.default_rng(0).multinomial(0, row)
        arrivals = count_steps(monkeypatch)
        with pytest.raises(ValueError, match=message):
            simulate(chain, trials=100, horizon=10, seed=0)
        assert arrivals == []


class TestNoThreads:
    def test_workers_start_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("simulate started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        # One-step walks: every trial hits at step 1.
        chain = MarkovChain(states=("S0", "S1"), matrix=np.array([[0.0, 1.0], [0.0, 1.0]]))
        trials = 200_001
        report = simulate(chain, trials=trials, horizon=5, seed=0, workers=10_000)
        assert report.hits == trials


class TestCountStatistics:
    def test_match_numpy_on_the_samples(self):
        # Percentiles and mean bit for bit, the SE within 4 ulp (numpy
        # sums the squared deviations in floating point).
        rng = np.random.default_rng(2026)
        for _ in range(400):
            horizon = int(rng.integers(1, 300))
            scale = float(rng.choice([3.0, 100.0, 5000.0]))
            arrivals = rng.poisson(scale, size=horizon + 1)
            arrivals *= rng.random(horizon + 1) < rng.uniform(0.02, 1.0)
            arrivals[0] = 0
            if not arrivals.any():
                arrivals[int(rng.integers(1, horizon + 1))] = 1
            samples = np.repeat(np.arange(horizon + 1), arrivals)
            mean, se, *percentiles = _hit_time_stats(arrivals)
            assert percentiles == [float(v) for v in np.percentile(samples, [50, 90, 99])]
            assert mean == samples.mean()
            reference = float(np.std(samples)) / math.sqrt(samples.size)
            assert abs(se - reference) <= 4 * math.ulp(reference)


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

    @pytest.mark.parametrize(
        "moves, steps",
        [
            # Every attack probability 0: no walk ever leaves S_0.
            ([(0.0, 0.0, 1.0), (0.0, 0.3, 0.7)], 1),
            # Every walk moves to S_1 at step 1 and stays there.
            ([(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0)], 2),
        ],
    )
    def test_stops_once_no_walk_can_move(self, monkeypatch, moves, steps):
        arrivals = count_steps(monkeypatch)
        report = simulate(chain_of(moves), trials=10_000, horizon=100_000, seed=0)
        assert arrivals == [0] * steps
        assert report.hits == 0 and report.ttc_samples.size == 0

    def test_runs_on_while_a_walk_can_move(self, monkeypatch):
        # S_0 drains into S_1, which keeps its walks: the loop runs until
        # S_0 is empty, a few dozen steps, not to the horizon.
        arrivals = count_steps(monkeypatch)
        report = simulate(chain_of([(0.5, 0.0, 0.5), (0.0, 0.0, 1.0)]), 10_000, 100_000, seed=4)
        assert 13 <= len(arrivals) < 100
        assert report.hits == 0

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
        cdf = _first_passage_cdf(chain, horizon)
        cdf += cdf[-1:] * (horizon + 1 - len(cdf))  # F past its fixed point
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
            {"trials": 2**63},
            {"horizon": 0},
            {"seed": -1},
            {"workers": 0},
        ],
    )
    def test_rejected(self, model, kwargs):
        chain = build_chain(model.path("5"), model)
        defaults = {"trials": 10, "horizon": 10, "seed": 0, "workers": 1}
        defaults.update(kwargs)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            simulate(chain, **defaults)
