"""Property tests over generated inputs (hypothesis, derandomized)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskctl import (
    MarkovChain,
    UnreachableTargetError,
    hit_probability_within,
    mean_time_to_compromise,
    simulate,
)
from riskctl.chain import _first_passage_cdf


def birth_death_chain(attack, d):
    """The chain of the row formulas in ``riskctl.chain`` for stage
    attack probabilities ``attack`` and defence probability ``d``."""
    m = len(attack)
    matrix = np.zeros((m + 1, m + 1))
    matrix[0, :2] = 1.0 - attack[0], attack[0]
    for j in range(1, m):
        a = attack[j]
        matrix[j, j - 1 : j + 2] = d * (1.0 - a), a * d + (1.0 - a) * (1.0 - d), a * (1.0 - d)
    matrix[m, m - 1 :] = d, 1.0 - d
    return MarkovChain(states=tuple(f"S{j}" for j in range(m + 1)), matrix=matrix)


def dense_solve_ttc(matrix):
    """t_0 of (I - Q) t = 1, Q the transient block of ``matrix``: the
    dense first-passage system, solved by Gaussian elimination in exact
    rational arithmetic.  (``np.linalg.solve`` is no reference here: on
    chains whose mean TTC reaches 1e5 it is off by up to 6e-12
    relative, and at 1e24 by a factor of 8e6.)"""
    m = len(matrix) - 1
    rows = [
        [Fraction(int(i == j)) - Fraction(matrix[i][j]) for j in range(m)] + [Fraction(1)]
        for i in range(m)
    ]
    for k in range(m):
        for i in range(k + 1, m):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    t = [Fraction(0)] * m
    for i in reversed(range(m)):
        t[i] = (rows[i][m] - sum(rows[i][j] * t[j] for j in range(i + 1, m))) / rows[i][i]
    return float(t[0])


class TestGeneratedChains:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        attack=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
        d=st.floats(0.0, 0.5),
        horizon=st.integers(1, 60),
        seed=st.integers(0, 2**32),
    )
    def test_simulation_invariants(self, attack, d, horizon, seed):
        chain = birth_death_chain(attack, d)
        trials = 5000
        report = simulate(chain, trials=trials, horizon=horizon, seed=seed)
        samples = report.ttc_samples
        assert report.hits <= trials
        assert samples.size == report.hits
        assert np.all(np.diff(samples) >= 0)
        assert np.all((samples >= 1) & (samples <= horizon))
        split = simulate(chain, trials=trials, horizon=horizon, seed=seed, workers=3)
        assert report.to_dict() == split.to_dict()
        assert np.array_equal(samples, split.ttc_samples)
        # The analytic sigma, floored at 1/trials: a p within rounding of
        # 0 or 1 has no spread to measure against.
        p = hit_probability_within(chain, horizon)
        sigma = max(math.sqrt(p * (1.0 - p) / trials), 1.0 / trials)
        assert abs(report.hit_fraction - p) < 5 * sigma

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        attack=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
        d=st.floats(0.0, 0.5),
        stuck=st.one_of(st.none(), st.integers(0, 11)),
        horizon=st.integers(0, 200),
    )
    def test_first_passage_analytics(self, attack, d, stuck, horizon):
        # ``stuck`` names a stage whose attack probability drops to 0.
        if stuck is not None and stuck < len(attack):
            attack[stuck] = 0.0
        chain = birth_death_chain(attack, d)
        forward = np.diag(chain.matrix, k=1)
        if np.all(forward > 0.0):
            ttc = mean_time_to_compromise(chain)
            assert math.isfinite(ttc)
            reference = dense_solve_ttc(chain.matrix.tolist())
            assert abs(ttc - reference) <= 1e-12 * reference
        else:
            with pytest.raises(UnreachableTargetError):
                mean_time_to_compromise(chain)
        cdf = _first_passage_cdf(chain, horizon)
        assert cdf[0] == 0.0 and np.all(np.diff(cdf) >= 0.0)
        assert cdf[-1] <= 1.0 + 1e-12
        assert 0.0 <= hit_probability_within(chain, horizon) == min(cdf[-1], 1.0) <= 1.0
