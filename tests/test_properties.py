"""Property tests over generated inputs (hypothesis, derandomized)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from riskctl import MarkovChain, hit_probability_within, simulate


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
