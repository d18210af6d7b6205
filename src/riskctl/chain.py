"""Attack-propagation analytics: stage probabilities, Markov chains, and TTC.

A path's per-domain scores become stage attack probabilities (growing
with the stage index under the exponential law), which in turn drive a
birth-death Markov chain over the compromise states S_0 .. S_m:

    row S_0:              stay 1 - a_1,          forward a_1
    row S_j (1 <= j < m): back d*(1 - a_{j+1}),
                          stay a_{j+1}*d + (1 - a_{j+1})*(1 - d),
                          forward a_{j+1}*(1 - d)
    row S_m:              back d,                stay 1 - d

The no-detour realization probability W is the product of the forward
stage probabilities; first-passage analytics (expected steps, hitting
probability within a horizon) pin S_m absorbing, and a seeded Monte
Carlo simulator cross-checks them.

The simulator cuts its trials into fixed blocks of ``_TRIAL_BLOCK``,
each with its own counter-based Philox stream keyed by (seed, block),
and draws only for walks still live.  A trial's draws therefore depend
on the seed, its block and that block's history, never on the worker
count.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import AnalysisConfig, ProbabilityLaw
from .errors import (
    EmptyPathError,
    InvalidConfigError,
    NumericalError,
    UnreachableTargetError,
)
from .model import AttackPath, ThreatModel, resolve_score

# Trials per random stream.  Block b of a run draws from its own Philox
# stream keyed by (seed, b); the constant fixes which trials share a
# stream, so it must not depend on the worker count.  Larger blocks
# spread numpy's per-step call overhead over more walks: of 8192, 16384
# and 32768, 32768 ran the `mc` benchmark workload fastest on 2 vCPUs.
_TRIAL_BLOCK = 32768


@dataclass(eq=False)
class MarkovChain:
    """States S_0 .. S_m with a row-stochastic transition matrix.

    ``stage_probs`` holds the raw (ungated) attack probabilities used
    during construction, one per stage.
    """

    states: tuple[str, ...]
    matrix: np.ndarray
    stage_probs: tuple[float, ...] = ()

    @property
    def target(self) -> int:
        """Index of the target state S_m."""
        return len(self.states) - 1

    def forward_probabilities(self) -> np.ndarray:
        """Super-diagonal entries: the forward edge out of each state."""
        return np.diag(self.matrix, k=1).copy()


@dataclass
class SimulationReport:
    """Outcome of a batch of seeded first-passage walks.

    ``hit_fraction_se`` is the binomial standard error of
    ``hit_fraction``; ``mean_ttc_se`` is the standard error of
    ``mean_ttc`` (standard deviation of the hit times over sqrt(hits)),
    None when no walk hit.  ``ttc_samples`` holds the hit times block
    by block (see ``simulate``), ascending within each block.
    """

    trials: int
    horizon: int
    seed: int
    hits: int
    hit_fraction: float
    hit_fraction_se: float
    ttc_samples: np.ndarray = field(repr=False)
    mean_ttc: float | None
    mean_ttc_se: float | None
    p50: float | None
    p90: float | None
    p99: float | None

    def to_dict(self, include_samples: bool = False) -> dict:
        out = {
            "trials": self.trials,
            "horizon": self.horizon,
            "seed": self.seed,
            "hits": self.hits,
            "hit_fraction": self.hit_fraction,
            "hit_fraction_se": self.hit_fraction_se,
            "mean_ttc": self.mean_ttc,
            "mean_ttc_se": self.mean_ttc_se,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }
        if include_samples:
            out["ttc_samples"] = self.ttc_samples.tolist()
        return out


# ---------------------------------------------------------------------------
# Stage probabilities
# ---------------------------------------------------------------------------

def stage_attack_probability(
    stage_index: int, score: float, config: AnalysisConfig
) -> float:
    """Attack probability for a stage with the given index and domain score.

    Exponential law: ``1 - exp(-k * i * f / normalization)``; linear
    law: ``f / normalization`` independent of the index.  Scores above
    the normalization constant are allowed but warn.

    Raises:
        ValueError: stage_index < 1 or negative score.
        InvalidConfigError: non-positive coefficient or normalization.
    """
    if stage_index < 1:
        raise ValueError(f"stage index must be >= 1, got {stage_index}")
    if score < 0:
        raise ValueError(f"score must be non-negative, got {score}")
    k, norm = config.exponent_coefficient, config.normalization
    if k <= 0 or norm <= 0:
        raise InvalidConfigError("exponent coefficient and normalization must be positive")
    if score > norm:
        warnings.warn(
            f"score {score} exceeds normalization constant {norm}", stacklevel=2
        )
    if config.probability_law is ProbabilityLaw.LINEAR:
        return min(score / norm, 1.0)
    return 1.0 - math.exp(-k * stage_index * score / norm)


def _stage_scores(path: AttackPath, model: ThreatModel, config: AnalysisConfig) -> list[float]:
    return [
        resolve_score(model, stage.view_domain, config.score_set, config.rounding)
        for stage in path.stages
    ]


def stage_attack_probabilities(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> list[float]:
    """Raw (ungated) attack probability per stage of a path."""
    config = config if config is not None else model.config
    scores = _stage_scores(path, model, config)
    return [
        stage_attack_probability(path.first_stage_index + j, f, config)
        for j, f in enumerate(scores)
    ]


def stage_forward_probabilities(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> list[float]:
    """Forward probability per stage position, defense gating applied.

    Stage position j carries index ``first_stage_index + j - 1`` and the
    score of its view domain.  Intermediate positions (2 <= j <= m-1)
    are gated by (1 - d); the final position is gated only when
    ``defence_on_final_stage`` is set.  The first position is never
    gated, and a single-stage path is never gated.
    """
    config = config if config is not None else model.config
    if not path.stages:
        raise EmptyPathError(f"path {path.id!r} has no stages")
    m = len(path.stages)
    probs = []
    for j, a in enumerate(stage_attack_probabilities(path, model, config), start=1):
        gated = j >= 2 and (j <= m - 1 or config.defence_on_final_stage)
        if gated:
            a *= 1.0 - config.defence_at(j)
        probs.append(a)
    return probs


def realization_probability(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> float:
    """No-detour attack realization probability W: the product of the
    forward stage probabilities."""
    return math.prod(stage_forward_probabilities(path, model, config))


# ---------------------------------------------------------------------------
# Chain construction and validation
# ---------------------------------------------------------------------------

def build_chain(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> MarkovChain:
    """Build the birth-death transition chain for a path.

    State S_0 is the uncompromised start; S_j means stage j succeeded;
    S_m is the target.  The matrix follows the row formulas in the
    module docstring, with a_j the raw attack probability of the stage
    leaving S_{j-1}.
    """
    config = config if config is not None else model.config
    if not path.stages:
        raise EmptyPathError(f"path {path.id!r} has no stages")
    a = stage_attack_probabilities(path, model, config)
    m = len(a)
    matrix = np.zeros((m + 1, m + 1))
    matrix[0, 0] = 1.0 - a[0]
    matrix[0, 1] = a[0]
    for row in range(1, m):
        attack = a[row]
        d = config.defence_at(row + 1)
        matrix[row, row - 1] = d * (1.0 - attack)
        matrix[row, row] = attack * d + (1.0 - attack) * (1.0 - d)
        matrix[row, row + 1] = attack * (1.0 - d)
    d_final = config.defence_at(m)
    matrix[m, m - 1] = d_final
    matrix[m, m] = 1.0 - d_final
    states = ("S0",) + tuple(
        f"S{j}:{stage.code}" for j, stage in enumerate(path.stages, start=1)
    )
    return MarkovChain(states=states, matrix=matrix, stage_probs=tuple(a))


def validate_stochastic(chain: MarkovChain, tol: float = 1e-12) -> list[str]:
    """Return violations of row-stochasticity; empty means valid."""
    violations: list[str] = []
    matrix = np.asarray(chain.matrix, dtype=float)
    n = len(chain.states)
    if matrix.shape != (n, n):
        violations.append(f"matrix shape {matrix.shape} does not match {n} states")
        return violations
    for i in range(n):
        row_sum = float(matrix[i].sum())
        if abs(row_sum - 1.0) > tol:
            violations.append(f"row {i} ({chain.states[i]}) sums to {row_sum!r}, not 1")
        for j in range(n):
            value = float(matrix[i, j])
            if not 0.0 <= value <= 1.0:
                violations.append(f"entry [{i}, {j}] = {value!r} out of [0, 1]")
    return violations


# ---------------------------------------------------------------------------
# First-passage analytics
# ---------------------------------------------------------------------------

def _absorbing(chain: MarkovChain) -> np.ndarray:
    matrix = np.array(chain.matrix, dtype=float)
    target = chain.target
    matrix[target, :] = 0.0
    matrix[target, target] = 1.0
    return matrix


def mean_time_to_compromise(chain: MarkovChain) -> float:
    """Expected steps from S_0 until first arrival at the target state.

    Solves t = 1 + Q t over the transient states of the target-absorbing
    chain.  Finite whenever every forward probability is positive.

    Raises:
        UnreachableTargetError: some forward probability is zero.
        NumericalError: the linear solve degenerates.
    """
    forward = chain.forward_probabilities()
    if np.any(forward <= 0.0):
        stuck = int(np.flatnonzero(forward <= 0.0)[0])
        raise UnreachableTargetError(
            f"forward probability out of state {chain.states[stuck]} is zero"
        )
    m = chain.target
    q = np.asarray(chain.matrix, dtype=float)[:m, :m]
    try:
        times = np.linalg.solve(np.eye(m) - q, np.ones(m))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"hitting-time solve failed: {exc}") from None
    if not np.all(np.isfinite(times)):
        raise NumericalError("hitting-time solve produced non-finite values")
    return float(times[0])


def hit_probability_within(chain: MarkovChain, horizon: int) -> float:
    """Probability that a walk from S_0 first reaches the target within
    ``horizon`` steps."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    matrix = _absorbing(chain)
    dist = np.zeros(len(chain.states))
    dist[0] = 1.0
    for _ in range(horizon):
        dist = dist @ matrix
    # Iterated products can drift a few ulp past the unit interval.
    return min(max(float(dist[chain.target]), 0.0), 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------

def _walk_block(
    back_p: np.ndarray,
    fwd_threshold: np.ndarray,
    horizon: int,
    seed: int,
    block: int,
    size: int,
) -> np.ndarray:
    """Ascending hit times of the walks of a ``size``-trial block that hit.

    The block's generator is keyed by (seed, block) and, at every step,
    draws one uniform per live walk.  Walk state is kept compacted: a
    walk that reaches the target leaves ``states`` and draws nothing
    more, so only the number of arrivals per step is recorded.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))
    target = fwd_threshold.size
    arrivals = np.zeros(horizon + 1, dtype=np.int64)
    states = np.zeros(size, dtype=np.intp)
    for step in range(1, horizon + 1):
        if not states.size:
            break
        uniforms = rng.random(states.size)
        states = (
            states
            + (uniforms >= fwd_threshold[states])
            - (uniforms < back_p[states])
        )
        live = states != target
        arrived = states.size - np.count_nonzero(live)
        if arrived:
            arrivals[step] = arrived
            states = states[live]
    return np.repeat(np.arange(horizon + 1), arrivals)


def simulate(
    chain: MarkovChain,
    trials: int,
    horizon: int,
    seed: int = 0,
    workers: int = 1,
) -> SimulationReport:
    """Run independent first-passage walks from S_0.

    Trials are cut into consecutive blocks of ``_TRIAL_BLOCK``.  Block b
    draws from one Philox stream keyed by (seed, b): at each step, one
    uniform per walk of the block still live, in trial order.  So the
    draws of trial t depend on the seed, its block and that block's
    history, never on ``workers``, and a given seed produces
    bit-identical reports for any ``workers`` setting.  Workers take
    whole blocks; at most ``min(workers, blocks, os.cpu_count())``
    threads run.

    Raises:
        ValueError: trials < 1, horizon < 1, negative seed, workers < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    target = chain.target
    matrix = np.asarray(chain.matrix, dtype=float)
    # Per-state back/forward thresholds for the transient states; the
    # walk never sits on the target (first passage ends the trial).  A
    # uniform below back_p steps back, one at or above fwd_threshold
    # steps forward.
    back_p = np.zeros(target)
    back_p[1:] = np.diag(matrix, k=-1)[: target - 1]
    fwd_threshold = 1.0 - np.diag(matrix, k=1)

    def run(block: int) -> np.ndarray:
        size = min(_TRIAL_BLOCK, trials - block * _TRIAL_BLOCK)
        return _walk_block(back_p, fwd_threshold, horizon, seed, block, size)

    blocks = range(-(-trials // _TRIAL_BLOCK))
    threads = min(workers, len(blocks), os.cpu_count() or 1)
    if threads == 1:
        parts = [run(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, blocks))
    samples = np.concatenate(parts)
    hits = int(samples.size)
    hit_fraction = hits / trials
    if hits:
        p50, p90, p99 = (float(v) for v in np.percentile(samples, [50, 90, 99]))
        mean_ttc = float(samples.mean())
        mean_ttc_se = float(samples.std()) / math.sqrt(hits)
    else:
        mean_ttc = mean_ttc_se = p50 = p90 = p99 = None
    return SimulationReport(
        trials=trials,
        horizon=horizon,
        seed=seed,
        hits=hits,
        hit_fraction=hit_fraction,
        hit_fraction_se=math.sqrt(hit_fraction * (1.0 - hit_fraction) / trials),
        ttc_samples=samples,
        mean_ttc=mean_ttc,
        mean_ttc_se=mean_ttc_se,
        p50=p50,
        p90=p90,
        p99=p99,
    )
