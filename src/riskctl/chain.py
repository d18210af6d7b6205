"""Attack-propagation analytics: Markov chains and TTC.

``MarkovChain`` stores a path's birth-death chain over the compromise
states S_0 .. S_m as a dense numpy matrix, built from the row formulas
in ``stages.py`` and refusing any entry off their three diagonals.
``_moves`` reads its diagonals once as plain floats and ``_step`` moves
walks one step: the first-passage analytics step the expected moves,
the seeded Monte Carlo simulator that cross-checks them its draws,
the binomial calls of a per-state ``multinomial`` made one by one.
numpy is left for the stored matrix, the draws and ``ttc_samples``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import accumulate

import numpy as np

from .config import AnalysisConfig
from .errors import NumericalError, UnreachableTargetError
from .model import AttackPath, ThreatModel
from .stages import _chain_rows, _forward_entries, _stochastic_violations


@dataclass(eq=False)
class MarkovChain:
    """States S_0 .. S_m with a birth-death transition matrix.

    Construction raises :class:`NumericalError` for a non-finite entry
    or a non-zero one off the three central diagonals (back, stay,
    forward); :func:`validate_stochastic` reports the other rules (a
    shape matching ``states``, entries in [0, 1], rows summing to 1).
    ``stage_probs`` holds the raw (ungated) attack probabilities used
    during construction, one per stage.
    """

    states: tuple[str, ...]
    matrix: np.ndarray
    stage_probs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        self.matrix = matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or not np.isfinite(matrix).all():
            raise NumericalError("transition matrix must be a 2-D array of finite entries")
        if len(matrix) < 2:
            raise NumericalError("transition matrix needs two rows: a start state and a target")
        far = np.argwhere(np.triu(matrix, 2) + np.tril(matrix, -2))
        if far.size:
            i, j = far[0].tolist()
            raise NumericalError(
                f"entry [{i}, {j}] = {float(matrix[i, j])!r} lies off the three central "
                "diagonals: a chain moves at most one state per step"
            )

    @property
    def target(self) -> int:
        """Index of the target state S_m."""
        return len(self.states) - 1

    def forward_probabilities(self) -> np.ndarray:
        """Super-diagonal entries: the forward edge out of each state."""
        return np.array([forward for forward, _, _ in _moves(self)])


@dataclass
class SimulationReport:
    """Outcome of a batch of seeded first-passage walks.

    ``hit_fraction_se`` is the binomial standard error of
    ``hit_fraction``; ``mean_ttc_se`` is the standard error of
    ``mean_ttc`` (standard deviation of the hit times over sqrt(hits)),
    None when no walk hit.  ``ttc_samples`` holds the hit times in
    ascending order.
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

    def to_dict(self) -> dict:
        """Every field but ``ttc_samples``, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "ttc_samples"}


# ---------------------------------------------------------------------------
# Chain construction and validation
# ---------------------------------------------------------------------------

def build_chain(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> MarkovChain:
    """Build the birth-death transition chain for a path, with the rows
    of ``stages.py``: S_0 is the uncompromised start, S_j means stage j
    succeeded, and S_m is the target."""
    states, rows, a = _chain_rows(path, model, config)
    return MarkovChain(states=states, matrix=np.array(rows), stage_probs=tuple(a))


def validate_stochastic(chain: MarkovChain, tol: float = 1e-12) -> list[str]:
    """Return violations of row-stochasticity; empty means valid."""
    matrix, n = np.asarray(chain.matrix, dtype=float), len(chain.states)
    if matrix.shape != (n, n):
        return [f"matrix shape {matrix.shape} does not match {n} states"]
    return _stochastic_violations(chain.states, matrix.tolist(), tol)


# ---------------------------------------------------------------------------
# First-passage analytics
# ---------------------------------------------------------------------------

def _moves(chain: MarkovChain) -> list[tuple[float, float, float]]:
    """One (forward, back, stay) row of move probabilities per transient
    state, back_0 = 0; the target's row is never read, which pins it
    absorbing.  Stay comes last: ``simulate`` draws forward, then back,
    and leaves the stay count as the remainder, as ``multinomial`` does;
    the forward moves set the hit times."""
    rows = chain.matrix.tolist()
    return [(f, row[j - 1] if j else 0.0, row[j])
            for j, (f, row) in enumerate(zip(_forward_entries(rows), rows))]


def _step(moves: list) -> tuple[list, float | int]:
    """(live, arrived) one step on, from ``moves[j]``: the walks that
    leave S_j forward, back and stay, as integer counts or expected
    shares.  ``live[j]`` adds the stay moves of S_j, the forward moves
    out of S_{j-1}, then the back moves out of S_{j+1}: a dense
    product's row order.  ``arrived`` is the forward moves out of
    S_{m-1}."""
    forward, back, stay = zip(*moves)
    inflow = zip(stay, (0,) + forward[:-1], back[1:] + (0,))
    return [s + f + b for s, f, b in inflow], forward[-1]


def mean_time_to_compromise(chain: MarkovChain) -> float:
    """Expected steps from S_0 until first arrival at the target state.

    Sums E_j = (1 + back_j * E_{j-1}) / forward_j, the expected steps
    from S_j to S_{j+1}, over the transient states: the birth-death
    recurrence (Kemeny & Snell, *Finite Markov Chains*, 1960), O(m).
    Finite whenever every forward probability is positive.

    Raises:
        UnreachableTargetError: some forward probability is zero.
        NumericalError: the sum overflows (a tiny forward probability).
    """
    e = total = 0.0
    for j, (f, b, _) in enumerate(_moves(chain)):
        if f <= 0.0:
            raise UnreachableTargetError(
                f"forward probability out of state {chain.states[j]} is zero"
            )
        e = (1.0 + b * e) / f
        total += e
    if not math.isfinite(total):
        raise NumericalError(f"mean time to compromise overflows: {total!r}")
    return total


def _first_passage_cdf(chain: MarkovChain, horizon: int) -> list[float]:
    """F(0), F(1), ... up to F(horizon) or the last step that moves F,
    whichever comes first; F(t) past the end is the last entry.  F(t) is
    the probability that a walk from S_0 first reaches the target within
    t steps: ``_step``'s arrivals, summed.  A step that leaves F as it is
    ends the pass if it leaves ``live`` as it is too, or if F plus twice
    the mass in transit rounds to F: with stochastic rows, no later
    arrival can then move F."""
    rows = _moves(chain)
    live = [1.0] + [0.0] * (len(rows) - 1)
    cdf = [0.0]
    for _ in range(horizon):
        new, arrived = _step([(p * f, p * b, p * s) for p, (f, b, s) in zip(live, rows)])
        if cdf[-1] + arrived == cdf[-1] and (new == live or cdf[-1] + 2.0 * sum(new) == cdf[-1]):
            break
        live = new
        cdf.append(cdf[-1] + arrived)
    return cdf


def _hit_within(chain: MarkovChain, horizon: int) -> tuple[float, float | None]:
    """(P(T <= horizon), E[T | T <= horizon]) from one first-passage
    pass, T the first-passage time from S_0.  The second is what a
    simulation's ``mean_ttc`` estimates; None when P is 0."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    cdf = _first_passage_cdf(chain, horizon)
    # Summed arrivals can drift a few ulp past the unit interval.
    hit = min(max(cdf[-1], 0.0), 1.0)
    if cdf[-1] <= 0.0:
        return hit, None
    return hit, math.fsum(t * (b - a) for t, (a, b) in enumerate(zip(cdf, cdf[1:]), 1)) / cdf[-1]


def hit_probability_within(chain: MarkovChain, horizon: int) -> float:
    """Probability that a walk from S_0 first reaches the target within
    ``horizon`` steps."""
    return _hit_within(chain, horizon)[0]


# ---------------------------------------------------------------------------
# Monte Carlo simulation
# ---------------------------------------------------------------------------

def _percentile(times: list[int], cumulative: list[int], q: int) -> float:
    """``numpy.percentile(samples, q)`` (linear method) with numpy's own
    float arithmetic, where the ascending samples hold ``times[i]``
    up to rank ``cumulative[i]``."""
    n = cumulative[-1]
    virtual = (n - 1) * (q / 100)
    lo = math.floor(virtual)
    t = virtual - lo
    a = times[bisect_right(cumulative, lo)]
    b = times[bisect_right(cumulative, min(lo + 1, n - 1))]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _hit_time_stats(arrivals: list[int]) -> tuple[float, float, float, float, float]:
    """(mean, standard error of the mean, p50, p90, p99) of the hit
    times, ``arrivals[t]`` of them equal to t; at least one hit.

    Exact integer sums make the mean exactly ``samples.mean()``; the
    standard error is ``std / sqrt(hits)`` with the correctly rounded
    standard deviation, within a few ulp of numpy's.
    """
    times = [t for t, count in enumerate(arrivals) if count]
    counts = [arrivals[t] for t in times]
    hits = sum(counts)
    total = sum(t * c for t, c in zip(times, counts))
    squares = sum(t * t * c for t, c in zip(times, counts))
    cumulative = list(accumulate(counts))
    return (
        total / hits,
        math.sqrt((hits * squares - total * total) / hits**2) / math.sqrt(hits),
        *(_percentile(times, cumulative, q) for q in (50, 90, 99)),
    )


def _draw_probabilities(chain: MarkovChain) -> list[tuple[float, float]]:
    """(forward, back / (1 - forward)) per transient state: the success
    probabilities of ``multinomial(n, (forward, back, stay))``'s two
    binomial calls, for the forward moves and then for the back moves
    out of the rest.  The second is clamped to 1.0 where it rounds past
    it, which draws the same, and is 0.0 at forward = 1, where no walk
    is left to draw it for.

    Raises ``ValueError``, naming the state, for a row ``multinomial``
    refuses, reached by a walk or not: an entry outside [0, 1] or NaN,
    or forward + back > 1 + 1e-12.
    """
    probs = []
    for j, (f, b, s) in enumerate(_moves(chain)):
        if not all(0.0 <= p <= 1.0 for p in (f, b, s)):
            raise ValueError(
                f"move probabilities (forward, back, stay) = ({f!r}, {b!r}, {s!r}) "
                f"out of state {chain.states[j]} must lie in [0, 1]"
            )
        if f + b > 1.0 + 1e-12:
            raise ValueError(
                f"forward + back probability out of state {chain.states[j]} is {f + b!r} > 1"
            )
        probs.append((f, min(b / (1.0 - f), 1.0) if f < 1.0 else 0.0))
    return probs


def simulate(
    chain: MarkovChain,
    trials: int,
    horizon: int,
    seed: int = 0,
    workers: int = 1,
) -> SimulationReport:
    """Run independent first-passage walks from S_0.

    Each step draws the walks that leave S_0 .. S_{m-1}, in that order,
    as ``multinomial(live[j], _moves(chain)[j])`` from one Philox stream
    keyed by ``SeedSequence(seed)``, and moves them with ``_step``.  The
    draws are ``multinomial``'s own scalar binomial calls, made one by
    one and skipped where they draw nothing (no walks or probability
    0): same bits, without its per-call set-up.  A run stops when every
    walk has hit, when no walk can move (each occupied state has forward
    and back probability 0) or at the horizon, so it costs
    O(horizon * m) whatever ``trials``; the hit times come out ascending.

    ``workers`` is accepted for compatibility and has no effect on the
    results or the speed; no thread is started.

    Raises:
        ValueError: trials < 1 or > 2**63 - 1 (the walk counts are
            int64), horizon < 1, negative seed, workers < 1, or a row
            ``multinomial`` refuses (see ``_draw_probabilities``).
        MemoryError: the hit-time samples do not fit in memory.
    """
    if not 1 <= trials < 2**63:
        raise ValueError(f"trials must be in [1, 2**63 - 1], got {trials}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    probs = _draw_probabilities(chain)
    binomial = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).binomial
    live = [trials] + [0] * (len(probs) - 1)
    arrivals = np.zeros(horizon + 1, dtype=np.int64)
    hits = 0
    for step in range(1, horizon + 1):
        moves = []
        for n, (f, q) in zip(live, probs):
            forward = binomial(n, f) if n and f else 0
            rest = n - forward
            back = binomial(rest, q) if rest and q else 0
            moves.append((forward, back, rest - back))
        new, arrived = _step(moves)
        arrivals[step] = arrived
        hits += arrived
        if hits == trials:
            break
        if new == live and not any(n and (f or q) for n, (f, q) in zip(live, probs)):
            break  # every occupied state is absorbing: no later step moves a walk
        live = new

    try:
        samples = np.repeat(np.arange(step + 1), arrivals[: step + 1])
    except (ValueError, MemoryError) as exc:
        raise MemoryError(
            f"Unable to allocate the {hits} hit-time samples of trials={trials}"
        ) from exc
    hit_fraction = hits / trials
    if hits:
        mean_ttc, mean_ttc_se, p50, p90, p99 = _hit_time_stats(arrivals[: step + 1].tolist())
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
