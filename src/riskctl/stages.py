"""Stage attack probabilities, W and the rows of a path's chain.

Per-domain scores become stage attack probabilities a_j (growing with
the stage index under the exponential law); defence gating turns them
into forward probabilities, whose product is W.  The a_j also give the
birth-death chain over the compromise states S_0 .. S_m (Kemeny &
Snell, *Finite Markov Chains*, 1960).  Row S_j is

    back d*(1 - a),  stay a*d + (1 - a)*(1 - d),  forward a*(1 - d)

with a = a_{j+1} (0 in row S_m, which has no forward edge) and d the
defence at stage position j + 1 (0 in row S_0, which has no back edge;
that of position m in row S_m).  Nothing here needs numpy, so only
``simulate`` loads it.
"""

from __future__ import annotations

import math
import warnings

from .config import AnalysisConfig, ProbabilityLaw
from .errors import EmptyPathError
from .model import AttackPath, ScoreSet, ThreatModel, resolve_score


def stage_attack_probability(
    stage_index: int, score: float, config: AnalysisConfig
) -> float:
    """Attack probability for a stage with the given index and domain score.

    Exponential law: ``1 - exp(-k * i * f / normalization)``; linear
    law: ``f / normalization`` independent of the index.  Scores above
    the normalization constant are allowed but warn.  A zero score gives
    0.0 even when ``k * i`` overflows, and an index past the float range
    gives the limit 1.0 for a positive score.  ``config`` needs
    no check here: every ``AnalysisConfig`` was checked when it was
    built, so this never raises ``InvalidConfigError``.

    Raises:
        ValueError: stage_index < 1, or a score that is not a valid
            domain score (see ``ScoreSet.valid_score``).
    """
    if stage_index < 1:
        raise ValueError(f"stage index must be >= 1, got {stage_index}")
    if not ScoreSet.valid_score(score):
        raise ValueError(f"score must be finite and >= 0, got {score}")
    k, norm = config.exponent_coefficient, config.normalization
    if score > norm:
        warnings.warn(
            f"score {score} exceeds normalization constant {norm}", stacklevel=2
        )
    if config.probability_law is ProbabilityLaw.LINEAR:
        return min(score / norm, 1.0)
    if score == 0.0:  # k * i may be inf, and inf * 0 is NaN
        return 0.0
    try:
        return 1.0 - math.exp(-k * stage_index * score / norm)
    except OverflowError:  # stage_index does not convert to a float
        return 1.0


def stage_attack_probabilities(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> list[float]:
    """Raw (ungated) attack probability per stage of a path.

    Each domain is scored once, in stage order, so a score that cannot
    be resolved is reported for the first stage that needs it.

    Raises:
        EmptyPathError: the path has no stages.
    """
    config = config if config is not None else model.config
    if not path.stages:
        raise EmptyPathError(f"path {path.id!r} has no stages")
    domains = dict.fromkeys(stage.view_domain for stage in path.stages)
    scores = {d: resolve_score(model, d, config.score_set, config.rounding) for d in domains}
    return [
        stage_attack_probability(path.first_stage_index + j, scores[stage.view_domain], config)
        for j, stage in enumerate(path.stages)
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
    return _gated(stage_attack_probabilities(path, model, config), config)


def _gated(attack: list[float], config: AnalysisConfig) -> list[float]:
    """The forward probabilities of :func:`stage_forward_probabilities`,
    gated from a path's raw stage attack probabilities."""
    m, final = len(attack), config.defence_on_final_stage
    return [
        a * (1.0 - config.defence_at(j)) if j >= 2 and (j <= m - 1 or final) else a
        for j, a in enumerate(attack, start=1)
    ]


def realization_probability(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> float:
    """No-detour attack realization probability W: the product of the
    forward stage probabilities."""
    return math.prod(stage_forward_probabilities(path, model, config))


def _chain_rows(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> tuple[tuple[str, ...], list[list[float]], list[float]]:
    """(state names, dense rows, raw stage attack probabilities) of the
    path's chain, with the rows of the module docstring."""
    config = config if config is not None else model.config
    a = stage_attack_probabilities(path, model, config)
    m = len(a)
    rows = []
    for j in range(m + 1):
        attack = a[j] if j < m else 0.0
        d = config.defence_at(min(j + 1, m)) if j else 0.0
        edges = [d * (1.0 - attack), attack * d + (1.0 - attack) * (1.0 - d), attack * (1.0 - d)]
        # Padded by one column on each side: S_0's back and S_m's forward.
        rows.append(([0.0] * j + edges + [0.0] * (m - j))[1:-1])
    states = ("S0",) + tuple(f"S{j}:{stage.code}" for j, stage in enumerate(path.stages, 1))
    return states, rows, a


def _forward_entries(rows: list) -> list[float]:
    """The forward entry, column j + 1, of each transient row S_j of ``_chain_rows``."""
    return [row[j + 1] for j, row in enumerate(rows[:-1])]


def _stochastic_violations(states: tuple, rows: list, tol: float = 1e-12) -> list[str]:
    """Rows not summing to 1 within ``tol`` and entries outside [0, 1]
    (NaN among them); empty means valid."""
    violations = []
    for i, row in enumerate(rows):
        if abs(sum(row) - 1.0) > tol:
            violations.append(f"row {i} ({states[i]}) sums to {sum(row)!r}, not 1")
        violations += [f"entry [{i}, {j}] = {v!r} out of [0, 1]"
                       for j, v in enumerate(row) if not 0.0 <= v <= 1.0]
    return violations
