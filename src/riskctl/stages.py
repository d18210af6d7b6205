"""Stage attack probabilities, W and the rows of a path's chain.

Per-domain scores become stage attack probabilities a_j (growing with
the stage index under the exponential law); defence gating turns them
into forward probabilities, whose product is W.  One derivation per
run, ``_derivation``, scores each domain once and gates the stages;
every entry point below composes over it.  The a_j also give the
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
from .errors import _check_types
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
    built.

    Raises:
        ValueError: a stage_index that is not an int or is < 1, or a
            score that is not a valid domain score (see
            ``ScoreSet.valid_score``).
    """
    _check_types({"stage_index": stage_index}, stage_index=int)
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


def _derivation(model: ThreatModel, config: AnalysisConfig | None = None):
    """``derive(path) -> (attack, forward)``, the two functions below, for
    one run.  Each domain is scored the first time a path of the run needs
    it, a path's domains in stage order before any probability, so a score
    that cannot be resolved is reported for the first stage that needs it."""
    config = config if config is not None else model.config
    scores: dict = {}

    def derive(path: AttackPath) -> tuple[list[float], list[float]]:
        for domain in (stage.view_domain for stage in path.stages):
            if domain not in scores:
                scores[domain] = resolve_score(model, domain, config.score_set, config.rounding)
        i, m, final = path.first_stage_index, len(path.stages), config.defence_on_final_stage
        attack = [stage_attack_probability(i + j, scores[stage.view_domain], config)
                  for j, stage in enumerate(path.stages)]
        return attack, [a * (1.0 - config.defence_at(j)) if j >= 2 and (j <= m - 1 or final)
                        else a for j, a in enumerate(attack, start=1)]

    return derive


def stage_attack_probabilities(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> list[float]:
    """Raw (ungated) attack probability per stage of a path."""
    return _derivation(model, config)(path)[0]


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
    return _derivation(model, config)(path)[1]


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
