"""Stage attack probabilities and the no-detour realization probability W.

A path's per-domain scores become stage attack probabilities (growing
with the stage index under the exponential law); defence gating turns
them into forward probabilities, whose product is W.  Nothing here
needs numpy, so commands that stop at W load none.
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
    the normalization constant are allowed but warn.  ``config`` needs
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
    return 1.0 - math.exp(-k * stage_index * score / norm)


def stage_attack_probabilities(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> list[float]:
    """Raw (ungated) attack probability per stage of a path.

    Raises:
        EmptyPathError: the path has no stages.
    """
    config = config if config is not None else model.config
    if not path.stages:
        raise EmptyPathError(f"path {path.id!r} has no stages")
    scores = [
        resolve_score(model, stage.view_domain, config.score_set, config.rounding)
        for stage in path.stages
    ]
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
