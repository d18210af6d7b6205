"""Analysis configuration shared by the threat model and the chain engine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .cvss import Rounding
from .errors import InvalidConfigError, _check_types

# Source name that means "compute totals from the model's vectors".
FORMULA_SOURCE = "formula"

_NUMBER = (float, int)


class ProbabilityLaw(Enum):
    """How a domain score maps to a stage attack probability.

    EXPONENTIAL: a_i = 1 - exp(-k * i * f / normalization), growing with
    the stage index i.  LINEAR: a = f / normalization, independent of i.
    """

    EXPONENTIAL = "exponential"
    LINEAR = "linear"


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs controlling probability derivation and chain construction.

    ``defence_probability`` is normally a single constant d; a tuple is
    accepted as a per-stage-position extension (position 1 is the first
    stage of a path).  ``defence_on_final_stage`` controls whether the
    last stage of a path is gated by (1 - d) in the no-detour forward
    probabilities; the transition matrix itself always gates
    intermediate forward edges.
    """

    defence_probability: float | tuple[float, ...] = 0.1
    exponent_coefficient: float = 2.0
    normalization: float = 42.5
    probability_law: ProbabilityLaw = ProbabilityLaw.EXPONENTIAL
    defence_on_final_stage: bool = False
    score_set: str = "paper-published"
    rounding: Rounding = Rounding.PAPER

    def __post_init__(self):
        _check_types(vars(self), exponent_coefficient=_NUMBER, normalization=_NUMBER,
                     probability_law=ProbabilityLaw, defence_on_final_stage=bool,
                     score_set=str, rounding=Rounding)
        d = self.defence_probability
        values = d if isinstance(d, tuple) else (d,)
        if not values:
            raise InvalidConfigError(
                "defence probability tuple must be non-empty", "defence_probability"
            )
        for value in values:  # d, or each entry of a tuple
            _check_types({"defence_probability": value}, defence_probability=_NUMBER)
            if not 0.0 <= value <= 1.0:
                raise InvalidConfigError(
                    f"defence probability {value} outside [0, 1]", "defence_probability"
                )
        for name in ("exponent_coefficient", "normalization"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise InvalidConfigError(
                    f"{name.replace('_', ' ')} must be positive and finite, got {value}", name
                )

    def defence_at(self, stage_position: int) -> float:
        """Defense probability applied at a 1-based stage position."""
        d = self.defence_probability
        if isinstance(d, tuple):
            if stage_position > len(d):
                raise InvalidConfigError(
                    f"per-stage defence tuple of length {len(d)} has no entry "
                    f"for stage position {stage_position}"
                )
            return d[stage_position - 1]
        return d
