"""CVSS-style vulnerability scoring for view-model domains.

Implements the v1-era three-component scheme: a base score built from
access and impact weights, a temporal score that discounts it by exploit
maturity, and an environmental score that projects the result onto the
deployment context.  Scores are produced per architectural view domain
(data, software, networking, hardware) and summed into a single total
that downstream modules normalize into attack probabilities.

    base          = 10 * AV * AC * A * (CI*CIB + II*IIB + AI*AIB)
    temporal      = base * E * RL * RC
    environmental = (temporal + (10 - temporal) * CDP) * TD

The three bias weights (CIB, IIB, AIB) are not labeled directly; they
derive from the impact-bias selector IB.  All weights live in a
:class:`WeightTable`; the defaults are embedded, and a custom table may
be supplied wherever a table argument is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping

from .errors import NotFoundError

# Parameter short codes, in canonical order: base metrics (with the
# impact-bias selector IB), temporal metrics, environmental metrics.
PARAMETERS: tuple[str, ...] = (
    "AV", "AC", "A", "CI", "II", "AI", "IB", "E", "RL", "RC", "CDP", "TD",
)

# Default label -> weight tables.  IB is handled separately: it selects a
# (CIB, IIB, AIB) triple instead of a single weight.
_DEFAULT_WEIGHTS: dict[str, dict[str, float]] = {
    "AV": {"L": 0.7, "R": 1.0},
    "AC": {"H": 0.8, "L": 1.0},
    "A": {"R": 0.6, "N": 1.0},
    "CI": {"N": 0.0, "P": 0.7, "C": 1.0},
    "II": {"N": 0.0, "P": 0.7, "C": 1.0},
    "AI": {"N": 0.0, "P": 0.7, "C": 1.0},
    "E": {"U": 0.85, "PoC": 0.9, "F": 0.95, "H": 1.0},
    "RL": {"OF": 0.87, "TF": 0.9, "W": 0.95, "U": 1.0},
    "RC": {"UCF": 0.9, "UCB": 0.95, "C": 1.0},
    "CDP": {"N": 0.0, "L": 0.1, "M": 0.3, "H": 0.5},
    "TD": {"N": 0.0, "L": 0.25, "M": 0.75, "H": 1.0},
}

# Impact-bias triples.  The N triple sums to 0.999, kept verbatim rather
# than normalized to 1.
_DEFAULT_IMPACT_BIAS: dict[str, tuple[float, float, float]] = {
    "N": (0.333, 0.333, 0.333),
    "C": (0.5, 0.25, 0.25),
    "I": (0.25, 0.5, 0.25),
    "A": (0.25, 0.25, 0.5),
}


class Rounding(Enum):
    """Rounding mode for a :class:`ScoreBreakdown`.

    PAPER rounds each component half-up to one decimal before summing
    into the total; RAW keeps full precision throughout.
    """

    PAPER = "paper"
    RAW = "raw"


def round_half_up(value: float, decimals: int = 1) -> float:
    """Round ``value`` half-up to ``decimals`` places (2.35 -> 2.4)."""
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class WeightTable:
    """Label -> weight mappings for every scoring parameter.

    ``weights`` maps each scalar parameter (everything except IB) to its
    label table; ``impact_bias`` maps IB labels to (CIB, IIB, AIB)
    triples.  All weights must lie in [0, 1].
    """

    weights: Mapping[str, Mapping[str, float]]
    impact_bias: Mapping[str, tuple[float, float, float]]

    def __post_init__(self):
        for parameter, labels in self.weights.items():
            for label, weight in labels.items():
                if not 0.0 <= weight <= 1.0:
                    raise ValueError(
                        f"weight {parameter}/{label} = {weight} outside [0, 1]"
                    )
        for label, triple in self.impact_bias.items():
            if len(triple) != 3 or any(not 0.0 <= w <= 1.0 for w in triple):
                raise ValueError(f"impact bias {label} = {triple} outside [0, 1]")


DEFAULT_WEIGHT_TABLE = WeightTable(
    weights=MappingProxyType({k: MappingProxyType(dict(v)) for k, v in _DEFAULT_WEIGHTS.items()}),
    impact_bias=MappingProxyType(dict(_DEFAULT_IMPACT_BIAS)),
)


@dataclass(frozen=True)
class CvssVector:
    """One label per parameter; the unit scored by this module.

    The three bias weights are not stored: they derive from ``ib``.
    """

    av: str
    ac: str
    a: str
    ci: str
    ii: str
    ai: str
    ib: str
    e: str
    rl: str
    rc: str
    cdp: str
    td: str

    def label(self, parameter: str) -> str:
        return getattr(self, parameter.lower())

    def to_dict(self) -> dict[str, str]:
        return {p.lower(): self.label(p) for p in PARAMETERS}


@dataclass(frozen=True)
class ScoreBreakdown:
    """Base, temporal, environmental, and total score for one vector."""

    base: float
    temporal: float
    environmental: float
    total: float


# ---------------------------------------------------------------------------
# Weight lookup
# ---------------------------------------------------------------------------

def lookup_weight(
    parameter: str, label: str, table: WeightTable = DEFAULT_WEIGHT_TABLE
) -> float:
    """Return the weight for ``(parameter, label)``.

    Raises:
        NotFoundError: if the parameter has no such label, or the
            parameter itself is not in the table.  IB is rejected here;
            use :func:`impact_bias_weights` for the bias triples.
    """
    if parameter == "IB":
        raise NotFoundError(
            "IB selects a bias triple, not a scalar weight; use impact_bias_weights"
        )
    labels = table.weights.get(parameter)
    if labels is None:
        raise NotFoundError(f"unknown parameter {parameter!r}")
    try:
        return labels[label]
    except KeyError:
        raise NotFoundError(
            f"label {label!r} is not defined for parameter {parameter}"
        ) from None


def impact_bias_weights(
    bias: str, table: WeightTable = DEFAULT_WEIGHT_TABLE
) -> tuple[float, float, float]:
    """Return the (CIB, IIB, AIB) triple selected by the IB label."""
    try:
        return table.impact_bias[bias]
    except KeyError:
        raise NotFoundError(f"label {bias!r} is not defined for parameter IB") from None


def _require_complete(vector: CvssVector) -> None:
    missing = [p for p in PARAMETERS if not vector.label(p)]
    if missing:
        raise NotFoundError(f"vector missing parameters: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Score components
# ---------------------------------------------------------------------------

def _components(w: Mapping[str, Any]) -> tuple[float, float, float]:
    """Unrounded (base, temporal, environmental) from one weight per
    parameter, ``w["IB"]`` being the (CIB, IIB, AIB) triple."""
    cib, iib, aib = w["IB"]
    base = 10.0 * w["AV"] * w["AC"] * w["A"] * (w["CI"] * cib + w["II"] * iib + w["AI"] * aib)
    temporal = base * w["E"] * w["RL"] * w["RC"]
    return base, temporal, (temporal + (10.0 - temporal) * w["CDP"]) * w["TD"]


def score_breakdown(
    vector: CvssVector,
    table: WeightTable = DEFAULT_WEIGHT_TABLE,
    rounding: Rounding = Rounding.PAPER,
) -> ScoreBreakdown:
    """Compute all three components and their total.

    The components are always chained at full precision (temporal from
    the unrounded base, environmental from the unrounded temporal).
    Under ``Rounding.PAPER`` each component is then rounded half-up to
    one decimal and the total is the sum of the rounded components;
    under ``Rounding.RAW`` the total is the exact sum.  Labels are
    looked up in ``PARAMETERS`` order, so a ``NotFoundError`` names
    the first one the table lacks.
    """
    _require_complete(vector)
    b, t, e = _components({
        p: impact_bias_weights(vector.ib, table) if p == "IB"
        else lookup_weight(p, vector.label(p), table)
        for p in PARAMETERS
    })
    if rounding is Rounding.PAPER:
        b, t, e = round_half_up(b), round_half_up(t), round_half_up(e)
    return ScoreBreakdown(base=b, temporal=t, environmental=e, total=b + t + e)


def max_total_score(table: WeightTable = DEFAULT_WEIGHT_TABLE) -> float:
    """Normalization constant: the total with every parameter maximized.

    Each parameter is maximized independently, including each bias
    component at its own per-parameter maximum across bias settings (0.5
    in the default table, even though no single IB setting yields all
    three at once).  For the default table this gives base 15, temporal
    15, environmental 12.5, total 42.5.
    """
    maxima: dict[str, Any] = {p: max(labels.values()) for p, labels in table.weights.items()}
    maxima["IB"] = tuple(map(max, zip(*table.impact_bias.values())))
    b, t, e = _components(maxima)
    return b + t + e
