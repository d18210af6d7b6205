"""Quantitative attack-path security verification.

Scores architectural view domains with a CVSS-style three-component
scheme, converts the totals into stage-indexed attack probabilities,
builds birth-death Markov chains over attack paths, and reports
realization probabilities and time-to-compromise statistics, both
analytically and by seeded Monte Carlo simulation.
"""

from .config import FORMULA_SOURCE, AnalysisConfig, ProbabilityLaw
from .cvss import (
    DEFAULT_WEIGHT_TABLE,
    PARAMETERS,
    CvssVector,
    Rounding,
    ScoreBreakdown,
    WeightTable,
    impact_bias_weights,
    lookup_weight,
    max_total_score,
    round_half_up,
    score_breakdown,
)
from .errors import (
    DocumentError,
    DocumentSyntaxError,
    EmptyPathError,
    IncompleteVectorError,
    InvalidConfigError,
    MissingVectorError,
    NumericalError,
    RiskctlError,
    UnknownLabelError,
    UnknownPathError,
    UnknownScoreSetError,
    UnreachableTargetError,
    ValidationError,
)
from .model import (
    Attacker,
    AttackPath,
    AttackStage,
    ReferenceDomain,
    ScoreSet,
    ThreatModel,
    ViewDomain,
    builtin_paper_model,
    paper_model_document,
    parse_model,
    resolve_score,
    serialize_model,
)
from .report import (
    CheckResult,
    GridCell,
    StageSeriesRow,
    build_results_grid,
    run_verification,
    stage_series,
)
from .stages import (
    realization_probability,
    stage_attack_probabilities,
    stage_attack_probability,
    stage_forward_probabilities,
)

# The chain names need numpy, so they load on first access (PEP 562):
# a process that uses none of them never imports it.
_CHAIN_NAMES = frozenset({
    "MarkovChain", "SimulationReport", "build_chain", "hit_probability_within",
    "mean_time_to_compromise", "simulate", "validate_stochastic",
})


def __getattr__(name):
    if name in _CHAIN_NAMES:
        from . import chain

        return getattr(chain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AttackPath",
    "AttackStage",
    "Attacker",
    "CheckResult",
    "CvssVector",
    "DEFAULT_WEIGHT_TABLE",
    "DocumentError",
    "DocumentSyntaxError",
    "EmptyPathError",
    "FORMULA_SOURCE",
    "GridCell",
    "IncompleteVectorError",
    "InvalidConfigError",
    "MarkovChain",
    "MissingVectorError",
    "NumericalError",
    "PARAMETERS",
    "ProbabilityLaw",
    "ReferenceDomain",
    "RiskctlError",
    "Rounding",
    "ScoreBreakdown",
    "ScoreSet",
    "SimulationReport",
    "StageSeriesRow",
    "ThreatModel",
    "UnknownLabelError",
    "UnknownPathError",
    "UnknownScoreSetError",
    "UnreachableTargetError",
    "ValidationError",
    "ViewDomain",
    "WeightTable",
    "build_chain",
    "build_results_grid",
    "builtin_paper_model",
    "hit_probability_within",
    "impact_bias_weights",
    "lookup_weight",
    "max_total_score",
    "mean_time_to_compromise",
    "paper_model_document",
    "parse_model",
    "realization_probability",
    "resolve_score",
    "round_half_up",
    "run_verification",
    "score_breakdown",
    "serialize_model",
    "simulate",
    "stage_attack_probabilities",
    "stage_attack_probability",
    "stage_forward_probabilities",
    "stage_series",
    "validate_stochastic",
]
