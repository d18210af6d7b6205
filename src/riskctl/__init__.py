"""Quantitative attack-path security verification.

Scores architectural view domains with a CVSS-style three-component
scheme, converts the totals into stage-indexed attack probabilities,
builds birth-death Markov chains over attack paths, and reports
realization probabilities and time-to-compromise statistics, both
analytically and by seeded Monte Carlo simulation.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the module it lives in: the one list of them.
_HOMES = {
    "config": ("FORMULA_SOURCE", "AnalysisConfig", "ProbabilityLaw"),
    "cvss": ("DEFAULT_WEIGHT_TABLE", "PARAMETERS", "CvssVector", "Rounding", "WeightTable",
             "max_total_score", "score_breakdown"),
    "errors": ("DocumentError", "DocumentSyntaxError", "InvalidConfigError", "NotFoundError",
               "NumericalError", "RiskctlError", "UnreachableTargetError", "ValidationError"),
    "model": ("Attacker", "AttackPath", "AttackStage", "ReferenceDomain", "ScoreSet",
              "ThreatModel", "ViewDomain", "builtin_paper_model", "paper_model_document",
              "parse_model", "resolve_score", "serialize_model"),
    "report": ("build_results_grid", "run_verification", "stage_series"),
    "stages": ("realization_probability", "stage_attack_probabilities",
               "stage_attack_probability", "stage_forward_probabilities"),
    "chain": ("MarkovChain", "build_chain", "hit_probability_within",
              "mean_time_to_compromise", "simulate", "validate_stochastic"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME_OF)


def __getattr__(name):
    # A name's module loads on its first use (PEP 562), so ``import
    # riskctl`` loads none, and only the chain's names load numpy.
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
