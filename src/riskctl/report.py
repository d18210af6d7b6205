"""Result assembly: attacker/origin grids, stage series, reproduction checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import AnalysisConfig
from .cvss import Rounding, max_total_score, score_breakdown
from .errors import RiskctlError
from .model import Attacker, AttackPath, ReferenceDomain, ThreatModel, ViewDomain
from .stages import (
    _chain_rows,
    _forward_entries,
    _gated,
    realization_probability,
    stage_attack_probabilities,
    stage_forward_probabilities,
)


@dataclass(frozen=True)
class GridCell:
    """One path's realization probability in an attacker/origin cell."""

    path_id: str
    probability: float

    @property
    def percent(self) -> float:
        return 100.0 * self.probability


@dataclass(frozen=True)
class StageSeriesRow:
    """One stage of a path, with ungated and gated probabilities."""

    path_id: str
    stage_pos: int
    stage_index: int
    ref_domain: str
    view_domain: str
    attack_prob: float
    forward_prob: float


ResultsGrid = dict[tuple[Attacker, ReferenceDomain], list[GridCell]]


def build_results_grid(
    model: ThreatModel, config: AnalysisConfig | None = None
) -> ResultsGrid:
    """Realization probabilities keyed by (attacker, origin).

    A path with origin aliases fills every aliased cell with the same
    value; cells with several paths keep them in model order.
    """
    return _grid(model, [realization_probability(path, model, config) for path in model.paths])


def _grid(model: ThreatModel, probabilities: list[float]) -> ResultsGrid:
    """:func:`build_results_grid` from one W per path of ``model``, in model order."""
    grid: ResultsGrid = {}
    for path, probability in zip(model.paths, probabilities):
        for origin in path.origins:
            grid.setdefault((path.attacker, origin), []).append(GridCell(path.id, probability))
    return grid


def stage_series(
    path: AttackPath, model: ThreatModel, config: AnalysisConfig | None = None
) -> list[StageSeriesRow]:
    """Per-stage plot-ready rows for one path."""
    cfg = config if config is not None else model.config
    raw = stage_attack_probabilities(path, model, cfg)
    forward = _gated(raw, cfg)
    return [
        StageSeriesRow(
            path_id=path.id,
            stage_pos=pos,
            stage_index=path.first_stage_index + pos - 1,
            ref_domain=stage.ref_domain.code,
            view_domain=stage.view_domain.code,
            attack_prob=raw[pos - 1],
            forward_prob=forward[pos - 1],
        )
        for pos, stage in enumerate(path.stages, start=1)
    ]


# ---------------------------------------------------------------------------
# Reproduction checks (the `verify` command)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# Reference values the built-in model must reproduce.
_EXPECTED_COLUMNS = {
    ViewDomain.DATA: (6.8, 5.2, 5.7, 17.7),
    ViewDomain.SOFTWARE: (4.8, 3.2, 1.6, 9.6),
    ViewDomain.HARDWARE: (3.4, 2.4, 1.2, 7.0),
    # Networking: base and temporal reproduce exactly; the formula yields
    # environmental 5.9 (total 15.1) while the published set totals 14.5.
    ViewDomain.NETWORKING: (5.1, 4.1, 5.9, 15.1),
}

_EXPECTED_ID1_STAGES = (0.4946, 0.53541, 0.78381, 0.9643)

_EXPECTED_GRID = {
    (Attacker.AUTHORIZED, ReferenceDomain.CLOUD): {"4": 29.47},
    (Attacker.AUTHORIZED, ReferenceDomain.INFRA_EDGE): {"4": 29.47},
    (Attacker.AUTHORIZED, ReferenceDomain.VEHICLE): {"5": 56.52},
    (Attacker.UNAUTHORIZED, ReferenceDomain.CLOUD): {"1": 20.01},
    (Attacker.UNAUTHORIZED, ReferenceDomain.INFRA_EDGE): {"2a": 18.80, "2b": 33.13},
    (Attacker.UNAUTHORIZED, ReferenceDomain.VEHICLE): {"3": 24.30},
}

_EXPECTED_LEGACY_MATRIX = (
    (0.5, 0.5, 0.0, 0.0),
    (0.05, 0.55, 0.40, 0.0),
    (0.0, 0.01, 0.21, 0.78),
    (0.0, 0.0, 0.1, 0.9),
)
_LEGACY_PUBLISHED_PRODUCT = 0.156


def _check_cvss_columns(model: ThreatModel) -> tuple[bool, str]:
    if not model.vectors:
        return False, "model has no vectors to score"
    failures = []
    for domain, expected in _EXPECTED_COLUMNS.items():
        if domain not in model.vectors:
            failures.append(f"{domain.code}: no vector")
            continue
        b = score_breakdown(model.vectors[domain], model.weight_table, Rounding.PAPER)
        actual = (b.base, b.temporal, b.environmental, b.total)
        if any(abs(a - e) > 1e-9 for a, e in zip(actual, expected)):
            failures.append(f"{domain.code}: expected {expected}, got {actual}")
    if failures:
        return False, "; ".join(failures)
    detail = "all four columns reproduced"
    published = model.score_sets.get("paper-published")
    if published is not None:
        # Passing pins the networking formula total to its expected value.
        networking = _EXPECTED_COLUMNS[ViewDomain.NETWORKING][3]
        detail += (
            f"; networking formula total {networking:.1f} diverges from published "
            f"{published.totals[ViewDomain.NETWORKING]} (reported, not reconciled)"
        )
    return True, detail


def _check_stage_probabilities(model: ThreatModel) -> tuple[bool, str]:
    actual = stage_forward_probabilities(model.path("1"), model)
    if len(actual) != len(_EXPECTED_ID1_STAGES):
        return False, f"expected 4 stages, got {len(actual)}"
    diffs = [abs(a - e) for a, e in zip(actual, _EXPECTED_ID1_STAGES)]
    if max(diffs) > 1e-4:
        return False, f"expected {_EXPECTED_ID1_STAGES}, got {tuple(round(a, 5) for a in actual)}"
    return True, f"max deviation {max(diffs):.2e}"


def _check_results_grid(model: ThreatModel) -> tuple[bool, str]:
    grid = build_results_grid(model)
    failures = []
    worst = 0.0
    for key, expected_cell in _EXPECTED_GRID.items():
        cells = {c.path_id: c.percent for c in grid.get(key, [])}
        for path_id, expected in expected_cell.items():
            if path_id not in cells:
                failures.append(f"{key[0].value}/{key[1].value}: path {path_id} missing")
                continue
            diff = abs(cells[path_id] - expected)
            worst = max(worst, diff)
            if diff > 0.05:
                failures.append(
                    f"{key[0].value}/{key[1].value} path {path_id}: "
                    f"expected {expected:.2f}%, got {cells[path_id]:.2f}%"
                )
    if failures:
        return False, "; ".join(failures)
    return True, f"7 cells within 0.05 pp (worst {worst:.3f} pp)"


def _check_legacy_matrix(model: ThreatModel) -> tuple[bool, str]:
    path = replace(model.path("3"), first_stage_index=2)
    config = replace(model.config, exponent_coefficient=1.0, score_set="legacy")
    _, matrix, _ = _chain_rows(path, model, config)
    n = len(matrix)
    if n != len(_EXPECTED_LEGACY_MATRIX):
        return False, f"matrix shape {(n, n)}, expected 4x4"
    diff = max(abs(value - expected) for row, expected_row in zip(matrix, _EXPECTED_LEGACY_MATRIX)
               for value, expected in zip(row, expected_row))
    product = math.prod(_forward_entries(matrix))
    return diff <= 0.01, (
        f"max entry deviation {diff:.4f}; no-detour product {product:.4f} "
        f"(published rounded-entry value {_LEGACY_PUBLISHED_PRODUCT})"
    )


def _check_normalization(model: ThreatModel) -> tuple[bool, str]:
    actual = max_total_score(model.weight_table)
    if actual == 42.5:
        return True, "max total score = 42.5"
    return False, f"max total score = {actual!r}, expected 42.5"


_CHECKS = (
    ("cvss-columns", _check_cvss_columns),
    ("stage-probabilities-id1", _check_stage_probabilities),
    ("results-grid", _check_results_grid),
    ("legacy-matrix", _check_legacy_matrix),
    ("normalization-constant", _check_normalization),
)


def run_verification(model: ThreatModel) -> list[CheckResult]:
    """Run every built-in reproduction check against a model; a check
    that raises a :class:`RiskctlError` fails with its message."""
    results = []
    for name, check in _CHECKS:
        try:
            passed, detail = check(model)
        except RiskctlError as exc:
            passed, detail = False, str(exc)
        results.append(CheckResult(name, passed, detail))
    return results
