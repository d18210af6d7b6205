"""Correctness checks.  Each returns a list of failures; empty means pass.

The checks are plain functions of values so that ``self_check`` can feed
each one a corrupted value and confirm it reports a failure.  None of
them runs inside a timed interval.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

Z_LIMIT = 5.0
TTC_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

def mc_agreement(report, analytic_hit: float, analytic_ttc: float) -> list[str]:
    """Hit fraction and mean TTC within Z_LIMIT standard errors of the analytics.

    Standard errors are floored at 1/trials, so a hit fraction of exactly
    1 against an analytic 1 - 1e-16 is not a failure.
    """
    floor = 1.0 / report.trials
    p = report.hit_fraction
    se_hit = max(math.sqrt(p * (1.0 - p) / report.trials), floor)
    failures = []
    if abs(p - analytic_hit) > Z_LIMIT * se_hit:
        failures.append(f"hit fraction {p!r} vs analytic {analytic_hit!r} (se {se_hit:.3g})")
    if report.hits == 0:
        failures.append("no walk reached the target")
        return failures
    se_ttc = max(float(np.std(report.ttc_samples)) / math.sqrt(report.hits), floor)
    if abs(report.mean_ttc - analytic_ttc) > Z_LIMIT * se_ttc:
        failures.append(
            f"mean TTC {report.mean_ttc!r} vs analytic {analytic_ttc!r} (se {se_ttc:.3g})"
        )
    return failures


def mc_identical(a, b) -> list[str]:
    """Two reports of the same seed are bit-identical."""
    if a.to_dict() != b.to_dict() or not np.array_equal(a.ttc_samples, b.ttc_samples):
        return [f"workers=2 and workers=1 differ: {a.to_dict()} vs {b.to_dict()}"]
    return []


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def birth_death_ttc(matrix: np.ndarray) -> float:
    """Mean first-passage time S_0 -> S_m by the O(m) recurrence.

    E_j = (1 + b_j * E_{j-1}) / f_j is the expected time to step from
    S_j to S_{j+1}; the TTC is the sum of the E_j.
    """
    m = matrix.shape[0] - 1
    e = total = 0.0
    for j in range(m):
        back = matrix[j, j - 1] if j else 0.0
        e = (1.0 + back * e) / matrix[j, j + 1]
        total += e
    return total


def sweep_point(violations: list[str], w: float, hit: float, ttc: float,
                reference_ttc: float) -> list[str]:
    failures = [f"not stochastic: {v}" for v in violations[:3]]
    if not 0.0 <= w <= 1.0:
        failures.append(f"W = {w!r} outside [0, 1]")
    if not 0.0 <= hit <= 1.0:
        failures.append(f"hit = {hit!r} outside [0, 1]")
    if not abs(ttc - reference_ttc) <= TTC_REL_TOL * abs(reference_ttc):
        failures.append(f"mean TTC {ttc!r} vs recurrence {reference_ttc!r}")
    return failures


def non_increasing(ws: list[float]) -> list[str]:
    """W over an ascending d grid never increases."""
    return [
        f"W rises from {a!r} to {b!r} at grid point {i + 1}"
        for i, (a, b) in enumerate(zip(ws, ws[1:]))
        if b > a
    ]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def exit_code(code: int, stderr: str) -> list[str]:
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {code}: {tail[0]}"]
    return []


def same_values(actual: Any, expected: Any, where: str = "$") -> list[str]:
    """Exact equality of nested JSON values; floats compare bit for bit."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(same_values(actual[key], value, f"{where}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {len(expected)} items, got {actual!r:.80}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(same_values(a, e, f"{where}[{i}]"))
        return out
    if type(actual) is not type(expected) and not (
        isinstance(actual, (int, float)) and isinstance(expected, (int, float))
        and not isinstance(actual, bool) and not isinstance(expected, bool)
    ):
        return [f"{where}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]


# ---------------------------------------------------------------------------
# self-check: every check must catch a corrupted value
# ---------------------------------------------------------------------------

def self_check() -> tuple[int, list[str]]:
    """Feed every check a good and a corrupted value.

    Returns the number of checks and the names of those that failed the
    good value or passed the corrupted one.
    """
    import json
    from dataclasses import replace

    from workloads import cli_expected
    from riskctl import (
        builtin_paper_model,
        build_chain,
        hit_probability_within,
        mean_time_to_compromise,
        simulate,
        validate_stochastic,
    )

    model = builtin_paper_model()
    chain = build_chain(model.paths[0], model)
    hit = hit_probability_within(chain, 200)
    ttc = mean_time_to_compromise(chain)
    good = simulate(chain, trials=20_000, horizon=200, seed=1, workers=2)
    same = simulate(chain, trials=20_000, horizon=200, seed=1, workers=1)
    reference = birth_death_ttc(chain.matrix)
    broken = replace(chain, matrix=chain.matrix.copy())
    broken.matrix[1, 1] += 0.25
    flipped = replace(same, ttc_samples=same.ttc_samples.copy())
    flipped.ttc_samples[0] += 1
    clean = dict(violations=[], w=0.2, hit=hit, ttc=ttc, reference_ttc=reference)
    payload = cli_expected("matrix", model, "1", None)
    printed = json.loads(json.dumps(payload))
    printed["matrix"][1][2] = float(np.nextafter(printed["matrix"][1][2], 1.0))

    cases = {
        # name: (failures on good input, failures on corrupted input)
        "mc.hit_fraction": (
            mc_agreement(good, hit, ttc),
            mc_agreement(replace(good, hit_fraction=good.hit_fraction - 0.01), hit, ttc),
        ),
        "mc.mean_ttc": (
            [], mc_agreement(replace(good, mean_ttc=good.mean_ttc * 1.05), hit, ttc),
        ),
        "mc.workers_identical": (mc_identical(good, same), mc_identical(good, flipped)),
        "sweep.stochastic": (
            sweep_point(**clean),
            sweep_point(**{**clean, "violations": validate_stochastic(broken)}),
        ),
        "sweep.w_range": ([], sweep_point(**{**clean, "w": 1.0 + 1e-12})),
        "sweep.hit_range": ([], sweep_point(**{**clean, "hit": -1e-12})),
        "sweep.ttc_recurrence": (
            [], sweep_point(**{**clean, "ttc": ttc * (1 + 1e-8)}),
        ),
        "sweep.w_monotone": (
            non_increasing([0.3, 0.2, 0.2]), non_increasing([0.3, 0.2, 0.2 + 1e-15]),
        ),
        "cli.exit_code": (exit_code(0, ""), exit_code(1, "TypeError: x")),
        "cli.values": (
            same_values(json.loads(json.dumps(payload)), payload),
            same_values(printed, payload),
        ),
    }
    return len(cases), [name for name, (ok, bad) in cases.items() if ok or not bad]
