"""Seeded input generators.  riskctl only ever sees what these produce.

Every generator takes a ``random.Random`` so that one workload seed
gives one input sequence.  The documents are valid by construction: all
scores are positive and d <= 0.5, so every forward probability is
positive and no analytic raises.
"""

from __future__ import annotations

import json
import random

SOURCES = ("paper-published", "legacy", "formula")
DOMAINS = ("data", "software", "networking", "hardware")
REFS = ("cloud", "infra_edge", "vehicle")
MIN_STAGES, MAX_STAGES = 2, 64

# Labels per vector parameter.  CI excludes N and TD excludes N so that
# every formula total is positive.
_LABELS = {
    "av": ("L", "R"),
    "ac": ("H", "L"),
    "a": ("R", "N"),
    "ci": ("P", "C"),
    "ii": ("N", "P", "C"),
    "ai": ("N", "P", "C"),
    "ib": ("N", "C", "I", "A"),
    "e": ("U", "PoC", "F", "H"),
    "rl": ("OF", "TF", "W", "U"),
    "rc": ("UCF", "UCB", "C"),
    "cdp": ("N", "L", "M", "H"),
    "td": ("L", "M", "H"),
}


def path_lengths(rng: random.Random, n_paths: int) -> list[int]:
    """One length per equal-width bin of [MIN_STAGES, MAX_STAGES], shuffled.

    Stratifying keeps the per-document (m+1)^2 cost close to its mean, so
    a run's throughput depends on the code, not on which lengths the
    seed happened to draw.
    """
    span = MAX_STAGES - MIN_STAGES + 1
    lengths = []
    for i in range(n_paths):
        lo = MIN_STAGES + (i * span) // n_paths
        hi = MIN_STAGES + ((i + 1) * span) // n_paths - 1
        lengths.append(rng.randint(lo, max(lo, hi)))
    rng.shuffle(lengths)
    return lengths


def threat_model_document(rng: random.Random, n_paths: int, source: str) -> str:
    """A threat-model document with ``n_paths`` random paths scored by ``source``."""
    doc = {
        "score_sets": {
            name: {d: round(rng.uniform(3.0, 25.0), 1) for d in DOMAINS}
            for name in ("paper-published", "legacy")
        },
        "vectors": {
            d: {key: rng.choice(labels) for key, labels in _LABELS.items()}
            for d in DOMAINS
        },
        "defence": {"probability": round(rng.uniform(0.0, 0.5), 3)},
        "config": {"score_set": source},
        "paths": [
            {
                "id": f"g{i}",
                "attacker": rng.choice(("authorized", "unauthorized")),
                "origin": rng.choice(REFS),
                "first_stage_index": rng.randint(1, 3),
                "stages": [
                    {"ref": rng.choice(REFS), "domain": rng.choice(DOMAINS),
                     "desc": f"stage {j}"}
                    for j in range(1, m + 1)
                ],
            }
            for i, m in enumerate(path_lengths(rng, n_paths))
        ],
    }
    return json.dumps(doc)


def balanced_sources(rng: random.Random):
    """Endless score sources: each block of three holds each source once."""
    while True:
        block = list(SOURCES)
        rng.shuffle(block)
        yield from block


def op_seed(rng: random.Random) -> int:
    return rng.getrandbits(32)
