#!/usr/bin/env python3
"""Walkthrough: from attack paths to stage and realization probabilities.

Every stage of a path maps to a view domain; the domain's total score,
normalized by the maximum attainable total, drives an exponential
probability law that grows with the stage index.  Intermediate stages
are gated by the defense probability; the product over the stages is
the no-detour realization probability reported in the results grid.
"""

from riskctl import (
    build_results_grid,
    builtin_paper_model,
    realization_probability,
    stage_attack_probabilities,
    stage_forward_probabilities,
)


def main():
    model = builtin_paper_model()
    d = model.config.defence_probability
    print(f"Built-in model: {len(model.paths)} paths, defence probability d = {d}\n")

    for path in model.paths:
        raw = stage_attack_probabilities(path, model)
        forward = stage_forward_probabilities(path, model)
        w = realization_probability(path, model)
        stages = " -> ".join(s.code for s in path.stages)
        print(f"path {path.id} ({path.attacker.value}, origin {path.origin.display})")
        print(f"  stages: {stages}")
        for pos, (stage, a, f) in enumerate(zip(path.stages, raw, forward), start=1):
            gate = "" if a == f else f"   gated by (1-d) -> {f:.4f}"
            print(f"  stage {pos} [{stage.code:7s}] attack probability {a:.4f}{gate}")
        print(f"  realization probability W = {w:.4f} ({100 * w:.2f}%)\n")

    print("Attacker x origin grid (percent):")
    grid = build_results_grid(model)
    for (attacker, origin), cells in sorted(
        grid.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        rendered = " / ".join(f"{c.percent:.2f} (id {c.path_id})" for c in cells)
        print(f"  {attacker.value:13s} {origin.display:13s} {rendered}")


if __name__ == "__main__":
    main()
