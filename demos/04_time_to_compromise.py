#!/usr/bin/env python3
"""Walkthrough: time-to-compromise analytics and seeded simulation.

Computes expected first-passage steps and hitting probabilities
analytically, then cross-checks them with the Monte Carlo simulator,
including its determinism guarantee across worker counts.
"""

from dataclasses import replace

from riskctl import (
    build_chain,
    builtin_paper_model,
    hit_probability_within,
    mean_time_to_compromise,
    simulate,
    stage_forward_probabilities,
)


def main():
    model = builtin_paper_model()

    print("Analytic expected steps to compromise (S0 -> target)")
    for path in model.paths:
        chain = build_chain(path, model)
        ttc = mean_time_to_compromise(chain)
        print(f"  path {path.id}: {len(path.stages)} stages, mean TTC {ttc:8.3f} steps")
    print()

    print("Hitting probability of path 1 as the horizon grows")
    chain = build_chain(model.path("1"), model)
    for horizon in (2, 5, 10, 20, 50, 100):
        print(f"  within {horizon:3d} steps: {hit_probability_within(chain, horizon):.6f}")
    print()

    print("Monte Carlo cross-check (path 1, 100000 trials, horizon 25, seed 7)")
    report = simulate(chain, trials=100_000, horizon=25, seed=7)
    analytic = hit_probability_within(chain, 25)
    print(f"  simulated hit fraction: {report.hit_fraction:.5f}")
    print(f"  analytic probability:   {analytic:.5f}")
    print(f"  mean TTC of hitting walks: {report.mean_ttc:.3f} steps "
          f"(p50 {report.p50:.0f}, p90 {report.p90:.0f}, p99 {report.p99:.0f})")
    print()

    print("Determinism: the same seed gives identical results (workers has no effect)")
    for workers in (1, 2, 4):
        rerun = simulate(chain, trials=20_000, horizon=25, seed=7, workers=workers)
        print(f"  workers={workers}: hits={rerun.hits}, mean TTC={rerun.mean_ttc:.6f}")
    print()

    print("No-defense closed form: mean TTC equals the sum of 1/p over stages")
    config = replace(model.config, defence_probability=0.0)
    open_chain = build_chain(model.path("1"), model, config)
    closed_form = sum(1 / p for p in stage_forward_probabilities(model.path("1"), model, config))
    print(f"  recurrence:   {mean_time_to_compromise(open_chain):.9f}")
    print(f"  sum of 1/p_j: {closed_form:.9f}")


if __name__ == "__main__":
    main()
