#!/usr/bin/env python3
"""Walkthrough: CVSS-style scoring of the four view domains.

Shows how labeled parameter vectors turn into base, temporal, and
environmental scores, how the two rounding modes differ, and where the
formula totals diverge from the published score set.
"""

from riskctl import (
    Rounding,
    ViewDomain,
    builtin_paper_model,
    max_total_score,
    score_breakdown,
)
from riskctl.cvss import impact_bias_weights, lookup_weight


def main():
    model = builtin_paper_model()

    print("Single weight lookups")
    print(f"  access vector 'R' (remote)        -> {lookup_weight('AV', 'R')}")
    print(f"  access complexity 'H' (high)      -> {lookup_weight('AC', 'H')}")
    print(f"  exploitability 'PoC'              -> {lookup_weight('E', 'PoC')}")
    print(f"  impact bias 'I' -> (CIB, IIB, AIB) = {impact_bias_weights('I')}")
    print()

    print("Score breakdown per view domain (component-rounded mode)")
    header = f"  {'domain':12s} {'base':>6s} {'temporal':>9s} {'environmental':>14s} {'total':>6s}"
    print(header)
    for domain in ViewDomain:
        b = score_breakdown(model.vectors[domain], model.weight_table, Rounding.PAPER)
        print(f"  {domain.code:12s} {b.base:6.1f} {b.temporal:9.1f} "
              f"{b.environmental:14.1f} {b.total:6.1f}")
    print()

    print("Raw (unrounded) networking scores, and the published divergence")
    raw = score_breakdown(model.vectors[ViewDomain.NETWORKING], model.weight_table,
                          Rounding.RAW)
    published = model.score_sets["paper-published"].totals[ViewDomain.NETWORKING]
    print(f"  formula environmental = {raw.environmental:.4f} (rounds to 5.9)")
    print(f"  formula total         = {raw.total:.4f}")
    print(f"  published total       = {published}  <- kept as the named score set")
    print("  The engine never reconciles the two: formula output is computed,")
    print("  published totals stay available under --score-set paper-published.")
    print()

    print("Normalization constant (every parameter independently maximized)")
    print(f"  max total score = {max_total_score()}  (base 15 + temporal 15 + env 12.5)")


if __name__ == "__main__":
    main()
