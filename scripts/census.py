#!/usr/bin/env python3
"""Census of reach: how many certified intervals close on a seeded sample.

Usage: python scripts/census.py [--seed S] [--count N]

The sample is random_flag(n, p, s) for s = S, S + 1, ..., and within each
s for n in 7..10 and p in 0.3, 0.4, 0.5, cut after N complexes; the
defaults (S = 0, N = 144) give s < 12.  Each complex is analyzed with the
default options.  The script prints, per quantity (vkdim, embdim and
actdim), how many complexes have it determined (lo = hi) and how many do
not; the undetermined complexes by (dim L, vkdim gap hi - lo); per end of
each quantity, the rule of the certified record that gives its value (the
last such record, "-" when none gives it); and the counts of
`conjecture_status`.
"""

import argparse
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from raagdim.bounds import analyze  # noqa: E402
from raagdim.zoo import random_flag  # noqa: E402

QUANTITIES = ("vkdim", "embdim", "actdim")
SIZES = range(7, 11)
DENSITIES = (0.3, 0.4, 0.5)
STATUSES = ("verified", "vacuous", "open-here")


def sample(seed: int, count: int):
    """The first `count` complexes of the sample from `seed` on."""
    s, made = seed, 0
    while True:
        for n in SIZES:
            for p in DENSITIES:
                if made == count:
                    return
                yield random_flag(n, p, s)
                made += 1
        s += 1


def closing_rule(report, quantity: str, kind: str, value: int) -> str:
    """The rule of the last certified record that gives this end its value."""
    rules = [r.rule for r in report.records
             if r.in_interval and (r.quantity, r.kind, r.value) == (quantity, kind, value)]
    return rules[-1] if rules else "-"


def census(seed: int, count: int) -> list:
    """The census lines of the sample."""
    closed, gaps, ends, conjecture = Counter(), Counter(), {}, Counter()
    total = determined = 0
    for L in sample(seed, count):
        report = analyze(L)
        total += 1
        determined += report.determined
        if not report.determined:
            gaps[L.dim, report.vkdim[1] - report.vkdim[0]] += 1
        for quantity in QUANTITIES:
            span = getattr(report, quantity)
            if span is None:
                continue
            closed[quantity] += span[0] == span[1]
            for kind, value in zip(("lower", "upper"), span):
                ends.setdefault((quantity, kind), Counter())[closing_rule(report, quantity, kind, value)] += 1
        conjecture[report.conjecture_status] += 1
    lines = [f"census: seed {seed}, {total} complexes", f"determined: {determined} of {total}"]
    lines += [f"{q}: {closed[q]} determined, {total - closed[q]} undetermined" for q in QUANTITIES]
    lines.append("undetermined by (dim, vkdim gap):")
    lines += [f"  ({dim}, {gap}): {n}" for (dim, gap), n in sorted(gaps.items())]
    lines.append("rule at each end:")
    for (quantity, kind), rules in ends.items():
        lines.append(f"  {quantity} {kind}: " + ", ".join(f"{rule} {n}" for rule, n in sorted(rules.items())))
    lines.append("conjecture_status: " + ", ".join(f"{status} {conjecture[status]}" for status in STATUSES))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0, help="first random_flag seed")
    parser.add_argument("--count", type=int, default=144, help="number of complexes")
    args = parser.parse_args()
    print("\n".join(census(args.seed, args.count)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
