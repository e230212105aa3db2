#!/usr/bin/env python3
"""Run the recognizer-vs-exhaustive-scan equivalence sweep.

Checks every labeled biconnected graph up to --exhaustive-n vertices and
--samples seeded random biconnected graphs for each size in --sizes, then
prints a summary table.  Exits nonzero on any disagreement.
"""

import argparse
import sys
import time

from outerfan.sweep import (
    audit_accepted,
    edge_count_violations,
    run_exhaustive_sweep,
    run_random_sweep,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exhaustive-n", type=int, default=6)
    parser.add_argument("--sizes", default="7,8", help="comma-separated sizes")
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--skip-embeddings",
        action="store_true",
        help="compare verdicts only, not embedding sets",
    )
    args = parser.parse_args()

    t0 = time.time()
    exhaustive = run_exhaustive_sweep(
        max_n=args.exhaustive_n,
        compare_embeddings=not args.skip_embeddings,
    )
    sizes = tuple(int(x) for x in args.sizes.split(",") if x)
    randomized = run_random_sweep(
        sizes=sizes,
        samples_per_size=args.samples,
        seed=args.seed,
        compare_embeddings=not args.skip_embeddings,
    )
    elapsed = time.time() - t0

    records = exhaustive.accepted + randomized.accepted
    rows = [
        ("graphs checked", exhaustive.graphs_checked + randomized.graphs_checked),
        ("accepted (maximal)", len(records)),
        ("verdict disagreements", len(exhaustive.disagreements) + len(randomized.disagreements)),
        ("embedding mismatches", len(exhaustive.embedding_mismatches) + len(randomized.embedding_mismatches)),
        ("spqr failures", len(exhaustive.spqr_failures) + len(randomized.spqr_failures)),
        ("density violations", len(exhaustive.density_violations) + len(randomized.density_violations)),
        ("edge-count violations", len(edge_count_violations(records))),
        ("structural audit violations", len(audit_accepted(records))),
        ("max live drawings", max((r.max_live_drawings for r in records), default=0)),
        ("elapsed seconds", round(elapsed, 1)),
    ]
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")

    problems = (
        exhaustive.disagreements
        + randomized.disagreements
        + exhaustive.embedding_mismatches
        + randomized.embedding_mismatches
    )
    for p in problems[:5]:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
