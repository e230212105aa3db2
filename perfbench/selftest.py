#!/usr/bin/env python3
"""Self-test of the benchmark's generators against the exhaustive oracle.

    python3 perfbench/selftest.py

Grown graphs (inverse peel) at 6 <= n <= 9 must be maximal
outer-fan-planar, and cycle-plus-chords graphs at 6 <= n <= 9 must not be,
per ``oracle.is_maximal_outer_fan_planar``.  Below n = 6 a grown graph is
K4 or K5 minus an edge, and K5 minus an edge is not maximal, so the grown
family starts at 6.  Also checks the generators' own invariants: edge
counts, biconnectivity of the small random graphs, and the planted
3-Partition solution.  Exits 0 when every check holds.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen  # noqa: E402
from outerfan.graph import build_graph, is_biconnected, is_triconnected  # noqa: E402
from outerfan.oracle import is_maximal_outer_fan_planar  # noqa: E402

SIZES = range(6, 10)
PER_SIZE = 6


def main() -> int:
    failures = []
    for n in SIZES:
        for k in range(PER_SIZE):
            rng = random.Random(f"selftest:{n}:{k}")
            grown = gen.grown_graph(n, rng)
            g = build_graph(*grown)
            if not (g.m == 3 * n - 6 and is_triconnected(g) and is_maximal_outer_fan_planar(g)):
                failures.append(("grown", grown))
            chords = gen.chords_graph(n, rng)
            g = build_graph(*chords)
            if g.m != n + n // 2 or not is_biconnected(g) or is_maximal_outer_fan_planar(g):
                failures.append(("chords", chords))
            small = gen.small_biconnected(n, rng)
            if not is_biconnected(build_graph(*small)):
                failures.append(("small", small))
    for m, target in ((3, 24), (8, 24), (5, 30)):
        values, triples = gen.three_partition(m, target, random.Random(f"selftest:3p:{m}"))
        covered = sorted(i for t in triples for i in t) == list(range(3 * m))
        sums = all(sum(values[i] for i in t) == target for t in triples)
        ranged = all(target / 4 < a < target / 2 for a in values)
        if not (covered and sums and ranged):
            failures.append(("3-partition", (m, target, values, triples)))
    checked = len(SIZES) * PER_SIZE
    print(f"grown, chords and small graphs: {checked} each at n = 6..9; "
          f"{len(failures)} failures")
    for kind, item in failures:
        print(f"FAIL {kind}: {item}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
