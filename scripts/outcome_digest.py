#!/usr/bin/env python3
"""Print one SHA-256 over the recognizer's and the SPQR builder's outputs on a
fixed, seeded corpus of biconnected graphs.

Two checkouts that print the same digest give byte-identical results on
every graph of the corpus for four outputs: ``recognize(g).to_json_dict()``,
``tree_to_json(build_spqr(g))``, ``is_triconnected(g)`` and
``separation_pairs(g)``.  Use it to show that a refactor changes no verdict,
embedding, trace or tree:

    PYTHONPATH=src python scripts/outcome_digest.py

The corpus, drawn in this order with one ``random.Random(20261018)``: every
labeled biconnected graph with n = 3..5, then 150 ``small_biconnected`` per
n = 4..9, 5 ``chords_graph`` per n = 8..50 and 20 ``grown_graph`` per
n = 6..24 from ``perfbench/gen.py`` (which does not import ``outerfan``, so
the inputs do not depend on the code under test).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from outerfan.graph import build_graph, is_triconnected, separation_pairs  # noqa: E402
from outerfan.recognizer import recognize  # noqa: E402
from outerfan.spqr import build_spqr, tree_to_json  # noqa: E402
from outerfan.sweep import all_biconnected_graphs  # noqa: E402

SEED = 20261018


def corpus():
    rng = random.Random(SEED)
    for n in range(3, 6):
        yield from all_biconnected_graphs(n)
    drawn = (
        [(gen.small_biconnected, n, 150) for n in range(4, 10)]
        + [(gen.chords_graph, n, 5) for n in range(8, 51)]
        + [(gen.grown_graph, n, 20) for n in range(6, 25)]
    )
    for make, n, count in drawn:
        for _ in range(count):
            yield build_graph(*make(n, rng))


def outputs(g) -> str:
    return json.dumps(
        [
            g.edge_list(),
            recognize(g).to_json_dict(),
            tree_to_json(build_spqr(g)),
            is_triconnected(g),
            [(p.u, p.v) for p in separation_pairs(g)],
        ],
        sort_keys=True,
    )


def main() -> int:
    t0 = time.perf_counter()
    digest = hashlib.sha256()
    count = 0
    for g in corpus():
        digest.update(outputs(g).encode())
        digest.update(b"\n")
        count += 1
    print(f"graphs {count}")
    print(f"sha256 {digest.hexdigest()}")
    print(f"seconds {time.perf_counter() - t0:.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
