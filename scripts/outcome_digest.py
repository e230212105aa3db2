#!/usr/bin/env python3
"""Print SHA-256 digests over the recognizer's, the SPQR builder's, the
connectivity predicates' and the oracle's outputs on fixed, seeded corpora.

Two checkouts that print the same digests give byte-identical results on
every graph of the first corpus, of biconnected graphs, for four outputs:
``recognize(g).to_json_dict()``, ``tree_to_json(build_spqr(g))``,
``is_triconnected(g)`` and ``separation_pairs(g)``; and on every graph of
the second, of connected graphs with a cut vertex, for ``is_biconnected(g)``
and ``cut_vertices(g)``; and on every graph of the third, of sparse
biconnected graphs, for ``tree_to_json(build_spqr(g))`` and
``recognize(g).to_json_dict()``; and on every graph of the fourth, of
small biconnected and grown graphs, for the oracle's
``outer_fan_planar_order(g)``, ``enumerate_embeddings_raw(g)``,
``is_maximal_outer_fan_planar(g)`` and ``enumerate_embeddings(g)``.  Use it
to show that a refactor changes no verdict, embedding, trace, tree, cut
vertex or oracle answer:

    PYTHONPATH=src python scripts/outcome_digest.py

The first corpus, drawn in this order with one ``random.Random(20261018)``:
every labeled biconnected graph with n = 3..5, then 150
``small_biconnected`` per n = 4..9, 5 ``chords_graph`` per n = 8..50 and 20
``grown_graph`` per n = 6..24 from ``perfbench/gen.py`` (which does not
import ``outerfan``, so the inputs do not depend on the code under test).
The second, drawn with its own ``random.Random(20261019)``: for each
n = 3..30, 10 random trees, then 10 random connected graphs made of two
random connected sides glued at one cut vertex; this script draws them
without ``outerfan`` either.  The third, drawn with its own
``random.Random(20261020)``: for each n = 4..16, 100 graphs, each redrawn
(edge count uniform in n .. min(2n + 2, n(n-1)/2), then the edges) until
``gen.is_biconnected`` holds.  About half of them have a parallel node with
several virtual edges, whose order in the tree this corpus pins down.  The
fourth, drawn with its own ``random.Random(20261021)``: for each n = 4..9,
150 ``small_biconnected`` and then 10 ``grown_graph`` from ``gen``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from outerfan import oracle  # noqa: E402
from outerfan.graph import (  # noqa: E402
    build_graph,
    cut_vertices,
    is_biconnected,
    is_triconnected,
    separation_pairs,
)
from outerfan.recognizer import recognize  # noqa: E402
from outerfan.spqr import build_spqr, tree_to_json  # noqa: E402
from outerfan.sweep import all_biconnected_graphs  # noqa: E402

SEED = 20261018
CUT_SEED = 20261019
SPQR_SEED = 20261020
ORACLE_SEED = 20261021


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


def random_tree(vertices: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """Each vertex after the first hangs from a random earlier one."""
    return [(vertices[rng.randrange(i)], v) for i, v in enumerate(vertices) if i]


def glued_graph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Two random connected sides sharing only one vertex, a cut vertex."""
    perm = list(range(n))
    rng.shuffle(perm)
    cut, rest = perm[0], perm[1:]
    k = rng.randint(1, n - 2)
    edges = []
    for side in ([cut, *rest[:k]], [cut, *rest[k:]]):
        rng.shuffle(side)
        edges += random_tree(side, rng)
        density = rng.uniform(0, 0.5)
        edges += [
            (a, b) for i, a in enumerate(side) for b in side[i + 1 :] if rng.random() < density
        ]
    return edges


def cut_corpus():
    rng = random.Random(CUT_SEED)
    for n in range(3, 31):
        for _ in range(10):
            yield build_graph(n, random_tree(list(range(n)), rng))
        for _ in range(10):
            yield build_graph(n, glued_graph(n, rng))


def cut_outputs(g) -> str:
    return json.dumps([g.edge_list(), is_biconnected(g), cut_vertices(g)])


def spqr_corpus():
    rng = random.Random(SPQR_SEED)
    for n in range(4, 17):
        pairs = list(combinations(range(n), 2))
        for _ in range(100):
            while True:
                edges = rng.sample(pairs, rng.randint(n, min(2 * n + 2, len(pairs))))
                if gen.is_biconnected(n, edges):
                    break
            yield build_graph(n, edges)


def spqr_outputs(g) -> str:
    return json.dumps(
        [g.edge_list(), tree_to_json(build_spqr(g)), recognize(g).to_json_dict()],
        sort_keys=True,
    )


def oracle_corpus():
    rng = random.Random(ORACLE_SEED)
    for n in range(4, 10):
        for make, count in ((gen.small_biconnected, 150), (gen.grown_graph, 10)):
            for _ in range(count):
                yield build_graph(*make(n, rng))


def oracle_outputs(g) -> str:
    return json.dumps(
        [
            g.edge_list(),
            oracle.outer_fan_planar_order(g),
            oracle.enumerate_embeddings_raw(g),
            oracle.is_maximal_outer_fan_planar(g),
            oracle.enumerate_embeddings(g),
        ]
    )


def digest_lines(label: str, graphs, render) -> None:
    digest = hashlib.sha256()
    count = 0
    for g in graphs:
        digest.update(render(g).encode())
        digest.update(b"\n")
        count += 1
    print(f"{label}graphs {count}")
    print(f"{label}sha256 {digest.hexdigest()}")


def main() -> int:
    t0 = time.perf_counter()
    digest_lines("", corpus(), outputs)
    digest_lines("cut ", cut_corpus(), cut_outputs)
    digest_lines("spqr ", spqr_corpus(), spqr_outputs)
    digest_lines("oracle ", oracle_corpus(), oracle_outputs)
    print(f"seconds {time.perf_counter() - t0:.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
