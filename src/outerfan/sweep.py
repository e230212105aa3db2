"""Exhaustive and randomized equivalence sweeps of recognizer vs oracle.

The sweep is the package's trust anchor: every labeled biconnected graph up
to a size bound, plus seeded random biconnected graphs at larger sizes, is
fed to both the structural recognizer and the exhaustive oracle, and any
verdict or embedding-set disagreement is recorded.  Structural audits of the
accepted drawings (edge counts, consecutive 4-cliques, scissor closures) and
SPQR round-trips ride along on the same pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

from . import circular, oracle, spqr
from .circular import EdgeClass, chords_cross, classify_edge, consecutive_run
from .graph import Edge, Graph, build_graph, is_biconnected
from .recognizer import Apexes, _insert_apexes, _recognize_from_tree


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def all_biconnected_graphs(n: int) -> Iterator[Graph]:
    for g in all_graphs(n):
        if is_biconnected(g):
            yield g


def sample_biconnected(n: int, rng: random.Random) -> Graph:
    """One random biconnected graph, edge count uniform over the full range."""
    pairs = list(combinations(range(n), 2))
    while True:
        m = rng.randint(n, len(pairs))
        g = build_graph(n, rng.sample(pairs, m))
        if is_biconnected(g):
            return g


def grown_graph(n: int, rng: random.Random) -> Graph:
    """A 3-connected graph with 3n - 6 edges, grown by inverse peel.

    Start from a triangle drawn on a circle.  Each new vertex is joined to
    three pairwise-adjacent vertices that are consecutive on the circle and
    placed next to the middle one; a placement is kept only if the drawing
    stays fan-planar, which the reinsertion's apex step decides from the
    middle vertex's edges and the crossing apexes kept for the drawing.
    Labels are shuffled at the end.  For n = 4 and n >= 6 the result is
    maximal outer-fan-planar, a known-accepted family beyond the oracle's
    range (the tests check it against the oracle at small n).  At n = 5 it
    is K5 minus an edge, which is not maximal.
    """
    if n < 3:
        raise ValueError("grown graphs need n >= 3")
    order = [0, 1, 2]
    adj = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    apex: Apexes = {}
    for v in range(3, n):
        s = len(order)
        slots = [(i, side) for i in range(s) for side in (0, 1)]
        rng.shuffle(slots)
        for i, side in slots:
            x, y, z = order[i - 1], order[i], order[(i + 1) % s]
            if not (y in adj[x] and z in adj[x] and z in adj[y]):
                continue
            # side 0 puts v between x and y, side 1 between y and z
            entries = _insert_apexes(adj, apex, v, y, z if side == 0 else x)
            if entries is not None:
                apex.update(entries)
                order.insert(i + side, v)
                adj[v] = {x, y, z}
                for w in adj[v]:
                    adj[w].add(v)
                break
        else:
            raise RuntimeError(f"no fan-planar slot for vertex {v}")
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[w]) for u in adj for w in adj[u] if u < w])


@dataclass
class AcceptedRecord:
    edges: tuple[Edge, ...]
    n: int
    m: int
    triconnected_path: bool
    path: str
    embeddings: tuple[tuple[int, ...], ...]
    max_live_drawings: int
    two_hop_candidates: int


@dataclass
class SweepResult:
    graphs_checked: int = 0
    accepted: list[AcceptedRecord] = field(default_factory=list)
    disagreements: list[dict] = field(default_factory=list)
    embedding_mismatches: list[dict] = field(default_factory=list)
    ofp_graphs: list[tuple[int, int]] = field(default_factory=list)  # (n, m)
    density_violations: list[dict] = field(default_factory=list)
    spqr_failures: list[dict] = field(default_factory=list)


def _check_one(g: Graph, result: SweepResult) -> None:
    """Check one biconnected graph: one SPQR tree, one oracle scan."""
    result.graphs_checked += 1
    tree = spqr.build_spqr(g)
    outcome = _recognize_from_tree(g, tree)
    orders, maximal = oracle.scan(g)
    if outcome.accepted != maximal:
        result.disagreements.append(
            {
                "edges": g.edge_list(),
                "n": g.n,
                "recognizer": outcome.verdict.value,
                "reason": outcome.reason,
                "oracle_maximal": maximal,
            }
        )
        return
    if orders:
        result.ofp_graphs.append((g.n, g.m))
        if g.n >= 4 and g.m > 5 * g.n - 10:
            result.density_violations.append({"edges": g.edge_list()})
    if outcome.accepted:
        expected = circular.distinct_drawings(g, orders)
        if tuple(outcome.embeddings) != expected:
            result.embedding_mismatches.append(
                {
                    "edges": g.edge_list(),
                    "recognizer": outcome.embeddings,
                    "oracle": expected,
                }
            )
        result.accepted.append(
            AcceptedRecord(
                edges=tuple(g.edge_list()),
                n=g.n,
                m=g.m,
                triconnected_path=tree.triconnected,
                path=outcome.path,
                embeddings=tuple(outcome.embeddings),
                max_live_drawings=outcome.max_live_drawings,
                two_hop_candidates=outcome.two_hop_candidates,
            )
        )
    issues = spqr.verify_tree(tree, g)
    if issues:
        result.spqr_failures.append({"edges": g.edge_list(), "issues": issues})


def run_exhaustive_sweep(max_n: int = 6) -> SweepResult:
    """All labeled biconnected graphs with 3 <= n <= max_n."""
    result = SweepResult()
    for n in range(3, max_n + 1):
        for g in all_biconnected_graphs(n):
            _check_one(g, result)
    return result


def run_random_sweep(
    sizes: tuple[int, ...] = (7, 8),
    samples_per_size: int = 10_000,
    seed: int = 0,
) -> SweepResult:
    """Seeded random biconnected graphs at each size."""
    result = SweepResult()
    for n in sizes:
        rng = random.Random(seed * 1_000_003 + n)
        for _ in range(samples_per_size):
            g = sample_biconnected(n, rng)
            _check_one(g, result)
    return result


# ---------------------------------------------------------------------------
# Structural audits over accepted drawings
# ---------------------------------------------------------------------------


def audit_accepted(records: list[AcceptedRecord]) -> list[dict]:
    """Check the structural facts every accepted drawing must satisfy.

    The facts hold for 3-connected graphs with at least six vertices, so the
    audit is scoped to those: crossing long-edge pairs have two consecutive
    endpoints; scissors induce 4-cliques; a 4-clique containing a degree-3
    vertex occupies four consecutive positions with the degree-3 vertex
    strictly inside the run.  Violations are returned.
    """
    violations: list[dict] = []
    for rec in records:
        if rec.n < 6 or not rec.triconnected_path:
            continue
        g = build_graph(rec.n, rec.edges)
        for order in rec.embeddings:
            violations.extend(_audit_order(g, order))
    return violations


def k4_subsets(g: Graph) -> list[tuple[int, int, int, int]]:
    """All 4-cliques, for the structural audits (O(n^4))."""
    out = []
    for quad in combinations(range(g.n), 4):
        if all(g.has_edge(a, b) for a, b in combinations(quad, 2)):
            out.append(quad)
    return out


def _audit_order(g: Graph, order: tuple[int, ...]) -> list[dict]:
    issues: list[dict] = []
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    edges = g.edge_list()
    long_edges = [e for e in edges if classify_edge(order, e) is EdgeClass.LONG]
    for e1, e2 in combinations(long_edges, 2):
        if not chords_cross(order, e1, e2):
            continue
        endpoints = [*e1, *e2]
        consecutive_pairs = [
            (a, b)
            for a in e1
            for b in e2
            if (pos[a] - pos[b]) % n in (1, n - 1)
        ]
        if not consecutive_pairs:
            issues.append(
                {"kind": "crossing_long_pair_not_consecutive", "edges": (e1, e2)}
            )
            continue
        # scissor: with crossing chords at circle positions a < b < c < d,
        # the inner endpoints b,c are adjacent and the outer endpoints d,a
        # are adjacent around the wrap; then the four must induce a 4-clique
        a, b, c, d = sorted(pos[x] for x in endpoints)
        if b + 1 == c and (a + n - d) % n == 1:
            quad = endpoints
            if not all(g.has_edge(x, y) for x, y in combinations(quad, 2)):
                issues.append({"kind": "scissor_without_k4", "edges": (e1, e2)})
    for quad in k4_subsets(g):
        deg3 = [v for v in quad if g.degree(v) == 3]
        if not deg3:
            continue
        start = consecutive_run(order, quad)
        if start is None:
            issues.append({"kind": "degree3_k4_not_consecutive", "quad": quad})
            continue
        interior = {order[(start + 1) % n], order[(start + 2) % n]}
        for v in deg3:
            if v not in interior:
                issues.append({"kind": "degree3_vertex_at_run_end", "quad": quad, "v": v})
    return issues


def edge_count_violations(records: list[AcceptedRecord]) -> list[dict]:
    """Accepted 3-connected graphs must have exactly 2n or 3n-6 edges."""
    bad = []
    for rec in records:
        if rec.triconnected_path and rec.m not in (2 * rec.n, 3 * rec.n - 6):
            bad.append({"edges": rec.edges, "n": rec.n, "m": rec.m})
    return bad
