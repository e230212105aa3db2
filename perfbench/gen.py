"""Seeded input generators for the benchmark.

Nothing here imports ``outerfan``: a change to the code under test cannot
change the inputs.  A graph is a pair ``(n, edges)`` with ``edges`` a sorted
tuple of ``(u, v)`` pairs, ``u < v``, over vertices ``0..n-1``.
"""

from __future__ import annotations

import random
from itertools import combinations


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _relabel(n: int, edges, rng: random.Random) -> tuple[int, tuple]:
    perm = list(range(n))
    rng.shuffle(perm)
    return n, tuple(sorted(_norm(perm[u], perm[v]) for u, v in edges))


def order_is_fan_planar(order, edges) -> bool:
    """Every edge crossed twice or more is crossed only by edges that share
    one endpoint, with the vertices in convex position in ``order``."""
    pos = {v: i for i, v in enumerate(order)}
    spans = [tuple(sorted((pos[u], pos[v]))) for u, v in edges]
    crossers: list[list[int]] = [[] for _ in edges]
    for i, (lo, hi) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            a, b = spans[j]
            if a in (lo, hi) or b in (lo, hi):
                continue
            if (lo < a < hi) != (lo < b < hi):
                crossers[i].append(j)
                crossers[j].append(i)
    for lst in crossers:
        if len(lst) < 2:
            continue
        common = set(edges[lst[0]])
        for j in lst[1:]:
            common &= set(edges[j])
        if not common:
            return False
    return True


def _add_crosser(common, e):
    """Endpoints shared by all crossers of an edge after adding crosser
    ``e``; ``common`` is None while the edge has no crosser yet."""
    return set(e) if common is None else common & set(e)


def grown_graph(n: int, rng: random.Random) -> tuple[int, tuple]:
    """A 3-connected graph with 3n-6 edges grown by inverse peel.

    Start from a triangle drawn on a circle.  Each new vertex is joined to
    three pairwise-adjacent vertices that are consecutive on the circle and
    placed next to the middle one; a placement is kept only if the drawing
    stays fan-planar.  Labels are shuffled at the end.

    Inserting a vertex leaves the crossings among old edges unchanged, so
    only the new edges and the old edges they cross are checked, against
    the per-edge crosser count and shared-endpoint set kept for the drawing.
    """
    if n < 3:
        raise ValueError("grown graphs need n >= 3")
    order = [0, 1, 2]
    count = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
    common: dict = {e: None for e in count}
    for v in range(3, n):
        s = len(order)
        slots = [(i, side) for i in range(s) for side in (0, 1)]
        rng.shuffle(slots)
        for i, side in slots:
            x, y, z = order[i - 1], order[i], order[(i + 1) % s]
            if not {_norm(x, y), _norm(y, z), _norm(x, z)} <= count.keys():
                continue
            k = i if side == 0 else i + 1
            cand = order[:k] + [v] + order[k:]
            pos = {w: j for j, w in enumerate(cand)}
            new = [_norm(v, x), _norm(v, y), _norm(v, z)]
            new_count = {e: 0 for e in new}
            new_common: dict = {e: None for e in new}
            old_count: dict = {}
            old_common: dict = {}
            for e in new:
                lo, hi = sorted((pos[e[0]], pos[e[1]]))
                for f in count:
                    if e[0] in f or e[1] in f:
                        continue
                    if (lo < pos[f[0]] < hi) != (lo < pos[f[1]] < hi):
                        new_count[e] += 1
                        new_common[e] = _add_crosser(new_common[e], f)
                        old_count[f] = old_count.get(f, count[f]) + 1
                        old_common[f] = _add_crosser(old_common.get(f, common[f]), e)
            touched = [(new_count[e], new_common[e]) for e in new]
            touched += [(old_count[f], old_common[f]) for f in old_count]
            if all(c < 2 or shared for c, shared in touched):
                order = cand
                count.update(new_count)
                count.update(old_count)
                common.update(new_common)
                common.update(old_common)
                break
        else:
            raise RuntimeError(f"no fan-planar slot for vertex {v}")
    return _relabel(n, count, rng)


def chords_graph(n: int, rng: random.Random) -> tuple[int, tuple]:
    """The n-cycle plus n // 2 distinct random chords, labels shuffled.

    Redrawn until some vertex keeps degree 2, so the graph is biconnected
    but has a separation pair (the two cycle neighbours of that vertex).
    """
    cycle = {_norm(i, (i + 1) % n) for i in range(n)}
    chords = [p for p in combinations(range(n), 2) if p not in cycle]
    while True:
        edges = cycle | set(rng.sample(chords, n // 2))
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if 2 in degree:
            return _relabel(n, edges, rng)


def _connected_without(n: int, adj, removed: int) -> bool:
    start = 1 if removed == 0 else 0
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != removed and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n - (1 if removed >= 0 else 0)


def is_biconnected(n: int, edges) -> bool:
    """Connected, n >= 3, and connected after deleting any one vertex."""
    if n < 3:
        return False
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return _connected_without(n, adj, -1) and all(
        _connected_without(n, adj, v) for v in range(n)
    )


def small_biconnected(n: int, rng: random.Random, m: int | None = None) -> tuple[int, tuple]:
    """A random biconnected graph with ``m`` edges, redrawn until it is
    biconnected.  Without ``m``, each draw takes the edge count uniformly
    from n .. n(n-1)/2."""
    pairs = list(combinations(range(n), 2))
    while True:
        edges = tuple(sorted(rng.sample(pairs, m or rng.randint(n, len(pairs)))))
        if is_biconnected(n, edges):
            return n, edges


def two_hop_graph(n: int) -> tuple[int, tuple]:
    """The n-cycle plus all its 2-hop chords."""
    edges = {_norm(i, (i + 1) % n) for i in range(n)}
    edges |= {_norm(i, (i + 2) % n) for i in range(n)}
    return n, tuple(sorted(edges))


def three_partition(m: int, target: int, rng: random.Random):
    """3-Partition values with a planted solution.

    Returns ``(values, triples)``: 3m integers strictly between target/4 and
    target/2, and m disjoint index triples, each summing to ``target``.
    """
    lo, hi = target // 4 + 1, (target - 1) // 2
    groups = []
    for _ in range(m):
        while True:
            a, b = rng.randint(lo, hi), rng.randint(lo, hi)
            c = target - a - b
            if lo <= c <= hi:
                groups.append((a, b, c))
                break
    slots = list(range(3 * m))
    rng.shuffle(slots)
    values = [0] * (3 * m)
    triples = []
    for j, group in enumerate(groups):
        idx = tuple(sorted(slots[3 * j : 3 * j + 3]))
        for i, a in zip(idx, group):
            values[i] = a
        triples.append(idx)
    return tuple(values), tuple(triples)


def format_edge_list(graph) -> str:
    """The ``n m`` / ``u v`` edge-list text the CLI reads."""
    n, edges = graph
    return "\n".join([f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]) + "\n"
