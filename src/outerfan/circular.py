"""Outer drawings as circular vertex orders.

Placing all vertices on a circle and drawing edges as straight chords makes
every crossing a purely combinatorial fact: two chords cross exactly when
their endpoints interleave around the circle.  An order is outer-fan-planar
when every edge that is crossed two or more times is crossed only by edges
sharing a common endpoint.  In convex position an edge's crossers can never
straddle both sides of it, so the common-endpoint test is the whole check.
:func:`check_outer_fan_planar` lists every crossing and is the readable
reference; :func:`fan_planar_edges` gives the same verdict for a whole
drawing from per-vertex reach: the least and the greatest neighbor position
of each vertex tell, in two comparisons, whether it has an edge across a
chord, so each chord's crossers' ends on its shorter side are found without
reading neighbors, and neighbors are read only to count the far ends of two
or more.  The recognizer uses it for its base case, porosity, the final
check of its reinsertion orders and assembled drawings; the reinsertion
slots and the grown-graph generator keep crossing apexes instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Collection, Iterator, Mapping, Sequence

from .errors import GraphInputError
from .graph import Edge, Graph, norm_edge

CircularOrder = tuple[int, ...]


class EdgeClass(Enum):
    OUTER = "outer"
    TWO_HOP = "two_hop"
    LONG = "long"


def positions(order: CircularOrder) -> dict[int, int]:
    return {v: i for i, v in enumerate(order)}


def _require_permutation(order: CircularOrder, n: int) -> None:
    if len(order) != n or set(order) != set(range(n)):
        raise GraphInputError(f"order {order} is not a permutation of 0..{n - 1}")


def classify_edge(order: CircularOrder, edge: tuple[int, int]) -> EdgeClass:
    """Classify an edge by the cyclic distance of its endpoint positions."""
    pos = positions(order)
    u, v = edge
    if u not in pos or v not in pos:
        raise GraphInputError(f"edge endpoint missing from order: {edge}")
    n = len(order)
    d = (pos[u] - pos[v]) % n
    if d in (1, n - 1):
        return EdgeClass.OUTER
    if d in (2, n - 2):
        return EdgeClass.TWO_HOP
    return EdgeClass.LONG


def chords_cross(order: CircularOrder, e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """Whether straight chords e1 and e2 cross for this circular order.

    Edges sharing an endpoint never cross in a simple drawing.
    """
    a, b = e1
    c, d = e2
    if len({a, b, c, d}) < 4:
        return False
    pos = positions(order)
    lo, hi = sorted((pos[a], pos[b]))
    in_c = lo < pos[c] < hi
    in_d = lo < pos[d] < hi
    return in_c != in_d


@dataclass(frozen=True)
class CrossingReport:
    """Crossing lists per edge plus the fan-planarity verdict for one order."""

    verdict: bool
    crossings: dict[Edge, tuple[Edge, ...]]
    first_violation: Edge | None


def crossing_lists(g: Graph, order: CircularOrder) -> dict[Edge, list[Edge]]:
    """Pairwise crossing lists for all edges, each list sorted."""
    edges = g.edge_list()
    pos = positions(order)
    lists: dict[Edge, list[Edge]] = {e: [] for e in edges}
    spans = {}
    for e in edges:
        lo, hi = sorted((pos[e[0]], pos[e[1]]))
        spans[e] = (lo, hi)
    for i, e1 in enumerate(edges):
        lo, hi = spans[e1]
        for e2 in edges[i + 1 :]:
            a, b = e2
            if a in e1 or b in e1:
                continue
            if (lo < pos[a] < hi) != (lo < pos[b] < hi):
                lists[e1].append(e2)
                lists[e2].append(e1)
    for e in edges:
        lists[e].sort()
    return lists


def shared_endpoints(crossers: Sequence[Edge]) -> set[int]:
    """The endpoints that all of ``crossers`` (at least one edge) share.  An
    edge obeys the fan rule iff this is not empty, or it has one crosser."""
    common = set(crossers[0])
    for f in crossers[1:]:
        common &= set(f)
    return common


def check_outer_fan_planar(g: Graph, order: CircularOrder) -> CrossingReport:
    """Fan-planarity check of a fixed circular order.

    Accepts iff for every edge crossed at least twice, the crossing edges all
    share a common endpoint.  Tangential crossings and crossers on both sides
    of an edge cannot occur in convex position, so nothing else is checked.
    """
    _require_permutation(order, g.n)
    lists = crossing_lists(g, order)
    bad = (e for e in g.edge_list() if len(lists[e]) > 1 and not shared_endpoints(lists[e]))
    first_violation = next(bad, None)
    return CrossingReport(
        verdict=first_violation is None,
        crossings={e: tuple(lst) for e, lst in lists.items()},
        first_violation=first_violation,
    )


def _reach(pos: Mapping[int, int], edges: Collection[Edge]) -> tuple[list[int], list[int]]:
    """The least and the greatest neighbor position of the vertex at each
    position (n and -1 if it has none)."""
    n = len(pos)
    lo, hi = [n] * n, [-1] * n
    for a, b in edges:
        i, j = pos[a], pos[b]
        if i < lo[j]:
            lo[j] = i
        if i > hi[j]:
            hi[j] = i
        if j < lo[i]:
            lo[i] = j
        if j > hi[i]:
            hi[i] = j
    return lo, hi


def fan_planar_edges(
    adj, order: CircularOrder, pos: Mapping[int, int], edges: Collection[Edge]
) -> bool:
    """Whether ``order`` is a fan-planar drawing of the graph with ``edges``.

    This is :func:`check_outer_fan_planar`'s verdict.  ``adj`` maps each
    vertex of ``order`` to its neighbors, ``edges`` are all of its edges and
    ``pos`` is ``positions(order)``.  A crosser of a chord has exactly one
    end on each side of it, and the crossers share an endpoint iff their
    ends on one side are a single vertex.  Each edge is read from its
    shorter side.  For a chord at positions i < j, a vertex strictly between
    them has a crosser iff its least neighbor position is below i or its
    greatest above j, so the ends on that side come from two comparisons per
    vertex; only when there are two or more are their neighbors read, to
    count the far ends.  A shorter side that passes over position 0 is read
    the same way in the order turned by n // 2, where it lies strictly
    between the chord's ends.  An edge with at most one vertex on its
    shorter side cannot fail and is skipped before anything is built; each
    frame (the order with its reach lists) is built on first need.
    """
    n = len(order)
    h = n // 2
    # the order, its positions and reach lists, read from position 0 and
    # turned by h
    frames: list = [None, None]
    for a, b in edges:
        i, j = pos[a], pos[b]
        if i > j:
            i, j = j, i
        wraps = 2 * (j - i) > n  # the shorter side passes over position 0
        if (n - (j - i) if wraps else j - i) <= 2:
            continue
        if frames[wraps] is None:
            side = order[n - h :] + order[: n - h] if wraps else order
            fpos = positions(side) if wraps else pos
            frames[wraps] = (side, fpos, *_reach(fpos, edges))
        side, fpos, lo, hi = frames[wraps]
        if wraps:
            i, j = fpos[b], fpos[a]
            if i > j:
                i, j = j, i
        near = [p for p in range(i + 1, j) if lo[p] < i or hi[p] > j]
        if len(near) < 2:
            continue
        far = set()
        for p in near:
            far.update(q for q in map(fpos.__getitem__, adj[side[p]]) if q < i or q > j)
            if len(far) > 1:
                return False
    return True


def canonicalize(order: CircularOrder) -> CircularOrder:
    """Lexicographically least sequence among all rotations and reflections.

    With distinct vertices that sequence starts at the least vertex, so only
    the two directions from it are compared.
    """
    if not order:
        return ()
    i = order.index(min(order))
    forward = order[i:] + order[:i]
    backward = forward[:1] + forward[:0:-1]
    return min(forward, backward)


def candidate_orders(n: int) -> Iterator[CircularOrder]:
    """All canonical circular orders of 0..n-1 (0 first, the second vertex
    below the last) in lexicographic order, one per rotation-and-reflection class."""
    if n <= 2:
        yield tuple(range(n))
        return
    for perm in permutations(range(1, n)):
        if perm[0] < perm[-1]:
            yield (0, *perm)


def consecutive_run(order: CircularOrder, vs: Collection[int]) -> int | None:
    """Start position of a run of cyclically consecutive positions of
    ``order`` holding exactly the vertices ``vs``, else None; 0 when ``vs``
    is empty or the whole order."""
    n = len(order)
    ps = sorted(map(order.index, vs))
    if not ps:
        return 0 if n else None
    if ps[-1] - ps[0] == len(ps) - 1:
        return ps[0]
    # otherwise the run wraps past position n - 1 and starts after its one gap
    starts = [p for q, p in zip(ps, ps[1:]) if p - q != 1]
    return starts[0] if len(starts) == 1 and ps[0] == 0 and ps[-1] == n - 1 else None


def drawing_key(g: Graph, order: CircularOrder) -> tuple[Edge, ...]:
    """Canonical position graph of the drawing.

    Two orders get the same key exactly when one drawing is the other after
    relabeling the graph by one of its automorphisms, i.e. they are the same
    unlabeled drawing.  It is the least sorted position edge list over the
    rotations and reflections whose cyclic degree sequence is least; that
    set of images depends only on the drawing's dihedral class, and so does
    the key.  Used to deduplicate embedding sets.
    """
    if not order:
        return ()
    pos = positions(order)
    n = len(order)
    pairs = [norm_edge(pos[u], pos[v]) for u, v in g.edges]
    degs = [len(g.adj[v]) for v in order] * 2
    back = degs[::-1]
    # rotation r moves position a to a - r, its reflection (s = -1) to r - a
    maps = [(degs[r : r + n], r, 1) for r in range(n)]
    maps += [(back[n - 1 - r : 2 * n - 1 - r], r, -1) for r in range(n)]
    least = min(seq for seq, _, _ in maps)
    return min(
        tuple(sorted(norm_edge(s * (a - r) % n, s * (b - r) % n) for a, b in pairs))
        for seq, r, s in maps
        if seq == least
    )


def distinct_drawings(g: Graph, orders) -> tuple[CircularOrder, ...]:
    """One order per distinct drawing among ``orders``: the least order of
    each :func:`drawing_key` class, sorted."""
    if len(orders) == 1:
        return tuple(orders)
    reps: dict[tuple[Edge, ...], CircularOrder] = {}
    for order in sorted(orders):
        reps.setdefault(drawing_key(g, order), order)
    return tuple(sorted(reps.values()))


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_CANVAS = 512
_RADIUS = 210
_LABEL_RADIUS = 232


def _vertex_xy(i: int, n: int, radius: int = _RADIUS) -> tuple[float, float]:
    # order[0] at angle 90 degrees, subsequent vertices counterclockwise
    theta = math.pi / 2 + 2 * math.pi * i / n
    cx = cy = _CANVAS / 2
    return cx + radius * math.cos(theta), cy - radius * math.sin(theta)


def render_svg(g: Graph, order: CircularOrder) -> str:
    """Straight-line drawing of the order on a circle as an SVG document.

    Output bytes are deterministic for a fixed input.  The fan-planarity
    verdict of the order is annotated in the <title> element; any order is
    rendered, valid or not.
    """
    _require_permutation(order, g.n)
    n = g.n
    report = check_outer_fan_planar(g, order)
    crossing_count = sum(len(v) for v in report.crossings.values()) // 2
    xy = {v: _vertex_xy(i, n) for i, v in enumerate(order)}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_CANVAS}" height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">',
        f"<title>outer drawing: n={n} m={g.m} crossings={crossing_count} "
        f"fan-planar={'true' if report.verdict else 'false'}</title>",
        f'<circle cx="{_CANVAS / 2:.2f}" cy="{_CANVAS / 2:.2f}" r="{_RADIUS}" '
        'fill="none" stroke="#dddddd" stroke-width="1"/>',
    ]
    for u, v in g.edge_list():
        x1, y1 = xy[u]
        x2, y2 = xy[v]
        lines.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="#333333" stroke-width="1.5"/>'
        )
    for i, v in enumerate(order):
        x, y = xy[v]
        lx, ly = _vertex_xy(i, n, _LABEL_RADIUS)
        lines.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="#1f6feb"/>'
        )
        lines.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="14" '
            f'font-family="monospace" text-anchor="middle" '
            f'dominant-baseline="middle">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
