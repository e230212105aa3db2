"""Decision procedure for maximal outer-fan-planarity.

:func:`recognize` builds the SPQR tree once and dispatches on it; the
builder decides biconnectivity, and a graph that is not biconnected is
rejected from its :class:`~outerfan.errors.NotBiconnectedError`.  A single
rigid node is a 3-connected graph.  A graph with 3n - 6 edges is peeled
first (:func:`~outerfan.graph.three_tree_peel`): if the peel leaves a
triangle, the graph is a 3-tree, hence 3-connected, and goes to the peel
path below with that peel and no tree.  :func:`recognize_3connected` takes
a 3-connected graph with prescribed outer edges and checks its input
through the same door: a 3-tree by its peel, any other graph by its SPQR
tree.  A 3-connected graph is recognized as follows:

* complete 2-hop graphs (the cycle plus all 2-hop chords) are detected by a
  seeded greedy reconstruction of the boundary cycle and are always maximal;
* on four or five vertices it is maximal exactly when it is complete (a
  fact the test suite checks against the exhaustive oracle on every such
  labeled graph); its drawings are the canonical orders of the complete
  graph that pass the fan-planarity check;
* otherwise it is peeled down to a triangle by repeatedly removing the
  least degree-3 vertex of a 4-clique (the elimination
  :func:`~outerfan.graph.peel_degree3_k4`), then rebuilt by reinserting the
  vertices between their neighbors while preserving fan-planarity,
  branching over the (at most two) feasible slots.  A slot puts the vertex
  next to the middle of its three neighbors, so it adds one chord that
  spans one vertex.  Each live order carries its crossing apexes (for each
  crossed edge, the endpoints all its crossers share), and a slot is
  decided from the apexes of the middle vertex's edges alone, in time
  linear in that vertex's degree.  After each step the live orders are
  counted as drawings on the partial graph: an order joins a class when a
  rotation or reflection of it, read against the class's representative,
  maps the graph onto itself.

A single series node is a chordless cycle, maximal only as a triangle.  Any
other tree is accepted iff its rigid skeletons pass the 3-connected paths
with their virtual edges on the outer face and the tree satisfies a small
set of local conditions, including a porosity test at every parallel node.
Those conditions leave a tree whose rigid and series nodes (series ones
triangles) meet only at parallel nodes of three edges, one of them real, so
each parallel node joins two pieces at its poles.  The drawings are then
assembled in one flat walk over that tree of pieces: listed outward from
the least-id piece, then spliced from the last piece back, each splicing
its children's s-t sequences into its own s-t gaps.  No function of this
module recurses, so deep trees need no recursion limit.

Every path fills a ``_RawResult``; :func:`_finish` alone turns one into a
:class:`RecognitionOutcome`, keeping one order per distinct drawing.

The other fan checks run one kernel on whole drawings,
:func:`~outerfan.circular.fan_planar_edges`: the final check of a
reinsertion's orders, which validates every order independently of the
apexes, the base case, porosity (on the drawing with the hung vertex) and
the check of assembled SPQR drawings.  It finds each chord's crossers from
each vertex's least and greatest neighbor position, on the chord's shorter
side.  The recognizer does not use the exhaustive oracle or the reference
checker, so the test suite's recognizer-vs-oracle sweep compares two
independent procedures; embeddings are reported one canonical order per
distinct drawing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import spqr
from .circular import (
    CircularOrder,
    candidate_orders,
    canonicalize,
    consecutive_run,
    distinct_drawings,
    fan_planar_edges,
    positions,
)
from .errors import NotBiconnectedError, StructuralError
from .graph import (
    Edge,
    Graph,
    Peel,
    build_graph,
    complete_two_hop_graph,
    norm_edge,
    peel_degree3_k4,
    three_tree_peel,
)


class Verdict(Enum):
    ACCEPTED = "accepted"
    REJECTED_NOT_BICONNECTED = "rejected_not_biconnected"
    REJECTED_STRUCTURE = "rejected_structure"
    REJECTED_NO_EMBEDDING = "rejected_no_embedding"


@dataclass(frozen=True)
class RecognitionOutcome:
    """Verdict plus all valid drawings (canonical, one per drawing class).

    ``max_live_drawings`` is the peak number of distinct drawings held live
    during any reinsertion pass (labeled order variants of one drawing count
    once); ``two_hop_candidates`` is the number of seed extensions the
    complete-2-hop test produced before canonicalization, when that path ran.
    """

    verdict: Verdict
    reason: str | None
    embeddings: tuple[CircularOrder, ...]
    trace: tuple[str, ...]
    path: str = "none"
    max_live_drawings: int = 0
    two_hop_candidates: int = 0

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPTED

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "reason": self.reason,
            "embeddings": [list(o) for o in self.embeddings],
            "trace": list(self.trace),
            "path": self.path,
            "max_live_drawings": self.max_live_drawings,
            "two_hop_candidates": self.two_hop_candidates,
        }


@dataclass(frozen=True)
class PeelRecord:
    """One peeling step: the removed vertex and the bookkeeping it caused."""

    vertex: int
    neighbors: tuple[int, int, int]
    edges_marked: tuple[Edge, ...]


@dataclass(frozen=True)
class CompleteTwoHop:
    """Result of the complete-2-hop test: orders found and how many seeds
    extended to a full candidate before canonicalization."""

    orders: tuple[CircularOrder, ...]
    raw_candidates: int


@dataclass
class _RawResult:
    """What a recognition found: a rejection until an accepting path sets
    ``verdict`` to ACCEPTED with its ``orders``.  :func:`_finish` turns it
    into the one :class:`RecognitionOutcome` every entry point returns."""

    verdict: Verdict = Verdict.REJECTED_STRUCTURE
    orders: list[CircularOrder] = field(default_factory=list)
    reason: str | None = None
    trace: list[str] = field(default_factory=list)
    path: str = "none"
    max_live: int = 0
    two_hop_candidates: int = 0


def _finish(g: Graph, raw: _RawResult) -> RecognitionOutcome:
    """The outcome of ``raw``, with one order per distinct drawing; only an
    accepting path sets orders."""
    return RecognitionOutcome(
        raw.verdict,
        raw.reason,
        distinct_drawings(g, raw.orders),
        tuple(raw.trace),
        raw.path,
        raw.max_live,
        raw.two_hop_candidates,
    )


# ---------------------------------------------------------------------------
# Complete 2-hop graphs
# ---------------------------------------------------------------------------


def is_complete_2hop(g: Graph) -> CompleteTwoHop | None:
    """Detect the cycle-plus-all-2-hops structure and return its drawings.

    For 4 or 5 vertices the structure forces the complete graph.  Otherwise
    every vertex must have degree four; the boundary cycle is then grown
    greedily from a start vertex and a choice of its first two successors,
    which is tried for at most six seed pairs.  Each successful extension is
    a candidate order; candidates are canonicalized and deduplicated.
    """
    n = g.n
    if n < 4:
        return None
    if n in (4, 5):
        if g.m == n * (n - 1) // 2:
            return CompleteTwoHop((tuple(range(n)),), 1)
        return None
    if any(g.degree(v) != 4 for v in range(n)):
        return None
    start = 0
    seeds = [
        (v2, v3)
        for v2 in sorted(g.adj[start])
        for v3 in sorted(g.adj[start] & g.adj[v2])
    ]
    seeds = seeds[:6]  # two seeds per cycle neighbor, one per 2-hop neighbor
    template = complete_two_hop_graph(n).edges  # on positions, relabeled per order
    raw: list[CircularOrder] = []
    for v2, v3 in seeds:
        order = [start, v2, v3]
        used = {start, v2, v3}
        ok = True
        while len(order) < n:
            cands = (g.adj[order[-1]] & g.adj[order[-2]]) - used
            if len(cands) != 1:
                ok = False
                break
            nxt = next(iter(cands))
            order.append(nxt)
            used.add(nxt)
        if ok and g.edges == {norm_edge(order[a], order[b]) for a, b in template}:
            raw.append(tuple(order))
    if not raw:
        return None
    orders = tuple(sorted({canonicalize(o) for o in raw}))
    return CompleteTwoHop(orders, len(raw))


# ---------------------------------------------------------------------------
# 3-connected recognition: peel and reinsert
# ---------------------------------------------------------------------------


def _outer(pos, e: Edge) -> bool:
    """Whether ``e`` joins circle neighbors; ``pos`` gives the order's positions."""
    d = abs(pos[e[0]] - pos[e[1]])
    return d == 1 or d == len(pos) - 1


def _drawable(g: Graph, order: CircularOrder, outer_required) -> bool:
    """Whether ``order`` is a fan-planar drawing of g with every edge of
    ``outer_required`` on the outer face."""
    pos = positions(order)
    return all(_outer(pos, e) for e in outer_required) and fan_planar_edges(
        g.adj, order, pos, g.edges
    )


# for each crossed edge of a fan-planar drawing, the endpoints that all of its
# crossers share: both ends of a lone crosser, else one common endpoint
Apexes = dict[Edge, frozenset[int]]


def _insert_apexes(adj, apex: Apexes, v: int, m: int, z: int) -> Apexes | None:
    """The entries of ``apex`` that change when v is put on the circle next
    to m, or None if the drawing stops being fan-planar.

    ``apex`` belongs to a fan-planar drawing without v, in which z is a
    circle neighbor of m.  v goes between m and its other circle neighbor,
    which with m and z is all of v's neighbors.  Two of v's edges then join
    circle neighbors and v-z spans m alone, so v-z is crossed by m's edges
    m-y (y not v or z), which share m.  Inserting a vertex changes no
    crossing among old edges, so those m-y are the only edges that gain a
    crosser, and the drawing stays fan-planar iff each keeps a common
    endpoint with v-z.  ``adj`` maps m to its neighbors, with or without v.
    """
    vz = frozenset((v, z))
    entries: Apexes = {}
    last = m
    for y in adj[m]:
        if y == v or y == z:
            continue
        f = (m, y) if m < y else (y, m)
        common = apex.get(f, vz) & vz
        if not common:
            return None
        entries[f] = common
        last = y
    if entries:
        entries[norm_edge(v, z)] = frozenset((m, last) if len(entries) == 1 else (m,))
    return entries


def _reinsert_vertex(
    live: dict[CircularOrder, Apexes], adj, marks: set[Edge], v: int, nbrs
) -> dict[CircularOrder, Apexes]:
    """Every fan-planar way to put ``v`` back into the ``live`` orders, each
    canonical order with its apexes.

    ``adj`` already holds v and ``marks`` the marked edges of this step.
    The peel removed v from a 4-clique, so its three neighbors x, m, z form
    a run on the circle of every order that can take it back, and v goes
    next to m on either side; on the triangle it may also go between z and
    x, where x plays m.  Every marked edge was outer before the step, so a
    slot breaks a mark iff it splits a marked circle pair or v-z is marked.
    """
    new_live: dict[CircularOrder, Apexes] = {}
    for order, apex in live.items():
        s = len(order)
        r = consecutive_run(order, nbrs)
        if r is None:
            continue
        x, m, z = order[r], order[(r + 1) % s], order[(r + 2) % s]
        # the position v takes, the vertex it spans, its far neighbor, the
        # circle pair it splits
        slots = [(r + 1, m, z, (x, m)), (r + 2, m, x, (m, z))]
        if s == 3:
            slots.append((r + 3, x, m, (z, x)))
        for k, mid, far, (a, b) in slots:
            if norm_edge(a, b) in marks or norm_edge(v, far) in marks:
                continue
            entries = _insert_apexes(adj, apex, v, mid, far)
            if entries is None:
                continue
            k %= s
            new_live[canonicalize(order[:k] + (v,) + order[k:])] = {**apex, **entries}
    return new_live


def _same_drawing(adj, rep: CircularOrder, degs: list[int], order: CircularOrder) -> bool:
    """Whether ``order`` draws the graph ``adj`` as ``rep`` does, ``degs``
    being the degrees along ``rep``.

    It does iff some rotation or reflection of ``order``, read position by
    position against ``rep``, maps the graph onto itself: the degrees must
    agree along the two sequences, and then every edge must map to an edge.
    """
    s = len(rep)
    twice = degs * 2
    for seq in (order, order[::-1]):
        along = [len(adj[x]) for x in seq]
        for r in range(s):
            if twice[r : r + s] != along:
                continue
            image = dict(zip(seq, rep[r:] + rep[:r]))
            if all(image[w] in adj[image[u]] for u in adj for w in adj[u]):
                return True
    return False


def _count_drawings(adj, orders) -> int:
    """The number of distinct drawings among ``orders`` of the graph ``adj``.

    Each order is compared with one representative of each class found so
    far, so the cost is at most len(orders) times the class count pair tests.
    """
    reps: list[tuple[CircularOrder, list[int]]] = []
    for order in orders:
        if not any(_same_drawing(adj, rep, degs, order) for rep, degs in reps):
            reps.append((order, [len(adj[x]) for x in order]))
    return len(reps)


def _peel_and_reinsert(
    g: Graph, outer_required: frozenset[Edge], raw: _RawResult, peel: Peel | None
) -> None:
    """Algorithmic core for 3-connected inputs that are not complete 2-hop.

    Peels degree-3 vertices of 4-cliques down to a triangle while keeping
    edge and triangle marks, then reinserts in reverse order.  Marked edges
    must stay on the outer face until their marking vertex returns; the
    required-outer edges stay marked throughout.  ``peel`` is g's
    :func:`~outerfan.graph.peel_degree3_k4` if the caller has it.
    """
    steps, adj = peel if peel is not None else peel_degree3_k4(dict(enumerate(g.adj)))
    marks = set(outer_required)
    # the marked edges and the marked triangles at each vertex, in marking order
    marks_at: list[list[Edge]] = [[] for _ in range(g.n)]
    for e in marks:
        marks_at[e[0]].append(e)
        marks_at[e[1]].append(e)
    tris_at: list[list[frozenset[int]]] = [[] for _ in range(g.n)]
    stack: list[PeelRecord] = []
    present = set(range(g.n))
    # the peel order does not depend on the marks, so they are replayed on it
    for v, nbrs in steps:
        # stale marks (a member already peeled) were converted to edge marks
        # at that member's removal and must not count twice
        tris_with_v = [t for t in tris_at[v] if t <= present]
        marked_edges_at_v = [
            e for e in marks_at[v] if e[0] in present and e[1] in present
        ]
        if len(tris_with_v) >= 3 or len(marked_edges_at_v) >= 3:
            raw.verdict = Verdict.REJECTED_STRUCTURE
            raw.reason = (
                f"vertex {v} is confined by three marked triangles or edges"
            )
            raw.trace.append(f"peel reject at {v}: saturated marks")
            return
        newly_marked = []
        for t in tris_with_v:
            x, y = sorted(t - {v})
            e = (x, y)
            if e not in marks:
                marks.add(e)
                marks_at[x].append(e)
                marks_at[y].append(e)
                newly_marked.append(e)
        present.discard(v)
        tri = frozenset(nbrs)
        for u in nbrs:
            tris_at[u].append(tri)
        stack.append(PeelRecord(v, nbrs, tuple(newly_marked)))
        raw.trace.append(f"peel {v} neighbors {nbrs} marked {newly_marked}")

    if len(adj) != 3 or any(len(adj[v]) != 2 for v in adj):
        raw.verdict = Verdict.REJECTED_STRUCTURE
        raw.reason = f"peeling stuck with {len(adj)} vertices, not a triangle"
        raw.trace.append(raw.reason)
        return

    # the triangle crosses nothing
    live: dict[CircularOrder, Apexes] = {tuple(sorted(adj)): {}}
    raw.max_live = 1
    while stack:
        rec = stack.pop()
        v = rec.vertex
        marks.difference_update(rec.edges_marked)
        adj[v] = set(rec.neighbors)
        for w in rec.neighbors:
            adj[w].add(v)
        live = _reinsert_vertex(live, adj, marks, v, rec.neighbors)
        # the branch bound counts distinct drawings; one drawing can be held
        # as several labeled orders when the graph has automorphisms
        drawings = _count_drawings(adj, live) if len(live) > 1 else len(live)
        raw.max_live = max(raw.max_live, drawings)
        raw.trace.append(
            f"reinsert {v}: {len(live)} live orders, {drawings} drawings"
        )
        if not live:
            raw.verdict = Verdict.REJECTED_NO_EMBEDDING
            raw.reason = f"no feasible slot when reinserting {v}"
            return

    final = [o for o in sorted(live) if _drawable(g, o, outer_required)]
    if not final:
        raw.verdict = Verdict.REJECTED_NO_EMBEDDING
        raw.reason = "no reinsertion order survives final validation"
        return
    raw.verdict = Verdict.ACCEPTED
    raw.orders = final


def _recognize_3connected_raw(
    g: Graph, outer_required: frozenset[Edge], peel: Peel | None = None
) -> _RawResult:
    """Full drawing set (not deduplicated) for a 3-connected graph: a rigid
    SPQR node or an input :func:`recognize` or :func:`recognize_3connected`
    has checked, with g's :func:`~outerfan.graph.peel_degree3_k4` as
    ``peel`` if the caller has it."""
    bad = [e for e in outer_required if e not in g.edges]
    if bad:
        raise StructuralError(f"required outer edges not in graph: {bad}")
    raw = _RawResult()
    n = g.n

    if n in (4, 5):
        # small base cases sit below the preconditions of the peeling
        # machinery.  A 3-connected graph on four or five vertices is
        # maximal iff it is complete: the exhaustive oracle accepts K4 and
        # K5 and rejects the 25 other labeled 3-connected graphs on five
        # vertices (K5 minus an edge, and the wheels), as the tests check.
        # The drawings are read off a scan of all canonical orders, the
        # candidates the exhaustive oracle scans too.
        raw.path = "base"
        raw.trace.append("base case: exhaustive scan")
        if g.m != n * (n - 1) // 2:
            raw.verdict = Verdict.REJECTED_STRUCTURE
            raw.reason = "not maximal (exhaustive check)"
            return raw
        orders = [o for o in candidate_orders(n) if _drawable(g, o, outer_required)]
        if not orders:
            raw.verdict = Verdict.REJECTED_NO_EMBEDDING
            raw.reason = "maximal, but no drawing places the required edges outside"
            return raw
        raw.verdict = Verdict.ACCEPTED
        raw.orders = orders
        return raw

    th = is_complete_2hop(g)
    if th is not None:
        raw.path = "two_hop"
        raw.trace.append(
            f"complete 2-hop graph: {th.raw_candidates} candidate orders"
        )
        orders = [
            o for o in th.orders if all(_outer(positions(o), e) for e in outer_required)
        ]
        raw.two_hop_candidates = th.raw_candidates
        if not orders:
            raw.verdict = Verdict.REJECTED_NO_EMBEDDING
            raw.reason = "2-hop drawings exist but none keeps the required edges outside"
            return raw
        raw.verdict = Verdict.ACCEPTED
        raw.orders = orders
        return raw

    raw.path = "peel"
    _peel_and_reinsert(g, outer_required, raw, peel)
    return raw


def recognize_3connected(
    g: Graph, outer_required: frozenset[Edge] | set[Edge] = frozenset()
) -> RecognitionOutcome:
    """Maximal outer-fan-planarity with prescribed outer edges.

    Accepts iff the graph is maximal outer-fan-planar and admits a drawing
    with every edge of ``outer_required`` on the outer face; the embeddings
    are all such drawings.
    """
    peel, three_tree = three_tree_peel(dict(enumerate(g.adj)))
    try:
        triconnected = three_tree or spqr.build_spqr(g).triconnected
    except NotBiconnectedError:
        triconnected = False
    if not triconnected:
        raise StructuralError("input graph is not 3-connected")
    req = frozenset(norm_edge(u, v) for u, v in outer_required)
    return _finish(g, _recognize_3connected_raw(g, req, peel))


# ---------------------------------------------------------------------------
# Porosity
# ---------------------------------------------------------------------------


def _porous_in_drawing(
    skel: Graph, order: CircularOrder, outer_edge: Edge, around: int
) -> bool:
    """Hang a new vertex into ``skel``'s drawing ``order`` across
    ``outer_edge`` and check the extended drawing.

    If the extended drawing is fan-planar, so is ``order`` for ``skel``,
    which it contains.
    """
    pos = positions(order)
    u, v = outer_edge
    n = len(order)
    if not _outer(pos, outer_edge):
        raise StructuralError(f"edge {outer_edge} is not outer in {order}")
    if around not in outer_edge:
        raise StructuralError(f"{around} is not an endpoint of {outer_edge}")
    other = v if around == u else u
    # attachment target: the circle neighbor of `around` away from the edge
    i = pos[around]
    left, right = order[(i - 1) % n], order[(i + 1) % n]
    w = left if right == other else right
    nv = skel.n
    adj = [*skel.adj, {w}]
    adj[w] = adj[w] | {nv}
    k = pos[v] if (pos[u] + 1) % n == pos[v] else pos[u]
    ext_order = order[:k] + (nv,) + order[k:]
    return fan_planar_edges(
        adj, ext_order, positions(ext_order), skel.edges | {(w, nv)}
    )


def is_porous(
    skel: Graph,
    drawings: tuple[CircularOrder, ...] | list[CircularOrder],
    outer_edge: tuple[int, int],
    around: int,
) -> bool:
    """Whether a degree-1 vertex can be hung across ``outer_edge``.

    True iff some drawing in the set is a fan-planar drawing of ``skel`` and
    still is one after inserting a new vertex between the endpoints of
    ``outer_edge`` and connecting it to the far-side circle neighbor of
    ``around``.  A drawing that is not fan-planar for ``skel`` never counts.
    """
    e = norm_edge(*outer_edge)
    return any(_porous_in_drawing(skel, d, e, around) for d in drawings)


# ---------------------------------------------------------------------------
# Biconnected recognition via the SPQR tree
# ---------------------------------------------------------------------------


@dataclass
class _SkelView:
    kind: str
    graph: Graph
    to_orig: list[int]
    virtual_edges: frozenset[Edge]  # in dense skeleton labels
    real_edges: frozenset[Edge]
    drawings: list[CircularOrder] = field(default_factory=list)

    def orig_order(self, order: CircularOrder) -> CircularOrder:
        return tuple(self.to_orig[v] for v in order)


def _skeleton_view(node: spqr.SpqrNode) -> _SkelView:
    """The node's skeleton on dense ids, in the order of its sorted vertices;
    the builder gives every skeleton edge u < v, and so does the relabeling."""
    relabel = {x: i for i, x in enumerate(node.vertices)}
    edges: list[Edge] = []
    virtual: set[Edge] = set()
    real: set[Edge] = set()
    for e in node.edges:
        uv = (relabel[e.u], relabel[e.v])
        edges.append(uv)
        (virtual if e.kind == "virtual" else real).add(uv)
    graph = build_graph(len(relabel), edges)
    return _SkelView(node.kind, graph, list(node.vertices), frozenset(virtual), frozenset(real))


def _p_node_violation(g1: _SkelView, g2: _SkelView, s_t: Edge) -> str | None:
    """Porosity-based exclusion at a parallel node; returns a reason string
    if the two sides admit drawings that would leave an edge addable across
    the shared pole pair."""
    sides = []
    for view in (g1, g2):
        s_d, t_d = view.to_orig.index(s_t[0]), view.to_orig.index(s_t[1])
        sides.append((view, norm_edge(s_d, t_d), s_d, t_d))

    # (a) the pole edge is porous around the same pole in both sides
    for pole_idx in (0, 1):
        hit = True
        for view, pole_edge, s_d, t_d in sides:
            around = (s_d, t_d)[pole_idx]
            if not is_porous(view.graph, view.drawings, pole_edge, around):
                hit = False
                break
        if hit:
            return f"pole edge porous around pole {s_t[pole_idx]} on both sides"

    def side_flag(view: _SkelView, s_d: int, t_d: int, at_s: bool) -> bool:
        """Real outer edge next to a pole, porous around that pole, in some
        drawing of the side."""
        around = s_d if at_s else t_d
        other = t_d if at_s else s_d
        for d in view.drawings:
            pos = positions(d)
            n = len(d)
            i = pos[around]
            left, right = d[(i - 1) % n], d[(i + 1) % n]
            nb = left if right == other else right
            e = norm_edge(around, nb)
            if e in view.real_edges and _porous_in_drawing(view.graph, d, e, around):
                return True
        return False

    (v1, _, s1d, t1d), (v2, _, s2d, t2d) = sides
    # (b) neighbor-of-s edge real and porous around s on side one, paired
    # with neighbor-of-t edge real and porous around t on side two
    if side_flag(v1, s1d, t1d, at_s=True) and side_flag(v2, s2d, t2d, at_s=False):
        return "real neighbor edges porous around the poles (s side one, t side two)"
    # (c) the mirrored pairing
    if side_flag(v1, s1d, t1d, at_s=False) and side_flag(v2, s2d, t2d, at_s=True):
        return "real neighbor edges porous around the poles (t side one, s side two)"
    return None


def _assemble(
    views: dict[int, _SkelView], tree_adj: dict[int, list[tuple[int, Edge]]]
) -> list[CircularOrder]:
    """Merge skeleton drawings at parallel nodes into drawings of the graph.

    Once the tree-shape checks have passed, the rigid and series nodes (the
    pieces) meet only at parallel nodes, and each parallel node joins two
    pieces at its poles {s, t}.  The pieces are listed outward from the
    least-id one, each with the poles it shares with its parent.  Then, from
    the last piece back, each piece reads its drawings from s round to t,
    splices its children's interior sequences into its gaps between their
    poles, in the orientation that fits, and passes its own interiors (the
    spliced sequences without s and t) up.  The first piece's spliced
    drawings are the graph's.

    Every pole pair of a piece is adjacent in each of its drawings: a rigid
    skeleton is recognized with its virtual edges required outer, and a
    series node is a triangle.  Splicing into one gap never separates
    another pole pair, because a simple skeleton has at most one edge per
    pair.  So every child finds its gap, and s and t stay at the ends.
    """
    root = min(nid for nid, view in views.items() if view.kind in ("R", "S"))
    # the pieces outward from the root, each with the poles to its parent
    walk: list[tuple[int, Edge | None]] = [(root, None)]
    children: dict[int, list[tuple[int, Edge]]] = {root: []}
    for nid, _ in walk:
        for p_node, poles in tree_adj[nid]:
            for child, _ in tree_adj[p_node]:
                if child not in children and views[child].kind != "Q":
                    children[nid].append((child, poles))
                    children[child] = []
                    walk.append((child, poles))
    # each piece's interior sequences, read from the lesser pole to the greater
    interiors: dict[int, set[tuple[int, ...]]] = {}
    for nid, poles in reversed(walk):
        seqs = [views[nid].orig_order(d) for d in views[nid].drawings]
        if poles is not None:
            s, t = poles
            seqs = [d[d.index(s) :] + d[: d.index(s)] for d in seqs]
            seqs = [d if d[-1] == t else (s, *d[:0:-1]) for d in seqs]
        for child, (a, b) in children[nid]:
            spliced = []
            for seq in seqs:
                i = seq.index(a)
                if seq[i - 1] == b:
                    spliced += [seq[:i] + ins[::-1] + seq[i:] for ins in interiors[child]]
                else:
                    spliced += [seq[: i + 1] + ins + seq[i + 1 :] for ins in interiors[child]]
            seqs = spliced
        if poles is not None:
            interiors[nid] = {seq[1:-1] for seq in seqs}
    return sorted({canonicalize(seq) for seq in seqs})


def recognize(g: Graph) -> RecognitionOutcome:
    """Entry point: the verdict and every drawing, decided from the SPQR
    tree (graphs that are not biconnected are never maximal).  A 3-tree is
    3-connected and needs no tree; for any other graph the builder decides
    biconnectivity in its own first search."""
    peel, three_tree = three_tree_peel(dict(enumerate(g.adj)))
    if three_tree:  # its tree would be one R node
        return _finish(g, _recognize_3connected_raw(g, frozenset(), peel))
    try:
        tree = spqr.build_spqr(g)
    except NotBiconnectedError:
        raw = _RawResult(Verdict.REJECTED_NOT_BICONNECTED, reason="graph is not biconnected")
        return _finish(g, raw)
    return _recognize_from_tree(g, tree, peel)


def _recognize_from_tree(
    g: Graph, tree: spqr.SpqrTree, peel: Peel | None = None
) -> RecognitionOutcome:
    """:func:`recognize` for a biconnected g, given its SPQR tree and, if the
    caller has it, g's :func:`~outerfan.graph.peel_degree3_k4`."""
    return _finish(g, _tree_raw(g, tree, peel))


def _tree_raw(g: Graph, tree: spqr.SpqrTree, peel: Peel | None) -> _RawResult:
    """What :func:`_recognize_from_tree` found, for :func:`_finish` to build.

    A node's skeleton view (its skeleton relabeled to a dense graph) is
    built only when a check reads it: a rigid node's in the rigid-skeleton
    loop, just before that skeleton is tested, and every other node's once
    the tree-shape checks (rigid-rigid and rigid-series adjacency, series
    length, parallel edge count) have passed, before the parallel-node
    porosity checks and the assembly.  A graph rejected at a rigid skeleton
    thus builds the views of that node and the rigid nodes before it."""
    if tree.triconnected:
        return _recognize_3connected_raw(g, frozenset(), peel)
    raw = _RawResult(path="spqr", trace=[f"spqr tree with {len(tree.nodes)} nodes"])
    if len(tree.nodes) == 1:  # a single series node: a chordless cycle
        raw.path = "cycle"
        if g.n == 3:
            raw.verdict = Verdict.ACCEPTED
            raw.orders = [(0, 1, 2)]
        else:
            raw.reason = "chordless cycle admits chord insertions"
        return raw

    views: dict[int, _SkelView] = {}
    kinds = {n.id: n.kind for n in tree.nodes}
    # node to its tree neighbors with their poles, in tree edge order
    tree_adj: dict[int, list[tuple[int, Edge]]] = {n.id: [] for n in tree.nodes}
    for te in tree.tree_edges:
        poles = norm_edge(te.u, te.v)
        tree_adj[te.x].append((te.y, poles))
        tree_adj[te.y].append((te.x, poles))

    # rigid skeletons (3-connected by construction) must be maximal with all
    # virtual edges on the outer face
    for node in tree.nodes:
        if node.kind != "R":
            continue
        nid = node.id
        view = views[nid] = _skeleton_view(node)
        res = _recognize_3connected_raw(view.graph, view.virtual_edges)
        raw.max_live = max(raw.max_live, res.max_live)
        raw.two_hop_candidates = max(raw.two_hop_candidates, res.two_hop_candidates)
        if res.verdict is not Verdict.ACCEPTED:
            raw.trace.extend(res.trace)
            raw.reason = f"rigid skeleton at node {nid}: {res.reason}"
            return raw
        view.drawings = res.orders
        raw.trace.append(f"node {nid}: rigid skeleton with {len(res.orders)} drawings")

    for te in tree.tree_edges:
        kx, ky = kinds[te.x], kinds[te.y]
        if {kx, ky} == {"R"} or {kx, ky} == {"R", "S"}:
            raw.reason = f"rigid node adjacent to {'rigid' if kx == ky else 'series'} node"
            return raw

    for node in tree.nodes:
        if node.kind == "S" and len(node.edges) != 3:
            raw.reason = f"series node {node.id} is a cycle of length {len(node.edges)}"
            return raw

    for node in tree.nodes:
        if node.kind != "P":
            continue
        if len(node.edges) != 3 or all(kinds[y] != "Q" for y, _ in tree_adj[node.id]):
            raw.reason = f"parallel node {node.id} needs exactly three edges, one real"
            return raw

    for node in tree.nodes:
        if node.kind != "R":
            views[node.id] = _skeleton_view(node)
        if node.kind == "S":
            views[node.id].drawings = [tuple(range(3))]

    for node in tree.nodes:
        if node.kind != "P":
            continue
        # its two virtual edges join two pieces on its own pole pair
        (v1, poles), (v2, _) = [
            (views[y], poles) for y, poles in tree_adj[node.id] if kinds[y] != "Q"
        ]
        reason = _p_node_violation(v1, v2, poles)
        if reason is not None:
            raw.reason = f"parallel node {node.id}: edge addable across poles ({reason})"
            return raw

    orders = [o for o in _assemble(views, tree_adj) if _drawable(g, o, ())]
    if not orders:
        raw.verdict = Verdict.REJECTED_NO_EMBEDDING
        raw.reason = "conditions hold but no merged drawing validates"
        return raw
    raw.trace.append(f"assembled {len(orders)} drawings")
    raw.verdict = Verdict.ACCEPTED
    raw.orders = orders
    return raw
