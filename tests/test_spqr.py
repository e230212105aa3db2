import json
import random
import re
import sys
from itertools import chain, combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerfan import graph
from outerfan.errors import StructuralError
from outerfan.graph import (
    build_graph,
    complete_graph,
    cut_vertices,
    cycle_graph,
    is_biconnected,
    is_connected,
    is_triconnected,
    iter_separation_pairs,
    norm_edge,
)
from outerfan.recognizer import recognize
from outerfan.spqr import (
    SkeletonEdge,
    SpqrNode,
    SpqrTree,
    TreeEdge,
    _number,
    _split,
    build_spqr,
    reconstruct,
    tree_to_json,
    verify_tree,
)
from outerfan.sweep import grown_graph


def components(adj, removed=()):
    """Connected components of the graph ``adj`` (vertex to neighbors) with
    ``removed`` deleted, ordered by their least vertex."""
    seen = set(removed)
    found = []
    for x in sorted(adj):
        if x in seen:
            continue
        seen.add(x)
        comp = [x]
        for y in comp:
            for z in adj[y]:
                if z not in seen:
                    seen.add(z)
                    comp.append(z)
        found.append(set(comp))
    return found


def node_views(t):
    """Per-node projection: id, kind and the sorted kinds of its neighbors."""
    kinds = {n.id: n.kind for n in t.nodes}
    nbrs = {n.id: [] for n in t.nodes}
    for te in t.tree_edges:
        nbrs[te.x].append(kinds[te.y])
        nbrs[te.y].append(kinds[te.x])
    return [
        {"id": node.id, "kind": node.kind, "neighbor_kinds": sorted(nbrs[node.id])}
        for node in t.nodes
    ]


def tree_from_json(text):
    """The tree that :func:`outerfan.spqr.tree_to_json` wrote."""
    payload = json.loads(text)
    nodes = tuple(
        SpqrNode(
            d["id"],
            d["kind"],
            tuple(d["vertices"]),
            tuple(SkeletonEdge(e["u"], e["v"], e["kind"], e["link"]) for e in d["edges"]),
        )
        for d in payload["nodes"]
    )
    tes = tuple(TreeEdge(d["id"], d["x"], d["y"], d["u"], d["v"]) for d in payload["tree_edges"])
    return SpqrTree(nodes, tes)


def random_biconnected(rng, n_lo=4, n_hi=10):
    while True:
        n = rng.randint(n_lo, n_hi)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(n, len(pairs))
        g = build_graph(n, rng.sample(pairs, m))
        if is_biconnected(g):
            return g


class TestBuild:
    def test_k4_single_rigid(self):
        t = build_spqr(complete_graph(4))
        assert [n.kind for n in t.nodes] == ["R"]
        assert all(e.kind == "real" for e in t.nodes[0].edges)
        assert not t.tree_edges

    def test_c5_single_series(self):
        t = build_spqr(cycle_graph(5))
        assert [n.kind for n in t.nodes] == ["S"]
        assert all(e.kind == "real" for e in t.nodes[0].edges)

    def test_two_triangles_sharing_a_present_edge(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        t = build_spqr(g)
        kinds = sorted(n.kind for n in t.nodes)
        assert kinds == ["P", "Q", "S", "S"]
        p = next(n for n in t.nodes if n.kind == "P")
        neighbor_kinds = sorted(
            k
            for view in node_views(t)
            if view["id"] == p.id
            for k in view["neighbor_kinds"]
        )
        assert neighbor_kinds == ["Q", "S", "S"]
        assert reconstruct(t) == g

    def test_non_biconnected_rejected(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        with pytest.raises(StructuralError, match="cut vertex: 2"):
            build_spqr(g)


def require_biconnected(g):
    """Reference for the builder's precondition, decided by separate
    searches: StructuralError for fewer than three vertices, then for a
    disconnection, then naming the least cut vertex."""
    if g.n < 3:
        raise StructuralError(f"graph has {g.n} < 3 vertices")
    if not is_connected(g):
        raise StructuralError("graph is not connected")
    cuts = cut_vertices(g)
    if cuts:
        raise StructuralError(f"graph has a cut vertex: {cuts[0]}")


def relabeled(n, edges, rng, keep=()):
    """The graph of ``edges`` with its ids shuffled, those in ``keep`` fixed."""
    free = [v for v in range(n) if v not in keep]
    perm = dict(zip(free, rng.sample(free, len(free))))
    perm.update((v, v) for v in keep)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def precondition_cases(rng, rounds=400):
    """Seeded graphs on 0..9 vertices: random graphs of every density,
    trees, two blocks sharing vertex 0 (the root of the builder's search,
    then its only cut vertex), and a block with a pendant path beside a
    second component."""
    cases = []
    for _ in range(rounds):
        n = rng.randint(0, 9)
        pairs = list(combinations(range(n), 2))
        cases.append(build_graph(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
        cases.append(relabeled(n, [(rng.randrange(v), v) for v in range(1, n)], rng))
        if n >= 5:
            a = rng.randint(2, n - 3)  # blocks on 0..a and on 0, a+1..n-1
            edges = [(i, i + 1) for i in range(a)] + [(a, 0), (0, a + 1), (n - 1, 0)]
            edges += [(i, i + 1) for i in range(a + 1, n - 1)]
            edges += rng.sample(pairs, rng.randint(0, 2))
            g = relabeled(n, edges, rng, keep=(0,))
            cases.append(g)
        if n >= 5:
            k = rng.randint(3, n - 2)  # a k-cycle with a pendant path, and the rest
            edges = [(i, (i + 1) % k) for i in range(k)] + [(k - 1, k)]
            edges += [(i, i + 1) for i in range(k + 1, n - 1)]
            cases.append(relabeled(n, edges, rng))
    return cases


def no_search(*args):
    raise AssertionError("a separate lowpoint search ran")


def test_build_checks_its_precondition_in_its_own_search(monkeypatch):
    """``build_spqr`` raises what the separate search raises, in the same
    priority order, without running that search."""
    cases = precondition_cases(random.Random(1601))
    expected = []
    for g in cases:
        try:
            require_biconnected(g)
            expected.append(None)
        except StructuralError as exc:
            expected.append(str(exc))
    monkeypatch.setattr(graph, "_pieces_left", no_search)
    got = []
    for g in cases:
        try:
            build_spqr(g)
            got.append(None)
        except StructuralError as exc:
            got.append(str(exc))
    assert got == expected
    kinds = {m if m is None else re.sub(r"\d+", "#", m) for m in expected}
    assert kinds == {
        None, "graph has # < # vertices", "graph is not connected", "graph has a cut vertex: #"
    }
    assert "graph has a cut vertex: 0" in expected
    assert expected.count(None) >= 100


def test_a_single_rigid_node_means_3_connected(monkeypatch):
    """The tree is one rigid node exactly when the separating-pair search
    finds G 3-connected, and the build decides it without a lowpoint search
    of :mod:`outerfan.graph`: on every biconnected graph with at most seven
    vertices, up to isomorphism, and on random ones below."""
    graphs = [build_graph(h.number_of_nodes(), h.edges()) for h in nx.graph_atlas_g()]
    graphs = [g for g in graphs if is_biconnected(g)]
    expected = [is_triconnected(g) for g in graphs]
    assert (expected.count(True), expected.count(False)) == (157, 381)
    monkeypatch.setattr(graph, "_pieces_left", no_search)
    assert [build_spqr(g).triconnected for g in graphs] == expected


class TestReconstruct:
    def test_round_trip_named(self):
        for g in [complete_graph(4), cycle_graph(5), complete_graph(6)]:
            assert reconstruct(build_spqr(g)) == g

    def test_round_trip_random_sweep(self):
        rng = random.Random(20240)
        for _ in range(1000):
            g = random_biconnected(rng)
            t = build_spqr(g)
            assert reconstruct(t) == g

    def test_invariants_random_sweep(self):
        rng = random.Random(321)
        for _ in range(300):
            g = random_biconnected(rng)
            t = build_spqr(g)
            assert verify_tree(t, g) == []


class TestNodeViews:
    def test_single_rigid(self):
        views = node_views(build_spqr(complete_graph(4)))
        assert len(views) == 1
        assert views[0]["neighbor_kinds"] == []

    def test_series_next_to_parallel(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        views = node_views(build_spqr(g))
        for view in views:
            if view["kind"] == "S":
                assert view["neighbor_kinds"] == ["P"]


def test_json_round_trip():
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    t = build_spqr(g)
    again = tree_from_json(tree_to_json(t))
    assert again == t
    assert reconstruct(again) == g


def cycle_plus_chords(n, rng):
    """The n-cycle plus n // 2 random chords, relabeled, with a vertex of
    degree 2 left so that the graph has a separation pair."""
    cycle = [(i, (i + 1) % n) for i in range(n)]
    chords = [(u, v) for u, v in combinations(range(n), 2) if (v - u) % n not in (1, n - 1)]
    perm = list(range(n))
    rng.shuffle(perm)
    while True:
        g = build_graph(n, [(perm[u], perm[v]) for u, v in cycle + rng.sample(chords, n // 2)])
        if any(g.degree(v) == 2 for v in range(n)):
            return g


def test_chords_graphs_beyond_sweep_sizes():
    rng = random.Random(606)
    for n in range(20, 61, 2):
        g = cycle_plus_chords(n, rng)
        t = build_spqr(g)
        assert verify_tree(t, g) == []
        assert reconstruct(t) == g
        assert not recognize(g).accepted


def test_chords_graphs_at_hundreds_of_vertices():
    rng = random.Random(909)
    for n in (100, 200):
        g = cycle_plus_chords(n, rng)
        t = build_spqr(g)
        assert verify_tree(t, g) == []
        assert reconstruct(t) == g
        assert not recognize(g).accepted


def test_split_parts_gain_no_separating_pair():
    """Every pair that separates a split part (a component of G - p plus p
    and the edge p) also separates G, and p separates no part: a split
    makes no new separating pair, which is why splitting at every pair
    found ends in 3-connected, cycle and bond components."""
    rng = random.Random(707)
    checked = 0
    for _ in range(150):
        g = random_biconnected(rng, 4, 9)
        adj = dict(enumerate(g.adj))
        separating = set(iter_separation_pairs(adj))
        for p in separating:
            for comp in components(adj, p):
                part = {x: {y for y in adj[x] if y in comp or y in p} for x in comp}
                part.update({x: {y for y in adj[x] if y in comp} | (set(p) - {x}) for x in p})
                assert set(iter_separation_pairs(part)) <= separating - {p}
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# Reference builder: a recursive split at the least separating pair found by
# deleting pairs, and a restart-loop merge; build_spqr's linear-time split
# and union-find merge must give the same tree
# ---------------------------------------------------------------------------


class _MEdge:
    """A skeleton edge under construction: ``pair`` is its normalized
    endpoint pair.  A real edge carries link None until it gets a Q leaf; a
    virtual edge carries the id of the link it shares with one other
    skeleton."""

    __slots__ = ("pair", "kind", "link")

    def __init__(self, pair, kind, link):
        self.pair, self.kind, self.link = pair, kind, link


def vertices(edges):
    return {x for e in edges for x in e.pair}


class ReferenceDecomposition:
    def __init__(self) -> None:
        self.skeletons: list[tuple[str, list[_MEdge]]] = []
        self.next_link = 0

    def new_link(self) -> int:
        self.next_link += 1
        return self.next_link - 1

    def split(self, edges: list[_MEdge], after=(-1, -1)) -> None:
        adj: dict[int, set[int]] = {}
        for e in edges:
            u, v = e.pair
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        if len(adj) == 2:
            self.skeletons.append(("P", edges))
            return
        if is_cycle(edges, adj):
            self.skeletons.append(("S", edges))
            return
        pairs = [e.pair for e in edges]
        parallel = min({p for p in pairs if pairs.count(p) > 1}, default=None)
        found = [parallel, scan_split_pair(adj, after)]
        pair = min((p for p in found if p is not None), default=None)
        if pair is None:
            self.skeletons.append(("R", edges))
            return
        singles = [e for e in edges if e.pair == pair]
        classes = [
            [e for e in edges if e.pair[0] in comp or e.pair[1] in comp]
            for comp in components(adj, pair)
        ]
        if not singles and len(classes) == 2:
            link = self.new_link()
            for cls in classes:
                self.split(cls + [_MEdge(pair, "virtual", link)], pair)
            return
        central = list(singles)
        for cls in classes:
            link = self.new_link()
            central.append(_MEdge(pair, "virtual", link))
            self.split(cls + [_MEdge(pair, "virtual", link)], pair)
        self.skeletons.append(("P", central))


def is_cycle(edges, adj):
    # components are simple: as many edges as vertices, all of degree 2
    return (
        len(edges) == len(adj) >= 3
        and all(len(nbrs) == 2 for nbrs in adj.values())
        and len(components(adj)) == 1
    )


def scan_split_pair(adj, after):
    """The first vertex pair above ``after`` whose deletion disconnects
    ``adj``, found by deleting each pair in turn: no 3-tree shortcut."""
    pairs = combinations(sorted(adj), 2)
    return next((p for p in pairs if p > after and len(components(adj, p)) > 1), None)


def reference_merge(skeletons):
    work = [(kind, list(s)) for kind, s in skeletons]
    changed = True
    while changed:
        changed = False
        owners: dict[int, list[int]] = {}
        for idx, (_kind, skel) in enumerate(work):
            for e in skel:
                if e.kind == "virtual":
                    owners.setdefault(e.link, []).append(idx)
        for link, (a, b) in sorted(owners.items()):
            (ka, sa), (kb, sb) = work[a], work[b]
            if ka == kb and ka in ("S", "P"):
                work[a] = (ka, [e for e in sa + sb if not (e.kind == "virtual" and e.link == link)])
                del work[b]
                changed = True
                break
    return work


def reference_number(record, links):
    """The numbering pass as it was before it sorted each skeleton once:
    every skeleton's edges sorted for the node key and again for output."""
    q_edges = [e for kind, skel in record if kind == "P" for e in skel if e.kind == "real"]
    for link, e in enumerate(q_edges, links):
        e.link = link
        record.append(("Q", [_MEdge(e.pair, "real", link)]))
    keyed = []
    for kind, skel in record:
        vs = sorted(vertices(skel))
        keyed.append(((vs[0], vs, kind, sorted((e.pair, e.kind) for e in skel)), kind, skel))
    keyed.sort(key=lambda item: item[0])
    ends = {}
    for nid, (_key, _kind, skel) in enumerate(keyed):
        for e in skel:
            if e.link is not None:
                ends.setdefault(e.link, []).append((nid, e.pair))
    spans = []
    for link, owner in ends.items():
        if len(owner) != 2:
            raise StructuralError("dangling virtual pair after assembly")
        (x, pu), (y, pv) = owner
        if pu != pv:
            raise StructuralError("paired skeleton edges disagree on endpoints")
        spans.append((x, y, pu, link))
    spans.sort()
    tid = {link: i for i, (_x, _y, _p, link) in enumerate(spans)}
    nodes = tuple(
        SpqrNode(
            nid,
            kind,
            tuple(key[1]),
            tuple(
                SkeletonEdge(*e.pair, kind=e.kind, link=tid.get(e.link))
                for e in sorted(skel, key=lambda e: (e.pair, e.kind, tid.get(e.link, -1)))
            ),
        )
        for nid, (key, kind, skel) in enumerate(keyed)
    )
    return SpqrTree(nodes, tuple(TreeEdge(i, x, y, *p) for i, (x, y, p, _) in enumerate(spans)))


def reference_tree(g):
    dec = ReferenceDecomposition()
    dec.split([_MEdge(p, "real", None) for p in g.edge_list()])
    return reference_number(reference_merge(dec.skeletons), dec.next_link)


def sparse_biconnected(n, rng):
    pairs = list(combinations(range(n), 2))
    while True:
        g = build_graph(n, rng.sample(pairs, rng.randint(n, min(2 * n + 2, len(pairs)))))
        if is_biconnected(g):
            return g


def two_sum(g1, g2, rng):
    """g1 and g2 glued on an edge of each, which is kept or dropped, with
    the labels shuffled."""
    a, b = rng.choice(g1.edge_list())
    c, d = rng.choice(g2.edge_list())
    rest = iter(range(g1.n, g1.n + g2.n - 2))
    glue = {x: {c: a, d: b}[x] if x in (c, d) else next(rest) for x in range(g2.n)}
    edges = set(g1.edges) | {norm_edge(glue[u], glue[v]) for u, v in g2.edges}
    if rng.random() < 0.5:
        edges.discard(norm_edge(a, b))
    perm = list(range(g1.n + g2.n - 2))
    rng.shuffle(perm)
    return build_graph(len(perm), [(perm[u], perm[v]) for u, v in edges])


def bundle(pieces, keep, rng):
    """The pieces glued on one edge each, all on the same pair, which is
    kept or dropped, with the labels shuffled: a parallel node with a
    virtual edge per piece."""
    n, edges = 2, set()
    for part in pieces:
        c, d = rng.choice(part.edge_list())
        rest = iter(range(n, n + part.n - 2))
        glue = {x: {c: 0, d: 1}[x] if x in (c, d) else next(rest) for x in range(part.n)}
        edges |= {norm_edge(glue[u], glue[v]) for u, v in part.edges}
        n += part.n - 2
    if not keep:
        edges.discard((0, 1))
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def piece(rng):
    """A cycle, a K4 or a grown graph: the skeleton of an S or an R node."""
    kind = rng.randrange(3)
    if kind == 0:
        return cycle_graph(rng.randint(3, 6))
    return complete_graph(4) if kind == 1 else grown_graph(rng.randint(5, 9), rng)


def families(rng):
    """Sparse, cycle-plus-chords and grown graphs, 2-sums, ladders, chains
    and bundles, drawn in that order, by family name."""
    sparse = [sparse_biconnected(n, rng) for n in range(4, 17) for _ in range(40)]
    chords = [cycle_plus_chords(n, rng) for n in range(6, 61, 2) for _ in range(3)]
    # 3-trees, whose trees are one rigid node, and 2-sums of two 3-trees,
    # whose rigid skeletons are 3-trees closed by the virtual edge
    grown = [grown_graph(n, rng) for n in (4, 5, 6, 9, 16, 24, 32, 48, 64)]
    sums = [
        two_sum(grown_graph(rng.randint(4, 16), rng), grown_graph(rng.randint(4, 16), rng), rng)
        for _ in range(30)
    ]
    ladders = [ladder(k) for k in range(2, 41)]
    # chains of 2-sums, in which S, P and R nodes alternate
    chains = []
    for _ in range(60):
        g = piece(rng)
        for _ in range(rng.randint(2, 5)):
            g = two_sum(g, piece(rng), rng)
        chains.append(g)
    bundled = [
        bundle([piece(rng) for _ in range(rng.randint(3, 5))], keep, rng)
        for keep in (True, False)
        for _ in range(20)
    ]
    return {
        "sparse": sparse, "chords": chords, "grown": grown, "sums": sums,
        "ladders": ladders, "chains": chains, "bundled": bundled,
    }


def test_builder_matches_the_recursive_reference():
    family = families(random.Random(1007))
    bundles = three_tree_skeletons = 0
    wide = {True: 0, False: 0}  # P nodes with three virtual edges, by real edge
    for g in chain.from_iterable(family.values()):
        t = build_spqr(g)
        assert tree_to_json(t) == tree_to_json(reference_tree(g))
        bundles += any(
            n.kind == "P" and sum(e.kind == "virtual" for e in n.edges) > 1 for n in t.nodes
        )
        three_tree_skeletons += sum(
            n.kind == "R" and len(n.edges) == 3 * len(n.vertices) - 6 for n in t.nodes
        )
        for n in t.nodes:
            if n.kind == "P" and sum(e.kind == "virtual" for e in n.edges) >= 3:
                wide[any(e.kind == "real" for e in n.edges)] += 1
    # the order of a parallel node's virtual edges follows the tree edge ids
    assert bundles > 100
    assert three_tree_skeletons >= len(family["grown"]) + 2 * len(family["sums"])
    assert min(wide.values()) >= 20


def kinded(comps, ends, m):
    """The split's components as the references take them: edges below m
    real, the others virtual with link e - m; a component on two vertices a
    bond, a cycle a series node, any other rigid."""
    skeletons = []
    for comp in comps:
        edges = [
            _MEdge(ends[e], "real", None) if e < m else _MEdge(ends[e], "virtual", e - m)
            for e in comp
        ]
        adj = {}
        for e in edges:
            u, v = e.pair
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        kind = "P" if len(adj) == 2 else "S" if is_cycle(edges, adj) else "R"
        skeletons.append((kind, edges))
    return skeletons


def test_number_matches_the_double_sort_reference():
    """The numbering pass, which merges, orders and sorts each skeleton
    once over edge ids, gives the tree that the restart-loop merge and the
    double-sort reference give on the split's components of every family,
    with the components and their edges handed over in shuffled order."""
    rng = random.Random(1019)
    wide = 0  # parallel nodes with three or more virtual edges
    for g in chain.from_iterable(families(rng).values()):
        comps, ends = _split(g)
        rng.shuffle(comps)
        for comp in comps:
            rng.shuffle(comp)
        expected = reference_number(reference_merge(kinded(comps, ends, g.m)), len(ends) - g.m)
        t = _number(comps, ends, g.m)
        assert t == expected
        assert t == build_spqr(g)
        wide += sum(
            n.kind == "P" and sum(e.kind == "virtual" for e in n.edges) >= 3 for n in t.nodes
        )
    assert wide >= 40


@st.composite
def biconnected_graphs(draw, max_n=12):
    """Any biconnected graph on 3..max_n vertices: a cycle, then ears (paths
    through new vertices between two old ones), then chords, relabeled."""
    n = draw(st.integers(3, max_n))
    k = draw(st.integers(3, n))
    edges = [(i, (i + 1) % k) for i in range(k)]
    while k < n:
        inner = draw(st.integers(1, n - k))
        a, b = draw(st.sampled_from(list(combinations(range(k), 2))))
        path = [a, *range(k, k + inner), b]
        edges += zip(path, path[1:])
        k += inner
    edges += draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=2 * n))
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(biconnected_graphs())
def test_builder_matches_the_reference_on_any_small_graph(g):
    assert tree_to_json(build_spqr(g)) == tree_to_json(reference_tree(g))


@settings(max_examples=200, deadline=None)
@given(biconnected_graphs(max_n=9))
def test_a_single_rigid_node_means_3_connected_on_any_small_graph(g):
    expected = is_triconnected(g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_pieces_left", no_search)
        assert build_spqr(g).triconnected == expected


def ladder(k):
    """Two paths of k vertices joined by k rungs: a chain of k - 1 squares."""
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return build_graph(2 * k, rails + [(i, k + i) for i in range(k)])


def test_deep_tree_needs_no_deep_recursion():
    # the 2 x 5000 ladder's tree is a path of about 15000 nodes; a recursive
    # split went one frame deeper per square
    assert sys.getrecursionlimit() < 5000
    g = ladder(5000)
    t = build_spqr(g)
    assert verify_tree(t, g) == []
    assert reconstruct(t) == g
    out = recognize(g)
    assert not out.accepted
    assert re.fullmatch(r"series node \d+ is a cycle of length 4", out.reason)


# ---------------------------------------------------------------------------
# Reference separation check: one walk per tree edge, which verify_tree's
# post-order pass replaced
# ---------------------------------------------------------------------------


def reference_separation_issues(t):
    """For each non-Q tree edge, the nodes reachable from its first end
    without it against the rest: their vertex sets may share only the
    edge's pair."""
    kinds = {n.id: n.kind for n in t.nodes}
    adj = {n.id: [] for n in t.nodes}
    for te in t.tree_edges:
        adj[te.x].append((te.y, te.id))
        adj[te.y].append((te.x, te.id))
    issues = []
    for te in t.tree_edges:
        if kinds[te.x] == "Q" or kinds[te.y] == "Q":
            continue
        near, stack = {te.x}, [te.x]
        while stack:
            for y, tid in adj[stack.pop()]:
                if tid != te.id and y not in near:
                    near.add(y)
                    stack.append(y)
        vs_a, vs_b = set(), set()
        for node in t.nodes:
            (vs_a if node.id in near else vs_b).update(node.vertices)
        shared = vs_a & vs_b
        if not shared <= {te.u, te.v}:
            issues.append(f"tree edge {te.id}: sides share vertices {sorted(shared)} beyond the pair")
    return issues


def corrupted(t, rng):
    """t with one node's vertex list changed: a vertex of the tree joins it,
    or, in a P or Q node, whose vertex list no skeleton check reads whole,
    replaces one of its vertices."""
    node = rng.choice(t.nodes)
    vs = list(node.vertices)
    other = rng.choice(sorted({x for n in t.nodes for x in n.vertices} - set(vs)))
    if node.kind in "PQ" and rng.random() < 0.5:
        vs[rng.randrange(len(vs))] = other
    else:
        vs.append(other)
    nodes = list(t.nodes)
    nodes[node.id] = node._replace(vertices=tuple(vs))
    return SpqrTree(tuple(nodes), t.tree_edges)


def test_separation_check_matches_the_per_edge_walk():
    """verify_tree's separation issues, messages and order, equal the walk's
    on built trees, on trees with one node's vertices corrupted, and on
    structures that are no tree (a tree edge dropped)."""
    rng = random.Random(1011)
    graphs = [sparse_biconnected(n, rng) for n in range(4, 17) for _ in range(10)]
    graphs += [cycle_plus_chords(n, rng) for n in range(6, 41, 4)]
    graphs += [grown_graph(n, rng) for n in (4, 6, 9, 16)]
    graphs += [
        two_sum(grown_graph(rng.randint(4, 12), rng), grown_graph(rng.randint(4, 12), rng), rng)
        for _ in range(10)
    ]
    graphs.append(ladder(30))
    flagged = 0
    for g in graphs:
        t = build_spqr(g)
        trees = [t]
        if t.tree_edges:
            trees += [corrupted(t, rng) for _ in range(4)]
            trees.append(SpqrTree(t.nodes, t.tree_edges[1:]))
        for tree in trees:
            issues = verify_tree(tree, g)
            expected = reference_separation_issues(tree)
            assert [i for i in issues if "sides share" in i] == expected
            assert issues[len(issues) - len(expected) :] == expected
            flagged += bool(expected)
    assert flagged > 200


# ---------------------------------------------------------------------------
# Reference reconstruction: the pairwise list merge that reconstruct's one
# pass over the links replaced
# ---------------------------------------------------------------------------


def reference_reconstruct(t):
    kinds = {n.id: n.kind for n in t.nodes}
    membership = {n.id: n.id for n in t.nodes}
    skels = {n.id: list(n.edges) for n in t.nodes}

    def find(x):
        while membership[x] != x:
            x = membership[x]
        return x

    for te in t.tree_edges:
        a, b = find(te.x), find(te.y)
        if a == b:
            raise StructuralError("tree edge joins an already merged component")
        keep_a, keep_b = kinds[te.x] == "Q", kinds[te.y] == "Q"
        ea = [e for e in skels[a] if not (e.link == te.id and not keep_a)]
        eb = [e for e in skels[b] if not (e.link == te.id and not keep_b)]
        skels[a] = ea + eb
        membership[b] = a
        kinds[te.x] = kinds[te.y] = "merged"
    roots = {find(n.id) for n in t.nodes}
    if len(roots) != 1:
        raise StructuralError("tree edges do not connect all nodes")
    edges = skels[roots.pop()]
    if any(e.kind == "virtual" for e in edges):
        raise StructuralError("virtual edges survive reconstruction")
    pairs = [e.pair() for e in edges]
    if len(pairs) != len(set(pairs)):
        raise StructuralError("reconstruction produced parallel edges")
    return build_graph(max((max(p) for p in pairs), default=-1) + 1, pairs)


def relinked(t, rng):
    """t with one skeleton edge's link changed to another tree edge's id or
    to an id no tree edge has."""
    node = rng.choice([n for n in t.nodes if any(e.link is not None for e in n.edges)])
    k = rng.choice([k for k, e in enumerate(node.edges) if e.link is not None])
    edges = list(node.edges)
    edges[k] = edges[k]._replace(link=rng.randrange(len(t.tree_edges) + 1))
    nodes = list(t.nodes)
    nodes[node.id] = node._replace(edges=tuple(edges))
    return SpqrTree(tuple(nodes), t.tree_edges)


def test_reconstruct_matches_the_list_merge():
    """reconstruct gives the list merge's graph, or raises its error, on
    built trees and on structures with a tree edge dropped, a tree edge
    repeated, or a skeleton edge relinked."""

    def result(rebuild, tree):
        try:
            return rebuild(tree)
        except StructuralError as exc:
            return str(exc)

    rng = random.Random(1013)
    graphs = [sparse_biconnected(n, rng) for n in range(4, 13) for _ in range(10)]
    graphs += [cycle_plus_chords(n, rng) for n in range(6, 31, 4)]
    graphs += [bundle([piece(rng) for _ in range(3)], keep, rng) for keep in (True, False)]
    graphs.append(ladder(12))
    seen = set()
    for g in graphs:
        t = build_spqr(g)
        trees = [t]
        if t.tree_edges:
            trees.append(SpqrTree(t.nodes, t.tree_edges[1:]))
            trees.append(SpqrTree(t.nodes, t.tree_edges + t.tree_edges[-1:]))
            trees += [relinked(t, rng) for _ in range(3)]
        for tree in trees:
            got = result(reconstruct, tree)
            assert got == result(reference_reconstruct, tree)
            seen.add(got if isinstance(got, str) else "graph")
    assert len(seen) == 5, seen
