import sys
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from outerfan.errors import GraphInputError
from outerfan.graph import (
    _k4_neighbors,
    build_graph,
    complete_graph,
    cut_vertices,
    cycle_graph,
    dense_graph,
    format_edge_list,
    is_biconnected,
    is_connected,
    is_triconnected,
    iter_separation_pairs,
    parse_edge_list,
    path_graph,
    separation_pairs,
)
from test_spqr import components


def add_edge(g, u, v):
    return build_graph(g.n, [*g.edges, (u, v)])


def remove_vertex(g, v):
    """Delete ``v`` and compact the remaining ids, preserving their order."""
    return dense_graph([w for w in range(g.n) if w != v], [e for e in g.edges if v not in e])[0]


def degree3_k4_vertices(g):
    """Vertices of degree 3 whose three neighbors are pairwise adjacent, by
    id, each with its sorted neighbor triple: the peel's candidates, found
    with its own test."""
    return [(v, t) for v in range(g.n) if (t := _k4_neighbors(g.adj, v))]


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_graph(n, picked)


class TestBuild:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.m == 3 and g.n == 3

    def test_k5(self):
        assert complete_graph(5).m == 10

    def test_duplicates_collapse(self):
        g = build_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4

    def test_self_loop_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 3)])


class TestBiconnected:
    def test_c4(self):
        assert is_biconnected(cycle_graph(4))

    def test_bowtie(self):
        # two triangles sharing one vertex
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert not is_biconnected(g)
        assert cut_vertices(g) == [2]

    def test_k5(self):
        assert is_biconnected(complete_graph(5))

    def test_small(self):
        assert not is_biconnected(path_graph(2))
        assert not is_biconnected(path_graph(3))


class TestTriconnected:
    def test_k4(self):
        assert is_triconnected(complete_graph(4))

    def test_c5(self):
        assert not is_triconnected(cycle_graph(5))

    def test_k5_minus_edge(self):
        g = build_graph(5, [e for e in complete_graph(5).edges if e != (1, 3)])
        assert is_triconnected(g)

    def test_separation_pair_found(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        pairs = separation_pairs(g)
        assert (pairs[0].u, pairs[0].v) == (0, 1)


class TestDegree3K4:
    def test_k4_all_qualify(self):
        got = degree3_k4_vertices(complete_graph(4))
        assert [v for v, _ in got] == [0, 1, 2, 3]

    def test_k5_empty(self):
        assert degree3_k4_vertices(complete_graph(5)) == []

    def test_k5_minus_edge(self):
        g = build_graph(5, [e for e in complete_graph(5).edges if e != (1, 3)])
        assert degree3_k4_vertices(g) == [(1, (0, 2, 4)), (3, (0, 2, 4))]

    def test_induced_k4(self):
        g = build_graph(5, [e for e in complete_graph(5).edges if e != (1, 3)])
        for v, (a, b, c) in degree3_k4_vertices(g):
            for x, y in [(a, b), (a, c), (b, c), (v, a), (v, b), (v, c)]:
                assert g.has_edge(x, y)

    def test_removal_keeps_triconnectivity(self):
        # deleting a degree-3 vertex of a 4-clique from a 3-connected graph
        # keeps it 3-connected
        g = build_graph(5, [e for e in complete_graph(5).edges if e != (1, 3)])
        for v, _ in degree3_k4_vertices(g):
            assert is_triconnected(remove_vertex(g, v))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_connectivity_matches_networkx(g):
    h = to_nx(g)
    assert is_connected(g) == (g.n == 0 or nx.is_connected(h))
    expected_bicon = g.n >= 3 and nx.is_connected(h) and not list(nx.articulation_points(h))
    assert is_biconnected(g) == expected_bicon


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=4))
def test_triconnectivity_matches_networkx(g):
    expected = (
        g.n >= 4
        and is_biconnected(g)
        and nx.algorithms.connectivity.node_connectivity(to_nx(g)) >= 3
    )
    assert is_triconnected(g) == expected


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=4))
def test_separation_pairs_match_networkx(g):
    h = to_nx(g)
    expected = []
    if nx.is_connected(h):
        expected = [
            (u, v)
            for u, v in combinations(range(g.n), 2)
            if not nx.is_connected(h.subgraph(set(h) - {u, v}))
        ]
    assert [(p.u, p.v) for p in separation_pairs(g)] == expected


@settings(max_examples=200, deadline=None)
@given(graphs(), st.sets(st.integers(0, 7), max_size=3))
def test_components_match_networkx(g, removed):
    removed = {v for v in removed if v < g.n}
    adj = dict(enumerate(g.adj))
    rest = to_nx(g).subgraph(set(range(g.n)) - removed)
    expected = sorted(nx.connected_components(rest), key=min)
    assert components(adj, removed) == expected


def deletion_scan(adj):
    """Reference separating-pair search: delete each vertex pair in
    lexicographic order and search what is left."""
    vs = sorted(adj)
    for u, v in combinations(vs, 2):
        rest = [x for x in vs if x not in (u, v)]
        seen = {u, v, rest[0]}
        stack = [rest[0]]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < len(vs):
            yield (u, v)


@st.composite
def sparse_adjacencies(draw, min_n=3, max_n=9):
    """Vertex-to-neighbor-tuple mappings over sparse ids inserted in no
    particular order; any edge set, so G - u is often disconnected and G
    itself sometimes is."""
    ids = draw(st.lists(st.integers(0, 99), min_size=min_n, max_size=max_n, unique=True))
    pairs = list(combinations(ids, 2))
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return adjacency(ids, picked)


def adjacency(ids, edges):
    adj = {x: [] for x in ids}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return {x: tuple(nbrs) for x, nbrs in adj.items()}


def random_three_tree(n, pick):
    """Edges of a 3-tree on 0..n-1: a triangle, then each new vertex joined
    to the triangle ``pick(triangles)`` of those made so far."""
    edges = [(0, 1), (0, 2), (1, 2)]
    triangles = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = pick(triangles)
        edges += [(a, v), (b, v), (c, v)]
        triangles += [(a, b, v), (a, c, v), (b, c, v)]
    return edges


@st.composite
def edge_count_adjacencies(draw):
    """Graphs with 3n - 6 edges over sparse ids, n = 4..30: 3-trees, which
    the pair search certifies, or 3-trees with one edge of a degree-3
    vertex moved elsewhere, which leave that vertex of degree 2 and its two
    neighbors a separating pair."""
    n = draw(st.integers(4, 30))
    edges = random_three_tree(n, lambda ts: ts[draw(st.integers(0, len(ts) - 1))])
    if n >= 6 and draw(st.booleans()):
        v = draw(st.sampled_from([x for x in range(n) if sum(x in e for e in edges) == 3]))
        dropped = draw(st.sampled_from([e for e in edges if v in e]))
        free = [e for e in combinations(range(n), 2) if v not in e and e not in edges]
        edges = [e for e in edges if e != dropped] + [draw(st.sampled_from(free))]
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    return adjacency(ids, [(ids[a], ids[b]) for a, b in edges])


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_adjacencies(), edge_count_adjacencies()))
# a star: G minus the centre is all isolated vertices
@example({40: (7, 3, 12), 7: (40,), 3: (40,), 12: (40,)})
# two triangles sharing 5: G - 5 falls apart, and G - {5, 2} leaves 1 alone
@example({5: (1, 2, 8, 9), 1: (5, 2), 2: (1, 5), 8: (5, 9), 9: (8, 5)})
# a triangle plus an isolated vertex: G itself is disconnected
@example({3: (1, 2), 1: (2, 3), 2: (3, 1), 0: ()})
# a 3-tree on six vertices (K4, then 4 on 0 1 2, then 5 on 0 1 4) with the
# edge (4, 5) moved to (3, 4): still 3n - 6 edges, and {0, 1} cuts 5 off
@example(adjacency(range(6), [*combinations(range(4), 2), (0, 4), (1, 4), (2, 4),
                              (0, 5), (1, 5), (3, 4)]))
def test_separation_pair_search_matches_deletion_scan(adj):
    assert list(iter_separation_pairs(adj)) == list(deletion_scan(adj))


@st.composite
def connected_not_biconnected(draw, max_n=12):
    """A random tree plus random extra edges that leave a cut vertex."""
    n = draw(st.integers(3, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=n))
    g = build_graph(n, edges | set(extra))
    assume(list(nx.articulation_points(to_nx(g))))
    return g


@settings(max_examples=300, deadline=None)
@given(connected_not_biconnected())
def test_cut_vertices_match_networkx(g):
    assert cut_vertices(g) == sorted(nx.articulation_points(to_nx(g)))
    assert not is_biconnected(g)


def test_connectivity_needs_no_deep_recursion():
    # a recursive depth-first search would go 5000 frames deep here
    assert sys.getrecursionlimit() < 5000
    assert cut_vertices(path_graph(5000)) == list(range(1, 4999))
    assert is_biconnected(cycle_graph(5000))
    assert not is_triconnected(cycle_graph(5000))


def test_dense_graph_relabels_in_id_order():
    g, relabel = dense_graph({7, 3, 9}, [(3, 9), (9, 7)])
    assert relabel == {3: 0, 7: 1, 9: 2}
    assert list(relabel) == [3, 7, 9]
    assert g == build_graph(3, [(0, 2), (1, 2)])


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_triconnected_implies_biconnected(g):
    if is_triconnected(g):
        assert is_biconnected(g)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = complete_graph(5)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# a graph\n3 2\n0 1  # first\n\n1 2\n"
        g = parse_edge_list(text)
        assert g.m == 2

    def test_bad_line_number_reported(self):
        with pytest.raises(GraphInputError, match="line 2"):
            parse_edge_list("3 1\na b c\n")

    def test_count_mismatch(self):
        with pytest.raises(GraphInputError, match="declares"):
            parse_edge_list("3 2\n0 1\n")

    def test_out_of_range_line(self):
        with pytest.raises(GraphInputError, match="line 3"):
            parse_edge_list("3 2\n0 1\n0 7\n")
