import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerfan import oracle
from outerfan.circular import EdgeClass, check_outer_fan_planar, chords_cross, classify_edge
from outerfan.errors import SizeLimitError
from outerfan.graph import (
    build_graph,
    complete_graph,
    complete_two_hop_graph,
    cycle_graph,
    is_biconnected,
    path_graph,
)
from outerfan.sweep import all_biconnected_graphs, grown_graph, sample_biconnected
from test_graph import add_edge


class TestFirstOrder:
    def test_k5(self):
        assert oracle.outer_fan_planar_order(complete_graph(5)) == (0, 1, 2, 3, 4)

    def test_k6_absent(self):
        assert oracle.outer_fan_planar_order(complete_graph(6)) is None

    def test_c7_natural(self):
        assert oracle.outer_fan_planar_order(cycle_graph(7)) == tuple(range(7))

    def test_round_trip(self):
        for g in [complete_graph(5), cycle_graph(6), complete_two_hop_graph(7)]:
            order = oracle.outer_fan_planar_order(g)
            assert order is not None
            assert check_outer_fan_planar(g, order).verdict

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            oracle.outer_fan_planar_order(cycle_graph(13))
        assert oracle.outer_fan_planar_order(cycle_graph(13), max_n=13) is not None


class TestEnumerate:
    def test_k4_single_drawing(self):
        # all three canonical orders of a 4-clique pass the check and are the
        # same drawing up to relabeling
        assert oracle.enumerate_embeddings_raw(complete_graph(4)) == (
            (0, 1, 2, 3),
            (0, 1, 3, 2),
            (0, 2, 1, 3),
        )
        assert oracle.enumerate_embeddings(complete_graph(4)) == ((0, 1, 2, 3),)

    def test_p4_multiple(self):
        got = oracle.enumerate_embeddings(path_graph(4))
        assert len(got) > 1

    def test_two_hop_seven(self):
        g = complete_two_hop_graph(7)
        got = oracle.enumerate_embeddings(g)
        assert got
        for order in got:
            # every vertex sits between two of its boundary-cycle neighbors
            n = len(order)
            for i, v in enumerate(order):
                left, right = order[(i - 1) % n], order[(i + 1) % n]
                assert g.has_edge(v, left) and g.has_edge(v, right)

    def test_octahedron_raw_orders(self):
        got = oracle.enumerate_embeddings_raw(complete_two_hop_graph(6))
        assert got == (
            (0, 1, 2, 3, 4, 5),
            (0, 1, 5, 3, 4, 2),
            (0, 2, 1, 3, 5, 4),
            (0, 4, 2, 3, 1, 5),
        )


class TestMaximal:
    def test_k5(self):
        assert oracle.is_maximal_outer_fan_planar(complete_graph(5))

    def test_c5_not(self):
        assert not oracle.is_maximal_outer_fan_planar(cycle_graph(5))

    def test_octahedron(self):
        g = complete_two_hop_graph(6)
        assert oracle.is_maximal_outer_fan_planar(g)
        # each missing antipodal chord kills outer-fan-planarity on its own
        for u, v in g.non_edges():
            extended = build_graph(6, list(g.edges) + [(u, v)])
            assert oracle.outer_fan_planar_order(extended) is None

    def test_maximal_implies_biconnected_exhaustive(self):
        for n in (3, 4, 5):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                if oracle.is_maximal_outer_fan_planar(g):
                    assert is_biconnected(g)


def test_monotonicity_under_edge_removal():
    rng = random.Random(5)
    pairs6 = list(combinations(range(6), 2))
    for _ in range(150):
        m = rng.randint(5, 13)
        g = build_graph(6, rng.sample(pairs6, m))
        if oracle.outer_fan_planar_order(g) is None:
            continue
        smaller = build_graph(6, list(g.edges)[1:])
        assert oracle.outer_fan_planar_order(smaller) is not None


def test_density_bound_on_accepted():
    rng = random.Random(6)
    pairs7 = list(combinations(range(7), 2))
    for _ in range(100):
        m = rng.randint(7, 21)
        g = build_graph(7, rng.sample(pairs7, m))
        if oracle.outer_fan_planar_order(g) is not None:
            assert g.m <= 5 * g.n - 10


def kernel_verdicts(g, orders=None):
    """The one kernel's verdict per order, as (order, verdict) pairs: on the
    stored table when ``orders`` is None, on per-chunk tables built for
    ``orders`` otherwise, which the scan takes for the canonical orders on
    the path it runs above the stored sizes."""
    got = []
    with pytest.MonkeyPatch.context() as patch:
        if orders is not None:
            patch.setattr(oracle, "_STORED_ORDERS", 0)
            patch.setattr(oracle, "candidate_orders", lambda n: iter(orders))
        for rows, valid, _ in oracle._valid_chunks(g):
            bits = np.unpackbits(valid.view(np.uint8), count=len(rows)).astype(bool)
            got += zip(map(tuple, rows.tolist()), bits.tolist())
    return got


def kernel_agrees_with_checker(g, orders=None):
    """The one kernel's verdict per order equals the readable checker's, on
    tables built for ``orders`` and, when they are None, for every canonical
    order and on the stored table too; returns the set of verdicts seen."""
    stored = orders is None
    if stored:
        orders = list(oracle.candidate_orders(g.n))
    expected = [(order, check_outer_fan_planar(g, order).verdict) for order in orders]
    assert kernel_verdicts(g, orders) == expected, g.edge_list()
    if stored:
        assert kernel_verdicts(g) == expected, g.edge_list()
    return {verdict for _, verdict in expected}


def test_fast_paths_agree_with_readable_checker():
    # the one kernel and the quadratic checker agree order by order: on every
    # graph on five vertices and random graphs on six to eight, on every
    # canonical order
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << 10):
        g = build_graph(5, [p for i, p in enumerate(pairs) if mask >> i & 1])
        kernel_agrees_with_checker(g)
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(6, 8)
        all_pairs = list(combinations(range(n), 2))
        m = rng.randint(n, min(len(all_pairs), 5 * n - 10))
        g = build_graph(n, rng.sample(all_pairs, m))
        kernel_agrees_with_checker(g)
    # above n = 10 the tables hold only the rows a graph uses, built per
    # chunk; sampled orders of sparse random graphs at n = 12 to 14, with
    # both verdicts seen
    for n in (12, 13, 14):
        all_pairs = list(combinations(range(n), 2))
        seen = set()
        for _ in range(100):
            g = build_graph(n, rng.sample(all_pairs, rng.randint(n, 2 * n)))
            orders = [(0, *rng.sample(range(1, n), n - 1)) for _ in range(40)]
            seen |= kernel_agrees_with_checker(g, orders)
        assert seen == {True, False}
    # n <= 3: the single canonical order 0..n-1 draws every graph without a
    # crossing, and only the complete graphs are maximal
    for n in range(4):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            assert oracle.enumerate_embeddings_raw(g) == (tuple(range(n)),)
            assert oracle.is_maximal_outer_fan_planar(g) == (g.m == len(pairs))


@st.composite
def graphs_with_orders(draw):
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return build_graph(n, edges), tuple(draw(st.permutations(range(n))))


def crossed_by_two_disjoint_edges(g, order):
    edges = g.edge_list()
    for e in edges:
        crossers = [f for f in edges if chords_cross(order, e, f)]
        if any(not set(f) & set(h) for f, h in combinations(crossers, 2)):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(graphs_with_orders())
def test_fan_planar_iff_no_edge_crossed_by_two_disjoint_edges(case):
    """The characterization the kernel rests on: crossers of a chord that
    pairwise share an endpoint never form a triangle."""
    g, order = case
    assert crossed_by_two_disjoint_edges(g, order) == (not check_outer_fan_planar(g, order).verdict)


def maximal_by_full_scans(g):
    """Maximality without the shortcut: one full scan per non-edge."""
    if oracle.outer_fan_planar_order(g) is None:
        return False
    return all(oracle.outer_fan_planar_order(add_edge(g, u, v)) is None for u, v in g.non_edges())


def test_maximality_shortcut_matches_full_scans():
    def check(g):
        maximal = oracle.is_maximal_outer_fan_planar(g)
        assert maximal == maximal_by_full_scans(g), g.edge_list()
        return maximal

    for n in range(3, 7):
        for g in all_biconnected_graphs(n):
            check(g)
    # random graphs at seven to nine vertices are rarely maximal, so grown
    # graphs, which are, join the sample
    rng = random.Random(78)
    for n in (7, 8):
        sample = [sample_biconnected(n, rng) for _ in range(150)]
        seen = {check(g) for g in sample + [grown_graph(n, rng) for _ in range(10)]}
        assert seen == {True, False}


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    """With one order per chunk, the scan and maximality cross a chunk
    border at every order; every public result must stay the same."""
    # no edge can be added to this graph's least valid order, but one can
    # be to a later one: maximality must not stop at the first chunk
    saturated_first = build_graph(7, [
        (0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 3), (1, 5),
        (2, 3), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5), (5, 6),
    ])
    orders = oracle.enumerate_embeddings_raw(saturated_first)
    assert all(
        not check_outer_fan_planar(add_edge(saturated_first, u, v), orders[0]).verdict
        for u, v in saturated_first.non_edges()
    )
    rng = random.Random(79)
    graphs = [sample_biconnected(n, rng) for n in (5, 6, 7) for _ in range(15)]
    graphs += [grown_graph(n, rng) for n in (6, 7) for _ in range(3)]
    graphs.append(saturated_first)

    def results():
        return [
            (
                oracle.outer_fan_planar_order(g),
                oracle.enumerate_embeddings_raw(g),
                oracle.is_maximal_outer_fan_planar(g),
            )
            for g in graphs
        ]

    expected = results()
    assert expected[-1][2] is False
    assert {r[2] for r in expected} == {True, False}
    monkeypatch.setattr(oracle, "_CHUNK", 1)
    oracle._stored_chunks.cache_clear()
    try:
        assert results() == expected
    finally:
        oracle._stored_chunks.cache_clear()


def test_maximality_stops_at_the_first_order_valid_with_an_edge_added(monkeypatch):
    """Graphs that are outer-fan-planar but not maximal are settled in the
    first chunk of orders; a full scan at twelve vertices takes ~20 M."""
    real = oracle._order_chunks
    drawn = []

    def counting(orders, n):
        for chunk in real(orders, n):
            drawn.append(n)
            yield chunk

    monkeypatch.setattr(oracle, "_order_chunks", counting)
    for g in (cycle_graph(12), path_graph(12), build_graph(12, [])):
        drawn.clear()
        assert not oracle.is_maximal_outer_fan_planar(g)
        assert drawn == [12]


def test_enumerate_contains_only_valid_orders():
    g = complete_two_hop_graph(7)
    for order in oracle.enumerate_embeddings_raw(g):
        assert check_outer_fan_planar(g, order).verdict
        assert all(
            classify_edge(order, e) in (EdgeClass.OUTER, EdgeClass.TWO_HOP)
            for e in g.edge_list()
        )
