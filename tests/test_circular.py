import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerfan.circular import (
    EdgeClass,
    canonicalize,
    check_outer_fan_planar,
    chords_cross,
    classify_edge,
    consecutive_run,
    crossing_lists,
    drawing_key,
    fan_planar_edges,
    positions,
    render_svg,
)
from outerfan.errors import GraphInputError
from outerfan.graph import build_graph, complete_graph, complete_two_hop_graph, cycle_graph
from outerfan.oracle import candidate_orders
from outerfan.recognizer import recognize
from outerfan.sweep import all_graphs, grown_graph


class TestClassify:
    def test_outer(self):
        assert classify_edge(tuple(range(6)), (0, 1)) is EdgeClass.OUTER

    def test_two_hop(self):
        assert classify_edge(tuple(range(6)), (0, 2)) is EdgeClass.TWO_HOP

    def test_long(self):
        assert classify_edge(tuple(range(6)), (0, 3)) is EdgeClass.LONG

    def test_wraparound(self):
        assert classify_edge(tuple(range(6)), (0, 5)) is EdgeClass.OUTER
        assert classify_edge(tuple(range(6)), (0, 4)) is EdgeClass.TWO_HOP

    def test_triangle_all_outer(self):
        for e in [(0, 1), (1, 2), (0, 2)]:
            assert classify_edge((0, 1, 2), e) is EdgeClass.OUTER

    def test_missing_endpoint(self):
        with pytest.raises(GraphInputError):
            classify_edge((0, 1, 2), (0, 5))


class TestChordsCross:
    def test_interleaved(self):
        assert chords_cross((0, 1, 2, 3), (0, 2), (1, 3))

    def test_nested(self):
        assert not chords_cross((0, 1, 2, 3), (0, 1), (2, 3))

    def test_shared_endpoint(self):
        assert not chords_cross((0, 1, 2, 3, 4), (0, 2), (2, 4))


class TestFanCheck:
    def test_k5_accepts(self):
        report = check_outer_fan_planar(complete_graph(5), (0, 1, 2, 3, 4))
        assert report.verdict
        assert report.crossings[(0, 2)] == ((1, 3), (1, 4))

    def test_k6_rejects(self):
        report = check_outer_fan_planar(complete_graph(6), tuple(range(6)))
        assert not report.verdict
        assert report.first_violation == (0, 3)
        assert (1, 4) in report.crossings[(0, 3)]
        assert (2, 5) in report.crossings[(0, 3)]

    def test_complete_two_hop_six(self):
        g = complete_two_hop_graph(6)
        report = check_outer_fan_planar(g, tuple(range(6)))
        assert report.verdict
        for i in range(6):
            e = tuple(sorted((i, (i + 2) % 6)))
            crossers = set(report.crossings[e])
            expected = {
                tuple(sorted(((i - 1) % 6, (i + 1) % 6))),
                tuple(sorted(((i + 1) % 6, (i + 3) % 6))),
            }
            assert crossers == expected

    def test_common_vertex_incidence(self):
        report = check_outer_fan_planar(complete_graph(5), (0, 1, 2, 3, 4))
        for e, crossers in report.crossings.items():
            if len(crossers) < 2:
                continue
            common = set(crossers[0])
            for f in crossers[1:]:
                common &= set(f)
            assert common
            v = common.pop()
            assert all(v in f for f in report.crossings[e])


def test_exhaustive_five_vertex_reports_match_brute_force():
    # every 5-vertex graph, every canonical order: recompute crossing lists
    # from first principles (strict interleaving of positions)
    orders = [(0, *p) for p in permutations(range(1, 5)) if p[0] < p[-1]]
    assert len(orders) == 12
    pairs = list(combinations(range(5), 2))
    for mask in range(1 << 10):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = build_graph(5, edges)
        for order in orders:
            pos = {v: i for i, v in enumerate(order)}
            expected = {e: [] for e in g.edge_list()}
            for e, f in combinations(g.edge_list(), 2):
                if set(e) & set(f):
                    continue
                a, b = sorted((pos[e[0]], pos[e[1]]))
                c, d = sorted((pos[f[0]], pos[f[1]]))
                if a < c < b < d or c < a < d < b:
                    expected[e].append(f)
                    expected[f].append(e)
            got = crossing_lists(g, order)
            assert {e: sorted(v) for e, v in expected.items()} == got


class TestCanonicalize:
    def test_rotation(self):
        assert canonicalize((2, 3, 0, 1)) == (0, 1, 2, 3)

    def test_reflection(self):
        assert canonicalize((0, 3, 2, 1)) == (0, 1, 2, 3)

    def test_triangle(self):
        assert canonicalize((1, 0, 2)) == (0, 1, 2)


order_strategy = st.permutations(range(6)).map(tuple)


@settings(max_examples=200, deadline=None)
@given(order_strategy, st.integers(0, 5), st.booleans())
def test_canonicalize_invariant_under_symmetry(order, shift, flip):
    moved = order[shift:] + order[:shift]
    if flip:
        moved = tuple(reversed(moved))
    assert canonicalize(moved) == canonicalize(order)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=0, max_size=12, unique=True).map(tuple))
def test_canonicalize_is_least_rotation_or_reflection(order):
    n = len(order)
    brute = min(
        (seq[r:] + seq[:r] for seq in (order, order[::-1]) for r in range(n)),
        default=(),
    )
    assert canonicalize(order) == brute


@settings(max_examples=200, deadline=None)
@given(order_strategy)
def test_canonicalize_idempotent(order):
    c = canonicalize(order)
    assert canonicalize(c) == c


@settings(max_examples=150, deadline=None)
@given(order_strategy, st.integers(0, 5), st.booleans())
def test_chords_cross_symmetric_and_canonical_invariant(order, shift, flip):
    e1, e2 = (order[0], order[2]), (order[1], order[4])
    moved = order[shift:] + order[:shift]
    if flip:
        moved = tuple(reversed(moved))
    assert chords_cross(order, e1, e2) == chords_cross(order, e2, e1)
    assert chords_cross(order, e1, e2) == chords_cross(moved, e1, e2)


@settings(max_examples=100, deadline=None)
@given(order_strategy, st.integers(0, 5), st.booleans())
def test_verdict_invariant_under_symmetry(order, shift, flip):
    g = complete_two_hop_graph(6)
    moved = order[shift:] + order[:shift]
    if flip:
        moved = tuple(reversed(moved))
    a = check_outer_fan_planar(g, order).verdict
    b = check_outer_fan_planar(g, moved).verdict
    assert a == b


class TestDrawingKey:
    def test_k4_orders_same_drawing(self):
        g = complete_graph(4)
        keys = {drawing_key(g, o) for o in [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]}
        assert len(keys) == 1

    def test_distinct_drawings_distinct_keys(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert drawing_key(g, (0, 1, 2, 3)) != drawing_key(g, (0, 1, 3, 2))

    def test_classes_match_the_reference(self):
        # per n, the orders of empty, cycle, complete and random graphs,
        # each with a rotation and a reflection of it, pooled
        rng = random.Random(8080)
        pairs = equal = 0
        for n in range(3, 11):
            edge_sets = list(combinations(range(n), 2))
            graphs = [build_graph(n, []), cycle_graph(n), complete_graph(n)]
            graphs += [
                build_graph(n, rng.sample(edge_sets, rng.randint(0, len(edge_sets))))
                for _ in range(9)
            ]
            keys, refs = [], []
            for g in graphs:
                for _ in range(6):
                    order = list(range(n))
                    rng.shuffle(order)
                    r = rng.randrange(n)
                    turned = tuple(order[r:] + order[:r])
                    for o in (tuple(order), turned, turned[::-1]):
                        keys.append(drawing_key(g, o))
                        refs.append(reference_drawing_key(g, o))
            for i, j in combinations(range(len(keys)), 2):
                assert (keys[i] == keys[j]) == (refs[i] == refs[j])
                pairs += 1
                equal += refs[i] == refs[j]
        assert pairs > 100_000 and 0 < equal < pairs


def reference_drawing_key(g, order):
    """The least sorted position edge list over all 2n rotations and
    reflections."""
    pos = positions(order)
    n = len(order)
    pairs = [tuple(sorted((pos[u], pos[v]))) for u, v in g.edges]
    best = None
    for flip in (False, True):
        for r in range(n):
            if flip:
                mapped = sorted(tuple(sorted(((r - a) % n, (r - b) % n))) for a, b in pairs)
            else:
                mapped = sorted(tuple(sorted(((a - r) % n, (b - r) % n))) for a, b in pairs)
            if best is None or tuple(mapped) < best:
                best = tuple(mapped)
    return best if best is not None else ()


class TestSvg:
    def test_k4_geometry(self):
        g = complete_graph(4)
        svg = render_svg(g, (0, 1, 2, 3))
        assert svg.count("<line") == 6
        assert svg.count('r="5"') == 4
        assert "crossings=1" in svg and "fan-planar=true" in svg

    def test_k5_spacing(self):
        import math
        import re

        svg = render_svg(complete_graph(5), (0, 1, 2, 3, 4))
        assert svg.count("<line") == 10
        pts = re.findall(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="5"', svg)
        assert len(pts) == 5
        angles = sorted(
            math.atan2(256 - float(y), float(x) - 256) % (2 * math.pi) for x, y in pts
        )
        gaps = [angles[i + 1] - angles[i] for i in range(4)]
        for gap in gaps:
            # coordinates are emitted with two decimals, so allow that noise
            assert abs(gap - 2 * math.pi / 5) < 1e-3

    def test_c6_no_crossings(self):
        svg = render_svg(cycle_graph(6), tuple(range(6)))
        assert "crossings=0" in svg

    def test_deterministic_bytes(self):
        g = complete_graph(5)
        assert render_svg(g, (0, 1, 2, 3, 4)) == render_svg(g, (0, 1, 2, 3, 4))


def brute_consecutive_run(order, vs):
    """The first start r whose run of len(vs) positions holds exactly vs."""
    n = len(order)
    pos = positions(order)
    ps = {pos[v] for v in vs}
    for r in range(n):
        if {(r + k) % n for k in range(len(vs))} == ps:
            return r
    return None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_consecutive_run_matches_brute_force(data):
    n = data.draw(st.integers(0, 10))
    order = tuple(data.draw(st.permutations(range(n))))
    if n and data.draw(st.booleans()):
        # an arc, possibly wrapping, so that runs are common
        start, size = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n))
        vs = {order[(start + k) % n] for k in range(size)}
    else:
        vs = set(data.draw(st.lists(st.sampled_from(order), unique=True))) if n else set()
    assert consecutive_run(order, vs) == brute_consecutive_run(order, vs)


def arc_walk_fan_planar_edges(adj, order, pos, edges, crossed=None):
    """The arc walk that the reach check replaced: whether each of ``edges``
    is crossed only by edges sharing an endpoint, each edge's crossers
    listed from the shorter arc of its chord.  Every crosser met is added to
    ``crossed`` when it is given."""
    n = len(order)
    for a, b in edges:
        i, j = pos[a], pos[b]
        if i > j:
            i, j = j, i
        if 2 * (j - i) <= n:  # from inside the arc i..j to outside it
            side = order[i + 1 : j]
            hits = [(x, y) for x in side for y in adj[x] if not i <= pos[y] <= j]
        else:  # from outside the arc to strictly inside it
            side = order[j + 1 :] + order[:i]
            hits = [(x, y) for x in side for y in adj[x] if i < pos[y] < j]
        if len({x for x, _ in hits}) > 1 and len({y for _, y in hits}) > 1:
            return False
        if crossed is not None:
            crossed.update((x, y) if x < y else (y, x) for x, y in hits)
    return True


def arc_walk_slot_is_fan_planar(adj, order, pos, v):
    """Fan-planarity of ``order`` for the graph ``adj``, given that ``order``
    without ``v`` is fan-planar for the graph without ``v``: only v's edges
    and the old edges they cross are walked."""
    crossed = set()
    return arc_walk_fan_planar_edges(
        adj, order, pos, [(v, w) for w in adj[v]], crossed
    ) and arc_walk_fan_planar_edges(adj, order, pos, crossed)


def _kernel_agrees(g, order, verdicts):
    """The kernel and the arc walk on every edge equal the reference
    verdict; when it holds, the crossers the walk met are exactly the edges
    crossed by some edge."""
    pos = positions(order)
    crossed = set()
    walked = arc_walk_fan_planar_edges(g.adj, order, pos, g.edges, crossed)
    report = check_outer_fan_planar(g, order)
    assert walked == report.verdict, (g.edge_list(), order)
    if walked:
        assert crossed == {f for lst in report.crossings.values() for f in lst}
    assert fan_planar_edges(g.adj, order, pos, g.edges) == report.verdict, (
        g.edge_list(),
        order,
    )
    verdicts[report.verdict] += 1


class TestFanKernel:
    """``fan_planar_edges`` and the arc walk it replaced against
    ``check_outer_fan_planar``."""

    def test_every_small_graph_on_every_canonical_order(self):
        verdicts = {True: 0, False: 0}
        for n in range(6):
            orders = list(candidate_orders(n))
            for g in all_graphs(n):
                for order in orders:
                    _kernel_agrees(g, order, verdicts)
        # every order of K5 is fan-planar, so every order of a subgraph is
        assert verdicts[True] == 12_492 and verdicts[False] == 0

    def test_random_graphs_on_random_orders(self):
        rng = random.Random(606)
        verdicts = {True: 0, False: 0}
        for n in range(6, 13):
            pairs = list(combinations(range(n), 2))
            for _ in range(30):
                g = build_graph(n, rng.sample(pairs, rng.randint(0, min(3 * n, len(pairs)))))
                for _ in range(8):
                    order = list(range(n))
                    rng.shuffle(order)
                    _kernel_agrees(g, tuple(order), verdicts)
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_grown_drawings_and_their_transpositions(self):
        rng = random.Random(1664)
        verdicts = {True: 0, False: 0}
        for n in (16, 32, 64):
            g = grown_graph(n, rng)
            for order in recognize(g).embeddings:
                _kernel_agrees(g, order, verdicts)
                for i, j in combinations(range(n), 2):
                    moved = list(order)
                    moved[i], moved[j] = moved[j], moved[i]
                    _kernel_agrees(g, tuple(moved), verdicts)
        assert verdicts[True] > 0 and verdicts[False] > 0


def _wrapped_ends(report, order):
    """Whether some edge whose shorter side passes over position 0 has
    crossers with two or more ends on that side."""
    pos = positions(order)
    n = len(order)
    for (a, b), crossers in report.crossings.items():
        i, j = sorted((pos[a], pos[b]))
        if 2 * (j - i) > n:
            ends = {x if not i < pos[x] < j else y for x, y in crossers}
            if len(ends) > 1:
                return True
    return False


def _agrees(g, order):
    """The kernel's verdict equals the reference's; returns the report."""
    report = check_outer_fan_planar(g, order)
    assert fan_planar_edges(g.adj, order, positions(order), g.edges) == report.verdict, (
        g.edge_list(),
        order,
    )
    return report


class TestReachKernel:
    """Edge cases of ``fan_planar_edges``, each against
    ``check_outer_fan_planar``."""

    def test_three_vertices_or_fewer(self):
        for n in range(4):
            for g in all_graphs(n):
                for order in permutations(range(n)):
                    assert _agrees(g, order).verdict

    def test_every_rotation_and_reflection_at_odd_and_even_n(self):
        # each order is read at every offset, so the shorter side of every
        # chord passes over position 0 in some of them
        # on random graphs and orders, and on grown graphs' drawings
        rng = random.Random(2718)
        seen = {(parity, verdict): 0 for parity in (0, 1) for verdict in (True, False)}
        for n in range(4, 13):
            pairs = list(combinations(range(n), 2))
            cases = []
            for _ in range(12):
                g = build_graph(n, rng.sample(pairs, rng.randint(n, min(3 * n, len(pairs)))))
                order = list(range(n))
                rng.shuffle(order)
                cases.append((g, order))
            if n >= 6:
                g = grown_graph(n, rng)
                cases += [(g, list(order)) for order in recognize(g).embeddings]
            for g, order in cases:
                for seq in (order, order[::-1]):
                    for r in range(n):
                        turned = tuple(seq[r:] + seq[:r])
                        report = _agrees(g, turned)
                        if _wrapped_ends(report, turned):
                            seen[n % 2, report.verdict] += 1
        assert min(seen.values()) > 0, seen

    def test_isolated_vertices(self):
        rng = random.Random(31)
        verdicts = {True: 0, False: 0}
        pairs = list(combinations(range(6), 2))
        graphs = [complete_graph(5), complete_two_hop_graph(6)]
        graphs += [build_graph(6, rng.sample(pairs, rng.randint(8, 12))) for _ in range(2)]
        for g in graphs:
            # the same edges with the last two vertex ids isolated
            g = build_graph(8, g.edges)
            for order in candidate_orders(8):
                verdicts[_agrees(g, order).verdict] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            # chord 0-4 read from inside: a fan with three ends inside and its
            # apex 6 outside, a fan with its apex 2 inside, and a broken one
            (8, [(0, 4), (1, 6), (2, 6), (3, 6)], True),
            (8, [(0, 4), (5, 2), (6, 2), (7, 2)], True),
            (8, [(0, 4), (1, 6), (2, 7)], False),
            # chord 1-6 read over position 0, from 7 and 0
            (8, [(1, 6), (7, 3), (0, 3)], True),
            (8, [(1, 6), (7, 3), (7, 4), (7, 5)], True),
            (8, [(1, 6), (7, 3), (0, 4)], False),
            (9, [(1, 7), (8, 3), (0, 3)], True),
            (9, [(1, 7), (8, 2), (8, 5), (8, 6)], True),
            (9, [(1, 7), (8, 3), (0, 4)], False),
            (9, [(0, 4), (1, 6), (2, 6), (3, 6)], True),
            (9, [(0, 4), (1, 6), (3, 7)], False),
        ],
    )
    def test_fans_from_either_side(self, n, edges, expected):
        g = build_graph(n, edges)
        for r in range(n):  # and read at every offset
            order = tuple((v + r) % n for v in range(n))
            assert _agrees(g, order).verdict is expected

    def test_grown_drawings_with_every_single_vertex_move(self):
        # the reference costs about 13 ms per order at n = 100, so from
        # n = 48 on the moves are held to the arc walk, which the tests above
        # hold to the reference, and every move the kernel accepts plus
        # every 100th one to the reference itself
        rng = random.Random(100)
        verdicts = {True: 0, False: 0}
        for n in (8, 16, 24, 48, 100):
            g = grown_graph(n, rng)
            order = recognize(g).embeddings[0]
            moves = set()
            for v in order:
                rest = [x for x in order if x != v]
                moves.update(tuple(rest[:k] + [v] + rest[k:]) for k in range(n))
            for t, moved in enumerate(sorted(moves)):
                pos = positions(moved)
                got = fan_planar_edges(g.adj, moved, pos, g.edges)
                if n <= 24 or got or t % 100 == 0:
                    assert got == _agrees(g, moved).verdict
                else:
                    assert got == arc_walk_fan_planar_edges(g.adj, moved, pos, g.edges)
                verdicts[got] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0
