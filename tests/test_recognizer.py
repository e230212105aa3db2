import ast
import json
import random
import re
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

from outerfan import circular, graph, oracle, recognizer, spqr, sweep
from outerfan.cli import main
from outerfan.circular import (
    EdgeClass,
    canonicalize,
    check_outer_fan_planar,
    classify_edge,
    consecutive_run,
    fan_planar_edges,
    positions,
)
from outerfan.errors import StructuralError
from outerfan.graph import (
    build_graph,
    complete_graph,
    complete_two_hop_graph,
    cycle_graph,
    format_edge_list,
    glued_chain,
    is_triconnected,
    norm_edge,
    path_graph,
)
from outerfan.recognizer import (
    Verdict,
    _recognize_3connected_raw,
    is_complete_2hop,
    is_porous,
    recognize,
    recognize_3connected,
)
from outerfan.sweep import (
    all_biconnected_graphs,
    all_graphs,
    grown_graph,
    sample_biconnected,
)
from test_acceptance import oracle_completion
from test_circular import arc_walk_fan_planar_edges, arc_walk_slot_is_fan_planar
from test_digests import load_script as load_digest_script
from test_graph import add_edge, degree3_k4_vertices, remove_vertex
from test_spqr import bundle, cycle_plus_chords, piece, two_sum


def remark6_graph():
    """Six vertices: a 5-clique missing one edge between a neighbor of the
    degree-3 vertex and a non-neighbor, plus that degree-3 vertex."""
    base = [e for e in complete_graph(5).edges if e != (0, 3)]
    return build_graph(6, base + [(5, 0), (5, 1), (5, 2)])


class TestCompleteTwoHop:
    def test_k5(self):
        got = is_complete_2hop(complete_graph(5))
        assert got is not None
        assert got.orders == ((0, 1, 2, 3, 4),)
        assert got.raw_candidates == 1

    def test_k4(self):
        got = is_complete_2hop(complete_graph(4))
        assert got is not None and got.orders == ((0, 1, 2, 3),)

    def test_octahedron(self):
        got = is_complete_2hop(complete_two_hop_graph(6))
        assert got is not None
        assert got.raw_candidates == 6
        assert got.orders == (
            (0, 1, 2, 3, 4, 5),
            (0, 1, 5, 3, 4, 2),
            (0, 2, 1, 3, 5, 4),
            (0, 4, 2, 3, 1, 5),
        )

    def test_seven(self):
        got = is_complete_2hop(complete_two_hop_graph(7))
        assert got is not None
        assert got.raw_candidates <= 6
        assert got.orders == oracle.enumerate_embeddings_raw(complete_two_hop_graph(7))

    def test_k5_minus_edge_absent(self):
        g = build_graph(5, [e for e in complete_graph(5).edges if e != (1, 3)])
        assert is_complete_2hop(g) is None

    def test_four_regular_but_not_two_hop(self):
        # 4-regular bipartite K_{4,4} minus a perfect matching is 3-regular;
        # use the 3-cube plus diagonals instead: degree test passes but the
        # cyclic growth must fail
        g = build_graph(
            8,
            [
                (0, 1), (1, 2), (2, 3), (3, 0),
                (4, 5), (5, 6), (6, 7), (7, 4),
                (0, 4), (1, 5), (2, 6), (3, 7),
                (0, 5), (1, 4), (2, 7), (3, 6),
            ],
        )
        assert all(g.degree(v) == 4 for v in range(8))
        assert is_complete_2hop(g) is None


class TestRecognizeNamedCases:
    def test_k5_single_embedding(self):
        out = recognize(complete_graph(5))
        assert out.accepted
        assert out.embeddings == ((0, 1, 2, 3, 4),)

    def test_triangle(self):
        out = recognize(cycle_graph(3))
        assert out.accepted and out.embeddings == ((0, 1, 2),)

    def test_k4(self):
        out = recognize(complete_graph(4))
        assert out.accepted and out.embeddings == ((0, 1, 2, 3),)

    def test_p3_not_biconnected(self):
        assert recognize(path_graph(3)).verdict is Verdict.REJECTED_NOT_BICONNECTED

    def test_c5_rejected(self):
        out = recognize(cycle_graph(5))
        assert out.verdict is Verdict.REJECTED_STRUCTURE
        assert not oracle.is_maximal_outer_fan_planar(cycle_graph(5))

    def test_remark6_family(self):
        g = remark6_graph()
        out = recognize(g)
        assert out.accepted
        assert oracle.is_maximal_outer_fan_planar(g)
        assert out.embeddings == oracle.enumerate_embeddings(g)

    def test_octahedron_plus_chord(self):
        g = add_edge(complete_two_hop_graph(6), 0, 3)
        out = recognize(g)
        assert not out.accepted
        assert not oracle.is_maximal_outer_fan_planar(g)

    def test_two_k4s_sharing_an_edge(self):
        k4a = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        k4b = [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
        g = build_graph(6, k4a + k4b)
        out = recognize(g)
        assert out.verdict is Verdict.REJECTED_STRUCTURE
        assert "porous" in out.reason or "addable" in out.reason
        assert not oracle.is_maximal_outer_fan_planar(g)

    def test_k4_minus_edge_rejected(self):
        g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        assert not recognize(g).accepted
        assert not oracle.is_maximal_outer_fan_planar(g)


class TestOuterRequired:
    def test_k4_each_edge_placeable_outside(self):
        g = complete_graph(4)
        for e in g.edge_list():
            out = recognize_3connected(g, {e})
            assert out.accepted
            for order in out.embeddings:
                assert classify_edge(order, e) is EdgeClass.OUTER

    def test_k4_three_edges_at_one_vertex_impossible(self):
        out = recognize_3connected(complete_graph(4), {(0, 1), (0, 2), (0, 3)})
        assert out.verdict is Verdict.REJECTED_NO_EMBEDDING

    def test_requires_triconnected(self):
        with pytest.raises(StructuralError):
            recognize_3connected(cycle_graph(5), set())

    def test_required_edge_must_exist(self):
        with pytest.raises(StructuralError):
            recognize_3connected(complete_two_hop_graph(6), {(0, 3)})

    def test_two_hop_graph_with_required_long_placement(self):
        g = complete_two_hop_graph(7)
        out = recognize_3connected(g, {(0, 1)})
        assert out.accepted
        for order in out.embeddings:
            assert classify_edge(order, (0, 1)) is EdgeClass.OUTER


class TestPorosity:
    def test_triangle_always_porous(self):
        g = cycle_graph(3)
        drawings = [(0, 1, 2)]
        for e in g.edge_list():
            for around in e:
                assert is_porous(g, drawings, e, around)

    def test_k4_outer_edges_porous(self):
        g = complete_graph(4)
        drawings = list(oracle.enumerate_embeddings_raw(g))
        order = drawings[0]
        for i in range(4):
            e = tuple(sorted((order[i], order[(i + 1) % 4])))
            for around in e:
                assert is_porous(g, drawings, e, around)

    def test_six_vertex_instance_facts(self):
        # reconstructed porosity instance: a maximal drawing where an outer
        # edge is porous around exactly one endpoint, checked via exhaustive
        # search on the extended graph
        g = remark6_graph()
        d = (0, 1, 4, 3, 2, 5)
        assert d in oracle.enumerate_embeddings_raw(g)
        assert is_porous(g, [d], (3, 4), around=4)
        assert not is_porous(g, [d], (3, 4), around=3)
        assert is_porous(g, [d], (2, 3), around=3)
        assert not is_porous(g, [d], (2, 3), around=2)
        assert not is_porous(g, [d], (0, 1), around=0)
        assert not is_porous(g, [d], (0, 1), around=1)

    def test_porous_implies_extended_graph_embeddable(self):
        g = remark6_graph()
        d = (0, 1, 4, 3, 2, 5)
        pos = {v: i for i, v in enumerate(d)}
        for e, around in [((3, 4), 4), ((2, 3), 3)]:
            other = e[1] if around == e[0] else e[0]
            i = pos[around]
            left, right = d[(i - 1) % 6], d[(i + 1) % 6]
            w = left if right == other else right
            ext = build_graph(7, list(g.edges) + [(6, w)])
            assert oracle.outer_fan_planar_order(ext) is not None

    def test_drawing_that_is_not_fan_planar_never_counts(self):
        # (0, 3) is crossed by (1, 4) and (2, 5), which share no endpoint;
        # the new vertex 7, hung across (5, 6) and joined to 0, crosses
        # neither, so the arc-walk slot check alone would accept the
        # insertion, while the whole extended drawing is checked
        g = build_graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3), (1, 4), (2, 5)])
        d = tuple(range(7))
        assert not check_outer_fan_planar(g, d).verdict
        ext = add_edge(build_graph(8, g.edges), 7, 0)
        ext_order = (0, 1, 2, 3, 4, 5, 7, 6)
        assert arc_walk_slot_is_fan_planar(ext.adj, ext_order, positions(ext_order), 7)
        assert not recognizer._porous_in_drawing(g, d, (5, 6), 6)
        assert not reference_porous_in_drawing(g, d, (5, 6), 6)
        assert not is_porous(g, [d], (5, 6), around=6)

    def test_non_outer_edge_rejected(self):
        g = remark6_graph()
        with pytest.raises(StructuralError):
            is_porous(g, [(0, 1, 4, 3, 2, 5)], (0, 3), around=0)


class TestPeelSoundness:
    # an accepted 3-connected 7-vertex graph (from a seeded sweep), dense
    # enough that the peel runs for several rounds
    SEVEN = [
        (0, 2), (0, 3), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3),
        (2, 4), (2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (4, 6),
    ]

    def test_peel_preserves_triconnectivity_and_maximality(self):
        # replay the deterministic peel rule on an accepted graph:
        # intermediates stay 3-connected while they have at least four
        # vertices, and stay maximal while the pre-removal graph has more
        # than six (below that the maximality-preservation argument does not
        # apply: peeling a 6-vertex graph yields a 5-clique minus an edge)
        g = build_graph(7, self.SEVEN)
        assert recognize(g).accepted
        current = g
        while current.n > 3:
            candidates = degree3_k4_vertices(current)
            assert candidates
            v, _ = candidates[0]
            before = current.n
            current = remove_vertex(current, v)
            if current.n >= 4:
                assert is_triconnected(current)
            if before > 6:
                assert oracle.is_maximal_outer_fan_planar(current)
        assert current.m == 3

    def test_six_vertex_peel_leaves_near_clique(self):
        g = remark6_graph()
        v, _ = degree3_k4_vertices(g)[0]
        peeled = remove_vertex(g, v)
        # one edge short of a 5-clique, hence not maximal on its own
        assert peeled.n == 5 and peeled.m == 9
        assert not oracle.is_maximal_outer_fan_planar(peeled)


class TestEquivalenceMiniSweeps:
    def test_exhaustive_up_to_five(self):
        pairs = {n: list(combinations(range(n), 2)) for n in (3, 4, 5)}
        for n in (3, 4, 5):
            for mask in range(1 << len(pairs[n])):
                g = build_graph(n, [p for i, p in enumerate(pairs[n]) if mask >> i & 1])
                from outerfan.graph import is_biconnected

                if not is_biconnected(g):
                    continue
                out = recognize(g)
                assert out.accepted == oracle.is_maximal_outer_fan_planar(g), g.edge_list()
                if out.accepted:
                    assert out.embeddings == oracle.enumerate_embeddings(g)

    def test_sampled_six_and_seven(self):
        rng = random.Random(42)
        for n, count in [(6, 250), (7, 120)]:
            for _ in range(count):
                g = sample_biconnected(n, rng)
                out = recognize(g)
                assert out.accepted == oracle.is_maximal_outer_fan_planar(g), g.edge_list()
                if out.accepted:
                    assert out.embeddings == oracle.enumerate_embeddings(g)
                    assert out.max_live_drawings <= 4
                    assert all(
                        g.m in (2 * g.n, 3 * g.n - 6)
                        for _ in [0]
                        if is_triconnected(g)
                    )


class TestOutcomeSerialization:
    def test_json_dict(self):
        out = recognize(complete_graph(5))
        d = out.to_json_dict()
        assert d["verdict"] == "accepted"
        assert d["embeddings"] == [[0, 1, 2, 3, 4]]
        assert isinstance(d["trace"], list)


class TestIncrementalSlotCheck:
    """The arc-walk slot check and the whole-drawing kernel against the
    reference checker.

    Deleting a vertex from a fan-planar order leaves a fan-planar order of
    the graph without it, which is the incremental check's precondition; the
    vertex is then put back at every position of that order."""

    @staticmethod
    def _compare_every_slot(g, order, verdicts):
        assert check_outer_fan_planar(g, order).verdict
        for v in range(g.n):
            rest = tuple(x for x in order if x != v)
            for k in range(len(rest)):
                cand = rest[:k] + (v,) + rest[k:]
                pos = positions(cand)
                expected = check_outer_fan_planar(g, cand).verdict
                got = arc_walk_slot_is_fan_planar(g.adj, cand, pos, v)
                assert got == expected, (g.edge_list(), cand, v)
                assert fan_planar_edges(g.adj, cand, pos, g.edges) == expected
                verdicts[expected] += 1

    def test_grown_graphs(self):
        rng = random.Random(7)
        verdicts = {True: 0, False: 0}
        for n in (6, 9, 14, 20):
            for _ in range(3):
                g = grown_graph(n, rng)
                self._compare_every_slot(g, recognize(g).embeddings[0], verdicts)
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_random_biconnected_graphs(self):
        rng = random.Random(11)
        verdicts = {True: 0, False: 0}
        for n in (5, 6, 7, 8):
            for _ in range(25):
                g = sample_biconnected(n, rng)
                order = oracle.outer_fan_planar_order(g)
                if order is not None:
                    self._compare_every_slot(g, order, verdicts)
        assert verdicts[True] > 0 and verdicts[False] > 0


def test_small_triconnected_base_case_matches_oracle():
    # a 3-connected graph on four or five vertices is maximal iff complete;
    # its raw drawing set (what a rigid SPQR skeleton receives) must be the
    # oracle's full list of valid canonical orders
    counts = {4: 0, 5: 0}
    for n in counts:
        for g in all_graphs(n):
            if not is_triconnected(g):
                continue
            counts[n] += 1
            maximal = oracle.is_maximal_outer_fan_planar(g)
            assert maximal == (g.m == n * (n - 1) // 2)
            out = recognize(g)
            assert out.accepted == maximal and out.path == "base"
            raw = _recognize_3connected_raw(g, frozenset())
            if maximal:
                assert tuple(raw.orders) == oracle.enumerate_embeddings_raw(g)
                assert out.embeddings == oracle.enumerate_embeddings(g)
            else:
                assert raw.orders == [] and out.embeddings == ()
    assert counts == {4: 1, 5: 26}


def test_recognizer_does_not_import_oracle():
    tree = ast.parse(Path(recognizer.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(
                f"{node.module or ''}.{alias.name}" for alias in node.names
            )
    assert not any(name.split(".")[-1] == "oracle" for name in imported), imported


class TestGrownFamily:
    def test_small_grown_graphs_are_maximal(self):
        rng = random.Random(5)
        for n in (4, 6, 7, 8):
            for _ in range(4):
                g = grown_graph(n, rng)
                assert oracle.is_maximal_outer_fan_planar(g), g.edge_list()

    def test_grown_graphs_at_64_accepted_on_peel_path(self):
        rng = random.Random(64)
        for _ in range(2):
            g = grown_graph(64, rng)
            assert g.m == 3 * g.n - 6
            out = recognize(g)
            assert out.accepted and out.path == "peel"
            assert out.embeddings
            for order in out.embeddings:
                assert check_outer_fan_planar(g, order).verdict

    def test_generator_matches_the_reference_check_version(self):
        for seed in range(5):
            for n in (6, 7, 9, 12, 16, 24, 32, 64):
                got = grown_graph(n, random.Random(seed)).edge_list()
                assert got == reference_grown_graph(n, random.Random(seed)).edge_list()

    def test_recognition_searches_no_pair(self, monkeypatch):
        # a grown graph is a 3-tree, so its peel is the certificate: no
        # lowpoint search runs, neither for biconnectivity nor once per
        # deleted vertex
        skips = []
        search = graph._pieces_left

        def counting(nbrs, skip=-1):
            skips.append(skip)
            return search(nbrs, skip)

        g = grown_graph(64, random.Random(64))
        monkeypatch.setattr(graph, "_pieces_left", counting)
        out = recognize(g)
        assert out.accepted and out.path == "peel"
        assert skips == []


def reference_grown_graph(n, rng):
    """``sweep.grown_graph`` deciding each slot with the reference check on
    the whole drawing."""
    order = [0, 1, 2]
    edges = {(0, 1), (0, 2), (1, 2)}
    for v in range(3, n):
        s = len(order)
        slots = [(i, side) for i in range(s) for side in (0, 1)]
        rng.shuffle(slots)
        for i, side in slots:
            x, y, z = order[i - 1], order[i], order[(i + 1) % s]
            if not {norm_edge(x, y), norm_edge(y, z), norm_edge(x, z)} <= edges:
                continue
            cand = order[: i + side] + [v] + order[i + side :]
            grown = edges | {norm_edge(v, x), norm_edge(v, y), norm_edge(v, z)}
            if check_outer_fan_planar(build_graph(v + 1, grown), tuple(cand)).verdict:
                order, edges = cand, grown
                break
        else:
            raise RuntimeError(f"no fan-planar slot for vertex {v}")
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def icosahedron():
    """5-regular and 3-connected with 3n - 6 edges: its peel removes nothing."""
    return build_graph(12, nx.icosahedral_graph().edges())


def test_recognize_builds_one_tree_and_tests_no_triconnectivity(monkeypatch):
    """Every biconnected input costs one SPQR build and no separate
    3-connectivity test, except a 3-tree, which costs one peel and no build;
    a 3-connected input with 3n - 6 edges is peeled once whatever its path;
    3-connected inputs leave no SPQR trace line.  An input that is not
    biconnected costs one build, whose first search rejects it."""
    real_build, real_tri = spqr.build_spqr, graph.is_triconnected
    real_peel = graph.peel_degree3_k4
    calls = {"build_spqr": 0, "is_triconnected": 0, "peel": 0}

    def counting_build(g):
        calls["build_spqr"] += 1
        return real_build(g)

    def counting_tri(g):
        calls["is_triconnected"] += 1
        return real_tri(g)

    def counting_peel(adj):
        calls["peel"] += 1
        return real_peel(adj)

    monkeypatch.setattr(spqr, "build_spqr", counting_build)
    for module in (graph, recognizer):
        monkeypatch.setattr(module, "peel_degree3_k4", counting_peel)
    for module in (graph, spqr):
        monkeypatch.setattr(module, "is_triconnected", counting_tri)
    assert not hasattr(recognizer, "is_triconnected")

    rng = random.Random(44)
    inputs = [complete_graph(4), complete_graph(5), complete_two_hop_graph(8)]
    inputs += [cycle_graph(3), cycle_graph(6), remark6_graph()]
    inputs += [complete_two_hop_graph(6), icosahedron()]
    inputs += [grown_graph(n, rng) for n in (6, 7, 9, 12, 16)]
    inputs += [sample_biconnected(n, rng) for n in (5, 6, 7, 8) for _ in range(10)]
    seen_accepted_3connected = three_trees = 0
    for g in inputs:
        calls.update(build_spqr=0, is_triconnected=0, peel=0)
        out = recognize(g)
        made = dict(calls)  # the reference checks below peel too
        three_tree = (
            g.n >= 4 and g.m == 3 * g.n - 6 and len(real_peel(dict(enumerate(g.adj)))[1]) == 3
        )
        three_trees += three_tree
        assert made["build_spqr"] == (0 if three_tree else 1), g.edge_list()
        assert made["is_triconnected"] == 0, g.edge_list()
        if g.n >= 4 and g.m == 3 * g.n - 6 and real_tri(g):
            assert made["peel"] == 1, g.edge_list()
        if out.accepted and real_tri(g):
            seen_accepted_3connected += 1
            assert out.path in {"base", "two_hop", "peel"}
            assert not any(line.startswith("spqr tree") for line in out.trace)
    assert seen_accepted_3connected >= 8
    assert three_trees >= 6

    calls.update(build_spqr=0, is_triconnected=0, peel=0)
    recognize(path_graph(5))
    assert calls == {"build_spqr": 1, "is_triconnected": 0, "peel": 0}


def test_connectivity_is_decided_once(monkeypatch):
    """A tree-path input costs ``recognize`` no lowpoint search of
    :mod:`outerfan.graph`: the SPQR build decides biconnectivity in its own
    first search.  ``recognize_3connected`` decides its gate as
    ``is_triconnected`` does without calling it, and peels at most once."""
    real_pieces, real_tri = graph._pieces_left, graph.is_triconnected
    real_peel = graph.peel_degree3_k4
    calls = {"pieces": 0, "is_triconnected": 0, "peel": 0}

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(graph, "_pieces_left", counting("pieces", real_pieces))
    for module in (graph, spqr):
        monkeypatch.setattr(module, "is_triconnected", counting("is_triconnected", real_tri))
    for module in (graph, recognizer):
        monkeypatch.setattr(module, "peel_degree3_k4", counting("peel", real_peel))

    rng = random.Random(16)
    biconnected = [cycle_graph(6), icosahedron(), complete_two_hop_graph(9)]
    biconnected += [cycle_plus_chords(n, rng) for n in (8, 12, 30)]
    biconnected += [sample_biconnected(n, rng) for n in (5, 6, 7, 8) for _ in range(5)]
    tree_path = [  # not 3-trees
        g for g in biconnected
        if g.m != 3 * g.n - 6 or len(real_peel(dict(enumerate(g.adj)))[1]) != 3
    ]
    assert len(tree_path) >= 20
    for g in tree_path:
        calls["pieces"] = 0
        recognize(g)
        assert calls["pieces"] == 0, g.edge_list()

    wheel = build_graph(7, [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)])
    inputs = biconnected + [wheel, remark6_graph(), complete_graph(4), complete_graph(5)]
    inputs += [path_graph(4)]
    inputs += [grown_graph(n, rng) for n in (6, 9, 16)] + [cycle_graph(3), build_graph(2, [])]
    raised = 0
    for g in inputs:
        expected = real_tri(g)
        calls.update(is_triconnected=0, peel=0)
        try:
            recognize_3connected(g)
        except StructuralError as exc:
            assert str(exc) == "input graph is not 3-connected"
            assert not expected, g.edge_list()
            raised += 1
        else:
            assert expected, g.edge_list()
        assert calls["is_triconnected"] == 0, g.edge_list()
        assert calls["peel"] <= 1, g.edge_list()
    assert 10 <= raised <= len(inputs) - 10


def test_recognize_decides_biconnectivity_in_the_build(monkeypatch):
    """``recognize`` calls no ``is_biconnected``: a cycle-plus-chords graph
    costs exactly one palm-tree search, the SPQR build's, and a 3-tree
    none."""
    real_palm = spqr._palm_tree
    searched = []

    def counting_palm(g):
        searched.append(g)
        return real_palm(g)

    def no_gate(g):
        raise AssertionError("is_biconnected ran")

    monkeypatch.setattr(spqr, "_palm_tree", counting_palm)
    monkeypatch.setattr(graph, "is_biconnected", no_gate)
    assert not hasattr(recognizer, "is_biconnected")
    rng = random.Random(2101)
    for n in (10, 25, 50):
        g = cycle_plus_chords(n, rng)
        searched.clear()
        assert recognize(g).verdict is not Verdict.REJECTED_NOT_BICONNECTED
        assert searched == [g]
    for n in (6, 12, 24):
        searched.clear()
        assert recognize(grown_graph(n, rng)).accepted
        assert searched == []


def test_not_biconnected_verdict_matches_is_biconnected():
    """``recognize`` rejects a graph as not biconnected, for that reason,
    exactly when ``is_biconnected`` says it is not: on every labeled graph
    with at most five vertices and on the cut-vertex corpus of
    ``scripts/outcome_digest.py``."""
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += load_digest_script().cut_corpus()
    rejected = 0
    for g in graphs:
        out = recognize(g)
        gate = out.verdict is Verdict.REJECTED_NOT_BICONNECTED
        assert gate == (not graph.is_biconnected(g)), g.edge_list()
        if gate:
            assert out.reason == "graph is not biconnected"
            rejected += 1
    assert len(graphs) - rejected >= 200 and rejected >= 1000


def test_recognize_dispatches_as_the_tree_path():
    """``recognize``'s biconnectivity gate and 3-tree peel give what the
    tree path that the sweep runs gives, on every biconnected graph with
    n = 4..6 and 3n - 6 edges and on every biconnected seven-vertex class."""
    graphs = [
        g
        for n in (4, 5, 6)
        for edges in combinations(combinations(range(n), 2), 3 * n - 6)
        if graph.is_biconnected(g := build_graph(n, edges))
    ]
    assert len(graphs) == 466
    graphs += [
        build_graph(7, h.edges())
        for h in nx.graph_atlas_g()
        if h.number_of_nodes() == 7 and nx.is_biconnected(h)
    ]
    assert len(graphs) == 466 + 468
    for g in graphs:
        by_tree = recognizer._recognize_from_tree(g, spqr.build_spqr(g))
        assert recognize(g).to_json_dict() == by_tree.to_json_dict(), g.edge_list()


SHAPE_REJECTION = re.compile(
    r"rigid node adjacent to|series node \d+ is a cycle of length"
    r"|parallel node \d+ needs exactly three edges"
)


def test_skeleton_views_are_built_when_a_check_reads_them(monkeypatch):
    """On the tree path, a rejection at a rigid skeleton builds the views of
    the rigid nodes up to that one; a rejection by the tree's shape (rigid
    adjacency, series length, parallel edge count) builds the rigid views
    only; a graph that reaches the parallel-node porosity checks builds
    every node's view once, the rigid ones first, and an accepted one
    lists the oracle's drawings."""
    real_view = recognizer._skeleton_view
    built = []

    def counting_view(node):
        built.append(node.id)
        return real_view(node)

    monkeypatch.setattr(recognizer, "_skeleton_view", counting_view)
    rng = random.Random(1021)
    graphs = [
        build_graph(h.number_of_nodes(), h.edges())
        for h in nx.graph_atlas_g()
        if 5 <= h.number_of_nodes() <= 7 and nx.is_biconnected(h)
    ]
    graphs += [cycle_plus_chords(n, rng) for n in range(20, 51, 2)]
    for _ in range(150):
        g = piece(rng)
        for _ in range(rng.randint(1, 3)):
            g = two_sum(g, piece(rng), rng)
        graphs.append(g)
    graphs += [bundle([piece(rng) for _ in range(3)], True, rng) for _ in range(30)]
    graphs += [oracle_completion(8, rng)[0] for _ in range(40)]
    cases = {"rigid": 0, "shape": 0, "all": 0, "accepted": 0}
    for g in graphs:
        built.clear()
        out = recognize(g)
        if out.path != "spqr":
            assert built == []
            continue
        tree = spqr.build_spqr(g)
        rigid = [node.id for node in tree.nodes if node.kind == "R"]
        at_rigid = re.match(r"rigid skeleton at node (\d+):", out.reason or "")
        if at_rigid:
            case, expected = "rigid", [x for x in rigid if x <= int(at_rigid[1])]
        elif SHAPE_REJECTION.match(out.reason or ""):
            case, expected = "shape", rigid
        else:
            case = "accepted" if out.accepted else "all"
            expected = rigid + [node.id for node in tree.nodes if node.kind != "R"]
        assert built == expected, (case, out.reason, g.edge_list())
        cases[case] += 1
        if out.accepted and g.n <= 8:
            assert out.embeddings == oracle.enumerate_embeddings(g), g.edge_list()
    assert min(cases.values()) >= 10, cases


def test_sweep_checks_the_tree_recognition_used(monkeypatch):
    """The sweep builds one SPQR tree per graph, hands that tree to
    ``verify_tree``, and reads the 3-connected path from it."""
    real_build, real_verify = spqr.build_spqr, spqr.verify_tree
    built, verified = [], []

    def counting_build(g):
        built.append(real_build(g))
        return built[-1]

    def recording_verify(tree, g):
        verified.append(tree)
        return real_verify(tree, g)

    monkeypatch.setattr(spqr, "build_spqr", counting_build)
    monkeypatch.setattr(spqr, "verify_tree", recording_verify)
    result = sweep.run_exhaustive_sweep(max_n=5)
    result_random = sweep.run_random_sweep(sizes=(6, 7), samples_per_size=40, seed=3)
    checked = result.graphs_checked + result_random.graphs_checked
    assert len(built) == checked
    assert all(t is b for t, b in zip(verified, built)) and len(verified) == checked
    records = result.accepted + result_random.accepted
    assert {rec.triconnected_path for rec in records} == {True, False}
    for rec in records:
        assert rec.triconnected_path == is_triconnected(build_graph(rec.n, rec.edges))


def test_recognize_runs_no_reference_fan_check(monkeypatch):
    """Every fan check of a recognition runs on the shorter-arc kernel; the
    reference ``check_outer_fan_planar`` is never called."""
    rng = random.Random(303)
    inputs = [grown_graph(n, rng) for n in (6, 9, 16, 24)]
    inputs += [complete_two_hop_graph(n) for n in (6, 8, 11)]
    inputs += list(all_biconnected_graphs(5))
    inputs += [sample_biconnected(6, rng) for _ in range(150)]
    calls = []

    def counting(*args):
        calls.append(args)
        return check_outer_fan_planar(*args)

    monkeypatch.setattr(circular, "check_outer_fan_planar", counting)
    monkeypatch.setattr(recognizer, "check_outer_fan_planar", counting, raising=False)
    accepted_paths = {out.path for out in map(recognize, inputs) if out.accepted}
    assert accepted_paths == {"base", "two_hop", "peel", "spqr"}
    assert calls == []


def reference_peel_sequence(g, outer_required=frozenset()):
    """The trace lines of :func:`reference_peel`."""
    return reference_peel(g, outer_required)[0]


def reference_peel(g, outer_required=frozenset()):
    """The peel as it picked vertices before the worklist: every step rescans
    the vertices in sorted order for the least degree-3 vertex of a 4-clique,
    and the marks are rescanned too.  Returns the trace lines the peel
    writes, rejection line included, the records (vertex, neighbors, edges
    marked) of the removals, or None after a rejection, the marks and the
    adjacency left."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    marks = {e: None for e in outer_required}
    marked_triangles = []
    records = []
    lines = []
    while True:
        pick = None
        for v in sorted(adj):
            if len(adj[v]) != 3:
                continue
            a, b, c = sorted(adj[v])
            if b in adj[a] and c in adj[a] and c in adj[b]:
                pick = (v, (a, b, c))
                break
        if pick is None:
            break
        v, nbrs = pick
        present = set(adj)
        tris_with_v = [t for t in marked_triangles if v in t and t <= present]
        marked_edges_at_v = [
            e for e in marks if v in e and e[0] in present and e[1] in present
        ]
        if len(tris_with_v) >= 3 or len(marked_edges_at_v) >= 3:
            return lines + [f"peel reject at {v}: saturated marks"], None, marks, adj
        newly_marked = []
        for t in tris_with_v:
            e = norm_edge(*sorted(t - {v}))
            if e not in marks:
                marks[e] = v
                newly_marked.append(e)
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
        marked_triangles.append(frozenset(nbrs))
        records.append((v, nbrs, newly_marked))
        lines.append(f"peel {v} neighbors {nbrs} marked {newly_marked}")
    if len(adj) != 3 or any(len(adj[v]) != 2 for v in adj):
        lines.append(f"peeling stuck with {len(adj)} vertices, not a triangle")
    return lines, records, marks, adj


def reference_reinsert(g, outer_required=frozenset()):
    """Peel and reinsert as before the apex step: each slot of each live
    order is checked by walking chord arcs (``arc_walk_slot_is_fan_planar``)
    on the order's positions, against every active mark, and so is each
    final order (``arc_walk_fan_planar_edges``).  Returns the trace lines,
    the live orders after each step and the orders that pass the final
    check."""
    lines, records, marks, adj = reference_peel(g, outer_required)
    if records is None or lines[-1].startswith("peeling stuck"):
        return lines, [], []
    live = [tuple(sorted(adj))]
    steps = []
    for v, nbrs, edges_marked in reversed(records):
        for e in edges_marked:
            del marks[e]
        adj[v] = set(nbrs)
        for w in nbrs:
            adj[w].add(v)
        active_marks = [e for e in marks if e[0] in adj and e[1] in adj]
        new_live = set()
        for order in live:
            s = len(order)
            r = consecutive_run(order, nbrs)
            if r is None:
                continue
            for p in range(r, r + (3 if s == 3 else 2)):
                k = (p + 1) % s
                cand = order[:k] + (v,) + order[k:]
                pos = positions(cand)
                if all(
                    (pos[a] - pos[b]) % len(cand) in (1, len(cand) - 1)
                    for a, b in active_marks
                ) and arc_walk_slot_is_fan_planar(adj, cand, pos, v):
                    new_live.add(circular.canonicalize(cand))
        live = sorted(new_live)
        steps.append(live)
        drawings = len(live)
        if drawings > 1:
            partial, relabel = graph.dense_graph(
                adj, [(u, w) for u in adj for w in adj[u] if u < w]
            )
            drawings = len({
                circular.drawing_key(partial, tuple(relabel[x] for x in o)) for o in live
            })
        lines.append(f"reinsert {v}: {len(live)} live orders, {drawings} drawings")
        if not live:
            return lines, steps, []
    final = []
    for o in live:
        pos = positions(o)
        if all(
            (pos[a] - pos[b]) % len(o) in (1, len(o) - 1) for a, b in outer_required
        ) and arc_walk_fan_planar_edges(g.adj, o, pos, g.edges):
            final.append(o)
    return lines, steps, final


def crossing_apexes(report, to_orig):
    """The apex map of a drawing, from its reference crossing lists."""
    out = {}
    for e, crossers in report.crossings.items():
        if crossers:
            common = frozenset.intersection(*map(frozenset, crossers))
            out[norm_edge(to_orig[e[0]], to_orig[e[1]])] = frozenset(
                to_orig[x] for x in common
            )
    return out


def test_reinsertion_matches_the_arc_walk_loop(monkeypatch):
    """The apex step against the reinsertion it replaced, on the peel
    tests' graphs: the same trace, the same live orders after every step and
    the same final orders.  Each candidate slot of each step is also put to
    the reference checker on the partial graph: the apex verdict equals its
    verdict, and a passing slot's apex map, like every live order's, equals
    the one its crossing lists give."""
    real = recognizer._reinsert_vertex
    verdicts = {True: 0, False: 0}
    steps = []

    def checked(live, adj, marks, v, nbrs):
        partial, relabel = graph.dense_graph(
            adj, [(u, w) for u in adj for w in adj[u] if u < w]
        )
        to_orig = list(relabel)
        for order, apex in live.items():
            s = len(order)
            r = consecutive_run(order, nbrs)
            if r is None:
                continue
            for p in range(r, r + (3 if s == 3 else 2)):
                k = (p + 1) % s
                cand = order[:k] + (v,) + order[k:]
                # v's circle neighbors, its third neighbor, and the one that
                # sits between v and the third
                left, right = cand[k - 1], cand[(k + 1) % (s + 1)]
                (far,) = set(nbrs) - {left, right}
                mid = right if cand[(k + 2) % (s + 1)] == far else left
                entries = recognizer._insert_apexes(adj, apex, v, mid, far)
                report = check_outer_fan_planar(partial, tuple(relabel[x] for x in cand))
                assert (entries is not None) == report.verdict, (order, v)
                verdicts[report.verdict] += 1
                if entries is not None:
                    assert {**apex, **entries} == crossing_apexes(report, to_orig)
        out = real(live, adj, marks, v, nbrs)
        for order, apex in out.items():
            report = check_outer_fan_planar(partial, tuple(relabel[x] for x in order))
            assert apex == crossing_apexes(report, to_orig), (order, v)
        steps.append(sorted(out))
        return out

    monkeypatch.setattr(recognizer, "_reinsert_vertex", checked)
    seen = set()
    for g, outer in peel_cases():
        steps.clear()
        raw = _recognize_3connected_raw(g, outer)
        if raw.path != "peel":
            continue
        lines, ref_steps, final = reference_reinsert(g, outer)
        assert raw.trace == lines, (g.edge_list(), outer)
        assert steps == ref_steps, (g.edge_list(), outer)
        assert raw.orders == final, (g.edge_list(), outer)
        seen.add(" ".join(raw.reason.split()[:3]) if raw.reason else None)
    assert verdicts[True] > 0 and verdicts[False] > 0
    assert {None, "no feasible slot"} <= seen, seen


def test_drawing_count_matches_the_drawing_keys(monkeypatch):
    """On every reinsertion step of the peel tests' graphs with two or more
    live orders, the class count equals the number of distinct
    ``drawing_key``s of the partial graph relabeled to dense ids."""
    real = recognizer._count_drawings
    seen = set()

    def checked(adj, orders):
        got = real(adj, orders)
        partial, relabel = graph.dense_graph(
            adj, [(u, w) for u in adj for w in adj[u] if u < w]
        )
        keys = {circular.drawing_key(partial, tuple(relabel[x] for x in o)) for o in orders}
        assert got == len(keys), (sorted(orders), adj)
        seen.add((len(orders), got))
        return got

    monkeypatch.setattr(recognizer, "_count_drawings", checked)
    for g, outer in peel_cases():
        _recognize_3connected_raw(g, outer)
    assert {(2, 1), (2, 2), (3, 1)} <= seen, seen


def peel_cases():
    """3-connected graphs with required outer edges for the peel tests."""
    rng = random.Random(4242)
    cases = [(grown_graph(n, rng), frozenset()) for n in range(6, 49, 2)]
    while len(cases) < 100:  # seeded random 3-connected graphs
        n = rng.randint(6, 10)
        pairs = list(combinations(range(n), 2))
        g = build_graph(n, rng.sample(pairs, rng.randint(2 * n, min(3 * n, len(pairs)))))
        if is_triconnected(g):
            cases.append((g, frozenset()))
    for _ in range(25):  # grown graphs made rejectable
        g = grown_graph(rng.randint(6, 20), rng)
        cases.append((add_edge(g, *rng.choice(g.non_edges())), frozenset()))
        cases.append((g, frozenset(rng.sample(sorted(g.edges), rng.randint(1, 4)))))
    return cases


def test_peel_worklist_picks_as_the_sorted_rescan():
    reasons = set()
    for g, outer in peel_cases():
        raw = _recognize_3connected_raw(g, outer)
        if raw.path != "peel":
            continue
        peel_lines = [line for line in raw.trace if line.startswith("peel")]
        assert peel_lines == reference_peel_sequence(g, outer), (g.edge_list(), outer)
        reasons.add(" ".join(raw.reason.split()[-3:]) if raw.reason else None)
    assert {None, "not a triangle", "triangles or edges"} <= reasons, reasons


def reference_porous_in_drawing(skel, order, outer_edge, around):
    """Porosity by the reference check on the extended graph."""
    pos = {v: i for i, v in enumerate(order)}
    u, v = outer_edge
    n = len(order)
    if (pos[u] + 1) % n != pos[v] and (pos[v] + 1) % n != pos[u]:
        raise StructuralError(f"edge {outer_edge} is not outer in {order}")
    other = v if around == u else u
    i = pos[around]
    left, right = order[(i - 1) % n], order[(i + 1) % n]
    w = left if right == other else right
    nv = skel.n
    ext = build_graph(nv + 1, list(skel.edges) + [(nv, w)])
    k = pos[v] if (pos[u] + 1) % n == pos[v] else pos[u]
    return check_outer_fan_planar(ext, order[:k] + (nv,) + order[k:]).verdict


def test_porosity_matches_the_reference_check(monkeypatch):
    """Every (skeleton, drawing, edge, pole) that recognition asks about, on
    all biconnected graphs with n <= 6 and on seeded ones with n = 7, 8."""
    met = {}
    real = recognizer._porous_in_drawing

    def recording(skel, order, edge, around):
        met[(skel, order, edge, around)] = real(skel, order, edge, around)
        return met[(skel, order, edge, around)]

    monkeypatch.setattr(recognizer, "_porous_in_drawing", recording)
    rng = random.Random(78)
    graphs = [g for n in range(3, 7) for g in all_biconnected_graphs(n)]
    graphs += [sample_biconnected(n, rng) for n in (7, 8) for _ in range(200)]
    for g in graphs:
        recognize(g)
    monkeypatch.undo()
    verdicts = {True: 0, False: 0}
    for (skel, order, edge, around), got in met.items():
        expected = reference_porous_in_drawing(skel, order, edge, around)
        assert got == expected == is_porous(skel, [order], edge, around)
        verdicts[expected] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def reference_assemble(views, tree_adj):
    """The recursive assembly that the flat walk replaced: each subtree
    hanging off a virtual edge {s, t} contributes linear sequences of its
    interior vertices, read from s to t, and the parent splices them into
    its own gap between s and t, in both orientations.  The root is the
    least node id, a parallel node included."""

    def node_drawings(nid):
        view = views[nid]
        if view.kind == "R":
            return [view.orig_order(d) for d in view.drawings]
        return [tuple(sorted(view.to_orig))]

    def splice(base, nid, parent):
        out = [list(base)]
        for child, poles in sorted(tree_adj[nid]):
            if parent is not None and child == parent:
                continue
            if views[child].kind == "Q":
                continue
            interiors = subtree_interiors(child, nid, poles)
            if not interiors:
                return []
            next_out = []
            for seq in out:
                n_seq = len(seq)
                spots = [
                    i for i in range(n_seq) if {seq[i], seq[(i + 1) % n_seq]} == set(poles)
                ]
                if not spots:
                    continue
                spot = spots[0]
                a = seq[spot]
                for interior in interiors:
                    ins = list(interior) if a == poles[0] else list(reversed(interior))
                    next_out.append(seq[: spot + 1] + ins + seq[spot + 1 :])
            out = next_out
            if not out:
                return []
        return [tuple(o) for o in out]

    def subtree_interiors(nid, parent, poles):
        view = views[nid]
        result = set()
        if view.kind == "P":
            inner = [
                (child, p)
                for child, p in tree_adj[nid]
                if child != parent and views[child].kind != "Q"
            ]
            if len(inner) != 1:
                return []
            child, child_poles = inner[0]
            result.update(subtree_interiors(child, nid, child_poles))
            return sorted(result)
        for d in node_drawings(nid):
            for oriented in (d, tuple(reversed(d))):
                idx = oriented.index(poles[0])
                rot = oriented[idx:] + oriented[:idx]
                if rot[-1] != poles[1]:
                    continue
                for full in splice(rot, nid, parent):
                    if full.index(poles[0]) != 0:
                        raise StructuralError(f"splice moved pole {poles[0]} off the front")
                    if full[-1] != poles[1]:
                        continue
                    result.add(tuple(full[1:-1]))
        return sorted(result)

    root = min(views)
    results = set()
    if views[root].kind == "P":
        inner = [(child, p) for child, p in tree_adj[root] if views[child].kind != "Q"]
        if len(inner) != 2:
            return []
        (c1, p1), (c2, _) = inner
        s, t = p1
        for i1 in subtree_interiors(c1, root, p1):
            for i2 in subtree_interiors(c2, root, (t, s)):
                results.add(canonicalize((s, *i1, t, *i2)))
    else:
        for d in node_drawings(root):
            for full in splice(d, root, None):
                results.add(canonicalize(full))
    return sorted(results)


def glue_on_outer_edges(g, first_g, h, first_h, rng):
    """g and h with an outer edge of h's drawing ``first_h`` identified with
    one of g's drawing ``first_g``, and h's other vertices numbered after
    g's."""
    i, j = rng.randrange(g.n), rng.randrange(h.n)
    a, b = first_g[i - 1], first_g[i]
    c, d = first_h[j - 1], first_h[j]
    rest = iter(range(g.n, g.n + h.n - 2))
    glue = {x: {c: a, d: b}[x] if x in (c, d) else next(rest) for x in range(h.n)}
    edges = set(g.edges) | {norm_edge(glue[u], glue[v]) for u, v in h.edges}
    return build_graph(g.n + h.n - 2, edges)


def test_assembly_matches_the_recursive_reference(monkeypatch):
    """The flat walk gives the recursive assembly's orders on every call
    that recognition makes, on seeded chains of up to 8 pieces, each glue on
    outer edges of the chain's and the piece's first drawings, and on
    2-sums of random pieces.  The calls include ones whose least node is a
    parallel node, where the reference takes its own branch."""
    real = recognizer._assemble
    roots = {"P": 0, "R": 0, "S": 0}

    def checked(views, tree_adj):
        got = real(views, tree_adj)
        assert got == reference_assemble(views, tree_adj)
        roots[views[min(views)].kind] += 1
        return got

    monkeypatch.setattr(recognizer, "_assemble", checked)
    rng = random.Random(1809)
    pieces = [complete_graph(4)] + [complete_two_hop_graph(n) for n in (5, 6, 7)]
    for _ in range(60):
        g = rng.choice(pieces)
        first = recognize(g).embeddings[0]
        for _ in range(rng.randint(1, 7)):
            h = rng.choice(pieces) if rng.random() < 0.7 else grown_graph(rng.randint(6, 8), rng)
            glued = glue_on_outer_edges(g, first, h, recognize(h).embeddings[0], rng)
            out = recognize(glued)
            if out.accepted:
                g, first = glued, out.embeddings[0]
    for _ in range(200):
        recognize(two_sum(piece(rng), piece(rng), rng))
    assert roots["P"] >= 10 and roots["R"] >= 10, roots


class TestGluedChains:
    """Chains of complete 2-hop graphs glued on edges (``graph.glued_chain``):
    SPQR paths of rigid nodes joined by parallel nodes, which the assembly
    walks without recursing however long the path is."""

    def test_two_piece_chains_match_the_oracle(self):
        for part in (complete_graph(5), complete_two_hop_graph(6)):
            g = glued_chain(part, 2, at=(2, 3))
            assert oracle.is_maximal_outer_fan_planar(g)
            expected = oracle.enumerate_embeddings(g)
            assert len(expected) == 1
            assert recognize(g).embeddings == expected

    def test_deep_chain_in_the_library_and_the_cli(self, tmp_path, capsys):
        g = glued_chain(complete_two_hop_graph(7), 400)
        assert (g.n, g.m) == (2002, 5201)
        out = recognize(g)
        assert out.accepted and len(out.embeddings) == 1
        assert out.trace[-1] == "assembled 1 drawings"
        path = tmp_path / "chain.txt"
        path.write_text(format_edge_list(g))
        assert main(["recognize", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "accepted"


def test_recognizer_does_not_recurse():
    """No function of the recognizer refers to itself, directly or through
    other functions of the module, and the assembly nests no function, so
    the depth of the SPQR tree never meets the recursion limit."""
    tree = ast.parse(Path(recognizer.__file__).read_text())
    defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    names = {node.name for node in defs}
    refers: dict[str, set[str]] = {name: set() for name in names}
    for node in defs:
        refers[node.name] |= {
            sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id in names
        }
    for name in names:
        reached, todo = set(), list(refers[name])
        while todo:
            x = todo.pop()
            if x not in reached:
                reached.add(x)
                todo.extend(refers[x])
        assert name not in reached, name
    (assemble,) = [node for node in tree.body if getattr(node, "name", "") == "_assemble"]
    assert not [
        sub for sub in ast.walk(assemble) if isinstance(sub, (ast.FunctionDef, ast.Lambda))
    ][1:]
