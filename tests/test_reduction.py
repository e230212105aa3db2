import dataclasses

import networkx as nx
import pytest

from outerfan.errors import GraphInputError, StructuralError
from outerfan.graph import is_biconnected
from outerfan.reduction import (
    ReductionInstance,
    ThreePartitionInstance,
    WitnessDrawing,
    _check_instance_invariants,
    count_vertical_crossings_per_path,
    generate_instance,
    instance_from_json,
    instance_to_json,
    route_witness,
    validate_witness,
    witness_from_json,
    witness_to_json,
)

FIG_VALUES = (7, 7, 7, 8, 8, 8, 8, 9, 10)
FIG_TRIPLES = [(0, 1, 8), (2, 3, 7), (4, 5, 6)]  # {7,7,10}, {7,8,9}, {8,8,8}


@pytest.fixture(scope="module")
def fig_instance() -> ReductionInstance:
    return generate_instance(ThreePartitionInstance(3, FIG_VALUES, 24))


@pytest.fixture(scope="module")
def fig_witness(fig_instance):
    return route_witness(fig_instance, FIG_TRIPLES)


class TestThreePartitionValidation:
    def test_value_at_half_rejected(self):
        tp = ThreePartitionInstance(3, (6, 7, 7, 8, 8, 8, 8, 8, 12), 24)
        with pytest.raises(GraphInputError, match="range"):
            tp.validate()

    def test_sum_mismatch_rejected(self):
        tp = ThreePartitionInstance(3, (7, 7, 7, 8, 8, 8, 8, 9, 12), 24)
        with pytest.raises(GraphInputError, match="sum"):
            tp.validate()

    def test_cardinality(self):
        with pytest.raises(GraphInputError, match="expected 9"):
            ThreePartitionInstance(3, (8, 8, 8), 24).validate()


class TestGeneration:
    def test_fig_parameters(self, fig_instance):
        assert fig_instance.params["K"] == 13
        assert len(fig_instance.gadgets["top_beam"].cycle) == 117
        assert len(fig_instance.gadgets["bottom_beam"].cycle) == 117
        assert len(fig_instance.gadgets["left_wall"].cycle) == 5
        assert len(fig_instance.gadgets["right_wall"].cycle) == 5
        assert fig_instance.params["path_edges"] == 102
        for p in fig_instance.paths:
            assert len(p) - 1 == 102

    def test_central_cells_match_values(self, fig_instance):
        m = 3
        for i, a in enumerate(FIG_VALUES):
            assert len(fig_instance.cells[(i, m - 1)]) == a

    def test_non_central_cells_bigger_than_central(self, fig_instance):
        m = 3
        for (i, j), verts in fig_instance.cells.items():
            if j != m - 1:
                assert len(verts) == 13
                assert len(verts) > max(FIG_VALUES)

    def test_barrier_gadgets_are_cycle_plus_two_hops(self, fig_instance):
        for gadget in fig_instance.gadgets.values():
            members = set(gadget.cycle)
            gadget_edges = {
                e
                for e, role in fig_instance.edge_roles.items()
                if role.get("gadget") == gadget.name
            }
            expected = set(gadget.cycle_edges()) | set(gadget.two_hop_edges())
            assert gadget_edges == expected
            assert all(set(e) <= members for e in gadget_edges)
            assert len(gadget.cycle) >= 5

    def test_biconnected(self, fig_instance):
        assert is_biconnected(fig_instance.graph)

    def test_rotation_is_neighbor_permutation(self, fig_instance):
        g = fig_instance.graph
        for v in range(g.n):
            assert sorted(fig_instance.rotation[v]) == sorted(g.neighbors(v))

    def test_tampered_instance_raises_structural_error(self, fig_instance):
        tp = ThreePartitionInstance(3, FIG_VALUES, 24)
        _check_instance_invariants(fig_instance, tp)
        rotation = list(fig_instance.rotation)
        rotation[0] = rotation[0][1:]  # a rotation entry missing a neighbor
        short_path = [fig_instance.paths[0][:-1], *fig_instance.paths[1:]]
        for tampered in (
            dataclasses.replace(fig_instance, rotation=tuple(rotation)),
            dataclasses.replace(fig_instance, paths=short_path),
        ):
            with pytest.raises(StructuralError, match="invariant broken"):
                _check_instance_invariants(tampered, tp)

    def test_path_order_specular_at_wall_centers(self, fig_instance):
        # cyclic order of path starts around one wall center reverses the
        # cyclic order of path ends around the other
        starts = {p[1]: j for j, p in enumerate(fig_instance.paths)}
        ends = {p[-2]: j for j, p in enumerate(fig_instance.paths)}
        at_u = [starts[w] for w in fig_instance.rotation[fig_instance.u] if w in starts]
        at_v = [ends[w] for w in fig_instance.rotation[fig_instance.v] if w in ends]

        def cyclic_normal(seq):
            k = seq.index(min(seq))
            return seq[k:] + seq[:k]

        assert cyclic_normal(at_u) == cyclic_normal(list(reversed(at_v)))

    def test_count_formulas_grid(self):
        for m, target in [(1, 9), (2, 10), (2, 13), (3, 24)]:
            k = target // 2 + 1 if target % 2 == 0 else (target + 1) // 2 + 1
            lo = target // 4 + 1
            hi = (target - 1) // 2
            values = []
            remaining = m * target
            # deterministic value multiset inside the open range
            for _ in range(3 * m - 1):
                a = max(lo, min(hi, remaining - (3 * m - 1 - len(values)) * lo))
                a = min(a, hi)
                values.append(a)
                remaining -= a
            values.append(remaining)
            if not all(target / 4 < a < target / 2 for a in values):
                continue
            tp = ThreePartitionInstance(m, tuple(sorted(values)), target)
            inst = generate_instance(tp)
            assert inst.params["K"] == k
            assert len(inst.gadgets["top_beam"].cycle) == 3 * m * k
            assert len(inst.cells) == 3 * m * (2 * m - 1)
            floors = [g for name, g in inst.gadgets.items() if name.startswith("floor")]
            assert len(floors) == 3 * m * (2 * m - 2)
            for p in inst.paths:
                assert len(p) - 1 == (3 * m - 3) * k + target

    def test_m2_example(self):
        inst = generate_instance(ThreePartitionInstance(2, (3, 3, 4, 3, 3, 4), 10))
        assert inst.params["K"] == 6
        assert len(inst.gadgets["top_beam"].cycle) == 36
        assert inst.params["path_edges"] == 28


class TestRouting:
    def test_fig_witness_counts(self, fig_instance, fig_witness):
        assert count_vertical_crossings_per_path(fig_instance, fig_witness) == [102, 102, 102]

    def test_each_path_edge_crosses_one_vertical(self, fig_instance, fig_witness):
        for e, role in fig_instance.edge_roles.items():
            if role.get("kind") != "path":
                continue
            crossers = fig_witness.crossings.get(e, ())
            verticals = [
                f for f in crossers if fig_instance.edge_roles[f]["kind"] == "vertical"
            ]
            assert len(verticals) == 1

    def test_no_cell_hosts_two_paths(self, fig_instance, fig_witness):
        used_cells = set()
        for e, lst in fig_witness.crossings.items():
            role = fig_instance.edge_roles[e]
            if role.get("kind") != "vertical" or not lst:
                continue
            crossing_paths = {
                fig_instance.edge_roles[f]["path"]
                for f in lst
                if fig_instance.edge_roles[f]["kind"] == "path"
            }
            if crossing_paths:
                cell = (role["column"], role["cell"])
                for p in crossing_paths:
                    used_cells.add((cell, p))
        cells_per_path = {}
        for (cell, p) in used_cells:
            cells_per_path.setdefault(cell, set()).add(p)
        assert all(len(ps) == 1 for ps in cells_per_path.values())

    def test_central_cells_traversed_match_triples(self, fig_instance, fig_witness):
        m = fig_instance.params["m"]
        per_path_centrals = {j: [] for j in range(m)}
        for e, lst in fig_witness.crossings.items():
            role = fig_instance.edge_roles[e]
            if role.get("kind") != "vertical" or role["cell"] != m - 1 or not lst:
                continue
            for f in lst:
                frole = fig_instance.edge_roles[f]
                if frole["kind"] == "path":
                    per_path_centrals[frole["path"]].append(role["column"])
        for j, cols in per_path_centrals.items():
            cols = sorted(set(cols))
            assert len(cols) == 3
            assert sum(FIG_VALUES[c] for c in cols) == 24

    def test_invalid_partition_rejected(self, fig_instance):
        with pytest.raises(GraphInputError, match="sums to"):
            route_witness(fig_instance, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        with pytest.raises(GraphInputError, match="cover"):
            route_witness(fig_instance, [(0, 1, 8), (2, 3, 7), (4, 5, 5)])

    def test_m2_route(self):
        inst = generate_instance(ThreePartitionInstance(2, (3, 3, 4, 3, 3, 4), 10))
        w = route_witness(inst, [(0, 1, 2), (3, 4, 5)])
        assert count_vertical_crossings_per_path(inst, w) == [28, 28]
        assert validate_witness(inst, w).ok


class TestValidation:
    def test_routed_witness_passes(self, fig_instance, fig_witness):
        report = validate_witness(fig_instance, fig_witness)
        assert report.ok and not report.violations

    def test_instance_without_paths_routed_is_planar_outside_gadgets(self, fig_instance):
        empty = WitnessDrawing({})
        assert validate_witness(fig_instance, empty).ok

    def test_injected_pattern_one_detected(self, fig_instance, fig_witness):
        crossings = {e: list(lst) for e, lst in fig_witness.crossings.items()}
        target = next(
            e
            for e, lst in crossings.items()
            if lst and fig_instance.edge_roles[e]["kind"] == "vertical"
        )
        f1 = crossings[target][0]
        f2 = next(
            e
            for e in fig_instance.graph.edge_list()
            if not set(e) & set(f1) and not set(e) & set(target)
        )
        crossings[target].append(f2)
        crossings[f2] = crossings.get(f2, []) + [target]
        report = validate_witness(
            fig_instance, WitnessDrawing({e: tuple(l) for e, l in crossings.items()})
        )
        assert not report.ok
        assert any(v.kind == "fan_violation" and v.edge == target for v in report.violations)

    def test_injected_barrier_crossing_detected(self, fig_instance, fig_witness):
        crossings = {e: list(lst) for e, lst in fig_witness.crossings.items()}
        barrier = next(
            e for e, r in fig_instance.edge_roles.items() if r.get("kind") == "two_hop"
        )
        foreign = next(
            e
            for e, r in fig_instance.edge_roles.items()
            if r.get("kind") == "path" and not set(e) & set(barrier)
        )
        crossings[barrier] = crossings.get(barrier, []) + [foreign]
        crossings[foreign] = crossings.get(foreign, []) + [barrier]
        report = validate_witness(
            fig_instance, WitnessDrawing({e: tuple(l) for e, l in crossings.items()})
        )
        assert not report.ok
        assert any(
            v.kind == "barrier_crossed" and v.edge == barrier for v in report.violations
        )

    def test_asymmetric_crossing_detected(self, fig_instance, fig_witness):
        crossings = {e: list(lst) for e, lst in fig_witness.crossings.items()}
        target = next(
            e
            for e, lst in crossings.items()
            if lst and fig_instance.edge_roles[e]["kind"] == "vertical"
        )
        pe = crossings[target][0]
        crossings[pe] = [f for f in crossings[pe] if f != target]
        report = validate_witness(
            fig_instance, WitnessDrawing({e: tuple(l) for e, l in crossings.items()})
        )
        assert not report.ok
        assert any(v.kind == "asymmetric_crossing" for v in report.violations)

    def test_dangling_reference_rejected(self, fig_instance):
        with pytest.raises(GraphInputError, match="unknown edge"):
            validate_witness(
                fig_instance, WitnessDrawing({(0, 1): ((99991, 99992),)})
            )


class TestSerialization:
    def test_instance_round_trip(self, fig_instance):
        again = instance_from_json(instance_to_json(fig_instance))
        assert again.graph == fig_instance.graph
        assert again.rotation == fig_instance.rotation
        assert again.params == fig_instance.params
        assert again.cells == fig_instance.cells
        assert again.paths == fig_instance.paths
        assert again.edge_roles == fig_instance.edge_roles

    def test_witness_round_trip(self, fig_witness):
        again = witness_from_json(witness_to_json(fig_witness))
        nonempty = {e: lst for e, lst in fig_witness.crossings.items() if lst}
        assert again.crossings == nonempty


# ---------------------------------------------------------------------------
# The frame: gadget cycles, corner edges and verticals, which no witness
# crosses, so they must be drawn without crossings
# ---------------------------------------------------------------------------

FRAME_CASES = [
    ((3, 3, 3), 9, [(0, 1, 2)]),
    ((3, 3, 4, 3, 3, 4), 10, [(0, 1, 2), (3, 4, 5)]),
    (FIG_VALUES, 24, FIG_TRIPLES),
]


def frame_of(values, target):
    inst = generate_instance(ThreePartitionInstance(len(values) // 3, values, target))
    frame = nx.Graph(
        e for e, role in inst.edge_roles.items()
        if role["kind"] in ("cycle", "corner", "vertical")
    )
    return inst, frame


@pytest.mark.parametrize("values, target, triples", FRAME_CASES, ids=["m1", "m2", "m3"])
def test_frame_and_planarized_witness_are_planar(values, target, triples):
    """The frame is planar, and so is the instance with each crossing of the
    routed witness made a vertex, in list order along each edge."""
    inst, frame = frame_of(values, target)
    assert nx.check_planarity(frame)[0]
    witness = route_witness(inst, triples)
    planarized = nx.Graph()
    for e in inst.graph.edge_list():
        crossings = [("x", *sorted((e, f))) for f in witness.crossings.get(e, ())]
        nx.add_path(planarized, [e[0], *crossings, e[1]])
    assert nx.check_planarity(planarized)[0]


@pytest.mark.parametrize("values, target, triples", FRAME_CASES, ids=["m1", "m2", "m3"])
def test_frame_rotation_is_a_planar_embedding(values, target, triples):
    """The instance's rotation system, restricted to the frame, passes
    Euler's formula: the frame is drawn as the rotations prescribe."""
    inst, frame = frame_of(values, target)
    embedding = nx.PlanarEmbedding()
    embedding.set_data(
        {v: [w for w in reversed(inst.rotation[v]) if frame.has_edge(v, w)] for v in frame}
    )
    embedding.check_structure()
