"""3-Partition-based hardness instances for fan-planarity with a fixed
rotation system, plus witness routing and combinatorial validation.

An instance is a biconnected graph with a prescribed counterclockwise
rotation at every vertex.  Four barrier gadgets (cycle plus all 2-hop
chords) form a rectangular ring: two long beams and two 5-vertex walls,
joined by four corner edges.  Between the beams run ``3m`` columns of
vertical edges, partitioned into cells by further barrier gadgets (floors);
the central cell of column ``i`` has ``a_i`` vertical edges and every other
cell has ``K = ceil(B/2) + 1``.  The central wall vertices are joined by
``m`` internally disjoint transversal paths whose length forces each path,
in any fan-planar drawing respecting the rotation, through exactly three
central cells whose sizes sum to ``B``.

The generator lays every gadget out in convex position on a flattened arc
and derives each rotation from straight-segment directions, so the emitted
rotation system is realized by an actual drawing.  A floor's downward
and upward verticals attach along its lower and upper arcs, which share
only their ends, so the frame (gadget cycles, corner edges and verticals)
is planar; a floor of fewer than five vertices is no barrier and is
refused.  Witness drawings are combinatorial: per-edge ordered crossing
lists.  A valid witness routes path ``j`` through the cells
matching one triple of a 3-Partition solution, each path edge crossing
exactly one vertical edge.

An instance is fully determined by its 3-Partition input, so an instance
file is loaded by regenerating the instance from its ``params`` (m, A, B)
and comparing: a file that differs from that instance in any field, such
as one written before the floor layout above, is an input error.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from .circular import shared_endpoints
from .errors import GraphInputError, StructuralError
from .graph import Edge, Graph, build_graph, cap_vertex_count, norm_edge, read_input


@dataclass(frozen=True)
class ThreePartitionInstance:
    """Multiset of 3m integers in (B/4, B/2) summing to m*B."""

    m: int
    values: tuple[int, ...]
    target: int

    def validate(self) -> None:
        if self.m < 1:
            raise GraphInputError(f"group count must be positive, got {self.m}")
        if len(self.values) != 3 * self.m:
            raise GraphInputError(
                f"expected {3 * self.m} values, got {len(self.values)}"
            )
        if any(a <= 0 for a in self.values):
            raise GraphInputError("all values must be positive")
        if sum(self.values) != self.m * self.target:
            raise GraphInputError(
                f"values sum to {sum(self.values)}, expected m*B = {self.m * self.target}"
            )
        for a in self.values:
            if not (self.target < 4 * a and 2 * a < self.target):
                raise GraphInputError(
                    f"value {a} outside the open range (B/4, B/2) = "
                    f"({self.target}/4, {self.target}/2)"
                )


@dataclass
class GadgetInfo:
    name: str
    cycle: tuple[int, ...]  # vertices in boundary-cycle order

    def cycle_edges(self) -> list[Edge]:
        s = len(self.cycle)
        return [norm_edge(self.cycle[t], self.cycle[(t + 1) % s]) for t in range(s)]

    def two_hop_edges(self) -> list[Edge]:
        s = len(self.cycle)
        return [norm_edge(self.cycle[t], self.cycle[(t + 2) % s]) for t in range(s)]


@dataclass
class ReductionInstance:
    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    params: dict
    vertex_roles: dict[int, dict]
    edge_roles: dict[Edge, dict]
    gadgets: dict[str, GadgetInfo]
    cells: dict[tuple[int, int], tuple[Edge, ...]]  # (column, cell) -> verticals
    paths: list[tuple[int, ...]]  # full vertex sequences, u .. v
    u: int
    v: int


@dataclass
class WitnessDrawing:
    """Per-edge ordered crossing lists, symmetric by construction."""

    crossings: dict[Edge, tuple[Edge, ...]]


@dataclass
class Violation:
    kind: str
    edge: Edge
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------


def _cell_sizes(tp: ThreePartitionInstance, column: int) -> list[int]:
    k = _big_k(tp.target)
    return [k] * (tp.m - 1) + [tp.values[column]] + [k] * (tp.m - 1)


def _big_k(target: int) -> int:
    return (target + 1) // 2 + 1


def _floor_up_slot(p: int, q: int, slot: int) -> int:
    """Cycle index of the floor vertex carrying upward vertical ``slot``.

    A floor between cells of sizes p (below) and q (above) is a cycle of
    s = p + q - 2 vertices, drawn as an ellipse with index 0 leftmost and
    p - 1 rightmost.  Indices 0..p-1 run along the lower arc, left to right,
    and take the downward verticals; the upward ones, numbered left to right
    in the cell above, take index 0, then s - 1 down to p along the upper
    arc, then p - 1.  So the two vertices carrying one vertical of each kind
    are the two ends of the lower arc, and the verticals below and above
    attach along two disjoint arcs, which keeps the frame planar.
    """
    return (p - 1 + q - 1 - slot) % (p + q - 2)


def generate_instance(tp: ThreePartitionInstance) -> ReductionInstance:
    """Deterministic reduction instance for a 3-Partition input."""
    tp.validate()
    m, big_b = tp.m, tp.target
    big_k = _big_k(big_b)
    cols = 3 * m
    beam_len = cols * big_k
    n_cells = 2 * m - 1
    path_len = (3 * m - 3) * big_k + big_b
    # walls, beams, path interiors and floors; for m > 1 a column has 2m - 2
    # floors, two beside its central cell and 2m - 4 between cells of size K
    floors = 2 * (cols * (big_k - 2) + m * big_b) + cols * (2 * m - 4) * (2 * big_k - 2)
    n = 10 + 2 * beam_len + m * (path_len - 1) + (floors if m > 1 else 0)
    cap_vertex_count(n, "instance would have")
    # the least floor lies beside the central cell of the least value; a
    # cycle of fewer than five vertices has coinciding 2-hop chords
    least_floor = big_k + min(tp.values) - 2
    if m > 1 and least_floor < 5:
        raise GraphInputError(
            f"a floor beside a cell of {min(tp.values)} would have {least_floor} "
            "vertices; a barrier needs at least 5"
        )

    ids: dict[str, list[int]] = {}
    next_id = 0

    def alloc(name: str, count: int) -> list[int]:
        nonlocal next_id
        block = list(range(next_id, next_id + count))
        next_id += count
        ids[name] = block
        return block

    lw = alloc("left_wall", 5)
    rw = alloc("right_wall", 5)
    tb = alloc("top_beam", beam_len)
    bb = alloc("bottom_beam", beam_len)
    floors: dict[tuple[int, int], list[int]] = {}
    for i in range(cols):
        sizes = _cell_sizes(tp, i)
        for k in range(n_cells - 1):
            p, q = sizes[k], sizes[k + 1]
            floors[(i, k)] = alloc(f"floor:{i}:{k}", p + q - 2)
    u, v = lw[2], rw[2]
    path_interiors = [alloc(f"path:{j}", path_len - 1) for j in range(m)]

    gadgets: dict[str, GadgetInfo] = {
        "left_wall": GadgetInfo("left_wall", tuple(lw)),
        "right_wall": GadgetInfo("right_wall", tuple(rw)),
        "top_beam": GadgetInfo("top_beam", tuple(tb)),
        "bottom_beam": GadgetInfo("bottom_beam", tuple(bb)),
    }
    for (i, k), verts in floors.items():
        gadgets[f"floor:{i}:{k}"] = GadgetInfo(f"floor:{i}:{k}", tuple(verts))

    edges: list[Edge] = []
    edge_roles: dict[Edge, dict] = {}

    def add(e: Edge, role: dict) -> None:
        if e in edge_roles:
            raise GraphInputError(f"duplicate edge {e} in construction")
        edges.append(e)
        edge_roles[e] = role

    for name, gadget in gadgets.items():
        for e in gadget.cycle_edges():
            add(e, {"kind": "cycle", "gadget": name})
        for e in gadget.two_hop_edges():
            add(e, {"kind": "two_hop", "gadget": name})

    corners = [
        norm_edge(lw[0], tb[0]),
        norm_edge(tb[-1], rw[0]),
        norm_edge(rw[4], bb[-1]),
        norm_edge(bb[0], lw[4]),
    ]
    for e in corners:
        add(e, {"kind": "corner"})

    cells: dict[tuple[int, int], tuple[Edge, ...]] = {}
    for i in range(cols):
        sizes = _cell_sizes(tp, i)
        for j in range(n_cells):
            size = sizes[j]
            verticals = []
            for t in range(size):
                if j == 0:
                    lower = bb[i * big_k + t]
                else:
                    p, q = sizes[j - 1], sizes[j]
                    lower = floors[(i, j - 1)][_floor_up_slot(p, q, t)]
                if j == n_cells - 1:
                    upper = tb[i * big_k + t]
                else:
                    upper = floors[(i, j)][t]
                e = norm_edge(lower, upper)
                add(e, {"kind": "vertical", "column": i, "cell": j, "slot": t})
                verticals.append(e)
            cells[(i, j)] = tuple(verticals)

    paths: list[tuple[int, ...]] = []
    for j in range(m):
        seq = (u, *path_interiors[j], v)
        for t in range(len(seq) - 1):
            add(norm_edge(seq[t], seq[t + 1]), {"kind": "path", "path": j, "step": t})
        paths.append(seq)

    graph = build_graph(next_id, edges)

    vertex_roles: dict[int, dict] = {}
    for name, block in ids.items():
        for idx, vid in enumerate(block):
            vertex_roles[vid] = {"role": name, "index": idx}
    vertex_roles[u]["central"] = "u"
    vertex_roles[v]["central"] = "v"

    rotation = _build_rotation(tp, graph, paths, tb, bb, lw, rw, floors)

    inst = ReductionInstance(
        graph=graph,
        rotation=rotation,
        params={
            "m": m,
            "B": big_b,
            "K": big_k,
            "A": list(tp.values),
            "path_edges": path_len,
        },
        vertex_roles=vertex_roles,
        edge_roles=edge_roles,
        gadgets=gadgets,
        cells=cells,
        paths=paths,
        u=u,
        v=v,
    )
    _check_instance_invariants(inst, tp)
    return inst


# ---------------------------------------------------------------------------
# Rotation construction from a convex-position layout
# ---------------------------------------------------------------------------


def _build_rotation(tp, graph, paths, tb, bb, lw, rw, floors):
    """Counterclockwise neighbor cycles from a schematic straight-line layout.

    Every gadget is drawn with its boundary cycle in convex position on a
    flattened arc (2-hop chords inside, external edges outside), so sorting
    incident segment directions gives a rotation realized by the drawing.
    """
    m = tp.m
    big_k = _big_k(tp.target)
    cols = 3 * m
    col_w = 120.0

    def x_col(i: int) -> float:
        return 200.0 + i * col_w

    x_left, x_right = 0.0, 200.0 + cols * col_w
    y_bottom, y_top = 0.0, 400.0
    n_cells = 2 * m - 1

    coord: dict[int, tuple[float, float]] = {}

    def beam_x(col: int, slot: int, size: int) -> float:
        return x_col(col) - 45.0 + (slot + 0.5) * 90.0 / size

    span = x_right - x_left
    for b, vid in enumerate(tb):
        x = beam_x(b // big_k, b % big_k, big_k)
        sag = 6.0 * (1.0 - ((x - span / 2) / (span / 2)) ** 2)
        coord[vid] = (x, y_top - sag)
    for b, vid in enumerate(bb):
        x = beam_x(b // big_k, b % big_k, big_k)
        sag = 6.0 * (1.0 - ((x - span / 2) / (span / 2)) ** 2)
        coord[vid] = (x, y_bottom + sag)
    for t, vid in enumerate(lw):
        y = y_top - 80.0 - (t + 0.5) * (y_top - y_bottom - 160.0) / 5
        bulge = 8.0 * (1.0 - ((t - 2.0) / 2.0) ** 2)
        coord[vid] = (x_left + 40.0 + bulge, y)
    for t, vid in enumerate(rw):
        y = y_top - 80.0 - (t + 0.5) * (y_top - y_bottom - 160.0) / 5
        bulge = 8.0 * (1.0 - ((t - 2.0) / 2.0) ** 2)
        coord[vid] = (x_right - 40.0 - bulge, y)

    def floor_y(k: int) -> float:
        return y_bottom + (k + 1) * (y_top - y_bottom) / n_cells

    for i in range(cols):
        sizes = _cell_sizes(tp, i)
        for k in range(n_cells - 1):
            verts = floors[(i, k)]
            p = sizes[k]
            s = len(verts)
            cy = floor_y(k)
            for t, vid in enumerate(verts):
                if t < p:
                    # lower arc, left to right, both ends included
                    phi = math.pi + t * math.pi / (p - 1)
                else:
                    # upper arc, right to left, strictly between the two
                    phi = (t - p + 1) * math.pi / (s - p + 1)
                coord[vid] = (
                    x_col(i) + 45.0 * math.cos(phi),
                    cy + 9.0 * math.sin(phi),
                )

    # path angles at the wall centers are assigned symbolically: path 0
    # leaves topmost; arrivals mirror them, which makes the cyclic order of
    # paths around one wall center the reverse of the other
    u, v = lw[2], rw[2]
    path_positions: dict[int, tuple[float, float]] = {}
    for j, p in enumerate(paths):
        lane = 20.0 - (40.0 * j / max(m - 1, 1) if m > 1 else 0.0)
        ux, uy = coord[u]
        vx, vy = coord[v]
        path_positions[p[1]] = (ux + 60.0, uy + lane)
        path_positions[p[-2]] = (vx - 60.0, vy + lane)

    rotation: list[tuple[int, ...]] = []
    for vid in range(graph.n):
        nbrs = graph.neighbors(vid)
        if vid not in coord:
            # path interior: the two neighbors in chain order
            rotation.append(tuple(sorted(nbrs)))
            continue
        x0, y0 = coord[vid]
        angled = []
        for idx, w in enumerate(sorted(nbrs)):
            x1, y1 = coord[w] if w in coord else path_positions[w]
            ang = math.atan2(y1 - y0, x1 - x0) % (2 * math.pi)
            angled.append((ang + idx * 1e-9, w))
        angled.sort()
        rotation.append(tuple(w for _, w in angled))
    return tuple(rotation)


def _check_instance_invariants(inst: ReductionInstance, tp: ThreePartitionInstance) -> None:
    """Raise StructuralError if the instance breaks a size fact of the
    construction or a rotation entry disagrees with its neighbor set."""

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise StructuralError(f"reduction instance invariant broken: {what}")

    m, big_b, big_k = tp.m, tp.target, inst.params["K"]
    require(big_k == math.ceil(big_b / 2) + 1, f"K = {big_k} for B = {big_b}")
    require(len(inst.gadgets["top_beam"].cycle) == 3 * m * big_k, "top beam length")
    require(len(inst.gadgets["right_wall"].cycle) == 5, "right wall length")
    for gadget in inst.gadgets.values():
        require(len(gadget.cycle) >= 5, f"{gadget.name} below barrier size")
    for (i, j), verts in inst.cells.items():
        central = j == m - 1
        expected = tp.values[i] if central else big_k
        require(len(verts) == expected, f"cell ({i}, {j}) has {len(verts)} vertices")
        if not central:
            require(len(verts) > max(tp.values), f"cell ({i}, {j}) not above max(A)")
    for k, p in enumerate(inst.paths):
        require(len(p) - 1 == (3 * m - 3) * big_k + big_b, f"path {k} length")
    for vid in range(inst.graph.n):
        rot = inst.rotation[vid]
        nbrs = inst.graph.neighbors(vid)
        require(set(rot) == set(nbrs) and len(rot) == len(nbrs), f"rotation at {vid}")


# ---------------------------------------------------------------------------
# Witness routing
# ---------------------------------------------------------------------------


def _gadget_internal_crossings(inst: ReductionInstance) -> dict[Edge, list[Edge]]:
    """Crossings of each barrier gadget drawn with its 2-hops inside: the
    2-hop over vertex x is crossed by the two 2-hops ending at x."""
    crossings: dict[Edge, list[Edge]] = {}
    for gadget in inst.gadgets.values():
        cyc = gadget.cycle
        s = len(cyc)
        for t in range(s):
            e = norm_edge(cyc[t], cyc[(t + 2) % s])
            before = norm_edge(cyc[(t - 1) % s], cyc[(t + 1) % s])
            after = norm_edge(cyc[(t + 1) % s], cyc[(t + 3) % s])
            first, second = (before, after) if cyc[t] == min(e) else (after, before)
            crossings[e] = [first, second]
    return crossings


def check_partition(tp_values: tuple[int, ...], target: int, triples) -> list[tuple[int, int, int]]:
    """Validate index triples: disjoint cover of all indices, each summing
    to the target."""
    triples = [tuple(t) for t in triples]
    flat = [i for t in triples for i in t]
    if sorted(flat) != list(range(len(tp_values))):
        raise GraphInputError("triples must cover every value index exactly once")
    for t in triples:
        if len(t) != 3:
            raise GraphInputError(f"group {t} does not have three members")
        s = sum(tp_values[i] for i in t)
        if s != target:
            raise GraphInputError(f"group {t} sums to {s}, expected {target}")
    return triples


def route_witness(inst: ReductionInstance, triples) -> WitnessDrawing:
    """Route the transversal paths along a 3-Partition solution.

    Columns are swept left to right.  At column ``i`` the lowest-index path
    whose triple still contains an unused value equal to ``a_i`` takes the
    central cell; every other path keeps its cell-distance to that path
    unchanged.  Each path edge crosses exactly one vertical edge.
    """
    m = inst.params["m"]
    values = tuple(inst.params["A"])
    triples = check_partition(values, inst.params["B"], triples)
    remaining = [sorted(values[i] for i in t) for t in triples]

    crossings: dict[Edge, list[Edge]] = _gadget_internal_crossings(inst)
    central = m - 1
    cell_for: dict[tuple[int, int], int] = {}
    for i in range(3 * m):
        a = values[i]
        chosen = None
        for j in range(m):
            if a in remaining[j]:
                chosen = j
                break
        if chosen is None:
            raise GraphInputError(f"no group has an unused value {a} for column {i}")
        remaining[chosen].remove(a)
        for k in range(m):
            cell_for[(k, i)] = central + (chosen - k)

    path_cross: dict[Edge, list[Edge]] = {}
    for k in range(m):
        seq = inst.paths[k]
        verticals: list[Edge] = []
        for i in range(3 * m):
            verticals.extend(inst.cells[(i, cell_for[(k, i)])])
        if len(verticals) != len(seq) - 1:
            raise GraphInputError(
                f"path {k} has {len(seq) - 1} edges but crosses {len(verticals)} verticals"
            )
        for t, vert in enumerate(verticals):
            pe = norm_edge(seq[t], seq[t + 1])
            path_cross.setdefault(pe, []).append(vert)
            path_cross.setdefault(vert, []).append(pe)

    merged: dict[Edge, tuple[Edge, ...]] = {}
    for e in inst.graph.edge_list():
        lst = list(crossings.get(e, [])) + list(path_cross.get(e, []))
        merged[e] = tuple(lst)
    return WitnessDrawing(merged)


# ---------------------------------------------------------------------------
# Witness validation
# ---------------------------------------------------------------------------


def validate_witness(inst: ReductionInstance, w: WitnessDrawing) -> ValidationReport:
    """Combinatorial validity of a drawing under the fixed rotation.

    Checks, in order: every referenced edge exists; the crossing relation is
    symmetric, irreflexive, never between incident edges and never repeated;
    every edge crossed at least twice is crossed by edges sharing a common
    endpoint; no barrier 2-hop edge is crossed by an edge from outside its
    gadget; and the crossing sequence along each edge lists any common-vertex
    fan in an order compatible with the rotation at that vertex.
    """
    violations: list[Violation] = []
    edges = inst.graph.edges
    for e, lst in w.crossings.items():
        if e not in edges:
            raise GraphInputError(f"witness references unknown edge {e}")
        for f in lst:
            if f not in edges:
                raise GraphInputError(f"witness references unknown edge {f}")

    cross = {e: tuple(w.crossings.get(e, ())) for e in edges}

    for e, lst in cross.items():
        seen = set()
        for f in lst:
            if f == e:
                violations.append(Violation("self_crossing", e, "edge crosses itself"))
                continue
            if f in seen:
                violations.append(
                    Violation("repeated_crossing", e, f"{f} crosses {e} twice")
                )
            seen.add(f)
            if set(e) & set(f):
                violations.append(
                    Violation("incident_crossing", e, f"incident edges {e} and {f} cross")
                )
            if e not in cross[f]:
                violations.append(
                    Violation("asymmetric_crossing", e, f"{f} not marked as crossing {e}")
                )

    for e, lst in cross.items():
        if len(lst) < 2:
            continue
        common = shared_endpoints(lst)
        if not common:
            violations.append(
                Violation(
                    "fan_violation",
                    e,
                    "crossed by independent edges " + ", ".join(map(str, lst)),
                )
            )
            continue
        pivot = min(common)
        rot = inst.rotation[pivot]
        rank = {nbr: i for i, nbr in enumerate(rot)}
        seq = []
        for f in lst:
            other = f[0] if f[1] == pivot else f[1]
            seq.append(rank[other])
        size = len(rot)
        fwd = [(r - seq[0]) % size for r in seq]
        bwd = [(seq[0] - r) % size for r in seq]
        if not (fwd == sorted(fwd) or bwd == sorted(bwd)):
            violations.append(
                Violation(
                    "rotation_order",
                    e,
                    f"crossing sequence around vertex {pivot} does not follow its rotation",
                )
            )

    for e, role in inst.edge_roles.items():
        if role.get("kind") != "two_hop":
            continue
        gadget = role["gadget"]
        for f in cross[e]:
            frole = inst.edge_roles[f]
            if frole.get("kind") != "two_hop" or frole.get("gadget") != gadget:
                violations.append(
                    Violation(
                        "barrier_crossed",
                        e,
                        f"barrier 2-hop of {gadget} crossed by foreign edge {f}",
                    )
                )

    return ValidationReport(ok=not violations, violations=violations)


def count_vertical_crossings_per_path(inst: ReductionInstance, w: WitnessDrawing) -> list[int]:
    counts = [0] * inst.params["m"]
    for e, lst in w.crossings.items():
        role = inst.edge_roles.get(e)
        if role is None or role.get("kind") != "path":
            continue
        counts[role["path"]] += sum(
            1 for f in lst if inst.edge_roles[f].get("kind") == "vertical"
        )
    return counts


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _edge_key(e: Edge) -> str:
    return f"{e[0]},{e[1]}"


def _parse_edge_key(key: str) -> Edge:
    a, b = key.split(",")
    return norm_edge(int(a), int(b))


def _payload(inst: ReductionInstance) -> dict:
    """The instance as JSON-ready data: what ``instance_to_json`` writes and
    what ``instance_from_json`` compares a parsed file against."""
    return {
        "n": inst.graph.n,
        "edges": [list(e) for e in inst.graph.edge_list()],
        "rotation": {str(v): list(r) for v, r in enumerate(inst.rotation)},
        "roles": {
            "vertices": {str(v): r for v, r in sorted(inst.vertex_roles.items())},
            "edges": {_edge_key(e): r for e, r in sorted(inst.edge_roles.items())},
            "gadgets": {
                name: list(g.cycle) for name, g in sorted(inst.gadgets.items())
            },
            "cells": {
                f"{i},{j}": [_edge_key(e) for e in verts]
                for (i, j), verts in sorted(inst.cells.items())
            },
            "paths": [list(p) for p in inst.paths],
            "u": inst.u,
            "v": inst.v,
        },
        "params": inst.params,
    }


def instance_to_json(inst: ReductionInstance) -> str:
    return json.dumps(_payload(inst), indent=1, sort_keys=True)


@contextmanager
def _malformed(what: str):
    """Report a JSON payload of the wrong shape as a GraphInputError."""
    try:
        yield
    except GraphInputError:
        raise
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise GraphInputError(
            f"malformed {what} JSON: {type(exc).__name__}: {exc}"
        ) from None


def instance_from_json(text: str) -> ReductionInstance:
    """The instance that a file's ``params`` generate, if the file holds
    exactly that instance; any other file is a GraphInputError."""
    with _malformed("instance"):
        payload = json.loads(text)
        cap_vertex_count(payload["n"], "instance declares")
        params = payload["params"]
        inst = generate_instance(
            ThreePartitionInstance(params["m"], tuple(params["A"]), params["B"])
        )
        expected = _payload(inst)
        if payload != expected:
            differ = sorted(k for k in payload.keys() | expected.keys()
                            if payload.get(k) != expected.get(k))
            raise GraphInputError(
                "instance JSON differs from the instance its params generate "
                f"in {', '.join(differ)}"
            )
    return inst


def witness_to_json(w: WitnessDrawing) -> str:
    payload = {
        _edge_key(e): [_edge_key(f) for f in lst]
        for e, lst in sorted(w.crossings.items())
        if lst
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def witness_from_json(text: str) -> WitnessDrawing:
    with _malformed("witness"):
        payload = json.loads(text)
        return WitnessDrawing(
            {
                _parse_edge_key(k): tuple(_parse_edge_key(f) for f in lst)
                for k, lst in payload.items()
            }
        )


def load_instance(path: str | FsPath) -> ReductionInstance:
    return instance_from_json(read_input(path))


def save_instance(inst: ReductionInstance, path: str | FsPath) -> None:
    FsPath(path).write_text(instance_to_json(inst), encoding="utf-8")


def load_witness(path: str | FsPath) -> WitnessDrawing:
    return witness_from_json(read_input(path))


def save_witness(w: WitnessDrawing, path: str | FsPath) -> None:
    FsPath(path).write_text(witness_to_json(w), encoding="utf-8")
