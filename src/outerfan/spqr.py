"""SPQR-tree decomposition of biconnected graphs.

The tree is built in three flat passes, none of which recurses, so trees
thousands of nodes deep build at the default recursion limit.  The split
pass takes components off an explicit worklist and cuts each at its first
separation pair: every edge class of the pair becomes a part, closed by a
virtual edge on the pair.  Two parts and no real edge on the pair share one
link; otherwise the real edge and one virtual edge per part form a central
bond.  A cycle becomes a series skeleton and a component with no separation
pair a rigid one.  The merge pass contracts series-series and
parallel-parallel links with one union-find pass, which gives the classical
unique decomposition into series (cycle), parallel (edge bundle) and rigid
(3-connected) nodes.  The numbering pass orders nodes and tree edges
canonically and builds each node once.

Each split decides its skeleton's kind once, from one call of the package's
shared, early-exit separating-pair search
(:func:`outerfan.graph.iter_separation_pairs`).  The split parts resume that
search above the pair the split chose, since no pair up to it separates any
part, so a pair found not to separate is never tested again further down.
The search runs one iterative lowpoint depth-first search per vertex,
O(n (n + m)) per component, and each split re-scans the component it cuts,
so a chain of splits costs depth times size: a 2 x 400 ladder takes about a
second.  A component that is a 3-tree (k vertices, 3k - 6 edges, counted
by its edge list, peeled to a triangle) skips that search, since a 3-tree
is 3-connected: a 3-connected input or a rigid skeleton that is one costs
one peel; ladders, whose squares are no 3-trees, still pay the search.

Representation choice: real edges live inside the S/P/R skeletons they
belong to.  A parallel node's real edge additionally gets an explicit
single-edge Q leaf, so that "adjacent to a Q node" is a queryable tree fact;
series and rigid real edges carry no Q leaves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import StructuralError
from .graph import (
    Edge,
    Graph,
    _separation_pairs,
    build_graph,
    components,
    dense_graph,
    is_triconnected,
    norm_edge,
    require_biconnected,
)


@dataclass(frozen=True)
class SkeletonEdge:
    u: int
    v: int
    kind: str  # "real" or "virtual"
    link: int | None  # tree edge id for virtual edges and Q-linked real edges

    def pair(self) -> Edge:
        return norm_edge(self.u, self.v)


@dataclass(frozen=True)
class SpqrNode:
    id: int
    kind: str  # "S", "P", "R", "Q"
    vertices: tuple[int, ...]
    edges: tuple[SkeletonEdge, ...]


@dataclass(frozen=True)
class TreeEdge:
    id: int
    x: int
    y: int
    u: int
    v: int


@dataclass(frozen=True)
class SpqrTree:
    nodes: tuple[SpqrNode, ...]
    tree_edges: tuple[TreeEdge, ...]

    @property
    def triconnected(self) -> bool:
        """Whether the tree is one R node, i.e. its graph is 3-connected."""
        return len(self.nodes) == 1 and self.nodes[0].kind == "R"


# ---------------------------------------------------------------------------
# Construction: split, merge, number
# ---------------------------------------------------------------------------


class _MEdge:
    """A skeleton edge under construction: ``pair`` is its normalized
    endpoint pair.  A real edge carries link None until it gets a Q leaf; a
    virtual edge carries the id of the link it shares with one other
    skeleton."""

    __slots__ = ("pair", "kind", "link")

    def __init__(self, pair: Edge, kind: str, link: int | None):
        self.pair, self.kind, self.link = pair, kind, link


def _vertices(edges: list[_MEdge]) -> set[int]:
    vs: set[int] = set()
    for e in edges:
        vs.update(e.pair)
    return vs


def _is_cycle(edges: list[_MEdge], adj: dict[int, list[int]]) -> bool:
    # components are simple: as many edges as vertices, all of degree 2
    return (
        len(edges) == len(adj) >= 3
        and all(len(nbrs) == 2 for nbrs in adj.values())
        and len(components(adj)) == 1
    )


def _find_split_pair(adj: dict[int, list[int]], m: int, after: Edge) -> Edge | None:
    """The first separating pair of a simple component with m edges in which
    no pair up to ``after`` separates; None if it is 3-connected."""
    return next(_separation_pairs(adj, m, after), None)


def _split(g: Graph) -> tuple[list[tuple[str, list[_MEdge]]], int]:
    """Split a biconnected graph into kinded skeletons with an explicit
    worklist; returns the skeletons and the number of links made.

    A work item ``(edges, adj, after, bond)`` is a component and its
    adjacency, in which no pair up to ``after`` separates; its parts resume
    the pair search above the pair it is split at.  A part that hangs from
    a central ``bond`` takes its link when it leaves the worklist, so links
    are numbered depth first.  Every part is simple, its one edge on the
    split pair being virtual, so its adjacency is the parent's cut down.
    Skeletons are recorded in any order: the numbering pass sorts them.
    """
    skeletons: list[tuple[str, list[_MEdge]]] = []
    links = 0
    edges = [_MEdge(p, "real", None) for p in g.edge_list()]
    work: list[tuple[list[_MEdge], dict[int, list[int]], Edge, list[_MEdge] | None]] = [
        (edges, {x: list(nbrs) for x, nbrs in enumerate(g.adj)}, (-1, -1), None)
    ]
    while work:
        edges, adj, after, bond = work.pop()
        if bond is not None:
            bond.append(_MEdge(after, "virtual", links))
            edges.append(_MEdge(after, "virtual", links))
            links += 1
        if _is_cycle(edges, adj):
            skeletons.append(("S", edges))
            continue
        pair = _find_split_pair(adj, len(edges), after)
        if pair is None:
            if len(adj) < 4:
                raise StructuralError("no split pair in a non-atomic component")
            skeletons.append(("R", edges))
            continue
        comps = components(adj, pair)
        side = {x: i for i, comp in enumerate(comps) for x in comp}
        central: list[_MEdge] = []  # the real edge on the pair, if any
        classes: list[list[_MEdge]] = [[] for _ in comps]
        for e in edges:
            u, v = e.pair
            if e.pair == pair:
                central.append(e)
            else:
                classes[side[u] if u in side else side[v]].append(e)
        # a part's vertices keep their neighbors; each pole keeps those in
        # the part and gains the other pole
        parts = []
        for comp in comps:
            part = {x: adj[x] for x in comp}
            for p, q in (pair, pair[::-1]):
                part[p] = [y for y in adj[p] if y in comp] + [q]
            parts.append(part)
        if not central and len(classes) == 2:
            work += [
                (cls + [_MEdge(pair, "virtual", links)], part, pair, None)
                for cls, part in zip(classes, parts)
            ][::-1]
            links += 1
            continue
        # a central bond of the real edge and one virtual edge per class
        skeletons.append(("P", central))
        work += [(cls, part, pair, central) for cls, part in zip(classes, parts)][::-1]
    return skeletons, links


def _merge_same_kind(
    skeletons: list[tuple[str, list[_MEdge]]],
) -> list[tuple[str, list[_MEdge]]]:
    """Contract series-series and parallel-parallel links in one union-find
    pass over the virtual links: a merged S stays an S (two cycles make a
    cycle) and a merged P a P (two bonds a bond), so no merge enables
    another."""
    owners: dict[int, list[int]] = {}
    for idx, (_kind, skel) in enumerate(skeletons):
        for e in skel:
            if e.kind == "virtual":
                owners.setdefault(e.link, []).append(idx)
    root = list(range(len(skeletons)))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    contracted: set[int] = set()
    for link, owner in owners.items():
        if len(owner) != 2:
            raise StructuralError(f"virtual pair {link} not shared by two nodes")
        a, b = owner
        if a == b:
            raise StructuralError(f"virtual pair {link} inside one node")
        if skeletons[a][0] == skeletons[b][0] in ("S", "P"):
            root[find(b)] = find(a)
            contracted.add(link)
    merged: dict[int, tuple[str, list[_MEdge]]] = {}
    for idx, (kind, skel) in enumerate(skeletons):
        merged.setdefault(find(idx), (kind, []))[1].extend(
            e for e in skel if e.link not in contracted
        )
    return list(merged.values())


def build_spqr(g: Graph) -> SpqrTree:
    """Unique SPQR tree of a biconnected graph, deterministic node order."""
    require_biconnected(g)
    skeletons, links = _split(g)
    return _number(_merge_same_kind(skeletons), links)


def _number(record: list[tuple[str, list[_MEdge]]], links: int) -> SpqrTree:
    """The tree of the merged skeletons, each node built once with its final
    tree edge ids; links up to ``links`` are in use."""
    # materialize Q leaves for the real edge of each parallel skeleton
    q_edges = [e for kind, skel in record if kind == "P" for e in skel if e.kind == "real"]
    for link, e in enumerate(q_edges, links):
        e.link = link
        record.append(("Q", [_MEdge(e.pair, "real", link)]))

    # deterministic ordering: nodes by smallest contained vertex, then
    # shape; tree edges by their two nodes and poles
    keyed = []
    for kind, skel in record:
        vs = sorted(_vertices(skel))
        keyed.append(((vs[0], vs, kind, sorted((e.pair, e.kind) for e in skel)), kind, skel))
    keyed.sort(key=lambda item: item[0])
    ends: dict[int, list[tuple[int, Edge]]] = {}
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
                for e in sorted(skel, key=lambda e: (e.pair, e.kind, -1 if e.link is None else e.link))
            ),
        )
        for nid, (key, kind, skel) in enumerate(keyed)
    )
    return SpqrTree(nodes, tuple(TreeEdge(i, x, y, *p) for i, (x, y, p, _) in enumerate(spans)))


# ---------------------------------------------------------------------------
# Reconstruction and projections
# ---------------------------------------------------------------------------


def reconstruct(t: SpqrTree) -> Graph:
    """Merge the tree back into the simple graph it represents."""
    kinds = {n.id: n.kind for n in t.nodes}
    membership = {n.id: n.id for n in t.nodes}
    skels: dict[int, list[SkeletonEdge]] = {n.id: list(n.edges) for n in t.nodes}

    def find(x: int) -> int:
        while membership[x] != x:
            membership[x] = membership[membership[x]]
            x = membership[x]
        return x

    for te in t.tree_edges:
        a, b = find(te.x), find(te.y)
        if a == b:
            raise StructuralError("tree edge joins an already merged component")
        keep_a = kinds[te.x] == "Q"
        keep_b = kinds[te.y] == "Q"
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
    n = max((max(p) for p in pairs), default=-1) + 1
    return build_graph(n, pairs)


def node_views(t: SpqrTree) -> list[dict]:
    """Per-node projection: kind, neighbor kinds, virtual edge endpoints."""
    kinds = {n.id: n.kind for n in t.nodes}
    nbrs: dict[int, list[tuple[int, str, Edge]]] = {n.id: [] for n in t.nodes}
    for te in t.tree_edges:
        nbrs[te.x].append((te.y, kinds[te.y], (te.u, te.v)))
        nbrs[te.y].append((te.x, kinds[te.x], (te.u, te.v)))
    out = []
    for node in t.nodes:
        out.append(
            {
                "id": node.id,
                "kind": node.kind,
                "vertices": list(node.vertices),
                "neighbor_kinds": sorted(k for _, k, _ in nbrs[node.id]),
                "virtual_endpoints": sorted(
                    e.pair() for e in node.edges if e.kind == "virtual"
                ),
            }
        )
    return out


def tree_to_json(t: SpqrTree) -> str:
    payload = {
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "vertices": list(n.vertices),
                "edges": [
                    {"u": e.u, "v": e.v, "kind": e.kind, "link": e.link}
                    for e in n.edges
                ],
            }
            for n in t.nodes
        ],
        "tree_edges": [
            {"id": te.id, "x": te.x, "y": te.y, "u": te.u, "v": te.v}
            for te in t.tree_edges
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def tree_from_json(text: str) -> SpqrTree:
    payload = json.loads(text)
    nodes = tuple(
        SpqrNode(
            d["id"],
            d["kind"],
            tuple(d["vertices"]),
            tuple(
                SkeletonEdge(e["u"], e["v"], e["kind"], e["link"])
                for e in d["edges"]
            ),
        )
        for d in payload["nodes"]
    )
    tes = tuple(
        TreeEdge(d["id"], d["x"], d["y"], d["u"], d["v"])
        for d in payload["tree_edges"]
    )
    return SpqrTree(nodes, tes)


def verify_tree(t: SpqrTree, g: Graph) -> list[str]:
    """All invariant violations of the tree against its graph (empty = ok)."""
    issues: list[str] = []
    kinds = {n.id: n.kind for n in t.nodes}

    for node in t.nodes:
        pairs = [e.pair() for e in node.edges]
        vs = set(node.vertices)
        if node.kind == "Q":
            if len(node.edges) != 1 or node.edges[0].kind != "real":
                issues.append(f"node {node.id}: Q skeleton is not a single real edge")
        elif node.kind == "P":
            if len(vs) != 2 or len(node.edges) < 3:
                issues.append(f"node {node.id}: P skeleton is not a bundle of >=3 edges")
            if len(set(pairs)) != 1:
                issues.append(f"node {node.id}: P edges disagree on endpoints")
        elif node.kind == "S":
            if len(set(pairs)) != len(pairs) or len(pairs) != len(vs):
                issues.append(f"node {node.id}: S skeleton is not a simple cycle")
            else:
                sg = dense_graph(vs, pairs)[0]
                if any(sg.degree(x) != 2 for x in range(sg.n)):
                    issues.append(f"node {node.id}: S skeleton is not a cycle")
        elif node.kind == "R":
            if len(set(pairs)) != len(pairs):
                issues.append(f"node {node.id}: R skeleton has parallel edges")
            else:
                sg = dense_graph(vs, pairs)[0]
                if not is_triconnected(sg):
                    issues.append(f"node {node.id}: R skeleton is not 3-connected")
        else:
            issues.append(f"node {node.id}: unknown kind {node.kind}")

    for te in t.tree_edges:
        kx, ky = kinds[te.x], kinds[te.y]
        if kx == ky and kx in ("S", "P"):
            issues.append(f"tree edge {te.id}: adjacent {kx} nodes")

    adj: dict[int, list[tuple[int, int]]] = {n.id: [] for n in t.nodes}
    for te in t.tree_edges:
        adj[te.x].append((te.y, te.id))
        adj[te.y].append((te.x, te.id))

    def side(start: int, cut: int) -> set[int]:
        """The nodes reachable from ``start`` without crossing tree edge ``cut``."""
        seen = {start}
        stack = [start]
        while stack:
            for y, tid in adj[stack.pop()]:
                if tid != cut and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    spanning = True
    if len(t.nodes) > 1:
        if len(side(t.nodes[0].id, -1)) != len(t.nodes):
            issues.append("tree is not connected")
            spanning = False
        if len(t.tree_edges) != len(t.nodes) - 1:
            issues.append("tree edge count is not node count minus one")
            spanning = False

    try:
        back = reconstruct(t)
        if back != g:
            issues.append("reconstruction differs from the input graph")
    except StructuralError as exc:
        issues.append(f"reconstruction failed: {exc}")

    # separation semantics: the two sides of each non-Q tree edge share only
    # the virtual pair's endpoints; a structure that is no tree, reported
    # above, is cut edge by edge
    if spanning and t.tree_edges and len({te.id for te in t.tree_edges}) == len(t.tree_edges):
        shared_of = _shared_across_edges(t, adj).get
    else:

        def shared_of(te: TreeEdge) -> list[int] | None:
            near = side(te.x, te.id)
            vs_a: set[int] = set()
            vs_b: set[int] = set()
            for node in t.nodes:
                (vs_a if node.id in near else vs_b).update(node.vertices)
            shared = vs_a & vs_b
            return None if shared <= {te.u, te.v} else sorted(shared)

    for te in t.tree_edges:
        if kinds[te.x] == "Q" or kinds[te.y] == "Q":
            continue
        shared = shared_of(te)
        if shared is not None:
            issues.append(f"tree edge {te.id}: sides share vertices {shared} beyond the pair")
    return issues


def _shared_across_edges(
    t: SpqrTree, adj: dict[int, list[tuple[int, int]]]
) -> dict[TreeEdge, list[int]]:
    """The tree edges whose two sides share a vertex other than the edge's
    pair, each with all the shared vertices, sorted.

    One post-order pass from the first node counts each vertex's occurrences
    below every tree edge: a vertex is on both sides when its count there is
    neither 0 nor its count in the whole tree.  A node takes over its
    largest child's counts and adds the others' and its own vertices; the
    vertices on both sides are kept up to date as counts change, so an edge
    whose sides share at most its pair is checked in O(1)."""
    total: dict[int, int] = {}
    for node in t.nodes:
        for x in node.vertices:
            total[x] = total.get(x, 0) + 1
    by_id = {te.id: te for te in t.tree_edges}
    root = t.nodes[0].id
    up: dict[int, tuple[int, int] | None] = {root: None}  # parent and edge id
    order = [root]
    for x in order:
        for y, tid in adj[x]:
            if y not in up:
                up[y] = (x, tid)
                order.append(y)
    vertices = {node.id: node.vertices for node in t.nodes}
    below: dict[int, list[tuple[dict[int, int], set[int]]]] = {x: [] for x in order}
    bad: dict[TreeEdge, list[int]] = {}
    for x in reversed(order):
        parts = below.pop(x)
        counts, both = max(parts, key=lambda part: len(part[0]), default=({}, set()))
        added = [item for part in parts if part[0] is not counts for item in part[0].items()]
        for v, k in added + [(v, 1) for v in vertices[x]]:
            c = counts[v] = counts.get(v, 0) + k
            if c < total[v]:
                both.add(v)
            else:
                both.discard(v)
        if up[x] is not None:
            parent, tid = up[x]
            te = by_id[tid]
            if not both <= {te.u, te.v}:
                bad[te] = sorted(both)
            below[parent].append((counts, both))
    return bad
