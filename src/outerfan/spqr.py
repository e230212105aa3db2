"""SPQR-tree decomposition of biconnected graphs.

The tree is built by repeated splitting at separation pairs of an internal
multigraph: each split replaces the pair's edge classes by virtual edges and
recurses, and adjacent series-series or parallel-parallel components are
contracted afterwards.  That fixpoint is the classical unique decomposition
into series (cycle), parallel (edge bundle) and rigid (3-connected) nodes.
Each split decides its skeleton's kind once, from one call of the package's
shared, early-exit separating-pair search
(:func:`outerfan.graph.iter_separation_pairs`): a component with no split
pair is rigid.  The split parts resume that search above the pair the
split chose, since no pair up to it separates any part, so a pair found
not to separate is never tested again further down.  The search runs one
iterative lowpoint depth-first search per vertex, O(n (n + m)) per
component, which keeps the construction small and auditable while sizes in
the hundreds of vertices take well under a second.

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
    build_graph,
    components,
    dense_graph,
    is_triconnected,
    iter_separation_pairs,
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
# Internal multigraph machinery
# ---------------------------------------------------------------------------

# an edge is (u, v, kind, link): kind "real" carries link None, kind
# "virtual" carries the split id it pairs with


class _MEdge:
    __slots__ = ("u", "v", "kind", "link")

    def __init__(self, u: int, v: int, kind: str, link: int | None):
        self.u, self.v, self.kind, self.link = u, v, kind, link

    def pair(self) -> Edge:
        return norm_edge(self.u, self.v)


def _vertices(edges: list[_MEdge]) -> set[int]:
    vs: set[int] = set()
    for e in edges:
        vs.add(e.u)
        vs.add(e.v)
    return vs


def _adjacency(edges: list[_MEdge]) -> dict[int, tuple[int, ...]]:
    adj: dict[int, set[int]] = {}
    for e in edges:
        adj.setdefault(e.u, set()).add(e.v)
        adj.setdefault(e.v, set()).add(e.u)
    # the pair search walks these lists once per pair; a set grown by adds
    # keeps a sparse table that is slower to walk than a tuple
    return {x: tuple(nbrs) for x, nbrs in adj.items()}


def _is_cycle(edges: list[_MEdge], adj: dict[int, tuple[int, ...]]) -> bool:
    # with as many edges as vertices, all simple degrees 2 rules out parallels
    return (
        len(edges) == len(adj) >= 3
        and all(len(nbrs) == 2 for nbrs in adj.values())
        and len(components(adj)) == 1
    )


def _has_parallel(edges: list[_MEdge]) -> Edge | None:
    seen: set[Edge] = set()
    for e in sorted(edges, key=lambda e: e.pair()):
        p = e.pair()
        if p in seen:
            return p
        seen.add(p)
    return None


def _find_split_pair(
    edges: list[_MEdge], adj: dict[int, tuple[int, ...]], after: Edge
) -> Edge | None:
    """The least of the least parallel pair and the first separating pair,
    given that no pair up to ``after`` separates the component."""
    found = [_has_parallel(edges), next(iter_separation_pairs(adj, after), None)]
    return min((p for p in found if p is not None), default=None)


class _Decomposition:
    def __init__(self) -> None:
        self.skeletons: list[tuple[str, list[_MEdge]]] = []
        self.next_link = 0

    def new_link(self) -> int:
        self.next_link += 1
        return self.next_link - 1

    def split(self, edges: list[_MEdge], after: Edge = (-1, -1)) -> None:
        """Split the component ``edges``, in which no pair up to ``after``
        separates; its parts resume the pair search above the chosen pair."""
        adj = _adjacency(edges)
        if len(adj) == 2:
            self.skeletons.append(("P", edges))  # bond
            return
        if _is_cycle(edges, adj):
            self.skeletons.append(("S", edges))
            return
        pair = _find_split_pair(edges, adj, after)
        if pair is None:
            if len(adj) < 4:
                raise StructuralError("no split pair in a non-atomic component")
            self.skeletons.append(("R", edges))
            return
        u, v = pair
        singles = [e for e in edges if e.pair() == (u, v)]
        classes: list[list[_MEdge]] = [
            [e for e in edges if (e.u in comp or e.v in comp)]
            for comp in components(adj, (u, v))
        ]
        if len(singles) + len(classes) < 2:
            raise StructuralError("degenerate split")
        if not singles and len(classes) == 2:
            link = self.new_link()
            for cls in classes:
                self.split(cls + [_MEdge(u, v, "virtual", link)], pair)
            return
        # central bond absorbs every parallel edge and one virtual edge per
        # component class
        central: list[_MEdge] = list(singles)
        for cls in classes:
            link = self.new_link()
            central.append(_MEdge(u, v, "virtual", link))
            self.split(cls + [_MEdge(u, v, "virtual", link)], pair)
        self.skeletons.append(("P", central))


def _merge_same_kind(
    skeletons: list[tuple[str, list[_MEdge]]],
) -> list[tuple[str, list[_MEdge]]]:
    """Contract series-series and parallel-parallel adjacencies; a merged
    skeleton keeps its kind (two cycles make a cycle, two bonds a bond)."""
    work = [(kind, list(s)) for kind, s in skeletons]
    changed = True
    while changed:
        changed = False
        owners: dict[int, list[int]] = {}
        for idx, (_kind, skel) in enumerate(work):
            for e in skel:
                if e.kind == "virtual":
                    owners.setdefault(e.link, []).append(idx)
        for link, owner in sorted(owners.items()):
            if len(owner) != 2:
                raise StructuralError(f"virtual pair {link} not shared by two nodes")
            a, b = owner
            if a == b:
                raise StructuralError(f"virtual pair {link} inside one node")
            (ka, sa), (kb, sb) = work[a], work[b]
            if ka == kb and ka in ("S", "P"):
                merged = [e for e in sa + sb if not (e.kind == "virtual" and e.link == link)]
                work[a] = (ka, merged)
                del work[b]
                changed = True
                break
    return work


def build_spqr(g: Graph) -> SpqrTree:
    """Unique SPQR tree of a biconnected graph, deterministic node order."""
    require_biconnected(g)
    dec = _Decomposition()
    dec.split([_MEdge(u, v, "real", None) for u, v in g.edge_list()])
    # materialize Q leaves for the real edge of each parallel skeleton
    record = _merge_same_kind(dec.skeletons)
    q_nodes: list[tuple[str, list[_MEdge]]] = []
    next_link = dec.next_link
    for kind, skel in record:
        if kind != "P":
            continue
        for e in skel:
            if e.kind == "real":
                e.link = next_link
                q_nodes.append(
                    ("Q", [_MEdge(e.u, e.v, "real", next_link)])
                )
                next_link += 1
    record += q_nodes

    # deterministic ordering: sort by smallest contained vertex, then shape
    def sort_key(item):
        kind, skel = item
        vs = sorted(_vertices(skel))
        return (vs[0], vs, kind, sorted((e.pair(), e.kind) for e in skel))

    record.sort(key=sort_key)

    nodes: list[SpqrNode] = []
    link_owner: dict[int, list[tuple[int, Edge]]] = {}
    for nid, (kind, skel) in enumerate(record):
        edges = tuple(
            SkeletonEdge(*e.pair(), kind=e.kind, link=e.link)
            for e in sorted(skel, key=lambda e: (e.pair(), e.kind, e.link if e.link is not None else -1))
        )
        nodes.append(SpqrNode(nid, kind, tuple(sorted(_vertices(skel))), edges))
        for e in skel:
            if e.link is not None:
                link_owner.setdefault(e.link, []).append((nid, e.pair()))

    tree_edges = []
    for _link, owner in sorted(link_owner.items()):
        if len(owner) != 2:
            raise StructuralError("dangling virtual pair after assembly")
        (x, pu), (y, pv) = sorted(owner)
        if pu != pv:
            raise StructuralError("paired skeleton edges disagree on endpoints")
        tree_edges.append((x, y, pu))
    tree_edges.sort()
    tes = tuple(
        TreeEdge(tid, x, y, p[0], p[1]) for tid, (x, y, p) in enumerate(tree_edges)
    )

    # remap links to the final tree edge ids
    pair_to_tid: dict[tuple[int, int, Edge], int] = {}
    for te in tes:
        pair_to_tid[(te.x, te.y, (te.u, te.v))] = te.id
    final_nodes = []
    # rebuild skeleton edges with tree edge ids as links
    link_map: dict[int, int] = {}
    for link, owner in link_owner.items():
        (x, pu), (y, _pv) = sorted(owner)
        link_map[link] = pair_to_tid[(x, y, pu)]
    for node in nodes:
        new_edges = tuple(
            SkeletonEdge(
                e.u, e.v, e.kind, link_map[e.link] if e.link is not None else None
            )
            for e in node.edges
        )
        final_nodes.append(SpqrNode(node.id, node.kind, node.vertices, new_edges))
    return SpqrTree(tuple(final_nodes), tes)


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

    degree: dict[int, int] = {n.id: 0 for n in t.nodes}
    for te in t.tree_edges:
        degree[te.x] += 1
        degree[te.y] += 1
        kx, ky = kinds[te.x], kinds[te.y]
        if kx == ky and kx in ("S", "P"):
            issues.append(f"tree edge {te.id}: adjacent {kx} nodes")

    if len(t.nodes) > 1:
        adj: dict[int, set[int]] = {n.id: set() for n in t.nodes}
        for te in t.tree_edges:
            adj[te.x].add(te.y)
            adj[te.y].add(te.x)
        if len(components(adj)) != 1:
            issues.append("tree is not connected")
        if len(t.tree_edges) != len(t.nodes) - 1:
            issues.append("tree edge count is not node count minus one")

    try:
        back = reconstruct(t)
        if back != g:
            issues.append("reconstruction differs from the input graph")
    except StructuralError as exc:
        issues.append(f"reconstruction failed: {exc}")

    # separation semantics: the two sides of each non-Q tree edge share only
    # the virtual pair's endpoints
    adj2: dict[int, set[tuple[int, int]]] = {n.id: set() for n in t.nodes}
    for te in t.tree_edges:
        adj2[te.x].add((te.y, te.id))
        adj2[te.y].add((te.x, te.id))
    node_by_id = {n.id: n for n in t.nodes}
    for te in t.tree_edges:
        if kinds[te.x] == "Q" or kinds[te.y] == "Q":
            continue
        side = {te.x}
        stack = [te.x]
        while stack:
            x = stack.pop()
            for y, tid in adj2[x]:
                if tid != te.id and y not in side:
                    side.add(y)
                    stack.append(y)
        vs_a: set[int] = set()
        vs_b: set[int] = set()
        for n_ in t.nodes:
            (vs_a if n_.id in side else vs_b).update(node_by_id[n_.id].vertices)
        shared = vs_a & vs_b
        if not shared <= {te.u, te.v}:
            issues.append(
                f"tree edge {te.id}: sides share vertices {sorted(shared)} beyond the pair"
            )
    return issues
