"""SPQR-tree decomposition of biconnected graphs.

The tree is built in two flat passes, neither of which recurses, so trees
thousands of nodes deep build at the default recursion limit.  The split
pass cuts the graph into its split components in linear time, after
Hopcroft and Tarjan, "Dividing a graph into triconnected components", SIAM
J. Comput. 1973, as corrected by Gutwenger and Mutzel, "A linear time
implementation of SPQR-trees", GD 2000: a palm-tree search with lowpoints,
a bucket sort of the arcs, a renumbering search, and one path search that
cuts a component off at every separation pair it meets and closes both
sides with a virtual edge.  Each component is a bond, a triangle or
3-connected.  The palm-tree search also checks the builder's precondition:
a graph that is not biconnected raises NotBiconnectedError (a
StructuralError) there, naming its least cut vertex, so no separate
connectivity search runs first, and a graph is 3-connected exactly when its
tree is one rigid node (:attr:`SpqrTree.triconnected`).  The numbering pass
works on the split's edge ids: it kinds each component, contracts
series-series and parallel-parallel links with one union-find, which gives
the classical unique decomposition into series (cycle), parallel (edge
bundle) and rigid (3-connected) nodes, orders nodes and tree edges
canonically, so the tree does not depend on the order in which the split
met its components, sorts each skeleton's edges once and builds each
record once.  A 2 x 5000 ladder builds in under a second on a 2-core
virtual machine.

The records :class:`SkeletonEdge`, :class:`SpqrNode` and :class:`TreeEdge`
are named tuples, so each compares equal to the plain tuple of its fields.

:func:`verify_tree` checks a tree against its graph without the split: its
rigid skeletons go to :func:`outerfan.graph.is_triconnected`, whose
separating-pair search is independent of it.

Representation choice: real edges live inside the S/P/R skeletons they
belong to.  A parallel node's real edge additionally gets an explicit
single-edge Q leaf, so that "adjacent to a Q node" is a queryable tree fact;
series and rigid real edges carry no Q leaves.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotBiconnectedError, StructuralError
from .graph import (
    Edge,
    Graph,
    build_graph,
    dense_graph,
    is_triconnected,
    norm_edge,
)


class SkeletonEdge(NamedTuple):
    u: int
    v: int
    kind: str  # "real" or "virtual"
    link: int | None  # tree edge id for virtual edges and Q-linked real edges

    def pair(self) -> Edge:
        return norm_edge(self.u, self.v)


class SpqrNode(NamedTuple):
    id: int
    kind: str  # "S", "P", "R", "Q"
    vertices: tuple[int, ...]
    edges: tuple[SkeletonEdge, ...]


class TreeEdge(NamedTuple):
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
# Construction: split, then number
# ---------------------------------------------------------------------------


class _PalmTree(NamedTuple):
    """A palm tree of a biconnected graph on Hopcroft and Tarjan's new
    numbers 1..n, 1 being the root, as the path search takes it.  Arc ids
    0..m-1 are the edges of g in the order the first search met them; a
    tree arc points from a father to its child, a frond from a vertex to an
    ancestor.  Lists indexed by vertex have an unused entry 0."""

    node: list[int]  # new number to vertex of g
    low1: list[int]
    low2: list[int]
    nd: list[int]  # descendants, the vertex included
    father: list[int]  # 0 at the root
    degree: list[int]
    arcs: list[list[int]]  # a vertex's out-arcs by phi
    slot: list[int]  # an arc's index in its tail's arcs
    src: list[int]
    dst: list[int]
    tree: list[bool]
    tree_arc: list[int]  # the arc into a vertex from its father
    starts: list[bool]  # the arcs that start a path
    highs: list[deque[list]]  # the fronds entering a vertex in the order found
    in_high: list[list | None]  # a frond's [source, alive] entry there


def _palm_tree(g: Graph) -> _PalmTree:
    """Hopcroft and Tarjan's first two passes over g, each with an explicit
    stack: a palm tree from vertex 0 with lowpt1, lowpt2 and nd of every
    vertex, numbering the arcs as it meets them; then the arcs bucket-sorted
    by phi, and a second search in that order that renumbers the vertices
    (a vertex before its descendants, a later child's subtree before an
    earlier one's), marks the arcs that start a path and lists the fronds
    entering each vertex.

    The first search also decides that g is biconnected, and raises
    NotBiconnectedError if it is not: for fewer than three vertices, for a
    search that misses a vertex, or naming the least cut vertex, which is
    the root if it has a second child, and otherwise a vertex p with a
    child w whose lowpt1 is not below p's number."""
    n = g.n
    if n < 3:
        raise NotBiconnectedError(f"graph has {n} < 3 vertices")
    cuts: list[int] = []
    num = [0] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    father = [-1] * n
    src: list[int] = []
    dst: list[int] = []
    tree: list[bool] = []
    num[0] = low1[0] = low2[0] = count = 1
    rest = [iter(nbrs) for nbrs in g.adj]  # the neighbors a vertex has not met
    stack = [0]
    while stack:
        v = stack[-1]
        for w in rest[v]:
            x = num[w]
            if not x:
                src.append(v)
                dst.append(w)
                tree.append(True)
                father[w] = v
                count += 1
                num[w] = low1[w] = low2[w] = count
                stack.append(w)
                break
            if x < num[v] and w != father[v]:  # a frond to an ancestor
                src.append(v)
                dst.append(w)
                tree.append(False)
                if x < low1[v]:
                    low1[v], low2[v] = x, low1[v]
                elif low1[v] < x < low2[v]:
                    low2[v] = x
        else:
            stack.pop()
            if stack:
                p = father[v]
                if low1[v] < low1[p]:
                    low2[p] = min(low1[p], low2[v])
                    low1[p] = low1[v]
                elif low1[v] == low1[p]:
                    low2[p] = min(low2[p], low2[v])
                else:
                    low2[p] = min(low2[p], low1[v])
                nd[p] += nd[v]
                if low1[v] >= num[p] and p:
                    cuts.append(p)
    if count < n:
        raise NotBiconnectedError("graph is not connected")
    if father.count(0) > 1:
        cuts.append(0)
    if cuts:
        raise NotBiconnectedError(f"graph has a cut vertex: {min(cuts)}")

    m = len(src)
    buckets: list[list[int]] = [[] for _ in range(3 * n + 3)]
    for e in range(m):
        w = dst[e]
        if not tree[e]:
            buckets[3 * num[w] + 1].append(e)
        elif low2[w] < num[src[e]]:
            buckets[3 * low1[w]].append(e)
        else:
            buckets[3 * low1[w] + 2].append(e)
    out: list[list[int]] = [[] for _ in range(n)]
    slot = [0] * m
    for bucket in buckets:
        for e in bucket:
            arcs = out[src[e]]
            slot[e] = len(arcs)
            arcs.append(e)

    # the second search gives each vertex its new number on entering it,
    # after its ancestors, so its lowpoints (numbers of ancestors or its
    # own) are renumbered there too
    new = [0] * n
    renum = [0] * (n + 1)  # old number to new
    node = [0] * (n + 1)
    L1 = [0] * (n + 1)
    L2 = [0] * (n + 1)
    ND = [0] * (n + 1)
    F = [0] * (n + 1)
    degree = [0] * (n + 1)
    A: list[list[int]] = [[]] * (n + 1)
    tree_arc = [0] * (n + 1)
    starts = [False] * m
    highs: list[deque[list]] = [deque() for _ in range(n + 1)]
    in_high: list[list | None] = [None] * m
    count = n  # the last number of the subtree being entered
    path_starts = True
    nxt = [0] * n
    stack = [0]
    e = -1
    while stack:
        v = stack[-1]
        arcs = out[v]
        i = nxt[v]
        if i == 0:  # entering v through the tree arc e
            x = new[v] = count - nd[v] + 1
            renum[num[v]] = x
            node[x] = v
            L1[x], L2[x], ND[x] = renum[low1[v]], renum[low2[v]], nd[v]
            F[x] = new[father[v]] if v else 0
            degree[x] = len(g.adj[v])
            A[x] = arcs
            tree_arc[x] = e
        while i < len(arcs):
            e = arcs[i]
            i += 1
            if path_starts:
                path_starts = False
                starts[e] = True
            w = dst[e]
            if tree[e]:
                nxt[v] = i
                stack.append(w)
                break
            in_high[e] = entry = [new[v], True]
            highs[new[w]].append(entry)
            path_starts = True
        else:
            stack.pop()
            count -= 1
    return _PalmTree(
        node, L1, L2, ND, F, degree, A, slot, [new[x] for x in src], [new[x] for x in dst],
        tree, tree_arc, starts, highs, in_high,
    )


def _split(g: Graph) -> tuple[list[list[int]], list[Edge]]:
    """Split a biconnected graph into its split components; returns them as
    lists of edge ids, and the normalized endpoint pair of every edge id in
    g's labels.

    Hopcroft and Tarjan's path search, with Gutwenger and Mutzel's
    corrections, over the palm tree of :func:`_palm_tree` and an explicit
    stack.  It keeps the candidate type-2 pairs on TSTACK as triples
    (h, a, b) and the edges not yet split off on ESTACK, and cuts a
    component off at every type-2 and type-1 pair it meets, closing it and
    the rest by a virtual edge; an edge parallel to a new virtual edge goes
    into a bond with it at once.  The graph it works on changes as it goes:
    a virtual edge takes the place of what was cut off, as a tree arc or a
    frond, and ``deg`` follows the degrees.  Edge ids from m on are the
    virtual edges.  Skeletons are recorded in any order: the numbering
    pass sorts them.
    """
    n, m = g.n, g.m
    palm = _palm_tree(g)
    node, L1, L2, ND, F, deg, A, slot, S, T, tree, tree_arc, starts, H, in_high = palm
    # a deleted arc leaves -1 in its slot of A

    def high(x: int) -> int:
        """The source of the first frond entering x still there, 0 if none."""
        entries = H[x]
        while entries and not entries[0][1]:
            entries.popleft()
        return entries[0][0] if entries else 0

    def del_high(e: int) -> None:
        entry = in_high[e]
        if entry is not None:
            entry[1] = False
            in_high[e] = None

    def new_edge(x: int, y: int) -> int:
        S.append(x)
        T.append(y)
        tree.append(False)
        slot.append(0)
        in_high.append(None)
        return len(S) - 1

    first = [0] * (n + 1)

    def first_child(x: int) -> int:
        """The head of x's first undeleted arc, 0 if none is left."""
        arcs, k = A[x], first[x]
        while k < len(arcs) and arcs[k] < 0:
            k += 1
        first[x] = k
        return T[arcs[k]] if k < len(arcs) else 0

    EOS = (0, -1, 0)  # end of a segment; its a is below every vertex
    tstack = [EOS]  # TSTACK: triples (h, a, b)
    estack: list[int] = []
    comps: list[list[int]] = []
    nxt = [0] * (n + 1)
    outv = [0] * (n + 1)  # a vertex's out-arcs less its tree arcs finished
    entered = [0] * (n + 1)  # the arc a vertex's search descended through
    outv[1] = len(A[1])
    stack = [1]
    while stack:
        v = stack[-1]
        arcs = A[v]
        i = nxt[v]
        while i < len(arcs):
            e = arcs[i]
            w = T[e]
            if tree[e]:
                if starts[e]:
                    lw = L1[w]
                    if tstack[-1][1] > lw:
                        y = 0
                        while tstack[-1][1] > lw:
                            h, _, b = tstack.pop()
                            y = max(y, h)
                        tstack.append((y, lw, b))
                    else:
                        tstack.append((w + ND[w] - 1, lw, v))
                    tstack.append(EOS)
                nxt[v] = i
                entered[v] = e
                outv[w] = len(A[w])
                stack.append(w)
                break
            if starts[e]:
                if tstack[-1][1] > w:
                    y = 0
                    while tstack[-1][1] > w:
                        h, _, b = tstack.pop()
                        y = max(y, h)
                    tstack.append((y, w, b))
                else:
                    tstack.append((v, w, v))
            estack.append(e)
            i += 1
        else:
            stack.pop()
            if not stack:
                break
            # back from w to its father v over the arc in slot i of A[v]
            w = v
            v = stack[-1]
            arcs = A[v]
            i = nxt[v]
            e = entered[v]
            estack.append(tree_arc[w])
            # type-2 pairs (v, b): from a triple with a = v, or around a
            # child w of degree 2 that has a child
            while v != 1:
                h, a, b = tstack[-1]
                deg2 = deg[w] == 2 and first_child(w) > w
                if a != v and not deg2:
                    break
                if a == v and F[b] == v:
                    tstack.pop()
                    continue
                e_ab = -1
                if deg2:
                    # w has degree 2 and a child x: split off the path v-w-x
                    e1 = estack.pop()
                    e2 = estack.pop()
                    A[w][slot[e2]] = -1
                    x = T[e2]
                    virtual = new_edge(v, x)
                    deg[x] -= 1
                    deg[v] -= 1
                    comps.append([e1, e2, virtual])
                    if estack and S[estack[-1]] == x and T[estack[-1]] == v:
                        e_ab = estack.pop()
                        A[x][slot[e_ab]] = -1
                        del_high(e_ab)
                else:
                    tstack.pop()
                    comp = []
                    while estack:
                        xy = estack[-1]
                        x, y = S[xy], T[xy]
                        if not (a <= x <= h and a <= y <= h):
                            break
                        estack.pop()
                        if (x == a and y == b) or (x == b and y == a):
                            e_ab = xy
                            A[x][slot[xy]] = -1
                            del_high(xy)
                        else:
                            if x != v or slot[xy] != i:
                                A[x][slot[xy]] = -1
                                del_high(xy)
                            comp.append(xy)
                            deg[x] -= 1
                            deg[y] -= 1
                    virtual = new_edge(a, b)
                    comp.append(virtual)
                    comps.append(comp)
                    x = b
                if e_ab >= 0:
                    bond = new_edge(v, x)
                    comps.append([e_ab, virtual, bond])
                    virtual = bond
                    deg[x] -= 1
                    deg[v] -= 1
                estack.append(virtual)
                arcs[i] = virtual
                slot[virtual] = i
                deg[x] += 1
                deg[v] += 1
                F[x] = v
                tree_arc[x] = virtual
                tree[virtual] = True
                w = x
            # a type-1 pair (lowpt1(w), v)
            lw = L1[w]
            if L2[w] >= v > lw and (F[v] != 1 or outv[v] >= 2):
                comp = []
                x = y = 0
                while estack:
                    xy = estack[-1]
                    x, y = S[xy], T[xy]
                    if not (w <= x < w + ND[w] or w <= y < w + ND[w]):
                        break
                    comp.append(estack.pop())
                    del_high(xy)
                    deg[x] -= 1
                    deg[y] -= 1
                virtual = new_edge(v, lw)
                comp.append(virtual)
                comps.append(comp)
                if estack and ((x == v and y == lw) or (x == lw and y == v)):
                    eh = estack.pop()
                    if x != v or slot[eh] != i:
                        A[S[eh]][slot[eh]] = -1
                    bond = new_edge(v, lw)
                    comps.append([eh, virtual, bond])
                    in_high[bond] = in_high[eh]
                    virtual = bond
                    deg[v] -= 1
                    deg[lw] -= 1
                if lw != F[v]:
                    estack.append(virtual)
                    arcs[i] = virtual
                    slot[virtual] = i
                    if in_high[virtual] is None and high(lw) < v:
                        in_high[virtual] = entry = [v, True]
                        H[lw].appendleft(entry)
                    deg[v] += 1
                    deg[lw] += 1
                else:
                    # the new edge is parallel to the tree arc into v
                    arcs[i] = -1
                    eh = tree_arc[v]
                    arc = new_edge(lw, v)
                    comps.append([virtual, arc, eh])
                    tree_arc[v] = arc
                    tree[arc] = True
                    slot[arc] = slot[eh]
                    A[lw][slot[eh]] = arc
            if starts[e]:
                while tstack.pop() is not EOS:
                    pass
            while tstack[-1] is not EOS and tstack[-1][2] != v and high(v) > tstack[-1][0]:
                tstack.pop()
            outv[v] -= 1
            nxt[v] = i + 1
    comps.append(estack)
    ends = [(node[x], node[y]) if node[x] < node[y] else (node[y], node[x]) for x, y in zip(S, T)]
    return comps, ends


def build_spqr(g: Graph) -> SpqrTree:
    """Unique SPQR tree of a biconnected graph, deterministic node order;
    NotBiconnectedError if g is not biconnected (see :func:`_palm_tree`)."""
    comps, ends = _split(g)
    return _number(comps, ends, g.m)


def _find(root, x: int) -> int:
    """x's root in the union-find forest ``root`` (element to parent), halving paths."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


def _number(comps: list[list[int]], ends: list[Edge], m: int) -> SpqrTree:
    """The tree of the split components ``comps``, lists of edge ids: ids
    below m are the graph's edges, the others virtual edges, each of which
    two components share; edge e joins the pair ``ends[e]``.

    Each component is kinded and its vertices collected once.  Series-series
    and parallel-parallel links are contracted by a union-find over the
    components, found through an array indexed by edge id: a merged S stays
    an S (two cycles make a cycle) and a merged P a P (two bonds a bond),
    so no merge enables another.  The real edge of each parallel node then
    gets a Q leaf, which shares that edge's id as its link.  Nodes are
    ordered by their sorted vertices and kind, which no two nodes share,
    and tree edges by their two nodes and poles, so the tree does not
    depend on the order in which the split met its components.  Each
    skeleton's edges are sorted once: a parallel node's real edge first,
    then its virtual edges by tree edge id; any other node's by pair, which
    no two of its edges share."""
    # a component is a bond if its edges share one pair, a cycle if it has
    # as many edges as vertices, and 3-connected otherwise
    kinds = []
    verts = []
    for comp in comps:
        pairs = {ends[e] for e in comp}
        vs = set().union(*pairs)
        kinds.append("P" if len(pairs) == 1 else "S" if len(comp) == len(vs) else "R")
        verts.append(vs)
    root = list(range(len(comps)))
    shared = len(comps)  # owner of a virtual edge both of whose components are seen
    owner = [-1] * len(ends)
    contracted = set()
    for c, comp in enumerate(comps):
        for e in comp:
            if e >= m:
                d = owner[e]
                owner[e] = shared if d >= 0 else c
                if d == c or d == shared:
                    raise StructuralError(f"virtual pair {e - m} not shared by two nodes")
                if d >= 0 and kinds[c] == kinds[d] != "R":
                    root[_find(root, c)] = _find(root, d)
                    contracted.add(e)
    if owner.count(shared) != len(ends) - m:
        raise StructuralError("dangling virtual pair after the split")

    merged: dict[int, tuple[str, set[int], list[int]]] = {}
    for c, comp in enumerate(comps):
        r = _find(root, c)
        if r not in merged:
            merged[r] = (kinds[c], verts[c], comp)
        else:
            merged[r][1].update(verts[c])
            merged[r][2].extend(comp)
    nodes = []
    for kind, vs, edges in merged.values():
        if contracted:
            edges = [e for e in edges if e not in contracted]
        vs = sorted(vs)
        nodes.append((vs, kind, edges))
        if kind == "P":
            nodes += [(vs, "Q", [e]) for e in edges if e < m]
    nodes.sort(key=lambda node: node[:2])

    # a link is a virtual edge, or a real edge of a parallel node and its Q leaf
    first = [-1] * len(ends)
    spans = []
    for nid, (_vs, kind, edges) in enumerate(nodes):
        linked = kind == "P" or kind == "Q"
        for e in edges:
            if e >= m or linked:
                x = first[e]
                if x < 0:
                    first[e] = nid
                else:
                    spans.append((x, nid, ends[e], e))
    spans.sort()
    tid: list[int | None] = [None] * len(ends)
    for i, span in enumerate(spans):
        tid[span[3]] = i
    out = []
    for nid, (vs, kind, edges) in enumerate(nodes):
        if kind == "P":
            edges.sort(key=lambda e: (e >= m, tid[e]))
        else:
            edges.sort(key=ends.__getitem__)
        skeleton = tuple(
            SkeletonEdge(*ends[e], "real" if e < m else "virtual", tid[e]) for e in edges
        )
        out.append(SpqrNode(nid, kind, tuple(vs), skeleton))
    tree_edges = tuple(TreeEdge(i, x, y, *p) for i, (x, y, p, _) in enumerate(spans))
    return SpqrTree(tuple(out), tree_edges)


# ---------------------------------------------------------------------------
# Reconstruction and serialization
# ---------------------------------------------------------------------------


def reconstruct(t: SpqrTree) -> Graph:
    """Merge the tree back into the simple graph it represents.

    Tree edges are taken in order, each joining the node sets of its two
    ends; the skeleton edges carrying its id are dropped from both sets,
    except from the set of an end that is a Q node not merged before.  What
    is left must be the real edges, each once."""
    kinds = {n.id: n.kind for n in t.nodes}
    membership = {n.id: n.id for n in t.nodes}
    skels = {n.id: n.edges for n in t.nodes}
    carriers: dict[int, list[tuple[int, int]]] = {}  # link to (node, edge index)
    for nid, skel in skels.items():
        for k, e in enumerate(skel):
            if e.link is not None:
                carriers.setdefault(e.link, []).append((nid, k))
    dropped: set[tuple[int, int]] = set()
    for te in t.tree_edges:
        if te.x not in kinds or te.y not in kinds:
            raise StructuralError(f"tree edge {te.id} names no node")
        a, b = _find(membership, te.x), _find(membership, te.y)
        if a == b:
            raise StructuralError("tree edge joins an already merged component")
        keep_a = kinds[te.x] == "Q"
        keep_b = kinds[te.y] == "Q"
        for nid, k in carriers.get(te.id, ()):
            c = _find(membership, nid)
            if (c == a and not keep_a) or (c == b and not keep_b):
                dropped.add((nid, k))
        membership[b] = a
        kinds[te.x] = kinds[te.y] = "merged"

    roots = {_find(membership, n.id) for n in t.nodes}
    if len(roots) != 1:
        raise StructuralError("tree edges do not connect all nodes")
    edges = [
        e for nid, skel in skels.items() for k, e in enumerate(skel) if (nid, k) not in dropped
    ]
    if any(e.kind == "virtual" for e in edges):
        raise StructuralError("virtual edges survive reconstruction")
    pairs = [e.pair() for e in edges]
    if len(pairs) != len(set(pairs)):
        raise StructuralError("reconstruction produced parallel edges")
    n = max((max(p) for p in pairs), default=-1) + 1
    return build_graph(n, pairs)


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


def verify_tree(t: SpqrTree, g: Graph) -> list[str]:
    """All invariant violations of the tree against its graph (empty = ok);
    a tree edge naming no node, or a skeleton edge ending outside its node's
    vertices, is one too, and the checks that would read it skip it."""
    issues: list[str] = []
    kinds = {n.id: n.kind for n in t.nodes}

    for node in t.nodes:
        pairs = [e.pair() for e in node.edges]
        vs = set(node.vertices)
        stray = {x for p in pairs for x in p} - vs
        if stray:
            issues.append(
                f"node {node.id}: skeleton edges end at {sorted(stray)}, not its vertices"
            )
        elif node.kind == "Q":
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

    tree_edges = []
    for te in t.tree_edges:
        named = te.x if te.x not in kinds else te.y
        if named not in kinds:
            issues.append(f"tree edge {te.id}: names no node {named}")
            continue
        tree_edges.append(te)
        kx, ky = kinds[te.x], kinds[te.y]
        if kx == ky and kx in ("S", "P"):
            issues.append(f"tree edge {te.id}: adjacent {kx} nodes")

    adj: dict[int, list[tuple[int, int]]] = {n.id: [] for n in t.nodes}
    for te in tree_edges:
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

    spanning = len(tree_edges) == len(t.tree_edges)
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
    if spanning and tree_edges and len({te.id for te in tree_edges}) == len(tree_edges):
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

    for te in tree_edges:
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
