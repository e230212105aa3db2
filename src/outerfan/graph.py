"""Simple undirected graphs over dense integer vertex ids.

Graphs are immutable values.  Every connectivity predicate here rests on one
search: an iterative lowpoint depth-first search (``_pieces_left``, after
Hopcroft and Tarjan, "Efficient algorithms for graph manipulation", CACM
1973), which counts the components and gives, for every vertex at once, the
number of pieces its deletion leaves of its component.  One lowpoint search
decides connectivity and finds the cut vertices in O(n + m).  The
separating-pair search (:func:`iter_separation_pairs`) runs one lowpoint
search on G - u for each vertex u, in increasing order, and reads off every
pair (u, v) whose removal disconnects G: O(n (n + m)) when no pair
separates.  It yields lazily, in lexicographic order, so that a caller
needing only the first pair stops there.  It answers
:func:`is_triconnected` and :func:`separation_pairs`, which check SPQR trees
independently of the linear-time pass that builds them
(:mod:`outerfan.spqr`); that pass decides biconnectivity and
3-connectivity in its own search, so the recognizer runs no pair search.
The search keeps an explicit stack, so no input size can exhaust the
interpreter's recursion limit.

One elimination (:func:`peel_degree3_k4`) removes degree-3 vertices of
4-cliques, least first.  A graph on k >= 4 vertices and 3k - 6 edges that
it reduces to a triangle is a 3-tree, hence 3-connected (K4 is, and joining
a vertex to a triangle keeps that).  :func:`three_tree_peel` states that
rule once.  It is the pair search's certificate, which then yields nothing,
and the recognizer's 3-tree test, whose peel it goes on to reinsert.

The on-disk format for graphs is a plain edge list: a header line ``n m``
followed by ``m`` lines ``u v`` with 0-based ids.  ``#`` starts a comment.
A header declaring more than :data:`MAX_FILE_VERTICES` vertices is an
input error, so that a few bytes of header cannot ask for gigabytes of
adjacency sets (:func:`cap_vertex_count`, which instance files share).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import GraphInputError

Edge = tuple[int, int]

MAX_FILE_VERTICES = 1 << 20  # vertices an input file or a generated instance may have


def norm_edge(u: int, v: int) -> Edge:
    """Return the edge as an ordered pair (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    n: int
    edges: frozenset[Edge]
    adj: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def edge_list(self) -> list[Edge]:
        return sorted(self.edges)

    def non_edges(self) -> list[Edge]:
        return [
            (u, v)
            for u, v in combinations(range(self.n), 2)
            if (u, v) not in self.edges
        ]


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph, collapsing duplicate edges and rejecting self-loops."""
    if n < 0:
        raise GraphInputError(f"vertex count must be non-negative, got {n}")
    edges: set[Edge] = set()
    for u, v in edge_list:
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphInputError(f"vertex id out of range [0,{n}): edge ({u},{v})")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        edges.add(norm_edge(u, v))
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, frozenset(edges), tuple(frozenset(a) for a in adj))


def complete_graph(n: int) -> Graph:
    return build_graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_two_hop_graph(n: int) -> Graph:
    """The n-cycle plus all its 2-hop chords (4-regular for n >= 5)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + 2) % n) for i in range(n)]
    return build_graph(n, edges)


def glued_chain(piece: Graph, k: int, at: Edge = (3, 4)) -> Graph:
    """k copies of ``piece`` in a chain: edge (0, 1) of each copy after the
    first is identified with edge ``at`` of the copy before it, 0 with
    ``at[0]`` and 1 with ``at[1]``; the other vertices of each copy take the
    next free ids.  The glued edges stay, so the SPQR tree is a path of k
    rigid nodes joined by k - 1 parallel nodes, each with one real edge."""
    label = list(range(piece.n))
    edges = set(piece.edges)
    n = piece.n
    for _ in range(k - 1):
        label = [label[at[0]], label[at[1]], *range(n, n + piece.n - 2)]
        n += piece.n - 2
        edges |= {norm_edge(label[u], label[v]) for u, v in piece.edges}
    return build_graph(n, edges)


def dense_graph(
    vertices: Iterable[int], edges: Iterable[tuple[int, int]]
) -> tuple[Graph, dict[int, int]]:
    """The graph of ``edges`` on ``vertices``, relabeled to ids ``0..k-1`` in
    increasing order of the old ids.

    Returns it with the old-to-new id map, whose keys run in increasing order,
    so ``list(relabel)`` is the new-to-old map.
    """
    relabel = {old: new for new, old in enumerate(sorted(set(vertices)))}
    return build_graph(len(relabel), [(relabel[a], relabel[b]) for a, b in edges]), relabel


def _pieces_left(
    nbrs: Sequence[Iterable[int]], skip: int = -1
) -> tuple[int, list[int]]:
    """One lowpoint depth-first search over the graph ``nbrs`` (dense ids,
    vertex to neighbors) with vertex ``skip`` deleted.

    Returns the number of components and, for every vertex v, the number of
    pieces that deleting v leaves of v's component: its DFS child count at a
    root (0 for an isolated vertex), and at any other vertex 1 plus its
    children whose subtree reaches no higher than v.  The entry for ``skip``
    is meaningless.
    """
    n = len(nbrs)
    disc = [0] * n  # DFS discovery number, 0 while unvisited
    low = [0] * n
    pieces = [1] * n
    if skip >= 0:
        disc[skip] = n + 1  # visited, and never lowers a lowpoint
    count = 0
    t = 0
    for root in range(n):
        if disc[root]:
            continue
        count += 1
        t += 1
        disc[root] = low[root] = t
        pieces[root] = 0
        stack = [(root, iter(nbrs[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if not disc[w]:
                    t += 1
                    disc[w] = low[w] = t
                    stack.append((w, iter(nbrs[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        pieces[p] += 1
    return count, pieces


def _k4_neighbors(adj, v: int) -> tuple[int, int, int] | None:
    """v's sorted neighbors if v has degree 3 and they are pairwise adjacent."""
    if len(adj[v]) != 3:
        return None
    a, b, c = sorted(adj[v])
    return (a, b, c) if b in adj[a] and c in adj[a] and c in adj[b] else None


# what peel_degree3_k4 returns: the removed vertices with their neighbor
# triples, and the adjacency left
Peel = tuple[list[tuple[int, tuple[int, int, int]]], dict[int, set[int]]]


def peel_degree3_k4(adj: Mapping[int, Iterable[int]]) -> Peel:
    """Remove the least degree-3 vertex of a 4-clique while there is one;
    return the removed vertices in order, each with its neighbor triple, and
    the adjacency of what is left.  A removal changes only its neighbors'
    status, so they are pushed again, and each pop is re-checked."""
    left = {v: set(nbrs) for v, nbrs in adj.items()}
    heap = [v for v in left if _k4_neighbors(left, v)]
    heapq.heapify(heap)
    steps = []
    while heap:
        v = heapq.heappop(heap)
        nbrs = _k4_neighbors(left, v) if v in left else None
        if nbrs is None:
            continue
        for w in nbrs:
            left[w].discard(v)
            heapq.heappush(heap, w)
        del left[v]
        steps.append((v, nbrs))
    return steps, left


def three_tree_peel(adj: Mapping[int, Collection[int]]) -> tuple[Peel | None, bool]:
    """The elimination of the graph ``adj`` (vertex to neighbors) if it has
    k >= 4 vertices and 3k - 6 edges, None for any other graph; and whether
    the elimination leaves a triangle, that is, whether the graph is a
    3-tree and so 3-connected."""
    k = len(adj)
    if k < 4 or sum(map(len, adj.values())) != 2 * (3 * k - 6):
        return None, False
    peel = peel_degree3_k4(adj)
    return peel, len(peel[1]) == 3


def iter_separation_pairs(adj: Mapping[int, Collection[int]]) -> Iterator[tuple[int, int]]:
    """Lazily yield, in lexicographic order, every vertex pair whose removal
    disconnects the graph ``adj`` (vertex to neighbors) on at least three
    vertices.  A 3-tree yields nothing without a search."""
    if three_tree_peel(adj)[1]:
        return
    vs = sorted(adj)
    index = {v: i for i, v in enumerate(vs)}
    nbrs = [[index[w] for w in adj[v]] for v in vs]
    for i, u in enumerate(vs):
        # G - {u, v} has count - 1 components besides the pieces v's
        # component of G - u falls into
        count, pieces = _pieces_left(nbrs, i)
        for j in range(i + 1, len(vs)):
            if count - 1 + pieces[j] >= 2:
                yield (u, vs[j])


def is_connected(g: Graph) -> bool:
    return _connectivity(g)[0]


def _connectivity(g: Graph) -> tuple[bool, list[int]]:
    """Whether ``g`` is connected, and its cut vertices, from one lowpoint
    search."""
    count, pieces = _pieces_left(g.adj)
    return count <= 1, [v for v in range(g.n) if pieces[v] >= 2]


def cut_vertices(g: Graph) -> list[int]:
    """All vertices whose removal disconnects the graph (n >= 3)."""
    if g.n < 3:
        return []
    connected, cuts = _connectivity(g)
    return cuts if connected else []


def is_biconnected(g: Graph) -> bool:
    """Connected, at least three vertices, no cut vertex."""
    if g.n < 3:
        return False
    connected, cuts = _connectivity(g)
    return connected and not cuts


@dataclass(frozen=True)
class SeparationPair:
    """A vertex pair whose removal disconnects the graph."""

    u: int
    v: int


def separation_pairs(g: Graph) -> list[SeparationPair]:
    """All separation pairs, in lexicographic order."""
    if g.n < 4 or not is_connected(g):
        return []
    return [SeparationPair(u, v) for u, v in iter_separation_pairs(dict(enumerate(g.adj)))]


def is_triconnected(g: Graph) -> bool:
    """More than three vertices, biconnected, and no separation pair."""
    if g.n < 4:
        return False
    if not is_biconnected(g):
        return False
    return next(iter_separation_pairs(dict(enumerate(g.adj))), None) is None


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------


def cap_vertex_count(n: int, what: str) -> None:
    """Reject more than :data:`MAX_FILE_VERTICES` vertices; ``what`` begins the message."""
    if n > MAX_FILE_VERTICES:
        raise GraphInputError(f"{what} {n} vertices, above the cap {MAX_FILE_VERTICES}")


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m`` / ``u v`` edge-list format; '#' starts a comment."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    if not rows:
        raise GraphInputError("empty edge-list file")
    lineno, header = rows[0]
    if len(header) != 2:
        raise GraphInputError(f"line {lineno}: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphInputError(f"line {lineno}: bad header: {exc}") from None
    cap_vertex_count(n, f"line {lineno}: header declares")
    if len(rows) - 1 != m:
        raise GraphInputError(
            f"header declares {m} edges but file has {len(rows) - 1} edge lines"
        )
    edges = []
    for lineno, fields in rows[1:]:
        if len(fields) != 2:
            raise GraphInputError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphInputError(f"line {lineno}: bad edge: {exc}") from None
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphInputError(f"line {lineno}: vertex id out of range [0,{n})")
        if u == v:
            raise GraphInputError(f"line {lineno}: self-loop at {u}")
        edges.append((u, v))
    return build_graph(n, edges)


def read_input(path: str | Path) -> str:
    """Text of a UTF-8 input file; other bytes are a GraphInputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphInputError(f"{path}: not UTF-8 text: {exc}") from None


def load_graph(path: str | Path) -> Graph:
    return parse_edge_list(read_input(path))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edge_list()]
    return "\n".join(lines) + "\n"
