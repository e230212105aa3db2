"""Ground-truth brute force over circular orders.

Every outer drawing of an n-vertex graph is a circular order, and rotations
and reflections of an order are the same drawing.  Fixing vertex 0 at the
first position and keeping only orders whose second element is smaller than
their last quotients out both symmetries, leaving (n-1)!/2 canonical
candidates.  The oracle scans them all; the only shortcut taken is this
symmetry quotient, so a negative answer really means no drawing exists.
The candidates come from :func:`outerfan.circular.candidate_orders`, which
the recognizer's base case filters too; a test may replace them here.

A drawing is outer-fan-planar when every edge crossed more than once is
crossed only by edges sharing one endpoint.  With the vertices on a circle
that is the same as: no edge is crossed by two vertex-disjoint edges.
Crossers of a chord that pairwise share an endpoint share one common
endpoint or form a triangle, and they cannot form a triangle: each crosser
has one end on either side of the chord, so two of a triangle's three
vertices lie on one side, and the edge joining them does not cross it.

One kernel works on bitsets over orders, one bit per order in lexicographic
sequence.  A crossing table has a row per unordered pair of disjoint vertex
pairs {e, f}: the orders in which the chords e and f cross.  The valid
orders of G are ``full & ~OR(X[e,f] & X[e,g])`` over the 3-matchings
{e, f, g} of G, e being the chord crossed twice (:func:`_drop_crossed`).
The first set bit is the least valid order, and every set bit is a valid
one.  Maximality tests every non-edge h at once on the valid bits
(:func:`_extendable`): h can be added to a valid order unless, there, h is
crossed by two disjoint edges of G, or h crosses an edge of G that a third
edge, disjoint from h, crosses too.

Up to n = 10 (181,440 orders) the table is built once per n over every
canonical order and every row; at n = 10 that is 630 rows of 22,680 bytes,
about 14 MB.  Above n = 10 each chunk of orders gets a table of the rows
the graph's own 3-matchings use, and maximality builds one more over the
chunk's valid orders only.  The test
suite checks the kernel against the readable checker in
:mod:`outerfan.circular`, and maximality against one full scan per
non-edge.

The oracle is the package's only user of numpy, and it imports numpy inside
the kernel functions rather than at module level.  Importing the package,
the command line or the recognizer therefore does not load numpy; the first
scan does, and every later import is a ``sys.modules`` lookup.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from itertools import islice
from math import factorial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, TypeAlias

from .circular import CircularOrder, candidate_orders, distinct_drawings
from .errors import SizeLimitError
from .graph import Graph

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_N = 12

_CHUNK = 20_000  # orders per batch
_STORED_ORDERS = 200_000  # sizes with at most this many canonical orders keep their table
_BATCH = 1 << 18  # table words gathered per step of terms


def _order_chunks(orders: Iterable[CircularOrder], n: int) -> Iterator[np.ndarray]:
    """Orders of n vertices as int8 rows, in chunks of up to ``_CHUNK``."""
    import numpy as np
    orders = iter(orders)
    while block := list(islice(orders, _CHUNK)):
        yield np.array(block, dtype=np.int8).reshape(len(block), n)


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------


class _Layout(NamedTuple):
    """Numbering over n vertices.  Vertex pair i is ``(a[i], b[i])``, in
    lexicographic order, and ``pid`` maps a vertex pair to its id.  Table
    row r is the pair of disjoint vertex pairs ``(lesser[r], greater[r])``.
    Each 3-matching {x, y, z} appears three times, once per choice of its
    chord ``x`` crossed twice, with y < z and the rows ``r1`` of {x, y}
    and ``r2`` of {x, z}."""

    a: np.ndarray
    b: np.ndarray
    pid: np.ndarray
    lesser: np.ndarray
    greater: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    r1: np.ndarray
    r2: np.ndarray


@lru_cache(maxsize=None)
def _layout(n: int) -> _Layout:
    import numpy as np
    a, b = np.triu_indices(n, 1)
    pid = np.zeros((n, n), dtype=np.intp)
    pid[a, b] = pid[b, a] = np.arange(len(a))
    disjoint = (a[:, None] != a) & (a[:, None] != b) & (b[:, None] != a) & (b[:, None] != b)
    lesser, greater = np.nonzero(np.triu(disjoint))
    row = np.zeros((len(a), len(a)), dtype=np.intp)
    row[lesser, greater] = row[greater, lesser] = np.arange(len(lesser))
    r, x = np.nonzero(disjoint[lesser] & disjoint[greater])
    y, z = lesser[r], greater[r]
    return _Layout(a, b, pid, lesser, greater, x, y, z, row[x, y], row[x, z])


def _words(packed: np.ndarray) -> np.ndarray:
    """Packed bytes (last axis) as uint64 words, zero-padded.  Bitwise
    operations do not care, so bit i of the bytes, most significant bit
    first, stays order i."""
    import numpy as np
    pad = [(0, 0)] * (packed.ndim - 1) + [(0, -packed.shape[-1] % 8)]
    return np.pad(packed, pad).view(np.uint64)


def _full(k: int) -> np.ndarray:
    """The bitset of all k orders."""
    import numpy as np
    bits = np.zeros(-(-k // 64), dtype=np.uint64)
    packed = bits.view(np.uint8)
    packed[: k // 8] = 0xFF
    if k % 8:
        packed[k // 8] = 0xFF << (8 - k % 8) & 0xFF
    return bits


def _indices(bits: np.ndarray, k: int) -> np.ndarray:
    """The set bits of a bitset over k orders."""
    import numpy as np
    return np.flatnonzero(np.unpackbits(bits.view(np.uint8), count=k))


def _crossings(orders: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The crossing table of the given rows over int8 order rows: per row,
    the bits of the orders in which its two chords cross.  A chord {c, d}
    crosses {a, b} when exactly one of c, d lies strictly between a and b."""
    import numpy as np
    k, n = orders.shape
    lay = _layout(n)
    pos = np.empty((n, k), dtype=np.int8)
    pos[orders, np.arange(k)[:, None]] = np.arange(n, dtype=np.int8)
    centers, first = np.unique(lay.lesser[rows], return_inverse=True)
    ends = pos[lay.a[centers]], pos[lay.b[centers]]
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    # per chord of a row's lesser pair and per vertex, the orders placing
    # the vertex strictly inside the chord's span
    inside = np.packbits((lo[:, None] < pos) & (pos < hi[:, None]), axis=2)
    other = lay.greater[rows]
    return _words(inside[first, lay.a[other]] ^ inside[first, lay.b[other]])


@lru_cache(maxsize=None)
def _stored_chunks(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every canonical order of n vertices, chunked, each chunk with its
    crossing table over every row."""
    import numpy as np
    rows = np.arange(len(_layout(n).lesser))
    return tuple((orders, _crossings(orders, rows)) for orders in _order_chunks(candidate_orders(n), n))


def _edge_bits(g: Graph, lay: _Layout) -> np.ndarray:
    """One bool per vertex pair: whether it is an edge of g."""
    import numpy as np
    edge = np.zeros(len(lay.a), dtype=bool)
    if g.m:
        us, vs = np.array(g.edge_list()).T
        edge[lay.pid[us, vs]] = True
    return edge


class _Extension(NamedTuple):
    """The row pairs whose crossing bits, ANDed, rule an order out for g
    plus the non-edge numbered ``h`` among ``non_edges`` (sorted by it)."""

    h1: np.ndarray
    h2: np.ndarray
    h: np.ndarray
    non_edges: int


def _extension(lay: _Layout, edge: np.ndarray) -> _Extension:
    import numpy as np
    ex, ey, ez = edge[lay.x], edge[lay.y], edge[lay.z]
    # a non-edge h crossed by two disjoint edges (h = x), or crossing an
    # edge x that a third edge disjoint from h crosses too (h = y or z)
    new = np.where(ex, ey ^ ez, ey & ez)
    h = np.where(ex, np.where(ey, lay.z, lay.y), lay.x)[new]
    h = (np.cumsum(~edge) - 1)[h]
    by_h = np.argsort(h, kind="stable")
    return _Extension(lay.r1[new][by_h], lay.r2[new][by_h], h[by_h], len(edge) - int(edge.sum()))


def _drop_crossed(table: np.ndarray, r1: np.ndarray, r2: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """``valid`` less the orders in which the chords of some term's rows
    ``r1[i]`` and ``r2[i]`` both cross; stops once no order is left."""
    import numpy as np
    step = max(1, _BATCH // table.shape[1])
    for i in range(0, len(r1), step):
        valid = valid & ~np.bitwise_or.reduce(table[r1[i : i + step]] & table[r2[i : i + step]], axis=0)
        if not valid.any():
            break
    return valid


def _extendable(table: np.ndarray, x: _Extension, valid: np.ndarray) -> bool:
    """Whether some non-edge can be added to one of the ``valid`` orders
    with the drawing staying outer-fan-planar; ``x``'s rows index
    ``table``.  Only the words holding a valid order are read."""
    import numpy as np
    live = np.flatnonzero(valid)
    crossed = np.zeros((x.non_edges, len(live)), dtype=np.uint64)
    step = max(1, _BATCH // max(len(live), 1))
    for i in range(0, len(x.h), step):
        h = x.h[i : i + step]
        cells = table[x.h1[i : i + step, None], live] & table[x.h2[i : i + step, None], live]
        starts = np.flatnonzero(np.diff(h, prepend=-1))
        crossed[h[starts]] |= np.bitwise_or.reduceat(cells, starts, axis=0)
    return bool((valid[live] & ~crossed).any())


def _extendable_in(table: np.ndarray, valid: np.ndarray, extension: Callable[[], _Extension]) -> bool:
    """:func:`_extendable` on a table holding every row."""
    return _extendable(table, extension(), valid)


def _extendable_among(orders: np.ndarray, valid: np.ndarray, extension: Callable[[], _Extension]) -> bool:
    """:func:`_extendable` on a table of the extension's rows built over
    the valid orders only."""
    x = extension()
    used, (h1, h2) = _compact(x.h1, x.h2)
    sub = orders[_indices(valid, len(orders))]
    return _extendable(_crossings(sub, used), x._replace(h1=h1, h2=h2), _full(len(sub)))


def _compact(*rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct rows used, and each array renumbered into them."""
    import numpy as np
    used, inverse = np.unique(np.concatenate(rows), return_inverse=True)
    return used, np.split(inverse, np.cumsum([len(r) for r in rows[:-1]]))


_Chunks: TypeAlias = "Iterator[tuple[np.ndarray, np.ndarray, Callable[[], bool]]]"


def _valid_chunks(g: Graph) -> _Chunks:
    """The one scan: per chunk of the canonical orders in lexicographic
    sequence, the int8 order rows, the bits of those drawing g
    outer-fan-planar, and a test whether one of those stays so with a
    non-edge added."""
    lay = _layout(g.n)
    edge = _edge_bits(g, lay)
    own = edge[lay.x] & edge[lay.y] & edge[lay.z]
    r1, r2 = lay.r1[own], lay.r2[own]
    extension = cache(partial(_extension, lay, edge))
    if factorial(max(g.n - 1, 1)) // 2 <= _STORED_ORDERS:
        for rows, table in _stored_chunks(g.n):
            valid = _drop_crossed(table, r1, r2, _full(len(rows)))
            yield rows, valid, partial(_extendable_in, table, valid, extension)
        return
    used, (r1, r2) = _compact(r1, r2)
    for rows in _order_chunks(candidate_orders(g.n), g.n):
        valid = _drop_crossed(_crossings(rows, used), r1, r2, _full(len(rows)))
        yield rows, valid, partial(_extendable_among, rows, valid, extension)


def _valid_rows(rows: np.ndarray, valid: np.ndarray) -> list[CircularOrder]:
    return list(map(tuple, rows[_indices(valid, len(rows))].tolist()))


def _maximal(chunks: _Chunks) -> bool:
    """Some order is valid, and none stays valid with a non-edge added;
    stops at the first chunk holding one that does."""
    seen = False
    for _, valid, extendable in chunks:
        if valid.any():
            if extendable():
                return False
            seen = True
    return seen


def _check_size(g: Graph, max_n: int) -> None:
    if g.n > max_n:
        raise SizeLimitError(
            f"graph has {g.n} vertices, above the exhaustive-scan cap {max_n}; "
            "raise the cap explicitly to accept the factorial cost"
        )


# ---------------------------------------------------------------------------
# Public oracle operations
# ---------------------------------------------------------------------------


def outer_fan_planar_order(g: Graph, max_n: int = DEFAULT_MAX_N) -> CircularOrder | None:
    """Lexicographically least canonical fan-planar order, or None."""
    _check_size(g, max_n)
    for rows, valid, _ in _valid_chunks(g):
        found = _indices(valid, len(rows))
        if len(found):
            return tuple(rows[found[0]].tolist())
    return None


def enumerate_embeddings_raw(g: Graph, max_n: int = DEFAULT_MAX_N) -> tuple[CircularOrder, ...]:
    """Every canonical order passing the fan-planarity check, sorted."""
    _check_size(g, max_n)
    return tuple(order for rows, valid, _ in _valid_chunks(g) for order in _valid_rows(rows, valid))


def enumerate_embeddings(g: Graph, max_n: int = DEFAULT_MAX_N) -> tuple[CircularOrder, ...]:
    """All distinct drawings, one canonical order per drawing: orders that a
    graph automorphism relabels into each other are the same unlabeled
    drawing, represented by its lexicographically least canonical order."""
    return distinct_drawings(g, enumerate_embeddings_raw(g, max_n))


def is_maximal_outer_fan_planar(g: Graph, max_n: int = DEFAULT_MAX_N) -> bool:
    """Outer-fan-planar, and no single edge addition stays outer-fan-planar.
    One scan, stopped at the first chunk holding an order that stays valid
    with an edge added; the test suite checks this against one full scan
    per non-edge."""
    _check_size(g, max_n)
    return _maximal(_valid_chunks(g))


class Scan(NamedTuple):
    """Every canonical order drawing a graph outer-fan-planar, sorted, and
    whether the graph is maximal outer-fan-planar."""

    orders: tuple[CircularOrder, ...]
    maximal: bool


def scan(g: Graph, max_n: int = DEFAULT_MAX_N) -> Scan:
    """:func:`enumerate_embeddings_raw` and
    :func:`is_maximal_outer_fan_planar` from one scan."""
    _check_size(g, max_n)
    orders: list[CircularOrder] = []
    extendable = False
    for rows, valid, extends in _valid_chunks(g):
        if valid.any():
            orders += _valid_rows(rows, valid)
            extendable = extendable or extends()
    return Scan(tuple(orders), bool(orders) and not extendable)
