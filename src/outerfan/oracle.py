"""Ground-truth brute force over circular orders.

Every outer drawing of an n-vertex graph is a circular order, and rotations
and reflections of an order are the same drawing.  Fixing vertex 0 at the
first position and keeping only orders whose second element is smaller than
their last quotients out both symmetries, leaving (n-1)!/2 canonical
candidates.  The oracle scans them all; the only shortcut taken is this
symmetry quotient, so a negative answer really means no drawing exists.

One numpy kernel tests a batch of orders at once, for every n.  Each pair
of circle positions gets a bit; an order's drawn chords, the chords crossing
a chord and the chords missing an end of a chord are masks of
ceil(C(n,2)/64) 64-bit words.  The canonical orders, with the positions
each vertex pair takes in them, are built once per n up to n = 10 and
streamed in chunks above.  One lazy scan yields the valid ones in
lexicographic sequence: the first, all, the distinct drawings among them,
and maximality (:func:`_maximal`) come from it.  The test suite checks the
kernel against the readable checker in :mod:`outerfan.circular`, and
maximality against one full scan per non-edge.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, permutations
from math import factorial
from typing import Iterable, Iterator

import numpy as np

from .circular import CircularOrder, distinct_drawings
from .errors import SizeLimitError
from .graph import Graph, add_edge

DEFAULT_MAX_N = 12

_CHUNK = 20_000  # orders per batch
_STORED_ORDERS = 200_000  # sizes with at most this many canonical orders keep them
_CELLS = 1_000  # (order, edge) cells per kernel step


def candidate_orders(n: int) -> Iterator[CircularOrder]:
    """All canonical circular orders of 0..n-1 in lexicographic sequence."""
    if n <= 2:
        yield tuple(range(n))
        return
    for perm in permutations(range(1, n)):
        if perm[0] < perm[-1]:
            yield (0, *perm)


def _order_chunks(orders: Iterable[CircularOrder], n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Orders of n vertices as int8 rows, with their :func:`_position_pairs`,
    in chunks of up to ``_CHUNK``."""
    orders = iter(orders)
    while block := list(islice(orders, _CHUNK)):
        rows = np.array(block, dtype=np.int8).reshape(len(block), n)
        yield rows, _position_pairs(rows)


@lru_cache(maxsize=None)
def _stored_chunks(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    return tuple(_order_chunks(candidate_orders(n), n))


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------


def _pack(bits: np.ndarray) -> np.ndarray:
    """Boolean rows of width p as rows of ceil(p/64) uint64 words, column q
    at bit q % 64 of word q // 64."""
    rows, p = bits.shape
    words = -(-p // 64)
    padded = np.zeros((rows, words * 64), dtype=np.uint64)
    padded[:, :p] = bits
    shifted = padded.reshape(rows, words, 64) << np.arange(64, dtype=np.uint64)
    return shifted.sum(axis=2, dtype=np.uint64)


@lru_cache(maxsize=None)
def _masks(n: int):
    """Tables over the C(n,2) pairs of n circle positions, numbered in
    lexicographic order: the id of each pair of positions, then per pair its
    own bit, the pairs whose chords cross its chord, and the pairs not
    ending at its first and at its second position."""
    a, b = np.triu_indices(n, 1)
    pid = np.zeros((n, n), dtype=np.intp)
    pid[a, b] = pid[b, a] = np.arange(len(a))
    lo, hi = a[:, None], b[:, None]
    miss_lo = (a != lo) & (b != lo)
    miss_hi = (a != hi) & (b != hi)
    crosses = miss_lo & miss_hi & (((lo < a) & (a < hi)) != ((lo < b) & (b < hi)))
    return pid, _pack(np.eye(len(a), dtype=bool)), _pack(crosses), _pack(miss_lo), _pack(miss_hi)


def _position_pairs(orders: np.ndarray) -> np.ndarray:
    """Per order (row) and per vertex pair, numbered as position pairs are,
    the id of the pair of positions the two vertices take."""
    k, n = orders.shape
    pos = np.empty((k, n), dtype=np.intp)
    pos[np.arange(k)[:, None], orders] = np.arange(n)
    a, b = np.triu_indices(n, 1)
    return _masks(n)[0][pos[:, a], pos[:, b]].astype(np.min_scalar_type(len(a)))


def _fan_planar(g: Graph, pairs: np.ndarray) -> np.ndarray:
    """Per order, given by its :func:`_position_pairs` row, whether every
    chord of g crossed more than once is crossed only by chords sharing one
    endpoint, i.e. all ending at one endpoint of any one of them."""
    k = len(pairs)
    if g.m < 2:
        return np.ones(k, dtype=bool)
    pid, bit, cross, miss_a, miss_b = _masks(g.n)
    us, vs = np.array(g.edge_list()).T
    chords = pairs[:, pid[us, vs]]  # (orders, edges)
    drawn = np.bitwise_or.reduce(bit[chords], axis=1)
    one = np.uint64(1)
    alive = np.arange(k)
    done = 0
    # edges in steps of about _CELLS (order, edge) cells: small batches take
    # one step, and in large ones the orders found invalid drop out early
    while done < g.m and len(alive):
        step = chords[alive, done : done + max(1, _CELLS // len(alive))]
        done += step.shape[1]
        c = (cross[step] & drawn[alive, None, :]).reshape(-1, bit.shape[1])
        w = np.argmax(c != 0, axis=1)
        word = c[np.arange(len(c)), w]
        low = word - (word & (word - one))  # the least crosser's bit
        # q is the least crosser; a chord crossed once passes the test below,
        # and one never crossed gets q = -1 and passes too, its c being 0
        q = w * 64 + np.frexp(low.astype(np.float64))[1] - 1
        off_a = ((c & miss_a[q]) != 0).any(axis=1)
        off_b = ((c & miss_b[q]) != 0).any(axis=1)
        alive = alive[~(off_a & off_b).reshape(len(alive), -1).any(axis=1)]
    ok = np.zeros(k, dtype=bool)
    ok[alive] = True
    return ok


def _valid_chunks(g: Graph) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one scan: per chunk of canonical orders, lexicographically, the
    rows drawing g outer-fan-planar and their position pairs, if any."""
    stored = factorial(max(g.n - 1, 1)) // 2 <= _STORED_ORDERS
    chunks = _stored_chunks(g.n) if stored else _order_chunks(candidate_orders(g.n), g.n)
    for orders, pairs in chunks:
        ok = _fan_planar(g, pairs)
        if ok.any():
            yield orders[ok], pairs[ok]


def _valid_orders(g: Graph) -> Iterator[CircularOrder]:
    """The canonical orders drawing g outer-fan-planar, lexicographically."""
    for orders, _ in _valid_chunks(g):
        yield from map(tuple, orders.tolist())


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
    return next(_valid_orders(g), None)


def enumerate_embeddings_raw(g: Graph, max_n: int = DEFAULT_MAX_N) -> tuple[CircularOrder, ...]:
    """Every canonical order passing the fan-planarity check, sorted."""
    _check_size(g, max_n)
    return tuple(_valid_orders(g))


def enumerate_embeddings(g: Graph, max_n: int = DEFAULT_MAX_N) -> tuple[CircularOrder, ...]:
    """All distinct drawings, one canonical order per drawing: orders that a
    graph automorphism relabels into each other are the same unlabeled
    drawing, represented by its lexicographically least canonical order."""
    return distinct_drawings(g, enumerate_embeddings_raw(g, max_n))


def _maximal(g: Graph, valid_pairs: Iterable[np.ndarray]) -> bool:
    """Maximality of g from the :func:`_position_pairs` of its valid orders,
    read chunk by chunk: g must have a valid order, and none may stay valid
    for g + e, e a non-edge.  Every valid order of g + e is one of g's, as
    an added edge only lengthens crossing lists and part of a fan is a fan."""
    extended = [add_edge(g, u, v) for u, v in g.non_edges()]
    seen = False
    for pairs in valid_pairs:
        if any(_fan_planar(h, pairs).any() for h in extended):
            return False
        seen = True
    return seen


def is_maximal_given(g: Graph, orders: Iterable[CircularOrder]) -> bool:
    """Maximality of g given its valid canonical orders, as
    :func:`enumerate_embeddings_raw` lists them."""
    return _maximal(g, (pairs for _, pairs in _order_chunks(orders, g.n)))


def is_maximal_outer_fan_planar(g: Graph, max_n: int = DEFAULT_MAX_N) -> bool:
    """Outer-fan-planar, and no single edge addition stays outer-fan-planar.
    One scan, stopped at the first order that stays valid with an edge
    added; the test suite checks this against one full scan per non-edge."""
    _check_size(g, max_n)
    return _maximal(g, (pairs for _, pairs in _valid_chunks(g)))
