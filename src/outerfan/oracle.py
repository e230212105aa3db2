"""Ground-truth brute force over circular orders.

Every outer drawing of an n-vertex graph is a circular order, and rotations
and reflections of an order are the same drawing.  Fixing vertex 0 at the
first position and keeping only orders whose second element is smaller than
their last quotients out both symmetries, leaving (n-1)!/2 canonical
candidates.  The oracle scans them all; the only shortcut taken is this
symmetry quotient, so a negative answer really means no drawing exists.

Two implementations of the per-order fan-planarity test are kept: a plain
Python bitmask scan and a vectorized numpy batch over all candidate orders.
They are cross-checked against each other and against the readable checker
in :mod:`outerfan.circular` by the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, permutations
from typing import Iterator

import numpy as np

from .circular import CircularOrder, drawing_key
from .errors import SizeLimitError
from .graph import Graph, add_edge

DEFAULT_MAX_N = 12

_NUMPY_MAX_N = 11  # C(11,2) = 55 pair ids fit in uint64 bit masks
_CHUNK = 200_000


def candidate_orders(n: int) -> Iterator[CircularOrder]:
    """All canonical circular orders of 0..n-1 in lexicographic sequence."""
    if n <= 0:
        return
    if n <= 2:
        yield tuple(range(n))
        return
    for perm in permutations(range(1, n)):
        if perm[0] < perm[-1]:
            yield (0, *perm)


# ---------------------------------------------------------------------------
# Bitmask tables, shared by the python and numpy scan paths
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[list[list[int]], list[tuple[int, int]], list[int], list[int]]:
    """Position-pair ids plus crossing and incidence masks for n positions."""
    pid = [[-1] * n for _ in range(n)]
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            pid[i][j] = pid[j][i] = len(pairs)
            pairs.append((i, j))
    cross = [0] * len(pairs)
    for p, (i, j) in enumerate(pairs):
        for q, (k, l) in enumerate(pairs):
            if len({i, j, k, l}) < 4:
                continue
            if (i < k < j) != (i < l < j):
                cross[p] |= 1 << q
    inc = [0] * n
    for p, (i, j) in enumerate(pairs):
        inc[i] |= 1 << p
        inc[j] |= 1 << p
    return pid, pairs, cross, inc


def order_is_fan_planar(g: Graph, order: CircularOrder) -> bool:
    """Verdict-only fan-planarity test of one order (early abort)."""
    n = g.n
    if n <= 3 or g.m < 2:
        return True
    pid, pairs, cross, inc = _tables(n)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    pids = [pid[pos[u]][pos[v]] for u, v in g.edges]
    mask = 0
    for p in pids:
        mask |= 1 << p
    for p in pids:
        c = cross[p] & mask
        if c & (c - 1):
            a, b = pairs[(c & -c).bit_length() - 1]
            if c & ~inc[a] and c & ~inc[b]:
                return False
    return True


# ---------------------------------------------------------------------------
# Vectorized scan
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _np_tables(n: int):
    pid, pairs, cross, inc = _tables(n)
    pid_arr = np.array(pid, dtype=np.int64)
    cross_arr = np.array(cross, dtype=np.uint64)
    inc_arr = np.array(inc, dtype=np.uint64)
    pair_a = np.array([a for a, _ in pairs], dtype=np.int64)
    pair_b = np.array([b for _, b in pairs], dtype=np.int64)
    return pid_arr, cross_arr, inc_arr, pair_a, pair_b


def _np_valid_chunk(g: Graph, perms: np.ndarray) -> np.ndarray:
    """Boolean validity per order for a chunk of (n-1)-permutations."""
    n = g.n
    k = perms.shape[0]
    if g.m < 2:
        return np.ones(k, dtype=bool)
    pid_arr, cross_arr, inc_arr, pair_a, pair_b = _np_tables(n)
    pos = np.zeros((k, n), dtype=np.int64)
    pos[np.arange(k)[:, None], perms] = np.arange(1, n)[None, :]
    edges = g.edge_list()
    pids = np.empty((k, len(edges)), dtype=np.int64)
    for j, (u, v) in enumerate(edges):
        pids[:, j] = pid_arr[pos[:, u], pos[:, v]]
    one = np.uint64(1)
    masks = np.bitwise_or.reduce(one << pids.astype(np.uint64), axis=1)
    alive = np.ones(k, dtype=bool)
    for j in range(len(edges)):
        c = cross_arr[pids[:, j]] & masks
        multi = (c & (c - one)) != 0
        if not multi.any():
            continue
        low = c - (c & (c - one))
        idx = np.zeros(k, dtype=np.int64)
        nz = low != 0
        idx[nz] = np.log2(low[nz].astype(np.float64)).astype(np.int64)
        a = pair_a[idx]
        b = pair_b[idx]
        bad = multi & ((c & ~inc_arr[a]) != 0) & ((c & ~inc_arr[b]) != 0)
        alive &= ~bad
    return alive


def _perm_chunks(n: int) -> Iterator[np.ndarray]:
    gen = permutations(range(1, n))
    while True:
        block = list(islice(gen, _CHUNK))
        if not block:
            return
        arr = np.array(block, dtype=np.int64)
        yield arr[arr[:, 0] < arr[:, -1]]


def _scan(g: Graph, want_all: bool) -> list[CircularOrder]:
    """Canonical valid orders in lexicographic sequence.

    With ``want_all=False`` stops at the first valid order.
    """
    n = g.n
    if n <= 3:
        order = tuple(range(n))
        return [order] if order_is_fan_planar(g, order) else []
    if 4 <= n <= _NUMPY_MAX_N:
        found: list[CircularOrder] = []
        for chunk in _perm_chunks(n):
            alive = _np_valid_chunk(g, chunk)
            idx = np.nonzero(alive)[0]
            for i in idx:
                found.append((0, *map(int, chunk[i])))
                if not want_all:
                    return found
        return found
    found = []
    for order in candidate_orders(n):
        if order_is_fan_planar(g, order):
            found.append(order)
            if not want_all:
                return found
    return found


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
    found = _scan(g, want_all=False)
    return found[0] if found else None


def enumerate_embeddings_raw(g: Graph, max_n: int = DEFAULT_MAX_N) -> tuple[CircularOrder, ...]:
    """Every canonical order passing the fan-planarity check, sorted."""
    _check_size(g, max_n)
    return tuple(_scan(g, want_all=True))


def enumerate_embeddings(g: Graph, max_n: int = DEFAULT_MAX_N) -> tuple[CircularOrder, ...]:
    """All distinct drawings, one canonical order per drawing.

    Orders that are relabelings of each other by a graph automorphism are the
    same unlabeled drawing; each such class is represented by its
    lexicographically least canonical order.
    """
    reps: dict[tuple, CircularOrder] = {}
    for order in enumerate_embeddings_raw(g, max_n):
        key = drawing_key(g, order)
        if key not in reps:
            reps[key] = order
    return tuple(sorted(reps.values()))


def is_maximal_outer_fan_planar(g: Graph, max_n: int = DEFAULT_MAX_N) -> bool:
    """Outer-fan-planar, and no single edge addition stays outer-fan-planar.

    Every candidate edge gets its own full embedding scan; no state is
    shared between scans, keeping the oracle trivially auditable.
    """
    if outer_fan_planar_order(g, max_n) is None:
        return False
    for u, v in g.non_edges():
        if outer_fan_planar_order(add_edge(g, u, v), max_n) is not None:
            return False
    return True
