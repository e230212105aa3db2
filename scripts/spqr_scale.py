#!/usr/bin/env python3
"""Print how the SPQR build and the recognizer scale on large inputs.

Each line is the time of one call, in seconds: the best of five
repetitions, each a loop of as many calls as fill at least 50 ms (one call
when a single call takes longer), after one untimed call that sets the
loop's length.  The rows are:

- ``build_spqr`` on the 2 x k ladder (two paths of k vertices joined by k
  rungs, whose tree is a path of about 3k nodes), k = 100 ... 5000;
- ``build_spqr`` and ``recognize`` on ``perfbench/gen.chords_graph`` (the
  n-cycle plus n // 2 random chords, seeded), n = 100, 200, 400;
- ``recognize(complete_two_hop_graph(1024))``;
- ``recognize_3connected(complete_two_hop_graph(n))``, the path of
  ``outerfan recognize --outer-edges``, n = 128, 256, 512;
- ``recognize`` on ``sweep.grown_graph(n, random.Random(1))``, accepted on
  the peel path, n = 256, 512, 1024;
- ``recognize`` on ``graph.glued_chain`` of k copies of
  ``complete_two_hop_graph(7)``, each glued at its edge (0, 1) onto edge
  (3, 4) of the copy before, k = 100, 400, 1000, and of k = 400 copies of
  ``complete_two_hop_graph(6)`` glued onto edge (2, 3): SPQR paths of
  rigid nodes joined by parallel nodes, accepted after the assembly.

A last line runs ``verify_tree`` and ``reconstruct`` once on the largest
ladder's tree.  Run it from the repository root:

    PYTHONPATH=src python scripts/spqr_scale.py
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from outerfan.graph import build_graph, complete_two_hop_graph, glued_chain  # noqa: E402
from outerfan.recognizer import recognize, recognize_3connected  # noqa: E402
from outerfan.spqr import build_spqr, reconstruct, verify_tree  # noqa: E402
from outerfan.sweep import grown_graph  # noqa: E402

LADDERS = (100, 200, 400, 1000, 5000)
CHORDS = (100, 200, 400)
GROWN = (256, 512, 1024)
TWO_HOP_3CONNECTED = (128, 256, 512)
# (piece size, copies, the edge each next copy's (0, 1) is glued onto)
CHAINS = ((7, 100, (3, 4)), (7, 400, (3, 4)), (7, 1000, (3, 4)), (6, 400, (2, 3)))
REPEATS = 5
REPEAT_S = 0.05  # least length of one timed repetition


def ladder(k: int):
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return build_graph(2 * k, rails + [(i, k + i) for i in range(k)])


def best_seconds(call, arg) -> float:
    t0 = time.perf_counter()
    call(arg)
    loops = math.ceil(REPEAT_S / max(time.perf_counter() - t0, 1e-6))
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            call(arg)
        best = min(best, (time.perf_counter() - t0) / loops)
    return best


def main() -> int:
    print(f"recursion limit {sys.getrecursionlimit()}")
    for k in LADDERS:
        print(f"build_spqr ladder 2x{k}: {best_seconds(build_spqr, ladder(k)):.5f} s", flush=True)
    rng = random.Random(20261022)
    for n in CHORDS:
        g = build_graph(*gen.chords_graph(n, rng))
        print(f"build_spqr chords n={n}: {best_seconds(build_spqr, g):.5f} s", flush=True)
        print(f"recognize chords n={n}: {best_seconds(recognize, g):.5f} s", flush=True)
    seconds = best_seconds(recognize, complete_two_hop_graph(1024))
    print(f"recognize complete_two_hop_graph(1024): {seconds:.5f} s", flush=True)
    for n in TWO_HOP_3CONNECTED:
        seconds = best_seconds(recognize_3connected, complete_two_hop_graph(n))
        print(f"recognize_3connected complete_two_hop_graph({n}): {seconds:.5f} s", flush=True)
    for n in GROWN:
        g = grown_graph(n, random.Random(1))
        print(f"recognize grown_graph n={n}: {best_seconds(recognize, g):.5f} s", flush=True)
    for size, k, at in CHAINS:
        g = glued_chain(complete_two_hop_graph(size), k, at)
        seconds = best_seconds(recognize, g)
        print(f"recognize complete_two_hop_graph({size}) chain k={k} at {at}, n={g.n}: "
              f"{seconds:.5f} s", flush=True)
    g = ladder(LADDERS[-1])
    t = build_spqr(g)
    t0 = time.perf_counter()
    ok = verify_tree(t, g) == [] and reconstruct(t) == g
    print(f"verify_tree and reconstruct ladder 2x{LADDERS[-1]}: {'ok' if ok else 'FAILED'}, "
          f"{time.perf_counter() - t0:.5f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
