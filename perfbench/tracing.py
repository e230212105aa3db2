"""Per-layer tracing installed from outside the package.

A :class:`Tracer` replaces the listed functions by timing wrappers in every
loaded ``outerfan`` module that binds them, because modules import each
other's functions by name.  Each call records a span ``[name, start, end,
parent, op]`` in memory; ``op`` is the benchmark op being run (-1 for the
warm-up and between ops).  The benchmark writes the spans out once, when
the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

FUNCTIONS = {
    "graph": ("is_biconnected", "is_triconnected", "separation_pairs", "build_graph"),
    "circular": (
        "check_outer_fan_planar",
        "canonicalize",
        "drawing_key",
        "classify_edge",
        "render_svg",
    ),
    "oracle": (
        "_tables",
        "order_is_fan_planar",
        "outer_fan_planar_order",
        "is_maximal_outer_fan_planar",
        "enumerate_embeddings",
    ),
    "spqr": ("build_spqr", "verify_tree"),
    "recognizer": (
        "recognize",
        "recognize_biconnected",
        "is_complete_2hop",
        "is_porous",
        "_peel_and_reinsert",
        "_assemble",
        "_dedupe_drawings",
    ),
    "reduction": (
        "generate_instance",
        "route_witness",
        "validate_witness",
        "instance_to_json",
        "instance_from_json",
        "witness_to_json",
        "witness_from_json",
    ),
    "cli": ("main",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns)

EXTRA = {
    "oracle._tables.misses": "count",
    "oracle.order_is_fan_planar.true_ratio": "ratio",
    "oracle.is_maximal_outer_fan_planar.scans_per_call": "count",
    "spqr.nodes_S": "count",
    "spqr.nodes_P": "count",
    "spqr.nodes_R": "count",
    "spqr.nodes_Q": "count",
    "recognizer.max_live_drawings": "count",
    "recognizer.embeddings": "count",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    return units


class Tracer:
    """Timing wrappers plus the spans and result counters they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every listed function that exists in the loaded package."""
        mods = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "outerfan" or name.startswith("outerfan.")
        ]
        for qual in TRACED:
            mod, fn = qual.split(".")
            home = sys.modules.get(f"outerfan.{mod}")
            orig = self._originals.get(qual) or getattr(home, fn, None)
            if orig is None:
                if qual not in self.absent:
                    self.absent.append(qual)
                continue
            self._originals[qual] = orig
            wrapper = self._wrap(qual, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, qual: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [qual, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def snapshot(self, import_s: float) -> dict:
        """Spans and counters of this process, as :func:`summarize` reads them."""
        tables = self._originals.get("oracle._tables")
        info = getattr(tables, "cache_info", None)
        counters = dict(self.counters)
        counters["oracle._tables.misses"] = info().misses if info else 0
        return {
            "import_s": import_s,
            "counters": counters,
            "absent": self.absent,
            "spans": self.spans,
        }


class ChildTracer:
    """Collects the snapshots of traced CLI child processes, which each run
    their own :class:`Tracer` (see ``clichild.py``)."""

    def __init__(self) -> None:
        self.dumps: list[dict] = []
        self.op = -1

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


def _count_true(tracer: Tracer, result) -> None:
    tracer.counters["oracle.order_is_fan_planar.true"] += bool(result)


def _count_nodes(tracer: Tracer, tree) -> None:
    for node in tree.nodes:
        tracer.counters[f"spqr.nodes_{node.kind}"] += 1


def _count_outcome(tracer: Tracer, outcome) -> None:
    if tracer.op < 0:
        return
    c = tracer.counters
    c["recognizer.max_live_drawings"] = max(
        c["recognizer.max_live_drawings"], outcome.max_live_drawings
    )
    c["recognizer.embeddings"] += len(outcome.embeddings)


_HOOKS = {
    "oracle.order_is_fan_planar": _count_true,
    "spqr.build_spqr": _count_nodes,
    "recognizer.recognize": _count_outcome,
}


def summarize(dumps: list[dict], overhead_ratio: float) -> dict:
    """Per-layer metrics from the snapshots of one or more processes."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    scans = 0
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _op) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if (
                name == "oracle.outer_fan_planar_order"
                and parent >= 0
                and spans[parent][0] == "oracle.is_maximal_outer_fan_planar"
            ):
                scans += 1
        for key, value in dump["counters"].items():
            if key == "recognizer.max_live_drawings":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
    metrics: dict[str, float] = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    fan = calls["oracle.order_is_fan_planar"]
    maximal = calls["oracle.is_maximal_outer_fan_planar"]
    metrics.update(
        {
            "oracle._tables.misses": counters["oracle._tables.misses"],
            "oracle.order_is_fan_planar.true_ratio": (
                counters["oracle.order_is_fan_planar.true"] / fan if fan else 0.0
            ),
            "oracle.is_maximal_outer_fan_planar.scans_per_call": (
                scans / maximal if maximal else 0.0
            ),
            **{f"spqr.nodes_{k}": counters[f"spqr.nodes_{k}"] for k in "SPRQ"},
            "recognizer.max_live_drawings": counters["recognizer.max_live_drawings"],
            "recognizer.embeddings": counters["recognizer.embeddings"],
            "cli.import_s": statistics.median(d["import_s"] for d in dumps),
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return metrics
