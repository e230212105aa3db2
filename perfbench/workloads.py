"""The four benchmark workloads: inputs, the timed op, and its output check.

Every workload is a closed loop with one caller.  Its inputs are a fixed
list drawn once from a seeded generator (``gen``), a few per size or one
per CLI call; a run times every input of that list once per round, in as
many rounds as its time allows.

An op returns its result; ``check`` runs outside the op's timing and
returns ``(ok, record)``, where ``record`` is the verdict summary the
traced run must reproduce.  A check that raises fails its op.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from outerfan import oracle, recognizer, spqr
from outerfan.circular import check_outer_fan_planar
from outerfan.graph import build_graph

CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: Callable  # rng -> raw inputs run once, untimed, before timing
    inputs: Callable  # rng -> raw inputs timed in every round
    prepare: Callable  # raw input -> op input, untimed
    op: Callable  # (op input, tracer) -> result
    check: Callable  # (raw input, result) -> (ok, record)


def _graph(raw):
    n, edges = raw
    return build_graph(n, edges)


def _recognize(g, _tracer):
    return recognizer.recognize(g)


def _canonical(order):
    """Least rotation or reflection, computed here rather than trusted."""
    n = len(order)
    seqs = [tuple(order), tuple(reversed(order))]
    return min(s[r:] + s[:r] for s in seqs for r in range(n))


# ---------------------------------------------------------------------------
# grown-peel: accepted 3-connected graphs on the peel-and-reinsert path
# ---------------------------------------------------------------------------

GROWN_SIZES = (16, 24, 32, 48)
GROWN_PER_SIZE = 5


def _check_grown(raw, outcome):
    n, edges = raw
    ok = (
        outcome.accepted
        and outcome.path == "peel"
        and len(edges) == 3 * n - 6
        and len(outcome.embeddings) >= 1
    )
    g = build_graph(n, edges)
    for order in outcome.embeddings if ok else ():
        ok = (
            sorted(order) == list(range(n))
            and _canonical(order) == tuple(order)
            and check_outer_fan_planar(g, order).verdict
            and gen.order_is_fan_planar(order, edges)
        )
        if not ok:
            break
    return ok, (outcome.verdict.value, outcome.path, len(outcome.embeddings))


GROWN_PEEL = Workload(
    name="grown-peel",
    warmup=lambda rng: [gen.grown_graph(n, rng) for n in GROWN_SIZES],
    inputs=lambda rng: [
        gen.grown_graph(n, rng) for _ in range(GROWN_PER_SIZE) for n in GROWN_SIZES
    ],
    prepare=_graph,
    op=_recognize,
    check=_check_grown,
)


# ---------------------------------------------------------------------------
# chords-spqr: biconnected, not 3-connected, rejected on the SPQR path
# ---------------------------------------------------------------------------

CHORDS_SIZES = (25, 35, 50)
CHORDS_PER_SIZE = 6


def _check_chords(_raw, outcome):
    ok = not outcome.accepted and outcome.embeddings == ()
    return ok, (outcome.verdict.value, outcome.path)


CHORDS_SPQR = Workload(
    name="chords-spqr",
    warmup=lambda rng: [gen.chords_graph(n, rng) for n in CHORDS_SIZES],
    inputs=lambda rng: [
        gen.chords_graph(n, rng) for _ in range(CHORDS_PER_SIZE) for n in CHORDS_SIZES
    ],
    prepare=_graph,
    op=_recognize,
    check=_check_chords,
)


# ---------------------------------------------------------------------------
# sweep-small: the Tier-1 recognizer-vs-oracle cross-check on tiny graphs
# ---------------------------------------------------------------------------

SWEEP_SIZES = (7, 8)
SWEEP_PER_EDGE_COUNT = 8


def _cross_check(g, _tracer):
    outcome = recognizer.recognize(g)
    maximal = oracle.is_maximal_outer_fan_planar(g)
    order = oracle.outer_fan_planar_order(g)
    expected = oracle.enumerate_embeddings(g) if outcome.accepted else ()
    tree = spqr.build_spqr(g)
    issues = spqr.verify_tree(tree, g)
    return outcome, maximal, order, expected, issues


def _check_sweep(raw, result):
    _n, edges = raw
    outcome, maximal, order, expected, issues = result
    ok = (
        outcome.accepted == maximal
        and (order is not None or not maximal)
        and (order is None or gen.order_is_fan_planar(order, edges))
        and (not outcome.accepted or tuple(outcome.embeddings) == tuple(expected))
        and not issues
    )
    return ok, (outcome.verdict.value, maximal, order, len(expected), len(issues))


SWEEP_SMALL = Workload(
    name="sweep-small",
    warmup=lambda rng: [gen.small_biconnected(n, rng) for n in SWEEP_SIZES],
    # every edge count n .. n(n-1)/2 equally often, the uniform draw of
    # sweep.sample_biconnected without the seed's luck in the mix of counts
    # (that draw also redraws the count when a graph is not biconnected,
    # which favours dense graphs; this one keeps the count)
    inputs=lambda rng: [
        gen.small_biconnected(n, rng, m)
        for n in SWEEP_SIZES
        for m in range(n, n * (n - 1) // 2 + 1)
        for _ in range(SWEEP_PER_EDGE_COUNT)
    ],
    prepare=_graph,
    op=_cross_check,
    check=_check_sweep,
)


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per call
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
CRITERION_9 = ((7, 7, 7, 8, 8, 8, 8, 9, 10), ((0, 1, 8), (2, 3, 7), (4, 5, 6)))
PLANTED_M, PLANTED_B = 8, 24


@dataclass(frozen=True)
class CliCall:
    args: tuple[str, ...]
    expect: Callable  # (exit code, parsed stdout) -> bool


def _accepted(code, report, path):
    return code == 0 and report["verdict"] == "accepted" and report["path"] == path


def _write(path: Path, graph) -> str:
    path.write_text(gen.format_edge_list(graph), encoding="utf-8")
    return str(path.relative_to(ROOT))


def _reduction_calls(d: Path, tag: str, m: int, target: int, values, triples):
    """gen-3p, route-witness and verify-witness for one 3-Partition input."""
    inst = str((d / f"{tag}.json").relative_to(ROOT))
    wit = str((d / f"{tag}-witness.json").relative_to(ROOT))
    big_k = math.ceil(target / 2) + 1
    path_edges = (3 * m - 3) * big_k + target
    return [
        CliCall(
            ("gen-3p", "--m", str(m), "--B", str(target),
             "--A", ",".join(map(str, values)), "-o", inst),
            lambda c, r: c == 0 and r["K"] == big_k and r["path_edges"] == path_edges,
        ),
        CliCall(
            ("route-witness", "--instance", inst,
             "--triples", ";".join(",".join(map(str, t)) for t in triples), "-o", wit),
            lambda c, r: c == 0 and r["vertical_crossings_per_path"] == [path_edges] * m,
        ),
        CliCall(
            ("verify-witness", "--instance", inst, "--witness", wit),
            lambda c, r: c == 0 and r["valid"] is True and r["violations"] == [],
        ),
    ]


def _cli_calls(rng) -> list[CliCall]:
    """The CLI calls of every round; graph files are written here, untimed."""
    d = WORK / "inputs"
    d.mkdir(parents=True, exist_ok=True)
    g32 = _write(d / "grown32.txt", gen.grown_graph(32, rng))
    h128 = _write(d / "twohop128.txt", gen.two_hop_graph(128))
    # n = 50, not 35: a cold n = 35 call costs about what the five cheap
    # calls do, so the median of the eleven calls flipped between the two;
    # at n = 50 it joins the planted route and verify calls
    c50 = _write(d / "chords50.txt", gen.chords_graph(50, rng))
    g7 = _write(d / "grown7.txt", gen.grown_graph(7, rng))
    g16 = _write(d / "grown16.txt", gen.grown_graph(16, rng))
    svg = d / "grown16.svg"
    values, triples = gen.three_partition(PLANTED_M, PLANTED_B, rng)

    def svg_ok(code, report):
        text = svg.read_text(encoding="utf-8") if svg.exists() else ""
        svg.unlink(missing_ok=True)  # a rerun of this call must write it again
        return (
            _accepted(code, report, "peel")
            and len(report["embeddings"]) >= 1
            and "<svg" in text
            and "fan-planar=true" in text
        )

    return [
        CliCall(("recognize", g32), lambda c, r: _accepted(c, r, "peel")),
        CliCall(("recognize", h128), lambda c, r: _accepted(c, r, "two_hop")),
        CliCall(
            ("recognize", c50),
            lambda c, r: c == 1 and r["verdict"].startswith("rejected"),
        ),
        CliCall(
            ("recognize", "--oracle", g7),
            lambda c, r: _accepted(c, r, "peel")
            and r["agreement"] is True
            and r["oracle"]["maximal_outer_fan_planar"] is True,
        ),
        CliCall(
            ("recognize", "--svg", str(svg.relative_to(ROOT)), "--emit-embeddings", g16),
            svg_ok,
        ),
        *_reduction_calls(d, "criterion9", 3, 24, *CRITERION_9),
        *_reduction_calls(d, "planted8", PLANTED_M, PLANTED_B, values, triples),
    ]


def _run_cli(call: CliCall, tracer):
    """Run one CLI call in a fresh interpreter; returns (code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if tracer is None:
        cmd = [sys.executable, "-m", "outerfan.cli", *call.args]
    else:
        spans = WORK / f"spans-cli-{len(tracer.dumps)}.json"
        cmd = [sys.executable, str(Path(__file__).parent / "clichild.py"), str(spans), *call.args]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    if tracer is not None:
        tracer.dumps.append(json.loads(spans.read_text(encoding="utf-8")))
    return proc.returncode, proc.stdout


def _check_cli(call: CliCall, result):
    code, stdout = result
    report = json.loads(stdout)
    return bool(call.expect(code, report)), (code, report.get("verdict", report.get("valid")))


CLI_COLD = Workload(
    name="cli-cold",
    warmup=lambda rng: [],
    inputs=_cli_calls,
    prepare=lambda call: call,
    op=_run_cli,
    check=_check_cli,
)


WORKLOADS = {w.name: w for w in (GROWN_PEEL, CHORDS_SPQR, SWEEP_SMALL, CLI_COLD)}
