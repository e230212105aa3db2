#!/usr/bin/env python3
"""Benchmark of the outerfan package: one command, four seeded workloads.

    python3 perfbench/run.py --workload grown-peel --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced pass.  A human-readable summary line precedes it.

Set-up is timed in fresh interpreters: the parent starts a worker process,
which imports the package and warms its lazy caches, then reports ready.
A start is timed up to that message, minus the time the worker spent
generating its warm-up inputs.  ``setup_s`` is the median of three or more
starts (more while they fit in a few seconds); the last worker goes on to
the timed ops.

Every timing metric is given at the reference host speed: a fixed
pure-Python loop is timed between the timed ops, and the run's timings,
set-up included, are scaled by ``REF_NOMINAL_S`` over that loop's mean time.
The summary line also shows the unscaled figures and the scale.  See
README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_MIN_STARTS = 3
SETUP_MAX_STARTS = 20
SETUP_BUDGET_S = 3.0
MIN_ROUNDS = 2
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("grown-peel", "chords-spqr", "sweep-small", "cli-cold")
# mean time of the reference loop on the host the baseline was taken on, in
# its fast phases; it only fixes the unit, every run is scaled by its own
# measurement
REF_NOMINAL_S = 0.003
REF_EVERY_S = 0.05


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _reference_loop() -> int:
    """Fixed pure-Python work, dict traffic and a sort, that gauges how fast
    the host runs this interpreter at the moment."""
    d = {}
    for i in range(20000):
        d[i % 997] = d.get(i % 997, 0) + i
    return len(sorted(d.values()))


class HostGauge:
    """Times the reference loop between ops, at most once per REF_EVERY_S.

    The host's speed drifts by up to 1.8x for minutes at a time, in this
    loop and the package's code alike; dividing a run's timings by the
    loop's mean over the same run removes that drift, and multiplying by
    REF_NOMINAL_S keeps them in seconds.  Means, not medians: the host
    switches between fast and slow faster than a long op lasts, so a long op
    reads the time-weighted average speed, as a mean of short samples does;
    a median of short samples reads whichever speed holds most of the time."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> None:
        clock = time.perf_counter
        t0 = clock()
        if t0 - self._last >= REF_EVERY_S:
            _reference_loop()
            self._last = clock()
            self.samples.append(self._last - t0)

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.fmean(self.samples)


def _typical_latencies(rounds):
    """Typical latency of each input: the mean of its latencies over the
    rounds, which every input shares, spread over the run."""
    return [statistics.fmean(lat) for lat in zip(*rounds)]


# ---------------------------------------------------------------------------
# Worker: set-up, timed ops, traced ops
# ---------------------------------------------------------------------------


def _run_round(wl, raw_items, items, tracer=None, gauge=None):
    """Run every prepared op once, sampling ``gauge`` between ops; returns
    latencies, verdict records and the failed-op count."""
    latencies, records, failed = [], [], 0
    clock = time.perf_counter
    # collect the harness's own garbage (checks, the previous round) so
    # that it is not collected during a timed op
    gc.collect()
    for op_id, (raw, item) in enumerate(zip(raw_items, items)):
        if tracer is not None:
            tracer.op = op_id
        if gauge is not None:
            gauge.maybe_sample()
        t0 = clock()
        try:
            result = wl.op(item, tracer)
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.op = -1
        if isinstance(result, Exception):
            ok, record = False, ("raised", type(result).__name__)
        else:
            try:
                ok, record = wl.check(raw, result)
            except Exception as exc:  # so does one whose check raises
                ok, record = False, ("check raised", type(exc).__name__)
        records.append(record)
        failed += not ok
    return latencies, records, failed


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    clock = time.perf_counter
    name = args.workload
    t0 = clock()
    import outerfan.cli  # noqa: F401  (the whole package, as the CLI loads it)

    import_s = clock() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    t_gen = clock()
    warm_raw = wl.warmup(random.Random(f"{name}:warmup:{args.seed}"))
    gen_s = clock() - t_gen
    warm_items = [wl.prepare(raw) for raw in warm_raw]

    tracer = None
    if args.trace:
        from tracing import ChildTracer, Tracer

        tracer = ChildTracer() if name == "cli-cold" else Tracer()
        tracer.install()
    warm_failed = 0
    for item in warm_items:
        try:
            wl.op(item, tracer)
        except Exception:  # reported as a failed op, like a timed one
            warm_failed += 1
    if tracer is not None:
        tracer.uninstall()
    print(f"READY {gen_s:.9f}", flush=True)
    if args.probe:
        return 0

    raw_items = wl.inputs(random.Random(f"{name}:{args.seed}"))
    items = [wl.prepare(raw) for raw in raw_items]
    rounds, timed, failed = [], 0.0, warm_failed
    first_records = None
    gauge = HostGauge()
    while len(rounds) < MIN_ROUNDS or timed + timed / len(rounds) <= args.seconds:
        lat, rec, bad = _run_round(wl, raw_items, items, gauge=gauge)
        rounds.append(lat)
        timed += sum(lat)
        failed += bad
        if first_records is None:
            first_records = rec
    attempted = len(rounds) * len(items) + warm_failed
    (WORK / f"latencies-{name}.json").write_text(json.dumps(rounds), encoding="utf-8")
    summary = {"workload": name, "rounds": len(rounds), "ops": attempted}
    round_s = statistics.median(sum(lat) for lat in rounds)

    if args.trace:
        from tracing import per_layer_units, summarize

        tracer.install()
        t_lat, t_rec, t_bad = _run_round(wl, raw_items, items, tracer)
        tracer.uninstall()
        same = t_rec == first_records
        attempted += len(t_lat)
        failed += t_bad
        if name == "cli-cold":
            dumps = tracer.dumps
        else:
            dumps = [tracer.snapshot(import_s)]
        (WORK / f"spans-{name}.json").write_text(json.dumps(dumps), encoding="utf-8")
        metrics = summarize(dumps, sum(t_lat) / round_s)
        units = per_layer_units()
        summary["absent"] = sorted({a for d in dumps for a in d["absent"]})
        summary["traced_matches_untraced"] = same
        correct = failed == 0 and same
    else:
        units = {
            "ops_per_s": "ops/s",
            "op_p50_ms": "ms",
            "op_p90_ms": "ms",
            "peak_rss_mb": "MB",
        }
        who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
        typical = _typical_latencies(rounds)
        deciles = statistics.quantiles(typical, n=10, method="inclusive")
        scale = gauge.scale()
        summary["host_scale"] = scale
        summary["unscaled"] = {
            "ops_per_s": len(typical) / sum(typical),
            "op_p50_ms": 1000 * deciles[4],
            "op_p90_ms": 1000 * deciles[8],
        }
        metrics = {
            "ops_per_s": len(typical) / sum(typical) / scale,
            "op_p50_ms": 1000 * deciles[4] * scale,
            "op_p90_ms": 1000 * deciles[8] * scale,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        correct = failed == 0
    summary["fail_ratio"] = failed / attempted
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "summary": summary,
    }
    print("RESULT " + json.dumps(out), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Parent: start workers, time set-up, print the result
# ---------------------------------------------------------------------------


def _start_worker(args, probe: bool, deadline: float):
    """Start one worker; returns (setup seconds, remaining stdout lines)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready.startswith("READY "):
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return t_ready - t0 - float(ready.split()[1]), rest


def _last_start(setups) -> bool:
    """Whether the next worker start is the last: every run makes at least
    SETUP_MIN_STARTS, and more while cheap starts fit in SETUP_BUDGET_S."""
    if len(setups) + 1 < SETUP_MIN_STARTS:
        return False
    spent = sum(setups)
    return len(setups) + 1 >= SETUP_MAX_STARTS or spent + spent / len(setups) >= SETUP_BUDGET_S


def main(argv=None) -> int:
    args = _parse(argv)
    if args.worker:
        return worker(args)
    if not (SRC / "outerfan" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    try:
        while True:
            last = bool(args.trace) or _last_start(setups)
            setup_s, rest = _start_worker(args, not last, deadline)
            setups.append(setup_s)
            if last:
                break
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result_lines = [line for line in rest if line.startswith("RESULT ")]
    if not result_lines:
        print("benchmark failed: worker printed no result", file=sys.stderr)
        return 1
    out = json.loads(result_lines[-1][len("RESULT "):])
    summary = out.pop("summary")
    if not args.trace:
        # the starts end where the timed phase begins, so the timed phase's
        # gauge, hundreds of samples over the run, gives the set-up's scale
        setup_s = statistics.median(setups)
        summary["unscaled"]["setup_s"] = setup_s
        out["metrics"] = {
            "setup_s": {"value": setup_s * summary["host_scale"], "unit": "s"},
            **out["metrics"],
        }
    fail_ratio = summary.pop("fail_ratio")
    shown = ", ".join(
        f"{k}={v['value']:.6g} {v['unit']}" for k, v in out["metrics"].items()
        if not args.trace or not k.endswith(".calls")
    )
    print(f"# {json.dumps(summary)} fail_ratio={fail_ratio:.6g} ratio | {shown}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
