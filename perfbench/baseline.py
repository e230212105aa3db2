#!/usr/bin/env python3
"""Measure the baseline: every workload over ten seeds, plus one traced run.

    python3 perfbench/baseline.py -o perfbench/baseline.json

Runs ``run.py`` once per workload of ``BENCHMARK.json`` and seed (seeds
1..10), for the ``run_seconds`` given there, then once more per workload
with ``--trace 1`` (seed 1).  Writes, per workload and
end-to-end metric, the median and quartiles (``statistics.quantiles(n=4)``)
with the sample count and the spread (quartile distance over the median),
and the traced run's per-layer values.  Prints the spreads as it goes.
Exits non-zero if any run fails or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
RUNS = 10


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    return result


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "n": len(values),
        "values": values,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("-o", "--output", type=Path, required=True)
    args = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    out = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
        f"{platform.python_version()}",
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        metrics = {
            name: _stats([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        for name, s in metrics.items():
            print(f"{workload:12s} {name:12s} median={s['median']:.6g} spread={s['spread']:.3f}")
        traced = _run(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.output.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
