#!/usr/bin/env python3
"""Run the benchmark on HEAD and on the working tree, in pairs.

For every seed and every workload of ``BENCHMARK.json``,
``perfbench/run.py`` runs for the file's ``run_seconds`` once in a clean
copy of HEAD's files (``git archive``, extracted into a temporary directory
outside the repository) and once in the working tree; which side runs first
alternates from seed to seed.  The result file
``BENCH_<tag>.json`` holds every run's end-to-end metrics and, per
workload, each side's median and quartiles of every metric and the number
of pairs in which the working tree did better:

    python3 scripts/bench_pair.py --tag peel_kernel --seeds 101-105

Run it from the repository root with nothing else loading the machine.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {checkout} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        out[workload] = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            base = [p["base"][name] for p in pairs.values()]
            change = [p["change"][name] for p in pairs.values()]
            row = {}
            for side, values in (("base", base), ("change", change)):
                q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                row[side] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
            row["change_better_pairs"] = sum(
                (c < b) if lower else (c > b) for b, c in zip(base, change)
            )
            row["pairs"] = len(base)
            out[workload][name] = row
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    p.add_argument("--seeds", default="101-105", help="range lo-hi or comma list")
    p.add_argument("--tmpdir", type=Path, default=None, help="where the base copy goes")
    args = p.parse_args()

    base_sha = _git("rev-parse", "HEAD").decode().strip()
    seeds, seconds = _seeds(args.seeds), bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-base-", dir=args.tmpdir) as tmp:
        tarfile.open(fileobj=io.BytesIO(_git("archive", base_sha))).extractall(tmp)
        sides = {"base": Path(tmp), "change": ROOT}
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in workloads:
                for position, side in enumerate(order):
                    r = _run(sides[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "ran": "first" if position == 0 else "second",
                                 "correct": r["correct"], "attempted": r["attempted"],
                                 "failed": r["failed"], "metrics": r["metrics"]})
                    print(f"{workload} seed {seed} {side}: ops_per_s "
                          f"{r['metrics']['ops_per_s']:.1f}", flush=True)
    result = {
        "tag": args.tag,
        "base": base_sha,
        "change": "working tree over " + base_sha,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "seconds": seconds,
        "seeds": seeds,
        "summary": _summary(runs, bench["end_to_end"]),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
