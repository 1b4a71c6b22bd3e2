"""Run the benchmark once per seed on each workload and report the spread.

    python3 bench/steady.py --seeds 1-10

Runs the command of ``BENCHMARK.json`` as a child with its
``run_seconds``, one run at a time, interleaving the workloads seed by
seed so host drift hits every workload alike. For each end-to-end metric
it prints the median over the seeds and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args(argv)

    names = [w["name"] for w in bench["workloads"]]
    results: dict = {n: [] for n in names}
    for seed in args.seeds:
        for name in names:
            cmd = [sys.executable, *bench["command"][1:], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
            results[name].append(res)
            print(f"seed {seed} {name}: exit {proc.returncode} correct {res.get('correct')} "
                  f"failed {res.get('failed')}/{res.get('attempted')} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res.get("metrics", {}).items()), flush=True)
    print(f"{'workload':<22} {'metric':<16} {'median':>10} {'spread':>8} {'bound':>6}")
    for name in names:
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results[name] if m["name"] in r.get("metrics", {})]
            if len(values) < 2:
                continue
            flag = "" if spread(values) < m["bound"] / 3 else "  WIDE"
            print(f"{name:<22} {m['name']:<16} {statistics.median(values):>10.4f} {spread(values):>8.4f} "
                  f"{m['bound']:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
