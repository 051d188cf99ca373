#!/usr/bin/env python3
"""Run every workload on several seeds and summarise the spread.

Usage, from the repository root::

    python3 perfbench/baseline.py --seeds 1,2 --out perfbench/out/bench.json
    python3 perfbench/baseline.py --seeds 1-10 --workloads fuzz-mix --trace 0

Each run is a separate ``perfbench/run.py`` process (a fresh interpreter),
run one after another.  For every workload the script prints each
end-to-end metric with its unit, the failure ratio and, over the seeds, the
median and the quartile spread ``(q3 - q1) / median`` that the benchmark's
bounds are judged against.  ``--out`` also writes every run's environment,
metrics and extra figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 300


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "extra": {}, "printed": {}}
    for line in lines[:-1]:
        if line.startswith("# env "):
            record["env"] = json.loads(line[len("# env "):])
        elif line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            record["extra"][key] = value
        elif line.startswith(workload + " "):
            _, key, value, unit = line.split(" ")
            record["printed"][key] = {"value": float(value), "unit": unit}
    record["result"] = json.loads(lines[-1])
    return record


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median, as statistics.quantiles(n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2", help="e.g. 1,2 or 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--out", help="write every run as JSON here")
    args = parser.parse_args(argv)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)

    records = []
    for workload in args.workloads.split(","):
        for trace in traces:
            rows = []
            for seed in parse_seeds(args.seeds):
                rows.append(run_once(workload, seed, args.seconds, trace))
                values = rows[-1]["result"]["metrics"].values()
                print(f"# {workload} seed={seed} trace={trace} "
                      + " ".join(f"{m['value']:.6g}" for m in values), flush=True)
            records.extend(rows)
            attempted = sum(r["result"]["attempted"] for r in rows)
            failed = sum(r["result"]["failed"] for r in rows)
            correct = all(r["result"]["correct"] for r in rows)
            print(f"{workload} trace={trace} runs={len(rows)} correct={correct} "
                  f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted})")
            for metric, first in rows[0]["printed"].items():
                values = [r["printed"][metric]["value"] for r in rows]
                median, iqr = spread(values)
                print(f"  {metric:36s} {median:12.6g} {first['unit']:6s} spread {iqr:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump({"run_seconds": args.seconds, "runs": records}, out, indent=1)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
