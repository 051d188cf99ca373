#!/usr/bin/env python3
"""Run one benchmark workload against the zwcalc sources of this checkout.

Usage, from the repository root::

    python3 perfbench/run.py --workload fuzz-mix --seed 1 --seconds 30 --trace 0

Workloads: fuzz-mix, crossing-ladder, dense-w-graph, rules-rewrite (see
``workloads.py`` and ``README.md``).  The run re-executes itself once with a
fixed ``PYTHONHASHSEED``, so every workload runs in a fresh interpreter with
the same hashing.  It prints the environment, every metric with its unit and
the failure ratio, and as the last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off for ``--seconds`` of item time.  With ``--trace 1`` the run
measures the workload's fixed number of items, each once untraced and once
traced, whatever ``--seconds`` is; it reports the per-layer metrics of the
traced runs and writes their spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
HASH_SEED = "0"
SETUP_REPEATS = 5
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 25
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: (layer call, with .calls / .self_s / .max_ms as listed)
LAYER_CALLS = [
    ("normalform.normalize", ("calls", "self_s", "max_ms")),
    ("normalform.eliminate_crossings", ("self_s",)),
    ("normalform.nf_of_tensor", ("self_s",)),
    ("normalform.nf_to_diagram", ("self_s",)),
    ("normalform.is_normal_form", ("self_s",)),
    ("tensor.eval_diagram", ("calls", "self_s", "max_ms")),
    ("diagram.canonical_form", ("calls", "self_s", "max_ms")),
    ("rules.find_matches", ("calls", "self_s")),
    ("rules.apply", ("calls", "self_s")),
    ("term.parse_term", ("calls", "self_s")),
    ("term.from_term", ("self_s",)),
    ("jsonio.diagram_to_json", ("self_s",)),
    ("jsonio.diagram_from_json", ("self_s",)),
    ("rules.catalog", ("self_s",)),
    ("fuzz.random_diagram", ("self_s",)),
]
LAYER_COUNTS = [
    ("normalform.nf_terms", "count"),
    ("normalform.spliced_vertices", "count"),
    ("tensor.result_entries", "count"),
    ("rules.matches_found", "count"),
    ("term.chars", "count"),
    ("jsonio.bytes", "bytes"),
]
#: Printed with the metrics but left out of ``BENCHMARK.json``: the median
#: lands in whichever of the machine's speed phases holds more than half of
#: a run, and ``failed_ratio`` reads 0 (see README.md).
PRINTED_ONLY = {"latency_p50_ms": "ms", "failed_ratio": "ratio"}
FAILED_MODULES = ["term", "diagram", "tensor", "normalform", "rules", "jsonio", "fuzz"]
UNITS = {"calls": "count", "self_s": "s", "max_ms": "ms"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [(f"{call}.{part}", UNITS[part]) for call, parts in LAYER_CALLS for part in parts]
    names += LAYER_COUNTS
    names.append(("rules.match_yield", "ratio"))
    names += [(f"{module}.failed", "count") for module in FAILED_MODULES]
    names += [
        ("trace.spans", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.item_wall_s", "s"),
        ("trace.remainder_s", "s"),
    ]
    return names


def _status_mb(field: str) -> float | None:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process image (VmHWM), in MiB."""
    peak = _status_mb("VmHWM")
    if peak is None:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return peak


def rss_mb() -> float:
    """Current resident set (VmRSS), in MiB; the peak where that is unknown."""
    current = _status_mb("VmRSS")
    return peak_rss_mb() if current is None else current


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as loose:
                return loose.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "gc_threshold": list(gc.get_threshold()),
    }


def enough_set_ups(seconds: list[float]) -> bool:
    """``SETUP_REPEATS`` set-ups, and more while they total under ``SETUP_MIN_S``."""
    n = len(seconds)
    return n >= SETUP_MAX_REPEATS or (n >= SETUP_REPEATS and sum(seconds) >= SETUP_MIN_S)


def set_up(workload, seed: int, trace: bool):
    """Import, build and generate, repeatedly; keep the last set.

    Returns the last set and every repeat's seconds.  Each repeat drops and
    re-imports the package, so the times cover module execution, catalog
    building and input generation.  The previous repeat's
    package and inputs are freed before the next is built, so only one input
    pool is ever alive.  A traced run sets up once, traced, and reports no
    set-up time.
    """
    from tracing import Tracer
    from workloads import import_zwcalc

    seconds: list[float] = []
    zw = ctx = pool = None
    while not seconds or not (trace or enough_set_ups(seconds)):
        zw = ctx = pool = None
        gc.collect()
        start = perf_counter()
        zw = import_zwcalc()
        tracer = Tracer(trace, zw.errors.ZWError)
        ctx, pool = workload.inputs(zw, seed, tracer)
        seconds.append(perf_counter() - start)
    return zw, tracer, ctx, pool, seconds


def run_item(workload, zw, ctx, item, tracer):
    """One timed item: its result (the ``ZWError`` if one was raised) and seconds."""
    start = perf_counter()
    try:
        result = workload.run(zw, ctx, item, tracer)
    except zw.errors.ZWError as exc:
        result = exc
    return result, perf_counter() - start


def timed_loop(workload, zw, ctx, pool, tracer, seconds):
    """Closed loop, one client, tracing off.

    Stops at the first round boundary after the summed item time reaches
    ``seconds``.  Each result is checked between items, off the clock, and
    dropped.  Returns the latencies and the indices of failed items.
    """
    latencies: list[float] = []
    failed: list[int] = []
    busy = 0.0
    i = 0
    while busy < seconds or i % workload.round:
        item = pool[i % len(pool)]
        result, elapsed = run_item(workload, zw, ctx, item, tracer)
        latencies.append(elapsed)
        busy += elapsed
        if not passes(workload, zw, ctx, item, result):
            failed.append(i)
        i += 1
    return latencies, failed


def passes(workload, zw, ctx, item, result) -> bool:
    """The item's gate: no ``ZWError`` was raised and the result checks out."""
    error = zw.errors.ZWError
    if isinstance(result, error):
        return False
    try:
        return workload.check(zw, ctx, item, result)
    except error:
        return False


def tail(latencies: list[float], percentile: float) -> tuple[float, float, int]:
    """The tail latency: value, its percentile and the samples beyond it.

    ``percentile`` is the workload's, fixed so that a run at this commit's
    throughput keeps at least TAIL_BEYOND samples beyond it; a fixed
    percentile does not jump when the item count changes a little.  When a
    run has fewer items, the value falls back to the highest sample with
    TAIL_BEYOND beyond it, or to the maximum in a run too short for that.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = math.ceil(n * percentile / 100) - 1
    if n - 1 - index < TAIL_BEYOND:
        index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    """The end-to-end metrics of one untraced run.

    Set-up is repeated before and again after the timed loop, and
    ``setup_s`` is the median of both groups, so that a phase in which the
    machine runs slower than usual does not decide it alone.
    """
    zw, tracer, ctx, pool, before = set_up(workload, seed, False)
    gc.collect()
    after_setup_mb = rss_mb()
    latencies, failed = timed_loop(workload, zw, ctx, pool, tracer, seconds)
    value, percentile, beyond = tail(latencies, workload.tail_percentile)
    peak_mb = peak_rss_mb()
    zw = ctx = pool = None
    *_, after = set_up(workload, seed, False)
    metrics = {
        "setup_s": statistics.median(before + after),
        "items_per_s": len(latencies) / sum(latencies),
        "latency_tail_ms": 1000 * value,
        "peak_rss_mb": peak_mb,
    }
    extra = {
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_percentile": percentile,
        "latency_samples": len(latencies),
        "latency_samples_beyond_tail": beyond,
        "rss_after_setup_mb": after_setup_mb,
        "failed_ratio": len(failed) / len(latencies),
    }
    return metrics, len(latencies), len(failed), extra


def same_output(a, b) -> bool:
    return repr(a) == repr(b) if isinstance(a, Exception) else a == b


def traced(workload, seed: int) -> tuple[dict, int, int, dict]:
    """Run ``workload.traced_items`` items, each once untraced and once traced.

    The two runs of an item follow each other, in alternating order, so
    machine noise and warm caches fall on both alike.  The traced run splits
    ``normalize``; its output must equal the untraced one.
    """
    zw, tracer, ctx, pool, _ = set_up(workload, seed, True)
    gc.collect()
    wall = {False: 0.0, True: 0.0}
    failed: list[int] = []
    differ = 0
    for i in range(workload.traced_items):
        item = pool[i % len(pool)]
        out = {}
        for enabled in (False, True) if i % 2 == 0 else (True, False):
            tracer.enabled = enabled
            tracer.begin_item(i)
            out[enabled], elapsed = run_item(workload, zw, ctx, item, tracer)
            tracer.end_item()
            wall[enabled] += elapsed
        tracer.enabled = False
        same = same_output(out[False], out[True])
        differ += not same
        if not same or not passes(workload, zw, ctx, item, out[False]):
            failed.append(i)
    plain, spanned = wall[False], wall[True]

    self_s, calls, longest = tracer.self_times()
    metrics: dict[str, float] = {}
    for call, parts in LAYER_CALLS:
        for part in parts:
            if part == "calls":
                metrics[f"{call}.calls"] = calls.get(call, 0)
            elif part == "self_s":
                metrics[f"{call}.self_s"] = self_s.get(call, 0.0)
            else:
                metrics[f"{call}.max_ms"] = 1000 * longest.get(call, 0.0)
    for name, _unit in LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    finds = calls.get("rules.find_matches", 0)
    nonempty = tracer.counts.get("rules.find_matches.nonempty", 0)
    metrics["rules.match_yield"] = nonempty / finds if finds else 0.0
    for module in FAILED_MODULES:
        metrics[f"{module}.failed"] = tracer.counts.get(f"{module}.failed", 0)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_ratio"] = spanned / plain
    metrics["trace.item_wall_s"] = spanned
    metrics["trace.remainder_s"] = self_s.get("bench.item", 0.0)

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.jsonl")
    tracer.write(spans_path)
    extra = {
        "spans_file": os.path.relpath(spans_path, ROOT),
        "layer_self_share_of_item_wall": 1 - metrics["trace.remainder_s"] / spanned,
        "output_mismatches": differ,
        "failed_ratio": len(failed) / workload.traced_items,
    }
    return metrics, workload.traced_items, len(failed), extra


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "zwcalc", "__init__.py")):
        print(f"perfbench: no zwcalc sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(workload.name, args.seed)))
    if args.trace:
        metrics, attempted, failed, extra = traced(workload, args.seed)
    else:
        metrics, attempted, failed, extra = end_to_end(workload, args.seed, args.seconds)
    units = dict(per_layer_names() if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    for name, value in extra.items():
        if name in PRINTED_ONLY:
            print(f"{workload.name} {name} {value:.6g} {PRINTED_ONLY[name]}")
        else:
            print(f"# {name} {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
