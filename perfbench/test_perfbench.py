"""Self-test of the benchmark: metric names, units, and gates that catch bad results.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def zw():
    return workloads.import_zwcalc()


def smoke(name: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_a_smoke_run_emits_every_metric_with_its_unit(name, trace):
    proc = smoke(name, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["attempted"] == workloads.WORKLOADS[name].traced_items
    expected = run.per_layer_names() if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    for metric, unit in expected:
        assert any(line.startswith(f"{name} {metric} ") and line.endswith(f" {unit}")
                   for line in lines)
    assert f"{name} failed_ratio 0 ratio" in lines
    if not trace:
        assert any(line.startswith(f"{name} latency_p50_ms ") and line.endswith(" ms")
                   for line in lines)
    assert lines[0].startswith("# env ")
    env = json.loads(lines[0][len("# env "):])
    assert env["seed"] == 3 and env["pythonhashseed"] == run.HASH_SEED


def test_without_the_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = smoke("fuzz-mix", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_keeps_ten_samples_beyond_it():
    samples = [i / 1000 for i in range(1, 101)]
    assert run.tail(samples, 75) == (0.075, 75.0, 25)
    assert run.tail(samples, 99) == (0.09, 90.0, 10)
    assert run.tail(samples[:5], 99) == (0.005, 100.0, 0)


def test_set_up_repeats_at_least_five_times_and_more_while_cheap():
    assert not run.enough_set_ups([1.0] * 4)
    assert run.enough_set_ups([0.3] * 5)
    assert not run.enough_set_ups([0.1] * 5)
    assert run.enough_set_ups([0.1] * 15)
    assert run.enough_set_ups([0.01] * run.SETUP_MAX_REPEATS)


def first_item(zw, workload, accept):
    """Run the workload's items (seed 5) until ``accept`` takes the result."""
    ctx, pool = workload.inputs(zw, 5, workloads.UNTRACED)
    for item in pool:
        result = workload.run(zw, ctx, item, workloads.UNTRACED)
        if accept(result):
            assert workload.check(zw, ctx, item, result)
            return ctx, item, result
    raise AssertionError("no suitable item")


def flip_one_sign(zw, out, dirs):
    """The normal form of ``out`` with one term's sign flipped, as a diagram."""
    nf = zw.normalform.is_normal_form(out)
    first = nf.terms[0]
    terms = (first._replace(p=1 - first.p),) + nf.terms[1:]
    return zw.normalform.nf_to_diagram(zw.normalform.NormalForm(nf.legs, terms), dirs=dirs)


def has_terms(zw, out):
    nf = zw.normalform.is_normal_form(out)
    return nf is not None and len(nf.terms) > 0


def test_fuzz_mix_gate_flags_a_flipped_coefficient(zw):
    w = workloads.FuzzMix()
    ctx, g, (out, _back, same) = first_item(zw, w, lambda r: has_terms(zw, r[0]))
    bad = flip_one_sign(zw, out, g.boundary)
    assert not w.check(zw, ctx, g, (bad, bad, same))


def test_crossing_ladder_gate_flags_a_flipped_coefficient(zw):
    w = workloads.CrossingLadder()
    ctx, text, (g, out, same) = first_item(zw, w, lambda r: has_terms(zw, r[1]))
    bad = flip_one_sign(zw, out, g.boundary)
    assert not w.check(zw, ctx, text, (g, bad, same))


def test_dense_w_graph_gate_flags_a_changed_coefficient(zw):
    w = workloads.DenseWGraph()
    ctx, g, psi = first_item(zw, w, lambda t: bool(t.entries))
    mask = min(psi.entries)
    entries = dict(psi.entries)
    entries[mask] += 1
    assert not w.check(zw, ctx, g, zw.tensor.make_tensor(psi.legs, entries))


def test_perfect_matchings_agree_with_evaluation_on_open_graphs(zw):
    for i, legs in enumerate((1, 2, 3, 4)):
        g = workloads.cubic_w_graph(zw, random.Random(f"pm:{i}"), 10 + legs % 2, legs)
        psi = zw.tensor.eval_diagram(g)
        assert workloads.perfect_matching_tensor(g, zw.diagram.BOUNDARY) == psi.entries


def rewirings(zw, g):
    """Copies of ``g`` with the far ends of two vertex-to-vertex edges swapped."""
    inner = [e for e in g.edges if e[0][0] != zw.diagram.BOUNDARY]
    for i, (a, b) in enumerate(inner):
        for c, d in inner[i + 1:]:
            edges = [e for e in g.edges if e not in ((a, b), (c, d))] + [(a, d), (c, b)]
            yield zw.diagram.Diagram(dict(g.vertices), tuple(edges), g.boundary, g.circles)


def test_rules_rewrite_gate_flags_a_rewired_edge(zw):
    w = workloads.RulesRewrite()
    evaluate = zw.tensor.eval_diagram
    ctx, host, rewritten = first_item(
        zw, w, lambda r: bool(r) and not evaluate(r[0]).is_zero()
    )
    want = evaluate(rewritten[0])
    bad = next(h for h in rewirings(zw, rewritten[0]) if evaluate(h) != want)
    assert not w.check(zw, ctx, host, [bad] + rewritten[1:])
