"""Tests of the benchmark itself.

    python -m pytest perfbench
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    report, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in report)
    assert any(line.startswith("fail_ratio") and line.split()[1] == "0" for line in report)


# Layers each workload calls, per the README's map: each must show time.
USED_LAYERS = {
    "queries": ["graphs.check_walk", "fundamental.loop_to_word",
                "fundamental.loops_equivalent_detail", "presentations.smith_diagonal",
                "presentations.in_row_lattice", "presentations.tietze_with_rewriter",
                "presentations.TietzeResult.rewrite", "grids.bounded_homotopy_search"],
    "invariants": ["graphs.from_json", "graphs.cartesian_product", "complexes.parse_facets",
                   "complexes.gamma_q", "fundamental.a1_presentation",
                   "presentations.smith_diagonal", "presentations.abelianization",
                   "grids.bounded_homotopy_search", "cells.f_vector",
                   "loopspace.enumerate_paths", "loopspace.build_loop_graph", "loopspace.a0",
                   "cli.run"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(workload):
    report, result = bench(workload, 1, "--rounds", "1")
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for layer in USED_LAYERS[workload]:
        assert metrics[f"{layer}.self_s"]["value"] > 0, layer
        calls = metrics.get(f"{layer}.calls")
        assert calls is None or calls["value"] > 0, layer
    assert any(line.startswith("tracing overhead:") for line in report)


def first_ops(workload, kind, workdir):
    return [op for op in workloads.make(workload, 1, str(workdir)).round(0) if op.kind == kind]


def test_planted_wrong_verdict_fails(tmp_path):
    # Catalog pairs (at most 5 vertices) are always settled, never unknown.
    ops = [op for op in first_ops("queries", "query", tmp_path)
           if op.expect[3] == "equal" and len(op.expect[2].vertices) <= 5][:5]
    assert all(o == "ok" for o in run_ops(ops)[1])
    l1, l2, g, _ = ops[0].expect
    planted = [replace(ops[0], expect=(l1, l2, g, "distinct"))] + ops[1:]
    outcomes = run_ops(planted)[1]
    assert outcomes[0].startswith("query: answered equal, expected distinct")
    assert sum(o not in ("ok", "unknown") for o in outcomes) / len(outcomes) == 0.2


def test_planted_wrong_invariant_fails(tmp_path):
    op = first_ops("invariants", "a1", tmp_path)[0]
    assert run_ops([op])[1] == ["ok"]
    wrong = workloads.expect_a1(None, None, 999, False)
    outcome = run_ops([replace(op, expect=[wrong])])[1][0]
    assert "expected free_rank=999" in outcome


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 8]; c holds d [6, 7]; e [11, 12] is a root.
    name = [0, 1, 1, 2, 0]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 8.0, 7.0, 12.0]
    calls, own = spans.self_times(name, parent, start, end, 3)
    assert calls == [2, 2, 1]
    assert own == [10.0 - 3.0 - 3.0 + 1.0, 3.0 + 3.0 - 1.0, 1.0]


def test_winding_separates_torus_loops():
    a = [(i % 5, 0) for i in range(6)]
    c = [(0, j % 6) for j in range(7)]
    assert workloads.torus_winding(a + c[1:], 5, 6) == (1, 1)
    assert workloads.torus_winding(c + a[1:], 5, 6) == (1, 1)
    assert workloads.torus_winding(a[::-1], 5, 6) == (-1, 0)


def test_catalog_and_loop_counts():
    catalog = workloads.connected_catalog(5)
    assert sorted(len(s.keys) for s in catalog).count(5) == 21 and len(catalog) == 31
    # The loop-graph vertex count agrees with brute force on C4.
    shape = workloads.cycle_shape(4)
    walks = [w for w in workloads.closed_walks(shape, 3) if len(w) == 1 or w[-2] != w[-1]]
    assert workloads.count_loop_vertices(shape, 3) == len(walks)


def test_free_word_tracks_detours_and_twists():
    shape = workloads.gadget_shape(random.Random("queries/gadgets"), 36)
    assert shape.free_rank > 0
    rng = random.Random(0)
    for _ in range(50):
        walk = workloads.random_loop(shape, rng, 4, 20)
        word = workloads.free_word(shape, walk)
        assert workloads.free_word(shape, workloads.detour(shape, walk, rng)) == word
        assert workloads.free_word(shape, workloads.Queries._twist(shape, walk, rng)) != word
