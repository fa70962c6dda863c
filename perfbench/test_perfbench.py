"""Tests of the benchmark itself: span arithmetic, tracer wiring, smoke runs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import SMOKE_SIZES, WORKLOADS  # noqa: E402


def span(name, start, end, parent=-1, op=0):
    return (name, start, end, parent, op)


NESTED = [
    span("a", 0.0, 10.0),          # 0: root
    span("b", 1.0, 4.0, 0),        # 1: child of a
    span("c", 2.0, 3.0, 1),        # 2: child of b
    span("d", 5.0, 9.0, 0),        # 3: child of a
    span("b", 11.0, 12.5, -1),     # 4: second root in the same op
]


def test_self_time_subtracts_only_direct_children():
    assert tracer.self_times(NESTED) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])


def test_covered_merges_overlaps_and_clips():
    assert tracer.covered([(1, 4), (3, 6), (8, 20)], 0, 10) == pytest.approx(7.0)
    assert tracer.covered([], 0, 10) == 0.0


def test_per_function_sums_calls_and_self_time():
    table = tracer.per_function(NESTED)
    assert table["b"] == (2, pytest.approx(3.5))
    assert table["a"] == (1, pytest.approx(3.0))


def test_per_function_scales_by_op():
    spans = [span("a", 0.0, 2.0, op=0), span("a", 5.0, 6.0, op=1)]
    assert tracer.per_function(spans, {0: 0.5, 1: 2.0})["a"] == (2, pytest.approx(3.0))


def test_untraced_time_is_op_time_outside_root_spans():
    windows = {0: (0.0, 13.0), 1: (20.0, 21.0)}  # op 1 has no spans at all
    assert tracer.untraced_time(NESTED, windows) == pytest.approx({0: 13.0 - 11.5, 1: 1.0})


def test_tail_leaves_ten_ops_above():
    pct, value = worker.tail([float(x) for x in range(1, 41)])
    assert (pct, value) == (75.0, 30.0)
    assert worker.tail([3.0, 1.0, 2.0]) == (pytest.approx(100 / 3), 1.0)


def test_tracer_wraps_every_binding_and_restores_them():
    import equisquares
    from equisquares import bipartite, halving

    original = bipartite.union_components
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = bipartite.union_components
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert halving.union_components is wrapped and equisquares.union_components is wrapped
        graph = bipartite.make_graph(2, 2, [(0, 0), (1, 1), (0, 1), (1, 0)])
        bipartite.union_components(graph, {0, 1}, {2, 3})  # no op open: not recorded
        assert t.spans == []
        t.op = 7
        bipartite.union_components(graph, {0, 1}, {2, 3})
        t.op = None
    finally:
        t.uninstall()
    assert bipartite.union_components is original and halving.union_components is original
    names = [s[0] for s in t.spans]
    assert names[0] == "bipartite.union_components"
    assert "bipartite.is_matching" in names  # called inside, recorded as a child
    assert all(s[4] == 7 for s in t.spans)
    assert {s[3] for s in t.spans[1:]} == {0}


def smoke(name: str, trace: int, workdir: Path) -> dict:
    out = io.StringIO()
    argv = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace),
            "--workdir", str(workdir), "--smoke"]
    with contextlib.redirect_stdout(out):
        assert worker.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_each_workload(name, tmp_path):
    plain = smoke(name, 0, tmp_path)
    cycle = WORKLOADS[name](5, SMOKE_SIZES[name]).cycle
    assert plain["failed"] == 0 and plain["attempted"] >= cycle
    assert set(plain["metrics"]) >= {"ops_per_s", "op_p50_s", "op_tail_s", "transversal_frac",
                                     "success_frac", "peak_rss_mb"}
    assert plain["metrics"]["success_frac"]["value"] == 1.0

    traced = smoke(name, 1, tmp_path)
    assert traced["failed"] == 0
    assert traced["fingerprint"] == plain["fingerprint"]  # same seed, same outputs
    assert "bench.untraced_s" in traced["metrics"] and "bench.trace_overhead_s" in traced["metrics"]
    assert any(k.endswith(".self_s") for k in traced["metrics"])
    assert list(tmp_path.glob(f"spans-{name}-seed5.csv"))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "block-pipeline",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
