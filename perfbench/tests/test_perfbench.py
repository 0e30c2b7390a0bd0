"""Tests of the benchmark harness itself. None of them asserts a timing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bkm
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, key):
    env, result = _run("--workload", "paper", "--seed", "3",
                       "--seconds", "0.2", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert env["env"]["seed"] == 3 and env["env"]["workload"] == "paper"
    for field in ("numpy", "scipy", "python", "blas_threads", "nproc"):
        assert field in env["env"]


def test_smoke_traced_paper_counts_one_factorisation_pair():
    _, result = _run("--workload", "paper", "--seed", "0",
                     "--seconds", "0.2", "--trace", "1")
    metrics = result["metrics"]
    assert metrics["linalg.factorizations"]["value"] == 2.0
    assert metrics["solver.rows_kept_frac"]["value"] == 1.0
    assert metrics["kernels.bessel_far_frac"]["value"] == 0.0


def test_wide_inputs_repeat_for_a_seed():
    a, b = workloads.WideWorkload(7), workloads.WideWorkload(7)
    for _ in range(3):
        np.testing.assert_array_equal(a.query_points(), b.query_points())
    np.testing.assert_array_equal(a.interior, b.interior)
    other = workloads.WideWorkload(8).query_points()
    assert not np.array_equal(workloads.WideWorkload(7).query_points(), other)


def test_wide_inputs_have_the_stated_shape():
    wl = workloads.WideWorkload(0)
    assert wl.interior.shape == (112, 2)
    pts = wl.query_points()
    assert pts.shape == (256, 2)
    assert np.all((pts[:, 0] / wl.a) ** 2 + (pts[:, 1] / wl.b) ** 2 <= 1.0)


def _bindings():
    """Every attribute of every bkm module and traced class, by identity."""
    owners = tracer._bkm_modules() + [
        owner for _, owner, _, _ in tracer.TARGETS if isinstance(owner, type)]
    return {(id(owner), key): value for owner in owners
            for key, value in list(vars(owner).items())}


def test_tracer_replaces_by_name_imports_and_restores_them():
    before = _bindings()
    original = bkm.solver.evaluate
    with tracer.Tracer() as tr:
        assert bkm.solver.evaluate is not original
        assert bkm.bench.evaluate is bkm.solver.evaluate
        assert bkm.bench.truncate_system is not before[
            (id(bkm.frm), "truncate_system")]
        assert not tr.missing
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_traced_paper_op_spans_nest_and_count():
    wl = workloads.PaperWorkload(0)
    tr = tracer.Tracer()
    with tr:
        result = wl.op(0)
    assert result.failure is None
    assert tr.counts["linalg.factorizations"] == 2
    for name, start, end, parent in tr.spans:
        assert end >= start
        if parent >= 0:
            _, p_start, p_end, _ = tr.spans[parent]
            assert p_start <= start and end <= p_end
    self_times = tr.self_times()
    assert {"kernels.bessel", "linalg.factor", "solver.evaluate"} <= set(self_times)
    assert all(t >= 0 for t in self_times.values())
    assert run._trace_problem("paper", tr, workloads, bkm.frm) is None


def test_paper_check_rejects_a_wrong_answer():
    case = bkm.table2_case()
    assert workloads._paper_check("table2", case.exact_values,
                                  case.exact_values) is None
    assert workloads._paper_check("table2", case.exact_values,
                                  case.exact_values * 1.5) is not None
    case = bkm.table1_case()
    assert workloads._paper_check("table1", case.exact_values,
                                  case.exact_values + 0.2) is not None


def test_missing_sources_exit_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (bench / name).write_text((BENCH / name).read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
