"""Self-test of the benchmark runner at tiny sizes.

    python -m pytest perfbench

Every workload runs through the same code as the benchmark, at the
``--tiny`` sizes and for half a second, traced and untraced; the tests
check the result contract of BENCHMARK.json, the output checks, the
digests, the trace reconciliation, and that the runner refuses to run
where it cannot measure ocusim.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def invoke(workload, trace=0, seed=3, runner=HERE / "run.py", cwd=ROOT, **env):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env={**os.environ, **THREADS, **env})


def parse(done):
    lines = done.stdout.strip().splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("detail: "))[len("detail: "):])
    return json.loads(lines[-1]), detail


@pytest.fixture(scope="module")
def results():
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            done = invoke(w, trace)
            assert done.returncode in (0, 1), done.stderr
            out[w, trace] = parse(done)
    return out


def _check_result(result, detail, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["attempted"] >= len(detail["rounds"]) >= 1
    for r in detail["rounds"]:
        assert r["checks"]["digest_repeats"], r
        failed = {k for k, ok in r["checks"].items() if not ok}
        if detail["workload"] == "denoise_desk":
            # eight tiny steps cannot be relied on to beat the noisy input;
            # the full-size workload holds this check
            failed.discard("psnr_gain_positive")
        assert not failed, r


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(results, workload):
    result, detail = results[workload, 0]
    _check_result(result, detail, SPEC["end_to_end"])
    for name, m in result["metrics"].items():
        assert m["value"] != 0, name
    if workload != "denoise_desk":
        assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reconciles_every_step(results, workload):
    result, detail = results[workload, 1]
    _check_result(result, detail, SPEC["per_layer"])
    trace = detail["trace"]
    assert trace["steps"] >= 1
    assert trace["max_error_ms"] < 1e-6
    assert trace["unattributed_ms_per_step"] >= 0


def test_every_per_layer_metric_is_measured_by_some_workload(results):
    unmeasured = set.intersection(*(set(results[w, 1][1]["per_layer_not_exercised"])
                                    for w in WORKLOADS))
    assert not unmeasured


def test_same_seed_same_digest(results):
    again, detail = parse(invoke("srp_fit", 0, seed=3))
    assert detail["digest"] == results["srp_fit", 0][1]["digest"]
    assert detail["simulated"] == results["srp_fit", 0][1]["simulated"]
    other = parse(invoke("srp_fit", 0, seed=4))[1]
    assert other["digest"] != detail["digest"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = invoke("srp_fit", runner=tmp_path / HERE.name / "run.py", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_refuses_more_than_one_blas_thread():
    done = invoke("srp_fit", OPENBLAS_NUM_THREADS="2")
    assert done.returncode == 2
    assert "OPENBLAS_NUM_THREADS" in done.stderr
    assert '"metrics"' not in done.stdout


def test_reconcile_splits_a_step_into_self_times():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracing import reconcile, span_stats

    # step 0 spans [0, 10]: a [1, 5] holding b [2, 3], then c [6, 8]
    spans = [["a", 1.0, 5.0, -1], ["b", 2.0, 3.0, 0], ["c", 6.0, 8.0, -1],
             ["d", 11.0, 12.0, -1]]
    (step,) = reconcile(spans, [(0.0, 10.0)])
    assert step["self_ms"] == {"a": 3000.0, "b": 1000.0, "c": 2000.0}
    assert step["unattributed_ms"] == 4000.0
    assert step["error_ms"] == 0.0
    stats = span_stats(spans)
    assert stats["a"] == {"calls": 1, "ms": 4000.0, "self_ms": 3000.0}
