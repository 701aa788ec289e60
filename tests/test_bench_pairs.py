import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WIDE = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]   # median 10, IQR 5.5
STEADY = [10.0 + 0.01 * i for i in range(10)]

# (better, base runs, change runs, verdict) under a bound of 0.25
VERDICTS = {
    "worse": ("lower", STEADY, [13.0 + 0.01 * i for i in range(10)], "worse"),
    "worse_higher": ("higher", STEADY, [7.0 + 0.01 * i for i in range(10)], "worse"),
    "better": ("lower", STEADY, [8.0 + 0.01 * i for i in range(10)], "better"),
    "better_in_9_of_10": ("higher", STEADY, [12.0] * 9 + [9.0], "better"),
    # 8 of 10 wins is short of the rule's 9
    "wins_8_of_10": ("lower", STEADY, [8.0] * 8 + [11.0] * 2, "unchanged"),
    "unresolved": ("lower", WIDE, WIDE[1:] + WIDE[:1], "unresolved"),
    # every change run beats every base run, by a median gap inside the IQR
    "wide_but_dominated": ("lower", WIDE, [4.9] * 10, "unchanged"),
    "unchanged": ("lower", STEADY, [10.05 + 0.01 * i for i in range(10)], "unchanged"),
}


@pytest.mark.parametrize("case", VERDICTS)
def test_summarize_gives_one_verdict_per_metric(case):
    better, base, change, expected = VERDICTS[case]
    spec = {"end_to_end": [{"name": "m", "unit": "ms", "better": better, "bound": 0.25}]}
    runs = [{"workload": "w", "pair": pair, "side": side, "digest": "d",
             "result": {"correct": True, "metrics": {"m": {"value": value}}}}
            for pair, values in enumerate(zip(base, change))
            for side, value in zip(("base", "change"), values)]
    metric = bench_pairs().summarize(runs, spec)["w"]["metrics"]["m"]
    assert metric["verdict"] == expected
    assert metric["within_bound"] == (expected != "worse")


def rounds(count, failing=()):
    """Per-round records of a perfbench detail line, three keys in turn."""
    return [{"key": f"k{i % 3}", "setup_s": 0.01, "steps": 10, "digest": f"d{i % 3}",
             "quality": {"mse": 0.1 * i}, "checks": {"fits": i not in failing,
                                                     "digest_repeats": True}}
            for i in range(count)]


def test_rounds_are_summarized():
    records = rounds(3000, failing={5, 2999})
    assert bench_pairs().summarize_rounds(records) == {
        "count": 3000, "failed": 2, "failed_checks": {"fits": 2},
        "digests": ["d0", "d1", "d2"], "first": records[0], "last": records[-1]}


def test_run_once_keeps_the_result_and_summarizes_the_rounds(tmp_path):
    detail = {"workload": "w", "env": {"numpy": "x"}, "digest": "d0", "rounds": rounds(500),
              "end_to_end": {"step_ms_p50": 1.0}}
    result = {"correct": True, "attempted": 500, "failed": 0,
              "metrics": {"step_ms_p50": {"value": 1.0, "unit": "ms"}}}
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        f"print('round 0: ok')\nprint('detail: ' + {json.dumps(json.dumps(detail))})\n"
        f"print({json.dumps(json.dumps(result))})\n")
    run = bench_pairs().run_once(tmp_path, "w", 1, 1.0, False)
    assert run["returncode"] == 0 and run["result"] == result and run["digest"] == "d0"
    kept = {k: v for k, v in run["detail"].items() if k != "rounds"}
    assert kept == {k: v for k, v in detail.items() if k != "rounds"}
    assert run["detail"]["rounds"] == bench_pairs().summarize_rounds(detail["rounds"])


@pytest.mark.parametrize("name", ["BENCH_float32-columns.json", "BENCH_input-files_aa.json"])
def test_summarized_rounds_keep_every_verdict(name):
    # a committed report's runs with their rounds summarized give its summary
    module = bench_pairs()
    report = json.loads((ROOT / name).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for run in report["runs"]:
        run["detail"]["rounds"] = module.summarize_rounds(run["detail"]["rounds"])
    assert module.summarize(report["runs"], spec) == report["summary"]


def test_tiny_aa_pair_writes_a_complete_report(tmp_path):
    out = tmp_path / "BENCH_selftest.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--label", "selftest", "--aa",
         "--workloads", "srp_fit", "--pairs", "1", "--seconds", "1", "--tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())

    assert report["label"] == "selftest" and report["mode"] == "A/A"
    env = report["environment"]
    for key in ("numpy", "blas", "threads", "nproc", "cpu", "python", "base", "change",
                "pairs", "seconds", "seed0", "tiny"):
        assert key in env, key
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"

    runs = report["runs"]
    assert sorted((r["side"], r["position"]) for r in runs) == [("base", 0), ("change", 1)]
    for r in runs:
        assert r["workload"] == "srp_fit" and r["pair"] == 0 and r["returncode"] == 0
        assert r["result"]["correct"] and r["result"]["failed"] == 0
    assert runs[0]["seed"] == runs[1]["seed"] and runs[0]["digest"] == runs[1]["digest"]
    for r in runs:   # the whole detail line, not only its digest, its rounds summarized
        assert r["detail"]["digest"] == r["digest"]
        assert {"env", "digest", "rounds", "end_to_end"} <= set(r["detail"]), sorted(r["detail"])
        summary = r["detail"]["rounds"]
        assert summary["count"] == r["result"]["attempted"] and summary["failed"] == 0
        assert summary["first"]["digest"] == r["digest"] and r["digest"] in summary["digests"]

    entry = report["summary"]["srp_fit"]
    assert entry["pairs"] == entry["pairs_compared"] == 1
    assert entry["failed_runs"] == {"base": 0, "change": 0}
    assert entry["digests_equal"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(entry["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, m in entry["metrics"].items():
        for side in ("base", "change"):
            stats = m[side]
            assert stats["q1"] <= stats["median"] <= stats["q3"], name
        assert m["wins"] in (0, 1) and isinstance(m["within_bound"], bool)
        assert m["verdict"] in ("worse", "better", "unresolved", "unchanged")
        value = next(r for r in runs if r["side"] == "base")["result"]["metrics"][name]["value"]
        assert m["base"]["median"] == value
