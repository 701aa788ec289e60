import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    for r in runs:   # the whole detail line, not only its digest
        assert r["detail"]["digest"] == r["digest"]
        assert {"env", "digest", "rounds", "end_to_end"} <= set(r["detail"]), sorted(r["detail"])

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
        value = next(r for r in runs if r["side"] == "base")["result"]["metrics"][name]["value"]
        assert m["base"]["median"] == value
