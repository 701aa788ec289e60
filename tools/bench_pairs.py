#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarized in BENCH_<label>.json.

    python tools/bench_pairs.py --label mychange --base HEAD~1 --pairs 10
    python tools/bench_pairs.py --label aa --aa --workloads srp_fit --pairs 10

The change side is a copy of the working tree this script sits in.  The
base side is ``--base REV`` exported with ``git archive``, or, with
``--aa``, the same copy (an A/A batch, which shows the spread of the host
alone).  Both live in a temporary directory that is removed at the end.  Each pair runs ``perfbench/run.py`` once per side on a
fresh seed (pair i uses seed ``--seed0 + i`` on both sides), the two sides
taking turns to go first.  The file holds the environment, every run's
result line and ``detail:`` line, that line's per-round records summarized
(their count, failures and distinct digests, and the first and last
record), and per workload and end-to-end metric of
BENCHMARK.json: the median [Q1, Q3] of each side, the relative change of
the medians, the pairs the change won, whether the change's median is
worse than the base's by more than the metric's bound, whether the
medians differ by more than the base's interquartile range, and the one
verdict that ``compare`` draws from these.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def working_tree() -> dict:
    """The commit the working tree is on and whether tracked files differ from it."""
    if not (ROOT / ".git").exists():
        return {"commit": "not a git checkout", "uncommitted_changes": None}
    return {"commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no"))}


def export_revision(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; returns the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's files, tracked or not but not ignored, into
    ``dest``.  Both sides run from copies without a .git directory: in a
    checkout perfbench asks git for the commit, which adds about 2 MB to
    the run's peak_rss_mb."""
    if (ROOT / ".git").exists():
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    else:
        names = [str(p.relative_to(ROOT)) for p in ROOT.rglob("*") if p.is_file()]
    for name in filter(None, names):
        if (ROOT / name).is_file():      # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def summarize_rounds(rounds: list[dict]) -> dict:
    """A run's per-round records, of which a 30 s srp_fit run makes
    thousands, as their count, the rounds that failed a check and how often
    each check failed, their distinct digests in order of appearance, and
    the first and the last record."""
    failed_checks: dict[str, int] = {}
    for r in rounds:
        for check, ok in r["checks"].items():
            if not ok:
                failed_checks[check] = failed_checks.get(check, 0) + 1
    return {"count": len(rounds),
            "failed": sum(not all(r["checks"].values()) for r in rounds),
            "failed_checks": failed_checks,
            "digests": list(dict.fromkeys(r["digest"] for r in rounds)),
            "first": rounds[0], "last": rounds[-1]}


def run_once(tree: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One perfbench run: its result line, its parsed ``detail:`` line with
    the rounds summarized, and the digest that line holds (None on failure)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--tiny"] if tiny else [])
    began = time.perf_counter()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    run = {"returncode": done.returncode, "wall_s": time.perf_counter() - began,
           "result": None, "detail": None, "digest": None}
    lines = done.stdout.strip().splitlines()
    try:
        run["result"] = json.loads(lines[-1])
        run["detail"] = json.loads(next(line for line in lines if line.startswith("detail: "))[8:])
        run["digest"] = run["detail"]["digest"]
        run["detail"]["rounds"] = summarize_rounds(run["detail"]["rounds"])
    except (IndexError, StopIteration, ValueError, KeyError):
        run["stderr"] = done.stderr[-2000:]
    return run


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def iqr(values) -> float:
    q1, q3 = np.percentile(values, [25, 75])
    return float(q3 - q1)


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's paired runs: each side's quartiles, the pairs the change
    won, and one verdict, the benchmark's rule, decided in this order:

    - ``worse``: the change's median is worse than the base's by more than ``bound``;
    - ``better``: the change wins at least 9 of 10 pairs, in the ``better``
      direction, and the medians differ by more than the base's IQR;
    - ``unresolved``: the base's IQR is wider than ``bound`` times its median,
      unless every change run beats every base run;
    - ``unchanged``: otherwise.
    """
    lower = better == "lower"

    def beats(x, y):    # x reads better than y
        return x < y if lower else x > y

    b, c = float(np.median(base)), float(np.median(change))
    worse = ((c - b) if lower else (b - c)) / b if b else 0.0
    wins = sum(beats(y, x) for x, y in zip(base, change))
    # a gain is told from noise only by a median gap wider than the spread
    # of the base's own runs
    gap = abs(c - b) > iqr(base)
    if worse > bound:
        verdict = "worse"
    elif 10 * wins >= 9 * len(base) and beats(c, b) and gap:
        verdict = "better"
    elif iqr(base) > bound * b and not all(beats(y, x) for x in base for y in change):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"base": quartiles(base), "change": quartiles(change),
            "change_vs_base": c / b - 1.0 if b else None,
            "wins": wins, "within_bound": worse <= bound,
            "gap_exceeds_base_iqr": gap, "verdict": verdict}


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload: failures, digest agreement and per-metric statistics."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        ok = [p for p in pairs.values() if all(p[s]["result"] is not None for s in p)]
        entry = {
            "pairs": len(pairs),
            "pairs_compared": len(ok),      # both runs gave a result line
            # runs without a result line or with a failed check
            "failed_runs": {side: sum(p[side]["result"] is None
                                      or not p[side]["result"]["correct"]
                                      for p in pairs.values())
                            for side in ("base", "change")},
            "digests_equal": all(p["base"]["digest"] == p["change"]["digest"]
                                 for p in pairs.values()),
            "metrics": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not ok:
                continue
            base = [p["base"]["result"]["metrics"][name]["value"] for p in ok]
            change = [p["change"]["result"]["metrics"][name]["value"] for p in ok]
            entry["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **compare(base, change, metric["better"], metric["bound"]),
            }
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--base", metavar="REV", help="git revision of the base side")
    side.add_argument("--aa", action="store_true", help="the working tree on both sides")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]],
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed0", type=int, default=20000, help="pair i runs seed SEED0 + i")
    parser.add_argument("--tiny", action="store_true", help="perfbench's self-test sizes")
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<label>.json "
                        "at the root of the working tree)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    out = args.out or ROOT / f"BENCH_{args.label}.json"

    change = working_tree()
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        change_tree = scratch / "change"
        copy_working_tree(change_tree)
        if args.aa:
            base_tree, base_rev = change_tree, "working tree"
        else:
            base_tree = scratch / "base"
            base_rev = export_revision(args.base, base_tree)
        runs = []
        for workload in args.workloads:
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for position, which in enumerate(order):
                    run = run_once(base_tree if which == "base" else change_tree, workload,
                                   seed, args.seconds, args.tiny)
                    run.update(workload=workload, pair=i, side=which, seed=seed,
                               position=position)
                    runs.append(run)
                    shown = run["result"]["metrics"] if run["result"] else {}
                    print(f"{workload} pair {i} {which:6s} seed {seed}: rc {run['returncode']}"
                          f"  digest {run['digest']}  step_ms_p50 "
                          f"{shown.get('step_ms_p50', {}).get('value', float('nan')):.4g}",
                          flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = next((r["detail"]["env"] for r in runs if r["detail"]), {})
    report = {
        "label": args.label,
        "mode": "A/A" if args.aa else "parent/change",
        "environment": {
            **{k: v for k, v in env.items() if k not in ("commit", "seed")},
            "platform": platform.platform(),
            "base": base_rev,
            "change": change,
            "pairs": args.pairs, "seconds": args.seconds, "seed0": args.seed0,
            "tiny": args.tiny,
        },
        "summary": summarize(runs, spec),
        "runs": [{k: r[k] for k in ("workload", "pair", "side", "position", "seed",
                                    "returncode", "wall_s", "digest", "result", "detail")}
                 for r in runs],
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["summary"].items():
        print(f"{workload}: {entry['pairs']} pairs, failed {entry['failed_runs']}, "
              f"digests equal {entry['digests_equal']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:20s} base {m['base']['median']:.4g} [{m['base']['q1']:.4g}, "
                  f"{m['base']['q3']:.4g}]  change {m['change']['median']:.4g} "
                  f"[{m['change']['q1']:.4g}, {m['change']['q3']:.4g}]  "
                  f"{m['change_vs_base'] or 0:+.1%}  wins {m['wins']}/{entry['pairs_compared']}"
                  f"  {m['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
