#!/usr/bin/env python3
"""ocusim benchmark runner.

    python3 perfbench/run.py --workload srp_fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ocusim is imported from ``src/``.
The runner pins BLAS to one thread, runs whole training rounds of the
workload for at most ``--seconds`` (at least one round), checks the
outputs, and prints a summary, a ``detail`` JSON line and, last, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, from a run that records
spans in every other block of steps and in all set-up and evaluation.
``--workload all`` runs every workload in its own process.  METRICS.md
defines every metric.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 7          # set-ups timed per run; setup_s is their median
PROBE_REPS = 5          # forward/backward repetitions per layer in the probe
TRACE_TOL_MS = 1e-6     # allowed mismatch of a step's reconciliation
TRACE_BLOCK = 10        # traced runs alternate this many untraced and traced steps


class BenchError(Exception):
    """A run that cannot produce a result."""


def pin_threads() -> dict:
    """Default every BLAS thread variable to 1 and refuse any other value.

    Must run before numpy is imported: the pools read them once at load.
    """
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    bad = {v: os.environ[v] for v in THREAD_VARS if os.environ[v] != "1"}
    if bad:
        raise BenchError(f"BLAS thread variables must be 1, got {bad}")
    return {v: os.environ[v] for v in THREAD_VARS}


def import_ocusim():
    src = ROOT / "src"
    if not (src / "ocusim" / "__init__.py").is_file():
        raise BenchError(f"no ocusim sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import ocusim
    if Path(ocusim.__file__).resolve().parent != src / "ocusim":
        raise BenchError(f"imported ocusim from {ocusim.__file__}, not from {src}")


def environment(seed: int, threads: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or "unknown"
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
    }


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def end_to_end(rounds, setups) -> dict:
    """The end-to-end metrics; timings are medians over rounds of per-round figures."""
    import numpy as np
    return {
        "setup_s": float(np.median(setups)),
        "step_ms_p50": float(np.median([np.percentile(r.steps_s, 50) for r in rounds])) * 1e3,
        "step_ms_p90": float(np.median([np.percentile(r.steps_s, 90) for r in rounds])) * 1e3,
        "train_samples_per_s": float(np.median([r.samples / r.steps_s.sum() for r in rounds])),
        "infer_mpix_per_s": float(np.median([r.infer_mpix_per_s for r in rounds])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer(workload, tracer, probe, model) -> tuple[dict, dict]:
    """Per-layer values of a traced run and the reconciliation summary."""
    import numpy as np
    from layers import dgemm_gflops, probe_layers
    from tracing import reconcile, span_stats

    windows, traced, untraced = [], [], []
    for m in probe.marks:
        for i in range(len(m) - 1):
            (traced if probe.plan.traced(i) else untraced).append(m[i + 1] - m[i])
            if probe.plan.traced(i):
                windows.append((m[i], m[i + 1]))
    steps = reconcile(tracer.spans, windows)
    values = {}
    for name, s in span_stats(tracer.spans).items():
        base, _, phase = name.rpartition(".")
        if phase in ("fwd", "bwd", "infer"):
            values[f"{base}.{phase}_ms"] = s["ms"] / s["calls"]
            values[f"{base}.{phase}_self_ms"] = s["self_ms"] / s["calls"]
            values[f"{base}.{phase}_calls"] = s["calls"]
        else:
            values[f"{name}.ms"] = s["ms"] / s["calls"]
            values[f"{name}.self_ms"] = s["self_ms"] / s["calls"]
            values[f"{name}.calls"] = s["calls"]
    values[f"{workload.loop}.step_self.ms"] = float(np.mean([s["unattributed_ms"] for s in steps]))
    values["trace.steps"] = len(steps)
    values["trace.overhead_ms"] = float(np.median(traced) - np.median(untraced)) * 1e3
    values["blas.dgemm_gflops"] = dgemm_gflops()
    inputs = workload.probe_inputs(model)
    if inputs is not None:
        for layer, v in probe_layers(*inputs, reps=PROBE_REPS).items():
            for key, value in v.items():
                values[f"nn.{layer}.{key}"] = value
            twin = layer.replace("ocl", "conv", 1)
            values[f"nn.{twin}.fwd_ms"] = v["twin_fwd_ms"]
            values[f"nn.{twin}.bwd_ms"] = v["twin_bwd_ms"]
    mean_self = {}
    for s in steps:
        for name, ms in s["self_ms"].items():
            mean_self[name] = mean_self.get(name, 0.0) + ms / len(steps)
    summary = {
        "steps": len(steps),
        "step_ms_mean": float(np.mean([s["step_ms"] for s in steps])),
        "self_ms_per_step": dict(sorted(mean_self.items(), key=lambda kv: -kv[1])),
        "unattributed_ms_per_step": values[f"{workload.loop}.step_self.ms"],
        "max_error_ms": max(s["error_ms"] for s in steps),
    }
    return values, summary


def run(args) -> int:
    threads = pin_threads()
    import_ocusim()
    import numpy as np
    from tracing import Interleave, StepProbe, Tracer
    from workloads import WORKLOADS, run_round, time_setup
    import_s = time.perf_counter() - _START

    spec = load_spec()
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    env = environment(args.seed, threads)
    probe = StepProbe()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        block = max(1, min(TRACE_BLOCK, workload.steps_per_round // 2))
        probe.plan = Interleave(tracer, workload.steps_per_round, block)
        tracer.install()
    probe.install()
    try:
        rounds, start, last = [], time.perf_counter(), 0.0
        # another round only if one more as long as the last still fits
        while not rounds or time.perf_counter() - start + last <= args.seconds:
            began = time.perf_counter()
            result, model = run_round(workload, probe, len(rounds))
            rounds.append(result)
            last = time.perf_counter() - began
        setups = [r.setup_s for r in rounds]
        while len(setups) < MIN_SETUPS:
            setups.append(time_setup(workload, probe))
        if tracer is not None:
            tracer.uninstall()
            layer_values, trace_summary = per_layer(workload, tracer, probe, model)
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.uninstall()

    first_digest, failed = {}, 0
    for r in rounds:
        r.checks["digest_repeats"] = first_digest.setdefault(r.key, r.digest) == r.digest
        failed += not all(r.checks.values())
    attempted = len(rounds)
    if tracer is not None:
        attempted += 1
        failed += not trace_summary["max_error_ms"] < TRACE_TOL_MS

    e2e = end_to_end(rounds, setups)
    steps = np.concatenate([r.steps_s for r in rounds])
    detail = {
        "workload": workload.name,
        "env": env,
        "digest": rounds[0].digest,
        "rounds": [{"key": r.key, "setup_s": r.setup_s, "steps": len(r.steps_s),
                    "step_ms_p50": float(np.percentile(r.steps_s, 50)) * 1e3,
                    "step_ms_p90": float(np.percentile(r.steps_s, 90)) * 1e3,
                    "digest": r.digest, "quality": r.quality, "checks": r.checks}
                   for r in rounds],
        "setups_s": setups,
        "import_s": import_s,
        "step_samples": len(steps),
        "end_to_end": e2e,
        **workload.shapes(model),
    }
    print(f"ocusim benchmark: {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(rounds)} round(s), {len(steps)} steps, {len(setups)} set-ups")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for i, r in enumerate(rounds):
        status = "ok" if all(r.checks.values()) else "FAILED " + ", ".join(
            k for k, ok in r.checks.items() if not ok)
        q = "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in r.quality.items())
        print(f"round {i}: {r.key}: {len(r.steps_s)} steps  digest {r.digest}  {q}  checks {status}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    quality = rounds[0].quality
    named = {"holdout_mse": "", "psnr_gain_db": "dB", "accuracy": ""}
    print(f"end-to-end ({'from the traced run' if tracer else 'trace off'}; "
          f"steps of {workload.sample_unit}, n={len(steps)}):")
    for name, value in e2e.items():
        print(f"  {name:22s} {value:14.6g} {units.get(name, '')}")
    for name, unit in named.items():
        shown = f"{quality[name]:14.6g} {unit}" if name in quality else f"{'n/a':>14s}"
        print(f"  {name:22s} {shown}")

    if tracer is None:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {n: {"value": e2e[n], "unit": units[n]} for n in names}
    else:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: {"value": layer_values.get(n, 0), "unit": units[n]} for n in names}
        detail["trace"] = trace_summary
        detail["per_layer_not_exercised"] = [n for n in names if n not in layer_values]
        print(f"trace: {trace_summary['steps']} traced steps, mean {trace_summary['step_ms_mean']:.4g} ms"
              f" = span self times + unattributed {trace_summary['unattributed_ms_per_step']:.4g} ms"
              f" (max reconciliation error {trace_summary['max_error_ms']:.2g} ms);"
              f" tracing overhead {layer_values['trace.overhead_ms']:+.4g} ms per step (p50)")
        for name, ms in trace_summary["self_ms_per_step"].items():
            print(f"  {name:40s} {ms:12.6g} ms/step")
        for name in names:
            if name in layer_values:
                print(f"  {name:40s} {layer_values[name]:14.6g} {units[name]}")
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    spec = load_spec()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1):
            raise BenchError(f"{w['name']} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w['name']}.{name}"] = m
        code = max(code, done.returncode)
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("srp_fit", "denoise_desk", "classify_blobs28", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: seconds-long rounds, not the benchmark")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        parser.error("--seed must be in [0, 2**32)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        return run_all(args) if args.workload == "all" else run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
