"""fdnet benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload fdnet-etth1 --seed 1 --seconds 21 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. Each process of a run is `workload.py`, one
after another, each under an address-space limit; this script starts them,
waits for each, checks their results against each other and against
BENCHMARK.json, and prints every metric with its unit. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

`--trace 0` reports the end-to-end metrics. It runs the workload in
PROCESSES processes that each train once and then fill their share of
--seconds with rounds; the first also runs the costly output checks. Each
time is a median or mean of the run's samples of one phase, multiplied by
a probe scale (probe.py), so that a run the machine spent in its slow state
reads like one in its fast state.

`--trace 1` reports the per-layer metrics. It runs one untraced round, one
traced round and an untraced train-only repeat. Their parameter digests must
agree, and traced minus untraced wall time is reported as `trace.overhead_s`.

`--smoke` runs the workloads at a tiny size in both modes and checks the
metric names, units and output checks against BENCHMARK.json.

The exit code is 0 only when every operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROCESSES = 3
# Audits are short, ~0.2 s each, and as dispatch-bound as the probe
# kernel: they take the kernel calls just before and after each of them,
# with exponent 1. The other phases last seconds each and are spread over the
# run, so all the kernel calls next to them estimate their machine state
# better; in log terms they slow about half as much as the kernel does
# (regression slopes 0.3-0.7 over ~50 recorded runs), hence exponent 0.5.
LOCAL_SCALE = ("audit",)
RUN_WIDE_EXPONENT = 0.5
# Each run must end within 180 s; its processes share what is left of this.
RUN_BUDGET_S = 175.0
SMOKE_SEED = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def preflight() -> str | None:
    """Why this checkout cannot run the benchmark, or None."""
    if not (ROOT / "src" / "fdnet" / "__init__.py").is_file():
        return f"fdnet sources not found under {ROOT / 'src'}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return "BENCHMARK.json not found at the repository root"
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > nproc:
            return f"{var}={value} asks for more BLAS threads than the {nproc} CPUs"
    return None


def run_process(workload: str, seed: int, deadline: float, tag: str, *extra: str) -> dict:
    """Run workload.py once and return its result; a crash or timeout is a failure."""
    out = BENCH_DIR / "out" / f"result-{workload}-seed{seed}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *extra]
    try:
        code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0)).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the process
        code = "timeout"
    if code != 0 or not out.is_file():
        print(f"perfbench: {workload} {tag} process ended with {code}", file=sys.stderr)
        return {"attempted": 1, "failed": 1, "checks": {f"{tag}_completed": False}}
    return json.loads(out.read_text())


def end_to_end_metrics(runs: list[dict], samples: dict[str, list[float]],
                       scales: dict[str, float]) -> dict:
    """Each phase's samples times its probe scale (probe.py)."""
    if (not all("peak_rss_mib" in r for r in runs)
            or not all(math.isfinite(scale) for scale in scales.values())
            or not all(r.get("samples", {}).get(phase) for r in runs for phase in samples)):
        return {}  # a process failed; the run reports no numbers
    scaled = {phase: [v * scales[phase] for v in values] for phase, values in samples.items()}
    return {
        "setup_s": (statistics.median(scaled["setup"]), "s"),
        "train_step_p50_s": (statistics.median(scaled["train"]), "s"),
        "train_windows_per_s": (sum(r["train_windows"] for r in runs) / sum(scaled["train"]),
                                "windows/s"),
        "eval_windows_per_s": (runs[0]["test_windows"] / statistics.fmean(scaled["eval"]),
                               "windows/s"),
        "peak_rss_mib": (max(r["peak_rss_mib"] for r in runs), "MiB"),
        "ks_audit_s": (statistics.fmean(scaled["audit"]), "s"),
        "gradcheck_s": (statistics.fmean(scaled["gradcheck"]), "s"),
    }


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (final JSON object, full details)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    size = ["--smoke"] if smoke else []
    samples: dict[str, list[float]] = {}
    scales: dict[str, float] = {}
    if trace:
        runs = [run_process(workload, seed, deadline, "untraced", "--rounds", "1",
                            "--checks", *size),
                run_process(workload, seed, deadline, "traced", "--rounds", "1", "--trace",
                            "1", "--checks", *size),
                run_process(workload, seed, deadline, "repeat", "--train-only", *size)]
        metrics = dict(runs[1].get("metrics", {}))
        if "timed_wall_s" in runs[0] and "timed_wall_s" in runs[1]:
            metrics["trace.overhead_s"] = (runs[1]["timed_wall_s"] - runs[0]["timed_wall_s"],
                                           "s")
        expected = spec["per_layer"]
        compared = runs[:2]
    else:
        part = str(seconds / PROCESSES)
        runs = [run_process(workload, seed, deadline, f"part{i}", "--seconds", part,
                            *(["--checks"] if i == 0 else []), *size)
                for i in range(PROCESSES)]
        # phase -> the unscaled samples of all processes, and its probe scale;
        # the probes between audits would weigh the run-wide mean to them
        every_call = [t for r in runs for phase, calls in r.get("probe_s", {}).items()
                      if phase not in LOCAL_SCALE for t in calls]
        for phase in runs[0].get("samples", {}):
            samples[phase] = [v for r in runs for v in r.get("samples", {}).get(phase, [])]
            if phase in LOCAL_SCALE:
                calls = [t for r in runs for t in r.get("probe_s", {}).get(phase, [])]
                scales[phase] = probe.scale(calls) if calls else math.nan
            else:
                scales[phase] = (probe.scale(every_call, RUN_WIDE_EXPONENT) if every_call
                                 else math.nan)
        metrics = end_to_end_metrics(runs, samples, scales)
        expected = spec["end_to_end"]
        compared = runs

    checks: dict[str, bool] = {}
    for r in runs:
        for name, ok in r.get("checks", {}).items():
            checks[name] = checks.get(name, True) and ok
    # a repeat of the same seed in another process gives the same bytes
    checks["same_outputs_across_processes"] = (
        len({json.dumps(r.get("outputs"), sort_keys=True) for r in compared}) == 1
        and len({(r.get("csv_sha256"), r.get("param_digest")) for r in runs}) == 1
        and runs[0].get("param_digest") is not None)
    attempted = sum(r.get("attempted", 0) for r in runs) + 1
    failed = sum(r.get("failed", 0) for r in runs) + (
        not checks["same_outputs_across_processes"])

    problems = [] if metrics else ["no metrics: a process failed"]
    for entry in expected if metrics else []:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"metric {entry['name']} missing")
        elif got[1] != entry["unit"]:
            problems.append(f"metric {entry['name']} has unit {got[1]}, "
                            f"BENCHMARK.json says {entry['unit']}")
    names = {entry["name"] for entry in expected}
    problems += [f"metric {name} is not in BENCHMARK.json" for name in metrics
                 if name not in names]
    final = {
        "correct": failed == 0 and not problems and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]][0], "unit": e["unit"]}
                    for e in expected if e["name"] in metrics},
    }
    details = {"runs": runs, "checks": checks, "problems": problems, "metrics": metrics,
               "samples": samples, "scales": scales}
    return final, details


def report(workload: str, final: dict, details: dict):
    """Human-readable lines: environment, every metric with its unit, checks."""
    first = details["runs"][0]
    env = first.get("env", {})
    if env:
        print(f"{workload} env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{workload} csv_sha256={first.get('csv_sha256')} "
          f"param_digest={first.get('param_digest')}")
    for name, (value, unit) in details["metrics"].items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    for phase, values in details["samples"].items():
        if values:
            print(f"{workload} {phase}: probe scale {details['scales'][phase]:.6g}, "
                  f"unscaled samples n={len(values)} min={min(values):.6g} "
                  f"median={statistics.median(values):.6g} mean={statistics.fmean(values):.6g} "
                  f"max={max(values):.6g}")
    print(f"{workload} ops_failed_ratio = {final['failed'] / final['attempted']:.6g} ratio "
          f"({final['failed']} of {final['attempted']} operations)")
    for name, ok in details["checks"].items():
        print(f"{workload} check {name}: {'pass' if ok else 'FAIL'}")
    for problem in details["problems"]:
        print(f"{workload} problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one fdnet benchmark workload and print its metrics.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workloads (or --workload) at a tiny size in both modes")
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    (BENCH_DIR / "out").mkdir(exist_ok=True)

    if args.smoke:
        ok = True
        for workload in [args.workload] if args.workload else workloads:
            for trace in (0, 1):
                final, details = measure(spec, workload, SMOKE_SEED, 0.0, trace, smoke=True)
                report(workload, final, details)
                print(f"smoke {workload} trace={trace}: "
                      f"{'pass' if final['correct'] else 'FAIL'}")
                ok = ok and final["correct"]
        return 0 if ok else 1

    if args.seed is None or args.seconds is None or not args.workload:
        parser.error("--workload, --seed and --seconds are required")
    final, details = measure(spec, args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, final, details)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
