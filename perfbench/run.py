#!/usr/bin/env python3
"""The repo benchmark: two fleet workloads through FarMemorySystem.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot_fleet --seed 1 --seconds 30 --trace 0

The first run builds perfbench/driver.cc and the repo's src/ libraries
into .bench_build/perfbench (perfbench/CMakeLists.txt). The driver
runs the workload and prints raw timings, counter deltas and
correctness checks; this script turns them into the metrics listed in
BENCHMARK.json, prints a report with an env block, writes the full
report as JSON under .bench_build/perfbench/reports/, and prints one
JSON result object as the last line of stdout.

--trace 0 reports the end-to-end metrics. --trace 1 is the traced
run: it records spans around every public call, attaches counter
deltas to each step's span, writes the spans as JSON lines and reports
the per-layer metrics, including the tracing overhead.

Metric names, units and bounds come from BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 1
# Never used while the benchmark was tuned; use it to confirm a claim.
HELD_OUT_SEED = 7919
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Nominal fleet steps per host second of each workload. It sets the
# window length: the window is a fixed number of steps for a given
# --seconds, so the simulated fingerprint (sim_digest, counts) repeats
# exactly for a seed while the host time is what gets measured.
# MIN_WINDOW_STEPS leaves ten steps beyond the 95th percentile.
MIN_WINDOW_STEPS = 200
STEPS_PER_SECOND = {"hot_fleet": 12, "tiered_pool": 10}


def manifest():
    """BENCHMARK.json: metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally. Returns the driver path."""
    if not (ROOT / "src" / "core" / "far_memory_system.h").is_file():
        raise RuntimeError(f"no sdfm sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD_DIR / "perfbench_driver"


def report_file(root, workload, seed, trace):
    """Where a run in checkout `root` writes its full JSON report."""
    return (root / ".bench_build" / "perfbench" / "reports" /
            f"{workload}-seed{seed}-trace{trace}.json")


def window_steps(workload, seconds):
    return max(MIN_WINDOW_STEPS, round(seconds * STEPS_PER_SECOND[workload]))


def run_driver(driver, workload, seed, seconds, spans_path):
    ckpt = BUILD_DIR / "ckpt" / f"{workload}-seed{seed}.ckpt"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--window-steps", str(window_steps(workload, seconds)),
           "--ckpt", str(ckpt)]
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end_metrics(raw):
    step_ms = raw["step_ms"]
    window_s = sum(step_ms) / 1e3
    return {
        "setup_s": stats.quartiles(raw["setup_s"])[1],
        "warmup_s": stats.quartiles(raw["warmup_s"])[1],
        "steps_per_s": len(step_ms) / window_s,
        "step_ms_p50": stats.percentile(step_ms, 50),
        "step_ms_p95": stats.percentile(step_ms, 95),
        "ckpt_s": stats.quartiles(raw["ckpt_s"])[1],
        "restore_s": stats.quartiles(raw["restore_s"])[1],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer_metrics(raw, spans):
    c = raw["counters"]
    g = raw["gauges"]
    window_ms = sum(raw["step_ms"]) + sum(raw["traced_step_ms"])
    stored = c["zswap.stores"]
    walked = c["kreclaimd.pages_walked"]
    ckpt_s = stats.quartiles(raw["ckpt_s"])[1]

    by_name = stats.self_time_by_name(spans)
    window_ids = {s["id"] for s in spans if s["name"] == "bench.window"}
    step_selfs = stats.self_times(spans)
    window_steps_self = [step_selfs[s["id"]] for s in spans
                         if s["name"] == "core.step"
                         and s["parent"] in window_ids]

    def mean_ms(values):
        return 1e3 * sum(values) / len(values) if values else 0.0

    # Traced blocks pay one fleet_telemetry() read per step on top of
    # the step itself; plain blocks interleaved with them are the base.
    plain = sum(raw["step_ms"]) / len(raw["step_ms"])
    traced = ((sum(raw["traced_step_ms"]) + sum(raw["telemetry_ms"]))
              / max(1, len(raw["traced_step_ms"])))
    return {
        "workload.accesses": c["machine.accesses"],
        "workload.promotions": c["machine.promotions"],
        "workload.host_ns_per_access":
            ratio(window_ms * 1e6, c["machine.accesses"]),
        "kstaled.pages_scanned": c["kstaled.pages_scanned"],
        "kstaled.scan_cycles": c["kstaled.scan_cycles"],
        "kreclaimd.pages_walked": walked,
        "kreclaimd.pages_stored": c["kreclaimd.pages_stored"],
        "kreclaimd.store_ratio": ratio(c["kreclaimd.pages_stored"], walked),
        "zswap.stores": stored,
        "zswap.promotions": c["zswap.promotions"],
        "zswap.rejects": c["zswap.rejects"],
        "zswap.reject_ratio": ratio(c["zswap.rejects"],
                                    stored + c["zswap.rejects"]),
        "zsmalloc.frag_ratio": ratio(g["zswap.arena_bytes"],
                                     g["zswap.payload_bytes"]),
        "compression.ratio": ratio(g["zswap.live_objects"] * 4096,
                                   g["zswap.payload_bytes"]),
        "tier.nvm.demotions": c["tier.nvm.demotions"],
        "tier.nvm.stored_pages": g["tier.nvm.stored_pages"],
        "tier.remote.demotions": c["tier.remote.demotions"],
        "tier.remote.stored_pages": g["tier.remote.stored_pages"],
        "agent.control_rounds": c["agent.control_rounds"],
        "controller.updates": c["controller.updates"],
        "agent.slo_violations": c["agent.slo_violations"],
        "pool.leases_granted": c["pool.leases_granted"],
        "pool.revocations": c["pool.revocations"],
        "rollout.pushes_delivered": c["rollout.pushes_delivered"],
        "rollout.deployments": c["rollout.deployments"],
        "ckpt.bytes": raw["ckpt_bytes"],
        "ckpt.mb_per_s": ratio(raw["ckpt_bytes"] / 1e6, ckpt_s),
        "span.core.step": mean_ms(window_steps_self),
        "span.core.state_digest": mean_ms(by_name.get("core.state_digest",
                                                      [])),
        "span.telemetry.fleet_telemetry":
            mean_ms(by_name.get("telemetry.fleet_telemetry", [])),
        "trace.overhead_pct": 100.0 * (ratio(traced, plain) - 1.0),
    }


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def checks(raw, spans, trace):
    """Driver checks plus the ones this script makes on its output."""
    attempted = raw["checks_attempted"]
    failed = list(raw["checks_failed"])

    def expect(ok, name):
        nonlocal attempted
        attempted += 1
        if not ok:
            failed.append(name)

    steps = len(raw["step_ms"]) + len(raw["traced_step_ms"])
    expect(steps == raw["window_steps"], "window_complete")
    if not trace:
        tail = stats.max_tail_percentile(len(raw["step_ms"]))
        expect(tail is not None and tail >= 95, "p95_tail_samples")
    else:
        traced = [s for s in spans if s["name"] == "core.step" and s["counts"]]
        expect(len(traced) == len(raw["traced_step_ms"]) > 0,
               "span_step_counts")
        # Each traced step's deltas must cover that one step: within a
        # factor of two of the window's mean accesses per step. Deltas
        # that also took in the steps before it would be many times it.
        mean = raw["counters"]["machine.accesses"] / raw["window_steps"]
        expect(all(0.5 * mean <= s["counts"]["machine.accesses"] <= 2 * mean
                   for s in traced), "span_counts_one_step")
    return attempted, failed


def print_report(report, metrics, units):
    env = report["env"]
    print(f"perfbench {report['workload']}  seed {env['seed']}  "
          f"trace {report['trace']}")
    for key in ("commit", "compiler", "build_type", "nproc", "threads",
                "cpu", "python"):
        print(f"  env.{key:<11} {env[key]}")
    raw = report["raw"]
    samples = len(raw["step_ms"])
    print(f"  fleet: {raw['machines']} machines, {raw['jobs']} jobs, "
          f"{raw['warmup_steps']} warmup + {raw['window_steps']} window "
          f"steps, {samples} untraced step samples (highest tail "
          f"percentile with {stats.MIN_TAIL_SAMPLES} beyond: "
          f"p{stats.max_tail_percentile(samples) or 0:.2f})")
    print(f"  sim_digest {raw['sim_digest']}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    for name, s in report["summaries"].items():
        print(f"  raw {name:<20} n={s['n']:<5} median={s['median']:.6g} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g}")
    print(f"  checks: {report['attempted']} attempted, "
          f"{len(report['failed'])} failed {report['failed']}  "
          f"check_fail_frac={report['check_fail_frac']:.6g}")
    print(f"  report: {report['report_path']}")


def run(args):
    driver = build()
    spans_path = None
    if args.trace:
        spans_path = (BUILD_DIR / "spans" /
                      f"{args.workload}-seed{args.seed}.jsonl")
    raw = run_driver(driver, args.workload, args.seed, args.seconds,
                     spans_path)
    spans = []
    if spans_path is not None:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]

    if args.trace:
        metrics = per_layer_metrics(raw, spans)
    else:
        metrics = end_to_end_metrics(raw)
    section = manifest()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(metrics) != set(units):
        raise ValueError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    attempted, failed = checks(raw, spans, args.trace)

    report_path = report_file(ROOT, args.workload, args.seed, args.trace)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": {
            "commit": git_commit(),
            "compiler": raw["compiler"],
            "build_type": raw["build_type"],
            "nproc": os.cpu_count(),
            "threads": raw["threads"],
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "seed": args.seed,
            "seconds": args.seconds,
        },
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
        "summaries": {k: stats.summary(raw[k]) for k in
                      ("setup_s", "warmup_s", "step_ms", "ckpt_s",
                       "restore_s")},
        "fingerprint": {"sim_digest": raw["sim_digest"],
                        "counters": raw["counters"]},
        "attempted": attempted,
        "failed": failed,
        "check_fail_frac": len(failed) / attempted,
        "spans_path": str(spans_path) if spans_path else None,
        "report_path": str(report_path),
        "raw": raw,
    }
    report_path.parent.mkdir(parents=True, exist_ok=True)
    with open(report_path, "w") as f:
        json.dump(report, f, indent=1)

    print_report(report, metrics, units)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": report["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(STEPS_PER_SECOND))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int,
                    help="window length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is not None and args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if args.seconds is None:
            args.seconds = manifest()["run_seconds"]
        return run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
