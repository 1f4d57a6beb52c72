#!/usr/bin/env python3
"""Compare the benchmark on two checkouts, run in alternating pairs.

    python3 perfbench/compare.py run --base ../parent --head . \\
        --pairs 10 --out pairs.json
    python3 perfbench/compare.py diff pairs.json

`run` makes --pairs pairs of runs per workload. Pair i uses seed
--seed0 + i on both sides and alternates which checkout runs first, so
slow drift of the host does not favour one side. Each side runs its
own perfbench/run.py; copy the same perfbench/ into both checkouts so
the benchmark code is identical.

`diff` reports, per workload and end-to-end metric, each side's median
and quartiles, the share of pairs the head wins (ties count for
neither side), and a verdict against the metric's bound:

  regression   head median worse than base by more than the bound
  unresolved   either side's spread (IQR / median) exceeds the bound,
               unless every head run beats (or loses to) every base run
  gain         head wins >= 9/10 of pairs and the medians differ by more
               than the base's own interquartile distance
  no change    anything else

It reports separately whether simulated behaviour changed: the
sim_digest or a per-layer count differs between the two sides for the
same seed. Exit status is 1 if any pairing regressed or any run failed
its correctness checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402
import stats  # noqa: E402

GAIN_WIN_FRACTION = 0.9


def run_side(checkout, workload, seed, seconds):
    """One untraced run in one checkout; returns its full report."""
    checkout = Path(checkout).resolve()
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}")
    with open(bench.report_file(checkout, workload, seed, 0)) as f:
        return json.load(f)


def cmd_run(args):
    workloads = args.workloads.split(",")
    runs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = [("base", args.base), ("head", args.head)]
        if i % 2 == 1:
            order.reverse()
        for workload in workloads:
            for position, (side, checkout) in enumerate(order):
                report = run_side(checkout, workload, seed, args.seconds)
                runs.append({
                    "workload": workload,
                    "seed": seed,
                    "side": side,
                    "first": position == 0,
                    "correct": not report["failed"],
                    "metrics": {k: v["value"]
                                for k, v in report["metrics"].items()},
                    "fingerprint": report["fingerprint"],
                    "env": report["env"],
                })
                print(f"pair {i} {workload} {side} seed {seed} done",
                      file=sys.stderr, flush=True)
    with open(args.out, "w") as f:
        json.dump({"base": str(args.base), "head": str(args.head),
                   "runs": runs}, f, indent=1)
    return 0


def verdict(base, head, better, bound):
    """Verdict for one workload x metric; base/head paired by seed."""
    b_q1, b_med, b_q3 = stats.quartiles(base)
    _, h_med, _ = stats.quartiles(head)
    if better == "lower":
        worse_by = (h_med - b_med) / b_med
        all_better = max(head) < min(base)
        all_worse = min(head) > max(base)
    else:
        worse_by = (b_med - h_med) / b_med
        all_better = min(head) > max(base)
        all_worse = max(head) < min(base)
    wins = stats.win_fraction(base, head, better)
    noisy = max(stats.spread(base), stats.spread(head)) > bound
    if noisy and not (all_better or all_worse):
        return "unresolved", wins, worse_by
    if worse_by > bound:
        return "regression", wins, worse_by
    if (worse_by < 0 and wins >= GAIN_WIN_FRACTION
            and abs(h_med - b_med) > b_q3 - b_q1):
        return "gain", wins, worse_by
    return "no change", wins, worse_by


def paired(runs, workload):
    """{seed: {"base": run, "head": run}} for seeds both sides ran."""
    by_seed = {}
    for r in runs:
        if r["workload"] == workload:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
    return {s: p for s, p in sorted(by_seed.items()) if len(p) == 2}


def cmd_diff(args):
    with open(args.file) as f:
        data = json.load(f)
    runs = data["runs"]
    status = 0
    bad = [r for r in runs if not r["correct"]]
    for r in bad:
        print(f"INCORRECT: {r['side']} {r['workload']} seed {r['seed']}")
        status = 1
    print(f"base {data['base']}  head {data['head']}")
    workloads = sorted({r["workload"] for r in runs})
    for workload in workloads:
        pairs = paired(runs, workload)
        if not pairs:
            continue
        print(f"\n{workload}: {len(pairs)} pairs, seeds "
              f"{min(pairs)}..{max(pairs)}")
        print(f"  {'metric':<14} {'base median [q1, q3]':>30} "
              f"{'head median [q1, q3]':>30} {'worse by':>9} "
              f"{'wins':>5} {'bound':>5}  verdict")
        for m in bench.manifest()["end_to_end"]:
            name, unit, better, bound = (m["name"], m["unit"], m["better"],
                                         m["bound"])
            base = [p["base"]["metrics"][name] for p in pairs.values()]
            head = [p["head"]["metrics"][name] for p in pairs.values()]
            v, wins, worse_by = verdict(base, head, better, bound)
            if v == "regression":
                status = 1
            b, h = stats.summary(base), stats.summary(head)
            print(f"  {name:<14} "
                  f"{b['median']:>12.5g} [{b['q1']:.4g}, {b['q3']:.4g}] "
                  f"{h['median']:>12.5g} [{h['q1']:.4g}, {h['q3']:.4g}] "
                  f"{100 * worse_by:>8.1f}% {wins:>5.2f} {bound:>5.2f}  "
                  f"{v} ({unit})")
        changed = []
        for seed, p in pairs.items():
            fb, fh = p["base"]["fingerprint"], p["head"]["fingerprint"]
            if fb["sim_digest"] != fh["sim_digest"]:
                changed.append(f"seed {seed}: sim_digest")
            for key in sorted(set(fb["counters"]) | set(fh["counters"])):
                if fb["counters"].get(key) != fh["counters"].get(key):
                    changed.append(f"seed {seed}: {key} "
                                   f"{fb['counters'].get(key)} -> "
                                   f"{fh['counters'].get(key)}")
        if changed:
            print(f"  simulated behaviour changed ({len(changed)} "
                  f"differences):")
            for line in changed[:20]:
                print(f"    {line}")
        else:
            print("  simulated behaviour unchanged (sim_digest and counts "
                  "identical for every seed)")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Compare the benchmark on two checkouts.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs")
    r.add_argument("--base", required=True, help="parent checkout")
    r.add_argument("--head", required=True, help="changed checkout")
    r.add_argument("--workloads", default=",".join(bench.STEPS_PER_SECOND))
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=bench.HELD_OUT_SEED)
    r.add_argument("--seconds", type=int,
                   default=bench.manifest()["run_seconds"])
    r.add_argument("--out", required=True)
    d = sub.add_parser("diff", help="report a run file against the bounds")
    d.add_argument("file")
    args = ap.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
