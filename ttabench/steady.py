#!/usr/bin/env python3
"""Steadiness check for the time-to-answer benchmark.

Runs each workload repeatedly on consecutive seeds and prints, per
end-to-end metric, the median, the quartiles and whether the quartile
spread (as a share of the median) fits the metric's bound in
BENCHMARK.json, and below a third of it.  It then reruns paper_sweep and
large_n on a second block of seeds (--seed-base + 1000 on) and reports how
far their median answer_s moved, and runs every workload once traced to
report the tracing overhead.

    python3 ttabench/steady.py --runs 10 --seed-base 1

Run from the repository root; every run goes through ttabench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# paper_sweep and large_n are rerun on seeds from --seed-base + this.
SECOND_SEED_OFFSET = 1000


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed "
                 f"(exit {out.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(l for l in lines if l.startswith("CHECK FAILED")))
        sys.exit(f"steady.py: {workload} seed {seed} answered incorrectly")
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / ".bench_build" /
                                             "steady.json"))
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)  # progress survives a cut

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    second_seed_base = args.seed_base + SECOND_SEED_OFFSET

    report = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for workload in workloads:
        results = [run_once(workload, args.seed_base + i, seconds, False)
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        entry = {"failed_share": sorted(shares), "metrics": {}}
        print(f"{workload}: {args.runs} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.runs - 1}, "
              f"failed share {sorted(shares)}")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["bound"] = bound
            s["fits"] = s["spread"] <= bound
            s["fits_third"] = s["spread"] <= bound / 3
            if not s["fits_third"]:
                steady = False
            entry["metrics"][name] = s
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {100 * s['spread']:.2f}%  "
                  f"bound {100 * bound:.0f}%  "
                  f"{'fits' if s['fits'] else 'EXCEEDS'}"
                  f"{'' if s['fits_third'] else ' (above a third)'}")
        if len(shares) != 1:
            steady = False
            print("  failed share differs between runs")
        if workload in ("paper_sweep", "large_n"):
            second = [run_once(workload, second_seed_base + i, seconds,
                               False)["metrics"]["answer_s"]["value"]
                      for i in range(args.runs)]
            s = summarize(second)
            first = entry["metrics"]["answer_s"]["median"]
            s["shift"] = (s["median"] - first) / first
            entry["second_seed_answer_s"] = s
            print(f"  second seeds {second_seed_base}..: answer_s median "
                  f"{s['median']:.6g} ({100 * s['shift']:+.2f}% vs first "
                  f"block, bound {100 * bounds['answer_s']:.0f}%)")
        traced = run_once(workload, args.seed_base, seconds, True)
        t = traced["metrics"]["trace.answer_s"]["value"]
        untraced = entry["metrics"]["answer_s"]["median"]
        entry["traced_answer_s"] = t
        entry["trace_overhead"] = t / untraced - 1
        print(f"  traced answer_s {t:.6g} s: overhead "
              f"{100 * entry['trace_overhead']:+.1f}% against the "
              f"untraced median")
        report["workloads"][workload] = entry

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1))
    print(f"summary: {args.out}; every spread below a third of its "
          f"bound: {'yes' if steady else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
