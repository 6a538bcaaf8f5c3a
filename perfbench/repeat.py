"""Repeat run.py over several seeds and summarize each end-to-end metric.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--out FILE]

For every workload and metric it prints the median over the seeds, the
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1) /
median next to the metric's bound, flagging spreads above a third of the
bound. Each workload then gets one traced run on the first seed for its
per-layer numbers. --out writes the summary and every run's result as
JSON, the form of perfbench/baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])
    machine = {**info["machine"], **info["run"]}
    machine["wall_s"] = time.monotonic() - start
    return machine, json.loads(lines[-1])


def summarize(results):
    out = {}
    for name, _, _, bound in spec.END_TO_END:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "bound": bound}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(n for n, _ in spec.WORKLOADS))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            machine, result = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, "machine": machine, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"samples={machine['detail']['samples']} "
                  f"wall={machine['wall_s']:.1f}s",
                  flush=True)
        summary = summarize([r["result"] for r in runs])
        machine, traced = run_once(workload, args.seeds[0], args.seconds, 1)
        report["workloads"][workload] = {
            "summary": summary, "runs": runs,
            "traced": {"seed": args.seeds[0], "machine": machine,
                       "result": traced}}
        for name, row in summary.items():
            flag = "" if row["spread"] <= row["bound"] / 3 else "  <-- wide"
            print(f"  {name:20s} median {row['median']:.6g}  spread "
                  f"{row['spread']:.4f} (bound {row['bound']}){flag}",
                  flush=True)
        overhead = traced["metrics"]["trace.overhead_share"]["value"]
        print(f"  traced seed {args.seeds[0]}: correct={traced['correct']} "
              f"overhead {overhead:+.3f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
