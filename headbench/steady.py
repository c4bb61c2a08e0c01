#!/usr/bin/env python3
"""Steadiness report for the head-node benchmark.

    python3 headbench/steady.py [--workloads hot,churn] [--runs 10]
                                [--first-seed 1] [--seconds S] [--trace]

Run from the repository root. Runs every workload once per seed (seeds
first-seed .. first-seed+runs-1) through headbench/run.py with the
run length from BENCHMARK.json, then prints, per workload and metric,
the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median against the metric's bound, and the p99 sample
counts. The host (nproc) and the full server and load configuration of
each workload are printed with the numbers, so figures from different
hosts or settings are never compared. Exits non-zero if any run fails
or a correctness check fails, or (end-to-end runs) if a spread other
than setup_s exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    detail = None
    for line in lines:
        if line.startswith("# headbench "):
            detail = json.loads(line[len("# headbench "):])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stderr[-2000:])
    return done.returncode, detail, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true",
                        help="report the per-layer metrics instead")
    parser.add_argument("--save", help="append every run's detail and result "
                        "lines to this file (JSON lines)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in specs}

    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in specs}
        p99_samples = []
        config = None
        for run in range(args.runs):
            seed = args.first_seed + run
            code, detail, result = one_run(workload, seed, seconds, args.trace)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)%s" % (
                    workload, seed, code,
                    "" if detail is None else ": " + detail["check_failures"]))
                ok = False
                continue
            if args.save:
                with open(args.save, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "detail": detail,
                                          "result": result}) + "\n")
            config = {k: v for k, v in detail["config"].items() if k != "seed"}
            p99_samples.append(detail["counts"].get("p99_samples", 0))
            for name, metric in result["metrics"].items():
                if name in values:
                    values[name].append(metric["value"])
            print("%s seed %d: ok" % (workload, seed), flush=True)
        print("\n== %s  (nproc %s, %d runs)" % (
            workload, config and config["nproc"], len(p99_samples)))
        print("config: " + json.dumps(config, sort_keys=True))
        if p99_samples:
            print("p99 samples per run: min %d, median %d" % (
                min(p99_samples), statistics.median(p99_samples)))
        print("%-34s %14s %14s %14s %8s %6s %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for name, series in values.items():
            if len(series) < 2:
                print("%-34s %s" % (name, "too few runs"))
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif name == "setup_s":
                verdict = "(not gated)"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print("%-34s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
                name, q1, med, q3, spread,
                "" if bound is None else "%.2f" % bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
