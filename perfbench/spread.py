"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0|1]

Runs the command in BENCHMARK.json at its run_seconds once per seed and
workload, for every workload in BENCHMARK.json, cycling through the
workloads so that drift in machine speed is shared by all of them, one run
at a time. For each workload and metric it prints the median
and the quartile spread, (Q3 - Q1) / median from
``statistics.quantiles(values, n=4)``, next to the metric's bound. All
results go to ``.perfbench_out/spread.json``. Exits 1 if a run fails or
reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    env: dict = {}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = done.stdout.strip().splitlines() or ["{}"]
            for line in lines:
                if line.startswith("env ") and not env:
                    env = dict(item.split("=", 1) for item in line.split()[1:])
            last = lines[-1]
            report = json.loads(last) if last.startswith("{") else {}
            if done.returncode != 0 or not report.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
            if report:
                report["seed"] = seed
                results[workload].append(report)
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in report["metrics"].items()),
                    flush=True)

    summary: dict[str, dict] = {}
    print(f"\n{'workload':<14} {'metric':<26} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, reports in results.items():
        if len(reports) < 2:
            continue
        summary[workload] = {}
        for name, first in reports[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in reports]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"unit": first["unit"], "median": median,
                                       "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  over bound/3"
            print(f"{workload:<14} {name:<26} {median:>12.6g} {spread:>8.4f} "
                  f"{'-' if bound is None else bound:>6}{flag}")

    env.update(run_seconds=bench["run_seconds"], trace=args.trace,
               seeds=[args.first_seed, args.first_seed + args.runs - 1])
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "spread.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "summary": summary, "runs": results}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
