"""The marketflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: it imports marketflow from ``src/`` and
writes only under ``.perfbench_out/``. One process, no threads; fresh child
interpreters are started one at a time for set-up time and peak RSS; the
set-up probes are spread over the timed phase, between bodies.

Each run first replays the workload's golden inputs and checks the sha256
of what they wrote against the pins in ``workloads.GOLDEN``. It then repeats
bodies made from ``--seed`` for ``--seconds`` and replays the first body to
check that its outputs are byte-identical. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced bodies on
the same inputs and reports per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object; the exit code is 1 when any
output check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("sweep_collide", "sweep_rest", "long_outputs")
SETUP_PROBES = 15       # fresh interpreters timed for setup_s; p90 kept


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict[str, str]:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip().replace(" ", "_")
                        for line in fh if line.startswith("model name")), cpu)
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": str(len(os.sched_getaffinity(0))), "cpu": cpu, "commit": commit}


def run_probe(workload: str, seed: int, body: bool = False) -> dict:
    """One fresh interpreter; with ``body`` it also runs one body for peak RSS."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"),
           "--workload", workload, "--seed", str(seed)] + (["--body"] if body else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class SetupProbes:
    """SETUP_PROBES set-up probes spread evenly over the timed phase, each run
    between two bodies once it falls due, so that they sample the machine's
    speed over the whole run rather than one stretch of it. The time spent in
    them is kept out of the bodies' time budget."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed = workload, seed
        self.step = seconds / SETUP_PROBES
        self.results: list[dict] = []
        self.paused = 0.0

    def run_due(self, elapsed: float) -> None:
        while (len(self.results) < SETUP_PROBES
               and elapsed >= self.step * (len(self.results) + 0.5)):
            t0 = time.perf_counter()
            self.results.append(run_probe(self.workload, self.seed))
            self.paused += time.perf_counter() - t0

    def p90(self, key: str) -> float:
        return percentile([r[key] for r in self.results], 90)


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the sample itself if alone."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_bodies(workload, calls, probes, rng, seconds, out_dir):
    """Untraced bodies on fresh inputs until the time is up."""
    first_inputs = inputs = workload.inputs(rng)
    bodies = []
    start = time.perf_counter()
    while True:
        gc.collect()
        bodies.append(workload.run_body(calls, inputs, out_dir))
        elapsed = time.perf_counter() - start - probes.paused
        probes.run_due(elapsed)
        if elapsed >= seconds:
            return bodies, first_inputs
        inputs = workload.inputs(rng)


def traced_bodies(workload, calls, tracer, probes, rng, seconds, out_dir):
    """Pairs of untraced and traced bodies on the same inputs, in alternating
    order so that drift in machine speed hits both sides alike."""
    traced_calls = tracer.calls_for(calls)
    first_inputs = inputs = workload.inputs(rng)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        for traced_turn in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            gc.collect()
            if traced_turn:
                with tracer.patched():
                    traced.append(workload.run_body(traced_calls, inputs, out_dir))
                tracer.fold()
            else:
                plain.append(workload.run_body(calls, inputs, out_dir))
        elapsed = time.perf_counter() - start - probes.paused
        probes.run_due(elapsed)
        if elapsed >= seconds:
            return plain, traced, first_inputs
        inputs = workload.inputs(rng)


def traced_peak_kib(workload, calls, inputs, out_dir):
    gc.collect()
    tracemalloc.start()
    try:
        result = workload.run_body(calls, inputs, out_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "marketflow", "__init__.py")):
        print("perfbench: src/marketflow not found; run from the root of a "
              "marketflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import marketflow
    if not os.path.abspath(marketflow.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported marketflow from {marketflow.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, golden_problems, plain_calls

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    calls = plain_calls()
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    # golden inputs: pinned output bytes; this body also warms the process up
    golden = workload.run_body(calls, workload.golden_inputs(), out_dir)
    problems = golden.problems + golden_problems(args.workload, golden)
    print(f"golden outputs: {'match' if not problems else 'MISMATCH'} "
          + " ".join(f"{k}={v[:12]}" for k, v in sorted(golden.hashes.items())))

    rss_probe = run_probe(args.workload, args.seed, body=True)
    probes = SetupProbes(args.workload, args.seed, args.seconds)
    rng = random.Random(args.seed)
    if args.trace:
        from tracing import PER_LAYER_UNITS, Tracer, layer_metrics
        tracer = Tracer()
        bodies, traced, first_inputs = traced_bodies(
            workload, calls, tracer, probes, rng, args.seconds, out_dir)
        for plain_body, traced_body in zip(bodies, traced):
            if plain_body.hashes != traced_body.hashes:
                problems.append(f"{args.workload}: tracing changed the outputs")
                break
        again, peak_kib = traced_peak_kib(workload, calls, first_inputs, out_dir)
        values = layer_metrics(tracer, statistics.median(b.bytes_written for b in bodies))
        values["mem.traced_kb_per_tick"] = peak_kib / workload.ticks_per_run
        values["setup.import_numpy_s"] = probes.p90("import_numpy_s")
        values["setup.import_marketflow_s"] = probes.p90("import_marketflow_s")
        # plain over traced ticks_per_s, pair by pair: each pair ran the same
        # inputs back to back, so a change in machine speed mostly cancels
        values["trace.overhead_pct"] = (statistics.median(
            t.wall_s / p.wall_s for p, t in zip(bodies, traced)) - 1.0) * 100.0
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
        extra = {}
        tracer.write_spans(os.path.join(out_dir, "spans.csv"))
        all_bodies = bodies + traced
        print(f"traced: {len(traced)} bodies, {sum(tracer.calls.values())} spans; "
              f"spans of the last traced body in {os.path.relpath(out_dir, ROOT)}/spans.csv")
    else:
        bodies, first_inputs = timed_bodies(workload, calls, probes, rng, args.seconds,
                                            out_dir)
        again = workload.run_body(calls, first_inputs, out_dir)
        run_ms = [ms for b in bodies for ms in b.run_ms]
        p90 = percentile(run_ms, 90)
        beyond = sum(1 for ms in run_ms if ms > p90)
        # Upper percentiles, not medians: on a shared machine whose speed is
        # bimodal (halved for seconds to minutes at a time), a median flips
        # between the two speeds from run to run while the 90th percentile
        # stays with the slow one. See README.md.
        values = {
            "setup_s": (probes.p90("setup_s"), "s"),
            "wall_s": (percentile([b.wall_s for b in bodies], 90), "s"),
            "ticks_per_s": (percentile([b.ticks / b.wall_s for b in bodies], 10), "1/s"),
            "run_ms_p90": (p90, "ms"),
            "peak_rss_mb": (rss_probe["peak_rss_mb"], "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        extra = {"run_ms_p50": (percentile(run_ms, 50), "ms")}
        all_bodies = bodies
        tail = "" if beyond >= 10 else " (fewer than 10 beyond it: tail under-sampled)"
        print(f"samples: {len(bodies)} bodies, {len(run_ms)} runs, "
              f"{beyond} runs beyond p90{tail}, {len(probes.results)} set-up probes")

    if again.hashes != all_bodies[0].hashes:
        problems.append(f"{args.workload}: replaying the first body's inputs "
                        "wrote different bytes")
    for body in all_bodies:
        problems.extend(body.problems)
    attempted = sum(b.attempted for b in all_bodies)
    failed = sum(b.failed for b in all_bodies)
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}")
    extra["fail_ratio"] = (failed / attempted, f"ratio ({failed} of {attempted} runs failed)")
    for name, (value, unit) in extra.items():
        print(f"  {name:<26} {value:>14.6g} {unit}  [printed only]")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
