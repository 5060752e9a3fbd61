"""The benchmark's workloads: inputs made from a seed, one timed body each,
and the checks on what the body wrote.

A body is the unit of work a user waits for: a 5-run sweep plus its
``batch.csv``, or one long ``simulate --svg`` call. It calls marketflow only
through public functions, passed in as a ``Calls`` so the traced run can
hand in wrapped versions of the same functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from marketflow import SimConfig
from marketflow import cli
from marketflow import io as mf_io
from marketflow import sweep

SWEEP_RUNS = 5          # runs per timed sweep body; short bodies time steadier
GOLDEN_RUNS = 20        # the 20 seeds x 450 ticks reference experiment
SWEEP_STEPS = 450
LONG_STEPS = 20_000     # far below the ~92k-tick price floor at P = 0.5
LONG_WINDOW = 200
LONG_P = 0.5

# sha256 of the outputs of each workload's golden inputs (seeds 0-19 for a
# sweep, seed 0 for the long run), pinned at the commit that added the
# benchmark. A speed-up only counts if these bytes are unchanged.
GOLDEN = {
    "sweep_collide": {
        "batch.csv": "64d26d38d6eac6baf7c46f457c7e5d37ba0ea7f1f5091aeb3a5f644a2e7bdac0",
    },
    "sweep_rest": {
        "batch.csv": "116cfda6cffd99f1242dd30c1ddd950e1f99638ad0d76001cc4ef72d135a833a",
    },
    "long_outputs": {
        "series.csv": "f409d782b945367f86422ed45c2ff4d665797081526c38e8a0d04636b4b9808a",
        "series.svg": "75faa4bc051a816f944967870d486d6c71fbc6a78e0f2f4771e10c81b1948592",
    },
}


@dataclass
class Calls:
    """The public entry points a body uses."""

    batch_runs: Callable
    write_batch_csv: Callable
    main: Callable


def plain_calls() -> Calls:
    return Calls(sweep.batch_runs, mf_io.write_batch_csv, cli.main)


@dataclass
class BodyResult:
    wall_s: float
    ticks: int
    run_ms: list[float]
    attempted: int
    failed: int
    hashes: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


def _read_outputs(out_dir: str, names: tuple[str, ...]) -> dict[str, bytes]:
    data = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data[name] = fh.read()
    return data


def _remove_outputs(out_dir: str, names: tuple[str, ...]) -> None:
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))


def _finish(result: BodyResult, data: dict[str, bytes]) -> BodyResult:
    result.hashes = {name: hashlib.sha256(blob).hexdigest()
                     for name, blob in data.items()}
    result.bytes_written = sum(len(blob) for blob in data.values())
    return result


@dataclass(frozen=True)
class Sweep:
    """``sweep.batch_runs`` once per seed, then ``io.write_batch_csv``."""

    name: str
    collision_probability: float
    spread: int
    outputs: tuple[str, ...] = ("batch.csv",)
    ticks_per_run: int = SWEEP_STEPS

    def golden_inputs(self) -> list[int]:
        return list(range(GOLDEN_RUNS))

    def inputs(self, rng: random.Random) -> list[int]:
        return [rng.randrange(2**32) for _ in range(SWEEP_RUNS)]

    def run_body(self, calls: Calls, seeds: list[int], out_dir: str) -> BodyResult:
        base = SimConfig(collision_probability=self.collision_probability,
                         initial_spread=self.spread, steps=SWEEP_STEPS)
        _remove_outputs(out_dir, self.outputs)
        rows, run_ms, raised = [], [], 0
        start = time.perf_counter()
        for seed in seeds:
            t0 = time.perf_counter()
            try:
                rows.extend(calls.batch_runs(base, [{}], [seed]))
            except Exception:  # a run that raises counts as failed
                raised += 1
            run_ms.append((time.perf_counter() - t0) * 1e3)
        calls.write_batch_csv(rows, os.path.join(out_dir, "batch.csv"))
        wall = time.perf_counter() - start

        errors = sum(1 for row in rows if row.error is not None)
        failed = raised + errors
        result = BodyResult(wall_s=wall, ticks=SWEEP_STEPS * (len(seeds) - failed),
                            run_ms=run_ms, attempted=len(seeds), failed=failed)
        if not raised and [row.seed for row in rows] != seeds:
            result.problems.append(f"{self.name}: batch rows do not follow the seeds")
        data = _read_outputs(out_dir, self.outputs)
        lines = data.get("batch.csv", b"").count(b"\n")
        if lines != 4 + len(rows):
            result.problems.append(f"{self.name}: batch.csv has {lines} lines, "
                                   f"want {4 + len(rows)}")
        return _finish(result, data)


@dataclass(frozen=True)
class Long:
    """One ``cli.main(["simulate", ..., "--svg"])`` call."""

    name: str
    outputs: tuple[str, ...] = ("series.csv", "series.svg")
    ticks_per_run: int = LONG_STEPS

    def golden_inputs(self) -> int:
        return 0

    def inputs(self, rng: random.Random) -> int:
        return rng.randrange(2**32)

    def run_body(self, calls: Calls, seed: int, out_dir: str) -> BodyResult:
        argv = ["simulate", "--collision-probability", repr(LONG_P),
                "--window", str(LONG_WINDOW), "--steps", str(LONG_STEPS),
                "--seed", str(seed), "--out", out_dir, "--svg"]
        _remove_outputs(out_dir, self.outputs)
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = calls.main(argv)
        except Exception:  # a run that raises counts as failed
            code = None
        wall = time.perf_counter() - start

        failed = int(code != 0)
        result = BodyResult(wall_s=wall, ticks=LONG_STEPS * (1 - failed),
                            run_ms=[wall * 1e3], attempted=1, failed=failed)
        data = _read_outputs(out_dir, self.outputs)
        if not failed:
            csv_path = os.path.join(out_dir, "series.csv")
            echoed = mf_io.parse_series_header(csv_path)
            if (echoed.seed, echoed.steps) != (seed, LONG_STEPS):
                result.problems.append(f"{self.name}: series.csv header does not "
                                       f"echo seed {seed}")
            rows = sum(1 for line in data["series.csv"].splitlines()
                       if line and not line.startswith(b"#")) - 1  # minus columns
            if rows != LONG_STEPS:
                result.problems.append(f"{self.name}: series.csv has {rows} rows, "
                                       f"want {LONG_STEPS}")
            if not data["series.svg"].rstrip().endswith(b"</svg>"):
                result.problems.append(f"{self.name}: series.svg is truncated")
        return _finish(result, data)


WORKLOADS = {
    "sweep_collide": Sweep("sweep_collide", collision_probability=0.99, spread=1),
    "sweep_rest": Sweep("sweep_rest", collision_probability=0.15, spread=20),
    "long_outputs": Long("long_outputs"),
}


def golden_problems(name: str, result: BodyResult) -> list[str]:
    """Mismatches between a golden-input body's outputs and the pins."""
    problems = []
    for fname, want in GOLDEN[name].items():
        got = result.hashes.get(fname, "missing")
        if got != want:
            problems.append(f"{name}: {fname} sha256 {got}, pinned {want}")
    return problems
