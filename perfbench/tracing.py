"""Spans around marketflow's public calls, recorded from outside the package.

``Tracer.patched()`` replaces each traced name where the package looks it
up at call time (a module global or a class attribute) with a wrapper that
records ``(name, parent, start_ns, end_ns)``, and restores the originals on
exit. Spans stay in memory; ``fold()`` turns one body's spans into per-name
totals of calls, duration and self time (duration minus the spans it
caused), and keeps that body's raw spans for ``write_spans``.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from marketflow import agents, book, cli, engine, svg, sweep

from workloads import Calls

# (owner, attribute, span name): the places the package itself looks up
# the functions it calls, so wrapping them catches every internal call.
PATCH_POINTS = (
    (engine, "step", "engine.step"),
    (engine, "apply_order", "book.apply_order"),
    (engine, "reconcile", "book.reconcile"),
    (engine, "smooth_viscosity", "engine.smooth"),
    (engine, "smooth_series", "engine.smooth"),
    (agents.AgentSampler, "sample", "agents.sample"),
    (book.OrderBook, "check", "book.check"),
    (sweep, "run", "engine.run"),
    (cli, "run", "engine.run"),
    (cli, "write_series_csv", "io.write_series_csv"),
    (svg, "series_figure", "svg.series_figure"),
    (svg, "write_svg", "svg.write_svg"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self.journals: list[tuple[list, int]] = []   # (journal, ticks) per run
        self.calls: Counter = Counter()
        self.duration_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.tags: Counter = Counter()
        self.run_ticks = 0
        self.last_spans: list[tuple[str, int, int, int]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep_journal = name == "engine.run"
        journals = self.journals

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if keep_journal:
                journals.append((result.final_book.journal, len(result.ticks)))
            return result

        return traced

    def calls_for(self, plain: Calls) -> Calls:
        """The body's entry points, each wrapped in its own span."""
        return Calls(batch_runs=self.wrap("sweep.batch_runs", plain.batch_runs),
                     write_batch_csv=self.wrap("io.write_batch_csv",
                                               plain.write_batch_csv),
                     main=self.wrap("cli.main", plain.main))

    @contextlib.contextmanager
    def patched(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCH_POINTS]
        try:
            for (owner, attr, name), (_, _, fn) in zip(PATCH_POINTS, originals):
                setattr(owner, attr, self.wrap(name, fn))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def fold(self) -> None:
        """Add the spans and journals recorded so far to the totals."""
        spans = self.spans
        children = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                children[parent] += end - start
        for sid, (name, parent, start, end) in enumerate(spans):
            self.calls[name] += 1
            self.duration_ns[name] += end - start
            self.self_ns[name] += end - start - children[sid]
        for journal, ticks in self.journals:
            self.tags.update(entry[0] for entry in journal)
            self.run_ticks += ticks
        self.last_spans = list(spans)
        spans.clear()
        self.journals.clear()

    def mean(self, name: str, scale: float, *, self_time: bool = False,
             per: str | None = None) -> float:
        """Mean span time in units of ``scale`` ns, per call of ``name`` or
        per call of ``per``; 0 where the layer was never called."""
        total = (self.self_ns if self_time else self.duration_ns)[name]
        count = self.calls[per or name]
        return total / count / scale if count else 0.0

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, (name, parent, start, end) in enumerate(self.last_spans):
                fh.write(f"{sid},{parent},{name},{start},{end}\n")


def layer_metrics(tracer: Tracer, bytes_per_body: float) -> dict[str, float]:
    """Per-layer figures from the folded spans and journals."""
    ticks = tracer.run_ticks
    tags = tracer.tags
    us, ms = 1e3, 1e6
    return {
        "agents.sample_us": tracer.mean("agents.sample", us),
        "book.apply_order_us": tracer.mean("book.apply_order", us),
        "book.check_us": tracer.mean("book.check", us),
        "book.reconcile_ms": tracer.mean("book.reconcile", ms),
        "engine.step_self_us": tracer.mean("engine.step", us, self_time=True),
        "engine.run_self_ms": tracer.mean("engine.run", ms, self_time=True),
        "engine.smooth_ms": tracer.mean("engine.smooth", ms, per="engine.run"),
        "sweep.batch_self_ms": tracer.mean("sweep.batch_runs", ms, self_time=True),
        "cli.main_self_ms": tracer.mean("cli.main", ms, self_time=True),
        "io.write_batch_csv_ms": tracer.mean("io.write_batch_csv", ms),
        "io.write_series_csv_ms": tracer.mean("io.write_series_csv", ms),
        "svg.series_figure_ms": tracer.mean("svg.series_figure", ms),
        "svg.write_svg_ms": tracer.mean("svg.write_svg", ms),
        "io.bytes_written": bytes_per_body,
        "book.journal_per_tick": (sum(tags.values()) - tags["init"]) / ticks,
        "book.passive_share": tags["passive"] / ticks,
        "book.full_fill_share": tags["consume"] / ticks,
    }


PER_LAYER_UNITS = {
    "agents.sample_us": "us",
    "book.apply_order_us": "us",
    "book.check_us": "us",
    "book.reconcile_ms": "ms",
    "engine.step_self_us": "us",
    "engine.run_self_ms": "ms",
    "engine.smooth_ms": "ms",
    "sweep.batch_self_ms": "ms",
    "cli.main_self_ms": "ms",
    "io.write_batch_csv_ms": "ms",
    "io.write_series_csv_ms": "ms",
    "svg.series_figure_ms": "ms",
    "svg.write_svg_ms": "ms",
    "io.bytes_written": "bytes",
    "book.journal_per_tick": "entries/tick",
    "book.passive_share": "ratio",
    "book.full_fill_share": "ratio",
    "mem.traced_kb_per_tick": "KiB/tick",
    "setup.import_numpy_s": "s",
    "setup.import_marketflow_s": "s",
    "trace.overhead_pct": "%",
}
