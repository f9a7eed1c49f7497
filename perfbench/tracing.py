"""Spans around calls into chaoskit's public functions, from outside it.

``Tracer.install`` rebinds each traced function in the namespace it is
looked up in at call time (``chaoskit.cli``, ``chaoskit.sleep``,
``chaoskit.io``, ``chaoskit.information``), so the program itself is not
changed. A span records its id, parent id, name, start, end and a few
counts derived from the call's arguments or result. Spans stay in
memory; ``Tracer.spans`` is read when the round ends.

Pool workers are forked after the wrappers are in place, so they trace
too. A worker starts an empty span list on its first span and writes it
to ``worker_dir`` when it exits; ``Tracer.collect_workers`` merges those
files. Times come from ``time.perf_counter``, a system-wide monotonic
clock on Linux, so spans of different processes share one time line.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from multiprocessing import util
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space (``VmHWM``).

    ``ru_maxrss`` is not used for the process itself: Linux carries the
    RSS of the address space an ``exec`` replaces into it, so a round
    would inherit the RSS of the process that started it as a floor.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# Counts a span carries, computed from arguments and results, never
# measured inside the program.
def _cao_points(args, kwargs, result):
    n, t = len(args[0]), args[1]
    m_max = args[2] if len(args) > 2 else kwargs.get("m_max", 8)
    return {"points": sum(n - m * t for m in range(1, m_max + 1))}


def _wolf_searches(args, kwargs, result):
    # One search for the initial neighbour, one per renormalisation; a
    # failed call made only the initial search.
    return {"searches": 1 if result is None else result.n_renormalizations + 1}


def _curve_pairs(args, kwargs, result):
    n = len(args[0])
    w = args[2] if len(args) > 2 else kwargs.get("theiler_w", 0)
    gaps = n - 1 - w
    return {"pairs": gaps * (gaps + 1) // 2 if gaps > 0 else 0}


def _fit_windows(args, kwargs, result):
    c = args[0].c_values
    n_el = int(((c > 0.0) & (c < 1.0)).sum())
    if n_el < 8:
        return {"windows": 0}
    min_len = max(4, -(-2 * n_el // 5))  # ceil(0.4 n_el), as the fit does
    return {"windows": sum(n_el - length + 1 for length in range(min_len, n_el + 1))}


def _signal_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, count function). A function looked up
# in several namespaces is wrapped in each, since each binding is called.
TRACED = (
    ("chaoskit.cli", "main", "cli.main", None),
    ("chaoskit.cli", "load_recordings", "io.load_recordings", None),
    ("chaoskit.cli", "analyze_recordings", "sleep.analyze_recordings", None),
    ("chaoskit.cli", "write_epochs_ndjson", "io.write_epochs_ndjson", None),
    ("chaoskit.cli", "read_epochs_ndjson", "io.read_epochs_ndjson", None),
    ("chaoskit.cli", "group_summaries", "stats.group_summaries", None),
    ("chaoskit.cli", "compare_groups", "stats.compare_groups", None),
    ("chaoskit.cli", "histograms_by_cell", "stats.histograms_by_cell", None),
    ("chaoskit.cli", "write_table1_csv", "io.write_table", None),
    ("chaoskit.cli", "write_pvalues_csv", "io.write_table", None),
    ("chaoskit.cli", "write_histogram_csvs", "io.write_table", None),
    ("chaoskit.cli", "write_run_manifest", "io.write_table", None),
    ("chaoskit.io", "load_recordings", "io.load_recordings", None),
    ("chaoskit.io", "write_epochs_ndjson", "io.write_epochs_ndjson", None),
    ("chaoskit.io", "read_signal_csv", "io.read_signal_csv", _signal_bytes),
    ("chaoskit.io", "read_hypnogram_csv", "io.read_hypnogram_csv", None),
    ("chaoskit.sleep", "analyze_recordings", "sleep.analyze_recordings", None),
    ("chaoskit.sleep", "epoch_split", "sleep.epoch_split", None),
    ("chaoskit.sleep", "compute_epoch_indices", "sleep.compute_epoch_indices", None),
    ("chaoskit.sleep", "select_lag_first_minimum", "information.select_lag_first_minimum", None),
    ("chaoskit.sleep", "auto_mutual_information", "information.auto_mutual_information", None),
    ("chaoskit.sleep", "theiler_window", "series.theiler_window", None),
    ("chaoskit.sleep", "minimum_embedding_dimension", "cao.minimum_embedding_dimension", _cao_points),
    ("chaoskit.sleep", "delay_embed", "series.delay_embed", None),
    ("chaoskit.sleep", "largest_lyapunov_wolf", "lyapunov.largest_lyapunov_wolf", _wolf_searches),
    ("chaoskit.sleep", "correlation_curve", "correlation.correlation_curve", _curve_pairs),
    ("chaoskit.sleep", "correlation_dimension", "correlation.correlation_dimension", _fit_windows),
    ("chaoskit.information", "auto_mutual_information", "information.auto_mutual_information", None),
)

# Spans that also record the rise of the process's RSS high-water mark.
_RSS_SPANS = {"io.read_signal_csv"}


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = Path(worker_dir)
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._pid = os.getpid()
        self._seq = 0

    def install(self) -> None:
        for module_name, attr, span_name, counts in TRACED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), span_name, counts))

    def _enter_process(self) -> None:
        # First span in a forked worker: keep the inherited parent chain,
        # drop the parent's finished spans, and flush at worker exit.
        self._pid = os.getpid()
        self.spans = []
        util.Finalize(None, self._flush_worker, exitpriority=100)

    def _flush_worker(self) -> None:
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"worker-{self._pid}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def _wrap(self, fn, span_name: str, counts):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                tracer._enter_process()
            tracer._seq += 1
            span_id = f"{tracer._pid}:{tracer._seq}"
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            rss0 = peak_rss_mb() if span_name in _RSS_SPANS else None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span = {"id": span_id, "parent": parent, "name": span_name, "start": start, "end": end}
                if counts is not None:
                    span.update(counts(args, kwargs, result))
                if rss0 is not None:
                    span["rss_rise_mb"] = peak_rss_mb() - rss0
                tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def collect_workers(self) -> None:
        """Merge the span files that exited pool workers wrote."""
        if not self.worker_dir.is_dir():
            return
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            self.spans.extend(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()


def layer_totals(spans: list[dict]) -> dict:
    """Per-layer sums of one traced round, plus the window durations."""
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(*names: str) -> float:
        return sum(s["end"] - s["start"] for n in names for s in by_name.get(n, ()))

    def count(name: str, key: str) -> int:
        return sum(s[key] for s in by_name.get(name, ()))

    def self_total(name: str) -> float:
        """Duration minus the child spans' durations."""
        return sum(
            (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in children.get(s["id"], ()))
            for s in by_name.get(name, ())
        )

    reads = by_name.get("io.read_signal_csv", ())
    return {
        "information.lag_scan_s": total("information.select_lag_first_minimum"),
        "information.ami_evals": len(by_name.get("information.auto_mutual_information", ())),
        "series.theiler_s": total("series.theiler_window"),
        "series.embed_s": total("series.delay_embed"),
        "cao.profile_s": total("cao.minimum_embedding_dimension"),
        "cao.points": count("cao.minimum_embedding_dimension", "points"),
        "lyapunov.wolf_s": total("lyapunov.largest_lyapunov_wolf"),
        "lyapunov.searches": count("lyapunov.largest_lyapunov_wolf", "searches"),
        "correlation.curve_s": total("correlation.correlation_curve"),
        "correlation.pairs": count("correlation.correlation_curve", "pairs"),
        "correlation.fit_s": total("correlation.correlation_dimension"),
        "correlation.fit_windows": count("correlation.correlation_dimension", "windows"),
        "sleep.window_self_s": self_total("sleep.compute_epoch_indices"),
        "sleep.analyze_s": total("sleep.analyze_recordings"),
        "sleep.split_s": total("sleep.epoch_split"),
        "stats.tables_s": total("stats.group_summaries", "stats.compare_groups", "stats.histograms_by_cell"),
        "io.read_signal_s": total("io.read_signal_csv"),
        "io.read_signal_mb": count("io.read_signal_csv", "bytes") / 1e6,
        "io.read_signal_rss_mb": max((s["rss_rise_mb"] for s in reads), default=0.0),
        "io.write_ndjson_s": total("io.write_epochs_ndjson"),
        "io.read_ndjson_s": total("io.read_epochs_ndjson"),
        "io.write_tables_s": total("io.write_table"),
        "cli.self_s": self_total("cli.main"),
        "window_ms": [1000.0 * (s["end"] - s["start"]) for s in by_name.get("sleep.compute_epoch_indices", ())],
    }
