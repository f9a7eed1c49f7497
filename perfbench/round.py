"""One round of one workload, in a fresh interpreter.

    python3 perfbench/round.py --workload W --inputs DIR --out DIR --result FILE
                               [--trace] [--extras] [--parity]

The first thing the process does is import ``chaoskit.cli``; that import
time is the round's ``setup_s``. Inputs are then loaded, and only the
workload's own calls into chaoskit are timed. Outputs go to ``OUT/outputs``
(hashed into the round's digest), artefacts for the checks to
``OUT/check``, and the round's figures to ``--result`` as JSON.

``--trace`` wraps chaoskit's public functions (see ``tracing.py``) before
the timed part. ``--extras`` also writes the artefacts the checks need
beyond the outputs. ``--parity`` runs the cohort's parity manifest at
``--jobs 1`` instead of the timed workload.
"""

import os.path
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
_t0 = time.perf_counter()
import chaoskit.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import chaoskit.correlation  # noqa: E402
import chaoskit.io  # noqa: E402
import chaoskit.series  # noqa: E402
import chaoskit.sleep  # noqa: E402
from chaoskit.series import TimeSeries  # noqa: E402
from chaoskit.sleep import EpochIndices, EstimatorConfig, Group, Recording, SleepStage  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from checks import GROUPS, INDEX_NAMES, read_ndjson  # noqa: E402
from tracing import Tracer, layer_totals, peak_rss_mb  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # Pool workers are forked, not exec'd, so their ru_maxrss is their own.
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(peak_rss_mb(), kids)


def _index_ops(records) -> tuple[int, int]:
    """(attempted, failed): one operation per index per window; an index
    fails when it is null and named in ``failures``."""
    failed = sum(1 for r in records for name in INDEX_NAMES if r[name] is None and name in r["failures"])
    return len(INDEX_NAMES) * len(records), failed


class Epochs:
    """sleep.analyze_recordings(jobs=1) on in-memory 3000-sample windows."""

    def __init__(self, inputs: Path, out: Path):
        spec = json.loads((inputs / "inputs.json").read_text())
        fs = spec["sample_rate_hz"]
        self.seed = spec["seed"]
        self.recordings = [
            Recording(
                subject_id=r["subject_id"],
                group=Group(r["group"]),
                series=TimeSeries(np.load(inputs / r["signal"]), fs),
                hypnogram=tuple(chaoskit.sleep.parse_stage_token(t) for t in r["stages"]),
            )
            for r in spec["recordings"]
        ]
        self.out = out

    def run(self):
        self.epochs = chaoskit.sleep.analyze_recordings(self.recordings, EstimatorConfig(), jobs=1)

    def finish(self, extras: bool) -> tuple[int, int]:
        path = self.out / "outputs" / "epoch_indices.ndjson"
        chaoskit.io.write_epochs_ndjson(path, self.epochs)
        if extras:
            self._curve_artefact()
        return _index_ops(read_ndjson(path))

    def _curve_artefact(self) -> None:
        # The C(R) curve of one window, rebuilt with the pipeline's own
        # embedding, for the pair-count check.
        k = self.seed % len(self.epochs)
        e = self.epochs[k]
        rec = next(r for r in self.recordings if r.subject_id == e.subject_id)
        window = chaoskit.sleep.epoch_split(rec)[e.epoch_index].window
        params = chaoskit.series.EmbeddingParams(e.embed_m, e.mi_lag, e.theiler_w)
        vectors = chaoskit.series.delay_embed(window, params)
        curve = chaoskit.correlation.correlation_curve(vectors, EstimatorConfig().n_radii, e.theiler_w)
        artefact = {
            "window": k,
            "subject_id": e.subject_id,
            "epoch_index": e.epoch_index,
            "embed_m": e.embed_m,
            "lag": e.mi_lag,
            "theiler_w": e.theiler_w,
            "radii": curve.radii.tolist(),
            "c_values": curve.c_values.tolist(),
        }
        (self.out / "check" / "curve.json").write_text(json.dumps(artefact))


class Cohort:
    """``chaoskit analyze --jobs 2`` through cli.main on a 10 Hz cohort."""

    def __init__(self, inputs: Path, out: Path, parity: bool = False):
        manifest = "parity_manifest.json" if parity else "manifest.json"
        self.argv = [
            "analyze",
            "--manifest",
            str(inputs / manifest),
            "--out",
            str(out / "outputs"),
            "--jobs",
            "1" if parity else "2",
        ]
        self.out = out

    def run(self):
        code = chaoskit.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"chaoskit analyze exited with {code}")

    def finish(self, extras: bool) -> tuple[int, int]:
        return _index_ops(read_ndjson(self.out / "outputs" / "epoch_indices.ndjson"))


class Night:
    """Full-night read, epoch split, NDJSON write and ``chaoskit report``.

    One operation per file read or written. ``load_recordings`` reads the
    manifest, the signal and the hypnogram; the report reads the NDJSON
    back and writes two tables and one histogram per (index, stage,
    group) cell the records fill. A read or write that raises, or an
    expected file that is missing or empty, is a failed operation.
    """

    def __init__(self, inputs: Path, out: Path):
        self.manifest = inputs / "manifest.json"
        records = json.loads((inputs / "records.json").read_text())
        self.records = [
            EpochIndices(**{**r, "group": Group(r["group"]), "stage": SleepStage(r["stage"])}) for r in records
        ]
        cells = {
            (name, r["stage"], r["group"]) for r in records for name in INDEX_NAMES if r[name] is not None
        } - {(name, "Unknown", group) for name in INDEX_NAMES for group in GROUPS}
        self.ndjson = out / "outputs" / "epochs.ndjson"
        self.report = out / "outputs" / "report"
        self.tables = [self.report / "summary.csv", self.report / "pvalues.csv"]
        self.tables += [self.report / "histograms" / f"hist_{i}_{s}_{g}.csv" for i, s, g in sorted(cells)]
        self.out = out
        self.recordings = self.windows = None
        self.failed = 0
        self.report_code = None

    def run(self):
        try:
            self.recordings = chaoskit.io.load_recordings(self.manifest)
            self.windows = chaoskit.sleep.epoch_split(self.recordings[0])
        except Exception as exc:  # noqa: BLE001 - counted as three failed reads
            print(f"night_io: load_recordings failed: {exc!r}", file=sys.stderr)
            self.failed += 3
        try:
            chaoskit.io.write_epochs_ndjson(self.ndjson, self.records)
        except Exception as exc:  # noqa: BLE001 - counted as a failed write
            print(f"night_io: write_epochs_ndjson failed: {exc!r}", file=sys.stderr)
            self.failed += 1
        self.report_code = chaoskit.cli.main(["report", "--epochs", str(self.ndjson), "--out", str(self.report)])

    def finish(self, extras: bool) -> tuple[int, int]:
        if extras and self.windows is not None:
            check = self.out / "check"
            np.save(check / "night_samples.npy", self.recordings[0].series.samples)
            np.save(check / "night_windows.npy", np.stack([w.window.samples for w in self.windows]))
            stages = [w.stage.value for w in self.windows]
            (check / "night_window_stages.json").write_text(json.dumps(stages))
        failed = self.failed + (self.report_code != 0)
        failed += sum(1 for p in self.tables if not (p.is_file() and p.stat().st_size > 0))
        return 3 + 1 + 1 + len(self.tables), failed


def main() -> int:
    parser = argparse.ArgumentParser(description="one timed round of a perfbench workload")
    parser.add_argument("--workload", required=True, choices=("epochs_100hz", "cohort_10hz_jobs2", "night_io"))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--extras", action="store_true")
    parser.add_argument("--parity", action="store_true")
    args = parser.parse_args()

    for sub in ("outputs", "check", "trace"):
        (args.out / sub).mkdir(parents=True, exist_ok=True)
    if args.workload == "epochs_100hz":
        work = Epochs(args.inputs, args.out)
    elif args.workload == "cohort_10hz_jobs2":
        work = Cohort(args.inputs, args.out, parity=args.parity)
    else:
        work = Night(args.inputs, args.out)

    tracer = None
    if args.trace:
        tracer = Tracer(args.out / "trace" / "workers")
        tracer.install()
    gc.collect()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    work.run()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    peak_mb = _peak_rss_mb()

    result = {"setup_s": SETUP_S, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_mb}
    if tracer is not None:
        tracer.collect_workers()
        (args.out / "trace" / "spans.json").write_text(json.dumps(tracer.spans))
        result["layers"] = layer_totals(tracer.spans)
    result["attempted"], result["failed"] = work.finish(args.extras)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
