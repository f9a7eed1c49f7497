"""chaoskit benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload {epochs_100hz,cohort_10hz_jobs2,night_io,all}
                             --seed N --seconds S --trace {0,1}

Inputs are made once per seed into ``.perfbench_cache`` and read once so
the page cache is warm. The workload then runs in rounds, each in a
fresh interpreter (``round.py``), until ``--seconds`` have passed and at
least three rounds are done. Every round repeats the same operations.
The outputs are checked (``checks.py``) and the last line printed is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over rounds; ``setup_s`` is the median of the rounds' own imports and as
many bare imports of ``chaoskit.cli``, one after each round. With
``--trace 1`` untraced and traced rounds alternate; the metrics are the
per-layer ones from the traced rounds, plus the tracing overhead, traced
minus untraced median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("epochs_100hz", "cohort_10hz_jobs2", "night_io")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "information.lag_scan_s": "s",
    "information.ami_evals": "count",
    "series.theiler_s": "s",
    "series.embed_s": "s",
    "cao.profile_s": "s",
    "cao.points_per_s": "1/s",
    "cao.points": "count",
    "lyapunov.wolf_s": "s",
    "lyapunov.search_us": "us",
    "lyapunov.searches": "count",
    "correlation.curve_s": "s",
    "correlation.pairs_per_s": "1/s",
    "correlation.pairs": "count",
    "correlation.fit_s": "s",
    "correlation.fit_windows": "count",
    "sleep.window_ms_p50": "ms",
    "sleep.window_ms_p90": "ms",
    "sleep.windows": "count",
    "sleep.window_self_s": "s",
    "sleep.analyze_s": "s",
    "sleep.split_s": "s",
    "stats.tables_s": "s",
    "io.read_signal_s": "s",
    "io.read_signal_mb_per_s": "MB/s",
    "io.read_signal_mb": "MB",
    "io.read_signal_rss_mb": "MB",
    "io.write_ndjson_s": "s",
    "io.read_ndjson_s": "s",
    "io.write_tables_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_WINDOWS = 100
# A bare fresh interpreter that only imports chaoskit.cli, as a round
# does first; it prints the import time.
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import chaoskit.cli; print(time.perf_counter() - t)"
)


def setup_probe() -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout.split()[-1])


def run_round(workload: str, inputs: Path, out: Path, *, trace=False, extras=False, parity=False) -> dict:
    out.mkdir(parents=True)
    result = out / "result.json"
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload, "--inputs", str(inputs)]
    cmd += ["--out", str(out), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--extras"] * extras + ["--parity"] * parity
    # The round's own output (chaoskit's progress lines) goes to stderr so
    # that the last line on stdout stays the result. The round leads its own
    # process group, so a timeout also ends its pool workers.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return json.loads(result.read_text())


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer figures per traced round; rates over all traced rounds."""
    layers = [r["layers"] for r in traced]
    k = len(layers)

    def mean(name):
        return sum(layer[name] for layer in layers) / k

    def rate(base, seconds):
        t = sum(layer[seconds] for layer in layers)
        return sum(layer[base] for layer in layers) / t if t > 0 else 0.0

    out = {name: mean(name) for name in layers[0] if name in PER_LAYER_UNITS}
    out["cao.points_per_s"] = rate("cao.points", "cao.profile_s")
    searches = sum(layer["lyapunov.searches"] for layer in layers)
    out["lyapunov.search_us"] = 1e6 * sum(layer["lyapunov.wolf_s"] for layer in layers) / searches if searches else 0.0
    out["correlation.pairs_per_s"] = rate("correlation.pairs", "correlation.curve_s")
    out["io.read_signal_mb_per_s"] = rate("io.read_signal_mb", "io.read_signal_s")
    out["io.read_signal_rss_mb"] = max(layer["io.read_signal_rss_mb"] for layer in layers)
    windows = sorted(ms for layer in layers for ms in layer["window_ms"])
    out["sleep.windows"] = len(windows) / k
    out["sleep.window_ms_p50"] = statistics.median(windows) if windows else 0.0
    out["sleep.window_ms_p90"] = statistics.quantiles(windows, n=10)[-1] if len(windows) >= P90_MIN_WINDOWS else 0.0
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced
    )
    return {name: out[name] for name in PER_LAYER_UNITS}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import inputs as inputs_mod  # imports chaoskit, whose presence main() checks first

    inputs = inputs_mod.ensure_inputs(workload, seed)
    inputs_mod.warm_page_cache(inputs)
    run_dir = inputs_mod.CACHE / "runs" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        rounds, problems, setup_samples = [], [], []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds or (trace and len(rounds) % 2):
            traced = trace and len(rounds) % 2 == 1
            out = run_dir / f"round-{len(rounds)}"
            r = run_round(workload, inputs, out, trace=traced, extras=not rounds)
            r["traced"], r["digest"] = traced, checks.digest(out / "outputs")
            print(f"{workload} round {len(rounds)}{' traced' if traced else ''}: "
                  f"wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} peak_rss_mb={r['peak_rss_mb']:.1f} "
                  f"setup_s={r['setup_s']:.4f} attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)
            rounds.append(r)
            if not trace:
                # setup_s is fixed work that host noise moves by 10% and
                # more; each round adds its own import and one bare one.
                setup_samples += [r["setup_s"], setup_probe()]
        first = run_dir / "round-0"
        if workload == "epochs_100hz":
            problems += checks.check_epochs(inputs, first)
        elif workload == "cohort_10hz_jobs2":
            parity = run_dir / "parity"
            run_round(workload, inputs, parity, parity=True)
            problems += checks.check_cohort(inputs, first, parity)
        else:
            problems += checks.check_night(inputs, first)
        problems += checks.check_same_digests([r["digest"] for r in rounds])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [r for r in rounds if not r["traced"]]
    if trace:
        values = layer_metrics([r for r in rounds if r["traced"]], untraced)
        units = PER_LAYER_UNITS
    else:
        values = {name: statistics.median(r[name] for r in untraced) for name in END_TO_END}
        values["setup_s"] = statistics.median(setup_samples)
        units = END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "digest": rounds[0]["digest"],
        "problems": problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def report(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['seed']}: {res['rounds']} rounds, "
          f"{res['attempted']} operations attempted, {res['failed']} failed")
    print(f"digest {res['workload']} sha256={res['digest']}")
    for problem in res["problems"]:
        print(f"CHECK FAILED {res['workload']}: {problem}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description="chaoskit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "chaoskit" / "__init__.py").is_file():
        print(f"chaoskit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        report(res)
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    line = {
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
