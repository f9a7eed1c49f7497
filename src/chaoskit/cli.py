"""Batch command-line interface.

Four commands:

* ``analyze``   manifest of recordings -> per-window indices (NDJSON)
                plus summary/p-value/histogram tables in an output dir
* ``estimate``  one estimator on one signal file -> JSON on stdout
* ``synth``     write a synthetic signal file from a named generator
* ``report``    rebuild the tables from an existing NDJSON file

Exit codes: 0 success, 2 usage error, 3 unreadable or malformed input,
4 estimator or internal failure. An estimator setting no window could
use, or ``--hist-bins`` or ``--jobs`` below 1, exits 4 before any input
is read. Per-window estimator failures during ``analyze`` are recorded
in the output, not fatal.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import ChaosKitError, ConfigError, InputError, check_int
from .generators import GeneratorSpec, generate, generator_kinds
from .io import (
    format_float,
    load_recordings,
    read_epochs_ndjson,
    read_run_manifest,
    read_signal_csv,
    write_epochs_ndjson,
    write_histogram_csvs,
    write_pvalues_csv,
    write_run_manifest,
    write_signal_csv,
    write_table1_csv,
)
from .sleep import EstimatorConfig, WindowPlan, analyze_recordings
from .stats import MIN_HIST_BINS, compare_groups, group_by_cell, group_summaries, histograms_by_cell

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# --hist-bins left out: the bin count histograms_by_cell declares.
_HIST_BINS = inspect.signature(histograms_by_cell).parameters["n_bins"].default


def _config_flags():
    """Each ``EstimatorConfig`` field with its command-line spelling."""
    for f in dataclasses.fields(EstimatorConfig):
        yield f, f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("estimator configuration")
    for f, flag in _config_flags():
        # Integer defaults mark the integer knobs; the rest, None included, are floats.
        kind = int if isinstance(f.default, int) else float
        shown = "" if f.default is None else " (default %(default)s)"
        grp.add_argument(flag, type=kind, default=f.default, help=f.metadata["help"] + shown)


def _add_hist_bins(parser: argparse.ArgumentParser) -> None:
    # Each command checks the value, so a bad one exits 4 before any input is read.
    parser.add_argument(
        "--hist-bins", type=int, default=_HIST_BINS, help="bins for the report histograms (default %(default)s)"
    )


def _config_from_args(args: argparse.Namespace) -> EstimatorConfig:
    # argparse stores each flag under its spelling with dashes as underscores.
    return EstimatorConfig(
        **{f.name: getattr(args, flag[2:].replace("-", "_")) for f, flag in _config_flags()}
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoskit",
        description="Chaos indices for scalar time series and staged sleep recordings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the index pipeline over a manifest of recordings")
    p_analyze.add_argument("--manifest", required=True, help="JSON manifest of recordings")
    p_analyze.add_argument("--out", required=True, help="output directory")
    p_analyze.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    _add_hist_bins(p_analyze)
    _add_config_flags(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_estimate = sub.add_parser("estimate", help="run one estimator on one signal file")
    p_estimate.add_argument(
        "--estimator",
        required=True,
        choices=("lag", "theiler", "mi", "med", "lle", "d2"),
        help="which quantity to estimate",
    )
    p_estimate.add_argument("--input", required=True, help="signal CSV file")
    p_estimate.add_argument("--channel", default=None, help="channel name for multi-channel files")
    p_estimate.add_argument("--lag", type=int, default=None, help="embedding delay (default: auto)")
    p_estimate.add_argument("--m", type=int, default=None, help="embedding dimension (default: auto)")
    p_estimate.add_argument("--theiler", type=int, default=None, help="exclusion window (default: auto)")
    p_estimate.add_argument("--log2", action="store_true", help="report the Lyapunov exponent in bits instead of nats")
    _add_config_flags(p_estimate)
    p_estimate.set_defaults(func=_cmd_estimate)

    p_synth = sub.add_parser("synth", help="write a synthetic signal file")
    p_synth.add_argument("--kind", required=True, choices=generator_kinds(), help="generator family")
    p_synth.add_argument("--n", type=int, required=True, help="samples to keep")
    p_synth.add_argument("--seed", type=int, default=0, help="noise stream seed")
    p_synth.add_argument("--skip", type=int, default=0, help="transient samples to discard")
    p_synth.add_argument("--fs", type=float, default=1.0, help="sampling rate of the output (Hz)")
    p_synth.add_argument("--out", required=True, help="output signal CSV")
    p_synth.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="generator parameter, repeatable (e.g. --param r=3.9 --param x0=0.2)",
    )
    p_synth.set_defaults(func=_cmd_synth)

    p_report = sub.add_parser("report", help="rebuild tables from an epoch NDJSON file")
    p_report.add_argument("--epochs", required=True, help="NDJSON file from a previous analyze run")
    p_report.add_argument("--out", required=True, help="output directory")
    _add_hist_bins(p_report)
    p_report.set_defaults(func=_cmd_report)

    return parser


def _write_reports(out_dir: Path, epochs, fingerprint: str, hist_bins: int, manifest: dict | None) -> dict:
    """Write the tables of ``epochs`` and return their counts; with a
    ``manifest`` (config, inputs, outputs), write it with those counts."""
    cells = group_by_cell(epochs)
    summaries = group_summaries(cells)
    comparisons = compare_groups(summaries)
    histograms = histograms_by_cell(cells, hist_bins)
    write_table1_csv(out_dir / "summary.csv", summaries, fingerprint)
    write_pvalues_csv(out_dir / "pvalues.csv", comparisons, fingerprint)
    hist_paths = write_histogram_csvs(out_dir / "histograms", histograms, fingerprint)
    outputs = {
        "epochs": len(epochs),
        "epochs_with_failures": sum(1 for e in epochs if e.failed),
        "summary_rows": len(summaries),
        "comparisons": len(comparisons),
        "histograms": len(hist_paths),
    }
    if manifest is not None:
        outputs = {**manifest["outputs"], **outputs}
        write_run_manifest(out_dir / "run_manifest.json", manifest["config"], fingerprint, manifest["inputs"], outputs)
    return outputs


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    check_int("--jobs", args.jobs, 1)
    check_int("--hist-bins", args.hist_bins, MIN_HIST_BINS)
    recordings = load_recordings(args.manifest)  # InputError -> exit 3, nothing written
    epochs = analyze_recordings(recordings, config, jobs=args.jobs)
    out_dir = Path(args.out)
    write_epochs_ndjson(out_dir / "epoch_indices.ndjson", epochs)
    inputs = {"manifest": str(args.manifest), "subjects": [r.subject_id for r in recordings]}
    manifest = {"config": config.as_dict(), "inputs": inputs, "outputs": {}}
    outputs = _write_reports(out_dir, epochs, config.fingerprint(), args.hist_bins, manifest)
    print(
        f"analyzed {len(epochs)} windows from {len(recordings)} recordings "
        f"({outputs['epochs_with_failures']} with failures) -> {out_dir}"
    )
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    series, metadata = read_signal_csv(args.input, channel=args.channel)
    # A flag left out (None) leaves its step to the plan.
    fixed = {
        name: None if getattr(args, name) is None else check_int(f"--{name}", getattr(args, name), lo)
        for name, lo in (("lag", 1), ("theiler", 0), ("m", 1))
    }
    plan = WindowPlan(series, config, **fixed)
    params: dict = {"input": str(args.input), "n_samples": len(series), "fs": series.sample_rate_hz}
    diagnostics: dict = {}

    if args.estimator == "lag":
        value, units = plan.lag.lag, "samples"
        diagnostics["saturated"] = plan.lag.saturated
        params["bins"] = config.bins
    elif args.estimator == "theiler":
        value, units = plan.theiler.lag, "samples"
        diagnostics["saturated"] = plan.theiler.saturated
    elif args.estimator == "mi":
        value, units = plan.mi(), "bits"
        params.update(lag=plan.lag.lag, bins=config.bins)
        diagnostics["lag_saturated"] = plan.lag.saturated
    elif args.estimator == "med":
        profile = plan.dimension_scan()
        value = None if profile.selected_m is None else int(profile.selected_m)
        units = "dimensions"
        params.update(lag=plan.lag.lag, m_max=profile.m_max, plateau_tol=config.plateau_tol)
        diagnostics.update(
            deterministic=profile.deterministic,
            e1_values=[float(v) for v in profile.e1_values],
            e2_values=[float(v) for v in profile.e2_values],
        )
    else:  # lle or d2, on the delay embedding
        result = plan.lyapunov() if args.estimator == "lle" else plan.d2()
        choice = plan.embedding
        diagnostics.update(embedding_m=choice.embed_m, m_source=choice.source)
        if choice.profile is not None:
            diagnostics["deterministic"] = choice.profile.deterministic
        elif choice.med_failure is not None:
            diagnostics["m_fallback_reason"] = choice.med_failure
        params.update(lag=plan.lag.lag, theiler_w=plan.theiler.lag)
        if args.estimator == "lle":
            if args.log2:
                value, units = result.exponent / math.log(2.0), "bits/sample"
            else:
                value, units = result.exponent, "nats/sample"
            diagnostics.update(
                per_second=result.exponent * series.sample_rate_hz,
                per_second_units="nats/s",
                n_renormalizations=result.n_renormalizations,
                n_replacements=result.n_replacements,
                n_evolved_samples=result.n_evolved_samples,
                low_confidence=result.low_confidence,
            )
        else:
            value, units = result.d2, "dimensions"
            diagnostics.update(
                fit_range=[result.fit_range[0], result.fit_range[1]],
                fit_r2=result.fit_r2,
                n_pairs_in_range=result.n_pairs_in_range,
            )

    channel = args.channel or metadata.get("channel")
    if channel:
        params["channel"] = channel
    print(
        json.dumps(
            {
                "estimator": args.estimator,
                "value": value,
                "units": units,
                "parameters": params,
                "diagnostics": diagnostics,
            },
            ensure_ascii=True,
        )
    )
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    parameters: dict[str, float | str] = {"fs": args.fs}
    for item in args.param:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise ConfigError(f"--param needs NAME=VALUE, got {item!r}")
        if name == "fs":
            raise ConfigError(f"the sampling rate is set by --fs, not --param {item!r}")
        try:
            parameters[name] = float(raw)
        except ValueError:
            parameters[name] = raw
    spec = GeneratorSpec(
        kind=args.kind,
        n_samples=args.n,
        seed=args.seed,
        transient_skip=args.skip,
        parameters=parameters,
    )
    series = generate(spec)
    metadata = {
        "kind": spec.kind,
        "seed": str(spec.seed),
        "transient_skip": str(spec.transient_skip),
        "prng": "splitmix64-counter",
    }
    for name in sorted(spec.parameters):
        if name == "fs":
            continue
        value = spec.parameters[name]
        metadata[f"param_{name}"] = format_float(value) if isinstance(value, float) else str(value)
    write_signal_csv(args.out, series, metadata)
    print(f"wrote {len(series)} samples of {spec.kind} to {args.out}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    check_int("--hist-bins", args.hist_bins, MIN_HIST_BINS)
    epochs = read_epochs_ndjson(args.epochs)
    if not epochs:
        raise InputError(f"epoch file {args.epochs} has no records")
    fingerprints = {e.config_fingerprint for e in epochs}
    if len(fingerprints) > 1:
        raise InputError(
            "epoch file mixes records from different configurations; refusing to pool them"
        )
    out_dir = Path(args.out)
    fingerprint = next(iter(fingerprints))
    # Checked before any table is replaced; a fresh directory gets no manifest.
    manifest_path = out_dir / "run_manifest.json"
    manifest = read_run_manifest(manifest_path, fingerprint) if manifest_path.exists() else None
    _write_reports(out_dir, epochs, fingerprint, args.hist_bins, manifest)
    print(f"rebuilt tables for {len(epochs)} windows -> {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"error": {"type": "input", "message": str(exc)}}), file=sys.stderr)
        return EXIT_INPUT
    except ChaosKitError as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(
            json.dumps({"error": {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}}),
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
