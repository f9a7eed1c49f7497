"""End-to-end command-line runs through ``python -m chaoskit``.

These stay structural on purpose: exit codes, JSON shape, files on
disk, byte-level determinism. Numeric behaviour of the estimators is
covered by the per-module tests.
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from chaoskit.cli import _config_flags, _config_from_args, build_parser
from chaoskit.generators import GeneratorSpec, generate
from chaoskit.io import read_signal_csv, write_hypnogram_csv, write_signal_csv
from chaoskit.series import TimeSeries
from chaoskit.sleep import EstimatorConfig, SleepStage, WindowPlan, compute_epoch_indices

from conftest import build_sleep_fixture


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "chaoskit", *args],
        capture_output=True,
        text=True,
    )


def stdout_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def stderr_error(proc):
    return json.loads(proc.stderr)["error"]


def result_fields(result, value_field):
    """Every field of an estimator's result but its value, by name, in field order."""
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result) if f.name != value_field}


def report_tables(out):
    """Name -> bytes of the summary, p-value and histogram tables under ``out``."""
    paths = [out / "summary.csv", out / "pvalues.csv", *sorted((out / "histograms").glob("hist_*.csv"))]
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in paths}


@pytest.fixture(scope="module")
def signals(tmp_path_factory):
    root = tmp_path_factory.mktemp("signals")
    paths = {
        "logistic": root / "logistic.csv",
        "sine": root / "sine.csv",
        "noise": root / "noise.csv",
    }
    for args in (
        ("--kind", "logistic", "--n", "2500", "--seed", "7", "--skip", "100",
         "--param", "r=4", "--out", str(paths["logistic"])),
        ("--kind", "sine", "--n", "400", "--fs", "100",
         "--param", "freq_hz=1", "--out", str(paths["sine"])),
        ("--kind", "white_noise", "--n", "3000", "--seed", "5",
         "--out", str(paths["noise"])),
    ):
        proc = run_cli("synth", *args)
        assert proc.returncode == 0, proc.stderr
    return paths


@pytest.fixture(scope="module")
def logistic_epoch(signals):
    series, _ = read_signal_csv(signals["logistic"])
    return compute_epoch_indices(series, EstimatorConfig(max_separation=0.7))


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    manifest = build_sleep_fixture(root, n_epochs=6)
    out = root / "out"
    proc = run_cli(
        "analyze", "--manifest", str(manifest), "--out", str(out),
        "--max-separation", "0.7",
    )
    assert proc.returncode == 0, proc.stderr
    return {"root": root, "manifest": manifest, "out": out}


class TestUsage:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("chaoskit ")

    def test_no_command_is_usage_error(self):
        assert run_cli().returncode == 2

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 2

    def test_unknown_estimator_is_usage_error(self):
        proc = run_cli("estimate", "--estimator", "entropy", "--input", "x.csv")
        assert proc.returncode == 2

    def test_every_config_flag_reaches_its_field(self):
        # flag -> (field, argument, parsed value), none at its default.
        flags = {
            "--bins": ("bins", "17", 17),
            "--mi-max-lag": ("mi_max_lag", "40", 40),
            "--theiler-max-lag": ("theiler_max_lag", "90", 90),
            "--m-max": ("m_max", "7", 7),
            "--plateau-tol": ("plateau_tol", "0.04", 0.04),
            "--e2-tol": ("e2_tol", "0.2", 0.2),
            "--evolve-steps": ("evolve_steps", "4", 4),
            "--min-separation": ("min_separation", "0.001", 0.001),
            "--max-separation": ("max_separation", "0.7", 0.7),
            "--max-angle": ("max_replacement_angle", "0.4", 0.4),
            "--n-radii": ("n_radii", "20", 20),
            "--min-fit-r2": ("min_fit_r2", "0.97", 0.97),
        }
        argv = ["analyze", "--manifest", "m.json", "--out", "o"]
        for flag, (_, arg, _) in flags.items():
            argv += [flag, arg]
        config = _config_from_args(build_parser().parse_args(argv))
        defaults = EstimatorConfig()
        for name, _, value in flags.values():
            assert getattr(config, name) == value
            assert type(getattr(config, name)) is type(value)
            assert getattr(defaults, name) != value
        assert len(flags) == len(dataclasses.fields(config))

    def test_config_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["estimate", "--estimator", "lag", "--input", "x.csv"])
        assert _config_from_args(args) == EstimatorConfig()

    def test_help_shows_each_default_once(self):
        # --help takes each default from the one place it is declared;
        # a help text that also wrote it by hand would show it twice.
        proc = run_cli("analyze", "--help")
        assert proc.returncode == 0, proc.stderr
        entries = {
            entry.split()[0]: entry for entry in re.split(r" (?=--[a-z])", " ".join(proc.stdout.split()))[1:]
        }
        shown = {"--hist-bins": build_parser().parse_args(["report", "--epochs", "e", "--out", "o"]).hist_bins}
        for f, flag in _config_flags():
            if f.default is not None:
                shown[flag] = f.default
        assert len(shown) == 11
        for flag, default in shown.items():
            assert entries[flag].count("(default") == 1, entries[flag]
            assert f"(default {default})" in entries[flag], entries[flag]
        for flag in ("--mi-max-lag", "--theiler-max-lag", "--evolve-steps"):
            assert "samples" in entries[flag], entries[flag]

    @pytest.mark.parametrize("module", ["chaoskit", "chaoskit.cli"])
    def test_import_loads_no_scipy(self, module):
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["report", "synth"])
    def test_report_and_synth_leave_scipy_spatial_unloaded(self, study, tmp_path, command):
        # Only tree builds need scipy.spatial; report may load
        # scipy.special for its p-values.
        args = {
            "report": ["report", "--epochs", str(study["out"] / "epoch_indices.ndjson"),
                       "--out", str(tmp_path / "out")],
            "synth": ["synth", "--kind", "sine", "--n", "400", "--out", str(tmp_path / "sine.csv")],
        }[command]
        code = (
            "import sys; from chaoskit import cli; "
            f"code = cli.main({args!r}); "
            "print(code, 'scipy.spatial' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["0", "False"]
        if command == "report":
            assert (tmp_path / "out" / "pvalues.csv").stat().st_size > 0


class TestSynth:
    def test_sine_starts_at_zero_and_peaks_at_quarter_period(self, signals):
        series, metadata = read_signal_csv(signals["sine"])
        assert series.sample_rate_hz == 100.0
        assert series.samples[0] == 0.0
        assert series.samples[25] == 1.0
        assert metadata["kind"] == "sine"
        assert metadata["prng"] == "splitmix64-counter"

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            proc = run_cli("synth", "--kind", "white_noise", "--n", "64",
                           "--seed", "9", "--out", str(out))
            assert proc.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_samples(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("synth", "--kind", "white_noise", "--n", "64", "--seed", "1", "--out", str(a))
        run_cli("synth", "--kind", "white_noise", "--n", "64", "--seed", "2", "--out", str(b))
        sa, _ = read_signal_csv(a)
        sb, _ = read_signal_csv(b)
        assert not np.array_equal(sa.samples, sb.samples)

    def test_bad_parameter_value_fails(self, tmp_path):
        proc = run_cli("synth", "--kind", "logistic", "--n", "100",
                       "--param", "r=9", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 4
        assert "error" in proc.stderr

    def test_unknown_param_fails_and_writes_nothing(self, tmp_path):
        # rr=3.5 used to run the default r = 4 orbit and still record it.
        out = tmp_path / "x.csv"
        proc = run_cli("synth", "--kind", "logistic", "--n", "100", "--param", "rr=3.5", "--out", str(out))
        assert proc.returncode == 4
        assert stderr_error(proc) == {
            "type": "ConfigError",
            "message": "unknown logistic parameter rr; expected one of fs, r, x0",
        }
        assert not out.exists()

    def test_fs_param_refused_in_favour_of_fs_flag(self, tmp_path):
        # --param fs=50 once silently overrode --fs 100 and wrote # fs=50.
        out = tmp_path / "x.csv"
        proc = run_cli("synth", "--kind", "sine", "--n", "100", "--fs", "100", "--param", "fs=50", "--out", str(out))
        assert proc.returncode == 4
        assert stderr_error(proc) == {
            "type": "ConfigError",
            "message": "the sampling rate is set by --fs, not --param 'fs=50'",
        }
        assert not out.exists()

    def test_malformed_param_fails(self, tmp_path):
        proc = run_cli("synth", "--kind", "sine", "--n", "100",
                       "--param", "freq", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 4
        assert stderr_error(proc)["type"] == "ConfigError"


class TestEstimate:
    def test_lag_shape(self, signals):
        payload = stdout_json(run_cli("estimate", "--estimator", "lag",
                                      "--input", str(signals["noise"])))
        assert payload["estimator"] == "lag"
        assert payload["units"] == "samples"
        assert 1 <= payload["value"] <= 5
        assert payload["diagnostics"]["saturated"] is False
        assert payload["parameters"]["n_samples"] == 3000

    def test_theiler_shape(self, signals):
        payload = stdout_json(run_cli("estimate", "--estimator", "theiler",
                                      "--input", str(signals["sine"])))
        assert payload["units"] == "samples"
        assert payload["value"] >= 1

    def test_mi_reports_lag_used(self, signals):
        payload = stdout_json(run_cli("estimate", "--estimator", "mi",
                                      "--input", str(signals["sine"])))
        assert payload["units"] == "bits"
        assert payload["value"] > 0
        assert payload["parameters"]["lag"] >= 1

    def test_med_on_deterministic_signal(self, signals):
        payload = stdout_json(run_cli("estimate", "--estimator", "med",
                                      "--input", str(signals["logistic"]),
                                      "--lag", "1"))
        assert payload["units"] == "dimensions"
        assert 2 <= payload["value"] <= 8
        assert payload["diagnostics"]["deterministic"] is True
        assert len(payload["diagnostics"]["e1_values"]) == 7

    def test_lle_fast_path_near_log_two(self, signals):
        payload = stdout_json(run_cli("estimate", "--estimator", "lle",
                                      "--input", str(signals["logistic"]),
                                      "--lag", "1", "--m", "1", "--theiler", "10"))
        assert payload["units"] == "nats/sample"
        assert 0.55 <= payload["value"] <= 0.85
        diag = payload["diagnostics"]
        assert diag["m_source"] == "explicit"
        assert diag["per_second"] == pytest.approx(payload["value"], rel=1e-12)
        assert diag["n_renormalizations"] > 0
        # The rest of the diagnostics are the result's own fields, as a
        # plan on the same file gives them.
        series, _ = read_signal_csv(signals["logistic"])
        result = WindowPlan(series, EstimatorConfig(), lag=1, m=1, theiler=10).lyapunov()
        assert payload["value"] == result.exponent
        rest = result_fields(result, "exponent")
        assert list(diag) == ["embedding_m", "m_source", "per_second", "per_second_units", *rest]
        for name, value in rest.items():
            assert diag[name] == value, name

    def test_lle_log2_rescales(self, signals):
        common = ("estimate", "--estimator", "lle", "--input", str(signals["logistic"]),
                  "--lag", "1", "--m", "1", "--theiler", "10")
        nats = stdout_json(run_cli(*common))
        bits = stdout_json(run_cli(*common, "--log2"))
        assert bits["units"] == "bits/sample"
        assert bits["value"] == pytest.approx(nats["value"] / math.log(2.0), rel=1e-12)

    def test_d2_of_noise_line_is_one(self, signals):
        payload = stdout_json(run_cli("estimate", "--estimator", "d2",
                                      "--input", str(signals["noise"]),
                                      "--lag", "1", "--m", "1", "--theiler", "0"))
        assert payload["units"] == "dimensions"
        assert 0.9 <= payload["value"] <= 1.1
        assert payload["diagnostics"]["fit_r2"] > 0.98
        assert len(payload["diagnostics"]["fit_range"]) == 2
        series, _ = read_signal_csv(signals["noise"])
        result = WindowPlan(series, EstimatorConfig(), lag=1, m=1, theiler=0).d2()
        assert payload["value"] == result.d2
        diag = payload["diagnostics"]
        rest = result_fields(result, "d2")
        assert list(diag) == ["embedding_m", "m_source", *rest]
        for name, value in rest.items():
            assert diag[name] == (list(value) if name == "fit_range" else value), name

    @pytest.mark.parametrize("estimator", ["mi", "med", "lle", "d2"])
    def test_auto_embedding_matches_pipeline(self, signals, logistic_epoch, estimator):
        payload = stdout_json(run_cli("estimate", "--estimator", estimator,
                                      "--input", str(signals["logistic"]),
                                      "--max-separation", "0.7"))
        assert payload["parameters"]["lag"] == logistic_epoch.mi_lag
        # Bit for bit: JSON floats round-trip exactly.
        value = payload["diagnostics"]["per_second"] if estimator == "lle" else payload["value"]
        assert value == getattr(logistic_epoch, estimator)
        if estimator in ("lle", "d2"):
            assert payload["parameters"]["theiler_w"] == logistic_epoch.theiler_w
            assert payload["diagnostics"]["embedding_m"] == logistic_epoch.embed_m
            assert payload["diagnostics"]["m_source"] == "cao-plateau"

    def test_steps_run_only_when_read(self, tmp_path):
        # A flat signal has a delay and its MI but no exclusion window, so
        # only the estimator that reads the Theiler step may fail.
        flat = tmp_path / "flat.csv"
        write_signal_csv(flat, TimeSeries(np.full(300, 2.5), 10.0), {})
        codes = {
            estimator: run_cli("estimate", "--estimator", estimator, "--input", str(flat)).returncode
            for estimator in ("lag", "mi", "theiler")
        }
        assert codes == {"lag": 0, "mi": 0, "theiler": 4}

    def test_failed_dimension_scan_falls_back(self, signals):
        # At lag 1400 the 3000 samples cannot hold a scan to m = 3; the
        # pipeline's fallback embeds at max(2, min(8, 2999 // 1400)) = 2.
        payload = stdout_json(run_cli("estimate", "--estimator", "lle",
                                      "--input", str(signals["noise"]),
                                      "--lag", "1400", "--theiler", "0"))
        diag = payload["diagnostics"]
        assert diag["embedding_m"] == 2
        assert diag["m_source"] == "cao-failed-fallback"
        assert "dimension scan" in diag["m_fallback_reason"]
        assert "deterministic" not in diag

    def test_channel_pick_is_among_the_parameters(self, tmp_path):
        # The pick from a two-channel file was once left out: only a
        # one-column file's '# channel=' line reached the parameters.
        window = generate(GeneratorSpec("lorenz", 300, seed=1, transient_skip=1000, parameters={"fs": 10.0}))
        rows = "".join(f"{-a},{a}\n" for a in window.samples)
        (tmp_path / "two.csv").write_text("# fs=10\n# channels=C3,C4\n" + rows)
        write_signal_csv(tmp_path / "one.csv", window, {"channel": "C4"})
        picked = stdout_json(run_cli("estimate", "--estimator", "lag", "--input", str(tmp_path / "two.csv"),
                                     "--channel", "C4"))
        alone = stdout_json(run_cli("estimate", "--estimator", "lag", "--input", str(tmp_path / "one.csv")))
        assert picked["parameters"]["channel"] == alone["parameters"]["channel"] == "C4"
        assert alone["parameters"] == {
            "input": str(tmp_path / "one.csv"), "n_samples": 300, "fs": 10.0, "bins": 16, "channel": "C4",
        }
        assert picked["value"] == alone["value"]

    def test_missing_input_exits_3(self, tmp_path):
        proc = run_cli("estimate", "--estimator", "lag",
                       "--input", str(tmp_path / "absent.csv"))
        assert proc.returncode == 3
        assert stderr_error(proc)["type"] == "input"

    def test_bad_lag_exits_4(self, signals):
        proc = run_cli("estimate", "--estimator", "lag",
                       "--input", str(signals["sine"]), "--lag", "0")
        assert proc.returncode == 4
        assert stderr_error(proc)["message"] == "--lag must be an integer >= 1, got 0"


class TestAnalyze:
    def test_writes_expected_files(self, study):
        out = study["out"]
        assert (out / "epoch_indices.ndjson").exists()
        assert (out / "summary.csv").exists()
        assert (out / "pvalues.csv").exists()
        assert (out / "run_manifest.json").exists()
        assert list((out / "histograms").glob("hist_*.csv"))

    def test_epoch_count_and_fingerprint_header(self, study):
        lines = (study["out"] / "epoch_indices.ndjson").read_text().splitlines()
        assert len(lines) == 4 * 6
        header = (study["out"] / "summary.csv").read_text().splitlines()[0]
        assert header.startswith("# config_fingerprint=")

    def test_run_manifest_contents(self, study):
        payload = json.loads((study["out"] / "run_manifest.json").read_text())
        assert payload["inputs"]["subjects"] == ["h01", "h02", "a01", "a02"]
        assert payload["outputs"]["epochs"] == 24
        assert payload["config"]["max_separation"] == 0.7

    def test_rerun_is_byte_identical(self, study):
        out2 = study["root"] / "out2"
        proc = run_cli("analyze", "--manifest", str(study["manifest"]),
                       "--out", str(out2), "--max-separation", "0.7")
        assert proc.returncode == 0, proc.stderr
        for name in ("epoch_indices.ndjson", "summary.csv", "pvalues.csv", "run_manifest.json"):
            assert (out2 / name).read_bytes() == (study["out"] / name).read_bytes()

    def test_parallel_run_matches_serial(self, study):
        out3 = study["root"] / "out3"
        proc = run_cli("analyze", "--manifest", str(study["manifest"]),
                       "--out", str(out3), "--max-separation", "0.7", "--jobs", "2")
        assert proc.returncode == 0, proc.stderr
        assert (out3 / "epoch_indices.ndjson").read_bytes() == (
            study["out"] / "epoch_indices.ndjson"
        ).read_bytes()

    def test_bad_manifest_writes_nothing(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"subject_id": "x", "group": "Healthy",
             "signal_path": "missing.csv", "hypnogram_path": "missing.csv"},
        ]))
        out = tmp_path / "out"
        proc = run_cli("analyze", "--manifest", str(manifest), "--out", str(out))
        assert proc.returncode == 3
        assert not out.exists()

    def test_window_whose_squares_overflow_fails_its_indices(self, tmp_path):
        # Scaled by 1e154 a 10 Hz Lorenz window once made the Wolf walk
        # raise scipy's ValueError, which aborted the run with exit 4.
        window = generate(GeneratorSpec("lorenz", 600, seed=1, transient_skip=1000, parameters={"fs": 10.0}))
        write_signal_csv(tmp_path / "s.csv", TimeSeries(window.samples * 1e154, 10.0), {"channel": "C3"})
        write_hypnogram_csv(tmp_path / "s_stages.csv", (SleepStage.S2, SleepStage.REM))
        (tmp_path / "m.json").write_text(json.dumps([
            {"subject_id": "s", "group": "Healthy", "signal_path": "s.csv", "hypnogram_path": "s_stages.csv"},
        ]))
        proc = run_cli("analyze", "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in (tmp_path / "out" / "epoch_indices.ndjson").read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert sorted(record["failures"]) == ["d2", "lle", "med", "mi"]
            assert all("overflow float64" in reason for reason in record["failures"].values())

    def test_bad_jobs_exits_4(self, study):
        proc = run_cli("analyze", "--manifest", str(study["manifest"]),
                       "--out", str(study["root"] / "nowhere"), "--jobs", "0")
        assert proc.returncode == 4
        assert stderr_error(proc)["message"] == "--jobs must be an integer >= 1, got 0"

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_bad_hist_bins_exits_4_writing_nothing(self, study, tmp_path, command):
        source = (("--manifest", str(study["manifest"])) if command == "analyze"
                  else ("--epochs", str(study["out"] / "epoch_indices.ndjson")))
        out = tmp_path / "out"
        proc = run_cli(command, *source, "--out", str(out), "--hist-bins", "0")
        assert proc.returncode == 4
        assert "--hist-bins" in stderr_error(proc)["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--n-radii", "4"), ("--evolve-steps", "0"), ("--bins", "1"), ("--max-angle", "4"),
         ("--mi-max-lag", "1"), ("--theiler-max-lag", "0"), ("--m-max", "2"),
         ("--plateau-tol", "0"), ("--e2-tol", "nan"), ("--min-fit-r2", "1.01"),
         ("--min-fit-r2", "nan")],
    )
    def test_unusable_config_exits_4_writing_nothing(self, study, tmp_path, flag, value):
        out = tmp_path / "out"
        proc = run_cli("analyze", "--manifest", str(study["manifest"]),
                       "--out", str(out), flag, value)
        assert proc.returncode == 4
        assert stderr_error(proc)["type"] == "ConfigError"
        assert not out.exists()


class TestReport:
    def test_rebuilds_identical_tables(self, study):
        out = study["root"] / "rebuilt"
        proc = run_cli("report", "--epochs", str(study["out"] / "epoch_indices.ndjson"),
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        for name in ("summary.csv", "pvalues.csv"):
            assert (out / name).read_bytes() == (study["out"] / name).read_bytes()
        ours = sorted(p.name for p in (out / "histograms").glob("*.csv"))
        theirs = sorted(p.name for p in (study["out"] / "histograms").glob("*.csv"))
        assert ours == theirs
        for name in ours:
            assert (out / "histograms" / name).read_bytes() == (
                study["out"] / "histograms" / name
            ).read_bytes()

    def test_unknown_stage_and_groupless_records_reach_no_table(self, study, tmp_path):
        # Each record again under the Unknown stage, and again with no
        # group: counted anywhere, either copy would move a table.
        lines = (study["out"] / "epoch_indices.ndjson").read_text().splitlines()
        extra = []
        for line in lines:
            record = json.loads(line)
            extra += [json.dumps({**record, "stage": "Unknown"}), json.dumps({**record, "group": None})]
        padded = tmp_path / "padded.ndjson"
        padded.write_text("\n".join(lines + extra) + "\n")
        for source, out in ((study["out"] / "epoch_indices.ndjson", "plain"), (padded, "padded")):
            proc = run_cli("report", "--epochs", str(source), "--out", str(tmp_path / out))
            assert proc.returncode == 0, proc.stderr
        assert report_tables(tmp_path / "padded") == report_tables(tmp_path / "plain")

    def test_report_over_an_analyze_directory_leaves_no_stale_histogram(self, tmp_path):
        # The 12-epoch study's 8 S2 records, reported into its own analyze
        # directory, once left the 35 histograms of the other stages in
        # place beside the 7 it wrote.
        manifest = build_sleep_fixture(tmp_path)
        out = tmp_path / "out"
        proc = run_cli("analyze", "--manifest", str(manifest), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(list((out / "histograms").glob("hist_*.csv"))) == 42
        (out / "histograms" / "notes.csv").write_text("kept\n")
        before = json.loads((out / "run_manifest.json").read_text())
        lines = (out / "epoch_indices.ndjson").read_text().splitlines()
        s2 = tmp_path / "s2.ndjson"
        s2.write_text("".join(f"{line}\n" for line in lines if json.loads(line)["stage"] == "S2"))
        for target in (out, tmp_path / "fresh"):
            proc = run_cli("report", "--epochs", str(s2), "--out", str(target))
            assert proc.returncode == 0, proc.stderr
        assert report_tables(out) == report_tables(tmp_path / "fresh")
        assert len(list((out / "histograms").glob("hist_*.csv"))) == 7
        # Nothing else goes.
        assert (out / "histograms" / "notes.csv").read_text() == "kept\n"
        assert (out / "epoch_indices.ndjson").read_text().splitlines() == lines
        # The manifest counts the new tables, and once left the old
        # counts (48 epochs, 42 histograms) in place; a fresh directory
        # gets none.
        after = json.loads((out / "run_manifest.json").read_text())
        assert after == {**before, "outputs": {
            "epochs": 8,
            "epochs_with_failures": sum(1 for line in s2.read_text().splitlines() if json.loads(line)["failures"]),
            "summary_rows": len((out / "summary.csv").read_text().splitlines()) - 2,
            "comparisons": len((out / "pvalues.csv").read_text().splitlines()) - 2,
            "histograms": 7,
        }}
        assert not (tmp_path / "fresh" / "run_manifest.json").exists()

    @pytest.mark.parametrize("manifest", ["{not json", '{"outputs": {}}', "other fingerprint"])
    def test_unusable_manifest_in_out_refused_before_any_table(self, study, tmp_path, manifest):
        out = tmp_path / "out"
        shutil.copytree(study["out"], out)
        path = out / "run_manifest.json"
        if manifest == "other fingerprint":
            manifest = json.dumps({**json.loads(path.read_text()), "config_fingerprint": "0" * 64})
        path.write_text(manifest)
        tables = report_tables(out)
        lines = (out / "epoch_indices.ndjson").read_text().splitlines()
        s2 = tmp_path / "s2.ndjson"
        s2.write_text("".join(f"{line}\n" for line in lines if json.loads(line)["stage"] == "S2"))
        proc = run_cli("report", "--epochs", str(s2), "--out", str(out))
        assert proc.returncode == 3
        assert "run manifest" in stderr_error(proc)["message"]
        assert report_tables(out) == tables
        assert path.read_text() == manifest

    def test_mixed_fingerprints_refused(self, study, tmp_path):
        lines = (study["out"] / "epoch_indices.ndjson").read_text().splitlines()
        record = json.loads(lines[0])
        record["config_fingerprint"] = "0" * 64
        lines[0] = json.dumps(record)
        mixed = tmp_path / "mixed.ndjson"
        mixed.write_text("\n".join(lines) + "\n")
        proc = run_cli("report", "--epochs", str(mixed), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert "mixes" in stderr_error(proc)["message"]

    def test_empty_epoch_file_refused(self, tmp_path):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        proc = run_cli("report", "--epochs", str(empty), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
