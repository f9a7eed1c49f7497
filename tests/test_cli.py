"""End-to-end command-line runs through ``python -m chaoskit``.

These stay structural on purpose: exit codes, JSON shape, files on
disk, byte-level determinism. Numeric behaviour of the estimators is
covered by the per-module tests.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from chaoskit.cli import _config_from_args, build_parser
from chaoskit.io import read_signal_csv, write_signal_csv
from chaoskit.series import TimeSeries
from chaoskit.sleep import EstimatorConfig, compute_epoch_indices

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
        assert len(flags) == len(config.as_dict())

    def test_config_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["estimate", "--estimator", "lag", "--input", "x.csv"])
        assert _config_from_args(args) == EstimatorConfig()

    def test_import_leaves_scipy_stats_and_signal_unloaded(self):
        code = (
            "import sys, chaoskit.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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
