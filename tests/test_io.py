"""File formats: round trips, validation, and report tables."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit.errors import InputError
from chaoskit.io import (
    REPORTED_P_FLOOR,
    atomic_write_text,
    epoch_from_dict,
    epoch_to_dict,
    format_float,
    load_recordings,
    read_epochs_ndjson,
    read_hypnogram_csv,
    read_manifest,
    read_signal_csv,
    write_epochs_ndjson,
    write_histogram_csvs,
    write_hypnogram_csv,
    write_pvalues_csv,
    write_run_manifest,
    write_signal_csv,
    write_table1_csv,
)
from chaoskit.series import TimeSeries
from chaoskit.sleep import EpochIndices, EstimatorConfig, Group, SleepStage
from chaoskit.stats import ComparisonResult, GroupSummary, Histogram

from conftest import build_sleep_fixture
from oracles import rowwise_read_signal_csv


def make_epoch(**overrides):
    fields = dict(
        subject_id="s1",
        group=Group.APNEA,
        stage=SleepStage.S2,
        epoch_index=3,
        sample_rate_hz=100.0,
        lle=1.234,
        mi=0.5,
        mi_lag=7,
        med=4,
        e1_at_selected=0.97,
        d2=1.21,
        theiler_w=12,
        embed_m=4,
        deterministic=True,
        failures={},
        config_fingerprint="f" * 64,
    )
    fields.update(overrides)
    return EpochIndices(**fields)


class TestFloatFormatting:
    @pytest.mark.parametrize(
        "x", [0.0, 1.0, math.pi, 1.0 / 3.0, 1e-300, 1.7976931348623157e308, -2.5e-17]
    )
    def test_named_round_trips(self, x):
        assert float(format_float(x)) == x

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_round_trips(self, x):
        assert float(format_float(x)) == x


class TestAtomicWrite:
    def test_writes_and_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"

    def test_overwrites(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "one\n")
        atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x\n")
        assert os.listdir(tmp_path) == ["out.txt"]


class TestSignalCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        series = TimeSeries(np.array([0.1, math.pi, -2.7e-13, 1e17]), 128.0)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, series, metadata={"channel": "C3"})
        back, metadata = read_signal_csv(path)
        np.testing.assert_array_equal(back.samples, series.samples)
        assert back.sample_rate_hz == 128.0
        assert metadata["channel"] == "C3"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n# note=hand written\n\n1.5\n\n2.5\n")
        series, metadata = read_signal_csv(path)
        np.testing.assert_array_equal(series.samples, [1.5, 2.5])
        assert metadata["note"] == "hand written"

    def test_missing_fs_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(InputError, match="fs"):
            read_signal_csv(path)

    def test_non_numeric_sample_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n1.0\noops\n")
        with pytest.raises(InputError, match="non-numeric"):
            read_signal_csv(path)

    def test_nan_sample_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n1.0\nnan\n")
        with pytest.raises(InputError):
            read_signal_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n")
        with pytest.raises(InputError, match="no samples"):
            read_signal_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            read_signal_csv(tmp_path / "absent.csv")

    def test_single_column_channel_checks(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n# channel=C3\n1.0\n2.0\n")
        series, _ = read_signal_csv(path, channel="C3")
        assert len(series) == 2
        with pytest.raises(InputError, match="C4"):
            read_signal_csv(path, channel="C4")

    def test_single_column_undeclared_accepts_any_request(self, tmp_path):
        # One column and no declared name: the request cannot conflict.
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n1.0\n2.0\n")
        series, _ = read_signal_csv(path, channel="C3")
        np.testing.assert_array_equal(series.samples, [1.0, 2.0])


class TestMultiChannel:
    def write_two_channel(self, path):
        path.write_text("# fs=10\n# channels=C3,C4\n1.0,10.0\n2.0,20.0\n3.0,30.0\n")

    def test_selects_named_column(self, tmp_path):
        path = tmp_path / "sig.csv"
        self.write_two_channel(path)
        c3, _ = read_signal_csv(path, channel="C3")
        c4, _ = read_signal_csv(path, channel="C4")
        np.testing.assert_array_equal(c3.samples, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(c4.samples, [10.0, 20.0, 30.0])

    def test_channel_must_be_named(self, tmp_path):
        path = tmp_path / "sig.csv"
        self.write_two_channel(path)
        with pytest.raises(InputError, match="pick one"):
            read_signal_csv(path)

    def test_unknown_channel_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        self.write_two_channel(path)
        with pytest.raises(InputError, match="no channel"):
            read_signal_csv(path, channel="O2")

    def test_columns_without_names_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n1.0,10.0\n2.0,20.0\n")
        with pytest.raises(InputError, match="channels"):
            read_signal_csv(path, channel="C3")

    def test_name_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n# channels=C3\n1.0,10.0\n")
        with pytest.raises(InputError, match="channel names"):
            read_signal_csv(path, channel="C3")

    def test_varying_width_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n# channels=C3,C4\n1.0,10.0\n2.0\n")
        with pytest.raises(InputError, match="varying width"):
            read_signal_csv(path, channel="C3")


def assert_same_bits(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSignalReaderParity:
    """The one-call numpy reader against the row-by-row oracle."""

    EXTREMES = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        2.2250738585072009e-308,  # largest subnormal
        -1.5e-310,
        2.2250738585072014e-308,  # smallest normal
        1.7976931348623157e308,
        -1.7976931348623157e308,
    ]

    def check(self, path, channel=None):
        series, metadata = read_signal_csv(path, channel=channel)
        samples, oracle_metadata = rowwise_read_signal_csv(path, channel=channel)
        assert_same_bits(series.samples, samples)
        assert metadata == oracle_metadata
        return series, metadata

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_written_floats_read_back_bit_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = np.concatenate([values[np.isfinite(values)], rng.standard_normal(500), self.EXTREMES])
        path = tmp_path / "sig.csv"
        written = {"channel": "C3", "note": "a=b, c", "fs": "ignored"}
        write_signal_csv(path, TimeSeries(values, 256.0), metadata=written)
        series, metadata = self.check(path)
        assert_same_bits(series.samples, values)
        assert metadata == {"fs": "256", "channel": "C3", "note": "a=b, c"}

    def test_crlf_blank_lines_and_padding(self, tmp_path):
        path = tmp_path / "sig.csv"
        text = "# fs = 10 \r\n\r\n#  note =  x \r\n 1.5 \r\n\r\n\t-2.25\r\n\r\n3e-5 \r\n\r\n"
        path.write_bytes(text.encode("utf-8"))
        series, metadata = self.check(path)
        assert_same_bits(series.samples, [1.5, -2.25, 3e-5])
        assert metadata == {"fs": "10", "note": "x"}

    @pytest.mark.parametrize("names", [("C3", "C4"), ("C3", "C4", "O1")])
    def test_each_channel_of_a_multichannel_file(self, tmp_path, names):
        rng = np.random.default_rng(len(names))
        table = rng.standard_normal((200, len(names))) * 10.0 ** rng.integers(-300, 300, size=(200, len(names)))
        lines = ["# fs=100", f"# channels={','.join(names)}"]
        lines += [" , ".join(format_float(v) for v in row) for row in table]
        path = tmp_path / "sig.csv"
        path.write_text("\n".join(lines) + "\n")
        for k, name in enumerate(names):
            series, _ = self.check(path, channel=name)
            assert_same_bits(series.samples, table[:, k])

    def test_selected_channel_owns_contiguous_float64(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n# channels=C3,C4,O1\n1,10,100\n2,20,200\n3,30,300\n")
        series, _ = read_signal_csv(path, channel="C4")
        samples = series.samples
        assert samples.dtype == np.float64
        assert samples.ndim == 1
        assert samples.flags.c_contiguous
        assert samples.flags.owndata
        np.testing.assert_array_equal(samples, [10.0, 20.0, 30.0])


class TestSignalReaderNarrowing:
    """Inputs the row-by-row reader accepted and the one-call reader
    refuses: metadata comes first, every column is numeric, and a sample
    is spelled the way numpy parses it."""

    def test_metadata_after_first_sample_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n1.0\n# note=late\n2.0\n")
        rowwise_read_signal_csv(path)
        with pytest.raises(InputError, match="non-numeric"):
            read_signal_csv(path)

    def test_non_numeric_unselected_column_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n# channels=C3,C4\n1.0,10.0\n2.0,bad\n")
        rowwise_read_signal_csv(path, channel="C3")
        with pytest.raises(InputError, match="non-numeric"):
            read_signal_csv(path, channel="C3")

    @pytest.mark.parametrize("spelling", ["1_0", "\u0661\u0662", "\uff11.5"])
    def test_spellings_only_float_accepts_rejected(self, tmp_path, spelling):
        path = tmp_path / "sig.csv"
        path.write_text(f"# fs=10\n1.0\n{spelling}\n", encoding="utf-8")
        rowwise_read_signal_csv(path)
        with pytest.raises(InputError, match="non-numeric"):
            read_signal_csv(path)

    def test_whitespace_only_body_line_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n1.0\n  \t \n2.0\n")
        rowwise_read_signal_csv(path)
        with pytest.raises(InputError, match="non-numeric"):
            read_signal_csv(path)

    def test_channel_choice_checked_before_body(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n# channels=C3,C4\n1.0,10.0\n2.0,bad\n3.0\n")
        with pytest.raises(InputError, match="pick one"):
            read_signal_csv(path)
        with pytest.raises(InputError, match="no channel"):
            read_signal_csv(path, channel="O2")

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_bytes(b"# fs=10\n1.0\n\xff\xfe\n")
        with pytest.raises(InputError, match="cannot read"):
            read_signal_csv(path)


class TestHypnogramCsv:
    def test_round_trip(self, tmp_path):
        stages = (
            SleepStage.WAKE,
            SleepStage.REM,
            SleepStage.S1,
            SleepStage.S4,
            SleepStage.UNKNOWN,
        )
        path = tmp_path / "stages.csv"
        write_hypnogram_csv(path, stages)
        assert read_hypnogram_csv(path) == stages

    def test_unrecognised_token_parses_as_unknown(self, tmp_path):
        path = tmp_path / "stages.csv"
        path.write_text("0,W\n1,MT\n2,2\n")
        assert read_hypnogram_csv(path) == (SleepStage.WAKE, SleepStage.UNKNOWN, SleepStage.S2)

    def test_indices_must_be_contiguous(self, tmp_path):
        path = tmp_path / "stages.csv"
        path.write_text("0,W\n2,W\n")
        with pytest.raises(InputError, match="0,1,2"):
            read_hypnogram_csv(path)

    def test_bad_index_rejected(self, tmp_path):
        path = tmp_path / "stages.csv"
        path.write_text("zero,W\n")
        with pytest.raises(InputError, match="bad epoch index"):
            read_hypnogram_csv(path)

    def test_bad_shape_rejected(self, tmp_path):
        path = tmp_path / "stages.csv"
        path.write_text("0,W,extra\n")
        with pytest.raises(InputError):
            read_hypnogram_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "stages.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(InputError, match="no epochs"):
            read_hypnogram_csv(path)


class TestManifest:
    def test_loads_fixture_study(self, tmp_path):
        manifest = build_sleep_fixture(tmp_path, n_epochs=2)
        recordings = load_recordings(manifest)
        assert [r.subject_id for r in recordings] == ["h01", "h02", "a01", "a02"]
        assert recordings[0].group is Group.HEALTHY
        assert recordings[2].group is Group.APNEA
        assert all(len(r.hypnogram) == 2 for r in recordings)

    def test_relative_paths_resolve_against_manifest(self, tmp_path):
        manifest = build_sleep_fixture(tmp_path, n_epochs=2)
        specs = read_manifest(manifest)
        assert specs[0].signal_path.parent == tmp_path

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"subject_id": "x", "group": "Healthy"}]))
        with pytest.raises(InputError, match="missing"):
            read_manifest(path)

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"subject_id": "x"}))
        with pytest.raises(InputError, match="array"):
            read_manifest(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[{broken")
        with pytest.raises(InputError, match="not valid JSON"):
            read_manifest(path)

    def test_unknown_group_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "subject_id": "x",
                        "group": "Control",
                        "signal_path": "a.csv",
                        "hypnogram_path": "b.csv",
                    }
                ]
            )
        )
        with pytest.raises(InputError, match="unknown group"):
            read_manifest(path)

    def test_load_is_all_or_nothing(self, tmp_path):
        manifest_path = build_sleep_fixture(tmp_path, n_epochs=2)
        entries = json.loads(Path(manifest_path).read_text())
        entries.append(
            {
                "subject_id": "ghost",
                "group": "Apnea",
                "signal_path": "missing.csv",
                "hypnogram_path": "missing_stages.csv",
            }
        )
        (tmp_path / "manifest.json").write_text(json.dumps(entries))
        with pytest.raises(InputError):
            load_recordings(manifest_path)

    def test_hypnogram_signal_mismatch_rejected(self, tmp_path):
        manifest_path = build_sleep_fixture(tmp_path, n_epochs=2)
        # Truncate one hypnogram to a single epoch.
        write_hypnogram_csv(tmp_path / "h01_stages.csv", (SleepStage.WAKE,))
        with pytest.raises(InputError, match="hypnogram"):
            load_recordings(manifest_path)


class TestEpochsNdjson:
    def test_round_trip(self, tmp_path):
        epochs = [
            make_epoch(),
            make_epoch(
                subject_id="s2",
                group=None,
                stage=SleepStage.UNKNOWN,
                lle=None,
                mi=None,
                med=None,
                d2=None,
                deterministic=None,
                failures={"lle": "walk failed", "mi": "too short"},
            ),
        ]
        path = tmp_path / "epochs.ndjson"
        write_epochs_ndjson(path, epochs)
        assert read_epochs_ndjson(path) == epochs

    def test_key_order_is_fixed(self, tmp_path):
        path = tmp_path / "epochs.ndjson"
        write_epochs_ndjson(path, [make_epoch()])
        line = path.read_text().splitlines()[0]
        assert list(json.loads(line).keys()) == [
            "subject_id",
            "group",
            "stage",
            "epoch_index",
            "sample_rate_hz",
            "lle",
            "lle_units",
            "mi",
            "mi_lag",
            "med",
            "e1_at_selected",
            "d2",
            "theiler_w",
            "embed_m",
            "deterministic",
            "failures",
            "config_fingerprint",
        ]

    def test_one_line_per_epoch(self, tmp_path):
        path = tmp_path / "epochs.ndjson"
        write_epochs_ndjson(path, [make_epoch(), make_epoch(epoch_index=4)])
        assert len(path.read_text().splitlines()) == 2

    def test_missing_field_rejected(self):
        record = epoch_to_dict(make_epoch())
        record.pop("d2")
        with pytest.raises(InputError, match="missing fields"):
            epoch_from_dict(record)

    def test_unknown_stage_rejected(self):
        record = epoch_to_dict(make_epoch())
        record["stage"] = "S9"
        with pytest.raises(InputError, match="unknown stage"):
            epoch_from_dict(record)

    def test_bad_json_line_reported(self, tmp_path):
        path = tmp_path / "epochs.ndjson"
        path.write_text('{"subject_id": "s1"}\nnot json\n')
        with pytest.raises(InputError):
            read_epochs_ndjson(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "epochs.ndjson"
        write_epochs_ndjson(path, [make_epoch()])
        path.write_text(path.read_text() + "\n\n")
        assert len(read_epochs_ndjson(path)) == 1


class TestReportTables:
    def test_table1_layout(self, tmp_path):
        summaries = [
            GroupSummary(
                mean=1.5, std=0.25, n=12, index_name="lle", group=Group.APNEA, stage=SleepStage.S2
            )
        ]
        path = tmp_path / "summary.csv"
        write_table1_csv(path, summaries, "abc123")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_fingerprint=abc123"
        assert lines[1] == "index,stage,group,mean,std,n"
        fields = lines[2].split(",")
        assert fields[:3] == ["lle", "S2", "Apnea"]
        assert float(fields[3]) == 1.5
        assert float(fields[4]) == 0.25
        assert fields[5] == "12"

    def test_pvalues_floor_reported_only(self, tmp_path):
        comparisons = [
            ComparisonResult(
                stage=SleepStage.WAKE,
                index_name="lle",
                t_value=9.0,
                degrees_of_freedom=20.0,
                p_value=1e-9,
            ),
            ComparisonResult(
                stage=SleepStage.REM,
                index_name="mi",
                t_value=0.5,
                degrees_of_freedom=18.0,
                p_value=0.31,
            ),
        ]
        path = tmp_path / "pvalues.csv"
        write_pvalues_csv(path, comparisons, "abc123")
        lines = path.read_text().splitlines()
        assert lines[1] == "stage,index,t_value,df,p_raw,p_reported"
        first = lines[2].split(",")
        assert float(first[4]) == 1e-9  # raw survives
        assert float(first[5]) == REPORTED_P_FLOOR
        second = lines[3].split(",")
        assert float(second[4]) == 0.31
        assert float(second[5]) == 0.31

    def test_histogram_files_named_by_cell(self, tmp_path):
        hist = Histogram(
            bin_edges=[0.0, 0.5, 1.0],
            relative_frequencies=[0.25, 0.75],
            index_name="d2",
            group=Group.HEALTHY,
            stage=SleepStage.REM,
        )
        written = write_histogram_csvs(tmp_path, [hist], "abc123")
        assert [p.name for p in written] == ["hist_d2_REM_Healthy.csv"]
        lines = written[0].read_text().splitlines()
        assert lines[1] == "bin_left,bin_right,relative_frequency"
        assert len(lines) == 4

    def test_run_manifest_bytes_stable(self, tmp_path):
        config = EstimatorConfig()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            write_run_manifest(
                target,
                config.as_dict(),
                config.fingerprint(),
                inputs={"manifest": "m.json"},
                outputs={"epochs": "epoch_indices.ndjson"},
            )
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["config_fingerprint"] == config.fingerprint()
        assert set(payload) == {"config", "config_fingerprint", "inputs", "outputs"}
