"""File formats: round trips, validation, and report tables."""

import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit.cli import main as cli_main
from chaoskit.errors import ConfigError, InputError
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
from chaoskit.sleep import EpochIndices, EstimatorConfig, Group, SleepStage, parse_group
from chaoskit.information import DiscreteDistribution
from chaoskit.stats import ComparisonResult, GroupSummary

from conftest import build_sleep_fixture, traced_peak
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

    def test_writer_failing_halfway_leaves_no_file(self, tmp_path):
        def epochs():
            yield make_epoch()
            raise RuntimeError("window failed")

        target = tmp_path / "epochs.ndjson"
        with pytest.raises(RuntimeError, match="window failed"):
            write_epochs_ndjson(target, epochs())
        assert os.listdir(tmp_path) == []
        write_epochs_ndjson(target, [make_epoch(epoch_index=9)])
        before = target.read_bytes()
        with pytest.raises(RuntimeError, match="window failed"):
            write_epochs_ndjson(target, epochs())
        assert os.listdir(tmp_path) == ["epochs.ndjson"]
        assert target.read_bytes() == before


class TestStreaming:
    """Large files are written and read without a second copy of the file
    in memory: the writers allocate a constant beyond their inputs, and a
    one-column read holds about one samples array."""

    SMALL_CONSTANT = 256 * 1024

    def test_ndjson_write_allocates_a_constant(self, tmp_path):
        epochs = [make_epoch(epoch_index=k) for k in range(5000)]
        path = tmp_path / "epochs.ndjson"
        peak = traced_peak(lambda: write_epochs_ndjson(path, epochs))
        assert path.stat().st_size > 6 * self.SMALL_CONSTANT
        assert peak < self.SMALL_CONSTANT

    def test_signal_write_allocates_a_constant(self, tmp_path):
        series = TimeSeries(np.random.default_rng(3).standard_normal(100_000), 100.0)
        path = tmp_path / "sig.csv"
        peak = traced_peak(lambda: write_signal_csv(path, series, {"channel": "C3"}))
        assert path.stat().st_size > 6 * self.SMALL_CONSTANT
        assert peak < self.SMALL_CONSTANT

    def test_one_column_read_holds_one_samples_array(self, tmp_path):
        x = np.random.default_rng(4).standard_normal(200_000)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, TimeSeries(x, 100.0))
        peak = traced_peak(lambda: read_signal_csv(path))
        # Two copies of the samples would be 2.0 x nbytes.
        assert peak < 1.5 * x.nbytes
        series, _ = read_signal_csv(path)
        np.testing.assert_array_equal(series.samples, x)
        assert series.samples.flags.c_contiguous


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


class TestChannelRule:
    """One rule for any column count: names from 'channels', or from
    'channel' alone; both must agree; names match the columns; several
    columns need a pick; a pick must be a declared name."""

    @pytest.mark.parametrize(
        "header, channel",
        [
            ("# channels=C3,C4", None),  # two names for one column, once read as C3
            ("# channels=C3,C4", "C4"),  # once read the only column as C4
            ("# channels=", None),  # no name for one column
        ],
    )
    def test_names_must_match_one_column(self, tmp_path, header, channel):
        path = tmp_path / "sig.csv"
        path.write_text(f"# fs=10\n{header}\n1.0\n2.0\n")
        names = header.partition("=")[2]
        count = len([n for n in names.split(",") if n])
        with pytest.raises(InputError, match=rf"^signal file {re.escape(str(path))}: {count} channel names for 1 columns$"):
            read_signal_csv(path, channel=channel)

    @pytest.mark.parametrize("channel", [None, "C3", "C4"])
    def test_channel_and_channels_must_agree(self, tmp_path, channel):
        # Once read as C3 whatever 'channels' said, and refused only a
        # request for another name.
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n# channel=C3\n# channels=C4\n1.0\n2.0\n")
        with pytest.raises(InputError, match=r"declares channel 'C3' but channels C4$"):
            read_signal_csv(path, channel=channel)

    def test_two_columns_need_one_name_each_even_with_channel(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n# channel=C3\n# channels=C3,C4\n1.0,10.0\n2.0,20.0\n")
        with pytest.raises(InputError, match=r"declares channel 'C3' but channels C3, C4$"):
            read_signal_csv(path, channel="C3")

    @pytest.mark.parametrize("header", ["# channel=C3", "# channels=C3", "# channel=C3\n# channels=C3"])
    def test_one_declared_name_reads_under_it(self, tmp_path, header):
        path = tmp_path / "sig.csv"
        path.write_text(f"# fs=10\n{header}\n1.0\n2.0\n")
        for channel in (None, "C3"):
            series, _ = read_signal_csv(path, channel=channel)
            np.testing.assert_array_equal(series.samples, [1.0, 2.0])
        with pytest.raises(InputError, match=r"holds channel 'C3', not the requested 'C4'$"):
            read_signal_csv(path, channel="C4")

    @pytest.mark.parametrize(
        "body, channel, message",
        [
            ("# channel=C3\n1.0\n", "C4", "{path} holds channel 'C3', not the requested 'C4'"),
            ("# channels=C3\n1.0\n", "C4", "{path} holds channel 'C3', not the requested 'C4'"),
            ("1.0,10.0\n", "C3", "{path} has 2 columns but no '# channels=' metadata"),
            ("# channel=C3\n1.0,10.0\n", "C3", "{path} has 2 columns but no '# channels=' metadata"),
            ("# channels=C3\n1.0,10.0\n", "C3", "{path}: 1 channel names for 2 columns"),
            ("# channels=C3,C4\n1.0,10.0\n", None, "{path} is multi-channel (C3, C4); pick one explicitly"),
            ("# channels=C3,C4\n1.0,10.0\n", "O2", "{path} has no channel 'O2'; available: C3, C4"),
        ],
    )
    def test_refusals_keep_their_text(self, tmp_path, body, channel, message):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=10\n" + body)
        with pytest.raises(InputError) as info:
            read_signal_csv(path, channel=channel)
        assert str(info.value) == "signal file " + message.format(path=path)

    @pytest.mark.parametrize("names, channel", [("C3,C3", "C3"), ("C3,C4,C3", "C4"), ("C3,C4,C4", None)])
    def test_repeated_names_refused(self, tmp_path, capsys, names, channel):
        # '# channels=C3,C3' with a C3 pick once read column 0 silently:
        # the repeated name left the pick to be guessed.
        columns = names.split(",")
        path = tmp_path / "sig.csv"
        path.write_text(f"# fs=10\n# channels={names}\n" + ",".join(["1.0"] * len(columns)) + "\n")
        with pytest.raises(InputError) as info:
            read_signal_csv(path, channel=channel)
        assert str(info.value) == f"signal file {path} names channel {columns[-1]!r} twice"
        argv = ["estimate", "--estimator", "mi", "--input", str(path)]
        assert cli_main(argv + (["--channel", channel] if channel else [])) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"


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

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "stages.csv"
        path.write_bytes(b"0,W\n1,\xff\n")
        with pytest.raises(InputError, match="cannot read hypnogram"):
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

    def test_undecodable_manifest_exits_3(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_bytes(b'[{"subject_id": "\xff"}]')
        with pytest.raises(InputError, match="cannot read manifest"):
            read_manifest(path)
        assert cli_main(["analyze", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"
        assert not (tmp_path / "out").exists()

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
        with pytest.raises(InputError) as info:
            read_manifest(path)
        assert str(info.value) == (
            f"manifest {path}: entry 0 field 'group': unknown group 'Control'; expected 'Healthy' or 'Apnea'"
        )

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

    ENTRY = {"subject_id": "x", "group": "Healthy", "signal_path": "x.csv", "hypnogram_path": "x_stages.csv"}

    @pytest.mark.parametrize(
        "key, value",
        [
            ("subject_id", None),
            ("subject_id", 7),
            ("group", 7),
            ("group", None),
            ("signal_path", None),
            ("hypnogram_path", ["x.csv"]),
            ("channel", None),
            ("channel", 3),
        ],
    )
    def test_non_string_value_exits_3(self, tmp_path, capsys, key, value):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([self.ENTRY, {**self.ENTRY, "subject_id": "y", key: value}]))
        expected = f"manifest {path}: entry 1 field {key!r} must be a string, got {value!r}"
        with pytest.raises(InputError) as info:
            read_manifest(path)
        assert str(info.value) == expected
        assert cli_main(["analyze", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == {"type": "input", "message": expected}
        assert not (tmp_path / "out").exists()

    def test_null_subject_ids_exit_3(self, tmp_path, capsys):
        # Two null ids used to run as one subject "None" in both groups.
        manifest = build_sleep_fixture(tmp_path, n_epochs=2)
        entries = json.loads(Path(manifest).read_text())
        entries[0]["subject_id"] = entries[2]["subject_id"] = None
        Path(manifest).write_text(json.dumps(entries))
        assert cli_main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 3
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == f"manifest {manifest}: entry 0 field 'subject_id' must be a string, got None"
        assert not (tmp_path / "out").exists()

    def test_empty_subject_id_exits_3(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{**self.ENTRY, "subject_id": ""}]))
        with pytest.raises(InputError, match=r": entry 0 has an empty subject_id$"):
            read_manifest(path)

    def test_repeated_subject_id_exits_3(self, tmp_path, capsys):
        manifest = build_sleep_fixture(tmp_path, n_epochs=2)
        entries = json.loads(Path(manifest).read_text())
        entries[3]["subject_id"] = entries[1]["subject_id"]
        Path(manifest).write_text(json.dumps(entries))
        expected = f"manifest {manifest}: entry 3 repeats subject_id 'h02'"
        with pytest.raises(InputError) as info:
            read_manifest(manifest)
        assert str(info.value) == expected
        assert cli_main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["message"] == expected
        assert not (tmp_path / "out").exists()

    def test_channel_may_be_left_out(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([self.ENTRY, {**self.ENTRY, "subject_id": "y", "channel": "C4"}]))
        assert [spec.channel for spec in read_manifest(path)] == [None, "C4"]


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("5", "not a JSON object"),
            ('"x"', "not a JSON object"),
            ("[1]", "not a JSON object"),
            ({"group": 7}, "unknown group 7"),
            ({"lle": "abc"}, "'lle' must be a finite number or null, got 'abc'"),
            ({"lle": True}, "'lle' must be a finite number or null, got True"),
            ({"d2": [1.0]}, "'d2' must be a finite number or null"),
            ({"failures": "none"}, "'failures' must be an object"),
            ("drop d2", "missing fields: d2"),
            ({"lle": math.nan}, "'lle' must be a finite number or null, got nan"),
            ({"e1_at_selected": -math.inf}, "'e1_at_selected' must be a finite number or null, got -inf"),
            ({"mi": 10**400}, "'mi' must be a finite number or null"),
            ({"subject_id": 5}, "'subject_id' must be a string, got 5"),
            ({"config_fingerprint": None}, "'config_fingerprint' must be a string, got None"),
            ({"epoch_index": [1]}, "'epoch_index' must be an integer >= 0, got [1]"),
            ({"epoch_index": -1}, "'epoch_index' must be an integer >= 0, got -1"),
            ({"sample_rate_hz": "x"}, "'sample_rate_hz' must be a finite number > 0, got 'x'"),
            ({"sample_rate_hz": 0}, "'sample_rate_hz' must be a finite number > 0, got 0"),
            ({"mi_lag": "abc"}, "'mi_lag' must be an integer or null, got 'abc'"),
            ({"med": 2.5}, "'med' must be an integer or null, got 2.5"),
            ({"embed_m": True}, "'embed_m' must be an integer or null, got True"),
            ({"deterministic": 1}, "'deterministic' must be a bool or null, got 1"),
            ({"failures": {"lle": 3}}, "'failures' must be an object of strings"),
        ],
        ids=["number", "string", "array", "group-7", "lle-abc", "lle-true", "d2-array", "failures-string",
             "missing-d2", "lle-nan", "e1-inf", "mi-huge", "subject-number", "fingerprint-null", "index-array",
             "index-negative", "rate-string", "rate-zero", "lag-string", "med-fraction", "embed-m-true",
             "deterministic-1", "failure-number"],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, capsys, bad, message):
        record = epoch_to_dict(make_epoch())
        if isinstance(bad, dict):
            line = json.dumps({**record, **bad})
        elif bad == "drop d2":
            record.pop("d2")
            line = json.dumps(record)
        else:
            line = bad
        path = tmp_path / "epochs.ndjson"
        path.write_text(json.dumps(epoch_to_dict(make_epoch())) + "\n\n" + line + "\n")
        with pytest.raises(InputError) as info:
            read_epochs_ndjson(path)
        assert str(info.value).startswith(f"epoch file {path}:3: ")
        assert message in str(info.value)
        assert cli_main(["report", "--epochs", str(path), "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"

    def test_undecodable_byte_after_the_first_block_exits_3(self, tmp_path, capsys):
        path = tmp_path / "epochs.ndjson"
        write_epochs_ndjson(path, [make_epoch(epoch_index=k) for k in range(100)])
        # Past the reader's first decoded block, so the error comes mid-iteration.
        assert path.stat().st_size > 32 * 1024
        path.write_bytes(path.read_bytes() + b'{"subject_id": "\xff"}\n')
        with pytest.raises(InputError, match="cannot read epoch file"):
            read_epochs_ndjson(path)
        assert cli_main(["report", "--epochs", str(path), "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "input"

    def test_only_line_ends_split_records(self, tmp_path):
        # Raw U+2028, U+2029 and U+0085 inside a string stay in their
        # record; \r\n and \r end lines as \n does.
        odd = make_epoch(subject_id="s\u2028\u2029\x85")
        lines = [json.dumps(epoch_to_dict(e), ensure_ascii=False) for e in (odd, make_epoch())]
        path = tmp_path / "epochs.ndjson"
        path.write_bytes((lines[0] + "\r\n" + lines[1] + "\r").encode("utf-8"))
        assert read_epochs_ndjson(path) == [odd, make_epoch()]


def _spelled(values: dict) -> dict:
    """A JSON record's values with known group and stage spellings made
    enums, the reader's one file-specific step; any other value is kept."""
    out = dict(values)
    try:
        out["group"] = None if out["group"] is None else parse_group(out["group"])
    except InputError:
        pass
    if out["stage"] in [s.value for s in SleepStage]:
        out["stage"] = SleepStage(out["stage"])
    return out


_VALID_JSON = epoch_to_dict(make_epoch())
# Values of every JSON kind, including the ones no field admits.
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=2**70) | st.just(10**400),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["Healthy", "Apnea", "S2", "Unknown"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.text(max_size=3) | st.integers(), max_size=2),
)
_PYTHON_VALUES = _JSON_VALUES | st.floats().map(np.float64) | st.sampled_from([*Group, *SleepStage])
_VALID_REALS = st.none() | st.floats(allow_nan=False, allow_infinity=False) | st.integers()
_VALID = {
    "subject_id": st.text(),
    "group": st.sampled_from([None, *Group]),
    "stage": st.sampled_from(list(SleepStage)),
    "epoch_index": st.integers(min_value=0, max_value=2**70),
    "sample_rate_hz": st.floats(min_value=1e-300, allow_infinity=False) | st.floats(1.0, 1e4).map(np.float64),
    "lle": _VALID_REALS | st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    "mi": _VALID_REALS,
    "mi_lag": st.none() | st.integers(),
    "e1_at_selected": _VALID_REALS,
    "deterministic": st.sampled_from([None, True, False]),
    "failures": st.dictionaries(st.text(max_size=4), st.text(max_size=8), max_size=3),
}


class TestRecordRule:
    """The record's rules live in EpochIndices: what the reader refuses
    cannot be made, and what can be made reads back equal."""

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("lle", math.nan, "a finite number or null"),
            ("mi_lag", 2.0, "an integer or null"),
            ("embed_m", True, "an integer or null"),
            ("group", "Healthy", "a Group or null"),
            ("stage", "S2", "a SleepStage"),
            ("epoch_index", -1, "an integer >= 0"),
            ("sample_rate_hz", 0, "a finite number > 0"),
            ("sample_rate_hz", np.float64(math.inf), "a finite number > 0"),
            ("d2", np.float64(math.nan), "a finite number or null"),
            ("mi", 10**400, "a finite number or null"),
            ("subject_id", None, "a string"),
            ("deterministic", np.True_, "a bool or null"),
            ("failures", {"lle": 3}, "an object of strings"),
            ("failures", {1: "x"}, "an object of strings"),
            ("failures", [("lle", "x")], "an object of strings"),
        ],
    )
    def test_refused_with_the_reader_text(self, field, value, rule):
        with pytest.raises(ConfigError) as info:
            make_epoch(**{field: value})
        assert str(info.value) == f"epoch record field {field!r} must be {rule}, got {value!r}"

    def test_reader_reports_the_record_text(self):
        record = {**epoch_to_dict(make_epoch()), "mi_lag": 2.0}
        with pytest.raises(InputError) as info:
            epoch_from_dict(record)
        assert str(info.value) == "epoch record field 'mi_lag' must be an integer or null, got 2.0"

    def test_numpy_reals_are_written_exactly(self, tmp_path):
        epoch = make_epoch(lle=np.float64(0.1), sample_rate_hz=np.float64(256.0), d2=-0.0)
        path = tmp_path / "epochs.ndjson"
        write_epochs_ndjson(path, [epoch])
        assert json.loads(path.read_text())["lle"] == 0.1
        assert read_epochs_ndjson(path) == [epoch]

    def test_failures_mapping_is_copied(self):
        failures = {"lle": "walk failed"}
        epoch = make_epoch(failures=failures)
        failures["mi"] = "later"
        assert epoch.failures == {"lle": "walk failed"}

    @given(st.fixed_dictionaries({}, optional={**_VALID}), st.sampled_from(sorted(_VALID_JSON)), _PYTHON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_every_record_made_reads_back_equal(self, valid, field, value):
        values = {**_spelled(_VALID_JSON), **valid}
        for candidate in (values, {**values, field: value}):
            try:
                epoch = EpochIndices(**candidate)
            except ConfigError:
                continue
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "epochs.ndjson"
                write_epochs_ndjson(path, [epoch])
                # Strict JSON: no NaN or Infinity token.
                json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(token))
                assert read_epochs_ndjson(path) == [epoch]

    @given(st.sampled_from(sorted(_VALID_JSON)), _JSON_VALUES)
    @settings(max_examples=500, deadline=None)
    def test_what_the_reader_refuses_cannot_be_made(self, field, value):
        record = {**_VALID_JSON, field: value}
        try:
            read = epoch_from_dict(record)
        except InputError as exc:
            with pytest.raises(ConfigError) as info:
                EpochIndices(**_spelled(record))
            if not str(exc).startswith("unknown "):  # a group or stage spelling
                assert str(info.value) == str(exc)
        else:
            assert EpochIndices(**_spelled(record)) == read


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
        hist = DiscreteDistribution(probabilities=[0.25, 0.75], bin_edges=[0.0, 0.5, 1.0])
        written = write_histogram_csvs(tmp_path, {("d2", SleepStage.REM, Group.HEALTHY): hist}, "abc123")
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
