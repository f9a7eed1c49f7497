"""File formats: signal CSV, hypnogram CSV, manifest JSON, NDJSON, reports.

Signal files are one sample per line with ``#``-prefixed ``key=value``
metadata lines up front (``# fs=100`` is required to rebuild a series);
every line after the first sample is a sample, and numpy parses them
all in one call.
Multi-channel files declare ``# channels=A,B`` and put one column per
channel on each line; a channel must then be named explicitly, it is
never guessed.

Hypnograms are ``epoch_index,stage_token`` rows with tokens
W R 1 2 3 4 ? counted from epoch 0; unrecognised tokens parse as
Unknown rather than failing the file.

Epoch files are NDJSON: one JSON object per line, one line per window.
A line is what the file's own line ends (LF, CR LF or CR) delimit; no
other character, such as U+2028 or a form feed, splits a record. The
writer escapes every non-ASCII character, so it never emits one that
another reader might take for a line break.

All numeric output is serialised with 17 significant digits so a
written value reparses to the identical float. Writers go through a
temp-file-and-rename so a crash never leaves a half-written table, and
every report carries the configuration fingerprint of the run that
produced it; a report run leaves no histogram file of an earlier run
beside its own. Large files are streamed: the signal and NDJSON writers
write one sample or record per line as they go, the NDJSON reader
parses the open file line by line, and a signal read keeps only the
selected channel's samples, so no file is held twice in memory.
"""

from __future__ import annotations

import json
import operator
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ConfigError, InputError
from .information import DiscreteDistribution
from .series import TimeSeries
from .sleep import (
    EpochIndices,
    Group,
    Recording,
    SleepStage,
    parse_group,
    parse_stage_token,
    stage_token,
)
from .stats import ComparisonResult, GroupSummary

__all__ = [
    "REPORTED_P_FLOOR",
    "atomic_write_text",
    "format_float",
    "read_signal_csv",
    "write_signal_csv",
    "read_hypnogram_csv",
    "write_hypnogram_csv",
    "RecordingSpec",
    "read_manifest",
    "load_recordings",
    "epoch_to_dict",
    "epoch_from_dict",
    "write_epochs_ndjson",
    "read_epochs_ndjson",
    "write_table1_csv",
    "write_pvalues_csv",
    "write_histogram_csvs",
    "read_run_manifest",
    "write_run_manifest",
]

# Smallest p-value shown in the report-shaped table; the raw value is
# kept alongside it.
REPORTED_P_FLOOR = 0.0005


def format_float(x: float) -> str:
    """17 significant digits: enough for float64 round-trip fidelity."""
    return format(float(x), ".17g")


@contextmanager
def _atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A text handle on a sibling temp file that replaces ``path`` when
    the block ends; if the block raises, the temp file is removed and
    ``path`` is left as it was, so readers never see a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see
    a partial file."""
    with _atomic_open(path) as handle:
        handle.write(text)


def read_signal_csv(path: str | Path, channel: str | None = None) -> tuple[TimeSeries, dict]:
    """Parse a signal file into a series plus its metadata dict.

    The metadata lines and the first sample line are read in Python;
    every sample line is then parsed by one ``np.loadtxt`` call, so the
    metadata must all come before the first sample, and every column
    must hold numbers even when another channel is selected.

    One channel rule holds for any number of columns. The names come
    from ``# channels=``, or from ``# channel=`` when only that is given;
    a file giving both must name the same single channel in each.
    Declared names must be distinct and match the columns, a
    multi-column file needs a ``channel`` pick, and a pick must be a
    declared name. A one-column file without names reads under any
    requested name.

    Raises
    ------
    InputError
        On unreadable files, malformed rows, missing ``fs`` metadata,
        or a missing/ambiguous channel selection.
    """
    path = Path(path)
    metadata: dict[str, str] = {}
    header_lines = 0
    n_cols = 0
    try:
        with open(path, encoding="utf-8") as handle:
            # Blank and '#' lines up to the first sample; '# key=value'
            # lines among them are the metadata.
            for raw in handle:
                line = raw.strip()
                if line and not line.startswith("#"):
                    n_cols = line.count(",") + 1
                    break
                header_lines += 1
                key, eq, value = line[1:].partition("=")
                if eq:
                    metadata[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read signal file {path}: {exc}") from exc
    if n_cols == 0:
        raise InputError(f"signal file {path} has no samples")

    declared = metadata.get("channel")
    names = [declared] if declared is not None else None
    if "channels" in metadata:
        names = [c.strip() for c in metadata["channels"].split(",") if c.strip()]
        if len(names) != n_cols:
            raise InputError(f"signal file {path}: {len(names)} channel names for {n_cols} columns")
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise InputError(f"signal file {path} names channel {repeated[0]!r} twice")
        if declared is not None and names != [declared]:
            raise InputError(f"signal file {path} declares channel {declared!r} but channels {', '.join(names)}")
    elif n_cols > 1:
        raise InputError(f"signal file {path} has {n_cols} columns but no '# channels=' metadata")
    if n_cols > 1 and channel is None:
        raise InputError(f"signal file {path} is multi-channel ({', '.join(names)}); pick one explicitly")
    if channel is not None and names is not None and channel not in names:
        if n_cols == 1:
            raise InputError(f"signal file {path} holds channel {names[0]!r}, not the requested {channel!r}")
        raise InputError(f"signal file {path} has no channel {channel!r}; available: {', '.join(names)}")
    col = 0 if channel is None or names is None else names.index(channel)

    # Parsed from the path, not from the open handle: numpy reads a path
    # in large blocks but iterates a handle one line at a time.
    try:
        table = np.loadtxt(
            path,
            delimiter=",",
            comments=None,
            skiprows=header_lines,
            ndmin=2,
            dtype=np.float64,
            encoding="utf-8",
        )
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read signal file {path}: {exc}") from exc
    except ValueError as exc:
        if "number of columns changed" in str(exc):
            raise InputError(f"signal file {path} has rows of varying width") from exc
        raise InputError(f"signal file {path} has a non-numeric sample: {exc}") from exc
    # A strided column of a multi-channel table is copied, so no other
    # channel stays alive; a one-column table is already the samples.
    samples = np.ascontiguousarray(table[:, col])

    if "fs" not in metadata:
        raise InputError(f"signal file {path} is missing '# fs=' metadata")
    try:
        fs = float(metadata["fs"])
    except ValueError as exc:
        raise InputError(f"signal file {path} has a non-numeric fs: {metadata['fs']!r}") from exc
    try:
        series = TimeSeries(samples=samples, sample_rate_hz=fs)
    except Exception as exc:
        raise InputError(f"signal file {path}: {exc}") from exc
    return series, metadata


def write_signal_csv(path: str | Path, series: TimeSeries, metadata: dict | None = None) -> None:
    """Write a single-channel signal file; ``fs`` is always recorded."""
    with _atomic_open(path) as handle:
        handle.write(f"# fs={format_float(series.sample_rate_hz)}\n")
        for key, value in (metadata or {}).items():
            if key != "fs":
                handle.write(f"# {key}={value}\n")
        for v in series.samples:
            handle.write(format_float(v) + "\n")


def read_hypnogram_csv(path: str | Path) -> tuple[SleepStage, ...]:
    """Parse ``epoch_index,stage_token`` rows counted from zero."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read hypnogram {path}: {exc}") from exc
    stages: list[SleepStage] = []
    expected = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(f"hypnogram {path}:{lineno}: expected 'epoch_index,token'")
        try:
            idx = int(parts[0])
        except ValueError as exc:
            raise InputError(f"hypnogram {path}:{lineno}: bad epoch index {parts[0]!r}") from exc
        if idx != expected:
            raise InputError(
                f"hypnogram {path}:{lineno}: epoch indices must run 0,1,2,... (got {idx}, expected {expected})"
            )
        stages.append(parse_stage_token(parts[1]))
        expected += 1
    if not stages:
        raise InputError(f"hypnogram {path} has no epochs")
    return tuple(stages)


def write_hypnogram_csv(path: str | Path, stages: Sequence[SleepStage]) -> None:
    lines = [f"{k},{stage_token(stage)}" for k, stage in enumerate(stages)]
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class RecordingSpec:
    """One manifest entry, with paths resolved against the manifest."""

    subject_id: str
    group: Group
    signal_path: Path
    hypnogram_path: Path
    channel: str | None


def read_manifest(path: str | Path) -> list[RecordingSpec]:
    """Parse a manifest: a JSON array of recording entries.

    Each entry needs the strings ``subject_id`` (non-empty and not
    repeated: it names the entry's windows), ``group``, ``signal_path``
    and ``hypnogram_path``; a ``channel`` string is optional. Relative
    paths are resolved against the manifest's own directory.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise InputError(f"manifest {path} must be a non-empty JSON array")
    base = path.parent
    specs: dict[str, RecordingSpec] = {}
    for pos, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise InputError(f"manifest {path}: entry {pos} is not an object")
        missing = [k for k in ("subject_id", "group", "signal_path", "hypnogram_path") if k not in entry]
        if missing:
            raise InputError(f"manifest {path}: entry {pos} is missing {', '.join(missing)}")
        for key in ("subject_id", "group", "signal_path", "hypnogram_path", "channel"):
            if key in entry and type(entry[key]) is not str:
                raise InputError(f"manifest {path}: entry {pos} field {key!r} must be a string, got {entry[key]!r}")
        subject_id = entry["subject_id"]
        if not subject_id:
            raise InputError(f"manifest {path}: entry {pos} has an empty subject_id")
        if subject_id in specs:
            raise InputError(f"manifest {path}: entry {pos} repeats subject_id {subject_id!r}")
        try:
            group = parse_group(entry["group"])
        except InputError as exc:
            raise InputError(f"manifest {path}: entry {pos} field 'group': {exc}") from None
        specs[subject_id] = RecordingSpec(
            subject_id,
            group,
            base / entry["signal_path"],
            base / entry["hypnogram_path"],
            entry.get("channel"),
        )
    return list(specs.values())


def load_recordings(manifest_path: str | Path) -> list[Recording]:
    """Read every recording a manifest names. All-or-nothing: any
    unreadable file fails the whole load before analysis starts."""
    recordings = []
    for spec in read_manifest(manifest_path):
        series, _meta = read_signal_csv(spec.signal_path, channel=spec.channel)
        hypnogram = read_hypnogram_csv(spec.hypnogram_path)
        try:
            recordings.append(
                Recording(
                    subject_id=spec.subject_id,
                    group=spec.group,
                    series=series,
                    hypnogram=hypnogram,
                )
            )
        except InputError:
            raise
        except Exception as exc:
            raise InputError(f"recording {spec.subject_id!r}: {exc}") from exc
    return recordings


# Record keys, in the field order of EpochIndices, and a getter of their
# values in that order, which is the order of its positional arguments.
_EPOCH_KEYS = tuple(f.name for f in fields(EpochIndices))
_EPOCH_VALUES = operator.itemgetter(*_EPOCH_KEYS)
_GROUP_AT, _STAGE_AT = _EPOCH_KEYS.index("group"), _EPOCH_KEYS.index("stage")


def epoch_to_dict(epoch: EpochIndices) -> dict:
    """JSON-ready dict with a fixed key order."""
    record = {name: getattr(epoch, name) for name in _EPOCH_KEYS}
    record["group"] = None if epoch.group is None else epoch.group.value
    record["stage"] = epoch.stage.value
    record["failures"] = dict(sorted(epoch.failures.items()))
    return record


def epoch_from_dict(record: dict) -> EpochIndices:
    """Inverse of :func:`epoch_to_dict`; keys it does not know are ignored.
    The group and stage spellings become enums here; every other rule is
    the record's own (:class:`~chaoskit.sleep.EpochIndices`).

    Raises
    ------
    InputError
        When ``record`` is not a dict, lacks a field, names an unknown
        group or stage, or holds a value the record refuses.
    """
    if not isinstance(record, dict):
        raise InputError(f"epoch record is not a JSON object: {record!r}")
    try:
        values = list(_EPOCH_VALUES(record))
    except KeyError:
        missing = [name for name in _EPOCH_KEYS if name not in record]
        raise InputError(f"epoch record is missing fields: {', '.join(missing)}") from None
    if values[_GROUP_AT] is not None:
        values[_GROUP_AT] = parse_group(values[_GROUP_AT])
    try:
        values[_STAGE_AT] = SleepStage(values[_STAGE_AT])
    except ValueError as exc:
        raise InputError(f"unknown stage {record['stage']!r}") from exc
    try:
        return EpochIndices(*values)
    except ConfigError as exc:
        raise InputError(str(exc)) from None


def write_epochs_ndjson(path: str | Path, epochs: Iterable[EpochIndices]) -> None:
    """One JSON object per line, one line per window, each written as
    it is made."""
    with _atomic_open(path) as handle:
        for e in epochs:
            handle.write(json.dumps(epoch_to_dict(e), ensure_ascii=True) + "\n")


def read_epochs_ndjson(path: str | Path) -> list[EpochIndices]:
    """Every record of an epoch file, parsed line by line from the open
    file; blank lines are skipped.

    Raises
    ------
    InputError
        When the file cannot be read or decoded as UTF-8, or a line is
        not a valid record; the message names ``file:line``.
    """
    path = Path(path)
    epochs = []
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    epochs.append(epoch_from_dict(json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise InputError(f"epoch file {path}:{lineno} is not valid JSON: {exc}") from exc
                except InputError as exc:
                    raise InputError(f"epoch file {path}:{lineno}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read epoch file {path}: {exc}") from exc
    return epochs


def _write_csv(path: str | Path, fingerprint: str, header: str, rows: Iterable[str]) -> None:
    """A table under its ``# config_fingerprint=`` line, written atomically."""
    atomic_write_text(path, "\n".join([f"# config_fingerprint={fingerprint}", header, *rows]) + "\n")


def write_table1_csv(path: str | Path, summaries: Sequence[GroupSummary], fingerprint: str) -> None:
    """Mean/std/count per (index, stage, group), one row per cell."""
    rows = []
    for s in summaries:
        group = "" if s.group is None else s.group.value
        stage = "" if s.stage is None else s.stage.value
        rows.append(f"{s.index_name},{stage},{group},{format_float(s.mean)},{format_float(s.std)},{s.n}")
    _write_csv(path, fingerprint, "index,stage,group,mean,std,n", rows)


def write_pvalues_csv(path: str | Path, comparisons: Sequence[ComparisonResult], fingerprint: str) -> None:
    """Welch test per (stage, index); ``p_reported`` is floored at
    0.0005 to match the report granularity, ``p_raw`` is not."""
    rows = []
    for c in comparisons:
        reported = max(c.p_value, REPORTED_P_FLOOR)
        rows.append(
            f"{c.stage.value},{c.index_name},{format_float(c.t_value)},"
            f"{format_float(c.degrees_of_freedom)},{format_float(c.p_value)},{format_float(reported)}"
        )
    _write_csv(path, fingerprint, "stage,index,t_value,df,p_raw,p_reported", rows)


def write_histogram_csvs(
    directory: str | Path, histograms: dict[tuple, DiscreteDistribution], fingerprint: str
) -> list[Path]:
    """One CSV per (index, stage, group) histogram of
    :func:`~chaoskit.stats.histograms_by_cell`, named
    ``hist_<index>_<stage>_<group>.csv``. Every other ``hist_*.csv`` in
    the directory is then deleted, so the directory holds this run's
    histograms and no older run's."""
    directory = Path(directory)
    written = []
    for (index_name, stage, group), dist in histograms.items():
        target = directory / f"hist_{index_name}_{stage.value}_{group.value}.csv"
        rows = [
            f"{format_float(dist.bin_edges[k])},{format_float(dist.bin_edges[k + 1])},{format_float(p)}"
            for k, p in enumerate(dist.probabilities)
        ]
        _write_csv(target, fingerprint, "bin_left,bin_right,relative_frequency", rows)
        written.append(target)
    for stale in set(directory.glob("hist_*.csv")).difference(written):
        stale.unlink()
    return written


def read_run_manifest(path: str | Path, fingerprint: str) -> dict:
    """The run manifest at ``path``; InputError unless it parses as one
    that :func:`write_run_manifest` wrote for configuration ``fingerprint``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read run manifest {path}: {exc}") from exc
    keys = {"config", "config_fingerprint", "inputs", "outputs"}
    if not (isinstance(payload, dict) and set(payload) == keys and isinstance(payload["outputs"], dict)):
        raise InputError(f"run manifest {path} must be a JSON object of {', '.join(sorted(keys))}")
    if payload["config_fingerprint"] != fingerprint:
        raise InputError(f"run manifest {path} is for another configuration than the records; refusing to mix them")
    return payload


def write_run_manifest(
    path: str | Path,
    config_dict: dict,
    fingerprint: str,
    inputs: dict,
    outputs: dict,
) -> None:
    """Machine-readable record of a run: configuration, fingerprint,
    inputs, and what was produced. Deliberately carries no timestamps
    so identical runs write identical bytes."""
    payload = {
        "config": config_dict,
        "config_fingerprint": fingerprint,
        "inputs": inputs,
        "outputs": outputs,
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
