"""The pipeline against transformed copies of its input.

Multiplying a window by a power of two changes only exponents: every
difference, ratio, rank and histogram cell of the scaled window is the
original's scaled by the same power, or the original's itself. So
``compute_epoch_indices`` must give the same record, to the bit, for
the window and its copies, failures included. The one exception is
``d2``: the fit regresses log C on log R, and log(2^k R) rounds
differently from log R + k log 2, so ``d2`` may move in its last bits.

Negating a window negates every difference, so every distance, and
with them the LLE, the embedding and D2, keeps its bits. The joint
histogram behind ``mi`` holds the same counts in reverse order, so only
``mi``, whose sums then add its cells in reverse, may move in its last
bits.

Multiplying by 3 and adding 1000 round the samples themselves, so the
real indices (``REAL_FIELDS``) may move in their last bits, and by
more under the shift, which leaves the samples fewer bits below the
point. Every other field, the failures and each field's None-ness
must not move at all.

Each bound is stated here before any window runs; no oracle is needed.
"""

import dataclasses
import functools
import json
import shutil

import pytest

from chaoskit.cli import main as cli_main
from chaoskit.generators import GeneratorSpec, generate
from chaoskit.io import read_signal_csv, write_signal_csv
from chaoskit.series import TimeSeries
from chaoskit.sleep import compute_epoch_indices
from conftest import build_sleep_fixture

SCALES = {"x2": 2.0, "x0.5": 0.5, "x2^-20": 2.0**-20}
# Largest relative change of d2 that a power-of-two scaling may cause.
D2_RELATIVE = 1e-14
# Largest relative change of mi that negating a window may cause.
MI_NEGATED_RELATIVE = 1e-14
# The indices that a map which rounds the samples may move.
REAL_FIELDS = ("lle", "mi", "e1_at_selected", "d2")
# map -> (scale, shift, largest relative change of each of REAL_FIELDS)
AFFINE = {"x3": (3.0, 0.0, 1e-14), "+1000": (1.0, 1000.0, 1e-11)}


def _lorenz(fs: float, n: int, seed: int, window: int):
    """Window ``window`` of ``n`` samples of a Lorenz x trace."""
    spec = GeneratorSpec("lorenz", n * (window + 1), seed=seed, transient_skip=1000, parameters={"fs": fs})
    return generate(spec).samples[n * window :]


# name -> (samples, sample rate in Hz)
WINDOWS = {
    "lorenz-100hz": (lambda: _lorenz(100.0, 3000, 1, 0), 100.0),
    "lorenz-100hz-seed2": (lambda: _lorenz(100.0, 3000, 2, 1), 100.0),
    "lorenz-10hz": (lambda: _lorenz(10.0, 300, 1, 0), 10.0),
    # The Wolf walk finds no admissible neighbour of its first point.
    "lorenz-10hz-wolf-start-fails": (lambda: _lorenz(10.0, 300, 1, 2), 10.0),
    "noisy-sine-10hz": (
        lambda: generate(
            GeneratorSpec("sine", 300, seed=3, parameters={"fs": 10.0, "freq_hz": 0.31, "noise_std": 0.05})
        ).samples,
        10.0,
    ),
}


@functools.cache
def _record(name: str, scale: float, shift: float = 0.0) -> dict:
    make, fs = WINDOWS[name]
    x = make() * scale
    epoch = compute_epoch_indices(TimeSeries(x + shift if shift else x, fs))
    return dataclasses.asdict(epoch)


def test_windows_cover_a_fit_and_a_failure():
    records = {name: _record(name, 1.0) for name in WINDOWS}
    assert records["lorenz-10hz-wolf-start-fails"]["failures"].keys() == {"lle"}
    assert all(record["d2"] is not None for record in records.values())
    assert [name for name, record in records.items() if record["failures"]] == ["lorenz-10hz-wolf-start-fails"]


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_power_of_two_scaling_changes_no_bit_but_d2s(name, scale):
    base, scaled = dict(_record(name, 1.0)), dict(_record(name, SCALES[scale]))
    d2, d2_scaled = base.pop("d2"), scaled.pop("d2")
    # repr writes each float's shortest round-trip digits, so equal
    # reprs are equal bits.
    assert repr(scaled) == repr(base)
    assert abs(d2_scaled - d2) <= D2_RELATIVE * abs(d2)


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_negation_changes_no_bit_but_mis(name):
    base, negated = dict(_record(name, 1.0)), dict(_record(name, -1.0))
    mi, mi_negated = base.pop("mi"), negated.pop("mi")
    assert repr(negated) == repr(base)
    assert abs(mi_negated - mi) <= MI_NEGATED_RELATIVE * abs(mi)


@pytest.mark.parametrize("transform", sorted(AFFINE))
@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_affine_maps_move_only_the_real_indices(name, transform):
    scale, shift, bound = AFFINE[transform]
    base, moved = dict(_record(name, 1.0)), dict(_record(name, scale, shift))
    for field in REAL_FIELDS:
        value, moved_value = base.pop(field), moved.pop(field)
        assert (moved_value is None) == (value is None), field
        if value is not None:
            assert abs(moved_value - value) <= bound * abs(value), field
    assert repr(moved) == repr(base)


def _analyze(manifest, out) -> list[dict]:
    assert cli_main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
    return [json.loads(line) for line in (out / "epoch_indices.ndjson").read_text(encoding="utf-8").splitlines()]


def test_analyze_on_a_doubled_signal_moves_only_d2(tmp_path):
    # The same study twice, the second copy's signal files written with
    # every sample doubled; the hypnograms and manifest are copied.
    original = tmp_path / "original"
    original.mkdir()
    manifest = build_sleep_fixture(original, n_epochs=2)
    doubled = tmp_path / "doubled"
    shutil.copytree(original, doubled)
    for path in doubled.glob("*.csv"):
        if not path.name.endswith("_stages.csv"):
            series, metadata = read_signal_csv(path)
            write_signal_csv(path, TimeSeries(series.samples * 2.0, series.sample_rate_hz), metadata)
    base = _analyze(manifest, tmp_path / "out")
    moved = _analyze(doubled / "manifest.json", tmp_path / "out-doubled")
    assert len(base) == len(moved) == 8
    for record, moved_record in zip(base, moved):
        d2, d2_moved = record.pop("d2"), moved_record.pop("d2")
        assert repr(moved_record) == repr(record)
        assert (d2_moved is None) == (d2 is None)
        if d2 is not None:
            assert abs(d2_moved - d2) <= D2_RELATIVE * abs(d2)
