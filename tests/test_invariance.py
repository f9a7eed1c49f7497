"""The pipeline against rescaled copies of its input.

Multiplying a window by a power of two changes only exponents: every
difference, ratio, rank and histogram cell of the scaled window is the
original's scaled by the same power, or the original's itself. So
``compute_epoch_indices`` must give the same record, to the bit, for
the window and its copies, failures included. The one exception is
``d2``: the fit regresses log C on log R, and log(2^k R) rounds
differently from log R + k log 2, so ``d2`` may move in its last bits.
Its bound, ``D2_RELATIVE``, is stated here before any window runs; no
oracle is needed.
"""

import dataclasses
import functools

import pytest

from chaoskit.generators import GeneratorSpec, generate
from chaoskit.series import TimeSeries
from chaoskit.sleep import compute_epoch_indices

SCALES = {"x2": 2.0, "x0.5": 0.5, "x2^-20": 2.0**-20}
# Largest relative change of d2 that a power-of-two scaling may cause.
D2_RELATIVE = 1e-14


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
def _record(name: str, scale: float) -> dict:
    make, fs = WINDOWS[name]
    epoch = compute_epoch_indices(TimeSeries(make() * scale, fs))
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
