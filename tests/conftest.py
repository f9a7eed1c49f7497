"""Shared fixtures: reference orbits and a synthetic sleep study.

The long orbits are session-scoped because several modules test against
the same few attractors and regenerating them per test would dominate
the suite's runtime.
"""

import json
import tracemalloc

import numpy as np
import pytest

from chaoskit import lyapunov
from chaoskit.generators import GeneratorSpec, generate
from chaoskit.io import write_hypnogram_csv, write_signal_csv
from chaoskit.series import TimeSeries
from chaoskit.sleep import SleepStage


@pytest.fixture(scope="session")
def lorenz_20k() -> TimeSeries:
    return generate(GeneratorSpec("lorenz", n_samples=20000, seed=11, transient_skip=1000))


@pytest.fixture(scope="session")
def henon_20k() -> TimeSeries:
    # Pinned start so the series matches the tangent-map oracle's orbit.
    return generate(
        GeneratorSpec(
            "henon",
            n_samples=20000,
            seed=0,
            transient_skip=1000,
            parameters={"x0": 0.0, "y0": 0.0},
        )
    )


@pytest.fixture(scope="session")
def logistic_20k() -> TimeSeries:
    return generate(
        GeneratorSpec("logistic", n_samples=20000, seed=7, transient_skip=100, parameters={"r": 4.0})
    )


@pytest.fixture(scope="session")
def sine_20k() -> TimeSeries:
    # Incommensurate frequency so delay vectors trace the full loop.
    return generate(
        GeneratorSpec("sine", n_samples=20000, seed=3, parameters={"freq_hz": 1.337, "fs": 100.0})
    )


@pytest.fixture(scope="session")
def noise_10k() -> TimeSeries:
    return generate(
        GeneratorSpec("white_noise", n_samples=10000, seed=7, parameters={"distribution": "gaussian"})
    )


_STAGE_CYCLE = (
    SleepStage.WAKE,
    SleepStage.REM,
    SleepStage.S1,
    SleepStage.S2,
    SleepStage.S3,
    SleepStage.S4,
)


def build_sleep_fixture(root, n_epochs: int = 12, fs: float = 10.0, subjects=None) -> str:
    """Write a four-subject study under ``root``; return the manifest path.

    Two healthy subjects carry a noisy slow sine, two apnea subjects a
    fully chaotic logistic orbit, so every stage separates on the
    trajectory-divergence index. Hypnograms cycle through all six
    stages, which populates every group-by-stage cell. ``subjects``,
    a list of (subject id, group, GeneratorSpec of ``30 * fs *
    n_epochs`` samples), replaces the four.
    """
    root = str(root)
    n_samples = int(30 * fs) * n_epochs
    if subjects is None:
        subjects = [
            ("h01", "Healthy", GeneratorSpec("sine", n_samples, seed=21, parameters={"freq_hz": 0.31, "noise_std": 0.05, "fs": fs})),
            ("h02", "Healthy", GeneratorSpec("sine", n_samples, seed=22, parameters={"freq_hz": 0.31, "noise_std": 0.05, "fs": fs})),
            ("a01", "Apnea", GeneratorSpec("logistic", n_samples, seed=23, transient_skip=100, parameters={"r": 4.0, "fs": fs})),
            ("a02", "Apnea", GeneratorSpec("logistic", n_samples, seed=24, transient_skip=100, parameters={"r": 4.0, "fs": fs})),
        ]
    entries = []
    stages = [_STAGE_CYCLE[k % len(_STAGE_CYCLE)] for k in range(n_epochs)]
    for subject_id, group, spec in subjects:
        series = generate(spec)
        signal_name = f"{subject_id}.csv"
        hypno_name = f"{subject_id}_stages.csv"
        write_signal_csv(f"{root}/{signal_name}", series, metadata={"channel": "C3"})
        write_hypnogram_csv(f"{root}/{hypno_name}", stages)
        entries.append(
            {
                "subject_id": subject_id,
                "group": group,
                "signal_path": signal_name,
                "hypnogram_path": hypno_name,
                "channel": "C3",
            }
        )
    manifest_path = f"{root}/manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
    return manifest_path


@pytest.fixture
def wolf_balls(monkeypatch) -> list[tuple[int, float]]:
    """(fiducial point, radius) of every ball the Wolf walk asks its
    KD-tree for while the test runs: one per pick of a neighbour."""
    balls = []
    ball = lyapunov._ball

    def recorded(tree, pts, i, radius, *args):
        balls.append((i, radius))
        return ball(tree, pts, i, radius, *args)

    monkeypatch.setattr(lyapunov, "_ball", recorded)
    return balls


def short_steps(balls: list[tuple[int, float]], evolve_steps: int = 3) -> list[tuple[int, float, float]]:
    """The balls of picks that follow a step cut short by the series'
    end, each as (fiducial point, radius, radius of its walk's first
    ball). A walk picks once per step, so such a pick's fiducial point
    lies fewer than ``evolve_steps`` past the one of the pick before in
    the same walk; a walk's first pick, at point 0, asks for a ball of
    the walk's ``d_max``."""
    short = []
    d_max = None
    for (prev, prev_radius), (i, radius) in zip(balls, balls[1:]):
        if prev == 0:
            d_max = prev_radius
        if 0 < i - prev < evolve_steps:
            short.append((i, radius, d_max))
    return short


def traced_peak(call) -> int:
    """Peak bytes traced while ``call`` runs, above what was held before."""
    call()  # first-call caches and lazy imports are not the call's cost
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def sleep_fixture_dir(tmp_path_factory):
    """Directory holding the four-subject study plus its manifest."""
    root = tmp_path_factory.mktemp("sleepstudy")
    manifest = build_sleep_fixture(root)
    return root, manifest


def assert_series_equal(a: TimeSeries, b: TimeSeries) -> None:
    assert a.sample_rate_hz == b.sample_rate_hz
    np.testing.assert_array_equal(a.samples, b.samples)
