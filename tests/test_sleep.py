"""Epoching and the per-window index pipeline."""

import math
import subprocess
import sys

import numpy as np
import pytest

from chaoskit import sleep
from chaoskit.correlation import correlation_curve
from chaoskit.errors import ConfigError, DegenerateSeriesError, InputError
from chaoskit.generators import GeneratorSpec, generate
from chaoskit.lyapunov import WolfParams, largest_lyapunov_wolf
from chaoskit.series import EmbeddingParams, TimeSeries, delay_embed, point_extent, theiler_window
from chaoskit.sleep import (
    INDEX_NAMES,
    EstimatorConfig,
    Group,
    Recording,
    SleepStage,
    analyze_recordings,
    compute_epoch_indices,
    epoch_split,
    parse_group,
    parse_stage_token,
    samples_per_epoch,
    stage_token,
)

_CYCLE = (
    SleepStage.WAKE,
    SleepStage.REM,
    SleepStage.S1,
    SleepStage.S2,
    SleepStage.S3,
    SleepStage.S4,
)


def make_recording(subject_id, group, kind, seed, n_epochs=6, fs=10.0):
    n = samples_per_epoch(fs) * n_epochs
    if kind == "sine":
        spec = GeneratorSpec(
            "sine", n, seed=seed, parameters={"freq_hz": 0.31, "noise_std": 0.05, "fs": fs}
        )
    else:
        spec = GeneratorSpec(
            "logistic", n, seed=seed, transient_skip=100, parameters={"r": 4.0, "fs": fs}
        )
    hypnogram = tuple(_CYCLE[k % len(_CYCLE)] for k in range(n_epochs))
    return Recording(subject_id=subject_id, group=group, series=generate(spec), hypnogram=hypnogram)


# Logistic windows at this length need an explicit neighbour ceiling;
# the default fraction-of-extent bound is tighter than the attractor's
# point spacing in four dimensions.
PIPELINE_CONFIG = EstimatorConfig(max_separation=0.7)


class TestStagesAndGroups:
    def test_stage_tokens_round_trip(self):
        for stage in SleepStage:
            assert parse_stage_token(stage_token(stage)) is stage

    def test_tokens(self):
        assert parse_stage_token("W") is SleepStage.WAKE
        assert parse_stage_token(" 2 ") is SleepStage.S2
        assert parse_stage_token("R") is SleepStage.REM
        assert parse_stage_token("movement") is SleepStage.UNKNOWN
        assert stage_token(SleepStage.UNKNOWN) == "?"

    def test_group_parsing(self):
        assert parse_group("Healthy") is Group.HEALTHY
        assert parse_group(" apnea ") is Group.APNEA
        with pytest.raises(InputError):
            parse_group("control")


class TestEpoching:
    def test_samples_per_epoch(self):
        assert samples_per_epoch(100.0) == 3000
        assert samples_per_epoch(128.0) == 3840
        assert samples_per_epoch(0.5) == 15

    def test_samples_per_epoch_rejects_fractional(self):
        with pytest.raises(ConfigError):
            samples_per_epoch(33.34)

    def test_split_drops_trailing_partial(self):
        fs = 100.0
        x = np.sin(np.arange(6999) * 0.01)
        rec = Recording(
            subject_id="s1",
            group=Group.HEALTHY,
            series=TimeSeries(x, fs),
            hypnogram=(SleepStage.WAKE, SleepStage.S2),
        )
        windows = epoch_split(rec)
        assert len(windows) == 2
        assert [w.epoch_index for w in windows] == [0, 1]
        assert [w.stage for w in windows] == [SleepStage.WAKE, SleepStage.S2]
        assert {(w.subject_id, w.group) for w in windows} == {("s1", Group.HEALTHY)}
        np.testing.assert_array_equal(windows[0].window.samples, x[:3000])
        np.testing.assert_array_equal(windows[1].window.samples, x[3000:6000])

    def test_hypnogram_length_must_match(self):
        with pytest.raises(InputError):
            Recording(
                subject_id="s1",
                group=Group.HEALTHY,
                series=TimeSeries(np.sin(np.arange(6000) * 0.01), 100.0),
                hypnogram=(SleepStage.WAKE,),
            )

    def test_subject_id_required(self):
        with pytest.raises(InputError):
            Recording(
                subject_id="",
                group=Group.HEALTHY,
                series=TimeSeries(np.sin(np.arange(3000) * 0.01), 100.0),
                hypnogram=(SleepStage.WAKE,),
            )


class TestEstimatorConfig:
    def test_fingerprint_is_stable(self):
        assert EstimatorConfig().fingerprint() == EstimatorConfig().fingerprint()
        assert len(EstimatorConfig().fingerprint()) == 64

    def test_default_fingerprint_is_pinned(self):
        # Every output written at the defaults carries this value; a
        # change to a default or to the canonical form shows here first.
        assert EstimatorConfig().fingerprint() == (
            "e7b1db60eac956c7ef1b067e79b51e59dcbd5f4b6fec13e37cf3fe6e911d2a45"
        )

    def test_fingerprint_tracks_every_knob(self):
        base = EstimatorConfig().fingerprint()
        assert base == "e7b1db60eac956c7ef1b067e79b51e59dcbd5f4b6fec13e37cf3fe6e911d2a45"
        assert EstimatorConfig(bins=17).fingerprint() != base
        assert EstimatorConfig(max_separation=0.7).fingerprint() != base
        assert EstimatorConfig(min_fit_r2=0.97).fingerprint() != base
        # A float knob given as a whole number is the same configuration.
        assert EstimatorConfig(min_fit_r2=1).fingerprint() == EstimatorConfig(min_fit_r2=1.0).fingerprint()
        wide = EstimatorConfig(max_separation=2)
        assert type(wide.max_separation) is float
        assert wide.fingerprint() == EstimatorConfig(max_separation=2.0).fingerprint()

    @pytest.mark.parametrize(
        "name, floor",
        [("bins", 2), ("mi_max_lag", 2), ("theiler_max_lag", 1), ("m_max", 3), ("evolve_steps", 1), ("n_radii", 8)],
    )
    def test_estimator_floors(self, name, floor):
        # The floor itself is usable; one below it, a fraction, NaN, an
        # infinity or None no window can use.
        EstimatorConfig(**{name: floor})
        for bad in (floor - 1, floor + 0.5, math.nan, math.inf, -math.inf, None):
            with pytest.raises(ConfigError, match=name):
                EstimatorConfig(**{name: bad})
        # A whole float is the same configuration as the int.
        whole = EstimatorConfig(**{name: floor + 0.0})
        assert type(getattr(whole, name)) is int
        assert whole.fingerprint() == EstimatorConfig(**{name: floor}).fingerprint()

    @pytest.mark.parametrize(
        "name, usable, unusable",
        [
            ("plateau_tol", (1e-300, 1e300), (0.0, -0.05, math.nan, math.inf, None, "0.05")),
            ("e2_tol", (1e-300, 1e300), (0.0, -0.1, math.nan, math.inf, None, "x")),
            ("min_fit_r2", (0.0, 1.0), (-1e-12, 1.0 + 1e-12, math.nan, None)),
        ],
    )
    def test_estimator_ranges(self, name, usable, unusable):
        # A tolerance at or below zero or infinite, a linearity bar
        # outside [0, 1], NaN or a non-number for either, would fail or
        # skew every window alike.
        for value in usable:
            EstimatorConfig(**{name: value})
        for value in unusable:
            with pytest.raises(ConfigError, match=name):
                EstimatorConfig(**{name: value})


class TestComputeEpochIndices:
    def test_chaotic_window_full_report(self, logistic_20k):
        window = TimeSeries(logistic_20k.samples[:3000], 100.0)
        result = compute_epoch_indices(
            window,
            PIPELINE_CONFIG,
            subject_id="a1",
            group=Group.APNEA,
            stage=SleepStage.S2,
            epoch_index=4,
        )
        assert result.failures == {}
        assert not result.failed
        assert result.lle is not None and result.lle > 0
        assert result.mi is not None and result.mi > 0
        assert result.med is not None and 2 <= result.med <= 8
        # At the autoMI-selected delay the map's iterates decorrelate,
        # so the cloud genuinely fills dimensions; D2 is only bounded by
        # the embedding, not by the map's own dimension.
        assert result.d2 is not None and 0 < result.d2 <= result.embed_m + 0.5
        assert result.deterministic is True
        assert result.embed_m == result.med
        assert result.mi_lag is not None and result.mi_lag >= 1
        assert result.theiler_w is not None and result.theiler_w >= 1
        assert result.lle_units == "nats/s"
        assert result.subject_id == "a1"
        assert result.epoch_index == 4
        assert result.config_fingerprint == PIPELINE_CONFIG.fingerprint()

    def test_lle_scales_with_sample_rate(self, logistic_20k):
        # Same samples, rates a decade apart: identical walk, exponent
        # reported per second.
        slow = compute_epoch_indices(TimeSeries(logistic_20k.samples[:3000], 10.0), PIPELINE_CONFIG)
        fast = compute_epoch_indices(TimeSeries(logistic_20k.samples[:3000], 100.0), PIPELINE_CONFIG)
        assert fast.lle == pytest.approx(10.0 * slow.lle, rel=1e-12)

    def test_noise_window_not_deterministic(self, noise_10k):
        window = TimeSeries(noise_10k.samples[:3000], 100.0)
        result = compute_epoch_indices(window, subject_id="n1")
        assert result.deterministic is False
        assert result.med is None
        assert "med" in result.failures
        assert result.embed_m == 8  # fallback: embed at the scanned cap
        assert result.mi is not None
        assert result.theiler_w is not None

    def test_constant_window_fails_everything(self):
        window = TimeSeries(np.full(3000, 2.5), 100.0)
        result = compute_epoch_indices(window, subject_id="c1")
        assert set(result.failures) == {"lle", "mi", "med", "d2"}
        assert result.failed
        assert result.lle is None
        assert result.mi is None
        assert result.med is None
        assert result.d2 is None
        assert result.config_fingerprint == EstimatorConfig().fingerprint()

    def test_failures_do_not_raise(self):
        # A window too short for the dimension scan must still report
        # what it can.
        window = TimeSeries(np.sin(np.arange(60) * 0.7), 2.0)
        result = compute_epoch_indices(window)
        assert isinstance(result.failures, dict)


def _scaled_lorenz(scale: float) -> TimeSeries:
    window = generate(GeneratorSpec("lorenz", 300, seed=1, transient_skip=1000, parameters={"fs": 10.0}))
    return TimeSeries(window.samples * scale, 10.0)


class TestSquaredOverflow:
    """Samples whose squares overflow float64 are refused, by name, at
    every place that squares them, before scipy, the radius grid or a
    pair count sees an infinite distance. Values just below run unchanged."""

    @pytest.mark.parametrize("scale", [1e154, 1e160, 1e300])
    def test_each_route_names_the_overflow(self, scale):
        window = _scaled_lorenz(scale)
        points = delay_embed(window, EmbeddingParams(3, 2))
        with pytest.raises(DegenerateSeriesError, match=r"^squared deviations of the series overflow float64"):
            theiler_window(window, 100)
        # Once a saturated window of 100 samples, and scipy's ValueError
        # out of the Wolf walk, which aborted a whole analyze run.
        with pytest.raises(DegenerateSeriesError, match=r"^squared distances of 3-d points spanning .* overflow float64"):
            largest_lyapunov_wolf(points, WolfParams(theiler_w=5))
        with pytest.raises(DegenerateSeriesError, match=r"^squared distances of 3-d points spanning .* overflow float64"):
            correlation_curve(points, theiler_w=5)
        result = compute_epoch_indices(window)
        assert set(result.failures) == set(INDEX_NAMES)
        assert all("overflow float64" in reason for reason in result.failures.values())

    def test_window_below_the_overflow_is_unchanged(self):
        # The values computed before the overflow checks existed, to the bit.
        result = compute_epoch_indices(_scaled_lorenz(1e150))
        assert result.failures == {}
        assert (result.mi_lag, result.theiler_w, result.embed_m, result.med) == (13, 46, 3, 3)
        assert result.lle.hex() == "0x1.44cebc43ee3c3p-3"
        assert result.mi.hex() == "0x1.7824d2cf17430p+0"
        assert result.d2.hex() == "0x1.ae7360d6c65d9p+0"
        assert result.e1_at_selected.hex() == "0x1.d1eee6b4f062fp-1"

    def test_a_span_that_overflows_is_refused(self):
        points = np.array([[-1.5e308, 0.0], [1.5e308, 0.0]] * 60)
        with pytest.raises(DegenerateSeriesError, match=r"spanning inf overflow float64"):
            point_extent(points)


@pytest.fixture(scope="module")
def cohort():
    return [
        make_recording("h1", Group.HEALTHY, "sine", seed=31),
        make_recording("a1", Group.APNEA, "logistic", seed=32),
    ]


class TestAnalyzeRecordings:
    def test_per_epoch_order_and_count(self, cohort):
        results = analyze_recordings(cohort, PIPELINE_CONFIG)
        assert len(results) == 12
        assert [r.subject_id for r in results] == ["h1"] * 6 + ["a1"] * 6
        assert [r.epoch_index for r in results] == list(range(6)) * 2
        assert [r.stage for r in results] == list(_CYCLE) * 2

    def test_parallel_matches_serial(self, cohort, monkeypatch):
        started = []

        class Pool(sleep.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(sleep, "ProcessPoolExecutor", Pool)
        # Two windows against three jobs start one worker per window.
        short = [
            make_recording("h1", Group.HEALTHY, "sine", seed=31, n_epochs=1),
            make_recording("a1", Group.APNEA, "logistic", seed=32, n_epochs=1),
        ]
        for recordings in (cohort, short):
            serial = analyze_recordings(recordings, PIPELINE_CONFIG, jobs=1)
            parallel = analyze_recordings(recordings, PIPELINE_CONFIG, jobs=3)
            assert serial == parallel
        assert started == [3, 2]

    def test_pool_parent_imports_scipy_spatial(self):
        # Forked workers inherit the parent's modules, so scipy.spatial,
        # imported by the parent before its pool starts, is not imported
        # again by each worker at its first tree.
        code = (
            "import sys\n"
            "from chaoskit import sleep\n"
            "from chaoskit.generators import GeneratorSpec, generate\n"
            "x = generate(GeneratorSpec('sine', 600, seed=1, parameters={'freq_hz': 0.31, 'noise_std': 0.05, 'fs': 10.0}))\n"
            "r = sleep.Recording('h1', sleep.Group.HEALTHY, x, (sleep.SleepStage.S2,) * 2)\n"
            "before = 'scipy.spatial' in sys.modules\n"
            "epochs = sleep.analyze_recordings([r], jobs=2)\n"
            "print(before, len(epochs), 'scipy.spatial' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "2", "True"]

    def test_bad_jobs_rejected(self, cohort):
        with pytest.raises(ConfigError):
            analyze_recordings(cohort, jobs=0)
