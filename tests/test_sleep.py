"""Epoching and the per-window index pipeline."""

import math

import numpy as np
import pytest

from chaoskit.errors import ConfigError, InputError
from chaoskit.generators import GeneratorSpec, generate
from chaoskit.series import TimeSeries
from chaoskit.sleep import (
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
        assert EstimatorConfig(bins=17).fingerprint() != base
        assert EstimatorConfig(max_separation=0.7).fingerprint() != base
        assert EstimatorConfig(min_fit_r2=0.97).fingerprint() != base

    @pytest.mark.parametrize(
        "name, floor",
        [("bins", 2), ("mi_max_lag", 2), ("theiler_max_lag", 1), ("m_max", 3), ("n_radii", 8)],
    )
    def test_estimator_floors(self, name, floor):
        # The floor itself is usable; one below it, or a fraction, no window can use.
        EstimatorConfig(**{name: floor})
        for bad in (floor - 1, floor + 0.5):
            with pytest.raises(ConfigError, match=name):
                EstimatorConfig(**{name: bad})

    @pytest.mark.parametrize(
        "name, usable, unusable",
        [
            ("plateau_tol", (1e-300, math.inf), (0.0, -0.05, math.nan)),
            ("e2_tol", (1e-300, math.inf), (0.0, -0.1, math.nan)),
            ("min_fit_r2", (0.0, 1.0), (-1e-12, 1.0 + 1e-12, math.nan)),
        ],
    )
    def test_estimator_ranges(self, name, usable, unusable):
        # A tolerance at or below zero, a linearity bar outside [0, 1],
        # or NaN for either, would fail or skew every window alike.
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

    def test_parallel_matches_serial(self, cohort):
        serial = analyze_recordings(cohort, PIPELINE_CONFIG, jobs=1)
        parallel = analyze_recordings(cohort, PIPELINE_CONFIG, jobs=3)
        assert serial == parallel

    def test_bad_jobs_rejected(self, cohort):
        with pytest.raises(ConfigError):
            analyze_recordings(cohort, jobs=0)
