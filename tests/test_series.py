"""Container, embedding, and autocorrelation behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit.correlation import correlation_curve
from chaoskit.errors import ConfigError, DegenerateSeriesError, ShortSeriesError
from chaoskit.series import (
    EmbeddingParams,
    TimeSeries,
    as_points,
    autocorrelation,
    coordinate_sources,
    delay_embed,
    theiler_window,
)


def ts(values, fs=1.0):
    return TimeSeries(samples=values, sample_rate_hz=fs)


class TestTimeSeries:
    def test_basic_properties(self):
        s = ts([1.0, 2.0, 3.0, 4.0], fs=2.0)
        assert len(s) == 4
        assert s.duration_s == 2.0
        assert s.samples.dtype == np.float64

    def test_int_input_upcast(self):
        s = ts([1, 2, 3])
        assert s.samples.dtype == np.float64

    def test_samples_are_immutable(self):
        s = ts([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.samples[0] = 99.0

    def test_later_writes_to_the_given_array_do_not_reach_the_series(self):
        # A series once kept a read-only view of the caller's writable
        # array, so x[50] = NaN written afterwards reached its samples,
        # every delay embedding of it and C(R), which reads the samples.
        x = np.random.default_rng(2).standard_normal(400)
        s = ts(x[:])
        vectors = delay_embed(s, EmbeddingParams(3, 2))
        samples, points = s.samples.copy(), vectors.points.copy()
        curve = correlation_curve(vectors, theiler_w=5)
        x[50] = np.nan
        assert s.samples.tobytes() == samples.tobytes()
        assert delay_embed(s, EmbeddingParams(3, 2)).points.tobytes() == points.tobytes()
        again = correlation_curve(vectors, theiler_w=5)
        assert again.radii.tobytes() == curve.radii.tobytes()
        assert again.c_values.tobytes() == curve.c_values.tobytes()

    def test_read_only_arrays_are_kept_without_a_copy(self):
        # A window cut from a series is a view of read-only samples, as is
        # each epoch of a night, so it needs no copy.
        s = ts(np.random.default_rng(3).standard_normal(100))
        window = ts(s.samples[10:40])
        assert window.samples.base is s.samples
        assert np.shares_memory(window.samples, s.samples)

    def test_rejects_nan(self):
        with pytest.raises(ConfigError, match="^samples must be"):
            ts([1.0, np.nan, 3.0])

    def test_rejects_inf(self):
        with pytest.raises(ConfigError, match="^samples must be"):
            ts([1.0, np.inf, 3.0])

    def test_rejects_2d(self):
        with pytest.raises(ConfigError):
            ts([[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_single_sample(self):
        with pytest.raises(ShortSeriesError):
            ts([1.0])

    @pytest.mark.parametrize("fs", [0.0, -1.0, np.nan])
    def test_rejects_bad_rate(self, fs):
        with pytest.raises(ConfigError):
            ts([1.0, 2.0], fs=fs)


class TestEmbeddingParams:
    def test_defaults(self):
        p = EmbeddingParams(dimension_m=3, lag_t=2)
        assert p.theiler_w == 0

    @pytest.mark.parametrize("kwargs", [
        {"dimension_m": 0, "lag_t": 1},
        {"dimension_m": 2, "lag_t": 0},
        {"dimension_m": 2, "lag_t": 1, "theiler_w": -1},
        {"dimension_m": 2.5, "lag_t": 1},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            EmbeddingParams(**kwargs)


class TestDelayEmbed:
    def test_hand_example(self):
        # Five samples, m=2, t=2: three vectors, each (x[k], x[k+2]).
        vecs = delay_embed(ts([0.0, 1.0, 2.0, 3.0, 4.0]), EmbeddingParams(2, 2))
        np.testing.assert_array_equal(vecs.points, [[0.0, 2.0], [1.0, 3.0], [2.0, 4.0]])
        assert not vecs.points.flags.writeable

    def test_point_count(self):
        s = ts(np.arange(100.0))
        vecs = delay_embed(s, EmbeddingParams(4, 7))
        assert len(vecs) == 100 - 3 * 7

    def test_m1_is_column_view_of_signal(self):
        s = ts([5.0, 6.0, 7.0])
        vecs = delay_embed(s, EmbeddingParams(1, 3))
        np.testing.assert_array_equal(vecs.points[:, 0], s.samples)

    def test_too_short_raises(self):
        with pytest.raises(ShortSeriesError):
            delay_embed(ts([1.0, 2.0, 3.0]), EmbeddingParams(2, 3))

    def test_exactly_one_point(self):
        vecs = delay_embed(ts([1.0, 2.0, 3.0, 4.0]), EmbeddingParams(2, 3))
        assert len(vecs) == 1
        np.testing.assert_array_equal(vecs.points, [[1.0, 4.0]])

    @given(
        n=st.integers(min_value=10, max_value=300),
        m=st.integers(min_value=1, max_value=6),
        t=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_and_rows_match_slicing(self, n, m, t):
        rng = np.random.default_rng(n * 1000 + m * 10 + t)
        x = rng.normal(size=n)
        s = ts(x)
        expected_n = n - (m - 1) * t
        if expected_n < 1:
            with pytest.raises(ShortSeriesError):
                delay_embed(s, EmbeddingParams(m, t))
            return
        vecs = delay_embed(s, EmbeddingParams(m, t))
        assert len(vecs) == expected_n
        for k in (0, expected_n // 2, expected_n - 1):
            np.testing.assert_array_equal(vecs.points[k], x[k : k + (m - 1) * t + 1 : t])


class TestCoordinateSources:
    def test_delay_vectors_share_their_series(self):
        # C(R) reads the embedded window's own samples at each tap: no
        # series is rebuilt from the points.
        window = ts(np.random.default_rng(3).normal(size=40))
        for params, taps in ((EmbeddingParams(4, 3), [0, 3, 6, 9]), (EmbeddingParams(1, 5), [0])):
            series, got = coordinate_sources(delay_embed(window, params))
            assert got == taps
            assert series is window.samples

    @pytest.mark.parametrize(
        "columns, n_samples, lag",
        [([0, 2, 1], 40, 3), ([0, 1, 2], 40, 3), (None, 90, 40)],
        ids=["swapped", "shifted-columns", "lag-beyond-points"],
    )
    def test_other_points_give_one_series_per_column(self, columns, n_samples, lag):
        # Plain points carry no series, even when their columns are shifts
        # of one, so their columns are laid end to end; delay vectors whose
        # lag exceeds their point count give their columns end to end too.
        vecs = delay_embed(ts(np.random.default_rng(4).normal(size=n_samples)), EmbeddingParams(3, lag))
        for vectors in [vecs, vecs.points] if columns is None else [vecs.points[:, columns]]:
            pts = as_points(vectors)
            n = pts.shape[0]
            series, taps = coordinate_sources(vectors)
            assert taps == [0, n, 2 * n]
            assert series.shape == (3 * n,)
            for c, tap in enumerate(taps):
                np.testing.assert_array_equal(series[tap : tap + n], pts[:, c])


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        acf = autocorrelation(ts(rng.normal(size=500)), 20)
        assert acf[0] == 1.0

    def test_bounded(self):
        rng = np.random.default_rng(1)
        acf = autocorrelation(ts(rng.normal(size=400)), 100)
        assert np.all(np.abs(acf) <= 1.0 + 1e-12)

    def test_matches_correlate_route(self):
        # Same estimator computed through np.correlate instead of row
        # sums of the lagged products.
        rng = np.random.default_rng(2)
        x = rng.normal(size=257)
        acf = autocorrelation(ts(x), 40)
        xc = x - x.mean()
        full = np.correlate(xc, xc, mode="full")[x.size - 1 :]
        expected = full[:41] / full[0]
        np.testing.assert_allclose(acf, expected, atol=1e-12)

    def test_blocks_of_lags_change_no_bit(self, monkeypatch):
        # A long series is taken a few lags at a time, down to one lag
        # per block, and each lag's sum stays the same row sum.
        x = np.random.default_rng(3).normal(size=3000)
        whole = autocorrelation(ts(x), 100)
        for block in (400_000, 10_000, 1):
            monkeypatch.setattr("chaoskit.series._BLOCK", block)
            np.testing.assert_array_equal(autocorrelation(ts(x), 100), whole)

    def test_alternating_series(self):
        # +1, -1, +1, ... has lag-1 autocorrelation -(n-1)/n under the
        # biased estimator.
        n = 50
        x = np.tile([1.0, -1.0], n // 2)
        acf = autocorrelation(ts(x), 1)
        assert acf[1] == pytest.approx(-(n - 1) / n, abs=1e-12)

    def test_constant_series_raises(self):
        # An exactly representable constant, so the mean subtracts to
        # zero instead of leaving 1-ulp residue.
        with pytest.raises(DegenerateSeriesError):
            autocorrelation(ts(np.full(50, 3.0)), 5)

    @pytest.mark.parametrize("max_lag", [-1, 50, 2.5])
    def test_rejects_bad_max_lag(self, max_lag):
        with pytest.raises(ConfigError):
            autocorrelation(ts(np.arange(50.0)), max_lag)


class TestTheilerWindow:
    def test_sine_quarter_period(self):
        # Period 100 samples: the autocorrelation first crosses zero a
        # lag or two past the quarter period.
        k = np.arange(4000)
        s = ts(np.sin(2 * np.pi * k / 100.0), fs=100.0)
        result = theiler_window(s, 200)
        assert not result.saturated
        assert 24 <= result.lag <= 28

    def test_white_noise_small_window(self, noise_10k):
        result = theiler_window(noise_10k, 100)
        assert not result.saturated
        assert result.lag <= 5

    def test_saturation_flag(self):
        # A short ramp stays positively correlated over small lags.
        s = ts(np.arange(200.0))
        result = theiler_window(s, 5)
        assert result.saturated
        assert result.lag == 5

    def test_rejects_zero_max_lag(self):
        with pytest.raises(ConfigError):
            theiler_window(ts([1.0, 2.0, 3.0]), 0)
