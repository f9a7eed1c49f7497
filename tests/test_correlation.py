"""Correlation sums, curves, and the D2 fit."""

import numpy as np
import pytest

from chaoskit.correlation import (
    _PAIR_SAMPLE_CAP,
    CorrelationCurve,
    D2Estimate,
    _n_admissible_pairs,
    _sum_of_squares,
    correlation_curve,
    correlation_dimension,
    correlation_sum,
)
from chaoskit.errors import ConfigError, DegenerateSeriesError, NoScalingRegionError
from chaoskit.generators import uniform_stream
from chaoskit.series import EmbeddingParams, TimeSeries, delay_embed

from oracles import brute_correlation_sum, per_offset_correlation_curve


def embed(x, m, t=1):
    return delay_embed(TimeSeries(x, sample_rate_hz=1.0), EmbeddingParams(m, t))


class TestCorrelationSum:
    def test_two_point_hand_case(self):
        pts = np.array([[0.0], [1.0]])
        assert correlation_sum(pts, 0.5) == 0.0
        assert correlation_sum(pts, 1.0) == 1.0  # distance exactly R counts
        assert correlation_sum(pts, 0.999999) == 0.0

    def test_three_points_with_theiler(self):
        # Points at 0, 1, 5; W=1 leaves only the (0, 5) pair.
        pts = np.array([[0.0], [1.0], [5.0]])
        assert correlation_sum(pts, 2.0, theiler_w=1) == 0.0
        assert correlation_sum(pts, 5.0, theiler_w=1) == 1.0

    @pytest.mark.parametrize("w", [0, 5])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.7])
    def test_matches_brute_force(self, henon_20k, w, q):
        pts = embed(henon_20k.samples[:1000], 2)
        d = np.sqrt(((pts.points[:1] - pts.points[1:]) ** 2).sum(axis=1))
        radius = float(np.quantile(d, q))
        assert correlation_sum(pts, radius, w) == brute_correlation_sum(pts.points, radius, w)

    def test_scale_equivariance_exact(self, henon_20k):
        # Doubling points and radius scales every squared distance by
        # exactly 4, so the pair comparisons are bit-identical.
        pts = embed(henon_20k.samples[:800], 2)
        for radius in (0.05, 0.2, 0.8):
            assert correlation_sum(2.0 * pts.points, 2.0 * radius, 3) == correlation_sum(
                pts, radius, 3
            )

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf])
    def test_rejects_bad_radius(self, radius):
        with pytest.raises(ConfigError):
            correlation_sum(np.arange(10.0), radius)

    def test_rejects_window_excluding_everything(self):
        with pytest.raises(ConfigError):
            correlation_sum(np.arange(5.0), 1.0, theiler_w=4)

    def test_rejects_single_point(self):
        with pytest.raises(ConfigError):
            correlation_sum(np.array([[1.0]]), 1.0)


class TestCorrelationCurve:
    def test_values_match_pointwise_sums(self, henon_20k):
        pts = embed(henon_20k.samples[:800], 2)
        curve = correlation_curve(pts, n_radii=12, theiler_w=3)
        for i in range(12):
            assert curve.c_values[i] == correlation_sum(pts, curve.radii[i], 3)

    def test_monotone_and_bounded(self, logistic_20k):
        # 1200 points keep the pair count under the sampling cap, so the
        # top radius is the true maximum distance and C saturates at 1.
        curve = correlation_curve(embed(logistic_20k.samples[:1200], 2), n_radii=20)
        assert np.all(np.diff(curve.c_values) >= 0)
        assert np.all((curve.c_values >= 0) & (curve.c_values <= 1))
        assert curve.c_values[-1] == 1.0

    def test_deterministic(self, henon_20k):
        pts = embed(henon_20k.samples[:1200], 2)
        a = correlation_curve(pts, n_radii=16, theiler_w=2)
        b = correlation_curve(pts, n_radii=16, theiler_w=2)
        np.testing.assert_array_equal(a.radii, b.radii)
        np.testing.assert_array_equal(a.c_values, b.c_values)

    def test_rejects_few_radii(self, noise_10k):
        with pytest.raises(ConfigError):
            correlation_curve(embed(noise_10k.samples[:500], 2), n_radii=7)

    def test_degenerate_points(self):
        with pytest.raises(DegenerateSeriesError):
            correlation_curve(np.zeros((300, 2)))

    def test_container_validation(self):
        with pytest.raises(ConfigError):
            CorrelationCurve(radii=[2.0, 1.0], c_values=[0.1, 0.2], theiler_w=0, n_points=10)
        with pytest.raises(ConfigError):
            CorrelationCurve(radii=[1.0, 2.0], c_values=[0.5, 0.2], theiler_w=0, n_points=10)
        with pytest.raises(ConfigError):
            CorrelationCurve(radii=[1.0, 2.0], c_values=[0.5, 1.2], theiler_w=0, n_points=10)


class TestBlockedPairCount:
    """The blocked kernels against numpy's own row sums and the per-offset passes."""

    @pytest.mark.parametrize("m", [*range(1, 17), 131])
    def test_sum_of_squares_matches_numpy_row_sum(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((257, m)) * rng.uniform(0.01, 100.0, size=(257, m))
        b = rng.standard_normal((257, m))
        expected = ((a - b) ** 2).sum(axis=1)
        got = _sum_of_squares((a[:, c] - b[:, c] for c in range(m)), m)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [8, 9])
    @pytest.mark.parametrize("n, sampled", [(1400, False), (1500, True)])
    def test_curve_matches_per_offset_reference(self, lorenz_20k, m, n, sampled):
        w = 5
        pts = embed(lorenz_20k.samples[: n + 3 * (m - 1)], m, 3)
        assert (_n_admissible_pairs(n, w) > _PAIR_SAMPLE_CAP) == sampled
        curve = correlation_curve(pts, n_radii=24, theiler_w=w)
        radii, c_values = per_offset_correlation_curve(pts.points, 24, w)
        np.testing.assert_array_equal(curve.radii, radii)
        np.testing.assert_array_equal(curve.c_values, c_values)

    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("gap", [2, 9, 40])
    def test_window_close_to_n(self, henon_20k, m, gap):
        n = 400
        pts = embed(henon_20k.samples[: n + m - 1], m)
        curve = correlation_curve(pts, n_radii=8, theiler_w=n - 1 - gap)
        radii, c_values = per_offset_correlation_curve(pts.points, 8, n - 1 - gap)
        np.testing.assert_array_equal(curve.radii, radii)
        np.testing.assert_array_equal(curve.c_values, c_values)


class TestCorrelationDimension:
    def test_uniform_segment_near_one(self):
        curve = correlation_curve(uniform_stream(5, 2000), n_radii=24)
        est = correlation_dimension(curve)
        assert 0.9 <= est.d2 <= 1.1
        assert est.fit_r2 >= 0.98
        assert est.fit_range[0] < est.fit_range[1]
        assert est.n_pairs_in_range > 0

    def test_uniform_square_near_two(self):
        pts = np.column_stack([uniform_stream(6, 2000), uniform_stream(7, 2000)])
        est = correlation_dimension(correlation_curve(pts, n_radii=24))
        assert 1.85 <= est.d2 <= 2.15

    def test_henon_embeddings_agree(self, henon_20k):
        x = henon_20k.samples[:6000]
        d2_m2 = correlation_dimension(correlation_curve(embed(x, 2), theiler_w=10)).d2
        d2_m3 = correlation_dimension(correlation_curve(embed(x, 3), theiler_w=10)).d2
        assert 1.10 <= d2_m2 <= 1.35
        assert 1.10 <= d2_m3 <= 1.35
        assert abs(d2_m2 - d2_m3) < 0.1

    def test_curved_log_log_curve_rejected(self):
        # A log-log curve with curvature everywhere: no 40% window is
        # straight enough once the bar is raised.
        radii = np.geomspace(1e-3, 1.0, 24)
        u = np.log(radii) - np.log(radii[0])
        c_values = np.exp(0.2 * u + 0.35 * u**2 - 19.0)
        curve = CorrelationCurve(radii=radii, c_values=c_values, theiler_w=0, n_points=100)
        with pytest.raises(NoScalingRegionError):
            correlation_dimension(curve, min_fit_r2=0.998)

    def test_too_few_eligible_radii_rejected(self):
        # Five radii inside (0, 1), the rest saturated at 1.
        radii = np.geomspace(0.01, 1.0, 12)
        c_values = np.concatenate([np.linspace(0.1, 0.9, 5), np.ones(7)])
        curve = CorrelationCurve(radii=radii, c_values=c_values, theiler_w=0, n_points=100)
        with pytest.raises(NoScalingRegionError):
            correlation_dimension(curve)

    def test_perfect_power_law_recovered(self):
        # C = R^1.7 exactly over two decades, kept strictly below 1 so
        # every radius stays eligible for the fit.
        radii = np.geomspace(1e-2, 0.9, 20)
        curve = CorrelationCurve(
            radii=radii, c_values=radii**1.7, theiler_w=0, n_points=100
        )
        est = correlation_dimension(curve)
        assert est.d2 == pytest.approx(1.7, abs=1e-9)
        assert est.fit_r2 == pytest.approx(1.0, abs=1e-12)
        # Ties on R^2 resolve to the widest window.
        assert est.fit_range == (radii[0], radii[-1])

    def test_estimate_container_validation(self):
        with pytest.raises(ConfigError):
            D2Estimate(d2=1.0, fit_range=(2.0, 1.0), fit_r2=0.99, n_pairs_in_range=10)
        with pytest.raises(ConfigError):
            D2Estimate(d2=1.0, fit_range=(1.0, 2.0), fit_r2=1.5, n_pairs_in_range=10)
