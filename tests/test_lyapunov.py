"""Fiducial-trajectory exponent estimates on known systems."""

import math

import numpy as np
import pytest

from chaoskit.errors import (
    ConfigError,
    DegenerateSeriesError,
    EstimationError,
    ShortSeriesError,
)
from chaoskit import lyapunov
from chaoskit.generators import henon_lle_oracle
from chaoskit.lyapunov import LyapunovResult, WolfParams, largest_lyapunov_wolf
from chaoskit.series import EmbeddingParams, TimeSeries, delay_embed

from oracles import full_scan_wolf


def embed(series, m, t, n=None):
    x = series.samples if n is None else series.samples[:n]
    return delay_embed(TimeSeries(x, sample_rate_hz=series.sample_rate_hz), EmbeddingParams(m, t))


class TestKnownSystems:
    def test_logistic_near_ln2(self, logistic_20k):
        result = largest_lyapunov_wolf(embed(logistic_20k, 1, 1, 8000))
        assert result.exponent == pytest.approx(math.log(2.0), rel=0.1)
        assert not result.low_confidence

    def test_henon_matches_tangent_oracle(self, henon_20k):
        result = largest_lyapunov_wolf(embed(henon_20k, 2, 1, 8000))
        assert abs(result.exponent - henon_lle_oracle(100_000)) < 0.05

    def test_sine_near_zero(self, sine_20k):
        result = largest_lyapunov_wolf(embed(sine_20k, 2, 19, 6000))
        assert abs(result.exponent) < 0.01

    def test_sign_discrimination(self, logistic_20k, sine_20k):
        chaotic = largest_lyapunov_wolf(embed(logistic_20k, 1, 1, 6000))
        regular = largest_lyapunov_wolf(embed(sine_20k, 2, 19, 6000))
        assert chaotic.exponent > 0.5
        assert abs(regular.exponent) < 0.01


class TestEstimatorBehaviour:
    def test_deterministic(self, henon_20k):
        a = largest_lyapunov_wolf(embed(henon_20k, 2, 1, 4000))
        b = largest_lyapunov_wolf(embed(henon_20k, 2, 1, 4000))
        assert a == b

    def test_affine_invariance_with_default_bounds(self, logistic_20k):
        # The separation bounds default to fractions of the extent, so
        # rescaling the signal rescales them and the walk is unchanged.
        x = logistic_20k.samples[:8000]
        a = largest_lyapunov_wolf(x)
        b = largest_lyapunov_wolf(4.0 * x + 2.0)
        assert b.exponent == pytest.approx(a.exponent, rel=1e-12)
        assert b.n_renormalizations == a.n_renormalizations
        assert b.n_replacements == a.n_replacements

    def test_one_dimensional_routes_agree(self, logistic_20k):
        # Raw 1-d array, explicit column, and an m=1 embedding must all
        # walk the same trajectory.
        x = logistic_20k.samples[:4000]
        flat = largest_lyapunov_wolf(x)
        column = largest_lyapunov_wolf(x[:, None])
        embedded = largest_lyapunov_wolf(embed(logistic_20k, 1, 1, 4000))
        assert flat.exponent == column.exponent == embedded.exponent

    def test_result_bookkeeping(self, logistic_20k):
        result = largest_lyapunov_wolf(embed(logistic_20k, 1, 1, 4000))
        assert isinstance(result, LyapunovResult)
        assert result.n_evolved_samples > 0
        assert result.n_renormalizations > 0
        assert 0 <= result.n_replacements <= result.n_renormalizations

    def test_low_confidence_flag(self, logistic_20k):
        # Thirty samples per segment on 120 points leaves a handful of
        # renormalisations.
        result = largest_lyapunov_wolf(
            logistic_20k.samples[:120], WolfParams(evolve_steps=30)
        )
        assert result.n_renormalizations < 10
        assert result.low_confidence


def walk_fields(result: LyapunovResult) -> tuple:
    return (result.exponent, result.n_renormalizations, result.n_replacements, result.n_evolved_samples)


class TestFullScanOracle:
    """The tree-assisted walk must take the full scan's steps exactly."""

    @staticmethod
    def lorenz_points(lorenz_20k, m, n=1500, t=3):
        return embed(lorenz_20k, m, t, n + (m - 1) * t).points

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9])
    @pytest.mark.parametrize("w", [0, 50])
    @pytest.mark.parametrize("bounds", [None, (0.01, 0.04)], ids=["default", "tight"])
    def test_walk_matches_full_scan(self, lorenz_20k, m, w, bounds):
        pts = self.lorenz_points(lorenz_20k, m)
        lo = hi = None
        if bounds is not None:
            extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
            lo, hi = bounds[0] * extent, bounds[1] * extent
        params = WolfParams(theiler_w=w, min_separation=lo, max_separation=hi)
        expected = full_scan_wolf(pts, params.evolve_steps, lo, hi, w, params.max_replacement_angle)
        if expected is None:
            with pytest.raises(EstimationError, match="no admissible initial neighbour"):
                largest_lyapunov_wolf(pts, params)
            return
        result = largest_lyapunov_wolf(pts, params)
        assert walk_fields(result) == expected
        assert result.low_confidence == (expected[1] < 10)

    def test_cone_edge_fallback_matches_full_scan(self, lorenz_20k, monkeypatch):
        # With the edge band wider than any cosine range, every cone test
        # takes the full-product route.
        monkeypatch.setattr(lyapunov, "_CONE_EDGE", 3.0)
        pts = self.lorenz_points(lorenz_20k, 3)
        assert walk_fields(largest_lyapunov_wolf(pts)) == full_scan_wolf(pts)

    def test_no_initial_neighbour_where_full_scan_has_none(self, lorenz_20k):
        # Point 0 moved far off the attractor: most points have
        # neighbours, point 0 has none.
        pts = self.lorenz_points(lorenz_20k, 3).copy()
        pts[0] += 1e3
        params = WolfParams(min_separation=1e-3, max_separation=1.0)
        assert full_scan_wolf(pts, min_separation=1e-3, max_separation=1.0) is None
        with pytest.raises(EstimationError, match="no admissible initial neighbour"):
            largest_lyapunov_wolf(pts, params)


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(ShortSeriesError):
            largest_lyapunov_wolf(np.arange(99.0))

    def test_zero_extent(self):
        with pytest.raises(DegenerateSeriesError):
            largest_lyapunov_wolf(np.full(200, 7.0))

    def test_non_finite_points(self):
        x = np.sin(np.arange(300.0))
        x[7] = np.nan
        with pytest.raises(DegenerateSeriesError):
            largest_lyapunov_wolf(x, WolfParams(min_separation=1e-3, max_separation=0.5))

    def test_no_admissible_initial_neighbour(self):
        # Unit-spaced points with a ceiling of half a unit: nothing
        # qualifies anywhere.
        with pytest.raises(EstimationError, match="initial neighbour"):
            largest_lyapunov_wolf(
                np.arange(150.0), WolfParams(min_separation=1e-6, max_separation=0.5)
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"evolve_steps": 0},
            {"min_separation": -1.0},
            {"max_separation": 0.0},
            {"min_separation": 0.2, "max_separation": 0.1},
            {"theiler_w": -1},
            {"max_replacement_angle": 0.0},
            {"max_replacement_angle": 4.0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ConfigError):
            WolfParams(**kwargs)
