"""Embedding-dimension selection: expansion ratios and the plateau rule."""

import numpy as np
import pytest

from scipy.spatial import cKDTree

from chaoskit.cao import (
    CaoProfile,
    _cao_terms,
    _nearest_positive_neighbors,
    _restricted_embedding,
    minimum_embedding_dimension,
)
from chaoskit.errors import ConfigError, DegenerateSeriesError, ShortSeriesError
from chaoskit.information import select_lag_first_minimum
from chaoskit.series import TimeSeries

from oracles import brute_cao_terms, fnn_minimum_dimension


def ts(values, fs=1.0):
    return TimeSeries(samples=values, sample_rate_hz=fs)


def profile_ratios(x, m, t):
    """(E1(m), E2(m)) as the dimension scan reports them."""
    profile = minimum_embedding_dimension(ts(x), t=t, m_max=max(3, m + 1))
    return profile.e1_values[m - 1], profile.e2_values[m - 1]


class TestExpansionRatios:
    def test_ramp_hand_case(self):
        # On a pure ramp every neighbour sits one step away in every
        # coordinate, so E, E1, and E2 are all exactly 1.
        ramp = np.arange(50.0)
        assert _cao_terms(ramp, 1, 1)[0] == 1.0
        assert profile_ratios(ramp, 1, 1) == (1.0, 1.0)

    def test_e1_is_ratio_of_e(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        assert profile_ratios(x, 2, 3)[0] == _cao_terms(x, 3, 3)[0] / _cao_terms(x, 2, 3)[0]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_brute_force_logistic(self, logistic_20k, m):
        x = logistic_20k.samples[:1500]
        e_brute, _, _ = brute_cao_terms(x, m, 1)
        assert _cao_terms(x, m, 1)[0] == e_brute

    @pytest.mark.parametrize("m,t", [(1, 2), (2, 2), (3, 5)])
    def test_matches_brute_force_henon(self, henon_20k, m, t):
        x = henon_20k.samples[:1200]
        e_brute, _, _ = brute_cao_terms(x, m, t)
        assert _cao_terms(x, m, t)[0] == e_brute
        # E2 is a ratio of the mean one-step gaps; check it through the
        # brute pair as well.
        _, estar_m, _ = brute_cao_terms(x, m, t)
        _, estar_m1, _ = brute_cao_terms(x, m + 1, t)
        assert profile_ratios(x, m, t)[1] == estar_m1 / estar_m

    def test_affine_invariance(self, henon_20k):
        x = henon_20k.samples[:2000]
        a = minimum_embedding_dimension(ts(x), t=1, m_max=4)
        b = minimum_embedding_dimension(ts(4.0 * x + 2.0), t=1, m_max=4)
        for i in (0, 1, 2):
            assert b.e1_values[i] == pytest.approx(a.e1_values[i], abs=1e-9)
            assert b.e2_values[i] == pytest.approx(a.e2_values[i], abs=1e-9)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            minimum_embedding_dimension(ts(np.full(100, 1.0)), t=1)

    def test_short_series_raises(self):
        with pytest.raises(ShortSeriesError):
            _cao_terms(np.arange(10.0), 5, 2)


class TestNeighbourTies:
    """Duplicates and exact distance ties, where the k = 3 query must grow."""

    @staticmethod
    def series(kind: str, logistic_20k) -> np.ndarray:
        if kind == "quantised":
            # Eleven levels: most delay vectors have exact duplicates.
            return np.round(logistic_20k.samples[:700], 1)
        # Small integers: every distance is an integer, so ties abound.
        return np.random.default_rng(17).integers(0, 6, 700).astype(np.float64)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("kind", ["quantised", "integer"])
    def test_neighbours_and_terms_match_full_scan(self, logistic_20k, kind, m):
        x = self.series(kind, logistic_20k)
        t = 2
        pts = _restricted_embedding(x, m, t)
        dist, _ = cKDTree(pts).query(pts, k=3, p=np.inf)
        first = np.where(dist > 0.0, dist, np.inf).min(axis=1)
        assert np.any(dist[:, -1] <= first), "three hits already settle every point"
        neighbours, _ = _nearest_positive_neighbors(pts)
        e, e_star, expected = brute_cao_terms(x, m, t)
        np.testing.assert_array_equal(neighbours, expected)
        assert _cao_terms(x, m, t) == (e, e_star)


class TestProfileSelection:
    def test_lorenz_selects_three(self, lorenz_20k):
        # Delay from the autoMI minimum; pinned so the profile numbers
        # below stay comparable across runs.
        assert select_lag_first_minimum(lorenz_20k, 50).lag == 18
        profile = minimum_embedding_dimension(lorenz_20k, t=18, m_max=8)
        assert profile.selected_m == 3
        assert profile.deterministic
        assert profile.lag_t == 18
        assert profile.e1_values.shape == (7,)
        # E2 must wander away from 1 for the verdict to hold.
        assert np.max(np.abs(profile.e2_values - 1.0)) > 0.1

    def test_sine_selects_two(self, sine_20k):
        profile = minimum_embedding_dimension(sine_20k, t=19, m_max=8)
        assert profile.selected_m == 2
        assert profile.deterministic

    def test_noise_reports_no_dimension(self, noise_10k):
        profile = minimum_embedding_dimension(noise_10k, t=1, m_max=8)
        assert profile.selected_m is None
        assert not profile.deterministic
        # The signature: E1 creeps toward 1 while E2 hugs it at every m.
        assert np.all(np.diff(profile.e1_values) > 0)
        assert np.max(np.abs(profile.e2_values - 1.0)) <= 0.1

    def test_agrees_with_false_neighbour_oracle(self, lorenz_20k, sine_20k):
        # Independent route to the same question: the dimension where
        # false nearest neighbours die out.
        assert fnn_minimum_dimension(lorenz_20k.samples[:2500], t=18) == 3
        assert fnn_minimum_dimension(sine_20k.samples[:2500], t=19) == 2

    def test_profile_matches_pointwise_ratios(self, sine_20k):
        # The scan must report the ratios of the per-dimension terms.
        profile = minimum_embedding_dimension(sine_20k, t=19, m_max=4)
        x = sine_20k.samples
        for i in (0, 1, 2):
            (e_m, s_m), (e_m1, s_m1) = _cao_terms(x, i + 1, 19), _cao_terms(x, i + 2, 19)
            assert profile.e1_values[i] == e_m1 / e_m
            assert profile.e2_values[i] == s_m1 / s_m

    def test_loosening_tolerance_never_raises_selection(self, lorenz_20k):
        # Both plateau conditions are strict inequalities in the
        # tolerance, so widening it can only move the entry point earlier.
        picks = [
            minimum_embedding_dimension(lorenz_20k, t=18, m_max=8, plateau_tol=tol).selected_m
            for tol in (0.02, 0.05, 0.1, 0.2)
        ]
        found = [m for m in picks if m is not None]
        assert found, "no tolerance in the sweep produced a selection"
        assert all(a >= b for a, b in zip(found, found[1:]))

    def test_short_series_bound_message(self):
        # Needs m_max * t + 2 samples; one fewer must fail.
        x = np.arange(8 * 3 + 1, dtype=np.float64)
        with pytest.raises(ShortSeriesError):
            minimum_embedding_dimension(ts(x), t=3, m_max=8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t": 0},
            {"t": 1, "m_max": 2},
            {"t": 1, "plateau_tol": 0.0},
            {"t": 1, "e2_tol": -0.1},
        ],
    )
    def test_rejects_bad_parameters(self, noise_10k, kwargs):
        with pytest.raises(ConfigError):
            minimum_embedding_dimension(noise_10k, **kwargs)


class TestProfileContainer:
    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigError):
            CaoProfile(
                e1_values=np.ones(3),
                e2_values=np.ones(4),
                m_max=5,
                lag_t=1,
                selected_m=None,
                deterministic=False,
            )

    def test_rejects_out_of_range_selection(self):
        with pytest.raises(ConfigError):
            CaoProfile(
                e1_values=np.ones(4),
                e2_values=np.ones(4),
                m_max=5,
                lag_t=1,
                selected_m=1,
                deterministic=True,
            )
