"""Embedding-dimension selection: expansion ratios and the plateau rule."""

from collections import Counter

import numpy as np
import pytest

from chaoskit import cao
from chaoskit.cao import CaoProfile, _cao_terms, _scan_neighbours, minimum_embedding_dimension
from chaoskit.errors import ConfigError, DegenerateSeriesError, ShortSeriesError
from chaoskit.information import select_lag_first_minimum
from chaoskit.series import TimeSeries

from oracles import brute_cao_terms, fnn_minimum_dimension


DUPLICATES_ONLY = "^some delay vectors have only exact duplicates; series has no usable variation$"


@pytest.fixture
def cao_routes(monkeypatch) -> Counter:
    """Points sent down each route while the test runs, keyed by (route,
    m): "queried" for a fresh list from the tree, "scanned" for the exact
    row scan. The other points of an m > 1 settled from their lists."""
    routes = Counter()
    query, scan = cao._queried_lists, cao._row_scan

    def queried(pts, rows):
        routes["queried", pts.shape[1]] += rows.size
        return query(pts, rows)

    def scanned(x, rows, m, t, n_points):
        routes["scanned", m] += rows.size
        return scan(x, rows, m, t, n_points)

    monkeypatch.setattr(cao, "_queried_lists", queried)
    monkeypatch.setattr(cao, "_row_scan", scanned)
    return routes


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
        assert _cao_terms(ramp, t=1, m_max=1)[0][0] == 1.0
        assert profile_ratios(ramp, 1, 1) == (1.0, 1.0)

    def test_e1_is_ratio_of_e(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        e, _ = _cao_terms(x, t=3, m_max=3)
        assert profile_ratios(x, 2, 3)[0] == e[2] / e[1]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_brute_force_logistic(self, logistic_20k, m):
        x = logistic_20k.samples[:1500]
        e_brute, _, _ = brute_cao_terms(x, m, 1)
        assert _cao_terms(x, t=1, m_max=m)[0][m - 1] == e_brute

    @pytest.mark.parametrize("m,t", [(1, 2), (2, 2), (3, 5)])
    def test_matches_brute_force_henon(self, henon_20k, m, t):
        x = henon_20k.samples[:1200]
        e_brute, _, _ = brute_cao_terms(x, m, t)
        assert _cao_terms(x, t=t, m_max=m)[0][m - 1] == e_brute
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
        with pytest.raises(DegenerateSeriesError, match=DUPLICATES_ONLY):
            minimum_embedding_dimension(ts(np.full(100, 1.0)), t=1)

    def test_points_with_only_duplicates_degenerate(self):
        # The samples vary, but only past the last point's first coordinate.
        x = np.concatenate([np.full(98, 3.0), [1.0, 2.0]])
        with pytest.raises(DegenerateSeriesError, match=DUPLICATES_ONLY):
            minimum_embedding_dimension(ts(x), t=2)

    def test_short_series_raises(self):
        with pytest.raises(ShortSeriesError):
            _cao_terms(np.arange(10.0), t=2, m_max=5)


class TestNeighbourTies:
    """Duplicates and exact distance ties, where even a fresh list leaves
    points unsettled and the exact row scan decides."""

    @staticmethod
    def series(kind: str, logistic_20k) -> np.ndarray:
        if kind == "quantised":
            # Eleven levels: most delay vectors have exact duplicates.
            return np.round(logistic_20k.samples[:700], 1)
        # Small integers: every distance is an integer, so ties abound.
        return np.random.default_rng(17).integers(0, 6, 700).astype(np.float64)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("kind", ["quantised", "integer"])
    def test_neighbours_and_terms_match_full_scan(self, logistic_20k, cao_routes, kind, m):
        x = self.series(kind, logistic_20k)
        t = 2
        *_, (neighbours, _) = _scan_neighbours(x, t, m)
        if m == 1:
            # The sort settles every tie at m = 1; it meets duplicates here.
            assert np.unique(x[:-t]).size < x.size - t, "every sample is distinct"
        else:
            assert cao_routes["scanned", m] > 0, "a fresh list settles every point"
        e, e_star, expected = brute_cao_terms(x, m, t)
        np.testing.assert_array_equal(neighbours, expected)
        assert [terms[-1] for terms in _cao_terms(x, t, m)] == [e, e_star]


TIED_KINDS = ["eight_levels", "clipped", "half_zeros", "small_integers", "signed_zeros", "subnormal_gaps"]


def tied_window(kind: str, lorenz_20k) -> np.ndarray:
    """A 600-sample window with many equal values or distance ties."""
    w = lorenz_20k.samples[:600]
    rng = np.random.default_rng(23)
    if kind == "eight_levels":
        return np.round((w - w.min()) / np.ptp(w) * 7)
    if kind == "clipped":
        return np.clip(w, *np.percentile(w, [30, 70]))
    if kind == "half_zeros":
        return np.where(rng.random(w.size) < 0.5, 0.0, rng.normal(size=w.size))
    if kind == "small_integers":
        return rng.integers(0, 6, w.size).astype(np.float64)
    if kind == "signed_zeros":
        # -0.0 equals 0.0, so the two are duplicates with different bits.
        return np.copysign(rng.integers(-2, 3, w.size).astype(np.float64), rng.choice([-1.0, 1.0], w.size))
    # Gaps of a few smallest subnormals, and spikes so much larger that a
    # spike's distance to every small value rounds to the spike itself:
    # distinct values tie on distance, which only a row scan settles at m = 1.
    tiny = np.finfo(np.float64).smallest_subnormal
    return np.where(rng.random(w.size) < 0.03, 1e-300, rng.integers(0, 6, w.size) * tiny)


class TestTiedWindows:
    """Windows with many equal values: every neighbour at every m is the
    full scan's, whichever route found it."""

    T = 4

    @pytest.mark.parametrize("kind", TIED_KINDS)
    def test_every_dimension_matches_full_scan(self, lorenz_20k, kind):
        x = tied_window(kind, lorenz_20k)
        brute = [brute_cao_terms(x, m, self.T) for m in range(1, 9)]
        for (neighbours, _), (*_, expected) in zip(_scan_neighbours(x, self.T, 8), brute, strict=True):
            np.testing.assert_array_equal(neighbours, expected)
        e, e_star = _cao_terms(x, self.T, 8)
        assert [*zip(e.tolist(), e_star.tolist())] == [terms[:2] for terms in brute]

    def test_each_route_runs(self, lorenz_20k, cao_routes):
        ran = {"settled from the list": [], "queried again": [], "row scan": [], "row scan at m = 1": []}
        for kind in TIED_KINDS:
            x = tied_window(kind, lorenz_20k)
            cao_routes.clear()
            _cao_terms(x, self.T, 8)
            later = range(3, 9)
            if any(cao_routes["queried", m] < x.size - m * self.T for m in later):
                ran["settled from the list"].append(kind)
            if any(cao_routes["queried", m] for m in later):
                ran["queried again"].append(kind)
            if any(cao_routes["scanned", m] for m in range(2, 9)):
                ran["row scan"].append(kind)
            if cao_routes["scanned", 1]:
                ran["row scan at m = 1"].append(kind)
        assert all(ran.values()), ran
        assert ran["row scan at m = 1"] == ["subnormal_gaps"]


class TestProfileSelection:
    def test_lorenz_selects_three(self, lorenz_20k):
        # Delay from the autoMI minimum; pinned so the profile numbers
        # below stay comparable across runs.
        assert select_lag_first_minimum(lorenz_20k, 50).lag == 18
        profile = minimum_embedding_dimension(lorenz_20k, t=18, m_max=8)
        assert profile.selected_m == 3
        assert profile.deterministic
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
        e, e_star = _cao_terms(sine_20k.samples, t=19, m_max=4)
        for i in (0, 1, 2):
            assert profile.e1_values[i] == e[i + 1] / e[i]
            assert profile.e2_values[i] == e_star[i + 1] / e_star[i]

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
                selected_m=None,
                deterministic=False,
            )

    def test_rejects_out_of_range_selection(self):
        with pytest.raises(ConfigError):
            CaoProfile(
                e1_values=np.ones(4),
                e2_values=np.ones(4),
                m_max=5,
                selected_m=1,
                deterministic=True,
            )
