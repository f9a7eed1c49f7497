"""Correlation sums, curves, and the D2 fit."""

import numpy as np
import pytest

from chaoskit import correlation
from chaoskit.correlation import (
    _PAIR_SAMPLE_CAP,
    CorrelationCurve,
    D2Estimate,
    _fit_line,
    _n_admissible_pairs,
    _r2_bounds,
    _sum_of_squares,
    correlation_curve,
    correlation_dimension,
    correlation_sum,
)
from chaoskit.errors import ConfigError, DegenerateSeriesError, NoScalingRegionError
from chaoskit.generators import GeneratorSpec, generate, uniform_stream
from chaoskit.series import EmbeddingParams, TimeSeries, delay_embed

from oracles import (
    brute_correlation_sum,
    double_loop_correlation_dimension,
    double_loop_fits,
    per_offset_correlation_curve,
)


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


class TestSampleCap:
    """Up to the cap the grid and the counts come from one sorted array of
    every pair; one pair beyond it, from a seeded sample and the blocked
    count. The cap is lowered to a triangular number so that a window
    can sit exactly on it."""

    N, W = 300, 4

    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("beyond", [0, 1], ids=["at-cap", "one-above"])
    def test_curve_matches_per_offset_reference(self, lorenz_20k, monkeypatch, m, beyond):
        cap = _n_admissible_pairs(self.N, self.W) - beyond
        monkeypatch.setattr(correlation, "_PAIR_SAMPLE_CAP", cap)
        pts = embed(lorenz_20k.samples[: self.N + 3 * (m - 1)], m, 3)
        curve = correlation_curve(pts, n_radii=24, theiler_w=self.W)
        radii, c_values = per_offset_correlation_curve(pts.points, 24, self.W, cap=cap)
        assert curve.radii.tobytes() == radii.tobytes()
        assert curve.c_values.tobytes() == c_values.tobytes()

    @pytest.mark.parametrize("beyond", [0, 1], ids=["at-cap", "one-above"])
    def test_all_distances_zero_is_degenerate(self, monkeypatch, beyond):
        monkeypatch.setattr(correlation, "_PAIR_SAMPLE_CAP", _n_admissible_pairs(self.N, self.W) - beyond)
        with pytest.raises(DegenerateSeriesError, match="all sampled pair distances are zero"):
            correlation_curve(np.full((self.N, 3), 2.5), n_radii=8, theiler_w=self.W)


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

    @pytest.mark.parametrize("min_fit_r2", [-1e-12, 1.0 + 1e-12, float("nan")])
    def test_unusable_linearity_bar_refused(self, min_fit_r2):
        # Above 1 no fit qualifies; NaN, since r2 < nan is false, would
        # let any fit through. Both refuse even on a straight curve.
        radii = np.geomspace(1e-3, 1.0, 24)
        curve = CorrelationCurve(radii=radii, c_values=0.5 * radii**2, theiler_w=0, n_points=100)
        assert correlation_dimension(curve, 1.0).d2 == pytest.approx(2.0)
        with pytest.raises(ConfigError, match="min_fit_r2"):
            correlation_dimension(curve, min_fit_r2)

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


def bits(fields) -> tuple:
    """Fields with every float spelled out bit for bit."""
    out = []
    for v in fields:
        if isinstance(v, tuple):
            out.append(bits(v))
        elif isinstance(v, float):
            out.append(v.hex())
        else:
            out.append(v)
    return tuple(out)


def check_against_double_loop(curve: CorrelationCurve, min_fit_r2: float) -> bool:
    """Assert the screened fit equals fitting every window; True when
    the curve has a scaling region."""
    expected = double_loop_correlation_dimension(
        curve.radii, curve.c_values, curve.n_points, curve.theiler_w, min_fit_r2
    )
    if expected is None:
        with pytest.raises(NoScalingRegionError):
            correlation_dimension(curve, min_fit_r2)
        return False
    est = correlation_dimension(curve, min_fit_r2)
    assert bits((est.d2, est.fit_range, est.fit_r2, est.n_pairs_in_range)) == bits(expected)
    return True


def hand_curve(radii, c_values, n_points=400) -> CorrelationCurve:
    return CorrelationCurve(radii=radii, c_values=c_values, theiler_w=0, n_points=n_points)


class TestScreenedFit:
    """The screened D2 fit against the double loop over every window."""

    def test_real_curves_match_double_loop(self):
        # 105 curves from five systems, three dimensions and radius grids
        # of 8 to 64 points: over 9,639 fitted windows in all.
        systems = [
            ("lorenz", {}),
            ("henon", {}),
            ("logistic", {"r": 4.0}),
            ("white_noise", {}),
            ("sine", {"freq_hz": 1.1, "noise_std": 0.05, "fs": 10.0}),
        ]
        windows = found = 0
        for k, (kind, parameters) in enumerate(systems):
            x = generate(GeneratorSpec(kind, n_samples=320, seed=k, parameters=parameters)).samples
            for m in (1, 2, 4):
                pts = embed(x[: 300 + m - 1], m)
                for n_radii in (8, 12, 16, 24, 32, 48, 64):
                    curve = correlation_curve(pts, n_radii=n_radii, theiler_w=(m + n_radii) % 4)
                    windows += len(double_loop_fits(curve.radii, curve.c_values)[1])
                    found += check_against_double_loop(curve, 0.98)
        assert windows >= 9_639
        assert found >= 50

    @pytest.mark.parametrize("min_fit_r2", [0.0, 0.98, 1.0])
    def test_constant_runs_match_double_loop(self, min_fit_r2):
        # Counts of a few hundred pairs repeat over long runs of radii,
        # so many windows have no variance in C and no finite r.
        rng = np.random.default_rng(5)
        nan_windows = 0
        for _ in range(40):
            n = int(rng.integers(8, 40))
            total = int(rng.integers(50, 400))
            steps = np.where(rng.random(n) < 0.7, 0, rng.integers(1, 30, n))
            plateau = int(rng.integers(0, n // 2))
            steps[plateau : plateau + max(4, int(np.ceil(0.4 * n)))] = 0
            counts = np.minimum(np.cumsum(steps) + 1, total)
            curve = hand_curve(np.geomspace(1e-3, 2.0, n), counts / total)
            nan_windows += sum(np.isnan(f[0]) for f in double_loop_fits(curve.radii, curve.c_values)[1])
            check_against_double_loop(curve, min_fit_r2)
        assert nan_windows > 0

    @pytest.mark.parametrize("min_fit_r2", [0.0, 0.98])
    def test_rounding_level_runs_match_double_loop(self, min_fit_r2):
        # Runs of C that climb by an ulp or two at a time: the fit's r
        # there is rounding noise, and often the best of the curve. The
        # screen cannot bound such windows and must keep them.
        rng = np.random.default_rng(9)
        wins_inside = 0
        for _ in range(60):
            n = int(rng.integers(8, 30))
            min_len = max(4, int(np.ceil(0.4 * n)))
            c = np.sort(rng.uniform(0.01, 0.9, n))
            c = np.maximum.accumulate(np.where(rng.random(n) < 0.5, c, np.roll(c, 1)))
            length = int(rng.integers(min_len, min(n, min_len + 4) + 1))
            start = int(rng.integers(0, n - length + 1))
            c[start : start + length] = c[start] * (1.0 + np.cumsum(rng.integers(0, 3, length)) * 2.0**-52)
            c = np.clip(np.maximum.accumulate(c), 1e-9, 0.95)
            curve = hand_curve(np.geomspace(1e-3, 1.0, n), c)
            if check_against_double_loop(curve, min_fit_r2):
                lo, hi = correlation_dimension(curve, min_fit_r2).fit_range
                wins_inside += bool(curve.radii[start] <= lo and hi <= curve.radii[start + length - 1])
        assert wins_inside >= 5

    @pytest.mark.parametrize("min_fit_r2", [0.0, 0.98, 1.0])
    def test_straight_segments_with_ties_match_double_loop(self, min_fit_r2):
        # Two or three exactly straight pieces of equal length: windows
        # inside different pieces tie at R^2 = 1 whenever their r rounds
        # to 1, and then length, then the earliest start, decide.
        rng = np.random.default_rng(13)
        tied = 0
        for _ in range(40):
            pieces = int(rng.integers(1, 4))
            size = int(rng.integers(4, 22))
            log_r = np.linspace(-6.0, 0.5, pieces * size)
            log_c = np.empty_like(log_r)
            level = -30.0
            for p in range(pieces):
                part = slice(p * size, (p + 1) * size)
                seg = log_r[part]
                log_c[part] = level + rng.uniform(0.5, 3.0) * (seg - seg[0])
                level = log_c[part][-1] + rng.uniform(0.0, 2.0)
            curve = hand_curve(np.exp(log_r), np.exp(log_c))
            fits = [f for f in double_loop_fits(curve.radii, curve.c_values)[1] if not np.isnan(f[0])]
            if fits:
                top = max(f[0] for f in fits)
                tied += sum(f[0] == top for f in fits) > 1
            check_against_double_loop(curve, min_fit_r2)
        assert tied >= 10

    @pytest.mark.parametrize(
        "c_values",
        [
            np.concatenate([np.linspace(0.1, 0.9, 7), np.ones(9)]),  # seven eligible radii
            np.full(16, 0.25),  # no window with a finite r
            np.concatenate([np.zeros(3), np.full(13, 0.5)]),
        ],
        ids=["seven-eligible", "all-constant", "zeros-then-constant"],
    )
    def test_no_scaling_region_like_double_loop(self, c_values):
        curve = hand_curve(np.geomspace(0.01, 1.0, c_values.size), c_values)
        for min_fit_r2 in (0.0, 0.98, 1.0):
            assert not check_against_double_loop(curve, min_fit_r2)

    def test_bound_holds_for_every_established_window(self):
        # The screen is only as sound as its bound: the exact fit's R^2
        # must lie within it wherever it is established.
        rng = np.random.default_rng(21)
        curves = [
            correlation_curve(embed(generate(GeneratorSpec(kind, n_samples=310, seed=3)).samples[:302], 3), n_radii=n_radii)
            for kind in ("lorenz", "white_noise")
            for n_radii in (8, 24, 64)
        ]
        for _ in range(30):
            n = int(rng.integers(8, 40))
            c = np.maximum.accumulate(np.sort(rng.uniform(0.0, 1.0, n)) ** rng.uniform(1.0, 40.0))
            curves.append(hand_curve(np.geomspace(10.0 ** rng.uniform(-200, 0), 1e3, n), np.clip(c, 1e-300, 0.99)))
        established = 0
        for curve in curves:
            c = curve.c_values
            eligible = np.nonzero((c > 0) & (c < 1))[0]
            log_r, log_c = np.log(curve.radii[eligible]), np.log(c[eligible])
            min_len = max(4, int(np.ceil(0.4 * eligible.size)))
            grid = np.arange(eligible.size + 1)
            start, end = np.nonzero(grid[None, :] - grid[:, None] >= min_len)
            r2, bound = _r2_bounds(log_r, log_c, start, end - start)
            for k in np.flatnonzero(~np.isnan(bound)):
                _, r = _fit_line(log_r[start[k] : end[k]], log_c[start[k] : end[k]])
                assert abs(r**2 - r2[k]) <= bound[k]
                established += 1
        assert established > 1000
