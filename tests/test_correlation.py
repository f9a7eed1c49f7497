"""Correlation sums, curves, and the D2 fit."""

import warnings

import numpy as np
import pytest
from scipy import stats

from chaoskit import correlation
from chaoskit.correlation import (
    CorrelationCurve,
    D2Estimate,
    _low_percentile,
    _n_admissible_pairs,
    _row_sum,
    correlation_curve,
    correlation_dimension,
)
from chaoskit.errors import ConfigError, DegenerateSeriesError, NoScalingRegionError
from chaoskit.generators import GeneratorSpec, generate, uniform_stream
from chaoskit.series import EmbeddingParams, TimeSeries, as_points, delay_embed

from oracles import (
    brute_correlation_sum,
    double_loop_correlation_dimension,
    double_loop_fits,
    per_offset_correlation_curve,
)


def embed(x, m, t=1):
    return delay_embed(TimeSeries(x, sample_rate_hz=1.0), EmbeddingParams(m, t))


class TestCorrelationSum:
    """Each C(R) of a curve is the share of admissible pairs within R,
    counted by direct enumeration."""

    def test_hand_case_with_theiler(self):
        # Points at 0, 1, 3, 7; W=1 leaves the pairs at distances 3, 7
        # and 6. The top radius is the largest distance, exactly 7, and
        # a distance of exactly R counts.
        pts = np.array([[0.0], [1.0], [3.0], [7.0]])
        curve = correlation_curve(pts, n_radii=8, theiler_w=1)
        assert curve.n_pairs == 3 and curve.radii[-1] == 7.0
        assert curve.c_values.tolist() == [1 / 3] * 6 + [2 / 3, 1.0]
        assert curve.c_values.tolist() == [brute_correlation_sum(pts, r, 1) for r in curve.radii]

    @pytest.mark.parametrize("w", [0, 5])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.7])
    def test_matches_brute_force(self, henon_20k, w, q):
        pts = embed(henon_20k.samples[:1000], 2)
        curve = correlation_curve(pts, n_radii=24, theiler_w=w)
        i = round(q * 23)
        assert curve.c_values[i] == brute_correlation_sum(pts.points, curve.radii[i], w)

    def test_scale_equivariance_exact(self, henon_20k):
        # Doubling the points scales every squared distance by exactly 4,
        # so the pair comparisons are bit-identical; only the grid's
        # log spacing may round differently.
        pts = embed(henon_20k.samples[:800], 2)
        curve = correlation_curve(pts, n_radii=24, theiler_w=3)
        doubled = correlation_curve(2.0 * pts.points, n_radii=24, theiler_w=3)
        assert doubled.c_values.tobytes() == curve.c_values.tobytes()
        np.testing.assert_allclose(doubled.radii, 2.0 * curve.radii, rtol=1e-14)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf])
    def test_rejects_bad_radius(self, radius):
        curve = correlation_curve(np.arange(10.0))
        radii = curve.radii.copy()
        radii[0] = radius
        with pytest.raises(ConfigError):
            CorrelationCurve(radii, curve.c_values, curve.n_pairs)

    def test_rejects_window_excluding_everything(self):
        with pytest.raises(ConfigError):
            correlation_curve(np.arange(5.0), theiler_w=4)

    def test_rejects_single_point(self):
        with pytest.raises(ConfigError):
            correlation_curve(np.array([[1.0]]))

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_points_named_as_such(self, n):
        # No Theiler window is to blame when there is no pair at all.
        with pytest.raises(ConfigError, match=rf"^a correlation sum needs at least 2 points, got {n}$"):
            correlation_curve(np.zeros((n, 2)))


class TestCorrelationCurve:
    def test_values_match_pointwise_sums(self, henon_20k):
        pts = embed(henon_20k.samples[:200], 2)
        curve = correlation_curve(pts, n_radii=12, theiler_w=3)
        for i in range(12):
            assert curve.c_values[i] == brute_correlation_sum(pts.points, curve.radii[i], 3)

    def test_monotone_and_bounded(self, logistic_20k):
        # The top radius is the maximum distance over every pair, so C
        # saturates at 1.
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
            CorrelationCurve(radii=[2.0, 1.0], c_values=[0.1, 0.2], n_pairs=45)
        with pytest.raises(ConfigError):
            CorrelationCurve(radii=[1.0, 2.0], c_values=[0.5, 0.2], n_pairs=45)
        with pytest.raises(ConfigError):
            CorrelationCurve(radii=[1.0, 2.0], c_values=[0.5, 1.2], n_pairs=45)


class TestBlockedPairCount:
    """The blocked kernels against numpy's own row sums and the per-offset passes."""

    @pytest.mark.parametrize("m", [*range(1, 17), 131])
    def test_sum_of_squares_matches_numpy_row_sum(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((257, m)) * rng.uniform(0.01, 100.0, size=(257, m))
        b = rng.standard_normal((257, m))
        expected = ((a - b) ** 2).sum(axis=1)
        squares = (a - b) ** 2
        kept = squares.copy()
        got = _row_sum((squares[:, c] for c in range(m)), m, lambda: np.empty(257))
        assert got.tobytes() == expected.tobytes()
        # The terms are read, never written: the kernel passes slices of
        # rows that other coordinates share.
        assert squares.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("m", [8, 9])
    @pytest.mark.parametrize("n, over_a_million", [(1400, False), (1500, True)])
    def test_curve_matches_per_offset_reference(self, lorenz_20k, m, n, over_a_million):
        # 1,500 points hold about 1.1M admissible pairs, above the million
        # that once capped the pairs behind the grid.
        w = 5
        pts = embed(lorenz_20k.samples[: n + 3 * (m - 1)], m, 3)
        assert (_n_admissible_pairs(n, w) > 1_000_000) == over_a_million
        curve = correlation_curve(pts, n_radii=24, theiler_w=w)
        radii, c_values = per_offset_correlation_curve(pts.points, 24, w)
        assert curve.radii.tobytes() == radii.tobytes()
        assert curve.c_values.tobytes() == c_values.tobytes()

    def test_delay_vectors_whose_columns_are_not_shifts(self, lorenz_20k):
        # Points whose columns are no shifts of one series by a lag (only a
        # plain array can hold them), and delay vectors whose lag exceeds
        # their point count, are counted column by column; a genuine
        # embedding is counted from its samples. Each route gives the bytes
        # of the per-offset reference.
        genuine = embed(lorenz_20k.samples[:606], 3, 3)
        wide = embed(lorenz_20k.samples[:606], 3, 250)
        assert wide.params.lag_t > len(wide)
        for vectors in (genuine, wide, genuine.points[:, [0, 2, 1]]):
            pts = as_points(vectors)
            curve = correlation_curve(vectors, n_radii=16, theiler_w=4)
            radii, c_values = per_offset_correlation_curve(pts, 16, 4)
            assert curve.radii.tobytes() == radii.tobytes()
            assert curve.c_values.tobytes() == c_values.tobytes()

    @pytest.mark.parametrize("total", [*range(1, 40), 999, 1000, 1001, 1002, 2001, 2500, 44551, 1_000_001])
    def test_low_percentile_is_numpys(self, total):
        d = np.sqrt(np.random.default_rng(total).exponential(size=total))
        keep = int((total - 1) * 0.001) + 2
        assert _low_percentile(np.sort(d)[:keep], total) == float(np.percentile(d, 0.1))

    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("gap", [2, 9, 40])
    def test_window_close_to_n(self, henon_20k, m, gap):
        n = 400
        pts = embed(henon_20k.samples[: n + m - 1], m)
        curve = correlation_curve(pts, n_radii=8, theiler_w=n - 1 - gap)
        # Offsets n - gap .. n - 1 hold gap, gap - 1, ..., 1 pairs.
        assert curve.n_pairs == gap * (gap + 1) // 2
        radii, c_values = per_offset_correlation_curve(pts.points, 8, n - 1 - gap)
        np.testing.assert_array_equal(curve.radii, radii)
        np.testing.assert_array_equal(curve.c_values, c_values)


def _quantised(x):
    return np.floor((x - x.min()) / np.ptp(x) * 8.0).clip(0.0, 7.0)


def _clipped(x):
    lo, hi = np.percentile(x, [20, 80])
    return x.clip(lo, hi)


def _half_zero(x):
    y = x.copy()
    y[: y.size // 2] = 0.0
    return y


class TestExactGrid:
    """The grid comes from every admissible pair, and the float32 sort
    keys count exactly: against the per-offset reference, to the byte,
    on windows whose distances tie (quantised, clipped, half zero: the
    zero fallback and the float64 recount of keys that tie a radius's
    key) and on windows whose squares overflow float32 (x 1e20) or
    underflow it (x 1e-25)."""

    N, W = 300, 4
    WINDOWS = {
        "plain": lambda x: x,
        "quantised": _quantised,
        "clipped": _clipped,
        "half-zero": _half_zero,
        "scaled-up": lambda x: x * 1e20,
        "scaled-down": lambda x: x * 1e-25,
    }

    @pytest.mark.parametrize("m", [1, 3, 8, 9])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_curve_matches_per_offset_reference(self, lorenz_20k, m, window):
        x = self.WINDOWS[window](lorenz_20k.samples[: self.N + 3 * (m - 1)])
        pts = embed(x, m, 3)
        radii, c_values = per_offset_correlation_curve(pts.points, 24, self.W)
        for vectors in (pts, np.array(pts.points)):
            curve = correlation_curve(vectors, n_radii=24, theiler_w=self.W)
            assert curve.radii.tobytes() == radii.tobytes()
            assert curve.c_values.tobytes() == c_values.tobytes()

    @pytest.mark.parametrize("m", [1, 3, 8, 9])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_small_blocks_match_per_offset_reference(self, lorenz_20k, monkeypatch, m, window):
        # Blocks of three offsets: the grid's running maximum, smallest
        # squares and smallest positive square carry across a hundred
        # blocks, and blocks met once every kept square is zero.
        monkeypatch.setattr(correlation, "_BLOCK", 1 << 10)
        x = self.WINDOWS[window](lorenz_20k.samples[: self.N + 3 * (m - 1)])
        pts = embed(x, m, 3)
        curve = correlation_curve(pts, n_radii=24, theiler_w=self.W)
        radii, c_values = per_offset_correlation_curve(pts.points, 24, self.W)
        assert curve.radii.tobytes() == radii.tobytes()
        assert curve.c_values.tobytes() == c_values.tobytes()

    @pytest.mark.parametrize("block", [None, 1 << 10], ids=["one-block", "small-blocks"])
    def test_zero_percentile_takes_the_smallest_positive_distance(self, monkeypatch, block):
        # 127 points hold 8001 pairs, whose 0.1th percentile is exactly the
        # ninth smallest distance. Nine repeated neighbours make it zero,
        # and the grid starts at the smallest positive distance, from the
        # last point to the first two: in small blocks, the last blocks
        # hold it, after the smallest squares were last cut down.
        if block:
            monkeypatch.setattr(correlation, "_BLOCK", block)
        base = np.random.default_rng(5).uniform(size=117)
        x = np.concatenate([np.repeat(base[:9], 2), base[9:], [base[0] + 1e-9]])
        curve = correlation_curve(x, n_radii=24)
        radii, c_values = per_offset_correlation_curve(x, 24, 0)
        assert curve.radii.tobytes() == radii.tobytes()
        assert curve.c_values.tobytes() == c_values.tobytes()

    def test_series_wider_than_a_point_raises_no_overflow(self):
        # Each coordinate spans 8e153, so every squared distance is finite,
        # but the delay series spans twice that: squares of differences
        # that no pair reads overflow, silently.
        e = 8e153
        x = np.concatenate([np.zeros(9), [e], np.full(9, 2 * e)])
        pts = embed(x, 2, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = correlation_curve(pts, n_radii=8)
        plain = correlation_curve(np.array(pts.points), n_radii=8)
        assert curve.radii.tobytes() == plain.radii.tobytes()
        assert curve.c_values.tobytes() == plain.c_values.tobytes()

    @pytest.mark.parametrize("source", ["points", "delay-vectors"])
    def test_all_distances_zero_is_degenerate(self, source):
        points = np.full((self.N, 3), 2.5)
        vectors = points if source == "points" else embed(np.full(self.N + 2, 2.5), 3)
        with pytest.raises(DegenerateSeriesError, match="all pair distances are zero"):
            correlation_curve(vectors, n_radii=8, theiler_w=self.W)


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
        curve = CorrelationCurve(radii=radii, c_values=c_values, n_pairs=4950)
        with pytest.raises(NoScalingRegionError):
            correlation_dimension(curve, min_fit_r2=0.998)

    @pytest.mark.parametrize("min_fit_r2", [-1e-12, 1.0 + 1e-12, float("nan")])
    def test_unusable_linearity_bar_refused(self, min_fit_r2):
        # Above 1 no fit qualifies; NaN, since r2 < nan is false, would
        # let any fit through. Both refuse even on a straight curve.
        radii = np.geomspace(1e-3, 1.0, 24)
        curve = CorrelationCurve(radii=radii, c_values=0.5 * radii**2, n_pairs=4950)
        assert correlation_dimension(curve, 1.0).d2 == pytest.approx(2.0)
        with pytest.raises(ConfigError, match="min_fit_r2"):
            correlation_dimension(curve, min_fit_r2)

    def test_too_few_eligible_radii_rejected(self):
        # Five radii inside (0, 1), the rest saturated at 1.
        radii = np.geomspace(0.01, 1.0, 12)
        c_values = np.concatenate([np.linspace(0.1, 0.9, 5), np.ones(7)])
        curve = CorrelationCurve(radii=radii, c_values=c_values, n_pairs=4950)
        with pytest.raises(NoScalingRegionError):
            correlation_dimension(curve)

    def test_perfect_power_law_recovered(self):
        # C = R^1.7 exactly over two decades, kept strictly below 1 so
        # every radius stays eligible for the fit.
        radii = np.geomspace(1e-2, 0.9, 20)
        curve = CorrelationCurve(
            radii=radii, c_values=radii**1.7, n_pairs=4950
        )
        est = correlation_dimension(curve)
        assert est.d2 == pytest.approx(1.7, abs=1e-9)
        assert est.fit_r2 == pytest.approx(1.0, abs=1e-12)
        # Dozens of windows round to R^2 = 1, the full one not among
        # them: the widest of those, then the earliest, wins.
        expected = double_loop_correlation_dimension(radii, curve.c_values, curve.n_pairs, 0.98)
        assert est.fit_range == expected[1]

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
    """Assert the D2 fit equals plain loops over every window, bit for
    bit; True when the curve has a scaling region."""
    expected = double_loop_correlation_dimension(
        curve.radii, curve.c_values, curve.n_pairs, min_fit_r2
    )
    if expected is None:
        with pytest.raises(NoScalingRegionError):
            correlation_dimension(curve, min_fit_r2)
        return False
    est = correlation_dimension(curve, min_fit_r2)
    assert bits((est.d2, est.fit_range, est.fit_r2, est.n_pairs_in_range)) == bits(expected)
    return True


def hand_curve(radii, c_values) -> CorrelationCurve:
    return CorrelationCurve(radii=radii, c_values=c_values, n_pairs=79_800)  # 400 points, no exclusion


@pytest.fixture(scope="module")
def real_curves() -> list[CorrelationCurve]:
    """105 curves from five systems, three dimensions and radius grids
    of 8 to 64 points: 9,639 windows to fit in all."""
    systems = [
        ("lorenz", {}),
        ("henon", {}),
        ("logistic", {"r": 4.0}),
        ("white_noise", {}),
        ("sine", {"freq_hz": 1.1, "noise_std": 0.05, "fs": 10.0}),
    ]
    curves = []
    for k, (kind, parameters) in enumerate(systems):
        x = generate(GeneratorSpec(kind, n_samples=320, seed=k, parameters=parameters)).samples
        for m in (1, 2, 4):
            pts = embed(x[: 300 + m - 1], m)
            for n_radii in (8, 12, 16, 24, 32, 48, 64):
                curves.append(correlation_curve(pts, n_radii=n_radii, theiler_w=(m + n_radii) % 4))
    return curves


class TestScreenedFit:
    """The one-pass D2 fit against plain-Python loops over every window,
    bit for bit."""

    def test_real_curves_match_double_loop(self, real_curves):
        windows = found = 0
        for curve in real_curves:
            windows += len(double_loop_fits(curve.radii, curve.c_values)[1])
            found += check_against_double_loop(curve, 0.98)
        assert windows >= 9_639
        assert found >= 50

    def test_real_curves_match_linregress(self, real_curves):
        # scipy's fit, with its own rounding, picks the same window and
        # a slope within 1e-12.
        found = 0
        for curve in real_curves:
            eligible, fits = double_loop_fits(curve.radii, curve.c_values)
            if eligible.size < 8:
                continue  # too few radii to fit at all
            log_r, log_c = np.log(curve.radii[eligible]), np.log(curve.c_values[eligible])
            scores = []
            for _, length, start, _ in fits:
                fit = stats.linregress(log_r[start : start + length], log_c[start : start + length])
                scores.append((fit.rvalue**2, length, -start, fit.slope))
            r2, length, neg_start, slope = max(scores)
            if r2 < 0.98:
                with pytest.raises(NoScalingRegionError):
                    correlation_dimension(curve)
                continue
            est = correlation_dimension(curve)
            start = -neg_start
            assert est.fit_range == (curve.radii[eligible[start]], curve.radii[eligible[start + length - 1]])
            assert est.d2 == pytest.approx(slope, rel=1e-12)
            found += 1
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
        # there is rounding noise, and often the best of the curve.
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
