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
from chaoskit.generators import GeneratorSpec, generate
from chaoskit.lyapunov import LyapunovResult, WolfParams, _dots, largest_lyapunov_wolf
from chaoskit.series import EmbeddingParams, TimeSeries, delay_embed, point_extent

from conftest import short_steps, traced_peak
from oracles import WolfPick, full_scan_wolf, henon_lle_oracle


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

    def test_one_dimensional_input_shapes_agree(self, logistic_20k):
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


def default_d_max(pts: np.ndarray) -> float:
    return lyapunov.MAX_SEPARATION_FRACTION * point_extent(pts)


def checked_picks(pts: np.ndarray, wolf_balls: list[tuple[int, float]], **params) -> list[WolfPick]:
    """The full scan's picks, once the walk has taken its steps and asked
    for the ball each of them needs: the kept neighbour's distance where
    that neighbour is admissible and passes its own cone test, else
    ``d_max``."""
    picks = []
    expected = full_scan_wolf(pts, picks=picks, **params)
    assert walk_fields(largest_lyapunov_wolf(pts, WolfParams(**params))) == expected
    d_max = params.get("max_separation") or default_d_max(pts)
    assert wolf_balls == [(p.i, p.kept_distance if p.kept_admissible and p.kept_in_cone else d_max) for p in picks]
    return picks


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

    @pytest.mark.parametrize("w", [0, 50])
    def test_one_dimensional_walk_matches_full_scan_at_20k(self, logistic_20k, w):
        # At m = 1 on the whole logistic orbit each ball holds thousands
        # of the 20,000 points.
        x = logistic_20k.samples
        assert x.size >= 20_000
        expected = full_scan_wolf(x, theiler_w=w)
        assert walk_fields(largest_lyapunov_wolf(x, WolfParams(theiler_w=w))) == expected

    @pytest.mark.parametrize("scale", [1e-155, 1e-158])
    def test_one_dimensional_walk_where_squares_underflow(self, logistic_20k, scale):
        # The squared gaps here are subnormal: sqrt((x_j - x_i) ** 2), the
        # one distance the walk and the full scan take, differs from
        # |x_j - x_i|, and the tree's own squares lose precision, which
        # the ball's pad must absorb.
        x = logistic_20k.samples[:4000] * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = full_scan_wolf(x)
        assert walk_fields(largest_lyapunov_wolf(x)) == expected

    @pytest.mark.parametrize("w", [0, 20])
    @pytest.mark.parametrize("decimals", [1, 2, 3])
    def test_one_dimensional_ties_match_full_scan(self, logistic_20k, wolf_balls, decimals, w):
        # Rounded values put many points at one position and many at one
        # distance from point i. Where a candidate in the cone sits at
        # exactly the kept neighbour's distance with a lower index, the
        # tree's ball must hold it and the pick take it.
        x = np.round(logistic_20k.samples[:4000], decimals)
        picks = checked_picks(x[:, None], wolf_balls, theiler_w=w)
        assert any(
            p.kept_admissible and p.kept_in_cone and p.chosen < p.kept and p.chosen_distance == p.kept_distance
            for p in picks
        )

    def test_no_initial_neighbour_where_full_scan_has_none(self, lorenz_20k):
        # Point 0 moved far off the attractor: most points have
        # neighbours, point 0 has none.
        pts = self.lorenz_points(lorenz_20k, 3).copy()
        pts[0] += 1e3
        params = WolfParams(min_separation=1e-3, max_separation=1.0)
        assert full_scan_wolf(pts, min_separation=1e-3, max_separation=1.0) is None
        with pytest.raises(EstimationError, match="no admissible initial neighbour"):
            largest_lyapunov_wolf(pts, params)


class TestBatchedFetch:
    """The walk asks the tree for one ball per pick, no wider than the
    kept neighbour where that neighbour bounds the pick; every route
    through that rule must take the full scan's steps and ask for the
    ball the rule gives at each. The test names date from an earlier design that fetched the balls of many fiducial
    points at once; they are kept so that the test ids stay stable."""

    lorenz_points = staticmethod(TestFullScanOracle.lorenz_points)

    @pytest.mark.parametrize("m", [2, 7, 8, 9])
    def test_walk_longer_than_one_fetch(self, lorenz_20k, wolf_balls, m):
        # A long walk asks for balls of both kinds: shrunk to the kept
        # neighbour, and the full d_max.
        pts = self.lorenz_points(lorenz_20k, m, n=4000)
        checked_picks(pts, wolf_balls)
        d_max = default_d_max(pts)
        assert {r < d_max for _, r in wolf_balls} == {True, False}

    @pytest.mark.parametrize("m", [2, 3])
    def test_fetch_sizes_change_mid_walk(self, lorenz_20k, wolf_balls, m):
        # A shrunk ball's radius follows the kept neighbour's distance up
        # and down with the orbit, and the ball widens to d_max mid-walk
        # where that neighbour fails a test.
        pts = self.lorenz_points(lorenz_20k, m, n=4000)
        checked_picks(pts, wolf_balls)
        d_max = default_d_max(pts)
        shrunk = [r for _, r in wolf_balls if r < d_max]
        assert any(b > a for a, b in zip(shrunk, shrunk[1:]))
        assert any(b < a for a, b in zip(shrunk, shrunk[1:]))
        assert d_max in [r for _, r in wolf_balls[1:]]

    @pytest.mark.parametrize("m, n, w", [(2, 300, 50), (3, 500, 50), (8, 1500, 0)])
    def test_short_step_refetches_off_the_grid(self, lorenz_20k, wolf_balls, m, n, w):
        # The neighbour comes within evolve_steps of the last point and the
        # step is cut short. The neighbour then sits on the last point,
        # which has no future, so the next pick asks for a d_max ball.
        pts = self.lorenz_points(lorenz_20k, m, n=n)
        checked_picks(pts, wolf_balls, theiler_w=w)
        short = short_steps(wolf_balls)
        assert short
        assert [r for _, r, _ in short] == [default_d_max(pts)] * len(short)

    @pytest.mark.parametrize("m", [3, 8])
    @pytest.mark.parametrize("quantile", [0.25, 0.5, 0.9])
    def test_cone_edge_inside_a_fetch(self, lorenz_20k, m, quantile):
        # The first renormalisation, at fiducial point E, does not depend
        # on the angle. Set the cone's cosine to that of one of point E's
        # admissible candidates, so that one lies on the edge, where a
        # last-bit difference from the full scan's cosine would flip the
        # test.
        pts = self.lorenz_points(lorenz_20k, m)
        n = pts.shape[0]
        extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
        index = np.arange(n)

        def admissible(i):
            d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
            ok = (d >= 1e-3 * extent) & (d <= 0.1 * extent) & (index != i) & (index != n - 1)
            return np.flatnonzero(ok), d

        steps = WolfParams().evolve_steps
        cand, d = admissible(0)
        i, j = steps, int(cand[d[cand].argmin()]) + steps
        separation = pts[j] - pts[i]
        cand, d = admissible(i)
        cos = ((pts - pts[i]) * separation).sum(axis=1)[cand] / (d[cand] * float(np.sqrt((separation**2).sum())))
        edge = float(np.quantile(cos, quantile, method="lower"))
        angle = math.acos(edge)
        assert abs(math.cos(angle) - edge) <= 2 * math.ulp(1.0)
        expected = full_scan_wolf(pts, max_replacement_angle=angle)
        assert walk_fields(largest_lyapunov_wolf(pts, WolfParams(max_replacement_angle=angle))) == expected

    @pytest.mark.parametrize("m", [2, 8])
    @pytest.mark.parametrize("gap", [2, 100, 400, 800])
    def test_window_close_to_n(self, lorenz_20k, m, gap):
        # With w = n - gap only pairs more than n - gap apart qualify, so
        # the first neighbour lies near the end and short steps come soon.
        # At gap 2 point 0's one candidate is the last point, and at gap
        # 100 none of point 0's is close enough: the walk cannot start.
        pts = self.lorenz_points(lorenz_20k, m)
        w = pts.shape[0] - gap
        params = WolfParams(theiler_w=w)
        expected = full_scan_wolf(pts, theiler_w=w)
        if expected is None:
            with pytest.raises(EstimationError, match="no admissible initial neighbour"):
                largest_lyapunov_wolf(pts, params)
            return
        assert gap > 2
        assert walk_fields(largest_lyapunov_wolf(pts, params)) == expected


class TestBallRadius:
    """Edges of the radius rule: each walk takes the full scan's steps
    and asks for the ball the rule gives at every pick."""

    lorenz_points = staticmethod(TestFullScanOracle.lorenz_points)

    @pytest.mark.parametrize("m", [3, 8])
    def test_cone_cosine_rounds_to_one(self, lorenz_20k, wolf_balls, m):
        # The cone's cosine is 1.0, and a kept neighbour's own cosine,
        # its offsets' dot product with themselves over its distance
        # squared, often rounds below that: the neighbour fails its own
        # cone test, bounds nothing, and the ball is d_max.
        angle = 1e-9
        assert math.cos(angle) == 1.0
        picks = checked_picks(self.lorenz_points(lorenz_20k, m), wolf_balls, max_replacement_angle=angle)
        assert any(p.kept_admissible and not p.kept_in_cone for p in picks)

    @pytest.mark.parametrize("m", [3, 8])
    def test_kept_neighbour_outside_the_bounds(self, lorenz_20k, wolf_balls, m):
        # Narrow bounds, so the kept neighbour often converges below the
        # floor or diverges past the ceiling; either way the ball is d_max.
        pts = self.lorenz_points(lorenz_20k, m)
        extent = point_extent(pts)
        lo, hi = 0.01 * extent, 0.04 * extent
        picks = checked_picks(pts, wolf_balls, min_separation=lo, max_separation=hi)
        kept = [p.kept_distance for p in picks[1:]]
        assert min(kept) < lo
        assert max(kept) > hi

    @pytest.mark.parametrize("w", [1, 50, 1100])
    def test_kept_neighbour_stays_outside_the_exclusion_band(self, lorenz_20k, wolf_balls, w):
        # The rule tests the exclusion band too, but a walk never reaches
        # that case: i and j advance by the same steps, and every
        # neighbour taken lies outside the band.
        picks = checked_picks(self.lorenz_points(lorenz_20k, 3), wolf_balls, theiler_w=w)
        assert len(picks) > 1
        assert all(abs(p.kept - p.i) > w for p in picks[1:])

    @pytest.mark.parametrize("m", [2, 3])
    def test_tie_at_the_kept_distance_goes_to_the_lower_index(self, lorenz_20k, wolf_balls, m):
        # Codes of 1/8 SD put many points at equal distances. Where a
        # candidate in the cone sits at exactly the kept neighbour's
        # distance with a lower index, the ball must hold it and the pick
        # take it.
        x = lorenz_20k.samples
        codes = TimeSeries(np.round(x / (x.std() / 8)), sample_rate_hz=lorenz_20k.sample_rate_hz)
        picks = checked_picks(self.lorenz_points(codes, m), wolf_balls)
        assert any(
            p.kept_admissible and p.kept_in_cone and p.chosen < p.kept and p.chosen_distance == p.kept_distance
            for p in picks
        )


class TestWalkMemory:
    """A walk holds the tree and one pick's ball at a time, so its memory
    grows with the window only by the tree's index of each point."""

    def test_peak_holds_the_tree_and_one_ball(self):
        # 30 s at 256 Hz, the north star's window: 7,640 points. The tree's
        # index takes 8 bytes a point (61 KB), and a ball about 150 bytes a
        # candidate: a Python int from the tree, then an index, offsets and
        # a distance. This walk, whose balls hold at most a few hundred
        # candidates, stays below 256 KiB.
        x = generate(GeneratorSpec("lorenz", 7680, seed=11, transient_skip=1000, parameters={"fs": 256.0})).samples
        vectors = delay_embed(TimeSeries(x, sample_rate_hz=256.0), EmbeddingParams(6, 8))
        peak = traced_peak(lambda: largest_lyapunov_wolf(vectors))
        assert peak < 256 << 10


@pytest.mark.parametrize("m", [*range(1, 17), 131])
def test_separation_matches_numpy_row_sum(m):
    # The walk sums a step's squared separation as one 1-d array, the
    # ball sums its candidates' as rows of a 2-d array: the two must agree
    # bit for bit. Subnormal coordinates, whose squares underflow, and
    # very large ones, whose squares or sums overflow, in some entries of
    # the rows.
    rng = np.random.default_rng(m)
    a = rng.standard_normal((257, m)) * rng.uniform(0.01, 100.0, size=(257, m))
    b = rng.standard_normal((257, m))
    a[rng.random((257, m)) < 0.1] *= 1e-310
    b[rng.random((257, m)) < 0.1] *= 1e-310
    a[rng.random((257, m)) < 0.05] *= 1e154
    with np.errstate(over="ignore"):
        rows = ((a - b) ** 2).sum(axis=1)
        for p, q, row in zip(a, b, rows):
            expected = float(((p - q) ** 2).sum())
            assert expected.hex() == float(row).hex()


@pytest.mark.parametrize("m", [*range(1, 17), 131])
def test_cone_dots_do_not_depend_on_the_other_rows(m):
    # The walk takes the cone's dot products over a ball's candidates
    # alone, a full scan over every point: each row must come out the
    # same either way. Subnormal entries, and large ones whose products
    # overflow, in some rows and in the separation.
    rng = np.random.default_rng(m)
    rows = rng.standard_normal((257, m)) * rng.uniform(0.01, 100.0, size=(257, m))
    v = rng.standard_normal(m)
    rows[rng.random((257, m)) < 0.1] *= 1e-310
    v[rng.random(m) < 0.1] *= 1e-310
    rows[rng.random((257, m)) < 0.05] *= 1e154
    v[rng.random(m) < 0.1] *= 1e154
    index = np.arange(257)
    subsets = [
        index,
        *index[:, None],
        *(np.sort(rng.choice(257, size=k, replace=False)) for k in rng.integers(2, 257, size=100)),
        *(slice(lo, lo + k) for lo, k in rng.integers(0, 200, size=(20, 2))),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        full = _dots(rows, v)
        for sub in subsets:
            assert _dots(rows[sub], v).tobytes() == full[sub].tobytes()


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
        with pytest.raises(ConfigError, match="^points must be"):
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
