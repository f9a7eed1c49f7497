"""Correlation sums and the correlation dimension D2.

The correlation sum C(R) is the fraction of admissible point pairs at
Euclidean distance <= R, where a pair (i, j) is admissible when
``|i - j| > W`` for the temporal exclusion window W. Distances at
exactly R count (the kernel steps up at zero). Pairs are counted in row
blocks of at most ``_PAIR_BLOCK`` pairs: a block's squared distances are
built one coordinate at a time, added in the order numpy's row sum uses
(so every distance equals ``((a - b) ** 2).sum()`` bit for bit), sorted,
and the radius grid is located in them with one binary search per
radius. The O(N^2) pair work stays, but it runs in a few dozen numpy
passes instead of one Python iteration per index offset, and no
distance matrix is held beyond one block.

For the curve, radii are log-spaced between the 0.1th percentile and
the maximum of sampled pairwise distances. When the admissible pairs
number at most ``_PAIR_SAMPLE_CAP`` (one million), the sample is all of
them: their squared distances are built once, by the blocked kernel,
and sorted once; the grid's ends come from their square roots, and each
radius is counted by one binary search in them, with no second pass.
Beyond the cap, a million pairs are drawn uniformly from the admissible
set with a fixed seed, so the grid, and everything downstream of it, is
reproducible; the pairs are then counted block by block as above. Only
the maximum and a percentile of the sample are read, and neither
depends on order, so the draws are sorted before they are turned into
pairs, and the pairs are gathered ``_SAMPLE_BLOCK`` at a time, walking
the points in memory order.

D2 is read off as the least-squares slope of log C(R) against log R
over an automatically selected scaling region. Every candidate window's
R^2 is first estimated from prefix sums in one vectorised pass, with a
proven bound on how far the exact fit can lie from the estimate; only
the windows that the bounds cannot rule out are fitted exactly, so the
chosen window and every output bit are those of fitting them all.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSeriesError, NoScalingRegionError, check_array, check_float, check_int
from .series import as_points, point_extent

__all__ = [
    "CorrelationCurve",
    "D2Estimate",
    "correlation_sum",
    "correlation_curve",
    "correlation_dimension",
]

# Seed for the pair subsample that sets the radius grid. Fixed so runs
# are reproducible; it has no effect once the grid is chosen.
_PAIR_SAMPLE_SEED = 411
_PAIR_SAMPLE_CAP = 1_000_000
# Fewest radii on a correlation curve.
MIN_RADII = 8
# Pairs per block of the pair count. A block holds two float64 arrays of
# this size, about a dozen from 8 coordinates up: a few MB at most, and
# small enough to stay in cache between its passes.
_PAIR_BLOCK = 1 << 16
# Sampled pairs gathered at a time for the radius grid: a block's
# per-coordinate arrays stay in cache, and no array of the whole sample
# is held beyond its distances.
_SAMPLE_BLOCK = 1 << 15
# Unit roundoff of float64.
_U = 2.0**-53


@dataclass(frozen=True)
class CorrelationCurve:
    """C(R) sampled on an increasing radius grid, as fractions of the
    ``n_pairs`` admissible pairs behind it."""

    radii: np.ndarray
    c_values: np.ndarray
    n_pairs: int

    def __post_init__(self):
        r = check_array("radii", self.radii, ndim=1, min_len=0)
        c = check_array("c_values", self.c_values, ndim=1, min_len=0)
        if r.shape != c.shape:
            raise ConfigError("radii and c_values must be equally long")
        if np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ConfigError("radii must be positive and strictly increasing")
        if np.any(c < 0) or np.any(c > 1) or np.any(np.diff(c) < 0):
            raise ConfigError("c_values must be non-decreasing within [0, 1]")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "c_values", c)
        object.__setattr__(self, "n_pairs", check_int("n_pairs", self.n_pairs, 1))


@dataclass(frozen=True)
class D2Estimate:
    """Correlation dimension with the scaling region that produced it."""

    d2: float
    fit_range: tuple[float, float]
    fit_r2: float
    n_pairs_in_range: int

    def __post_init__(self):
        if not (isinstance(self.fit_range, (tuple, list)) and len(self.fit_range) == 2):
            raise ConfigError(f"fit_range must be a pair of radii, got {self.fit_range!r}")
        lo = check_float("fit_range[0]", self.fit_range[0], above=0)
        check_float("fit_range[1]", self.fit_range[1], above=lo)
        check_float("d2", self.d2)
        check_float("fit_r2", self.fit_r2, at_least=0, at_most=1)
        object.__setattr__(self, "n_pairs_in_range", check_int("n_pairs_in_range", self.n_pairs_in_range, 0))


def _n_admissible_pairs(n: int, w: int) -> int:
    gaps = n - 1 - w
    return gaps * (gaps + 1) // 2 if gaps > 0 else 0


def _check_theiler(n: int, w) -> int:
    w = check_int("theiler_w", w, 0)
    if n < 2:
        raise ConfigError(f"a correlation sum needs at least 2 points, got {n}")
    if _n_admissible_pairs(n, w) < 1:
        raise ConfigError(
            f"theiler_w={w} excludes every pair of the {n} points; widen the data or shrink the window"
        )
    return w


def correlation_sum(vectors, radius: float, theiler_w: int = 0) -> float:
    """Fraction of admissible pairs within ``radius`` (inclusive).

    A radius whose square overflows float64 is compared as the largest
    finite square, which every pair reaches: points whose squared
    distances may overflow raise DegenerateSeriesError
    (:func:`~chaoskit.series.point_extent`).
    """
    pts = as_points(vectors)
    n = pts.shape[0]
    w = _check_theiler(n, theiler_w)
    radius = check_float("radius", radius, above=0)
    point_extent(pts)
    r_sq = min(radius * radius, np.finfo(np.float64).max)
    count = _pair_counts(pts, w, np.array([r_sq]))[0]
    return int(count) / _n_admissible_pairs(n, w)


def _columns(pts: np.ndarray) -> list[np.ndarray]:
    return [np.ascontiguousarray(pts[:, c]) for c in range(pts.shape[1])]


def _sum_of_squares(diffs: Iterator[np.ndarray], m: int) -> np.ndarray:
    """Squared Euclidean distances from ``m`` per-coordinate differences,
    equal bit for bit to ``(diff ** 2).sum(axis=1)`` over the rows. Each
    difference array is squared in place."""
    return _row_sum((np.square(d, out=d) for d in diffs), m)


def _row_sum(terms: Iterator[np.ndarray], m: int) -> np.ndarray:
    """Sum ``m`` arrays in the order numpy's ``x.sum(axis=-1)`` adds a
    row of ``m`` values, so the totals match it bit for bit.

    Below 8 values numpy adds from left to right. From 8 to 128 it keeps
    eight running sums ``r[k] += x[8q + k]``, joins them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and adds the
    rest in turn; above 128 it splits at a multiple of 8 near the middle
    and adds the two halves' sums. ``terms`` yields fresh arrays, which
    are used as accumulators.
    """
    if m < 8:
        acc = next(terms)
        for _ in range(m - 1):
            acc += next(terms)
        return acc
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _row_sum(terms, half) + _row_sum(terms, m - half)
    r = [next(terms) for _ in range(8)]
    for k in range(8, m - m % 8):
        r[k % 8] += next(terms)
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for _ in range(m % 8):
        acc += next(terms)
    return acc


def _pair_blocks(pts: np.ndarray, w: int) -> Iterator[np.ndarray]:
    """Squared distances of the admissible pairs, a row block at a time.

    Rows ``a .. b-1`` of a block meet the columns ``a + w + 1 .. n-1``,
    so its entry (r, c) is the pair (a + r, a + w + 1 + c); the entries
    with c < r lie inside the exclusion band and are set to +inf, which
    no radius reaches.
    """
    n, m = pts.shape
    columns = _columns(pts)
    a = 0
    while a < n - w - 1:
        lo = a + w + 1
        width = n - lo
        rows = max(1, min(_PAIR_BLOCK // width, width))
        d_sq = _sum_of_squares((np.subtract.outer(x[a : a + rows], x[lo:]) for x in columns), m)
        d_sq[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.inf
        yield d_sq
        a += rows


def _pair_counts(pts: np.ndarray, w: int, r_sq: np.ndarray) -> np.ndarray:
    """Admissible pairs at squared distance <= each of ``r_sq``: each
    block is sorted, and one binary search per radius counts its pairs
    at or below it."""
    counts = np.zeros(r_sq.size, dtype=np.int64)
    for d_sq in _pair_blocks(pts, w):
        flat = d_sq.ravel()
        flat.sort()
        counts += np.searchsorted(flat, r_sq, side="right")
    return counts


def _all_pair_distances(pts: np.ndarray, w: int) -> np.ndarray:
    """Squared distances of every admissible pair, sorted."""
    d_sq = np.concatenate([block.ravel() for block in _pair_blocks(pts, w)])
    d_sq.sort()
    return d_sq[: _n_admissible_pairs(pts.shape[0], w)]  # the band's +inf sort last


def _sampled_pair_distances(pts: np.ndarray, w: int) -> np.ndarray:
    """Distances of a seeded uniform sample of ``_PAIR_SAMPLE_CAP``
    admissible pairs, in no particular order, gathered a block of
    ``_SAMPLE_BLOCK`` pairs at a time."""
    n, m = pts.shape
    total = _n_admissible_pairs(n, w)
    rng = np.random.default_rng(_PAIR_SAMPLE_SEED)
    draws = np.sort(rng.integers(0, total, size=_PAIR_SAMPLE_CAP))
    # Pairs are ranked by offset k then start index: the pairs of offset
    # w + 1 + q take the ranks ends[q] - (n - w - 1 - q) .. ends[q] - 1.
    per_offset = np.arange(n - w - 1, 0, -1)
    ends = np.cumsum(per_offset)
    columns = _columns(pts)
    d = np.empty(draws.size)
    for s in range(0, draws.size, _SAMPLE_BLOCK):
        block = draws[s : s + _SAMPLE_BLOCK]
        q = np.searchsorted(ends, block, side="right")
        i = block - (ends - per_offset)[q]
        j = i + (w + 1) + q
        d[s : s + block.size] = np.sqrt(_sum_of_squares((np.take(x, i) - np.take(x, j) for x in columns), m))
    return d


def _radius_grid(d: np.ndarray, n_radii: int) -> np.ndarray:
    """Log-spaced radii from the 0.1th percentile of the pair distances
    ``d`` to their maximum."""
    hi = float(d.max())
    if hi <= 0.0:
        raise DegenerateSeriesError("all sampled pair distances are zero")
    # The 0.1th percentile, not a higher one: for space-filling data the
    # boundary of the support flattens the log-log curve at radii the
    # 1st percentile already reaches, and the fit would sit on the bend.
    lo = float(np.percentile(d, 0.1))
    if lo <= 0.0:
        positive = d[d > 0]
        lo = float(positive.min())
    if not lo < hi:
        raise DegenerateSeriesError("pair distances span no range; cannot build a radius grid")
    radii = np.geomspace(lo, hi, n_radii)
    if np.any(np.diff(radii) <= 0):
        raise DegenerateSeriesError("radius grid collapsed; pair distances span no usable range")
    return radii


def correlation_curve(vectors, n_radii: int = 24, theiler_w: int = 0) -> CorrelationCurve:
    """C(R) over a log-spaced radius grid derived from the data.

    Up to ``_PAIR_SAMPLE_CAP`` admissible pairs, their sorted squared
    distances give both the grid and the counts; beyond it the pairs are
    counted once against the whole squared radius grid, a bounded row
    block at a time. Identical arithmetic to :func:`correlation_sum`
    radius by radius. Points whose squared distances may overflow
    float64 raise DegenerateSeriesError (:func:`~chaoskit.series.point_extent`).
    """
    pts = as_points(vectors)
    n = pts.shape[0]
    w = _check_theiler(n, theiler_w)
    n_radii = check_int("n_radii", n_radii, MIN_RADII)
    point_extent(pts)
    total = _n_admissible_pairs(n, w)
    if total <= _PAIR_SAMPLE_CAP:
        d_sq = _all_pair_distances(pts, w)
        radii = _radius_grid(np.sqrt(d_sq), n_radii)
        counts = np.searchsorted(d_sq, radii * radii, side="right")
    else:
        radii = _radius_grid(_sampled_pair_distances(pts, w), n_radii)
        counts = _pair_counts(pts, w, radii * radii)
    return CorrelationCurve(radii=radii, c_values=counts / total, n_pairs=total)


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and Pearson r of y on x.

    The arithmetic of ``scipy.stats.linregress``, so results match it
    bit for bit, without its p-value and standard errors. A zero
    variance gives r = NaN when the covariance is zero too, else 0; r is
    clipped to [-1, 1] against rounding.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return ssxym / ssxm, r


def _gamma(k):
    """Bound on the relative error of ``k`` chained roundings, k u / (1 - k u)."""
    return k * _U / (1.0 - k * _U)


def _screened_windows(log_r: np.ndarray, log_c: np.ndarray, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of the windows the exact fit must decide between.

    Every window of at least ``min_len`` points gets an estimate R2 of
    its squared correlation and a bound B (``_r2_bounds``) such that
    ``_fit_line`` on the window returns an r with ``|r**2 - R2| <= B``.
    A window is dropped only when ``R2 + B`` falls below the largest
    ``R2 - B`` of an established window: its exact R^2 is then below
    that window's, whose r is finite, so it can neither win nor tie,
    and every window the (R^2, length, -start) rule has to choose among
    is kept. A window whose bound is not established is always kept.
    """
    grid = np.arange(log_r.size + 1)
    start, end = np.nonzero(grid[None, :] - grid[:, None] >= min_len)
    length = end - start
    r2, bound = _r2_bounds(log_r, log_c, start, length)
    settled = ~np.isnan(bound)
    keep = ~settled
    if settled.any():
        keep |= r2 + bound >= (r2 - bound)[settled].max()
    return start[keep], length[keep]


def _r2_bounds(log_r: np.ndarray, log_c: np.ndarray, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimated R^2 of each window of log C against log R, and a bound
    on its distance from the r**2 that ``_fit_line`` returns for the
    window; the bound is NaN where it cannot be established.

    Write u = 2^-53 and g_k = k u / (1 - k u): k roundings multiply a
    value by a factor within g_k of 1 (no value here comes near
    underflow). Let v, w be a window's L values of log R and log C, and
    Sxx*, Syy*, Sxy* their exact centred sums of squares and products;
    r* = Sxy* / sqrt(Sxx* Syy*) lies in [-1, 1].

    - Estimate. With x = fl(log R - mean) over all N eligible radii (y
      likewise) and prefix sums P of x, x^2, x y, the window's sums are
      Sxx = (P2[e] - P2[s]) - (P1[e] - P1[s])^2 / L, and likewise Syy
      and Sxy. A prefix difference of x holds at most N roundings, so
      each term of these expressions passes through at most 2N + 3, and
      Sxx is within g_{2N+3} h_x of the exact centred sum of the x in
      the window, where h_x is the same expression over |x| with every
      minus turned into a plus; h_x as evaluated is within a factor
      g_{2N+3} of its exact value. Rounding each x moved it by at most
      g_1 |x|, which moves the centred sums by at most g_3 h_x (and
      g_3 sqrt(h_x h_y) for Sxy). The cross expression is at most
      sqrt(h_x h_y) by Cauchy-Schwarz.
    - Exact fit. ``np.cov`` takes the mean m + d with
      |d| <= g_L max|v|, subtracts it (one rounding each) and sums L
      products (g_L). Since sum (v - m - d)^2 = Sxx* + L d^2 exactly,
      its sum is within L d^2 + g_{L+2} (Sxx* + L d^2) of Sxx*, and the
      cross sum within L |d d'| + g_{L+2} sqrt((Sxx* + L d^2)
      (Syy* + L d'^2)) of Sxy*; Sxx* itself is at most (1 + g_2) h_x.
    - Together, with f_x = L (g_L max|v|)^2, M_x = h_x + f_x and
      g = g_{4N+16}, both routes are within E_x = g M_x + 2 f_x of Sxx*
      (E_y likewise) and within E_xy = g sqrt(M_x M_y) + 2 sqrt(f_x f_y)
      of Sxy*.
    - Established means Sxx > 3 E_x and Syy > 3 E_y, all finite; then
      both exact variances, and the fit's, are positive. With
      p_x = E_x / (Sxx - E_x) < 1/2, p_y likewise,
      p_xy = E_xy / sqrt((Sxx - E_x)(Syy - E_y)), G = 1 / sqrt((1 - p_x)
      (1 - p_y)) and e = G (1 + p_xy) - 1, any r computed from sums
      within those distances is (r* + a) s with |a| <= p_xy and
      |s - 1| <= G - 1, so it lies within e of r* before rounding.
      ``_fit_line`` rounds its ratio at most five times and its square
      once; clipping to [-1, 1] only moves r toward r*. The estimate
      R2 = Sxy^2 / (Sxx Syy) rounds three times. So
      |r**2 - R2| <= 2 e (2 + e) + 4 g_5 (1 + e)^2. B inflates that by
      1 + g_64 and adds 4 u (1 + R2), which covers the rounding of its
      own evaluation and of the comparisons.
    """
    n = log_r.size
    end = start + length

    def prefix(v):
        out = np.zeros(n + 1)
        np.cumsum(v, out=out[1:])
        return out

    def window_sum(v):
        p = prefix(v)
        return p[end] - p[start]

    x = log_r - log_r.mean()
    y = log_c - log_c.mean()
    span = length.astype(np.float64)
    sx, sy = window_sum(x), window_sum(y)
    sxx = window_sum(x * x) - sx * sx / span
    syy = window_sum(y * y) - sy * sy / span
    sxy = window_sum(x * y) - sx * sy / span

    def magnitude(v, raw):
        """(M, f) of the derivation for one variable."""
        sq, ab = prefix(v * v), prefix(np.abs(v))
        h = sq[end] + sq[start] + (ab[end] + ab[start]) ** 2 / span
        f = span * (_gamma(span) * np.abs(raw).max()) ** 2
        return h + f, f

    g = _gamma(4 * n + 16)
    m_x, f_x = magnitude(x, log_r)
    m_y, f_y = magnitude(y, log_c)
    e_x = g * m_x + 2.0 * f_x
    e_y = g * m_y + 2.0 * f_y
    e_xy = g * np.sqrt(m_x * m_y) + 2.0 * np.sqrt(f_x * f_y)
    with np.errstate(all="ignore"):
        r2 = sxy * sxy / (sxx * syy)
        p_x = e_x / (sxx - e_x)
        p_y = e_y / (syy - e_y)
        p_xy = e_xy / np.sqrt((sxx - e_x) * (syy - e_y))
        e = (1.0 + p_xy) / np.sqrt((1.0 - p_x) * (1.0 - p_y)) - 1.0
        bound = (2.0 * e * (2.0 + e) + 4.0 * _gamma(5) * (1.0 + e) ** 2) * (1.0 + _gamma(64))
        bound += 4.0 * _U * (1.0 + r2)
    settled = (sxx > 3.0 * e_x) & (syy > 3.0 * e_y) & np.isfinite(r2) & np.isfinite(bound)
    return r2, np.where(settled, bound, np.nan)


def check_min_fit_r2(min_fit_r2: float) -> float:
    """``min_fit_r2`` as a float, refusing a linearity bar no fit can
    meet, or one that NaN would make vanish (``r2 < nan`` is false)."""
    return check_float("min_fit_r2", min_fit_r2, at_least=0, at_most=1)


def correlation_dimension(curve: CorrelationCurve, min_fit_r2: float = 0.98) -> D2Estimate:
    """Slope of log C against log R over the best scaling region.

    Candidate regions are all contiguous windows of the radii with
    ``0 < C < 1`` whose length is at least ``max(4, 40%)`` of those
    radii. The window maximising the fit R^2 wins, subject to
    ``R^2 >= min_fit_r2``; ties go to the widest window, then to the
    smallest starting radius. A window whose fit has no finite r (a run
    of constant C) is never chosen.

    The R^2 of every window is estimated at once from prefix sums, and
    only the windows whose bounded estimate could reach the best one
    are fitted exactly (``_r2_bounds`` derives the bound), so the
    result equals fitting every window, to the bit.

    Raises
    ------
    ConfigError
        If ``min_fit_r2`` is not in [0, 1].
    NoScalingRegionError
        With fewer than 8 usable radii, or when no window reaches the
        required linearity. Widening the radius grid or the data is the
        usual remedy.
    """
    min_fit_r2 = check_min_fit_r2(min_fit_r2)
    c = curve.c_values
    eligible = np.nonzero((c > 0.0) & (c < 1.0))[0]
    if eligible.size < 8:
        raise NoScalingRegionError(
            f"need at least 8 radii with 0 < C < 1 to fit a dimension, have {eligible.size}"
        )
    log_r = np.log(curve.radii[eligible])
    log_c = np.log(c[eligible])
    n_el = eligible.size
    min_len = max(4, math.ceil(0.4 * n_el))
    best = None  # (r2, length, -start, slope)
    for start, length in zip(*_screened_windows(log_r, log_c, min_len)):
        slope, r = _fit_line(log_r[start : start + length], log_c[start : start + length])
        if not np.isfinite(r):
            continue
        key = (r**2, length, -start)
        if best is None or key > best[:3]:
            best = (*key, slope, start)
    if best is None or best[0] < min_fit_r2:
        raise NoScalingRegionError(
            f"no scaling window reaches R^2 >= {min_fit_r2}; the curve never goes straight"
        )
    r2, length, neg_start, slope, start = best
    lo_idx = eligible[start]
    hi_idx = eligible[start + length - 1]
    in_range = int(round((c[hi_idx] - c[lo_idx]) * curve.n_pairs))
    return D2Estimate(
        d2=float(slope),
        fit_range=(float(curve.radii[lo_idx]), float(curve.radii[hi_idx])),
        fit_r2=float(r2),
        n_pairs_in_range=in_range,
    )
