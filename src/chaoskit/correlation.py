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
the maximum of sampled pairwise distances. Sampling uses at most one
million pairs drawn uniformly from the admissible set with a fixed
seed, so the grid, and everything downstream of it, is reproducible.
Only the maximum and a percentile of the sample are read, and neither
depends on order, so the draws are sorted before they are turned into
pairs; the gathers then walk the points in memory order.
D2 is read off as the least-squares slope of log C(R) against log R
over an automatically selected scaling region.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSeriesError, NoScalingRegionError
from .series import DelayVectors

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
# Pairs per block of the pair count. A block holds two float64 arrays of
# this size, about a dozen from 8 coordinates up: a few MB at most, and
# small enough to stay in cache between its passes.
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class CorrelationCurve:
    """C(R) sampled on an increasing radius grid."""

    radii: np.ndarray
    c_values: np.ndarray
    theiler_w: int
    n_points: int

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=np.float64)
        c = np.asarray(self.c_values, dtype=np.float64)
        if r.ndim != 1 or r.shape != c.shape:
            raise ConfigError("radii and c_values must be one-dimensional and equally long")
        if np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ConfigError("radii must be positive and strictly increasing")
        if np.any(c < 0) or np.any(c > 1) or np.any(np.diff(c) < 0):
            raise ConfigError("c_values must be non-decreasing within [0, 1]")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "c_values", c)


@dataclass(frozen=True)
class D2Estimate:
    """Correlation dimension with the scaling region that produced it."""

    d2: float
    fit_range: tuple[float, float]
    fit_r2: float
    n_pairs_in_range: int

    def __post_init__(self):
        lo, hi = self.fit_range
        if not 0 < lo < hi:
            raise ConfigError(f"fit_range must be an increasing positive pair, got {self.fit_range!r}")
        if not 0 <= self.fit_r2 <= 1:
            raise ConfigError(f"fit_r2 must be within [0, 1], got {self.fit_r2!r}")


def _as_points(vectors) -> np.ndarray:
    if isinstance(vectors, DelayVectors):
        return vectors.points
    pts = np.asarray(vectors, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ConfigError(f"need a (n >= 2, m) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ConfigError("points must be finite")
    return pts


def _n_admissible_pairs(n: int, w: int) -> int:
    gaps = n - 1 - w
    return gaps * (gaps + 1) // 2 if gaps > 0 else 0


def _check_theiler(n: int, w) -> int:
    if int(w) != w or w < 0:
        raise ConfigError(f"theiler_w must be an integer >= 0, got {w!r}")
    w = int(w)
    if _n_admissible_pairs(n, w) < 1:
        raise ConfigError(
            f"theiler_w={w} excludes every pair of the {n} points; widen the data or shrink the window"
        )
    return w


def correlation_sum(vectors, radius: float, theiler_w: int = 0) -> float:
    """Fraction of admissible pairs within ``radius`` (inclusive)."""
    pts = _as_points(vectors)
    n = pts.shape[0]
    w = _check_theiler(n, theiler_w)
    if not (np.isfinite(radius) and radius > 0):
        raise ConfigError(f"radius must be positive and finite, got {radius!r}")
    count = _pair_counts(pts, w, np.array([radius * radius]))[0]
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


def _pair_counts(pts: np.ndarray, w: int, r_sq: np.ndarray) -> np.ndarray:
    """Admissible pairs at squared distance <= each of ``r_sq``.

    Rows ``a .. b-1`` of a block meet the columns ``a + w + 1 .. n-1``,
    so its entry (r, c) is the pair (a + r, a + w + 1 + c); the entries
    with c < r lie inside the exclusion band and are set to +inf, which
    no radius reaches. Each block is sorted, and one binary search per
    radius counts its pairs at or below it.
    """
    n, m = pts.shape
    columns = _columns(pts)
    counts = np.zeros(r_sq.size, dtype=np.int64)
    a = 0
    while a < n - w - 1:
        lo = a + w + 1
        width = n - lo
        rows = max(1, min(_PAIR_BLOCK // width, width))
        d_sq = _sum_of_squares((np.subtract.outer(x[a : a + rows], x[lo:]) for x in columns), m)
        d_sq[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.inf
        flat = d_sq.ravel()
        flat.sort()
        counts += np.searchsorted(flat, r_sq, side="right")
        a += rows
    return counts


def _sampled_pair_distances(pts: np.ndarray, w: int) -> np.ndarray:
    """Distances of every admissible pair, or of a seeded uniform sample
    of ``_PAIR_SAMPLE_CAP`` of them, in no particular order."""
    n = pts.shape[0]
    total = _n_admissible_pairs(n, w)
    if total <= _PAIR_SAMPLE_CAP:
        i, j = np.triu_indices(n, k=w + 1)
    else:
        rng = np.random.default_rng(_PAIR_SAMPLE_SEED)
        draws = np.sort(rng.integers(0, total, size=_PAIR_SAMPLE_CAP))
        # Pairs are ranked by offset k then start index; sorted, the
        # draws of each offset form one run, so the ranking inverts by
        # repeating each offset's first rank over its run.
        offsets = np.arange(w + 1, n)
        per_offset = n - offsets
        ends = np.cumsum(per_offset)
        runs = np.diff(np.searchsorted(draws, ends), prepend=0)
        i = draws - np.repeat(ends - per_offset, runs)
        j = i + np.repeat(offsets, runs)
    return np.sqrt(_sum_of_squares((x[i] - x[j] for x in _columns(pts)), pts.shape[1]))


def _radius_grid(pts: np.ndarray, n_radii: int, w: int) -> np.ndarray:
    d = _sampled_pair_distances(pts, w)
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

    The admissible pairs are counted once against the whole squared
    radius grid, a bounded row block at a time. Identical arithmetic to
    :func:`correlation_sum` radius by radius.
    """
    pts = _as_points(vectors)
    n = pts.shape[0]
    w = _check_theiler(n, theiler_w)
    if int(n_radii) != n_radii or n_radii < 8:
        raise ConfigError(f"n_radii must be an integer >= 8, got {n_radii!r}")
    n_radii = int(n_radii)
    radii = _radius_grid(pts, n_radii, w)
    c = _pair_counts(pts, w, radii * radii) / _n_admissible_pairs(n, w)
    return CorrelationCurve(radii=radii, c_values=c, theiler_w=w, n_points=n)


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


def correlation_dimension(curve: CorrelationCurve, min_fit_r2: float = 0.98) -> D2Estimate:
    """Slope of log C against log R over the best scaling region.

    Candidate regions are all contiguous windows of the radii with
    ``0 < C < 1`` whose length is at least ``max(4, 40%)`` of those
    radii. The window maximising the fit R^2 wins, subject to
    ``R^2 >= min_fit_r2``; ties go to the widest window, then to the
    smallest starting radius.

    Raises
    ------
    NoScalingRegionError
        With fewer than 8 usable radii, or when no window reaches the
        required linearity. Widening the radius grid or the data is the
        usual remedy.
    """
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
    for length in range(min_len, n_el + 1):
        for start in range(0, n_el - length + 1):
            seg_x = log_r[start : start + length]
            seg_y = log_c[start : start + length]
            slope, r = _fit_line(seg_x, seg_y)
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
    n_pairs = _n_admissible_pairs(curve.n_points, curve.theiler_w)
    in_range = int(round((c[hi_idx] - c[lo_idx]) * n_pairs))
    return D2Estimate(
        d2=float(slope),
        fit_range=(float(curve.radii[lo_idx]), float(curve.radii[hi_idx])),
        fit_r2=float(r2),
        n_pairs_in_range=in_range,
    )
