"""Correlation sums and the correlation dimension D2.

The correlation sum C(R) is the fraction of admissible point pairs at
Euclidean distance <= R, where a pair (i, j) is admissible when
``|i - j| > W`` for the temporal exclusion window W. Distances at
exactly R count (the kernel steps up at zero). Pairs are enumerated by
index offset so the whole curve is one vectorised pass per offset over
squared distances; no distance matrix is materialised.

For the curve, radii are log-spaced between the 0.1th percentile and
the maximum of sampled pairwise distances. Sampling uses at most one
million pairs drawn uniformly from the admissible set with a fixed
seed, so the grid, and everything downstream of it, is reproducible.
D2 is read off as the least-squares slope of log C(R) against log R
over an automatically selected scaling region.
"""

from __future__ import annotations

import math
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
    r_sq = radius * radius
    count = 0
    for k in range(w + 1, n):
        d_sq = ((pts[: n - k] - pts[k:]) ** 2).sum(axis=1)
        count += int((d_sq <= r_sq).sum())
    return count / _n_admissible_pairs(n, w)


def _sampled_pair_distances(pts: np.ndarray, w: int) -> np.ndarray:
    n = pts.shape[0]
    total = _n_admissible_pairs(n, w)
    if total <= _PAIR_SAMPLE_CAP:
        chunks = []
        for k in range(w + 1, n):
            chunks.append(((pts[: n - k] - pts[k:]) ** 2).sum(axis=1))
        d_sq = np.concatenate(chunks)
    else:
        rng = np.random.default_rng(_PAIR_SAMPLE_SEED)
        draws = rng.integers(0, total, size=_PAIR_SAMPLE_CAP)
        # Pairs are ranked by offset k then start index; invert that
        # ranking to turn each draw into a concrete (i, i + k) pair.
        per_offset = n - np.arange(w + 1, n)
        cum = np.cumsum(per_offset)
        which = np.searchsorted(cum, draws, side="right")
        k = w + 1 + which
        start = draws - np.where(which > 0, cum[which - 1], 0)
        d_sq = ((pts[start] - pts[start + k]) ** 2).sum(axis=1)
    return np.sqrt(d_sq)


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

    One pass per index offset accumulates a histogram of squared
    distances against the squared radius grid, then a cumulative sum
    yields every C(R) at once. Identical arithmetic to
    :func:`correlation_sum` radius by radius.
    """
    pts = _as_points(vectors)
    n = pts.shape[0]
    w = _check_theiler(n, theiler_w)
    if int(n_radii) != n_radii or n_radii < 8:
        raise ConfigError(f"n_radii must be an integer >= 8, got {n_radii!r}")
    n_radii = int(n_radii)
    radii = _radius_grid(pts, n_radii, w)
    r_sq = radii * radii
    counts = np.zeros(n_radii + 1, dtype=np.int64)
    for k in range(w + 1, n):
        d_sq = ((pts[: n - k] - pts[k:]) ** 2).sum(axis=1)
        counts += np.bincount(np.searchsorted(r_sq, d_sq, side="left"), minlength=n_radii + 1)
    c = np.cumsum(counts[:n_radii]) / _n_admissible_pairs(n, w)
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
