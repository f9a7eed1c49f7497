"""Correlation sums and the correlation dimension D2.

The correlation sum C(R) is the fraction of admissible point pairs at
Euclidean distance <= R, where a pair (i, j) is admissible when
``|i - j| > W`` for the temporal exclusion window W. Distances at
exactly R count (the kernel steps up at zero).

Pairs are built a block of consecutive index offsets k at a time, at
most ``_BLOCK`` of them, from one shared row per offset. The points
are read as one series s with a tap per coordinate
(:func:`~chaoskit.series.coordinate_sources`: the embedded samples for
delay vectors, the columns laid end to end for plain arrays), so the
row ``(s[j + k] - s[j]) ** 2`` serves every coordinate, whose term is
its slice at its tap. The terms
are added in the order numpy's row sum uses, so every distance equals
``((a - b) ** 2).sum()`` bit for bit, and no distance matrix is held
beyond one block.

A curve streams the blocks twice. The first pass keeps the maximum
squared distance, the smallest few (enough for numpy's linear 0.1th
percentile of all of them) and the smallest positive one; the radius
grid is log-spaced from that percentile of the distances, or the
smallest positive distance when the percentile is zero, to their
maximum. The grid comes from every admissible pair, and no random
sample is drawn. The second pass counts each radius in each block:
the block's squared distances are rounded to float32 sort keys and
sorted, the keys below a radius's own key are counted by binary search,
and a radius whose key some value shares is recounted on float64.
Rounding to float32 is monotone, so the counts are exact.

D2 is read off as the least-squares slope of log C(R) against log R
over an automatically selected scaling region. Every candidate window
is fitted in one vectorised pass: its means and centred sums are
running sums read at its last point, so each is added from left to
right, as a plain loop adds it. No BLAS routine runs, so the fit does
not depend on the BLAS kernel the host selects.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DegenerateSeriesError, NoScalingRegionError, check_array, check_float, check_int
from .series import _BLOCK, as_points, coordinate_sources, point_extent

__all__ = [
    "CorrelationCurve",
    "D2Estimate",
    "correlation_curve",
    "correlation_dimension",
]

# Fewest radii on a correlation curve.
MIN_RADII = 8
# Percentile of the pair distances at the bottom of the radius grid.
_LOW_PERCENTILE = 0.1


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


class _Scratch:
    """Work arrays reused from block to block, so that a block's
    arithmetic allocates no memory: ``take`` hands out the next array of
    a shape, ``reset`` starts a block over."""

    def __init__(self):
        self._arrays: list[np.ndarray] = []
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if self._next == len(self._arrays):
            self._arrays.append(np.empty(size))
        elif self._arrays[self._next].size < size:
            self._arrays[self._next] = np.empty(size)
        self._next += 1
        return self._arrays[self._next - 1][:size].reshape(shape)


def _row_sum(terms: Iterator[np.ndarray], m: int, new: Callable[[], np.ndarray]) -> np.ndarray:
    """Sum ``m`` arrays in the order numpy's ``x.sum(axis=-1)``
    adds a row of ``m`` values, so the totals match it bit for bit.

    Below 8 values numpy adds from left to right. From 8 to 128 it keeps
    eight running sums ``r[k] += x[8q + k]``, joins them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and adds the
    rest in turn; above 128 it splits at a multiple of 8 near the middle
    and adds the two halves' sums. ``terms`` is only read: each running
    sum is made by its first addition, into an array from ``new()``, so
    no term is copied, and a single term is returned as it is.
    """

    def add(a, b, owned=False):
        if owned:
            a += b
            return a
        return np.add(a, b, out=new())

    if m > 128:
        half = m // 2 - (m // 2) % 8
        return add(_row_sum(terms, half, new), _row_sum(terms, m - half, new), True)
    if m < 8:
        acc = next(terms)
        for k in range(1, m):
            acc = add(acc, next(terms), k > 1)
        return acc
    r = [next(terms) for _ in range(8)]
    for k in range(8, m - m % 8):
        r[k % 8] = add(r[k % 8], next(terms), k >= 16)
    own = m >= 16
    acc = add(
        add(add(r[0], r[1], own), add(r[2], r[3], own), True),
        add(add(r[4], r[5], own), add(r[6], r[7], own), True),
        True,
    )
    for _ in range(m % 8):
        acc += next(terms)
    return acc


def _pair_blocks(series: np.ndarray, taps: list[int], n: int, w: int) -> Iterator[np.ndarray]:
    """Squared distances of the admissible pairs of ``n`` points whose
    coordinate c is ``series[taps[c] : taps[c] + n]``, a block of
    consecutive index offsets at a time.

    The block of offsets ``k0 .. k0 + rows - 1`` squares one row
    ``(series[j + k] - series[j]) ** 2`` per offset k, and each
    coordinate's term is its slice at its tap. Its sum is a
    ``(rows, n - k0)`` array whose entry (r, i) is the pair
    (i, i + k0 + r). Entries with ``i >= n - k0 - r`` are not pairs: the
    last coordinate's term reads past the series' end, where it is
    padded with NaN, so they are NaN, which no comparison counts and
    ``np.fmax`` and ``np.fmin`` pass over. A block is overwritten by the
    next, so it must be used before the next is asked for.
    """
    shifted = sliding_window_view(np.concatenate([series, np.full(n, np.nan)]), series.size)
    scratch = _Scratch()
    k0 = w + 1
    while k0 < n:
        width, length = n - k0, series.size - k0
        rows = max(1, min(_BLOCK // width, width))
        scratch.reset()
        sq = scratch.take((rows, length))
        # Entries no pair reads may overflow, where the series spans
        # more than one point's coordinates.
        with np.errstate(over="ignore"):
            np.subtract(shifted[k0 : k0 + rows, :length], series[:length], out=sq)
            np.square(sq, out=sq)
        terms = (sq[:, tap : tap + width] for tap in taps)
        yield _row_sum(terms, len(taps), lambda: scratch.take((rows, width)))
        k0 += rows


def _low_percentile(smallest: np.ndarray, total: int) -> float:
    """``np.percentile(d, _LOW_PERCENTILE)`` of ``total`` values ``d``
    whose smallest ones are ``smallest``, sorted: numpy's linear rule,
    with its arithmetic. The ``floor(_percentile_position(total)) + 2``
    smallest suffice."""
    v = _percentile_position(total)
    i = math.floor(v)
    if i + 1 >= total:
        return float(smallest[total - 1])
    a, b = smallest[i], smallest[i + 1]
    t = v - i
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def _percentile_position(total: int) -> float:
    """Position of ``_LOW_PERCENTILE`` among ``total`` sorted values, as numpy computes it."""
    return (total - 1) * (_LOW_PERCENTILE / 100)


def _least_positive(a: np.ndarray) -> float:
    """Smallest positive value of ``a``, inf when there is none; NaN
    entries are passed over."""
    return float(np.fmin.reduce(a, axis=None, where=a > 0, initial=np.inf))


def _radius_grid(blocks: Iterator[np.ndarray], total: int, n_radii: int) -> np.ndarray:
    """Log-spaced radii from the 0.1th percentile of the ``total`` pair
    distances that ``blocks`` yields squared to their maximum.

    One pass keeps the largest square, the smallest ``keep`` squares
    (all that the percentile reads) and the smallest positive square.
    The squares at or below a cut are held, and when twice ``keep`` are
    held, all but the smallest ``keep`` are dropped and the cut falls to
    the largest kept. A square above a positive cut is bounded by that
    held one, so the smallest positive square is among the held ones,
    unless it lies in a block met while the cut is zero, which is
    searched whole.
    """
    keep = math.floor(_percentile_position(total)) + 2
    top = -np.inf
    cut = np.inf
    positive = np.inf
    held: list[np.ndarray] = []
    size = 0
    for d_sq in blocks:
        top = max(top, float(np.fmax.reduce(d_sq, axis=None)))
        if cut == 0.0:
            positive = min(positive, _least_positive(d_sq))
        held.append(d_sq[d_sq <= cut])
        size += held[-1].size
        if size >= 2 * keep:
            pool = np.concatenate(held)
            positive = min(positive, _least_positive(pool))
            pool.partition(keep - 1)
            held, size, cut = [pool[:keep]], keep, float(pool[keep - 1])
    pool = np.sort(np.concatenate(held))
    positive = min(positive, _least_positive(pool))
    smallest = pool[:keep]
    hi = float(np.sqrt(top))
    if hi <= 0.0:
        raise DegenerateSeriesError("all pair distances are zero")
    # The 0.1th percentile, not a higher one: for space-filling data the
    # boundary of the support flattens the log-log curve at radii the
    # 1st percentile already reaches, and the fit would sit on the bend.
    lo = _low_percentile(np.sqrt(smallest), total)
    if lo <= 0.0:
        lo = float(np.sqrt(positive))
    if not lo < hi:
        raise DegenerateSeriesError("pair distances span no range; cannot build a radius grid")
    radii = np.geomspace(lo, hi, n_radii)
    if np.any(np.diff(radii) <= 0):
        raise DegenerateSeriesError("radius grid collapsed; pair distances span no usable range")
    return radii


def _pair_counts(series: np.ndarray, taps: list[int], n: int, w: int, r_sq: np.ndarray) -> np.ndarray:
    """Admissible pairs at squared distance <= each of ``r_sq``.

    Each block's squares are rounded to float32 keys and sorted, and a
    radius counts the keys below its own key by binary search. Rounding
    is monotone, so a key below the radius's key is a square below the
    radius's square and one above it a square above; only a radius whose
    key some square shares is recounted on the float64 squares. Keys
    that overflow float32 round to inf, and the block's NaN entries sort
    after every key.
    """
    with np.errstate(over="ignore", under="ignore"):
        r_key = r_sq.astype(np.float32)
    counts = np.zeros(r_sq.size, dtype=np.int64)
    # A block holds at most _BLOCK entries, or one offset's n - k.
    key_space = np.empty(max(_BLOCK, n), dtype=np.float32)
    for d_sq in _pair_blocks(series, taps, n, w):
        keys = key_space[: d_sq.size]
        with np.errstate(over="ignore", under="ignore"):
            np.copyto(keys.reshape(d_sq.shape), d_sq, casting="same_kind")
        keys.sort()
        below = np.searchsorted(keys, r_key, side="left")
        for i in np.flatnonzero(np.searchsorted(keys, r_key, side="right") > below):
            below[i] = np.count_nonzero(d_sq <= r_sq[i])
        counts += below
    return counts


def correlation_curve(vectors, n_radii: int = 24, theiler_w: int = 0) -> CorrelationCurve:
    """C(R) over a log-spaced radius grid derived from the data.

    Two passes over the pair blocks, which share one row of squared
    differences among the coordinates: the first sets the grid from
    every admissible pair (the 0.1th percentile of their distances to
    the maximum), the second counts the pairs within each radius by
    float32 sort keys, recounting on float64 where a key ties, so each
    C(R) is the exact share of pairs at distance <= R. Points whose
    squared distances may overflow float64 raise DegenerateSeriesError
    (:func:`~chaoskit.series.point_extent`).
    """
    pts = as_points(vectors)
    n = pts.shape[0]
    w = _check_theiler(n, theiler_w)
    n_radii = check_int("n_radii", n_radii, MIN_RADII)
    point_extent(pts)
    total = _n_admissible_pairs(n, w)
    series, taps = coordinate_sources(vectors)
    radii = _radius_grid(_pair_blocks(series, taps, n, w), total, n_radii)
    counts = _pair_counts(series, taps, n, w, radii * radii)
    return CorrelationCurve(radii=radii, c_values=counts / total, n_pairs=total)


def _fit_centred(xy: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slope and R^2 of y on x over the first ``length`` entries of each
    column of ``xy = (x, y)``, centred on their means.

    The centred sums Sxx, Syy and Sxy are running sums down each column
    (``np.cumsum``) read at its last point. slope = Sxy / Sxx and
    R^2 = min(Sxy^2 / (Sxx Syy), 1), both NaN where Sxx or Syy is zero.
    """
    x, y = xy
    sums = np.cumsum(np.stack([x * x, y * y, x * y]), axis=1)
    sxx, syy, sxy = sums[:, length - 1, np.arange(length.size)]
    flat = (sxx == 0.0) | (syy == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(flat, np.nan, sxy / sxx)
        r2 = np.where(flat, np.nan, np.minimum(sxy * sxy / (sxx * syy), 1.0))
    return slope, r2


def _window_fits(log_r: np.ndarray, log_c: np.ndarray, min_len: int) -> tuple[np.ndarray, ...]:
    """Start, length, slope and R^2 of every window of at least
    ``min_len`` consecutive points (log R, log C).

    Column s holds the points from s on, padded with zeros. A window's
    means are running sums down its start's column (``np.cumsum``) read
    at its last point, so, like its centred sums (``_fit_centred``),
    they are added from left to right, as a plain loop over the window
    adds them. The windows are fitted at once, a block of at most
    ``_BLOCK`` column entries at a time.
    """
    n = log_r.size
    grid = np.arange(n + 1)
    start, end = np.nonzero(grid[None, :] - grid[:, None] >= min_len)
    length = end - start
    padded = np.concatenate([np.stack([log_r, log_c]), np.zeros((2, n))], axis=1)
    columns = np.take(padded, grid[:n, None] + grid[: n - min_len + 1], axis=1)
    means = np.cumsum(columns, axis=1)[:, length - 1, start] / length
    step = max(1, _BLOCK // n)
    blocks = [slice(k, k + step) for k in range(0, start.size, step)]
    fits = [_fit_centred(np.take(columns, start[b], axis=2) - means[:, None, b], length[b]) for b in blocks]
    slope, r2 = (np.concatenate(parts) for parts in zip(*fits))
    return start, length, slope, r2


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

    Every window is fitted in one vectorised pass of left-to-right sums
    (``_window_fits``), so each slope and R^2 is that of a plain loop
    over the window, bit for bit, and no BLAS kernel rounds them.

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
    start, length, slope, r2 = _window_fits(log_r, log_c, max(4, math.ceil(0.4 * n_el)))
    # NaN sorts last, so a window with a finite R^2 comes first if any has one.
    best = np.lexsort((start, -length, -r2))[0]
    if not r2[best] >= min_fit_r2:
        raise NoScalingRegionError(
            f"no scaling window reaches R^2 >= {min_fit_r2}; the curve never goes straight"
        )
    start, length = start[best], length[best]
    lo_idx = eligible[start]
    hi_idx = eligible[start + length - 1]
    in_range = int(round((c[hi_idx] - c[lo_idx]) * curve.n_pairs))
    return D2Estimate(
        d2=float(slope[best]),
        fit_range=(float(curve.radii[lo_idx]), float(curve.radii[hi_idx])),
        fit_r2=float(r2[best]),
        n_pairs_in_range=in_range,
    )
