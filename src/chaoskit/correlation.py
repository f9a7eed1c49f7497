"""Correlation sums and the correlation dimension D2.

The correlation sum C(R) is the fraction of admissible point pairs at
Euclidean distance <= R, where a pair (i, j) is admissible when
``|i - j| > W`` for the temporal exclusion window W. Distances at
exactly R count (the kernel steps up at zero).

Pairs are built a block of consecutive index offsets k at a time, at
most ``_PAIR_BLOCK`` of them, from shared rows: each source series
(:func:`~chaoskit.series.coordinate_sources`: the embedded samples for
delay vectors, each column otherwise) gives one row
``(s[j + k] - s[j]) ** 2`` per offset, and each coordinate's term is a
shifted slice of it, at its tap. The terms
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
over an automatically selected scaling region. Every candidate window's
R^2 is first estimated from prefix sums in one vectorised pass, with a
proven bound on how far the exact fit can lie from the estimate; only
the windows that the bounds cannot rule out are fitted exactly, so the
chosen window and every output bit are those of fitting them all.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DegenerateSeriesError, NoScalingRegionError, check_array, check_float, check_int
from .series import as_points, coordinate_sources, point_extent

__all__ = [
    "CorrelationCurve",
    "D2Estimate",
    "correlation_curve",
    "correlation_dimension",
]

# Fewest radii on a correlation curve.
MIN_RADII = 8
# Entries per block of offsets. A block's rows, running sums and sort
# keys are a few arrays of this size, 256 KB each in float64, and stay
# in a core's cache between a block's steps: at twice this size the
# curve of a 300-point window took about a third longer on a Xeon with
# 2 MB of L2 cache per core.
_PAIR_BLOCK = 1 << 15
# Percentile of the pair distances at the bottom of the radius grid.
_LOW_PERCENTILE = 0.1
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


def _block_terms(
    sources: list[tuple[np.ndarray, int]],
    windows: dict[int, np.ndarray],
    k0: int,
    rows: int,
    width: int,
    scratch: _Scratch,
) -> Iterator[np.ndarray]:
    """Each coordinate's squared differences over the offsets
    ``k0 .. k0 + rows - 1``, as a ``(rows, width)`` slice of its series'
    rows; a series' rows are built when its first coordinate asks."""
    last = None
    for series, tap in sources:
        if series is not last:
            length = series.size - k0
            sq = scratch.take((rows, length))
            np.subtract(windows[id(series)][k0 : k0 + rows, :length], series[:length], out=sq)
            # Entries no pair reads may overflow, where a delay series
            # spans more than one point's coordinates.
            with np.errstate(over="ignore"):
                np.square(sq, out=sq)
            last = series
        yield sq[:, tap : tap + width]


def _pair_blocks(sources: list[tuple[np.ndarray, int]], n: int, w: int) -> Iterator[np.ndarray]:
    """Squared distances of the admissible pairs of ``n`` points, a block
    of consecutive index offsets at a time.

    The block of offsets ``k0 .. k0 + rows - 1`` is a ``(rows, n - k0)``
    array whose entry (r, i) is the pair (i, i + k0 + r). Entries with
    ``i >= n - k0 - r`` are not pairs: each reads a series past its end,
    where it is padded with NaN, so they are NaN, which no comparison
    counts and ``np.fmax`` and ``np.fmin`` pass over. A block is
    overwritten by the next, so it must be used before the next is asked
    for.
    """
    pad = np.full(n, np.nan)
    windows = {}
    for series, _ in sources:
        if id(series) not in windows:
            windows[id(series)] = sliding_window_view(np.concatenate([series, pad]), series.size)
    scratch = _Scratch()
    k0 = w + 1
    while k0 < n:
        width = n - k0
        rows = max(1, min(_PAIR_BLOCK // width, width))
        scratch.reset()
        terms = _block_terms(sources, windows, k0, rows, width, scratch)
        yield _row_sum(terms, len(sources), lambda: scratch.take((rows, width)))
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


def _pair_counts(sources: list[tuple[np.ndarray, int]], n: int, w: int, r_sq: np.ndarray) -> np.ndarray:
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
    # A block holds at most _PAIR_BLOCK entries, or one offset's n - k.
    key_space = np.empty(max(_PAIR_BLOCK, n), dtype=np.float32)
    for d_sq in _pair_blocks(sources, n, w):
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

    Two passes over the pair blocks, which share each series' rows among
    its coordinates: the first sets the grid from every admissible pair
    (the 0.1th percentile of their distances to the maximum), the second
    counts the pairs within each radius by float32 sort keys, recounting
    on float64 where a key ties, so each C(R) is the exact share of
    pairs at distance <= R. Points whose squared distances may overflow
    float64 raise DegenerateSeriesError
    (:func:`~chaoskit.series.point_extent`).
    """
    pts = as_points(vectors)
    n = pts.shape[0]
    w = _check_theiler(n, theiler_w)
    n_radii = check_int("n_radii", n_radii, MIN_RADII)
    point_extent(pts)
    total = _n_admissible_pairs(n, w)
    sources = coordinate_sources(vectors)
    radii = _radius_grid(_pair_blocks(sources, n, w), total, n_radii)
    counts = _pair_counts(sources, n, w, radii * radii)
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
