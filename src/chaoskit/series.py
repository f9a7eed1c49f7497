"""Scalar time-series container, delay embedding, and autocorrelation tools.

The estimators in this package all start from the same two objects: a
:class:`TimeSeries` holding a uniformly sampled scalar signal, and the
:class:`DelayVectors` produced by :func:`delay_embed`. Delay vectors are
built the usual way: point ``k`` of an ``(m, t)`` embedding is

    (x[k], x[k + t], ..., x[k + (m - 1) t])

which leaves ``N - (m - 1) t`` points from ``N`` samples.

The autocorrelation here is the biased estimator (normalised by ``N``,
not ``N - k``), which keeps the sequence positive semi-definite and the
values inside ``[-1, 1]``. Its first non-positive lag doubles as the
temporal exclusion window handed to the neighbour searches downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateSeriesError, ShortSeriesError, check_array, check_float, check_int

__all__ = [
    "TimeSeries",
    "EmbeddingParams",
    "DelayVectors",
    "LagResult",
    "as_points",
    "coordinate_sources",
    "point_extent",
    "delay_embed",
    "autocorrelation",
    "theiler_window",
]

# Smallest cap of the exclusion-window scan, which starts at lag 1.
MIN_THEILER_SCAN = 1


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly sampled scalar signal.

    Parameters
    ----------
    samples : array_like
        One-dimensional sequence of finite values. Stored as float64
        regardless of the input container width.
    sample_rate_hz : float
        Sampling rate in Hz, strictly positive.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = check_array("samples", self.samples, ndim=1, min_len=2, short=ShortSeriesError)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", check_float("sample_rate_hz", self.sample_rate_hz, above=0))

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        """Signal duration in seconds."""
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay-embedding parameters: dimension, lag, and temporal exclusion.

    ``theiler_w`` is only recorded: it does not change the embedding, and
    no estimator reads it. Each estimator takes its own exclusion window
    (``WolfParams.theiler_w``, ``correlation_curve``'s ``theiler_w``).
    It is kept only for ``perfbench/round.py``, which still passes it,
    until a change to the benchmark removes it.
    """

    dimension_m: int
    lag_t: int
    theiler_w: int = 0

    def __post_init__(self):
        for name, lo in (("dimension_m", 1), ("lag_t", 1), ("theiler_w", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))


@dataclass(frozen=True)
class DelayVectors:
    """Points of a delay embedding, row ``k`` starting at sample ``k``.

    ``points`` is a read-only float64 array of shape
    ``(n_points, dimension_m)``, finite everywhere, with at least one row.
    """

    points: np.ndarray
    params: EmbeddingParams

    def __post_init__(self):
        pts = check_array("points", self.points, ndim=2, min_len=1)
        if pts.shape[1] != self.params.dimension_m:
            raise ConfigError(
                f"points must have shape (n, {self.params.dimension_m}), got {pts.shape}"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.shape[0])


def delay_embed(series: TimeSeries, params: EmbeddingParams) -> DelayVectors:
    """Embed a scalar series into delay vectors.

    Raises
    ------
    ShortSeriesError
        If fewer than one point would result, i.e. the series has fewer
        than ``(m - 1) t + 1`` samples.
    """
    x = series.samples
    m, t = params.dimension_m, params.lag_t
    n_points = x.size - (m - 1) * t
    if n_points < 1:
        raise ShortSeriesError(
            f"embedding with m={m}, t={t} needs at least {(m - 1) * t + 1} samples, got {x.size}"
        )
    idx = np.arange(n_points)[:, None] + np.arange(m)[None, :] * t
    return DelayVectors(points=x[idx], params=params)


def as_points(vectors: DelayVectors | np.ndarray) -> np.ndarray:
    """The ``(n, m)`` points of delay vectors, or of an array checked by
    :func:`~chaoskit.errors.check_array`, a 1-d array being one column.

    A ``DelayVectors`` was checked when it was made. The point count is
    left to the caller, whose estimator knows how many it needs.
    """
    if isinstance(vectors, DelayVectors):
        return vectors.points
    pts = check_array("points", vectors, ndim=(1, 2), min_len=0)
    return pts[:, None] if pts.ndim == 1 else pts


def coordinate_sources(vectors: DelayVectors | np.ndarray) -> list[tuple[np.ndarray, int]]:
    """Each coordinate of the :func:`as_points` points as ``(series, tap)``,
    its column being ``series[tap : tap + n]``.

    Delay vectors whose columns are checked to be shifts of one series by
    their lag share that series, with taps 0, t, ..., (m - 1) t, so a
    difference taken along the series serves every coordinate. Any other
    points, a hand-built ``DelayVectors`` whose columns are not such
    shifts among them, give each column as its own series with tap 0; so
    does a lag above the point count, whose columns would leave gaps in
    the series.
    """
    pts = as_points(vectors)
    n, m = pts.shape
    if isinstance(vectors, DelayVectors) and m > 1 and vectors.params.lag_t <= n:
        t = vectors.params.lag_t
        series = np.empty(n + (m - 1) * t)
        for c in range(m):
            series[c * t : c * t + n] = pts[:, c]
        if all(np.array_equal(series[c * t : c * t + n], pts[:, c]) for c in range(m)):
            return [(series, c * t) for c in range(m)]
    return [(np.ascontiguousarray(pts[:, c]), 0) for c in range(m)]


def point_extent(pts: np.ndarray) -> float:
    """Largest per-coordinate span of ``(n, m)`` points.

    No squared distance between the points exceeds ``m * extent**2``.
    Raises DegenerateSeriesError when that bound overflows float64, so
    that no neighbour search or radius grid meets an infinite distance.
    """
    with np.errstate(over="ignore"):  # an infinite span is refused below
        extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    if not math.isfinite(pts.shape[1] * extent * extent):
        raise DegenerateSeriesError(
            f"squared distances of {pts.shape[1]}-d points spanning {extent:.3g} overflow float64; rescale the series"
        )
    return extent


def autocorrelation(series: TimeSeries, max_lag: int) -> np.ndarray:
    """Normalised autocorrelation at lags ``0..max_lag``.

    Uses the biased estimator: the lag-k covariance is divided by ``N``,
    then the whole sequence is normalised by the lag-0 value. The result
    is 1 at lag 0 and stays within ``[-1, 1]``.

    Raises
    ------
    DegenerateSeriesError
        If the series has zero variance, or its squared deviations
        overflow float64.
    ConfigError
        If ``max_lag`` is negative or not below the series length.
    """
    x = series.samples
    n = x.size
    max_lag = check_int("max_lag", max_lag, 0, n - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        xc = x - x.mean()
        c0 = float(np.dot(xc, xc)) / n
    if c0 == 0.0:
        raise DegenerateSeriesError("autocorrelation of a zero-variance series is undefined")
    if not math.isfinite(c0):
        raise DegenerateSeriesError("squared deviations of the series overflow float64; rescale the series")
    acf = np.empty(max_lag + 1, dtype=np.float64)
    acf[0] = 1.0
    for k in range(1, max_lag + 1):
        acf[k] = float(np.dot(xc[:-k], xc[k:])) / n / c0
    return acf


class LagResult(NamedTuple):
    """An integer lag plus a flag marking that the scan hit its cap."""

    lag: int
    saturated: bool


def theiler_window(series: TimeSeries, max_lag: int) -> LagResult:
    """Temporal exclusion window: the first lag with autocorrelation <= 0.

    Scans lags ``1..max_lag``; if the autocorrelation never crosses zero
    the window is capped at ``max_lag`` and the result is flagged as
    saturated.
    """
    max_lag = check_int("max_lag", max_lag, MIN_THEILER_SCAN)
    acf = autocorrelation(series, max_lag)
    nonpos = np.nonzero(acf[1:] <= 0.0)[0]
    if nonpos.size:
        return LagResult(int(nonpos[0]) + 1, False)
    return LagResult(max_lag, True)
