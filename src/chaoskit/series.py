"""Scalar time-series container, delay embedding, and autocorrelation tools.

The estimators in this package all start from the same two objects: a
:class:`TimeSeries` holding a uniformly sampled scalar signal, and the
:class:`DelayVectors` that embed it. Delay vectors are built the usual
way: point ``k`` of an ``(m, t)`` embedding is

    (x[k], x[k + t], ..., x[k + (m - 1) t])

which leaves ``N - (m - 1) t`` points from ``N`` samples. Only
:func:`_delay_points` writes this layout, for ``DelayVectors`` and for
the Cao scan's first ``N - m t`` points at each m. The correlation sum
reads coordinate c as the embedded samples at tap ``c t``
(:func:`coordinate_sources`), not from the points; it reads plain
arrays as their columns laid end to end, column c at tap ``c n``.

The autocorrelation here is the biased estimator (normalised by ``N``,
not ``N - k``), which keeps the sequence positive semi-definite and the
values inside ``[-1, 1]``. Its sums are numpy's own, not a BLAS
kernel's, so they do not change with the kernel a host selects. Its
first non-positive lag doubles as the temporal exclusion window handed
to the neighbour searches downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DegenerateSeriesError, ShortSeriesError, check_array, check_float, check_int

__all__ = [
    "TimeSeries",
    "EmbeddingParams",
    "DelayVectors",
    "LagResult",
    "delay_embed",
    "autocorrelation",
    "theiler_window",
]

# Smallest cap of the exclusion-window scan, which starts at lag 1.
MIN_THEILER_SCAN = 1
# Entries of one block of work, 256 KB in float64, however long the
# series: the autocorrelation's blocks of lags, the correlation sum's
# blocks of offsets and fit windows, and the Cao scan's blocks of rows.
# A block's arrays stay in a core's cache between its steps: at twice
# this size the correlation curve of a 300-point window took about a
# third longer on a Xeon with 2 MB of L2 cache per core.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly sampled scalar signal.

    Parameters
    ----------
    samples : array_like
        One-dimensional sequence of finite values. Stored as a read-only
        float64 array regardless of the input container width. A given
        array is kept, not copied, only when it and every base under it
        are read-only arrays, so no later write reaches the series.
    sample_rate_hz : float
        Sampling rate in Hz, strictly positive.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = check_array("samples", self.samples, ndim=1, min_len=2, short=ShortSeriesError)
        base = arr
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", check_float("sample_rate_hz", self.sample_rate_hz, above=0))

    def __len__(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay-embedding parameters: dimension, lag, and temporal exclusion.

    ``theiler_w`` is only recorded: it does not change the embedding, and
    no estimator or output reads it; the pipeline's embeddings leave it
    at 0. Each estimator takes its own exclusion window
    (``WolfParams.theiler_w``, ``correlation_curve``'s ``theiler_w``).
    Its only remaining user is ``perfbench/round.py``, which still
    passes it, until a change to the benchmark removes it.
    """

    dimension_m: int
    lag_t: int
    theiler_w: int = 0

    def __post_init__(self):
        for name, lo in (("dimension_m", 1), ("lag_t", 1), ("theiler_w", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))


@dataclass(frozen=True)
class DelayVectors:
    """The delay embedding of ``series`` by ``params``.

    ``points`` is laid out by :func:`_delay_points`, never given: a
    read-only ``(n_points, dimension_m)`` float64 array with at least one
    row (else ShortSeriesError), row ``k`` starting at sample ``k``. It
    is a C-contiguous copy, as ``cKDTree`` copies a strided view.
    """

    series: TimeSeries
    params: EmbeddingParams
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.series, TimeSeries):
            raise ConfigError(f"series must be a TimeSeries, got {type(self.series).__name__}")
        m, t = self.params.dimension_m, self.params.lag_t
        n_points = len(self.series) - (m - 1) * t
        if n_points < 1:
            raise ShortSeriesError(
                f"embedding with m={m}, t={t} needs at least {(m - 1) * t + 1} samples, got {len(self.series)}"
            )
        pts = _delay_points(self.series.samples, n_points, m, t)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.shape[0])


def _delay_points(x: np.ndarray, n_points: int, m: int, t: int) -> np.ndarray:
    """The first ``n_points`` points of the ``(m, t)`` delay embedding of
    ``x``, as a new ``(n_points, m)`` array."""
    idx = np.arange(n_points)[:, None] + np.arange(m)[None, :] * t
    return x[idx]


# The pipeline's name for the embedding step.
delay_embed = DelayVectors


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


def coordinate_sources(vectors: DelayVectors | np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The :func:`as_points` points as one series and a tap per
    coordinate, column c being ``series[taps[c] : taps[c] + n]``.

    Delay vectors give the samples they embed, with taps 0, t, ...,
    (m - 1) t, so a difference taken along the samples serves every
    coordinate. Plain arrays give their columns end to end, with taps 0,
    n, ..., (m - 1) n; so do delay vectors whose lag exceeds their point
    count, whose embedded samples are longer than their columns end to end.
    """
    pts = as_points(vectors)
    n, m = pts.shape
    if isinstance(vectors, DelayVectors) and vectors.params.lag_t <= n:
        return vectors.series.samples, [c * vectors.params.lag_t for c in range(m)]
    return pts.T.ravel(), [c * n for c in range(m)]


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
    is 1 at lag 0 and stays within ``[-1, 1]``. Lag k sums the products
    of the centred series with itself shifted by k and zero-padded past
    its end, numpy's row sum over ``N`` entries, a block of at most
    ``_BLOCK`` entries at a time; no BLAS routine runs.

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
        lagged = sliding_window_view(np.concatenate([xc, np.zeros(max_lag)]), n)
        step = max(1, _BLOCK // n)
        sums = np.concatenate([(lagged[k : k + step] * xc).sum(axis=1) for k in range(0, max_lag + 1, step)])
    c0 = float(sums[0]) / n
    if c0 == 0.0:
        raise DegenerateSeriesError("autocorrelation of a zero-variance series is undefined")
    if not math.isfinite(c0):
        raise DegenerateSeriesError("squared deviations of the series overflow float64; rescale the series")
    return sums / n / c0


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
