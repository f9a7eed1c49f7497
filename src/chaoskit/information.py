"""Histogram entropies, mutual information, and delay selection.

All quantities are plug-in estimates over equal-width histograms and are
reported in bits (log base 2). One binning rule is used everywhere: the
range ``[min, max]`` of each sequence is split into ``bins`` equal
cells, the top edge is inclusive, and a constant sequence gets a single
synthetic cell around its value. One kernel, ``_joint_probabilities``,
counts the joint histogram of each lag of the delay scan's
:func:`auto_mutual_information`. One formula, ``_mi_bits``, turns it
into mutual information as I = H(X) + H(Y) - H(X, Y), with the
marginals taken from the joint histogram. The other textbook route, the
double sum I = sum_ij p_ij log2( p_ij / (p_i q_j) ), is the test suite's
oracle (``tests/oracles.py::ratio_mutual_information``), which the
entropy route matches to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSeriesError, check_array, check_int
from .series import LagResult, TimeSeries

__all__ = [
    "DiscreteDistribution",
    "marginal_distribution",
    "auto_mutual_information",
    "select_lag_first_minimum",
]

_PROB_TOL = 1e-9
# Fewest cells a joint histogram, and so mutual information, can use.
MIN_MI_BINS = 2
# Smallest cap of the delay scan: the first minimum needs lags 0, 1, 2.
MIN_LAG_SCAN = 2
# Cells per axis when the caller names none; the one default of every ``bins``.
_BINS = 16


def check_probabilities(name: str, p) -> np.ndarray:
    """``p`` as a float64 1-d array, non-negative and summing to 1."""
    p = check_array(name, p, ndim=1, min_len=1)
    if np.any(p < 0):
        raise ConfigError(f"{name} must be non-negative")
    if abs(float(p.sum()) - 1.0) > _PROB_TOL:
        raise ConfigError(f"{name} must sum to 1, got {float(p.sum())!r}")
    return p


@dataclass(frozen=True)
class DiscreteDistribution:
    """Histogram probabilities over equal-width cells."""

    probabilities: np.ndarray
    bin_edges: np.ndarray

    def __post_init__(self):
        p = check_probabilities("probabilities", self.probabilities)
        edges = check_array("bin_edges", self.bin_edges, ndim=1, min_len=2)
        if edges.size != p.size + 1:
            raise ConfigError("need len(bin_edges) == len(probabilities) + 1")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "bin_edges", edges)


def _cell_range(values: np.ndarray) -> tuple[float, float]:
    """The histogram range ``[min, max]`` of a sequence; a constant
    sequence gets one unit-wide cell centred on its value. A range whose
    width float64 cannot hold, or rounds to zero, raises DegenerateSeriesError."""
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    if not 0.0 < hi - lo < math.inf:
        raise DegenerateSeriesError(f"the histogram range [{lo!r}, {hi!r}] has no width that float64 can hold")
    return lo, hi


def _cells(values: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    """Cell index of each value among ``bins`` equal-width cells over
    ``[lo, hi]``.

    Interior cells are half-open on the right; the top edge is folded
    into the last cell so the maximum never spills over.
    """
    scaled = (values - lo) * (bins / (hi - lo))
    idx = scaled.astype(np.intp)
    return np.minimum(np.maximum(idx, 0), bins - 1)


def marginal_distribution(values, bins: int) -> DiscreteDistribution:
    """Equal-width histogram of a sequence as a probability distribution."""
    arr = check_array("values", values, ndim=1, min_len=1)
    bins = check_int("bins", bins, 1)
    lo, hi = _cell_range(arr)
    counts = np.bincount(_cells(arr, lo, hi, bins), minlength=bins)
    # linspace writes both end edges exactly, so they are the cells' ends.
    return DiscreteDistribution(counts / arr.size, np.linspace(lo, hi, bins + 1))


def _joint_probabilities(x: np.ndarray, y: np.ndarray, bins: int) -> np.ndarray:
    """Joint histogram probabilities of two equally long float64
    sequences, rows indexing ``x``. Each is binned by :func:`_cells`
    over its own :func:`_cell_range`, as :func:`marginal_distribution`
    bins one sequence."""
    bins = check_int("bins", bins, MIN_MI_BINS)
    if x.size < bins:
        raise ConfigError(f"need at least {bins} paired samples, got {x.size}")
    ix = _cells(x, *_cell_range(x), bins)
    iy = _cells(y, *_cell_range(y), bins)
    return np.bincount(ix * bins + iy, minlength=bins * bins).reshape(bins, bins) / x.size


def _entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _mi_bits(p: np.ndarray) -> float:
    """H(X) + H(Y) - H(X, Y) in bits of joint probabilities ``p``, with
    the marginals from its row and column sums."""
    return _entropy_bits(p.sum(axis=1)) + _entropy_bits(p.sum(axis=0)) - _entropy_bits(p)


def auto_mutual_information(series: TimeSeries, lag: int, bins: int = _BINS) -> float:
    """Mutual information between the series and itself ``lag`` samples later.

    ``lag=0`` degenerates to the entropy of the series' own histogram.
    The pairs ``(x[k], x[k + lag])`` are counted by ``_joint_probabilities``
    and turned into bits by ``_mi_bits``; the samples of a series are
    already checked, so neither checks them again.
    """
    x = series.samples
    lag = check_int("lag", lag, 0, x.size - 2)
    return _mi_bits(_joint_probabilities(x[: x.size - lag], x[lag:], bins))


def select_lag_first_minimum(series: TimeSeries, max_lag: int, bins: int = _BINS) -> LagResult:
    """Embedding delay from the first minimum of auto mutual information.

    Computes autoMI at lags ``0, 1, 2, ...`` and stops at the first local
    minimum: the first lag ``L >= 1`` with ``ami[L] < ami[L - 1]`` and
    ``ami[L] <= ami[L + 1]``, which needs the value one lag past it. If
    autoMI decreases through the whole scan to ``max_lag``, the cap is
    returned with the saturated flag set.
    """
    max_lag = check_int("max_lag", max_lag, MIN_LAG_SCAN)
    if max_lag > series.samples.size - 2:
        raise ConfigError(f"max_lag must be at most {series.samples.size - 2} for this series, got {max_lag}")
    ami = [auto_mutual_information(series, 0, bins), auto_mutual_information(series, 1, bins)]
    for lag in range(2, max_lag + 1):
        ami.append(auto_mutual_information(series, lag, bins))
        if ami[lag - 2] > ami[lag - 1] <= ami[lag]:
            return LagResult(lag - 1, False)
    return LagResult(max_lag, True)
