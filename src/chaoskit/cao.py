"""Minimum embedding dimension from nearest-neighbour expansion ratios.

For each candidate dimension m the series is embedded at lag t, but only
the first ``N - m t`` points are kept so every point still has a defined
(m+1)-th coordinate. Each point is paired with its nearest neighbour
under the Chebyshev (maximum) norm, nearest meaning the closest point at
strictly positive distance, ties broken toward the lowest index. Two
averages are formed:

    E(m)  = mean over i of  d_{m+1}(i, n(i)) / d_m(i, n(i))
    E*(m) = mean over i of  |x[i + m t] - x[n(i) + m t]|

where the (m+1)-dimensional distance reuses the m-dimensional neighbour,
so under the maximum norm it is just ``max(d_m, |new component gap|)``.
The ratios E1(m) = E(m+1)/E(m) and E2(m) = E*(m+1)/E*(m) drive the
selection: E1 stops changing once the dimension suffices, and E2 stays
near 1 at every m only for noise-like data.

Neighbours come from a KD-tree queried for the three nearest hits of
every point, with k doubled only while duplicates or distance ties may
lie beyond the k-th hit, so they equal a full scan's, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DegenerateSeriesError, ShortSeriesError
from .series import TimeSeries

__all__ = [
    "CaoProfile",
    "cao_e",
    "cao_e1",
    "cao_e2",
    "minimum_embedding_dimension",
]

# Smallest m_max of a scan: E1 then has the two values a plateau needs.
MIN_M_MAX = 3


@dataclass(frozen=True)
class CaoProfile:
    """E1/E2 curves plus the plateau decision.

    ``e1_values[i]`` is E1(m) for m = i + 1, likewise for ``e2_values``;
    both have length ``m_max - 1``. ``selected_m`` is None when E1 never
    plateaus, in which case ``deterministic`` is forced False.
    """

    e1_values: np.ndarray
    e2_values: np.ndarray
    m_max: int
    lag_t: int
    selected_m: int | None
    deterministic: bool

    def __post_init__(self):
        e1 = np.asarray(self.e1_values, dtype=np.float64)
        e2 = np.asarray(self.e2_values, dtype=np.float64)
        if e1.shape != (self.m_max - 1,) or e2.shape != (self.m_max - 1,):
            raise ConfigError("E1/E2 arrays must have length m_max - 1")
        if np.any(e1 <= 0) or np.any(e2 <= 0):
            raise ConfigError("E1/E2 values must be positive")
        object.__setattr__(self, "e1_values", e1)
        object.__setattr__(self, "e2_values", e2)
        if self.selected_m is not None:
            if not 2 <= self.selected_m <= self.m_max:
                raise ConfigError(f"selected_m out of range: {self.selected_m!r}")


def _restricted_embedding(x: np.ndarray, m: int, t: int) -> np.ndarray:
    n_rows = x.size - m * t
    if n_rows < 2:
        raise ShortSeriesError(
            f"Cao's E({m}) at lag {t} needs at least {m * t + 2} samples, got {x.size}"
        )
    idx = np.arange(n_rows)[:, None] + np.arange(m)[None, :] * t
    return x[idx]


def _nearest_positive_neighbors(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev nearest neighbour at strictly positive distance.

    Returns (indices, distances). Exact duplicates of a point are
    skipped; ties on distance resolve to the lowest index. A point whose
    every companion is a duplicate has no neighbour, which only happens
    when the whole cloud is degenerate.

    The tree is asked for the k = 3 nearest hits of every point (the
    point, its nearest neighbour and one beyond: the fewest that can
    show the nearest positive distance is settled), and k doubles while
    some point's k-th hit still lies at or below its best positive
    distance, since duplicates or ties may then lie beyond it. Once
    every k-th hit is farther, each point's hits hold all of its
    duplicates and every neighbour at the best distance, so the lowest
    index among those is the full scan's answer. A Chebyshev distance
    is one rounded difference per coordinate and a maximum, so it is the
    same whichever k returned it.
    """
    n = points.shape[0]
    tree = cKDTree(points)
    k = min(n, 3)
    while True:
        # One thread: under ``--jobs`` every worker process already has
        # a core, and at these sizes extra threads cost more than they save.
        dist, idx = tree.query(points, k=k, p=np.inf, workers=1)
        first = np.where(dist > 0.0, dist, np.inf).min(axis=1)
        # Escalate while the k-th hit is still at (or below) the best
        # positive distance: more duplicates or ties may lie beyond k.
        if k >= n or not np.any(dist[:, -1] <= first):
            break
        k = min(n, 2 * k)
    if not np.all(np.isfinite(first)):
        raise DegenerateSeriesError(
            "some delay vectors have only exact duplicates; series has no usable variation"
        )
    candidates = np.where(dist == first[:, None], idx, n)
    neighbors = candidates.min(axis=1)
    return neighbors.astype(np.intp), first


def _cao_terms(x: np.ndarray, m: int, t: int) -> tuple[float, float]:
    """E(m) and E*(m) for one dimension."""
    pts = _restricted_embedding(x, m, t)
    neighbors, dist_m = _nearest_positive_neighbors(pts)
    rows = np.arange(pts.shape[0])
    gap = np.abs(x[rows + m * t] - x[neighbors + m * t])
    e = float(np.mean(np.maximum(dist_m, gap) / dist_m))
    e_star = float(np.mean(gap))
    return e, e_star


def _check_m_t(m: int, t: int) -> tuple[int, int]:
    if int(m) != m or m < 1:
        raise ConfigError(f"m must be an integer >= 1, got {m!r}")
    if int(t) != t or t < 1:
        raise ConfigError(f"t must be an integer >= 1, got {t!r}")
    return int(m), int(t)


def cao_e(series: TimeSeries, m: int, t: int) -> float:
    """Mean neighbour expansion ratio E(m) at lag t."""
    m, t = _check_m_t(m, t)
    return _cao_terms(series.samples, m, t)[0]


def cao_e1(series: TimeSeries, m: int, t: int) -> float:
    """E1(m) = E(m+1) / E(m)."""
    m, t = _check_m_t(m, t)
    e_m, _ = _cao_terms(series.samples, m, t)
    e_m1, _ = _cao_terms(series.samples, m + 1, t)
    return e_m1 / e_m


def cao_e2(series: TimeSeries, m: int, t: int) -> float:
    """E2(m) = E*(m+1) / E*(m), near 1 at every m for noise-like data."""
    m, t = _check_m_t(m, t)
    _, s_m = _cao_terms(series.samples, m, t)
    _, s_m1 = _cao_terms(series.samples, m + 1, t)
    if s_m == 0.0:
        raise DegenerateSeriesError("E*(m) is zero; series has no usable variation")
    return s_m1 / s_m


def check_scan_settings(m_max: int, plateau_tol: float, e2_tol: float) -> int:
    """``m_max`` as an int, once it and both tolerances are usable: the
    plateau test compares two E1 values, so ``m_max`` is at least
    ``MIN_M_MAX``, and each tolerance is positive (NaN is not)."""
    if int(m_max) != m_max or m_max < MIN_M_MAX:
        raise ConfigError(f"m_max must be an integer >= {MIN_M_MAX}, got {m_max!r}")
    if not (0 < plateau_tol):
        raise ConfigError(f"plateau_tol must be positive, got {plateau_tol!r}")
    if not (0 < e2_tol):
        raise ConfigError(f"e2_tol must be positive, got {e2_tol!r}")
    return int(m_max)


def minimum_embedding_dimension(
    series: TimeSeries,
    t: int,
    m_max: int = 8,
    plateau_tol: float = 0.05,
    e2_tol: float = 0.1,
) -> CaoProfile:
    """Scan dimensions 1..m_max and pick where the E1 curve goes flat.

    The selected dimension is the first m whose E1 value already sits in
    the terminal plateau: the step to the next value satisfies
    ``|E1(m+1) - E1(m)| < plateau_tol`` and E1(m) stays within
    ``plateau_tol`` of the mean of the remaining curve E1(m..). One
    dimension lower E1 was still changing, so the plateau entry point is
    itself the smallest dimension that unfolds the attractor.

    A plateau is only trusted when the E2 curve deviates from 1 somewhere
    (some ``|E2(m) - 1| > e2_tol``). Noise-like data keeps E2 near 1 at
    every m while its E1 curve creeps upward toward 1, which any finite
    tolerance eventually mistakes for a plateau; such series report no
    dimension and ``deterministic=False``.

    Raises
    ------
    ShortSeriesError
        If the series cannot support E(m_max) at lag t, i.e. has fewer
        than ``m_max * t + 2`` samples.
    """
    _, t = _check_m_t(1, t)
    m_max = check_scan_settings(m_max, plateau_tol, e2_tol)
    x = series.samples
    if x.size < m_max * t + 2:
        raise ShortSeriesError(
            f"Cao scan to m_max={m_max} at lag {t} needs at least "
            f"{m_max * t + 2} samples, got {x.size}"
        )

    e = np.empty(m_max, dtype=np.float64)
    e_star = np.empty(m_max, dtype=np.float64)
    for m in range(1, m_max + 1):
        e[m - 1], e_star[m - 1] = _cao_terms(x, m, t)
    if np.any(e_star == 0.0):
        raise DegenerateSeriesError("E* vanished; series has no usable variation")
    # E1(m) and E2(m) for m = 1..m_max-1.
    e1 = e[1:] / e[:-1]
    e2 = e_star[1:] / e_star[:-1]

    verdict = bool(np.any(np.abs(e2 - 1.0) > e2_tol))
    selected: int | None = None
    if verdict:
        # e1[k] holds E1(k+1), so E1(m) and E1(m+1) are e1[m-1] and e1[m].
        for m in range(2, m_max - 1):
            step = abs(e1[m] - e1[m - 1])
            tail_mean = float(np.mean(e1[m - 1 :]))
            if step < plateau_tol and abs(e1[m - 1] - tail_mean) < plateau_tol:
                selected = m
                break
    deterministic = verdict and selected is not None
    return CaoProfile(
        e1_values=e1,
        e2_values=e2,
        m_max=m_max,
        lag_t=t,
        selected_m=selected,
        deterministic=deterministic,
    )
