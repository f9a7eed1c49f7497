"""Minimum embedding dimension from nearest-neighbour expansion ratios.

For each candidate dimension m the series is embedded at lag t, in the
one layout of :mod:`chaoskit.series` (``series._delay_points``), but only
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

The scan walks m = 1..m_max once and finds every neighbour by one of
three routes, each exact, ties included:

- At m = 1 one stable sort of the samples gives each point the nearest
  distinct value on either side, and the lowest index holding it.
- From m = 2 each point carries a list of ``_LIST_LEN`` candidate
  indices with their Chebyshev distances, and a certified radius rho:
  the last distance of the tree query that made the list, so every
  point outside the list is at least rho away. Under the maximum norm a
  distance never shrinks as m grows, so moving to m + 1 takes one
  maximum against the new coordinate's gaps, drops the entries that are
  no longer points, and keeps rho certified. A point whose best
  positive distance in its list is below rho is settled from the list:
  every point at that distance is in it, and the lowest such index is
  the full scan's answer. The other points are queried again, together,
  for a fresh list on that dimension's tree (at m = 2, every point).
- A point that even a fresh list cannot settle, because duplicates or
  distance ties fill it, gets an exact scan of its Chebyshev distances
  to every point, from shared delay rows in blocks of at most
  ``series._BLOCK`` entries. So does a point at m = 1 whose
  next distinct value further out rounds to the same distance. Tied
  data thus costs O(rows x n x m), not repeated whole-cloud queries.

A Chebyshev distance is one rounded difference per coordinate and a
maximum, which rounds nothing, so it is the same whichever route or
query computed it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSeriesError, ShortSeriesError, check_array, check_float, check_int
from .series import _BLOCK, TimeSeries, _delay_points

__all__ = [
    "CaoProfile",
    "minimum_embedding_dimension",
]

# Smallest m_max of a scan: E1 then has the two values a plateau needs.
MIN_M_MAX = 3
# Candidates in each point's neighbour list from m = 2 on: about n x 16 B
# each, and enough that most points of a clean window settle from the
# list at the next m.
_LIST_LEN = 8


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
    selected_m: int | None
    deterministic: bool

    def __post_init__(self):
        m_max = check_int("m_max", self.m_max, MIN_M_MAX)
        for name in ("e1_values", "e2_values"):
            values = check_array(name, getattr(self, name), ndim=1, min_len=m_max - 1)
            if values.size != m_max - 1 or np.any(values <= 0):
                raise ConfigError(f"{name} must hold m_max - 1 = {m_max - 1} positive values")
            object.__setattr__(self, name, values)
        object.__setattr__(self, "m_max", m_max)
        if self.selected_m is not None:
            object.__setattr__(self, "selected_m", check_int("selected_m", self.selected_m, 2, m_max))


def _sorted_neighbours(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest positive neighbour of each sample of ``v`` (m = 1), from
    one stable sort: the nearest distinct value on either side, and the
    lowest index holding it (the first of its run in a stable sort).

    Returns (indices, distances, unsure). A distance further out on a
    side can only round to the same value, never below it; ``unsure``
    lists the samples where it does, and only a row scan settles those.
    A sample with no distinct value anywhere is unsure too.
    """
    n = v.size
    order = np.argsort(v, kind="stable")
    s = v[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(s[1:], s[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    values = s[starts]
    lowest = np.concatenate(([n], order[starts], [n]))
    step = values[1:] - values[:-1]
    below = np.concatenate(([np.inf], step))
    above = np.concatenate((step, [np.inf]))
    best = np.minimum(below, above)
    neighbours = np.minimum(np.where(below == best, lowest[:-2], n), np.where(above == best, lowest[2:], n))
    far = np.full(values.size + 2, np.inf)
    far[2:-2] = values[2:] - values[:-2]
    unsure = (far[:-2] == best) | (far[2:] == best) | np.isinf(best)
    run = np.empty(n, dtype=np.intp)
    run[order] = np.cumsum(head) - 1
    return neighbours[run], best[run], np.flatnonzero(unsure[run])


def _carried_lists(
    lists: tuple[np.ndarray, np.ndarray, np.ndarray], x: np.ndarray, tap: int, n_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lists of one dimension fewer, moved to the first ``n_points``
    points: each distance takes the maximum with its gap in the new
    coordinate, at ``tap``, and an entry that is no longer a point
    drops out (index 0, distance inf). Rho stays certified.

    Lists are (indices, distances, rho); the first two hold one column
    per point, so each step works on ``_LIST_LEN`` rows of every point."""
    cand, d, rho = lists[0][:, :n_points], lists[1][:, :n_points], lists[2][:n_points]
    kept = cand < n_points
    cand = np.where(kept, cand, 0)
    gap = np.abs(x[tap : tap + n_points] - x[cand + tap])
    return cand, np.where(kept, np.maximum(d, gap), np.inf), rho


def _queried_lists(pts: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh lists of ``rows``: their ``_LIST_LEN`` nearest points, self
    and duplicates included, from one batched query on the points' tree.
    Rho is the last distance; with fewer points than that the tree pads
    each list with index n and distance inf, so rho is inf."""
    # Imported here: scipy.spatial is most of the package's import time
    # and only tree builds use it.
    from scipy.spatial import cKDTree

    # One thread: under ``--jobs`` every worker process already has
    # a core, and at these sizes extra threads cost more than they save.
    d, cand = cKDTree(pts).query(pts[rows], k=_LIST_LEN, p=np.inf, workers=1)
    return cand.T, d.T, d[:, -1]


def _settled(
    cand: np.ndarray, d: np.ndarray, rho: np.ndarray, n_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each list's best positive distance, the lowest index at it, and
    whether that is exact: the best lies below rho."""
    positive = np.where(d > 0.0, d, np.inf)
    best = positive.min(axis=0)
    neighbours = np.where(positive == best, cand, n_points).min(axis=0)
    return neighbours, best, best < rho


def _row_scan(x: np.ndarray, rows: np.ndarray, m: int, t: int, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest positive neighbours of ``rows`` among the first
    ``n_points`` delay vectors, by their Chebyshev distances to every
    point. Coordinate c of the distances is ``|x[c t + j] - x[c t + i]|``,
    a slice of the series against one sample per row, so no point is
    copied, and a block holds at most ``_BLOCK`` entries."""
    neighbours = np.empty(rows.size, dtype=np.intp)
    best = np.empty(rows.size)
    per_block = max(1, _BLOCK // n_points)
    for lo in range(0, rows.size, per_block):
        block = rows[lo : lo + per_block]
        dist = np.zeros((block.size, n_points))
        gap = np.empty_like(dist)
        for tap in range(0, m * t, t):
            np.subtract(x[tap : tap + n_points], x[block + tap, None], out=gap)
            np.maximum(dist, np.abs(gap, out=gap), out=dist)
        dist[dist == 0.0] = np.inf
        best[lo : lo + block.size] = first = dist.min(axis=1)
        neighbours[lo : lo + block.size] = np.argmax(dist == first[:, None], axis=1)
    if not np.all(np.isfinite(best)):
        raise DegenerateSeriesError(
            "some delay vectors have only exact duplicates; series has no usable variation"
        )
    return neighbours, best


def _scan_neighbours(x: np.ndarray, t: int, m_max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each dimension's Chebyshev nearest neighbours at strictly positive
    distance, ties to the lowest index: (indices, distances) for
    m = 1..m_max in turn, by the three routes of the module docstring."""
    v = x[: x.size - t]
    neighbours, dist, unsure = _sorted_neighbours(v)
    neighbours[unsure], dist[unsure] = _row_scan(x, unsure, 1, t, v.size)
    yield neighbours, dist
    # m = 1 leaves every point an empty list, with rho 0: certified, and
    # settling nothing, so m = 2 queries every point.
    lists = np.zeros((_LIST_LEN, v.size), dtype=np.intp), np.full((_LIST_LEN, v.size), np.inf), np.zeros(v.size)
    for m in range(2, m_max + 1):
        n_points = x.size - m * t
        pts = _delay_points(x, n_points, m, t)
        cand, d, rho = _carried_lists(lists, x, (m - 1) * t, n_points)
        neighbours, dist, settled = _settled(cand, d, rho, n_points)
        rows = np.flatnonzero(~settled)
        if rows.size:
            cand[:, rows], d[:, rows], rho[rows] = fresh = _queried_lists(pts, rows)
            neighbours[rows], dist[rows], settled = _settled(*fresh, n_points)
            rows = rows[~settled]
            neighbours[rows], dist[rows] = _row_scan(x, rows, m, t, n_points)
        lists = cand, d, rho
        yield neighbours, dist


def _cao_terms(x: np.ndarray, t: int, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """E(m) and E*(m) for m = 1..m_max, from one pass over the dimensions."""
    if x.size < m_max * t + 2:
        raise ShortSeriesError(
            f"Cao scan to m_max={m_max} at lag {t} needs at least {m_max * t + 2} samples, got {x.size}"
        )
    e = np.empty(m_max, dtype=np.float64)
    e_star = np.empty(m_max, dtype=np.float64)
    for m, (neighbours, dist) in enumerate(_scan_neighbours(x, t, m_max), start=1):
        tap = m * t
        gap = np.abs(x[tap : tap + dist.size] - x[neighbours + tap])
        e[m - 1] = np.mean(np.maximum(dist, gap) / dist)
        e_star[m - 1] = np.mean(gap)
    return e, e_star


def check_scan_settings(m_max: int, plateau_tol: float, e2_tol: float) -> tuple[int, float, float]:
    """``m_max`` as an int and both tolerances as floats, once all three
    are usable: the plateau test compares two E1 values, so ``m_max`` is
    at least ``MIN_M_MAX``, and each tolerance is positive and finite."""
    return (
        check_int("m_max", m_max, MIN_M_MAX),
        check_float("plateau_tol", plateau_tol, above=0),
        check_float("e2_tol", e2_tol, above=0),
    )


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
    t = check_int("t", t, 1)
    m_max, plateau_tol, e2_tol = check_scan_settings(m_max, plateau_tol, e2_tol)
    e, e_star = _cao_terms(series.samples, t, m_max)
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
        selected_m=selected,
        deterministic=deterministic,
    )
