"""Largest Lyapunov exponent from a fiducial trajectory with replacement.

The estimator walks the embedded trajectory, carrying a neighbour point
alongside the fiducial point. Every ``evolve_steps`` samples the pair's
separation is measured before and after, contributing ``ln(d'/d)`` to a
running sum, and a replacement neighbour is then sought: close to the
fiducial point (within the separation bounds), outside the temporal
exclusion window, and at a small angle to the current separation vector
so the accumulated orientation survives the swap. If the angle cone is
empty the nearest admissible point is taken regardless of angle; if
nothing is admissible the old pair is kept. The exponent is the log sum
divided by the total number of evolved samples, in nats per sample.

Distances are Euclidean. From two dimensions up, a KD-tree over the
``M`` embedded points is built once per call (O(M log M)). One query
asks it for the points within ``max_separation`` of a run of upcoming
fiducial points i, i + E, i + 2E, ... (E = ``evolve_steps``). The
exclusion and last-point tests drop candidates first; each survivor's
squared distance is then summed one coordinate at a time, and the
separation tests keep a fiducial point's admissible candidates as one
index-sorted slice of indices and distances. A fetch holds nothing
else, and its size follows a fixed budget of about 32,768 candidates:
the number of fiducial points it covers is the budget divided by the
candidates per point that the previous fetch found, at most 512, and
the first fetch covers 32. A fetch's memory is thus bounded whatever
the window's length, and a walk that cannot start discards little. A
step of the walk only takes its candidates' offsets for the angle test
and picks the nearest. A neighbour within E of the last point shortens
the step, which moves i off that grid; then, or when the walk passes
the fetched points, the candidates are fetched again from i (for i
alone after a short step, which often repeats at once). A run costs
about O(M log M + (M / E) * (log M + K)) for K candidates per ball, with
no tree query of its own in any step. The distance after each step is
summed as Python floats in numpy's row-sum order, numpy's call overhead
exceeding the arithmetic, and serves as the next step's distance
before; a replacement neighbour from the tree brings its fetched
distance instead.
One-dimensional points skip the tree: there the ball is
``MAX_SEPARATION_FRACTION`` of the extent by default and holds a large
share of the points, and one vectorised ``|x - x_i|`` scan per step
gives the exact ball, already in index order, for less than the tree
takes to list it. Every distance is summed in numpy's row-sum order and
every dot product of the cone test is a numpy row sum, whose value for a
row does not depend on the other rows of the array (a BLAS
matrix-vector product's may). Over a ball's candidates each therefore
equals a full scan's to the bit, and the walk is the one a full scan
would take.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .correlation import _row_sum
from .errors import ConfigError, DegenerateSeriesError, EstimationError, ShortSeriesError, check_float, check_int
from .series import DelayVectors, as_points, point_extent

__all__ = ["WolfParams", "LyapunovResult", "largest_lyapunov_wolf"]

# The separation bounds a walk takes when its parameters leave them None,
# as fractions of the attractor extent.
MIN_SEPARATION_FRACTION = 1e-3
MAX_SEPARATION_FRACTION = 0.1

_MIN_POINTS = 100
_LOW_CONFIDENCE_RENORMS = 10
# The tree's own distance arithmetic may round differently from the
# exact test, so its ball is this much wider and the exact test decides.
_BALL_PAD = 1e-9
# Ball candidates one fetch aims to hold. A fetch lists each of them as
# a Python int, then holds an index and a few numbers per candidate: a
# few MB in all, whatever the window's length or dimension.
_FETCH_BUDGET = 1 << 15
# Most fiducial points i, i + E, i + 2E, ... one fetch covers.
_FETCH_POINTS = 512
# Fiducial points of a walk's first fetch.
_FIRST_FETCH_POINTS = 32


@dataclass(frozen=True)
class WolfParams:
    """Knobs of the fiducial-trajectory estimator.

    ``min_separation`` and ``max_separation`` default to
    ``MIN_SEPARATION_FRACTION`` and ``MAX_SEPARATION_FRACTION`` times the
    attractor extent (the largest per-coordinate span), which is resolved
    against the data at run time when they are left None.
    ``max_replacement_angle`` is in radians.
    """

    evolve_steps: int = 3
    min_separation: float | None = None
    max_separation: float | None = None
    theiler_w: int = 0
    max_replacement_angle: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "evolve_steps", check_int("evolve_steps", self.evolve_steps, 1))
        for name in ("min_separation", "max_separation"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, check_float(name, v, above=0))
        if (
            self.min_separation is not None
            and self.max_separation is not None
            and not self.min_separation < self.max_separation
        ):
            raise ConfigError("min_separation must be smaller than max_separation")
        object.__setattr__(self, "theiler_w", check_int("theiler_w", self.theiler_w, 0))
        angle = check_float("max_replacement_angle", self.max_replacement_angle, above=0, below=math.pi)
        object.__setattr__(self, "max_replacement_angle", angle)


@dataclass(frozen=True)
class LyapunovResult:
    """Estimate plus bookkeeping of the fiducial walk.

    ``exponent`` is in nats per sample. ``low_confidence`` is set when
    fewer than 10 renormalisations contributed.
    """

    exponent: float
    n_renormalizations: int
    n_replacements: int
    n_evolved_samples: int
    low_confidence: bool


class _Fetched(NamedTuple):
    """Admissible neighbours of the fiducial points ``start + k * step``:
    those of the k-th are entries ``bounds[k]:bounds[k + 1]``, in index
    order. ``found`` counts the ball's candidates before any test."""

    start: int
    step: int
    bounds: list[int]
    cand: np.ndarray
    d: np.ndarray
    found: int

    def rows(self, i: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Point i's candidates and their distances; None if point i is
        not one of the fetched fiducial points."""
        k, off_grid = divmod(i - self.start, self.step)
        if off_grid or not 0 <= k < len(self.bounds) - 1:
            return None
        lo, hi = self.bounds[k], self.bounds[k + 1]
        return self.cand[lo:hi], self.d[lo:hi]

    def points_within_budget(self) -> int:
        """Fiducial points a fetch like this one may cover within
        ``_FETCH_BUDGET`` candidates, at most ``_FETCH_POINTS``."""
        points = len(self.bounds) - 1
        return min(_FETCH_POINTS, max(1, _FETCH_BUDGET * points // max(self.found, 1)))


def _fetch_admissible(
    tree: cKDTree, pts: np.ndarray, start: int, stop: int, step: int, ball: float, d_min: float, d_max: float, w: int
) -> _Fetched:
    """Admissible neighbours of the fiducial points ``range(start, stop,
    step)``, from one tree query.

    The exclusion and last-point tests run first. Each remaining
    candidate's distance is then a row sum of its squared offsets, one
    coordinate at a time in numpy's row-sum order: the arithmetic of a
    full scan, with no offset array held.
    """
    fiducials = np.arange(start, stop, step)
    found = tree.query_ball_point(pts[fiducials], ball, return_sorted=True)
    sizes = np.fromiter(map(len, found), dtype=np.intp, count=fiducials.size)
    total = int(sizes.sum())
    cand = np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp, count=total)
    del found
    centre = np.repeat(fiducials, sizes)
    # The final point has no future to evolve into.
    ok = (np.abs(cand - centre) > w) & (cand != pts.shape[0] - 1)
    cand, centre = cand[ok], centre[ok]

    def squares():
        for c in range(pts.shape[1]):
            column = pts[:, c]
            term = column[cand] - column[centre]
            yield np.square(term, out=term)

    d = np.sqrt(_row_sum(squares(), pts.shape[1]))
    ok = (d >= d_min) & (d <= d_max)
    cand, centre, d = cand[ok], centre[ok], d[ok]
    bounds = np.searchsorted(centre, np.arange(start, start + (fiducials.size + 1) * step, step)).tolist()
    return _Fetched(start, step, bounds, cand, d, total)


def _separation(p: list[float], q: list[float]) -> float:
    """Distance of two points held as lists of floats, equal bit for bit
    to ``float(np.sqrt(((p - q) ** 2).sum()))`` on arrays: the squares
    are added in numpy's row-sum order. Once per step, numpy's call
    overhead would cost more than the arithmetic."""
    return math.sqrt(_row_sum(iter([(a - b) * (a - b) for a, b in zip(p, q)]), len(p)))


def _dots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each row's dot product with ``v``, as numpy's row sum of the
    products: a row's value does not depend on the other rows."""
    return (rows * v).sum(axis=1)


def largest_lyapunov_wolf(vectors: DelayVectors | np.ndarray, params: WolfParams | None = None) -> LyapunovResult:
    """Estimate the largest Lyapunov exponent of an embedded trajectory.

    Raises
    ------
    ConfigError
        If the points are not a finite numeric array (see
        :func:`~chaoskit.series.as_points`).
    ShortSeriesError
        With fewer than 100 embedded points.
    DegenerateSeriesError
        If the points coincide, or their squared distances may overflow
        float64 (see :func:`~chaoskit.series.point_extent`).
    EstimationError
        If no admissible initial neighbour exists, or no divergence
        segment could be accumulated.
    """
    if params is None:
        params = WolfParams()
    pts = as_points(vectors)
    n = pts.shape[0]
    if n < _MIN_POINTS:
        raise ShortSeriesError(f"Wolf estimator needs at least {_MIN_POINTS} points, got {n}")
    extent = point_extent(pts)
    if extent == 0.0:
        raise DegenerateSeriesError("all embedded points coincide; extent is zero")
    d_min = params.min_separation if params.min_separation is not None else MIN_SEPARATION_FRACTION * extent
    d_max = params.max_separation if params.max_separation is not None else MAX_SEPARATION_FRACTION * extent
    if not d_min < d_max:
        raise ConfigError(f"resolved separation bounds are empty: [= {d_min!r}, {d_max!r}]")
    cos_cone = math.cos(params.max_replacement_angle)
    w = params.theiler_w
    last = n - 1
    one_dimensional = pts.shape[1] == 1
    if one_dimensional:
        flat = pts[:, 0]

        def admissible(i: int) -> tuple[np.ndarray, np.ndarray]:
            """Index-sorted admissible neighbours of point i and their
            distances."""
            span = np.abs(flat - flat[i])
            ok = (span >= d_min) & (span <= d_max)
            ok[max(i - w, 0) : i + w + 1] = False
            ok[last] = False  # the final point has no future to evolve into
            cand = np.flatnonzero(ok)
            return cand, span[cand]

    else:
        tree = cKDTree(pts)
        ball = d_max * (1.0 + _BALL_PAD)
        fetched = None

        def admissible(i: int) -> tuple[np.ndarray, np.ndarray]:
            """Index-sorted admissible neighbours of point i and their
            distances."""
            nonlocal fetched
            found = None if fetched is None else fetched.rows(i)
            if found is None:
                # The walk moved past the fetched points, or a short step
                # to the series' end moved i off their grid: fetch from i.
                # Such a step often repeats at once, so fetch i alone then.
                if fetched is None:
                    count = _FIRST_FETCH_POINTS
                elif (i - fetched.start) % params.evolve_steps:
                    count = 1
                else:
                    count = fetched.points_within_budget()
                stop = min(i + count * params.evolve_steps, last)
                fetched = _fetch_admissible(tree, pts, i, stop, params.evolve_steps, ball, d_min, d_max, w)
                found = fetched.rows(i)
            return found

    def pick(i: int, separation: np.ndarray | None, sep_norm: float) -> tuple[int, float] | None:
        """Nearest admissible neighbour of point i, angle cone first, and
        its distance as :func:`_separation` gives it.

        The candidates come in index order, so ``argmin`` breaks
        distance ties toward the lowest index, as a full scan does.
        """
        cand, d = admissible(i)
        if cand.size == 0:
            return None
        if separation is not None and sep_norm > 0.0:
            cone = _dots(pts[cand] - pts[i], separation) / (d * sep_norm) >= cos_cone
            if cone.any():
                cand, d = cand[cone], d[cone]
        k = d.argmin()
        j = int(cand[k])
        # |x_j - x_i| differs from sqrt((x_j - x_i) ** 2) once the square underflows.
        return j, _separation(pts[i].tolist(), pts[j].tolist()) if one_dimensional else float(d[k])

    i = 0
    first = pick(0, None, 0.0)
    if first is None:
        raise EstimationError(
            "no admissible initial neighbour: separation bounds or exclusion window too strict"
        )
    j, d_before = first

    log_sum = 0.0
    evolved = 0
    renorms = 0
    replacements = 0
    while i < last and j < last:
        steps = min(params.evolve_steps, last - i, last - j)
        i += steps
        j += steps
        d_after = _separation(pts[i].tolist(), pts[j].tolist())
        if d_before > 0.0 and d_after > 0.0:
            log_sum += math.log(d_after / d_before)
            evolved += steps
            renorms += 1
        if i >= last:
            break
        d_before = d_after
        found = pick(i, pts[j] - pts[i], d_after)
        if found is None:
            if j >= last:
                break  # neighbour ran off the end and nothing can replace it
            continue
        if found[0] != j:
            replacements += 1
            j, d_before = found
    if evolved == 0:
        raise EstimationError("fiducial walk produced no usable divergence segments")
    return LyapunovResult(
        exponent=log_sum / evolved,
        n_renormalizations=renorms,
        n_replacements=replacements,
        n_evolved_samples=evolved,
        low_confidence=renorms < _LOW_CONFIDENCE_RENORMS,
    )
