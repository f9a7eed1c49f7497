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

Distances are Euclidean, in every dimension, one included. A KD-tree
over the ``M`` embedded points is built once per call (O(M log M)), and
each pick of a neighbour for fiducial point i asks it for one ball
around point i, its candidates in index order. The ball's radius is the
separation ceiling ``max_separation``, except where the neighbour j the
walk carries into the pick is itself admissible and passes its own cone
test (j never enters the exclusion band, since i and j advance together
and every neighbour taken lies outside it). The pick then takes j or a
point of the cone nearer than j, so no candidate beyond j's distance
can win and that distance is the radius. The exclusion and last-point
tests drop candidates first; each survivor's offsets from point i are
taken once, for its distance and for its cone test. A pick holds its
own ball only, whatever the window's length. A run costs about
O(M log M + (M / E) * (log M + K)) for K candidates per ball and
E = ``evolve_steps``. The distance after each step serves as the next
step's distance before; a replacement neighbour brings its ball
distance instead.

Each step takes the separation ``x_j - x_i`` once, for j's distance and
as the cone's axis. Every distance is the square root of numpy's row
sum of the squared offsets, and every dot product of the cone test is a
numpy row sum, whose value for a row does not depend on the other rows
of the array (a BLAS matrix-vector product's may). j's distance thus
equals the ball's distance of j to the bit, and the ball is padded
against the tree's own rounding, so every point of the cone as near as
j, ties with a lower index included, is among the candidates. Over a
ball's candidates each value equals a full scan's to the bit, and the
walk is the one a full scan would take.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DegenerateSeriesError, EstimationError, ShortSeriesError, check_float, check_int
from .series import DelayVectors, as_points, point_extent

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = ["WolfParams", "LyapunovResult", "largest_lyapunov_wolf"]

# The separation bounds a walk takes when its parameters leave them None,
# as fractions of the attractor extent.
MIN_SEPARATION_FRACTION = 1e-3
MAX_SEPARATION_FRACTION = 0.1

_MIN_POINTS = 100
_LOW_CONFIDENCE_RENORMS = 10
# The tree's own distance arithmetic may round differently from the
# exact test, so each ball is this much wider than its radius and the
# exact test decides: a kept neighbour at exactly the radius, and every
# point tied with it, is then among the candidates.
_BALL_PAD = 1e-9


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


def _ball(
    tree: cKDTree, pts: np.ndarray, i: int, radius: float, d_min: float, d_max: float, w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index-sorted admissible neighbours of point i within ``radius``,
    their distances and their offsets from it, from one tree query.

    The exclusion and last-point tests run first. Each remaining
    candidate's offsets then give its distance, summed in numpy's
    row-sum order as a full scan sums it, and serve the cone test.
    """
    found = tree.query_ball_point(pts[i], radius * (1.0 + _BALL_PAD), return_sorted=True)
    # The list is in index order: the exclusion band is one run of it, and
    # the final point, which has no future to evolve into, can only end it.
    cand = found[: bisect.bisect_left(found, i - w)] + found[bisect.bisect_right(found, i + w) :]
    if cand and cand[-1] == pts.shape[0] - 1:
        cand.pop()
    cand = np.array(cand, dtype=np.intp)
    offsets = pts.take(cand, axis=0) - pts[i]
    d = np.sqrt(np.square(offsets).sum(axis=1))
    ok = (d >= d_min) & (d <= d_max)
    return cand[ok], d[ok], offsets[ok]


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
    # Imported here: scipy.spatial is most of the package's import time
    # and only tree builds use it.
    from scipy.spatial import cKDTree

    tree = cKDTree(pts)

    def pick(i: int, sep: np.ndarray | None, sep_norm: float, radius: float) -> tuple[int, float] | None:
        """Nearest admissible neighbour of point i, angle cone first, and
        its distance, from the tree's ball around point i of ``radius``.
        ``sep`` is the kept neighbour's separation from point i, of norm
        ``sep_norm``, and None at the walk's start.

        The candidates come in index order, so ``argmin`` breaks
        distance ties toward the lowest index, as a full scan does.
        """
        cand, d, offsets = _ball(tree, pts, i, radius, d_min, d_max, w)
        if cand.size == 0:
            return None
        # A lone candidate is the pick whether or not it lies in the cone.
        if cand.size > 1 and sep is not None and sep_norm > 0.0:
            cone = _dots(offsets, sep) / (d * sep_norm) >= cos_cone
            if cone.any():
                cand, d = cand[cone], d[cone]
        k = d.argmin()
        return int(cand[k]), float(d[k])

    i = 0
    first = pick(0, None, 0.0, d_max)
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
        sep = pts[j] - pts[i]
        sq = float(np.square(sep).sum())
        d_after = math.sqrt(sq)
        if d_before > 0.0 and d_after > 0.0:
            log_sum += math.log(d_after / d_before)
            evolved += steps
            renorms += 1
        if i >= last:
            break
        d_before = d_after
        # sep is j's offsets from point i, so the pick's cone test gives j
        # the cosine sq / d_after². If j is admissible and inside its own
        # cone, the pick takes j or a nearer point of the cone: no point
        # beyond d_after can win. j is always outside the exclusion band:
        # i and j advance by the same steps, and every neighbour taken
        # lies outside it.
        bounds = d_min <= d_after <= d_max and j != last and sq / (d_after * d_after) >= cos_cone
        found = pick(i, sep, d_after, d_after if bounds else d_max)
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
