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
``M`` embedded points is built once per call (O(M log M)); each
renormalisation then asks it for the points within ``max_separation``
of the fiducial point and applies the exact tests to those K candidates
only, so a run costs about O(M log M + (M / evolve_steps) * (log M + K))
instead of a full O(M) scan per renormalisation. One-dimensional points
skip the tree: there the ball is a tenth of the extent by default and
holds a large share of the points, and one vectorised ``|x - x_i|``
scan gives the exact ball, already in index order, for less than the
tree takes to list it. The tests use the same arithmetic as a full
scan, so the walk is the one a full scan would take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DegenerateSeriesError, EstimationError, ShortSeriesError
from .series import DelayVectors

__all__ = ["WolfParams", "LyapunovResult", "largest_lyapunov_wolf"]

_MIN_POINTS = 100
_LOW_CONFIDENCE_RENORMS = 10
# The tree's own distance arithmetic may round differently from the
# exact test, so its ball is this much wider and the exact test decides.
_BALL_PAD = 1e-9
# Two summation orders of an m-term dot product differ by at most about
# 2 m 2^-53 of |a| |b|, so a cosine this far from the cone's edge cannot
# fall on the other side of it whichever order computed it.
_CONE_EDGE = 1e-9


@dataclass(frozen=True)
class WolfParams:
    """Knobs of the fiducial-trajectory estimator.

    ``min_separation`` and ``max_separation`` default to 1e-3 and 0.1
    times the attractor extent (the largest per-coordinate span), which
    is resolved against the data at run time when they are left None.
    ``max_replacement_angle`` is in radians.
    """

    evolve_steps: int = 3
    min_separation: float | None = None
    max_separation: float | None = None
    theiler_w: int = 0
    max_replacement_angle: float = 0.5

    def __post_init__(self):
        if int(self.evolve_steps) != self.evolve_steps or self.evolve_steps < 1:
            raise ConfigError(f"evolve_steps must be an integer >= 1, got {self.evolve_steps!r}")
        for name in ("min_separation", "max_separation"):
            v = getattr(self, name)
            if v is not None and not (np.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")
        if (
            self.min_separation is not None
            and self.max_separation is not None
            and not self.min_separation < self.max_separation
        ):
            raise ConfigError("min_separation must be smaller than max_separation")
        if int(self.theiler_w) != self.theiler_w or self.theiler_w < 0:
            raise ConfigError(f"theiler_w must be an integer >= 0, got {self.theiler_w!r}")
        if not 0 < self.max_replacement_angle < math.pi:
            raise ConfigError(
                f"max_replacement_angle must be in (0, pi), got {self.max_replacement_angle!r}"
            )


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


def largest_lyapunov_wolf(vectors: DelayVectors | np.ndarray, params: WolfParams | None = None) -> LyapunovResult:
    """Estimate the largest Lyapunov exponent of an embedded trajectory.

    Raises
    ------
    ShortSeriesError
        With fewer than 100 embedded points.
    EstimationError
        If no admissible initial neighbour exists, or no divergence
        segment could be accumulated.
    """
    if params is None:
        params = WolfParams()
    pts = vectors.points if isinstance(vectors, DelayVectors) else np.asarray(vectors, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if n < _MIN_POINTS:
        raise ShortSeriesError(f"Wolf estimator needs at least {_MIN_POINTS} points, got {n}")
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    if extent == 0.0:
        raise DegenerateSeriesError("all embedded points coincide; extent is zero")
    d_min = params.min_separation if params.min_separation is not None else 1e-3 * extent
    d_max = params.max_separation if params.max_separation is not None else 0.1 * extent
    if not d_min < d_max:
        raise ConfigError(f"resolved separation bounds are empty: [= {d_min!r}, {d_max!r}]")
    if not np.all(np.isfinite(pts)):
        raise DegenerateSeriesError("embedded points must be finite")
    cos_cone = math.cos(params.max_replacement_angle)
    w = params.theiler_w
    last = n - 1
    one_dim = pts.shape[1] == 1
    if one_dim:
        flat = pts[:, 0]
    else:
        tree = cKDTree(pts)
        ball = d_max * (1.0 + _BALL_PAD)

    def pick(i: int, separation: np.ndarray | None, sep_norm: float) -> int | None:
        """Nearest admissible neighbour of point i, angle cone first.

        The candidates come in index order, so the exclusion window is
        one slice of them and ``argmin`` still breaks distance ties
        toward the lowest index. Point i itself is always among them.
        """
        if one_dim:
            offset = flat - flat[i]
            span = np.abs(offset)
            cand = np.flatnonzero(span <= d_max)
            d = span[cand]
        else:
            cand = np.array(tree.query_ball_point(pts[i], ball, return_sorted=True), dtype=np.intp)
            diff = pts[cand] - pts[i]
            d = np.sqrt((diff**2).sum(axis=1))
        ok = (d >= d_min) & (d <= d_max)
        ok[np.searchsorted(cand, i - w) : np.searchsorted(cand, i + w, side="right")] = False
        if cand[-1] == last:
            ok[-1] = False  # the final point has no future to evolve into
        keep = np.flatnonzero(ok)
        if keep.size == 0:
            return None
        if separation is not None and sep_norm > 0.0:
            if one_dim:
                # A one-term product has no summation order to differ in.
                cos = (offset[cand[keep]] * separation[0]) / (d[keep] * sep_norm)
            else:
                # A matrix-vector product's row sums depend on which rows
                # it holds, so over the candidates alone a cosine may
                # differ in the last bits from a full scan's. Only one at
                # the cone's edge could flip the test; then the full
                # product decides.
                cos = (diff[keep] @ separation) / (d[keep] * sep_norm)
                if np.abs(cos - cos_cone).min() <= _CONE_EDGE:
                    cos = ((pts - pts[i]) @ separation)[cand[keep]] / (d[keep] * sep_norm)
            cone = keep[cos >= cos_cone]
            if cone.size:
                keep = cone
        return int(cand[keep[d[keep].argmin()]])

    i = 0
    j = pick(0, None, 0.0)
    if j is None:
        raise EstimationError(
            "no admissible initial neighbour: separation bounds or exclusion window too strict"
        )

    log_sum = 0.0
    evolved = 0
    renorms = 0
    replacements = 0
    while i < last and j < last:
        steps = min(params.evolve_steps, last - i, last - j)
        d_before = float(np.sqrt(((pts[i] - pts[j]) ** 2).sum()))
        i += steps
        j += steps
        d_after = float(np.sqrt(((pts[i] - pts[j]) ** 2).sum()))
        if d_before > 0.0 and d_after > 0.0:
            log_sum += math.log(d_after / d_before)
            evolved += steps
            renorms += 1
        if i >= last:
            break
        candidate = pick(i, pts[j] - pts[i], d_after)
        if candidate is None:
            if j >= last:
                break  # neighbour ran off the end and nothing can replace it
            continue
        if candidate != j:
            replacements += 1
            j = candidate
    if evolved == 0:
        raise EstimationError("fiducial walk produced no usable divergence segments")
    return LyapunovResult(
        exponent=log_sum / evolved,
        n_renormalizations=renorms,
        n_replacements=replacements,
        n_evolved_samples=evolved,
        low_confidence=renorms < _LOW_CONFIDENCE_RENORMS,
    )
