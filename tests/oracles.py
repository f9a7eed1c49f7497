"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way: full O(N^2) pair
scans, plain loops, library quadrature. The production code must agree
with these, not the other way around, so nothing below may import from
the estimator modules.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad


def brute_pair_count(points: np.ndarray, radius: float, theiler_w: int) -> tuple[int, int]:
    """(pairs within radius, admissible pairs) by direct enumeration."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    r_sq = radius * radius
    inside = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if j - i <= theiler_w:
                continue
            total += 1
            d_sq = float(((pts[i] - pts[j]) ** 2).sum())
            if d_sq <= r_sq:
                inside += 1
    return inside, total


def brute_correlation_sum(points: np.ndarray, radius: float, theiler_w: int = 0) -> float:
    inside, total = brute_pair_count(points, radius, theiler_w)
    return inside / total


class WolfPick(NamedTuple):
    """One search of the full-scan Wolf walk for a neighbour of point
    ``i``. ``kept`` is the neighbour the walk carries into it (None at
    the start), with its distance from point i, whether it is admissible
    and whether it passes its own cone test; ``chosen`` is the search's
    result (None if nothing is admissible), with its distance."""

    i: int
    kept: int | None
    kept_distance: float | None
    kept_admissible: bool
    kept_in_cone: bool
    chosen: int | None
    chosen_distance: float | None


def full_scan_wolf(
    points: np.ndarray,
    evolve_steps: int = 3,
    min_separation: float | None = None,
    max_separation: float | None = None,
    theiler_w: int = 0,
    max_replacement_angle: float = 0.5,
    picks: list[WolfPick] | None = None,
) -> tuple[float, int, int, int] | None:
    """Wolf fiducial walk with a full scan over every point per search.

    Returns (exponent, renormalisations, replacements, evolved samples),
    or None when point 0 has no admissible initial neighbour. Same
    tests and the same arithmetic as the production walk, which asks a
    KD-tree for one ball of candidates per search instead, so the two
    must agree bit for bit. A walk with no usable segment raises
    ValueError. ``picks``, when given, receives a :class:`WolfPick` for
    every search, in walk order.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    d_min = min_separation if min_separation is not None else 1e-3 * extent
    d_max = max_separation if max_separation is not None else 0.1 * extent
    cos_cone = math.cos(max_replacement_angle)
    last = n - 1
    index = np.arange(n)

    def pick(i, kept, sep_norm):
        d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        ok = (d >= d_min) & (d <= d_max) & (np.abs(index - i) > theiler_w)
        ok[last] = False
        pool = ok
        in_cone = False
        if kept is not None and sep_norm > 0.0:
            separation = pts[kept] - pts[i]
            cos = ((pts - pts[i]) * separation).sum(axis=1) / (np.where(d > 0, d, np.inf) * sep_norm)
            cone = ok & (cos >= cos_cone)
            if cone.any():
                pool = cone
            in_cone = bool(cos[kept] >= cos_cone)
        chosen = int(np.where(pool, d, np.inf).argmin()) if ok.any() else None
        if picks is not None:
            picks.append(
                WolfPick(
                    i,
                    kept,
                    None if kept is None else float(d[kept]),
                    kept is not None and bool(ok[kept]),
                    in_cone,
                    chosen,
                    None if chosen is None else float(d[chosen]),
                )
            )
        return chosen

    i = 0
    j = pick(0, None, 0.0)
    if j is None:
        return None
    log_sum = 0.0
    evolved = renorms = replacements = 0
    while i < last and j < last:
        steps = min(evolve_steps, last - i, last - j)
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
        candidate = pick(i, j, d_after)
        if candidate is None:
            if j >= last:
                break
            continue
        if candidate != j:
            replacements += 1
            j = candidate
    if evolved == 0:
        raise ValueError("no usable divergence segment")
    return log_sum / evolved, renorms, replacements, evolved


def per_offset_correlation_curve(points: np.ndarray, n_radii: int, theiler_w: int) -> tuple[np.ndarray, np.ndarray]:
    """Radius grid and C(R) with one numpy pass per index offset.

    The radius grid runs from the 0.1th percentile of every admissible
    pair's distance (the smallest positive distance when that is zero)
    to their maximum; the counts come from a histogram per offset. This
    is the arithmetic the blocked pair count must reproduce bit for bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    w = theiler_w
    gaps = n - 1 - w
    total = gaps * (gaps + 1) // 2
    d_sq = np.concatenate([((pts[: n - k] - pts[k:]) ** 2).sum(axis=1) for k in range(w + 1, n)])
    d = np.sqrt(d_sq)
    lo = float(np.percentile(d, 0.1))
    if lo <= 0.0:
        lo = float(d[d > 0].min())
    radii = np.geomspace(lo, float(d.max()), n_radii)
    r_sq = radii * radii
    counts = np.zeros(n_radii + 1, dtype=np.int64)
    for k in range(w + 1, n):
        d_sq = ((pts[: n - k] - pts[k:]) ** 2).sum(axis=1)
        counts += np.bincount(np.searchsorted(r_sq, d_sq, side="left"), minlength=n_radii + 1)
    return radii, np.cumsum(counts[:n_radii]) / total


def double_loop_fits(radii: np.ndarray, c_values: np.ndarray) -> tuple[np.ndarray, list[tuple[float, int, int, float]]]:
    """The radii with 0 < C < 1, and (R^2, length, start, slope) of every
    window of them at least max(4, 40%) of them long, fitted one window
    at a time by plain Python loops.

    ``start`` indexes the eligible radii. Each mean, and then each
    centred sum Sxx, Syy and Sxy, is added from left to right;
    slope = Sxy / Sxx and R^2 = min(Sxy^2 / (Sxx Syy), 1), both NaN
    where Sxx or Syy is zero (a window with no variance).
    """
    radii = np.asarray(radii, dtype=np.float64)
    c = np.asarray(c_values, dtype=np.float64)
    eligible = np.nonzero((c > 0.0) & (c < 1.0))[0]
    log_r = np.log(radii[eligible]).tolist()
    log_c = np.log(c[eligible]).tolist()
    n = eligible.size
    fits = []
    for length in range(max(4, math.ceil(0.4 * n)), n + 1):
        for start in range(n - length + 1):
            x = log_r[start : start + length]
            y = log_c[start : start + length]
            mean_x = mean_y = 0.0
            for a, b in zip(x, y):
                mean_x += a
                mean_y += b
            mean_x /= length
            mean_y /= length
            sxx = syy = sxy = 0.0
            for a, b in zip(x, y):
                dx, dy = a - mean_x, b - mean_y
                sxx += dx * dx
                syy += dy * dy
                sxy += dx * dy
            if sxx == 0.0 or syy == 0.0:
                fits.append((math.nan, length, start, math.nan))
            else:
                fits.append((min(sxy * sxy / (sxx * syy), 1.0), length, start, sxy / sxx))
    return eligible, fits


def double_loop_correlation_dimension(
    radii: np.ndarray, c_values: np.ndarray, n_pairs: int, min_fit_r2: float
) -> tuple[float, tuple[float, float], float, int] | None:
    """(d2, fit_range, fit_r2, n_pairs_in_range) of the best window, by
    fitting every window; None when there is no scaling region. C counts
    fractions of ``n_pairs`` pairs.

    The best window has the largest R^2, then the greatest length, then
    the smallest start; it needs R^2 >= min_fit_r2 and at least 8
    eligible radii.
    """
    radii = np.asarray(radii, dtype=np.float64)
    c = np.asarray(c_values, dtype=np.float64)
    eligible, fits = double_loop_fits(radii, c)
    finite = [f for f in fits if not math.isnan(f[0])]
    if eligible.size < 8 or not finite:
        return None
    r2, length, start, slope = max(finite, key=lambda f: (f[0], f[1], -f[2]))
    if r2 < min_fit_r2:
        return None
    lo = eligible[start]
    hi = eligible[start + length - 1]
    return float(slope), (float(radii[lo]), float(radii[hi])), float(r2), int(round((c[hi] - c[lo]) * n_pairs))


def equal_width_cells(values: np.ndarray, bins: int) -> np.ndarray:
    """Cell index of each value: ``[min, max]`` split into ``bins`` equal
    cells, the top edge folded into the last cell, and a constant
    sequence given one unit-wide cell around its value."""
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.clip(((values - lo) * (bins / (hi - lo))).astype(np.intp), 0, bins - 1)


def ratio_mutual_information(x, y, bins: int) -> float:
    """Mutual information in bits of the equal-width joint histogram of
    two equally long sequences, by the double sum over
    p log2(p / (p_x p_y)), the marginals from its row and column sums."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    p = np.zeros((bins, bins))
    np.add.at(p, (equal_width_cells(x, bins), equal_width_cells(y, bins)), 1.0)
    p /= x.size
    mask = p > 0
    num = p[mask]
    den = np.outer(p.sum(axis=1), p.sum(axis=0))[mask]
    return float((num * np.log2(num / den)).sum())


def entropy_bits(p) -> float:
    """Shannon entropy in bits of probabilities ``p``; empty cells add nothing."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def first_local_minimum(values) -> tuple[int, bool]:
    """(lag, saturated) of the first L >= 1 with values[L] < values[L - 1]
    and values[L] <= values[L + 1]; (last index, True) when there is none."""
    for lag in range(1, len(values) - 1):
        if values[lag] < values[lag - 1] and values[lag] <= values[lag + 1]:
            return lag, False
    return len(values) - 1, True


def brute_restricted_points(x: np.ndarray, m: int, t: int) -> np.ndarray:
    """First N - m*t delay vectors of dimension m at lag t."""
    n_pts = x.size - m * t
    return np.stack([x[j * t : j * t + n_pts] for j in range(m)], axis=1)


def brute_cao_terms(x: np.ndarray, m: int, t: int) -> tuple[float, float, np.ndarray]:
    """E(m), E*(m), and the neighbour index per point, by full scan.

    Nearest neighbour under the maximum norm at strictly positive
    distance, ties to the lowest index; identical tie policy to the
    production search so equality can be asserted bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    pts = brute_restricted_points(x, m, t)
    n_pts = pts.shape[0]
    neighbours = np.empty(n_pts, dtype=np.int64)
    ratios = np.empty(n_pts, dtype=np.float64)
    gaps = np.empty(n_pts, dtype=np.float64)
    for i in range(n_pts):
        dist = np.max(np.abs(pts - pts[i]), axis=1)
        dist[dist == 0.0] = np.inf
        j = int(np.argmin(dist))  # argmin takes the lowest index on ties
        if not math.isfinite(dist[j]):
            raise ValueError("no strictly positive neighbour distance")
        neighbours[i] = j
        gap = abs(x[i + m * t] - x[j + m * t])
        ratios[i] = max(dist[j], gap) / dist[j]
        gaps[i] = gap
    return float(np.mean(ratios)), float(np.mean(gaps)), neighbours


def fnn_fractions(x: np.ndarray, t: int, m_values, r_tol: float = 15.0, a_tol: float = 2.0):
    """Kennel-style false-nearest-neighbour fractions per dimension.

    Euclidean metric, both the distance-ratio and the loneliness test;
    a neighbour at exactly zero distance is skipped rather than divided
    by. Only used to cross-check the plateau selection.
    """
    x = np.asarray(x, dtype=np.float64)
    r_a = float(np.std(x))
    out = {}
    for m in m_values:
        n_pts = x.size - m * t
        if n_pts < 2:
            out[m] = None
            continue
        pts = brute_restricted_points(x, m, t)
        false = 0
        counted = 0
        for i in range(n_pts):
            d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
            d[i] = np.inf
            j = int(np.argmin(d))
            dist = float(d[j])
            if dist == 0.0:
                continue
            counted += 1
            gap = abs(x[i + m * t] - x[j + m * t])
            if gap / dist > r_tol or math.hypot(dist, gap) / r_a > a_tol:
                false += 1
        out[m] = false / counted if counted else None
    return out


def fnn_minimum_dimension(x: np.ndarray, t: int, m_max: int = 6, threshold: float = 0.02) -> int:
    fractions = fnn_fractions(x, t, range(1, m_max + 1))
    for m in range(1, m_max + 1):
        frac = fractions[m]
        if frac is not None and frac < threshold:
            return m
    raise ValueError(f"no dimension up to {m_max} drops below {threshold}")


def t_tail_quad(t: float, df: float) -> float:
    """Upper-tail area of Student's t by numerical integration."""

    def density(u: float) -> float:
        c = math.gamma((df + 1.0) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
        return c * (1.0 + u * u / df) ** (-(df + 1.0) / 2.0)

    area, _ = quad(density, t, math.inf, limit=200)
    return area


def two_pass_mean_std(values) -> tuple[float, float, int]:
    """fsum-based mean and sample standard deviation (n-1)."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = math.fsum(vals) / n
    var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, math.sqrt(var), n


def jacobian_lle_logistic(r: float, x0: float, n_steps: int, transient: int = 1000) -> float:
    """ln |f'(x)| averaged along the orbit, the analytic-route oracle."""
    x = x0
    total = 0.0
    for k in range(transient + n_steps):
        if k >= transient:
            total += math.log(abs(r * (1.0 - 2.0 * x)))
        x = r * x * (1.0 - x)
    return total / n_steps


def tangent_map_lle(step_fn, jacobian_fn, state0, n_steps: int, transient: int = 1000) -> float:
    """Largest Lyapunov exponent of a map from Jacobian products.

    Carries a tangent vector alongside the orbit, renormalising each
    step and averaging the log growth over the post-transient run. It
    needs the map's equations, which measured data never offers.
    Raises ValueError for fewer than one step, or when the tangent
    vector or the orbit stops being finite.
    """
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    state = np.atleast_1d(np.asarray(state0, dtype=np.float64))
    tangent = np.zeros(state.size)
    tangent[0] = 1.0
    total = 0.0
    for k in range(transient + n_steps):
        tangent = np.atleast_2d(np.asarray(jacobian_fn(state), dtype=np.float64)) @ tangent
        norm = float(np.sqrt((tangent**2).sum()))
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError(f"tangent vector collapsed or diverged at step {k + 1}")
        tangent /= norm
        if k >= transient:
            total += math.log(norm)
        state = np.atleast_1d(np.asarray(step_fn(state), dtype=np.float64))
        if not np.all(np.isfinite(state)):
            raise ValueError(f"orbit diverged at step {k + 1}")
    return total / n_steps


def henon_lle_oracle(n_steps: int, a: float = 1.4, b: float = 0.3, transient: int = 1000) -> float:
    """Largest Lyapunov exponent of the Henon map, nats per step.

    Scalar tangent recursion with per-step renormalisation, started at
    the origin; needs at least 10000 steps so the average has settled.
    """
    if n_steps < 10_000:
        raise ValueError(f"need at least 10000 steps, got {n_steps}")
    x, y = 0.0, 0.0
    v0, v1 = 1.0, 0.0
    total = 0.0
    for k in range(transient + n_steps):
        # Jacobian at (x, y) is [[-2 a x, 1], [b, 0]].
        w0 = -2.0 * a * x * v0 + v1
        w1 = b * v0
        norm = math.hypot(w0, w1)
        v0, v1 = w0 / norm, w1 / norm
        if k >= transient:
            total += math.log(norm)
        x, y = 1.0 - a * x * x + y, b * x
    return total / n_steps


def rowwise_read_signal_csv(path, channel: str | None = None) -> tuple[np.ndarray, dict]:
    """(samples of the selected column, metadata) of a signal file,
    parsed line by line with ``float()``.

    ``#`` lines count as metadata wherever they sit, and only the
    selected column is converted. There are no ``fs`` or series checks.
    Malformed files raise ValueError.
    """
    metadata: dict[str, str] = {}
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
            continue
        rows.append([p.strip() for p in line.split(",")])
    if not rows:
        raise ValueError("no samples")
    n_cols = len(rows[0])
    if any(len(r) != n_cols for r in rows):
        raise ValueError("rows of varying width")
    col = 0
    if n_cols > 1:
        channels = [c.strip() for c in metadata["channels"].split(",") if c.strip()]
        col = channels.index(channel)
    return np.array([float(r[col]) for r in rows], dtype=np.float64), metadata
