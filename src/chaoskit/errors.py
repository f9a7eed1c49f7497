"""Exception types shared across the estimators and the batch pipeline.

Everything raised on purpose by this package derives from ChaosKitError,
so callers that want blanket per-window error handling (the batch runner
does) can catch one type and keep going. Every argument check raises
ConfigError; whole-number arguments all pass through :func:`check_int`,
real-valued ones through :func:`check_float` and arrays through
:func:`check_array`.
"""

import math
import numbers

import numpy as np


class ChaosKitError(Exception):
    """Base class for all errors raised by chaoskit."""


class ShortSeriesError(ChaosKitError):
    """The series is too short for the requested embedding or estimator."""


class DegenerateSeriesError(ChaosKitError):
    """The input has no usable variation (constant signal, all-duplicate points)."""


class EstimationError(ChaosKitError):
    """An estimator ran but could not produce a value."""


class NoScalingRegionError(EstimationError):
    """No window of the log-log correlation curve meets the linearity criterion."""


class GenerationError(ChaosKitError):
    """A synthetic orbit diverged or could not be produced."""


class ConfigError(ChaosKitError):
    """Invalid parameter value or parameter combination."""


class InputError(ChaosKitError):
    """A file, manifest, or record could not be parsed."""


def check_int(name: str, value, lo: float, hi: float | None = None) -> int:
    """``value`` as an ``int`` when it is a whole number in ``[lo, hi]``.

    Whole floats and numpy integers pass and come back as Python ``int``;
    a fraction, NaN, an infinity, ``None`` or a non-number raises
    ConfigError naming ``name``. ``hi`` of None means no upper bound.
    """
    try:
        n = int(value)
        ok = n == value and lo <= n and (hi is None or n <= hi)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
    return n


def check_float(
    name: str,
    value,
    *,
    above: float | None = None,
    at_least: float | None = None,
    below: float | None = None,
    at_most: float | None = None,
) -> float:
    """``value`` as a ``float`` when it is a finite real number within the
    given bounds: ``above`` and ``below`` are open ends, ``at_least`` and
    ``at_most`` closed ones, and an end left None is no bound.

    Numpy reals and ints pass and come back as Python ``float``; NaN, an
    infinity, ``None``, a string or any other non-real raises ConfigError
    naming ``name``.
    """
    try:
        x = float(value)
        ok = (
            isinstance(value, numbers.Real)
            and math.isfinite(x)
            and (above is None or x > above)
            and (at_least is None or x >= at_least)
            and (below is None or x < below)
            and (at_most is None or x <= at_most)
        )
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        ends = ((">", above), (">=", at_least), ("<", below), ("<=", at_most))
        bound = " and ".join(f"{op} {end}" for op, end in ends if end is not None)
        raise ConfigError(f"{name} must be a finite number{' ' + bound if bound else ''}, got {value!r}")
    return x


def check_array(
    name: str,
    value,
    *,
    ndim: int | tuple[int, ...],
    min_len: int,
    short: type[ChaosKitError] = ConfigError,
) -> np.ndarray:
    """``value`` as a float64 array when it is numeric, has ``ndim``
    dimensions (or one of them, given a tuple), holds at least
    ``min_len`` rows, none of them empty, and is finite everywhere.

    A float64 array comes back as itself, not a copy, so a view stays a
    view; other numbers are converted once. A string, ``None``, a ragged
    sequence, another number of dimensions, rows of no entries, NaN or an
    infinity raises ConfigError naming ``name``; too few rows raises
    ``short``.
    """
    dims = (ndim,) if isinstance(ndim, int) else ndim
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # a ragged sequence
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        got, error = ("a ragged sequence" if arr is None else f"dtype {arr.dtype}"), ConfigError
    elif arr.ndim not in dims or 0 in arr.shape[1:]:
        got, error = f"shape {arr.shape}", ConfigError
    elif arr.shape[0] < min_len:
        got, error = f"{arr.shape[0]}", short
    else:
        arr = arr.astype(np.float64, copy=False)
        if np.isfinite(arr).all():
            return arr
        got, error = "NaN or infinite values", ConfigError
    rule = f"{name} must be a {' or '.join(f'{d}-d' for d in dims)} array of finite numbers"
    if min_len > 0:
        rows = ("value" if dims == (1,) else "row") + ("" if min_len == 1 else "s")
        rule += f" with at least {min_len} {rows}"
    raise error(f"{rule}, got {got}")
