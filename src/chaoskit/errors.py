"""Exception types shared across the estimators and the batch pipeline.

Everything raised on purpose by this package derives from ChaosKitError,
so callers that want blanket per-window error handling (the batch runner
does) can catch one type and keep going. Every argument check raises
ConfigError; whole-number arguments all pass through :func:`check_int`.
"""


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
