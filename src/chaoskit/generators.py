"""Deterministic synthetic signals for fixtures and calibration.

Maps and flows are iterated in plain float64 with fixed parameters, so
the same spec always yields the same samples on every platform. Noise
comes from a counter-based SplitMix64 stream rather than a stateful
generator: output ``i`` of seed ``s`` is

    mix(s + (i + 1) * 0x9E3779B97F4A7C15)   (all mod 2^64)

where ``mix`` is the usual xor-shift/multiply finaliser. Uniform values
take the top 53 bits over 2^53, so the stream is reproducible, order
independent, and cheap to vectorise. Gaussian values pair consecutive
uniforms through the Box-Muller transform.

The module also carries tangent-space oracles: the largest Lyapunov
exponent of a known map computed from its Jacobian products, used to
calibrate the trajectory-based estimator against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, GenerationError, check_float, check_int
from .series import TimeSeries

__all__ = [
    "GeneratorSpec",
    "generate",
    "generator_kinds",
    "uniform_stream",
    "gaussian_stream",
    "tangent_map_lle",
    "henon_lle_oracle",
    "logistic_lle_oracle",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, n: int, offset: int = 0) -> np.ndarray:
    """Outputs ``offset .. offset + n - 1`` of the SplitMix64 stream."""
    seed = check_int("seed", seed, -math.inf)
    n, offset = check_int("n", n, 0), check_int("offset", offset, 0)
    with np.errstate(over="ignore"):
        counter = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
        z = counter * _GOLDEN + np.uint64(seed & _MASK64)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def uniform_stream(seed: int, n: int, offset: int = 0) -> np.ndarray:
    """I.i.d. uniform [0, 1) draws from the counter-based stream."""
    return (_splitmix64(seed, n, offset) >> np.uint64(11)) * 2.0**-53


def gaussian_stream(seed: int, n: int) -> np.ndarray:
    """I.i.d. standard normal draws via Box-Muller on stream pairs.

    Pair ``k`` consumes stream outputs ``2k`` and ``2k + 1``; the first
    uniform is shifted into (0, 1] so the log never sees zero.
    """
    n = check_int("n", n, 0)
    pairs = (n + 1) // 2
    bits = _splitmix64(seed, 2 * pairs)
    u1 = ((bits[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    u2 = (bits[1::2] >> np.uint64(11)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def _param(spec: "GeneratorSpec", name: str, default: float, **bounds: float) -> float:
    """Parameter ``name`` of ``spec``, or ``default``, checked by
    :func:`check_float` against ``bounds``."""
    return check_float(f"{spec.kind} {name}", spec.parameters.get(name, default), **bounds)


def _gen_logistic(spec: "GeneratorSpec", total: int) -> np.ndarray:
    r = _param(spec, "r", 4.0, above=0, at_most=4)
    # No explicit start: derive one from the seed so different seeds
    # give different orbits of the same map.
    x = _param(spec, "x0", 0.05 + 0.9 * float(uniform_stream(spec.seed, 1)[0]), above=0, below=1)
    out = np.empty(total, dtype=np.float64)
    for k in range(total):
        out[k] = x
        x = r * x * (1.0 - x)
    return out


def _gen_henon(spec: "GeneratorSpec", total: int) -> np.ndarray:
    a = _param(spec, "a", 1.4)
    b = _param(spec, "b", 0.3)
    units = uniform_stream(spec.seed, 2)
    # Defaulted starts are drawn from the seed inside [-0.25, 0.25],
    # comfortably within the attractor's basin.
    x = _param(spec, "x0", 0.5 * units[0] - 0.25)
    y = _param(spec, "y0", 0.5 * units[1] - 0.25)
    out = np.empty(total, dtype=np.float64)
    for k in range(total):
        out[k] = x
        x, y = 1.0 - a * x * x + y, b * x
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GenerationError(f"Henon orbit diverged at step {k + 1}")
    return out


def _gen_lorenz(spec: "GeneratorSpec", total: int) -> np.ndarray:
    sigma = _param(spec, "sigma", 10.0)
    rho = _param(spec, "rho", 28.0)
    beta = _param(spec, "beta", 8.0 / 3.0)
    dt = _param(spec, "dt", 0.01, above=0)
    units = uniform_stream(spec.seed, 3)
    # Defaulted starts sit near (1, 1, 1) with a seed-dependent offset;
    # the transient skip settles the orbit onto the attractor.
    x = _param(spec, "x0", 1.0 + units[0])
    y = _param(spec, "y0", 1.0 + units[1])
    z = _param(spec, "z0", 1.0 + units[2])

    def deriv(x, y, z):
        return sigma * (y - x), x * (rho - z) - y, x * y - beta * z

    out = np.empty(total, dtype=np.float64)
    for k in range(total):
        out[k] = x
        k1 = deriv(x, y, z)
        k2 = deriv(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1], z + 0.5 * dt * k1[2])
        k3 = deriv(x + 0.5 * dt * k2[0], y + 0.5 * dt * k2[1], z + 0.5 * dt * k2[2])
        k4 = deriv(x + dt * k3[0], y + dt * k3[1], z + dt * k3[2])
        x += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        z += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise GenerationError(f"Lorenz orbit diverged at step {k + 1}")
    return out


def _gen_sine(spec: "GeneratorSpec", total: int) -> np.ndarray:
    freq = _param(spec, "freq_hz", 1.0)
    amp = _param(spec, "amplitude", 1.0)
    phase = _param(spec, "phase", 0.0)
    noise = _param(spec, "noise_std", 0.0, at_least=0)
    fs = _param(spec, "fs", 1.0, above=0)
    k = np.arange(total, dtype=np.float64)
    out = amp * np.sin(2.0 * math.pi * freq * k / fs + phase)
    if noise > 0:
        out = out + noise * gaussian_stream(spec.seed, total)
    return out


def _gen_white_noise(spec: "GeneratorSpec", total: int) -> np.ndarray:
    dist = spec.parameters.get("distribution", "uniform")
    if dist == "uniform":
        return uniform_stream(spec.seed, total)
    if dist == "gaussian":
        return gaussian_stream(spec.seed, total)
    raise ConfigError(f"unknown white-noise distribution {dist!r}")


def _gen_ar1(spec: "GeneratorSpec", total: int) -> np.ndarray:
    # Imported here: scipy.signal costs a noticeable share of the
    # package's import time and only this generator uses it.
    from scipy.signal import lfilter

    phi = _param(spec, "phi", 0.9)
    noise = _param(spec, "noise_std", 1.0, above=0)
    eps = noise * gaussian_stream(spec.seed, total)
    # x[k] = phi x[k-1] + eps[k], started at zero; the transient skip
    # washes the start-up out.
    out = lfilter([1.0], [1.0, -phi], eps)
    if not np.all(np.isfinite(out)):
        raise GenerationError("AR(1) recursion diverged; |phi| is too large")
    return np.asarray(out, dtype=np.float64)


_GENERATORS: dict[str, Callable[["GeneratorSpec", int], np.ndarray]] = {
    "logistic": _gen_logistic,
    "henon": _gen_henon,
    "lorenz": _gen_lorenz,
    "sine": _gen_sine,
    "white_noise": _gen_white_noise,
    "ar1": _gen_ar1,
}


def generator_kinds() -> tuple[str, ...]:
    """Names accepted in :class:`GeneratorSpec.kind`."""
    return tuple(sorted(_GENERATORS))


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic series.

    ``parameters`` holds kind-specific values; every kind accepts
    ``fs`` (sampling rate of the produced series, default 1.0).
    ``transient_skip`` samples are generated and discarded before the
    kept run starts.
    """

    kind: str
    n_samples: int
    seed: int = 0
    transient_skip: int = 0
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _GENERATORS:
            raise ConfigError(
                f"unknown generator kind {self.kind!r}; expected one of {', '.join(generator_kinds())}"
            )
        for name, lo in (("n_samples", 2), ("transient_skip", 0), ("seed", -math.inf)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))
        object.__setattr__(self, "parameters", dict(self.parameters))


def generate(spec: GeneratorSpec) -> TimeSeries:
    """Produce the series a spec describes.

    Raises
    ------
    GenerationError
        If the orbit diverges (non-finite sample).
    """
    total = spec.n_samples + spec.transient_skip
    samples = _GENERATORS[spec.kind](spec, total)[spec.transient_skip :]
    if not np.all(np.isfinite(samples)):
        raise GenerationError(f"{spec.kind} produced non-finite samples")
    return TimeSeries(samples=samples, sample_rate_hz=_param(spec, "fs", 1.0, above=0))


def tangent_map_lle(
    step_fn: Callable,
    jacobian_fn: Callable,
    state0,
    n_steps: int,
    transient: int = 1000,
) -> float:
    """Largest Lyapunov exponent of a map from Jacobian products.

    Carries a tangent vector alongside the orbit, renormalising each
    step and averaging the log growth over the post-transient run. This
    is the calibration oracle for trajectory-based estimates: it needs
    the map's equations, which measured data never offers.
    """
    n_steps, transient = check_int("n_steps", n_steps, 1), check_int("transient", transient, 0)
    state = np.atleast_1d(np.asarray(state0, dtype=np.float64))
    tangent = np.zeros(state.size)
    tangent[0] = 1.0
    total = 0.0
    for k in range(transient + n_steps):
        jac = np.atleast_2d(np.asarray(jacobian_fn(state), dtype=np.float64))
        tangent = jac @ tangent
        norm = float(np.sqrt((tangent**2).sum()))
        if norm == 0.0 or not math.isfinite(norm):
            raise GenerationError(f"tangent vector collapsed or diverged at step {k + 1}")
        tangent /= norm
        if k >= transient:
            total += math.log(norm)
        state = np.atleast_1d(np.asarray(step_fn(state), dtype=np.float64))
        if not np.all(np.isfinite(state)):
            raise GenerationError(f"orbit diverged at step {k + 1}")
    return total / n_steps


def henon_lle_oracle(n_steps: int, a: float = 1.4, b: float = 0.3, transient: int = 1000) -> float:
    """Largest Lyapunov exponent of the Henon map, nats per step.

    Scalar tangent recursion with per-step renormalisation; requires at
    least 10000 steps so the average has settled.
    """
    n_steps, transient = check_int("n_steps", n_steps, 10_000), check_int("transient", transient, 0)
    a, b = check_float("a", a), check_float("b", b)
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
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GenerationError(f"Henon orbit diverged at step {k + 1}")
    return total / n_steps


def logistic_lle_oracle(n_steps: int, r: float = 4.0, x0: float = 0.3, transient: int = 1000) -> float:
    """Largest Lyapunov exponent of the logistic map, nats per step.

    At r = 4 the analytic value is ln 2.
    """
    n_steps, transient = check_int("n_steps", n_steps, 1), check_int("transient", transient, 0)
    r, x = check_float("r", r), check_float("x0", x0)
    total = 0.0
    for k in range(transient + n_steps):
        if k >= transient:
            total += math.log(abs(r * (1.0 - 2.0 * x)))
        x = r * x * (1.0 - x)
    return total / n_steps
