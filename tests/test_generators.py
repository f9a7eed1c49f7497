"""Synthetic signals: stream determinism and orbits; and the tangent
oracles of ``tests/oracles.py`` that calibrate the Lyapunov estimates
on these orbits, against analytic values."""

import math

import numpy as np
import pytest

from chaoskit.errors import ConfigError, GenerationError
from chaoskit.generators import (
    GeneratorSpec,
    gaussian_stream,
    generate,
    generator_kinds,
    uniform_stream,
)

from oracles import henon_lle_oracle, jacobian_lle_logistic, tangent_map_lle

_MASK = (1 << 64) - 1


def reference_splitmix(seed: int, i: int) -> int:
    """Output i of the SplitMix64 stream, plain Python integers."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class TestStreams:
    def test_canonical_first_output(self):
        # Known SplitMix64 vector: seed 0 produces 0xE220A8397B1DCDAF.
        assert reference_splitmix(0, 0) == 0xE220A8397B1DCDAF
        expected = (0xE220A8397B1DCDAF >> 11) * 2.0**-53
        assert uniform_stream(0, 1)[0] == expected

    @pytest.mark.parametrize("seed", [0, 1, 411, 2**63])
    def test_matches_integer_reference(self, seed):
        got = uniform_stream(seed, 64)
        expected = [(reference_splitmix(seed, i) >> 11) * 2.0**-53 for i in range(64)]
        np.testing.assert_array_equal(got, expected)

    def test_offset_slices_the_stream(self):
        whole = uniform_stream(9, 40)
        np.testing.assert_array_equal(uniform_stream(9, 25, offset=15), whole[15:])

    def test_uniform_range(self):
        u = uniform_stream(3, 50_000)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_gaussian_matches_boxmuller_reference(self):
        got = gaussian_stream(5, 10)
        expected = np.empty(10)
        for k in range(5):
            u1 = ((reference_splitmix(5, 2 * k) >> 11) + 1) * 2.0**-53
            u2 = (reference_splitmix(5, 2 * k + 1) >> 11) * 2.0**-53
            radius = math.sqrt(-2.0 * math.log(u1))
            expected[2 * k] = radius * math.cos(2.0 * math.pi * u2)
            expected[2 * k + 1] = radius * math.sin(2.0 * math.pi * u2)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gaussian_moments(self):
        g = gaussian_stream(2, 100_000)
        assert abs(float(g.mean())) < 0.02
        assert abs(float(g.std()) - 1.0) < 0.01

    def test_gaussian_odd_length(self):
        assert gaussian_stream(1, 7).shape == (7,)
        np.testing.assert_array_equal(gaussian_stream(1, 7), gaussian_stream(1, 8)[:7])


class TestOrbits:
    def test_logistic_pinned_start(self):
        spec = GeneratorSpec("logistic", n_samples=6, parameters={"r": 4.0, "x0": 0.3})
        got = generate(spec).samples
        x, expected = 0.3, []
        for _ in range(6):
            expected.append(x)
            x = 4.0 * x * (1.0 - x)
        np.testing.assert_array_equal(got, expected)
        # 4 * 0.5376 * 0.4624 in exact arithmetic; float64 carries the
        # usual last-place noise from the inexact 0.3 start.
        assert got[3] == pytest.approx(0.99434496, abs=1e-12)

    def test_sine_exact_quarter_points(self):
        spec = GeneratorSpec("sine", n_samples=101, parameters={"freq_hz": 1.0, "fs": 100.0})
        x = generate(spec).samples
        assert x[0] == 0.0
        assert x[25] == 1.0
        assert x[75] == -1.0

    def test_sample_rate_carried(self):
        s = generate(GeneratorSpec("sine", n_samples=10, parameters={"fs": 128.0}))
        assert s.sample_rate_hz == 128.0

    def test_transient_skip_is_a_shift(self):
        base = GeneratorSpec("henon", n_samples=200, seed=4)
        shifted = GeneratorSpec("henon", n_samples=100, seed=4, transient_skip=100)
        np.testing.assert_array_equal(
            generate(shifted).samples, generate(base).samples[100:]
        )

    def test_same_seed_same_orbit(self):
        spec = GeneratorSpec("lorenz", n_samples=500, seed=6)
        np.testing.assert_array_equal(generate(spec).samples, generate(spec).samples)

    @pytest.mark.parametrize("kind", ["logistic", "henon", "lorenz", "white_noise", "ar1"])
    def test_distinct_seeds_distinct_orbits(self, kind):
        a = generate(GeneratorSpec(kind, n_samples=50, seed=1, transient_skip=10))
        b = generate(GeneratorSpec(kind, n_samples=50, seed=2, transient_skip=10))
        assert not np.array_equal(a.samples, b.samples)

    def test_logistic_stays_inside_unit_interval(self):
        x = generate(GeneratorSpec("logistic", n_samples=5000, seed=13)).samples
        assert np.all((x > 0.0) & (x < 1.0))

    def test_henon_bounded(self):
        x = generate(GeneratorSpec("henon", n_samples=5000, seed=13, transient_skip=100)).samples
        assert np.all(np.abs(x) < 2.0)

    def test_henon_divergence_reported(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("henon", n_samples=100, parameters={"x0": 10.0}))

    def test_ar1_divergence_reported(self):
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("ar1", n_samples=5000, parameters={"phi": 1.2}))

    def test_kinds_listing(self):
        kinds = generator_kinds()
        assert kinds == tuple(sorted(kinds))
        for kind in ("logistic", "henon", "lorenz", "sine", "white_noise", "ar1"):
            assert kind in kinds


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "tent", "n_samples": 100},
            {"kind": "logistic", "n_samples": 1},
            {"kind": "logistic", "n_samples": 100, "transient_skip": -1},
        ],
    )
    def test_spec_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("logistic", {"r": 4.5}),
            ("logistic", {"x0": 1.5}),
            ("lorenz", {"dt": 0.0}),
            ("sine", {"noise_std": -0.1}),
            ("sine", {"freq_hz": float("nan")}),
            ("white_noise", {"distribution": "cauchy"}),
            ("ar1", {"noise_std": 0.0}),
            ("sine", {"fs": -1.0}),
        ],
    )
    def test_parameter_rejects(self, kind, params):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind, n_samples=100, parameters=params))

    @pytest.mark.parametrize(
        "kind, accepted",
        [
            ("logistic", "fs, r, x0"),
            ("henon", "a, b, fs, x0, y0"),
            ("lorenz", "beta, dt, fs, rho, sigma, x0, y0, z0"),
            ("sine", "amplitude, freq_hz, fs, noise_std, phase"),
            ("white_noise", "distribution, fs"),
            ("ar1", "fs, noise_std, phi"),
        ],
    )
    def test_unknown_parameter_names_accepted_ones(self, kind, accepted):
        with pytest.raises(ConfigError) as info:
            generate(GeneratorSpec(kind, n_samples=100, parameters={"rr": 3.5, "fs": 2.0}))
        assert str(info.value) == f"unknown {kind} parameter rr; expected one of {accepted}"
        # Every accepted name is read: giving them all generates.
        usable = dict(distribution="gaussian", r=3.9, dt=0.01, fs=2.0, noise_std=0.1, phi=0.5)
        values = {name: usable.get(name, 0.1) for name in accepted.split(", ")}
        assert len(generate(GeneratorSpec(kind, n_samples=100, parameters=values))) == 100


class TestTangentOracles:
    def test_logistic_oracle_near_ln2(self):
        assert jacobian_lle_logistic(4.0, 0.3, 100_000) == pytest.approx(math.log(2.0), abs=0.005)

    def test_henon_oracle_converged(self):
        a = henon_lle_oracle(50_000)
        b = henon_lle_oracle(100_000)
        assert abs(a - b) < 0.01
        # Literature value for the canonical parameters.
        assert b == pytest.approx(0.419, abs=0.02)

    def test_henon_oracle_needs_long_run(self):
        with pytest.raises(ValueError, match="at least 10000 steps"):
            henon_lle_oracle(5000)

    def test_tangent_lle_pure_rotation_is_zero(self):
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        lle = tangent_map_lle(lambda s: rot @ s, lambda s: rot, np.array([1.0, 0.0]), 2000)
        assert abs(lle) < 1e-9

    def test_tangent_lle_diagonal_stretch(self):
        # Fixed point with a constant stretching Jacobian: the state
        # stays put while the tangent grows by 2 every step.
        jac = np.diag([2.0, 0.5])
        lle = tangent_map_lle(lambda s: s, lambda s: jac, np.array([0.5, 0.5]), 1000, transient=10)
        assert lle == pytest.approx(math.log(2.0), abs=1e-12)

    def test_tangent_lle_via_logistic_jacobian(self):
        # Scalar map through the generic driver must agree with the
        # analytic-route loop.
        lle = tangent_map_lle(
            lambda s: np.array([4.0 * s[0] * (1.0 - s[0])]),
            lambda s: np.array([[4.0 * (1.0 - 2.0 * s[0])]]),
            np.array([0.3]),
            20_000,
        )
        assert lle == pytest.approx(jacobian_lle_logistic(4.0, 0.3, 20_000), abs=1e-9)

    def test_tangent_lle_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="at least one step"):
            tangent_map_lle(lambda s: s, lambda s: np.eye(2), np.array([1.0, 0.0]), 0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_tangent_lle_reports_divergence(self):
        jac = np.diag([3.0, 3.0])
        with pytest.raises(ValueError, match="diverged"):
            tangent_map_lle(lambda s: 1e200 * s, lambda s: jac, np.array([1.0, 1.0]), 100, transient=0)
