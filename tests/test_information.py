"""Histogram entropy, mutual information, and first-minimum lag selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import information
from chaoskit.errors import ChaosKitError, ConfigError, DegenerateSeriesError
from chaoskit.generators import uniform_stream
from chaoskit.information import (
    DiscreteDistribution,
    auto_mutual_information,
    bin_indices,
    entropy,
    equal_width_edges,
    first_local_minimum,
    joint_distribution,
    marginal_distribution,
    mi_from_joint,
    mutual_information,
    select_lag_first_minimum,
)
from chaoskit.series import TimeSeries

from oracles import ratio_mutual_information


class TestBinning:
    def test_edges_span_range(self):
        edges = equal_width_edges(np.array([0.0, 1.0]), 4)
        np.testing.assert_allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_constant_gets_unit_cell(self):
        edges = equal_width_edges(np.full(10, 3.0), 2)
        np.testing.assert_allclose(edges, [2.5, 3.0, 3.5])

    def test_top_edge_folds_into_last_cell(self):
        edges = np.array([0.0, 1.0, 2.0])
        idx = bin_indices(np.array([0.0, 0.99, 1.0, 1.5, 2.0]), edges)
        np.testing.assert_array_equal(idx, [0, 0, 1, 1, 1])

    def test_marginal_matches_numpy_histogram(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=1000)
        dist = marginal_distribution(x, 16)
        counts, edges = np.histogram(x, bins=16)
        np.testing.assert_allclose(dist.probabilities, counts / x.size, atol=1e-15)
        np.testing.assert_allclose(dist.bin_edges, edges, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        dist = marginal_distribution(rng.normal(size=777), 13)
        assert float(dist.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)


class TestEntropy:
    def test_uniform_four_cells_is_two_bits(self):
        dist = DiscreteDistribution([0.25, 0.25, 0.25, 0.25], [0, 1, 2, 3, 4])
        assert entropy(dist) == 2.0

    def test_point_mass_is_zero(self):
        dist = DiscreteDistribution([0.0, 1.0, 0.0], [0, 1, 2, 3])
        assert entropy(dist) == 0.0

    def test_bounded_by_log_bins(self):
        rng = np.random.default_rng(7)
        dist = marginal_distribution(rng.normal(size=5000), 32)
        assert 0.0 <= entropy(dist) <= np.log2(32) + 1e-12


class TestMutualInformation:
    def test_self_information_equals_entropy(self):
        x = uniform_stream(1, 4096)
        h = entropy(marginal_distribution(x, 16))
        assert mutual_information(x, x, 16) == pytest.approx(h, abs=1e-9)

    def test_independent_streams_near_zero(self):
        x = uniform_stream(1, 100_000)
        y = uniform_stream(2, 100_000)
        mi = mutual_information(x, y, 16)
        assert 0.0 <= mi < 0.01

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=2000)
        y = 0.5 * x + rng.normal(size=2000)
        assert mutual_information(x, y, 12) == pytest.approx(
            mutual_information(y, x, 12), abs=1e-12
        )

    def test_routes_agree(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=3000)
        y = x**2 + 0.1 * rng.normal(size=3000)
        joint = joint_distribution(x, y, 16)
        assert mi_from_joint(joint) == pytest.approx(ratio_mutual_information(joint), abs=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            mutual_information(np.arange(10.0), np.arange(9.0), 4)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError):
            mutual_information(np.arange(5.0), np.arange(5.0), 16)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_route_agreement(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(64, 400))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + rng.uniform(-1, 1) * x
        joint = joint_distribution(x, y, 8)
        mi_a = mi_from_joint(joint)
        mi_b = ratio_mutual_information(joint)
        assert mi_a == pytest.approx(mi_b, abs=1e-9)
        assert mi_a >= -1e-9
        hx = entropy(joint.marginal_x())
        hy = entropy(joint.marginal_y())
        assert mi_a <= min(hx, hy) + 1e-9


class TestAutoMI:
    def test_lag_zero_is_marginal_entropy(self, noise_10k):
        h = entropy(marginal_distribution(noise_10k.samples, 16))
        assert auto_mutual_information(noise_10k, 0) == pytest.approx(h, abs=1e-9)

    def test_decays_for_noise(self, noise_10k):
        assert auto_mutual_information(noise_10k, 5) < auto_mutual_information(noise_10k, 0) / 4

    @pytest.mark.parametrize("lag", [-1, 10_000, 2.5])
    def test_rejects_bad_lag(self, noise_10k, lag):
        with pytest.raises(ConfigError):
            auto_mutual_information(noise_10k, lag)


class TestFirstLocalMinimum:
    def test_hand_case(self):
        result = first_local_minimum([3.0, 2.0, 1.0, 1.5])
        assert result == (2, False)

    def test_plateau_counts_as_minimum(self):
        # Equal-right neighbours qualify, so the dip at 1 wins.
        result = first_local_minimum([3.0, 1.0, 1.0, 5.0])
        assert result == (1, False)

    def test_monotone_decrease_saturates(self):
        result = first_local_minimum([5.0, 4.0, 3.0, 2.0])
        assert result.saturated
        assert result.lag == 3

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            first_local_minimum([1.0, 2.0])


class TestLagSelection:
    def test_sine_picks_first_dip(self):
        # The autoMI of a noiseless sine is jagged (binning resonances),
        # so the first local minimum sits well before the quarter
        # period. The curve is deterministic; pin the dip it finds.
        k = np.arange(6000)
        s = TimeSeries(np.sin(2 * np.pi * k / 100.0), sample_rate_hz=100.0)
        result = select_lag_first_minimum(s, 60)
        assert result == (5, False)
        ami = [auto_mutual_information(s, lag) for lag in range(61)]
        assert first_local_minimum(ami) == result

    def test_noise_selects_short_lag(self, noise_10k):
        result = select_lag_first_minimum(noise_10k, 50)
        assert not result.saturated
        assert result.lag <= 3

    def test_slow_signal_saturates(self):
        # Over five lags of a period-4000 sine the autoMI only falls.
        k = np.arange(8000)
        s = TimeSeries(np.sin(2 * np.pi * k / 4000.0), sample_rate_hz=1.0)
        result = select_lag_first_minimum(s, 5)
        assert result.saturated
        assert result.lag == 5

    @pytest.mark.parametrize("period, max_lag", [(100.0, 60), (4000.0, 5), (23.0, 40)])
    def test_scan_stops_one_lag_past_the_minimum(self, monkeypatch, period, max_lag):
        k = np.arange(6000)
        s = TimeSeries(np.sin(2 * np.pi * k / period), sample_rate_hz=1.0)
        full = [auto_mutual_information(s, lag) for lag in range(max_lag + 1)]
        lags = []

        def counted(series, lag, bins=16):
            lags.append(lag)
            return auto_mutual_information(series, lag, bins)

        monkeypatch.setattr(information, "auto_mutual_information", counted)
        result = select_lag_first_minimum(s, max_lag)
        assert result == first_local_minimum(full)
        last = max_lag if result.saturated else result.lag + 1
        assert lags == list(range(last + 1))

    def test_rejects_max_lag_beyond_series(self):
        with pytest.raises(ConfigError):
            select_lag_first_minimum(TimeSeries(np.sin(np.arange(40.0)), sample_rate_hz=1.0), 39)

    def test_rejects_tiny_max_lag(self, noise_10k):
        with pytest.raises(ConfigError):
            select_lag_first_minimum(noise_10k, 1)


def _outcome(call) -> tuple:
    """("value", its hex) of a call that returns, else (error class, text)."""
    try:
        return "value", call().hex()
    except ChaosKitError as exc:
        return type(exc), str(exc)


def _lag_scan_series() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    return {
        "noise": rng.standard_normal(400),
        "constant-head": np.concatenate([np.zeros(60), rng.standard_normal(340)]),
        "constant-tail": np.concatenate([rng.standard_normal(340), np.full(60, 2.0)]),
        "signed-zeros": np.where(rng.random(400) < 0.5, 0.0, -0.0) + (rng.random(400) < 0.1),
        "subnormal": rng.standard_normal(400) * 1e-310,
        "range-overflows": rng.uniform(-1.0, 1.0, 400) * 1.7e308,
        "steps": np.repeat(rng.integers(0, 5, 40).astype(float), 10),
    }


class TestLagScanRanges:
    """The scan counts each lag's joint histogram without building its
    edges or checking its probabilities; every value must equal the
    generic route's, which does both."""

    @pytest.mark.parametrize("name", sorted(_lag_scan_series()))
    @pytest.mark.parametrize("bins", [2, 16])
    def test_every_lag_matches_mutual_information(self, name, bins):
        # Both routes give the same outcome at every lag: the same value
        # to the bit, or the same error class and text.
        x = _lag_scan_series()[name]
        series = TimeSeries(x, sample_rate_hz=1.0)
        outcomes = set()
        for lag in [*range(0, 80), x.size - bins]:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = _outcome(lambda: mutual_information(x[: x.size - lag], x[lag:], bins))
                got = _outcome(lambda: auto_mutual_information(series, lag, bins))
            assert got == expected, lag
            outcomes.add(expected[0])
        # Uniform samples in +-1.7e308 span a range whose width overflows:
        # no cell has a finite width, so every lag is refused.
        assert outcomes == ({DegenerateSeriesError} if name == "range-overflows" else {"value"})

    def test_range_without_a_float64_width_is_refused(self):
        x = _lag_scan_series()["range-overflows"]
        with pytest.raises(DegenerateSeriesError, match=r"^the histogram range \[.*\] has no width that float64 can hold$"):
            equal_width_edges(x, 16)
        # A constant sequence at 1e16 widens to [1e16 - 0.5, 1e16 + 0.5],
        # which rounds to no width: it once raised ZeroDivisionError, out
        # of the pipeline's reach.
        flat = TimeSeries(np.full(300, 1e16), sample_rate_hz=10.0)
        with pytest.raises(DegenerateSeriesError, match=r"^the histogram range \[1e\+16, 1e\+16\] has no width"):
            select_lag_first_minimum(flat, 10)

    @pytest.mark.parametrize("lag, bins", [(5, 16), (0, 1), (3, 1)])
    def test_errors_match_mutual_information(self, lag, bins):
        # Twenty samples leave fewer than 16 pairs at lag 5; one cell is
        # below the floor at any lag.
        x = np.sin(np.arange(20.0))
        with pytest.raises(ConfigError) as generic:
            mutual_information(x[: x.size - lag], x[lag:], bins)
        with pytest.raises(ConfigError) as scanned:
            auto_mutual_information(TimeSeries(x, sample_rate_hz=1.0), lag, bins)
        assert str(scanned.value) == str(generic.value)
