"""Histograms, auto mutual information, and first-minimum lag selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import information
from chaoskit.errors import ConfigError, DegenerateSeriesError
from chaoskit.generators import uniform_stream
from chaoskit.information import (
    auto_mutual_information,
    bin_indices,
    equal_width_edges,
    marginal_distribution,
    select_lag_first_minimum,
)
from chaoskit.series import TimeSeries

from oracles import entropy_bits, first_local_minimum, ratio_mutual_information


def as_series(x) -> TimeSeries:
    return TimeSeries(np.asarray(x, dtype=np.float64), sample_rate_hz=1.0)


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
    """At lag 0 auto mutual information is the entropy of the series' own
    histogram."""

    def test_uniform_four_cells_is_two_bits(self):
        assert auto_mutual_information(as_series(np.tile([0.0, 1.0, 2.0, 3.0], 25)), 0, 4) == 2.0

    def test_point_mass_is_zero(self):
        assert auto_mutual_information(as_series(np.full(30, 2.0)), 0, 3) == 0.0

    def test_bounded_by_log_bins(self):
        rng = np.random.default_rng(7)
        h = auto_mutual_information(as_series(rng.normal(size=5000)), 0, 32)
        assert 0.0 <= h <= np.log2(32) + 1e-12


class TestMutualInformation:
    def test_self_information_equals_entropy(self):
        x = uniform_stream(1, 4096)
        h = entropy_bits(marginal_distribution(x, 16).probabilities)
        assert auto_mutual_information(as_series(x), 0, 16) == pytest.approx(h, abs=1e-9)
        assert ratio_mutual_information(x, x, 16) == pytest.approx(h, abs=1e-9)

    def test_independent_streams_near_zero(self):
        # Each sample of the stream is independent of the next.
        mi = auto_mutual_information(as_series(uniform_stream(1, 100_000)), 1, 16)
        assert 0.0 <= mi < 0.01

    def test_symmetry(self):
        # Reversing the series swaps the two sides of every pair.
        rng = np.random.default_rng(8)
        x = np.cumsum(rng.normal(size=2000))
        assert auto_mutual_information(as_series(x), 7, 12) == pytest.approx(
            auto_mutual_information(as_series(x[::-1]), 7, 12), abs=1e-12
        )

    def test_routes_agree(self):
        rng = np.random.default_rng(9)
        x = np.sin(0.05 * np.arange(3000)) ** 2 + 0.1 * rng.normal(size=3000)
        for lag in (1, 10, 40):
            assert auto_mutual_information(as_series(x), lag) == pytest.approx(
                ratio_mutual_information(x[: x.size - lag], x[lag:], 16), abs=1e-9
            )

    def test_too_few_samples_rejected(self):
        # Twenty samples leave fewer than 16 pairs at lag 5; one cell is
        # below the floor at any lag.
        x = as_series(np.sin(np.arange(20.0)))
        with pytest.raises(ConfigError, match=r"^need at least 16 paired samples, got 15$"):
            auto_mutual_information(x, 5, 16)
        for lag in (0, 3):
            with pytest.raises(ConfigError, match=r"^bins must be an integer >= 2, got 1$"):
                auto_mutual_information(x, lag, 1)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_route_agreement(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(64, 400))
        lag = int(rng.integers(1, 20))
        x = np.cumsum(rng.normal(size=n)) * rng.uniform(0.1, 2.0) + rng.normal(size=n)
        head, tail = x[: n - lag], x[lag:]
        mi = auto_mutual_information(as_series(x), lag, 8)
        assert mi == pytest.approx(ratio_mutual_information(head, tail, 8), abs=1e-9)
        assert mi >= -1e-9
        hx = entropy_bits(marginal_distribution(head, 8).probabilities)
        hy = entropy_bits(marginal_distribution(tail, 8).probabilities)
        assert mi <= min(hx, hy) + 1e-9


class TestAutoMI:
    def test_lag_zero_is_marginal_entropy(self, noise_10k):
        h = entropy_bits(marginal_distribution(noise_10k.samples, 16).probabilities)
        assert auto_mutual_information(noise_10k, 0) == pytest.approx(h, abs=1e-9)

    def test_decays_for_noise(self, noise_10k):
        assert auto_mutual_information(noise_10k, 5) < auto_mutual_information(noise_10k, 0) / 4

    @pytest.mark.parametrize("lag", [-1, 10_000, 2.5])
    def test_rejects_bad_lag(self, noise_10k, lag):
        with pytest.raises(ConfigError):
            auto_mutual_information(noise_10k, lag)


class TestFirstLocalMinimum:
    """The scan's first-minimum rule on hand-made autoMI values."""

    @staticmethod
    def scan(monkeypatch, values):
        monkeypatch.setattr(information, "auto_mutual_information", lambda s, lag, bins=16: values[lag])
        return select_lag_first_minimum(as_series(np.arange(40.0)), len(values) - 1)

    def test_hand_case(self, monkeypatch):
        assert self.scan(monkeypatch, [3.0, 2.0, 1.0, 1.5]) == (2, False)

    def test_plateau_counts_as_minimum(self, monkeypatch):
        # Equal-right neighbours qualify, so the dip at 1 wins.
        assert self.scan(monkeypatch, [3.0, 1.0, 1.0, 5.0]) == (1, False)

    def test_monotone_decrease_saturates(self, monkeypatch):
        result = self.scan(monkeypatch, [5.0, 4.0, 3.0, 2.0])
        assert result.saturated
        assert result.lag == 3

    def test_too_short_rejected(self, monkeypatch):
        # Lags 0 and 1 alone cannot show a minimum.
        with pytest.raises(ConfigError, match=r"^max_lag must be an integer >= 2, got 1$"):
            self.scan(monkeypatch, [1.0, 2.0])


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
    edges or checking its probabilities; on ranges at float64's edges
    every value must still be the double-sum mutual information of the
    histogram the binning rule defines."""

    @pytest.mark.parametrize("name", sorted(_lag_scan_series()))
    @pytest.mark.parametrize("bins", [2, 16])
    def test_every_lag_matches_mutual_information(self, name, bins):
        x = _lag_scan_series()[name]
        series = TimeSeries(x, sample_rate_hz=1.0)
        for lag in [*range(0, 80), x.size - bins]:
            if name == "range-overflows":
                # Uniform samples in +-1.7e308 span a range whose width
                # overflows: no cell has a finite width, so every lag is
                # refused.
                with pytest.raises(DegenerateSeriesError):
                    auto_mutual_information(series, lag, bins)
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                got = auto_mutual_information(series, lag, bins)
                expected = ratio_mutual_information(x[: x.size - lag], x[lag:], bins)
            assert got == pytest.approx(expected, abs=1e-9), lag

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
