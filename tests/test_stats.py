"""Welch statistics, summaries, and histograms."""

import math

import numpy as np
import pytest

from chaoskit.errors import ConfigError
from chaoskit.sleep import EpochIndices, Group, SleepStage
from chaoskit.stats import (
    ComparisonResult,
    GroupSummary,
    Histogram,
    compare_groups,
    empirical_histogram,
    group_by_cell,
    group_summaries,
    histograms_by_cell,
    p_value,
    summarize,
    welch_satterthwaite_df,
    welch_t,
)

from oracles import t_tail_quad, two_pass_mean_std


def gs(mean, std, n):
    return GroupSummary(mean=mean, std=std, n=n)


def epoch(group, stage, **indices):
    return EpochIndices(
        subject_id="s0",
        group=group,
        stage=stage,
        epoch_index=0,
        sample_rate_hz=100.0,
        **indices,
    )


class TestWelchT:
    def test_hand_case(self):
        # Unit variances, n = 100 each, means one apart:
        # T = 1 / sqrt(1/100 + 1/100) = sqrt(50).
        t = welch_t(gs(1.0, 1.0, 100), gs(0.0, 1.0, 100))
        assert t == pytest.approx(math.sqrt(50.0), abs=1e-12)
        assert welch_satterthwaite_df(gs(1.0, 1.0, 100), gs(0.0, 1.0, 100)) == pytest.approx(
            198.0, abs=1e-9
        )

    def test_sign_follows_first_minus_second(self):
        assert welch_t(gs(2.0, 1.0, 10), gs(1.0, 1.0, 10)) > 0
        assert welch_t(gs(1.0, 1.0, 10), gs(2.0, 1.0, 10)) < 0
        assert welch_t(gs(1.0, 1.0, 10), gs(2.0, 1.0, 10)) == -welch_t(
            gs(2.0, 1.0, 10), gs(1.0, 1.0, 10)
        )

    def test_zero_variance_equal_means(self):
        assert welch_t(gs(1.0, 0.0, 5), gs(1.0, 0.0, 7)) == 0.0

    def test_zero_variance_unequal_means(self):
        assert welch_t(gs(2.0, 0.0, 5), gs(1.0, 0.0, 7)) == math.inf
        assert welch_t(gs(1.0, 0.0, 5), gs(2.0, 0.0, 7)) == -math.inf

    def test_zero_variance_df_fallback(self):
        assert welch_satterthwaite_df(gs(1.0, 0.0, 5), gs(2.0, 0.0, 7)) == 10.0

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(1.0, 2.0, size=40)
        y = rng.normal(0.5, 1.5, size=55)
        base_t = welch_t(gs(*summarize(x)), gs(*summarize(y)))
        base_df = welch_satterthwaite_df(gs(*summarize(x)), gs(*summarize(y)))
        moved_t = welch_t(gs(*summarize(3.0 * x - 7.0)), gs(*summarize(3.0 * y - 7.0)))
        moved_df = welch_satterthwaite_df(gs(*summarize(3.0 * x - 7.0)), gs(*summarize(3.0 * y - 7.0)))
        assert moved_t == pytest.approx(base_t, rel=1e-9)
        assert moved_df == pytest.approx(base_df, rel=1e-9)

    def test_df_between_min_n_and_pooled(self):
        a, b = gs(0.0, 1.3, 12), gs(0.0, 0.4, 30)
        df = welch_satterthwaite_df(a, b)
        assert min(a.n, b.n) - 1 <= df <= a.n + b.n - 2


class TestPValue:
    def test_zero_t_is_half(self):
        assert p_value(0.0, 10.0) == 0.5

    def test_tabulated_point(self):
        # Classic one-sided 5% critical value for 10 degrees of freedom.
        assert p_value(1.812, 10.0) == pytest.approx(0.05, abs=1e-4)

    @pytest.mark.parametrize(
        "t,df",
        [(0.5, 3.0), (1.812, 10.0), (2.5, 7.3), (-1.3, 4.0), (4.0, 1.5)],
    )
    def test_matches_quadrature(self, t, df):
        assert p_value(t, df) == pytest.approx(t_tail_quad(t, df), abs=1e-9)

    def test_infinite_t_pins(self):
        assert p_value(math.inf, 5.0) == 0.0
        assert p_value(-math.inf, 5.0) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            p_value(1.0, 0.0)
        with pytest.raises(ConfigError):
            p_value(math.nan, 5.0)

    @pytest.mark.parametrize("t", [None, "1", math.nan, [1.0]])
    def test_rejects_non_number_t(self, t):
        with pytest.raises(ConfigError, match=r"^t must be a finite number, got "):
            p_value(t, 5.0)

    def test_numpy_infinite_t_pins(self):
        assert p_value(np.float64(math.inf), 5.0) == 0.0
        assert p_value(np.float64(-math.inf), 5.0) == 1.0

    def test_antisymmetry_and_monotonicity_randomised(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            df = float(rng.uniform(0.5, 200.0))
            t = float(rng.uniform(-6.0, 6.0))
            assert p_value(t, df) + p_value(-t, df) == pytest.approx(1.0, abs=1e-12)
        for _ in range(50):
            df = float(rng.uniform(0.5, 200.0))
            ts = np.sort(rng.uniform(-6.0, 6.0, size=20))
            ps = [p_value(float(t), df) for t in ts]
            assert all(p1 >= p2 for p1, p2 in zip(ps, ps[1:]))


class TestSummarize:
    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(14)
        values = rng.normal(3.0, 0.5, size=321)
        mean, std, n = summarize(values)
        o_mean, o_std, o_n = two_pass_mean_std(values)
        assert mean == pytest.approx(o_mean, abs=1e-12)
        assert std == pytest.approx(o_std, abs=1e-12)
        assert n == o_n

    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(ConfigError):
            summarize([1.0])
        with pytest.raises(ConfigError):
            summarize([1.0, math.nan])


class TestCompareGroups:
    def test_identical_groups_give_half(self):
        epochs = []
        for v in (1.0, 2.0, 3.0):
            epochs.append(epoch(Group.APNEA, SleepStage.S2, lle=v))
            epochs.append(epoch(Group.HEALTHY, SleepStage.S2, lle=v))
        results = compare_groups(epochs)
        assert len(results) == 1
        assert results[0].t_value == 0.0
        assert results[0].p_value == 0.5
        assert results[0].stage is SleepStage.S2
        assert results[0].index_name == "lle"

    def test_direction_is_patient_minus_healthy(self):
        epochs = [epoch(Group.APNEA, SleepStage.WAKE, lle=v) for v in (5.0, 6.0, 7.0)]
        epochs += [epoch(Group.HEALTHY, SleepStage.WAKE, lle=v) for v in (1.0, 2.0, 3.0)]
        (result,) = compare_groups(epochs)
        assert result.t_value > 0
        flipped = compare_groups(epochs, group_a=Group.HEALTHY, group_b=Group.APNEA)
        assert flipped[0].t_value == -result.t_value

    def test_wide_separation_pushes_p_below_report_floor(self):
        rng = np.random.default_rng(15)
        epochs = [epoch(Group.APNEA, SleepStage.REM, mi=float(v)) for v in rng.normal(10, 0.1, 20)]
        epochs += [epoch(Group.HEALTHY, SleepStage.REM, mi=float(v)) for v in rng.normal(0, 0.1, 20)]
        (result,) = compare_groups(epochs)
        assert result.p_value < 0.0005

    def test_null_calibration(self):
        # Same distribution in both groups: roughly one run in a hundred
        # should dip under p = 0.01.
        rng = np.random.default_rng(16)
        hits = 0
        for _ in range(100):
            epochs = [
                epoch(Group.APNEA, SleepStage.S1, d2=float(v)) for v in rng.normal(size=15)
            ]
            epochs += [
                epoch(Group.HEALTHY, SleepStage.S1, d2=float(v)) for v in rng.normal(size=15)
            ]
            (result,) = compare_groups(epochs)
            if result.p_value < 0.01:
                hits += 1
        assert hits <= 5

    def test_underpopulated_cells_left_out(self):
        epochs = [
            epoch(Group.APNEA, SleepStage.S3, lle=1.0),
            epoch(Group.HEALTHY, SleepStage.S3, lle=2.0),
            epoch(Group.HEALTHY, SleepStage.S3, lle=3.0),
        ]
        assert compare_groups(epochs) == []

    def test_missing_values_skipped(self):
        epochs = [epoch(Group.APNEA, SleepStage.S4, lle=v) for v in (1.0, 2.0)]
        epochs += [epoch(Group.APNEA, SleepStage.S4, lle=None, mi=1.0)]
        epochs += [epoch(Group.HEALTHY, SleepStage.S4, lle=v) for v in (1.5, 2.5)]
        (result,) = compare_groups(epochs)
        assert result.index_name == "lle"


class TestSummariesAndHistograms:
    def test_group_summaries_cover_populated_cells(self):
        epochs = [epoch(Group.APNEA, SleepStage.WAKE, lle=v, mi=v) for v in (1.0, 2.0, 3.0)]
        epochs += [epoch(Group.HEALTHY, SleepStage.REM, lle=v) for v in (4.0, 5.0)]
        summaries = group_summaries(epochs)
        cells = {(s.index_name, s.stage, s.group) for s in summaries}
        assert cells == {
            ("lle", SleepStage.WAKE, Group.APNEA),
            ("mi", SleepStage.WAKE, Group.APNEA),
            ("lle", SleepStage.REM, Group.HEALTHY),
        }
        lle_wake = next(s for s in summaries if s.index_name == "lle" and s.stage is SleepStage.WAKE)
        mean, std, n = summarize([1.0, 2.0, 3.0])
        assert (lle_wake.mean, lle_wake.std, lle_wake.n) == (mean, std, n)

    def test_histogram_hand_case(self):
        hist = empirical_histogram([0.0, 1.0, 2.0, 3.0], 2)
        np.testing.assert_allclose(hist.relative_frequencies, [0.5, 0.5])
        np.testing.assert_allclose(hist.bin_edges, [0.0, 1.5, 3.0])

    def test_histogram_constant_values(self):
        hist = empirical_histogram([2.0, 2.0, 2.0], 4)
        assert float(hist.relative_frequencies.sum()) == pytest.approx(1.0, abs=1e-12)
        assert hist.bin_edges[0] == 1.5
        assert hist.bin_edges[-1] == 2.5

    def test_histograms_by_cell_labels(self):
        epochs = [epoch(Group.APNEA, SleepStage.S2, d2=v) for v in (1.0, 1.1, 1.2)]
        (hist,) = histograms_by_cell(epochs, n_bins=4)
        assert hist.index_name == "d2"
        assert hist.group is Group.APNEA
        assert hist.stage is SleepStage.S2
        assert hist.relative_frequencies.size == 4

    def test_one_grouping_serves_every_table(self):
        rng = np.random.default_rng(5)
        groups = (Group.APNEA, Group.HEALTHY)
        epochs = [
            epoch(
                groups[k % 2],
                SleepStage.S2 if k % 3 else SleepStage.REM,
                lle=float(rng.normal()),
                mi=None if k % 4 == 0 else float(rng.normal()),
                d2=float(rng.normal()),
            )
            for k in range(60)
        ]
        cells = group_by_cell(epochs)
        assert cells.values[("mi", SleepStage.S2, Group.HEALTHY)] == [
            e.mi for e in epochs if e.mi is not None and e.stage is SleepStage.S2 and e.group is Group.HEALTHY
        ]
        assert group_summaries(cells) == group_summaries(epochs)
        assert compare_groups(cells) == compare_groups(epochs)
        for a, b in zip(histograms_by_cell(cells, 5), histograms_by_cell(epochs, 5), strict=True):
            assert (a.index_name, a.stage, a.group) == (b.index_name, b.stage, b.group)
            np.testing.assert_array_equal(a.bin_edges, b.bin_edges)
            np.testing.assert_array_equal(a.relative_frequencies, b.relative_frequencies)

    def test_container_validation(self):
        with pytest.raises(ConfigError):
            GroupSummary(mean=1.0, std=1.0, n=1)
        with pytest.raises(ConfigError):
            GroupSummary(mean=1.0, std=-0.5, n=5)
        with pytest.raises(ConfigError):
            ComparisonResult(
                stage=SleepStage.S1, index_name="lle", t_value=1.0, degrees_of_freedom=5.0, p_value=1.5
            )
        with pytest.raises(ConfigError):
            Histogram(bin_edges=[0.0, 1.0], relative_frequencies=[0.7])
