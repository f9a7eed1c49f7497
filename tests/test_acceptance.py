"""Acceptance gate: one test per headline behaviour, with runtime budgets.

Run ``pytest -v tests/test_acceptance.py`` for a one-line verdict per
criterion. Everything here is covered in more depth by the per-module
suites; this file is the contract.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from chaoskit.cao import _cao_terms, minimum_embedding_dimension
from chaoskit.correlation import correlation_curve, correlation_dimension
from chaoskit.generators import GeneratorSpec, generate, uniform_stream
from chaoskit.information import auto_mutual_information, marginal_distribution, select_lag_first_minimum
from chaoskit.io import load_recordings
from chaoskit.lyapunov import largest_lyapunov_wolf
from chaoskit.series import EmbeddingParams, TimeSeries, delay_embed
from chaoskit.sleep import EstimatorConfig, Group, SleepStage, analyze_recordings
from chaoskit.stats import (
    GroupSummary,
    compare_groups,
    group_by_cell,
    group_summaries,
    p_value,
    welch_satterthwaite_df,
    welch_t,
)

from conftest import build_sleep_fixture
from oracles import (
    brute_cao_terms,
    brute_correlation_sum,
    entropy_bits,
    henon_lle_oracle,
    ratio_mutual_information,
    t_tail_quad,
)

LOG_TWO = math.log(2.0)


def embed(samples, m, t=1):
    return delay_embed(TimeSeries(np.asarray(samples), sample_rate_hz=1.0), EmbeddingParams(m, t))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "chaoskit", *args], capture_output=True, text=True
    )


def test_logistic_lle_within_ten_percent_of_log_two(logistic_20k):
    start = time.perf_counter()
    result = largest_lyapunov_wolf(embed(logistic_20k.samples, 1, 1))
    elapsed = time.perf_counter() - start
    assert 0.624 <= result.exponent <= 0.762
    assert not result.low_confidence
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


def test_henon_lle_matches_jacobian_oracle(henon_20k):
    start = time.perf_counter()
    truth = henon_lle_oracle(100000)
    result = largest_lyapunov_wolf(embed(henon_20k.samples[:8000], 2, 1))
    elapsed = time.perf_counter() - start
    assert abs(result.exponent - truth) < 0.05
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_d2_of_uniform_segment_is_one():
    start = time.perf_counter()
    est = correlation_dimension(correlation_curve(uniform_stream(5, 10000), n_radii=24))
    elapsed = time.perf_counter() - start
    assert abs(est.d2 - 1.0) <= 0.05
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_d2_of_uniform_square_is_two():
    start = time.perf_counter()
    pts = np.column_stack([uniform_stream(6, 10000), uniform_stream(7, 10000)])
    est = correlation_dimension(correlation_curve(pts, n_radii=24))
    elapsed = time.perf_counter() - start
    assert abs(est.d2 - 2.0) <= 0.10
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_henon_d2_stable_across_embedding_dimensions(henon_20k):
    start = time.perf_counter()
    x = henon_20k.samples[:6000]
    d2_m2 = correlation_dimension(correlation_curve(embed(x, 2), theiler_w=10)).d2
    d2_m3 = correlation_dimension(correlation_curve(embed(x, 3), theiler_w=10)).d2
    elapsed = time.perf_counter() - start
    assert 1.15 <= d2_m2 <= 1.30
    assert 1.15 <= d2_m3 <= 1.30
    assert abs(d2_m2 - d2_m3) <= 0.15
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_cao_separates_flow_from_noise(lorenz_20k, noise_10k):
    start = time.perf_counter()
    lag = select_lag_first_minimum(lorenz_20k, 50).lag
    flow = minimum_embedding_dimension(lorenz_20k, t=lag, m_max=8)
    noise = minimum_embedding_dimension(noise_10k, t=1, m_max=8)
    elapsed = time.perf_counter() - start
    assert flow.selected_m == 3
    assert flow.deterministic is True
    assert noise.deterministic is False
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_cao_scan_of_a_tied_window_within_budget():
    # One 30 s window at 100 Hz, stored as 8 levels: nearly every delay
    # vector has duplicates, so the tree's lists settle almost nothing
    # and the exact row scan decides. A scan that re-queried the whole
    # cloud with ever larger k took 5.8 s on 2 shared vCPUs.
    spec = GeneratorSpec("lorenz", n_samples=3000, seed=5, transient_skip=1000, parameters={"fs": 100.0})
    x = generate(spec).samples
    window = TimeSeries(np.round((x - x.min()) / np.ptp(x) * 7), sample_rate_hz=100.0)
    lag = select_lag_first_minimum(window, 50).lag
    assert np.unique(window.samples).size == 8
    start = time.perf_counter()
    minimum_embedding_dimension(window, t=lag, m_max=8)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"took {elapsed:.1f}s, budget 3s"


def test_mutual_information_identities():
    # Self-information equals the marginal entropy on a 4-symbol fixture.
    symbols = np.tile(np.array([0.0, 1.0, 2.0, 3.0]), 256)
    h = entropy_bits(marginal_distribution(symbols, 4).probabilities)
    assert h == 2.0
    assert auto_mutual_information(TimeSeries(symbols, 1.0), 0, 4) == pytest.approx(h, abs=1e-9)

    # Independent samples carry (almost) no shared information.
    u = uniform_stream(1, 100000)
    forward = auto_mutual_information(TimeSeries(u, 1.0), 1, 16)
    assert forward < 0.01

    # Symmetry under time reversal, and agreement between the two
    # computation routes.
    assert auto_mutual_information(TimeSeries(u[::-1], 1.0), 1, 16) == pytest.approx(forward, abs=1e-9)
    head = u[:5001]
    assert auto_mutual_information(TimeSeries(head, 1.0), 1, 12) == pytest.approx(
        ratio_mutual_information(head[:-1], head[1:], 12), abs=1e-9
    )


def test_brute_force_equivalence_at_small_n(henon_20k, logistic_20k):
    # Pair counting: spatial-index path must equal the direct double scan.
    pts = embed(henon_20k.samples[:1000], 2)
    for w in (0, 5):
        curve = correlation_curve(pts, n_radii=24, theiler_w=w)
        for i in (0, 6, 12, 18, 23):
            assert curve.c_values[i] == brute_correlation_sum(pts.points, curve.radii[i], w)

    # Neighbour statistics: tree-backed values equal the scan, bit for bit.
    x = logistic_20k.samples[:1500]
    for m in (1, 2, 3, 4):
        e_brute, _, _ = brute_cao_terms(x, m, 1)
        assert _cao_terms(x, t=1, m_max=m)[0][m - 1] == e_brute
    y = henon_20k.samples[:1200]
    profile = minimum_embedding_dimension(TimeSeries(y, sample_rate_hz=1.0), t=2, m_max=3)
    _, estar_2, _ = brute_cao_terms(y, 2, 2)
    _, estar_3, _ = brute_cao_terms(y, 3, 2)
    assert profile.e2_values[1] == estar_3 / estar_2


def test_welch_statistics_suite():
    a = GroupSummary(mean=1.0, std=1.0, n=100)
    b = GroupSummary(mean=0.0, std=1.0, n=100)
    assert welch_t(a, b) == pytest.approx(7.0711, abs=5e-5)
    assert welch_satterthwaite_df(a, b) == pytest.approx(198.0, abs=1e-9)

    assert p_value(0.0, 10.0) == 0.5
    assert p_value(1.812, 10.0) == pytest.approx(0.050, abs=1e-3)
    assert p_value(1.812, 10.0) == pytest.approx(t_tail_quad(1.812, 10.0), abs=1e-9)

    rng = np.random.default_rng(2026)
    for _ in range(1000):
        g1 = GroupSummary(
            mean=rng.normal(), std=float(rng.uniform(0.1, 3.0)), n=int(rng.integers(2, 40))
        )
        g2 = GroupSummary(
            mean=rng.normal(), std=float(rng.uniform(0.1, 3.0)), n=int(rng.integers(2, 40))
        )
        assert welch_t(g1, g2) == pytest.approx(-welch_t(g2, g1), abs=1e-12)
        df = float(rng.uniform(1.0, 60.0))
        t1, t2 = sorted(rng.normal(scale=3.0, size=2))
        assert p_value(t2, df) <= p_value(t1, df) + 1e-15


def test_end_to_end_determinism(tmp_path):
    manifest = build_sleep_fixture(tmp_path, n_epochs=6)
    outs = {name: tmp_path / name for name in ("run1", "run2", "par")}
    base = ("analyze", "--manifest", str(manifest), "--max-separation", "0.7")
    for name, extra in (
        ("run1", ()),
        ("run2", ()),
        ("par", ("--jobs", "2")),
    ):
        proc = run_cli(*base, "--out", str(outs[name]), *extra)
        assert proc.returncode == 0, proc.stderr

    for fname in ("epoch_indices.ndjson", "summary.csv", "pvalues.csv", "run_manifest.json"):
        assert (outs["run1"] / fname).read_bytes() == (outs["run2"] / fname).read_bytes()
    assert (outs["par"] / "epoch_indices.ndjson").read_bytes() == (
        outs["run1"] / "epoch_indices.ndjson"
    ).read_bytes()

    p_rows = (outs["run1"] / "pvalues.csv").read_text().splitlines()[2:]
    assert 0 < len(p_rows) <= 24


def test_lle_separates_groups_in_every_stage(tmp_path):
    manifest = build_sleep_fixture(tmp_path, n_epochs=24)
    recordings = load_recordings(manifest)
    config = EstimatorConfig(max_separation=0.7)
    epochs = analyze_recordings(recordings, config, jobs=2)
    lle_rows = [c for c in compare_groups(group_summaries(group_by_cell(epochs))) if c.index_name == "lle"]
    stages = {c.stage for c in lle_rows}
    assert stages == {
        SleepStage.WAKE,
        SleepStage.REM,
        SleepStage.S1,
        SleepStage.S2,
        SleepStage.S3,
        SleepStage.S4,
    }
    for row in lle_rows:
        assert row.p_value < 0.001, f"{row.stage}: p={row.p_value}"
        assert row.t_value > 0  # Apnea runs hotter than Healthy


@pytest.mark.skipif(
    "CHAOSKIT_SLEEP_MANIFEST" not in os.environ,
    reason="set CHAOSKIT_SLEEP_MANIFEST to a manifest of real recordings to enable",
)
def test_real_dataset_orderings():
    recordings = load_recordings(os.environ["CHAOSKIT_SLEEP_MANIFEST"])
    groups = {r.group for r in recordings}
    assert groups == {Group.HEALTHY, Group.APNEA}, "need at least one recording per group"
    epochs = analyze_recordings(recordings, EstimatorConfig(), jobs=os.cpu_count() or 1)
    summaries = group_summaries(group_by_cell(epochs))

    def cell_mean(index_name, stage, group):
        for s in summaries:
            if s.index_name == index_name and s.stage is stage and s.group is group:
                return s.mean
        return None

    for stage in (SleepStage.S1, SleepStage.S2, SleepStage.S3, SleepStage.S4):
        lle_a = cell_mean("lle", stage, Group.APNEA)
        lle_h = cell_mean("lle", stage, Group.HEALTHY)
        mi_a = cell_mean("mi", stage, Group.APNEA)
        mi_h = cell_mean("mi", stage, Group.HEALTHY)
        if None in (lle_a, lle_h, mi_a, mi_h):
            continue  # stage not populated in this subset of the data
        assert lle_a > lle_h, f"{stage}: expected apnea LLE above healthy"
        assert mi_h > mi_a, f"{stage}: expected healthy MI above apnea"
