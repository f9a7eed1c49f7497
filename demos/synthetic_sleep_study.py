"""A desk-scale two-group study with a planted difference.

Two "healthy" subjects carry a nearly periodic signal (sine plus weak
noise), two "patients" carry logistic-map chaos. Every 30 s window gets
the full index set, then Welch statistics ask, stage by stage, whether
the groups differ. They do, by construction; the point of the demo is
the mechanics of the pipeline, not the physiology.

The command-line equivalent works from a manifest of CSV files:

    chaoskit analyze --manifest study.json --out results/ --max-separation 0.7
"""

import numpy as np

from chaoskit.generators import GeneratorSpec, generate
from chaoskit.series import TimeSeries
from chaoskit.sleep import (
    SCORED_STAGES,
    EstimatorConfig,
    Group,
    Recording,
    analyze_recordings,
)
from chaoskit.stats import compare_groups, group_by_cell, group_summaries

FS = 10.0
N_EPOCHS = 12
SAMPLES = int(FS * 30) * N_EPOCHS


def healthy(subject_id, seed):
    tone = generate(
        GeneratorSpec(kind="sine", n_samples=SAMPLES, parameters={"freq_hz": 0.31, "fs": FS})
    )
    noise = generate(
        GeneratorSpec(
            kind="white_noise",
            n_samples=SAMPLES,
            seed=seed,
            parameters={"distribution": "gaussian", "fs": FS},
        )
    )
    series = TimeSeries(tone.samples + 0.05 * noise.samples, FS)
    return Recording(subject_id, Group.HEALTHY, series, hypnogram(N_EPOCHS))


def patient(subject_id, seed):
    series = generate(
        GeneratorSpec(
            kind="logistic",
            n_samples=SAMPLES,
            seed=seed,
            transient_skip=100,
            parameters={"r": 4.0, "fs": FS},
        )
    )
    return Recording(subject_id, Group.APNEA, series, hypnogram(N_EPOCHS))


def hypnogram(n):
    return tuple(SCORED_STAGES[i % len(SCORED_STAGES)] for i in range(n))


cohort = [healthy("h01", 21), healthy("h02", 22), patient("a01", 23), patient("a02", 24)]

# Short windows of a high-dimensional embedding need a wider neighbour
# search than the default fraction-of-extent ceiling allows.
config = EstimatorConfig(max_separation=0.7)
epochs = analyze_recordings(cohort, config, jobs=2)

failed = [e for e in epochs if e.failed]
print(f"{len(epochs)} windows analysed, {len(failed)} with estimator failures")

# Every table is built from one map of (index, stage, group) -> values.
summaries = group_summaries(group_by_cell(epochs))

print("\nmean LLE (nats/s) by stage and group:")
cells = {(s.stage, s.group): s for s in summaries if s.index_name == "lle"}
print(f"  {'stage':6s} {'healthy':>12s} {'apnea':>12s}")
for stage in SCORED_STAGES:
    h = cells.get((stage, Group.HEALTHY))
    a = cells.get((stage, Group.APNEA))
    h_txt = f"{h.mean:12.4f}" if h else f"{'-':>12s}"
    a_txt = f"{a.mean:12.4f}" if a else f"{'-':>12s}"
    print(f"  {stage.value:6s} {h_txt} {a_txt}")

print("\nWelch comparisons (apnea minus healthy, one-sided):")
for row in compare_groups(summaries):
    if row.index_name != "lle":
        continue
    print(
        f"  {row.stage.value:6s} T = {row.t_value:7.3f}   "
        f"df = {row.degrees_of_freedom:5.1f}   p = {row.p_value:.2e}"
    )

sample = next(e for e in epochs if not e.failed)
print(
    f"\none window in full: subject {sample.subject_id}, stage {sample.stage.value}, "
    f"lle={sample.lle:.3f} nats/s, mi={sample.mi:.3f} bits, med={sample.med}, "
    f"d2={sample.d2:.3f}, deterministic={sample.deterministic}"
)
