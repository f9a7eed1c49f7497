"""Seeded inputs of the three workloads, made once per seed into a cache.

Every input is a pure function of the workload seed, so the same seed
always gives the same bytes. Inputs live under ``.perfbench_cache`` in
the checkout; a finished set is marked by ``DONE`` and reused, so making
inputs is never part of any timed span.

Generator seeds of the estimator workloads come from pools of seeds whose
windows give all four indices (``check_pools.py`` checks them). Some generator
seeds make windows whose E1 curve never plateaus; such a failure would
show on some workload seeds and not on others, so those seeds are left
out. The apnea subjects of the cohort are fixed: their LLE failures
(the Wolf start fault) must be the same on every workload seed.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

from chaoskit.generators import GeneratorSpec, gaussian_stream, generate
from chaoskit.io import write_hypnogram_csv, write_signal_csv
from chaoskit.series import TimeSeries
from chaoskit.sleep import EstimatorConfig, SleepStage

from checks import TOKENS

CACHE = Path(".perfbench_cache")
KEEP_INPUT_SETS = 12  # per workload; older seeds' inputs are removed

# Generator seeds whose 100 Hz windows (all four signals, both windows)
# and 10 Hz healthy windows give every index at the default config.
EPOCH_POOL = (1, 2, 4, 5, 6, 8, 9, 11, 12, 13, 14, 16, 17, 18, 20, 21)
HEALTHY_POOL = (0, 1, 2, 3, 4, 5, 6, 8, 10, 11, 13, 15)
APNEA_SEEDS = (41, 42, 43, 44)

EPOCHS_PER_SIGNAL = 2  # epochs_100hz: 4 signals x 2 windows of 3000 samples
COHORT_EPOCHS = 20  # cohort_10hz_jobs2: 8 subjects x 20 windows of 300 samples
NIGHT_EPOCHS = 960  # night_io: 8 h at 100 Hz
NIGHT_SUBJECTS = 31

_SCORED = ("W", "R", "1", "2", "3", "4")
_SCORED_P = (0.15, 0.2, 0.1, 0.35, 0.1, 0.1)


def _rng(seed: int, salt: int) -> np.random.Generator:
    # SeedSequence takes non-negative entries; this keeps any integer seed usable.
    return np.random.default_rng([seed % 2**63, salt])


def stage_tokens(seed: int, salt: int, n: int, unknown: float = 0.0) -> list[str]:
    """A seeded hypnogram: scored stages, plus a share of Unknown epochs."""
    rng = _rng(seed, salt)
    tokens = list(rng.choice(_SCORED, size=n, p=_SCORED_P))
    if unknown:
        for k in np.nonzero(rng.random(n) < unknown)[0]:
            tokens[k] = "?"
    return tokens


def _stages(tokens: list[str]) -> list[SleepStage]:
    return [SleepStage(TOKENS[t]) for t in tokens]


def epoch_signals(g: int) -> dict[str, np.ndarray]:
    """The four 100 Hz signals of generator seed ``g``, two windows each."""
    n = 3000 * EPOCHS_PER_SIGNAL
    k = np.arange(n, dtype=np.float64)
    fs = 100.0
    lorenz = generate(GeneratorSpec("lorenz", n, seed=g, transient_skip=1000, parameters={"fs": fs})).samples
    other = generate(GeneratorSpec("lorenz", n, seed=g + 1000, transient_skip=1000, parameters={"fs": fs})).samples
    lorenz_noise = other + 0.02 * float(np.std(other)) * gaussian_stream(g + 2000, n)
    sine = generate(
        GeneratorSpec(
            "sine",
            n,
            seed=g + 3000,
            parameters={"fs": fs, "freq_hz": 1.1, "phase": float(g % 7), "noise_std": 0.05},
        )
    ).samples
    phases = _rng(g, 4000).uniform(0.0, 2.0 * math.pi, 3)
    multitone = (
        np.sin(2.0 * math.pi * 0.7 * k / fs + phases[0])
        + 0.6 * np.sin(2.0 * math.pi * 1.9 * k / fs + phases[1])
        + 0.3 * np.sin(2.0 * math.pi * 4.3 * k / fs + phases[2])
        + 0.05 * gaussian_stream(g + 5000, n)
    )
    return {"lorenz": lorenz, "lorenz_noise": lorenz_noise, "sine": sine, "multitone": multitone}


def healthy_signal(g: int) -> np.ndarray:
    spec = GeneratorSpec(
        "sine", 300 * COHORT_EPOCHS, seed=g, parameters={"fs": 10.0, "freq_hz": 0.31, "noise_std": 0.05}
    )
    return generate(spec).samples


def apnea_signal(g: int) -> np.ndarray:
    spec = GeneratorSpec("lorenz", 300 * COHORT_EPOCHS, seed=g, transient_skip=1000, parameters={"fs": 10.0})
    return generate(spec).samples


def _make_epochs(seed: int, root: Path) -> dict:
    g = EPOCH_POOL[seed % len(EPOCH_POOL)]
    recordings = []
    for pos, (name, x) in enumerate(epoch_signals(g).items()):
        np.save(root / f"{name}.npy", x)
        recordings.append(
            {
                "subject_id": name,
                "group": "Apnea" if name.startswith("lorenz") else "Healthy",
                "signal": f"{name}.npy",
                "stages": stage_tokens(seed, pos, EPOCHS_PER_SIGNAL),
            }
        )
    return {"generator_seed": g, "sample_rate_hz": 100.0, "recordings": recordings}


def _make_cohort(seed: int, root: Path) -> dict:
    subjects = []
    for k in range(4):
        g = HEALTHY_POOL[(seed + k) % len(HEALTHY_POOL)]
        subjects.append((f"h{k + 1:02d}", "Healthy", g, healthy_signal(g)))
    for k, g in enumerate(APNEA_SEEDS):
        subjects.append((f"a{k + 1:02d}", "Apnea", g, apnea_signal(g)))
    entries = []
    for pos, (subject_id, group, g, x) in enumerate(subjects):
        write_signal_csv(root / f"{subject_id}.csv", TimeSeries(x, 10.0), metadata={"channel": "C3"})
        write_hypnogram_csv(root / f"{subject_id}_stages.csv", _stages(stage_tokens(seed, pos, COHORT_EPOCHS)))
        entries.append(
            {
                "subject_id": subject_id,
                "group": group,
                "signal_path": f"{subject_id}.csv",
                "hypnogram_path": f"{subject_id}_stages.csv",
                "channel": "C3",
                "generator_seed": g,
            }
        )
    (root / "manifest.json").write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    # The --jobs parity run reads the first healthy and the first apnea subject.
    parity = [entries[0], entries[4]]
    (root / "parity_manifest.json").write_text(json.dumps(parity, indent=2) + "\n", encoding="utf-8")
    return {"subjects": len(entries), "windows": len(entries) * COHORT_EPOCHS}


def night_records(seed: int, fingerprint: str) -> list[dict]:
    """31 x 960 window records in NDJSON field order, values seeded."""
    rng = _rng(seed, 7000)
    n = NIGHT_SUBJECTS * NIGHT_EPOCHS
    lle = rng.normal(1.5, 0.4, n)
    mi = rng.uniform(0.2, 2.5, n)
    d2 = rng.normal(2.2, 0.3, n)
    e1 = rng.uniform(0.9, 1.1, n)
    med = rng.integers(2, 8, n)
    lag = rng.integers(3, 30, n)
    w = rng.integers(5, 100, n)
    records = []
    for s in range(NIGHT_SUBJECTS):
        group = "Healthy" if s < 16 else "Apnea"
        shift = 0.0 if group == "Healthy" else 0.1
        tokens = stage_tokens(seed, 100 + s, NIGHT_EPOCHS)
        for e in range(NIGHT_EPOCHS):
            k = s * NIGHT_EPOCHS + e
            records.append(
                {
                    "subject_id": f"s{s + 1:02d}",
                    "group": group,
                    "stage": TOKENS[tokens[e]],
                    "epoch_index": e,
                    "sample_rate_hz": 100.0,
                    "lle": float(lle[k] + shift),
                    "lle_units": "nats/s",
                    "mi": float(mi[k]),
                    "mi_lag": int(lag[k]),
                    "med": int(med[k]),
                    "e1_at_selected": float(e1[k]),
                    "d2": float(d2[k] - shift),
                    "theiler_w": int(w[k]),
                    "embed_m": int(med[k]),
                    "deterministic": True,
                    "failures": {},
                    "config_fingerprint": fingerprint,
                }
            )
    return records


def _make_night(seed: int, root: Path) -> dict:
    fs = 100.0
    n = 3000 * NIGHT_EPOCHS
    rng = _rng(seed, 6000)
    t = np.arange(n) / fs
    # EEG-like amplitude in microvolts: slow and spindle-band rhythms plus noise.
    x = 25.0 * np.sin(2.0 * math.pi * 0.8 * t) + 8.0 * np.sin(2.0 * math.pi * 12.5 * t) + 15.0 * rng.standard_normal(n)
    write_signal_csv(root / "night.csv", TimeSeries(x, fs), metadata={"channel": "C3"})
    write_hypnogram_csv(root / "night_stages.csv", _stages(stage_tokens(seed, 0, NIGHT_EPOCHS, unknown=0.02)))
    entry = {
        "subject_id": "night01",
        "group": "Healthy",
        "signal_path": "night.csv",
        "hypnogram_path": "night_stages.csv",
        "channel": "C3",
    }
    (root / "manifest.json").write_text(json.dumps([entry], indent=2) + "\n", encoding="utf-8")
    records = night_records(seed, EstimatorConfig().fingerprint())
    (root / "records.json").write_text(json.dumps(records), encoding="utf-8")
    return {"samples": n, "windows": NIGHT_EPOCHS, "records": len(records)}


_MAKERS = {"epochs_100hz": _make_epochs, "cohort_10hz_jobs2": _make_cohort, "night_io": _make_night}


def ensure_inputs(workload: str, seed: int) -> Path:
    """Make the inputs of one workload seed unless a finished set exists."""
    root = CACHE / "inputs" / f"{workload}-seed{seed}"
    if (root / "DONE").is_file():
        return root
    tmp = root.with_name(root.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    info = _MAKERS[workload](seed, tmp)
    (tmp / "inputs.json").write_text(json.dumps({"workload": workload, "seed": seed, **info}, indent=2) + "\n")
    (tmp / "DONE").write_text("")
    shutil.rmtree(root, ignore_errors=True)
    tmp.rename(root)
    done = sorted(root.parent.glob(f"{workload}-seed*/DONE"), key=lambda p: p.stat().st_mtime)
    for old in done[:-KEEP_INPUT_SETS]:
        shutil.rmtree(old.parent, ignore_errors=True)
    return root


def warm_page_cache(root: Path) -> None:
    """Read every input file once so timed reads hit the page cache."""
    for path in root.rglob("*"):
        if path.is_file():
            path.read_bytes()
