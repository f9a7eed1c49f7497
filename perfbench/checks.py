"""Checks of the workloads' outputs, made apart from chaoskit.

Nothing here imports chaoskit: each check recomputes what the program
claims with numpy or scipy, straight from the input files, or tests a
property the method must have. Every function returns a list of
problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

INDEX_NAMES = ("lle", "mi", "med", "d2")
STAGES = ("Wake", "REM", "S1", "S2", "S3", "S4")
GROUPS = ("Healthy", "Apnea")
TOKENS = {"W": "Wake", "R": "REM", "1": "S1", "2": "S2", "3": "S3", "4": "S4", "?": "Unknown"}
WOLF_START = "no admissible initial neighbour"
P_FLOOR = 0.0005

# Bands for the indices of the 100 Hz windows (see README.md).
LORENZ_D2 = (1.3, 2.6)
SINE_D2 = (0.9, 1.25)


def digest(outputs: Path) -> str:
    """SHA-256 over every output file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in outputs.rglob("*") if p.is_file()):
        h.update(path.relative_to(outputs).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def read_ndjson(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def read_signal(path: Path) -> np.ndarray:
    return np.loadtxt(path, comments="#", dtype=np.float64, ndmin=1)


def read_stage_names(path: Path) -> list[str]:
    rows = [line.split(",") for line in path.read_text().splitlines() if line.strip()]
    return [TOKENS.get(token.strip(), "Unknown") for _, token in rows]


def _embed(x: np.ndarray, m: int, lag: int) -> np.ndarray:
    n_pts = x.size - (m - 1) * lag
    return np.stack([x[j * lag : j * lag + n_pts] for j in range(m)], axis=1)


def _read_csv_table(path: Path) -> list[list[str]]:
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def check_tables(records: list[dict], report: Path) -> list[str]:
    """summary.csv and pvalues.csv against numpy and scipy."""
    problems = []
    scored = [r for r in records if r["group"] is not None and r["stage"] != "Unknown"]
    cells: dict[tuple, list[float]] = {}
    for r in scored:
        for name in INDEX_NAMES:
            if r[name] is not None:
                cells.setdefault((name, r["stage"], r["group"]), []).append(float(r[name]))

    expected = []
    for name in INDEX_NAMES:
        for stage in STAGES:
            for group in GROUPS:
                v = np.asarray(cells.get((name, stage, group), []))
                if v.size >= 2:
                    expected.append((name, stage, group, v.mean(), v.std(ddof=1), v.size))
    rows = _read_csv_table(report / "summary.csv")
    if [tuple(r[:3]) for r in rows] != [e[:3] for e in expected]:
        problems.append("summary.csv: cells differ from the recomputed cells")
    else:
        for row, (name, stage, group, mean, std, n) in zip(rows, expected):
            if not (_close(float(row[3]), mean, 1e-12) and _close(float(row[4]), std, 1e-12) and int(row[5]) == n):
                problems.append(f"summary.csv: {name}/{stage}/{group} is {row[3:]} not {[mean, std, n]}")

    expected = []
    for stage in STAGES:
        for name in INDEX_NAMES:
            a = np.asarray(cells.get((name, stage, "Apnea"), []))
            b = np.asarray(cells.get((name, stage, "Healthy"), []))
            if a.size < 2 or b.size < 2:
                continue
            if a.std(ddof=1) == 0.0 and b.std(ddof=1) == 0.0:
                # Welch's T is undefined; the program pins it by the sign of the mean gap.
                diff = a.mean() - b.mean()
                t = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
                p = 0.5 if diff == 0.0 else (0.0 if diff > 0 else 1.0)
                expected.append((stage, name, t, None, p))
            else:
                res = stats.ttest_ind(a, b, equal_var=False, alternative="greater")
                expected.append((stage, name, float(res.statistic), float(res.df), float(res.pvalue)))
    rows = _read_csv_table(report / "pvalues.csv")
    if [tuple(r[:2]) for r in rows] != [e[:2] for e in expected]:
        problems.append("pvalues.csv: cells differ from the recomputed cells")
    else:
        for row, (stage, name, t, df, p) in zip(rows, expected):
            t_row, df_row, p_row, rep_row = (float(v) for v in row[2:6])
            ok = _close(t_row, t, 1e-9) and _close(p_row, p, 1e-9) and rep_row == max(p_row, P_FLOOR)
            if df is not None:
                ok = ok and _close(df_row, df, 1e-9)
            if not ok:
                problems.append(f"pvalues.csv: {stage}/{name} is {row[2:]} not {[t, df, p]}")
    return problems


def check_same_digests(digests: list[str]) -> list[str]:
    if len(set(digests)) != 1:
        return [f"rounds wrote different outputs: {digests}"]
    return []


def check_epochs(inputs: Path, first: Path) -> list[str]:
    spec = json.loads((inputs / "inputs.json").read_text())
    records = read_ndjson(first / "outputs" / "epoch_indices.ndjson")
    problems = []
    order = [(r["subject_id"], k) for r in spec["recordings"] for k in range(len(r["stages"]))]
    if [(r["subject_id"], r["epoch_index"]) for r in records] != order:
        problems.append("epoch records are not in recording and time order")
    for r in records:
        where = f"{r['subject_id']}/{r['epoch_index']}"
        if r["failures"] or any(r[name] is None for name in INDEX_NAMES):
            problems.append(f"{where}: failed indices {r['failures']}")
            continue
        if r["subject_id"].startswith("lorenz"):
            if not LORENZ_D2[0] <= r["d2"] <= LORENZ_D2[1]:
                problems.append(f"{where}: D2 {r['d2']} outside {LORENZ_D2}")
            if not r["lle"] > 0.0:
                problems.append(f"{where}: LLE {r['lle']} is not positive")
        elif r["subject_id"] == "sine" and not SINE_D2[0] <= r["d2"] <= SINE_D2[1]:
            problems.append(f"{where}: D2 {r['d2']} outside {SINE_D2}")

    # Every C(R) of one window equals a pair count made one row at a time.
    curve = json.loads((first / "check" / "curve.json").read_text())
    x = np.load(inputs / f"{curve['subject_id']}.npy")[3000 * curve["epoch_index"] : 3000 * (curve["epoch_index"] + 1)]
    pts = _embed(x, curve["embed_m"], curve["lag"])
    n, w = pts.shape[0], curve["theiler_w"]
    r_sq = np.asarray(curve["radii"]) ** 2
    counts = np.zeros(r_sq.size, dtype=np.int64)
    for i in range(n - w - 1):
        d_sq = np.sort(((pts[i + w + 1 :] - pts[i]) ** 2).sum(axis=1))
        counts += np.searchsorted(d_sq, r_sq, side="right")
    gaps = n - 1 - w
    reference = counts / (gaps * (gaps + 1) // 2)
    if not np.array_equal(reference, np.asarray(curve["c_values"])):
        problems.append(f"C(R) of window {curve['window']} differs from the numpy pair count")
    return problems


def _point0_admissible(x: np.ndarray, m: int, lag: int, w: int) -> bool:
    """Whether point 0 of the embedding has a neighbour inside the Wolf
    walk's default separation bounds and outside the exclusion window."""
    pts = _embed(x, m, lag)
    extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    d = np.sqrt(((pts - pts[0]) ** 2).sum(axis=1))
    ok = (d >= 1e-3 * extent) & (d <= 0.1 * extent) & (np.arange(pts.shape[0]) > w)
    ok[-1] = False
    return bool(ok.any())


def check_cohort(inputs: Path, first: Path, parity: Path) -> list[str]:
    manifest = json.loads((inputs / "manifest.json").read_text())
    records = read_ndjson(first / "outputs" / "epoch_indices.ndjson")
    problems = []
    signals = {e["subject_id"]: read_signal(inputs / e["signal_path"]) for e in manifest}
    per_subject = {sid: x.size // 300 for sid, x in signals.items()}
    order = [(e["subject_id"], k) for e in manifest for k in range(per_subject[e["subject_id"]])]
    if [(r["subject_id"], r["epoch_index"]) for r in records] != order:
        problems.append("epoch records are not in manifest and time order")
    for r in records:
        where = f"{r['subject_id']}/{r['epoch_index']}"
        wrong = {k: v for k, v in r["failures"].items() if k != "lle" or WOLF_START not in v}
        if wrong or any(r[name] is None for name in ("mi", "med", "d2")):
            problems.append(f"{where}: failure other than the Wolf start fault: {r['failures']}")
            continue
        k = r["epoch_index"]
        x = signals[r["subject_id"]][300 * k : 300 * (k + 1)]
        admissible = _point0_admissible(x, r["embed_m"], r["mi_lag"], r["theiler_w"])
        if ("lle" in r["failures"]) == admissible:
            problems.append(f"{where}: LLE failed={('lle' in r['failures'])} but point 0 admissible={admissible}")
    problems += check_tables(records, first / "outputs")

    # --jobs 1 on two subjects writes the same records as --jobs 2.
    mine = (first / "outputs" / "epoch_indices.ndjson").read_text().splitlines()
    theirs = (parity / "outputs" / "epoch_indices.ndjson").read_text().splitlines()
    subjects = {json.loads(line)["subject_id"] for line in theirs}
    if [line for line in mine if json.loads(line)["subject_id"] in subjects] != theirs:
        problems.append("--jobs 1 records differ from --jobs 2 records")
    return problems


def check_night(inputs: Path, first: Path) -> list[str]:
    needed = ["check/night_samples.npy", "check/night_windows.npy", "check/night_window_stages.json"]
    needed += ["outputs/epochs.ndjson", "outputs/report/summary.csv", "outputs/report/pvalues.csv"]
    missing = [name for name in needed if not (first / name).is_file()]
    if missing:
        return [f"nothing to check, files missing: {missing}"]
    problems = []
    reference = read_signal(inputs / "night.csv")
    samples = np.load(first / "check" / "night_samples.npy")
    if samples.shape != reference.shape or not np.array_equal(samples.view(np.uint64), reference.view(np.uint64)):
        problems.append("samples read differ from np.loadtxt of night.csv")
    windows = np.load(first / "check" / "night_windows.npy")
    n_windows = reference.size // 3000
    if windows.shape != (n_windows, 3000) or not np.array_equal(
        windows.reshape(-1).view(np.uint64), reference[: n_windows * 3000].view(np.uint64)
    ):
        problems.append("windows do not tile the samples")
    stages = json.loads((first / "check" / "night_window_stages.json").read_text())
    if stages != read_stage_names(inputs / "night_stages.csv")[:n_windows]:
        problems.append("window stages differ from the hypnogram")

    records = json.loads((inputs / "records.json").read_text())
    if read_ndjson(first / "outputs" / "epochs.ndjson") != records:
        problems.append("NDJSON read back differs from the records written")
    problems += check_tables(records, first / "outputs" / "report")
    return problems
