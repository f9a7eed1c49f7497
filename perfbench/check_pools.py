"""Check the generator seeds that ``inputs.py`` draws its signals from.

Run from the repository root:

    python3 perfbench/check_pools.py

Every seed of ``EPOCH_POOL`` and ``HEALTHY_POOL`` must make windows that
give all four indices at the default config. The windows of
``APNEA_SEEDS`` may fail only their LLE, and only by the Wolf start
fault. Each seed is printed with its failures; the exit code is 1 if any
seed breaks its rule. Some generator seeds make windows whose E1 curve
never plateaus (``med`` fails); a seed that does so cannot join a pool.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from chaoskit.series import TimeSeries  # noqa: E402
from chaoskit.sleep import compute_epoch_indices  # noqa: E402

import inputs  # noqa: E402
from checks import WOLF_START  # noqa: E402


def window_failures(x, fs: float, spe: int) -> list[dict]:
    return [compute_epoch_indices(TimeSeries(x[k * spe : (k + 1) * spe], fs)).failures for k in range(x.size // spe)]


def main() -> int:
    bad = 0
    for g in inputs.EPOCH_POOL:
        failures = [(name, f) for name, x in inputs.epoch_signals(g).items() for f in window_failures(x, 100.0, 3000) if f]
        print(f"EPOCH_POOL g={g}: {'ok' if not failures else failures}", flush=True)
        bad += bool(failures)
    for g in inputs.HEALTHY_POOL:
        failures = [f for f in window_failures(inputs.healthy_signal(g), 10.0, 300) if f]
        print(f"HEALTHY_POOL g={g}: {'ok' if not failures else failures}", flush=True)
        bad += bool(failures)
    for g in inputs.APNEA_SEEDS:
        failures = window_failures(inputs.apnea_signal(g), 10.0, 300)
        other = [f for f in failures if any(k != "lle" or WOLF_START not in v for k, v in f.items())]
        wolf = sum(1 for f in failures if "lle" in f)
        print(f"APNEA_SEEDS g={g}: {wolf} Wolf start failures of {len(failures)} windows; other failures: {other}", flush=True)
        bad += bool(other)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
