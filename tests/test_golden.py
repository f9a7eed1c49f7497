"""Golden outputs: ``chaoskit analyze`` on the synthetic study, pinned by hash.

The hashes were recorded before the neighbour-search kernels of the
Wolf walk and the correlation sum replaced their full scans. A faster
kernel or a refactor must reproduce these files to the byte; a change
that alters them on purpose has to say why and record the new hashes.

The 10 Hz study runs every estimator on 300-sample windows; the 100 Hz
one puts 3000-sample windows through the same path, where the radius
grid draws a sample of pairs instead of taking all of them.

Two 10 Hz Lorenz studies pin the Wolf walk's rarer routes end to end:
in one, many windows have no admissible neighbour of point 0, so their
LLE fails at the start; in the other, walks take a short step when the
neighbour comes within ``evolve_steps`` of the last point, which moves
the fiducial point off the grid its candidates were fetched for. Their
hashes were recorded before the walk fetched candidates in batches.
"""

import hashlib
import json

import pytest

from chaoskit.cli import main
from chaoskit.generators import GeneratorSpec

from conftest import build_sleep_fixture, off_grid_fetches

GOLDEN = {
    (12, 10.0): {
        "epoch_indices.ndjson": "42523280030d3e230fc853711fc85398d14639af13eff8445d49cf8af7d8f046",
        "summary.csv": "70faefaedb19be987893107e21ca2ac41bdcf4f5ac078b4aebb2ae99b6ed0a41",
        "pvalues.csv": "bc2cb36f6bcb4f0a6c8c95a164fb6f719fcc6a2e137c8b679d2e999b24e50485",
    },
    (2, 100.0): {
        "epoch_indices.ndjson": "ee54c2328ed8a0435b9b3f7a8fcdd8817a9d2a76d5ddacf8635072e0b9444690",
        "summary.csv": "63cbe4f5c6fb3ec71084de77d645dc1b51c61d341708c7b71455591f4c338664",
        "pvalues.csv": "bf03a639976a5878fc17b1c67890d1d96c8f33d2f69099a0f52ab6c2b402816f",
    },
}


@pytest.mark.parametrize("n_epochs, fs", sorted(GOLDEN), ids=lambda v: str(v))
def test_analyze_outputs_match_golden_hashes(tmp_path, n_epochs, fs):
    manifest = build_sleep_fixture(tmp_path, n_epochs=n_epochs, fs=fs)
    out = tmp_path / "out"
    assert main(["analyze", "--manifest", manifest, "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[n_epochs, fs]}
    assert digests == GOLDEN[n_epochs, fs]


# Case -> (generator seeds of the Healthy and the Apnea subject, hashes).
LORENZ_GOLDEN = {
    "wolf-start-fails": (
        (43, 44),
        {
            "epoch_indices.ndjson": "365803f930b046b1a80e85874e932f91b683c914248d28193a1b6ca82e03b6ab",
            "summary.csv": "be6f587dc0297d9ceaf978c56dd48688f4b2403b1aca666c8203eeabce2f24a7",
            "pvalues.csv": "7e4910a8bc949f7d57ca46dea7dc01e4fa2919fcdd98d2143e4b6abfcda17ef2",
        },
    ),
    "short-step-at-end": (
        (71, 47),
        {
            "epoch_indices.ndjson": "a9da91de802eb5411886cef9511829da5837d4a0de68461e73bb46b12d081301",
            "summary.csv": "d087993d928f41286812c5ccd36fa0d68ec5eb9347533d73e7ffaf2c6026a6f1",
            "pvalues.csv": "a6c7b2546fa9e0f2839a69578485b9c769613e9aa378b9186b4034df06ba5b20",
        },
    ),
}
LORENZ_EPOCHS = 8


@pytest.mark.parametrize("case", sorted(LORENZ_GOLDEN))
def test_lorenz_outputs_match_golden_hashes(tmp_path, wolf_fetches, case):
    seeds, golden = LORENZ_GOLDEN[case]
    subjects = [
        (
            f"{group[0].lower()}{seed}",
            group,
            GeneratorSpec("lorenz", 300 * LORENZ_EPOCHS, seed=seed, transient_skip=1000, parameters={"fs": 10.0}),
        )
        for group, seed in zip(("Healthy", "Apnea"), seeds)
    ]
    manifest = build_sleep_fixture(tmp_path, n_epochs=LORENZ_EPOCHS, subjects=subjects)
    out = tmp_path / "out"
    assert main(["analyze", "--manifest", manifest, "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in golden}
    assert digests == golden
    # The study takes the route it is named for.
    records = [json.loads(line) for line in (out / "epoch_indices.ndjson").read_text(encoding="utf-8").splitlines()]
    if case == "wolf-start-fails":
        assert any("no admissible initial neighbour" in r["failures"].get("lle", "") for r in records)
    else:
        assert off_grid_fetches(wolf_fetches) > 0
