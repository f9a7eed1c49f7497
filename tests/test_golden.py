"""Golden outputs: ``chaoskit analyze`` on the synthetic study, pinned by hash.

The hashes were recorded before the neighbour-search kernels of the
Wolf walk and the correlation sum replaced their full scans. A faster
kernel or a refactor must reproduce these files to the byte; a change
that alters them on purpose has to say why and record the new hashes.

The 10 Hz study runs every estimator on 300-sample windows; the 100 Hz
one puts 3000-sample windows through the same path, where the radius
grid draws a sample of pairs instead of taking all of them.
"""

import hashlib

import pytest

from chaoskit.cli import main

from conftest import build_sleep_fixture

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
