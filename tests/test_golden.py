"""Golden outputs: ``chaoskit analyze`` on the synthetic study, and
``chaoskit estimate`` on three signal files, pinned by hash.

The hashes were recorded before the neighbour-search kernels of the
Wolf walk and the correlation sum replaced their full scans. A faster
kernel or a refactor must reproduce these files to the byte; a change
that alters them on purpose has to say why and record the new hashes.

The 10 Hz study runs every estimator on 300-sample windows; the 100 Hz
one puts 3000-sample windows through the same path, where each window
holds more than a million admissible pairs, all of which set its
radius grid. Its hashes were recorded again when that grid stopped
coming from a seeded sample of a million pairs, which moved each
window's D2 by at most 0.002.

Two 10 Hz Lorenz studies pin the Wolf walk's rarer routes end to end:
in one, many windows have no admissible neighbour of point 0, so their
LLE fails at the start; in the other, walks take a short step when the
neighbour comes within ``evolve_steps`` of the last point, after which
the neighbour sits on the last point and bounds no ball. Their hashes
were recorded when every pick asked the tree for a ``max_separation``
ball.

Each study also pins its report histograms by one digest over every
``histograms/hist_*.csv``, recorded before the report tables came to be
built from one cell map.

Every hash that carries D2 (the four studies, and ``estimate`` D2 on
each signal) was recorded again when the D2 fit came to add its sums
from left to right instead of through ``np.cov``: each D2 moved by at
most 6.2e-16 of itself, and no fit window or failure changed. The 100 Hz
study also runs under OpenBLAS's oldest x86-64 kernel and must give the
same bytes, since no output may depend on the BLAS kernel.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chaoskit.cli import main
from chaoskit.generators import GeneratorSpec

from conftest import build_sleep_fixture, short_steps

# One digest over a directory of histogram files, in name order.
HISTOGRAMS = "histograms/hist_*.csv"


def _digests(out, names):
    """SHA-256 of each named output file's bytes; ``HISTOGRAMS`` gets
    one digest of every file it matches: each file's name and length,
    then its bytes."""
    digests = {}
    for name in names:
        if name == HISTOGRAMS:
            h = hashlib.sha256()
            for path in sorted(out.glob(name)):
                data = path.read_bytes()
                h.update(f"{path.name}\n{len(data)}\n".encode("ascii"))
                h.update(data)
            digests[name] = h.hexdigest()
        else:
            digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return digests


GOLDEN = {
    (12, 10.0): {
        "epoch_indices.ndjson": "3c103b7b51377092f6509f8fc8cbb6f43578dfbb680690d410a7cd4f484e453d",
        "summary.csv": "c2522e2be628abc4baa0553c6d04993efffd4a3f1af37576fc9142f541a0a996",
        "pvalues.csv": "1a381a304b6a92788e0b106e9781004279106122a251bc96c9eae14c9d869c81",
        HISTOGRAMS: "fc1616bf8206634f19c7ff1a7da7e16eedbeb01cedbae13b615b510ab7365e21",
    },
    (2, 100.0): {
        "epoch_indices.ndjson": "04dff41695a70976c8e12e5472f02def96d12629e4e308c05a401b6f8ff0053a",
        "summary.csv": "67dc76139b01dbfeeae4c505b4f53b0a2afbb1f66f54d69e65ac2dfffbb20863",
        "pvalues.csv": "b3effe0ea6bd400f04482dc46629d172a7cadb1d4b10caa7c9b70f5219ee002c",
        HISTOGRAMS: "99f9d6997b719d987d420d16fefef0c8c61e7a03f776a143cdbe19071ffd11f3",
    },
}


@pytest.mark.parametrize("n_epochs, fs", sorted(GOLDEN), ids=lambda v: str(v))
def test_analyze_outputs_match_golden_hashes(tmp_path, n_epochs, fs):
    manifest = build_sleep_fixture(tmp_path, n_epochs=n_epochs, fs=fs)
    out = tmp_path / "out"
    assert main(["analyze", "--manifest", manifest, "--out", str(out)]) == 0
    assert _digests(out, GOLDEN[n_epochs, fs]) == GOLDEN[n_epochs, fs]


def _dynamic_openblas() -> bool:
    """Whether numpy runs on an OpenBLAS that picks its kernel per CPU
    at load time, which ``OPENBLAS_CORETYPE`` then overrides."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("name", "").startswith("scipy-openblas") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS cannot be told which kernel to use")
def test_analyze_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # Each BLAS kernel rounds its sums its own way; no output may follow
    # the one the host selects. Prescott is OpenBLAS's oldest x86-64
    # kernel.
    manifest = build_sleep_fixture(tmp_path, n_epochs=2, fs=100.0)
    assert main(["analyze", "--manifest", manifest, "--out", str(tmp_path / "here")]) == 0
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chaoskit", "analyze", "--manifest", manifest, "--out", str(tmp_path / "prescott")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = GOLDEN[2, 100.0]
    assert _digests(tmp_path / "prescott", names) == _digests(tmp_path / "here", names)


# Case -> (generator seeds of the Healthy and the Apnea subject, hashes).
LORENZ_GOLDEN = {
    "wolf-start-fails": (
        (43, 44),
        {
            "epoch_indices.ndjson": "8a265dd25a94e535695ff96b73e45ad283d3ac19e4af082f31161d0e96e346dc",
            "summary.csv": "e4855cab8a3ee48b3cd901da48bc5f4a02f92331a89eb43bb43cced90a47fbb9",
            "pvalues.csv": "5ae51c8ff74f2e1f752f713c4b84570344d4ba9aa8eac74f4cdfba83544d9128",
            HISTOGRAMS: "3c60e89c61c06a1c374fe8478faead3697db9e42c36ef86b1ef67a1c902eb9f8",
        },
    ),
    "short-step-at-end": (
        (71, 47),
        {
            "epoch_indices.ndjson": "9d9aba06b96f576b5db99b2533f3b2cb99f84acc5b425d6d540c1de1d29071ac",
            "summary.csv": "66a82c5b0f7ed4c1ff6d152eff5322c83c8f0e4f404f72d8a44e1e3039109c21",
            "pvalues.csv": "87da44ad2a2b078ac5666f7e7c229bd7008d972cb355c360feaa8a7393e19eb0",
            HISTOGRAMS: "44c7a3eb2e1736876efaf4bc7f5d65909ab500fde84e6d9dba05a6f811709405",
        },
    ),
}
LORENZ_EPOCHS = 8


@pytest.mark.parametrize("case", sorted(LORENZ_GOLDEN))
def test_lorenz_outputs_match_golden_hashes(tmp_path, wolf_balls, case):
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
    assert _digests(out, golden) == golden
    # The study takes the route it is named for.
    records = [json.loads(line) for line in (out / "epoch_indices.ndjson").read_text(encoding="utf-8").splitlines()]
    if case == "wolf-start-fails":
        assert any("no admissible initial neighbour" in r["failures"].get("lle", "") for r in records)
    else:
        # Steps cut short by a window's end, each followed by a d_max
        # ball: the neighbour then sits on the last point.
        short = short_steps(wolf_balls)
        assert short
        assert all(radius == d_max for _, radius, d_max in short)


# ``chaoskit estimate``: every estimator on three synthesised files, run
# once per argument set. A case pins the exit code of each run and the
# SHA-256 of their stdouts joined in order. The digests were recorded
# before ``estimate`` and ``analyze`` came to share one window plan.
ESTIMATE_SIGNALS = {
    "logistic": ("--kind", "logistic", "--n", "1200", "--seed", "7", "--skip", "100", "--param", "r=4"),
    "sine": ("--kind", "sine", "--n", "400", "--fs", "100", "--param", "freq_hz=1.3", "--param", "noise_std=0.05"),
    "noise": ("--kind", "white_noise", "--n", "1000", "--seed", "5"),
}
ESTIMATE_ARGS = (
    (),
    ("--lag", "1"),
    ("--theiler", "5"),
    ("--m", "3"),
    ("--lag", "2", "--theiler", "3", "--m", "2"),
    ("--lag", "400", "--theiler", "0"),  # too few samples for a Cao scan at this delay
    ("--max-separation", "0.7"),
)
ESTIMATE_LOG2_ARGS = (("--log2",), ("--log2", "--lag", "1", "--m", "1", "--theiler", "10"))
ESTIMATE_GOLDEN = {
    ("lag", "logistic"): ((0, 0, 0, 0, 0, 0, 0), "ade172801d26bfe001d95ceb3ff7821ca25a71bd887c0ab1cdff021e962f18f9"),
    ("lag", "sine"): ((0, 0, 0, 0, 0, 0, 0), "080a4f429b904041c4196327d4fa00262b523a0330e7aa2f54e82f2230e20ef6"),
    ("lag", "noise"): ((0, 0, 0, 0, 0, 0, 0), "87d844695b5fd0dcfef26d0cfce7dc996e18ec3f918a1575b9da67f0575d7c89"),
    ("theiler", "logistic"): ((0, 0, 0, 0, 0, 0, 0), "d9f7a6fac5aa5d9868d78ef388c4fd1a73836c80d50bd56d2b516b30c418156b"),
    ("theiler", "sine"): ((0, 0, 0, 0, 0, 0, 0), "317ef7e2fe1596759454806d310eada76663c955b1fba11203baa0161fbf9efe"),
    ("theiler", "noise"): ((0, 0, 0, 0, 0, 0, 0), "2be26c797ef0d6d8b26d368810a2bb53136d37d2643dfd2d11e833b9a02bb86b"),
    ("mi", "logistic"): ((0, 0, 0, 0, 0, 0, 0), "db818c9f0d20c0376fe7762e35eed8bfe7dd7c5193e834006fdbfacdd0b44964"),
    ("mi", "sine"): ((0, 0, 0, 0, 0, 4, 0), "0c63ad176562a9e80777d0a0c21daf9864362aea37bb433607c383f52251a2da"),
    ("mi", "noise"): ((0, 0, 0, 0, 0, 0, 0), "70a8c2d89aa5d3c8b0717e6bd269155df29a8a036406a96d542855e64ac152ac"),
    ("med", "logistic"): ((0, 0, 0, 0, 0, 4, 0), "8f179b0e2e61c17b3dab4391f615a5aaa5f8f6bc4714cb45c45ff21f3ffc9b29"),
    ("med", "sine"): ((0, 0, 0, 0, 0, 4, 0), "784baa3123492099b788c4040e8851fb98fbafa26f21394633c4977abd803d6c"),
    ("med", "noise"): ((0, 0, 0, 0, 0, 4, 0), "f9aab59b29eb377f8fa0153fdb03ef66f6de369b944b1eea9d5ec63f66dcadc9"),
    ("lle", "logistic"): ((4, 0, 4, 0, 0, 0, 0, 4, 0), "ebb593a9f62ba3012db4c01150967aba6908e8dd43433347c1cb2c7a188f8360"),
    ("lle", "sine"): ((0, 0, 0, 0, 0, 4, 0, 0, 0), "9296a5e92944ca60ce9bc7086a04e76e6e6e1235ff6416cf7ede3ed2b8af478e"),
    ("lle", "noise"): ((4, 4, 4, 0, 0, 0, 0, 4, 0), "db4b3b676ef8ec865d16b7c3cb87f3cf64a43498384490f7c989936b4802597f"),
    ("d2", "logistic"): ((0, 0, 0, 0, 0, 0, 0), "c20c622c74a3cb6fb1c8b41a4260d438968eacae6c0b0064437a051136471774"),
    ("d2", "sine"): ((0, 0, 0, 0, 0, 4, 0), "d81bec25302e80b6746784740299735327ab7ea9c072c9dc461adbef46d89a04"),
    ("d2", "noise"): ((0, 0, 0, 0, 0, 0, 0), "c35257bf17c5582b013f7aec18b716d4a705d6e156df6121babb669d7ccfcae8"),
}


@pytest.fixture(scope="module")
def estimate_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("estimate")
    for name, synth in ESTIMATE_SIGNALS.items():
        assert main(["synth", *synth, "--out", str(root / f"{name}.csv")]) == 0
    return root


def _estimate_runs(estimator, signal, capsys):
    """Exit codes and the joined stdout of every argument set, run from
    the signals' directory so the ``input`` parameter reads the same."""
    argsets = ESTIMATE_ARGS + (ESTIMATE_LOG2_ARGS if estimator == "lle" else ())
    capsys.readouterr()
    codes, out = [], []
    for extra in argsets:
        codes.append(main(["estimate", "--estimator", estimator, "--input", f"{signal}.csv", *extra]))
        out.append(capsys.readouterr().out)
    return tuple(codes), hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("estimator, signal", sorted(ESTIMATE_GOLDEN))
def test_estimate_outputs_match_golden_hashes(estimate_dir, monkeypatch, capsys, estimator, signal):
    monkeypatch.chdir(estimate_dir)
    assert _estimate_runs(estimator, signal, capsys) == ESTIMATE_GOLDEN[estimator, signal]
