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
"""

import hashlib
import json

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
        "epoch_indices.ndjson": "42523280030d3e230fc853711fc85398d14639af13eff8445d49cf8af7d8f046",
        "summary.csv": "70faefaedb19be987893107e21ca2ac41bdcf4f5ac078b4aebb2ae99b6ed0a41",
        "pvalues.csv": "bc2cb36f6bcb4f0a6c8c95a164fb6f719fcc6a2e137c8b679d2e999b24e50485",
        HISTOGRAMS: "383ab0ee8fefe5e498663f8f099d8b445739a24dc5b66e708961e1b571bfc9bc",
    },
    (2, 100.0): {
        "epoch_indices.ndjson": "fa92cfad0743f96afeb20579f4f00babfdacdc210d38a19e54ce86f03163ac21",
        "summary.csv": "4864ae59c5c11151b96ee9202166c22d509155742978768293dc32ea3315c4b4",
        "pvalues.csv": "9dffe207b69d0a1d4842a7de694b86ea0587181311fbd7fbcffbbef480119fff",
        HISTOGRAMS: "c03f5cda5e97bb6d4d9cdbad27691b83d22ea1cd106529d25ae3a350c612513a",
    },
}


@pytest.mark.parametrize("n_epochs, fs", sorted(GOLDEN), ids=lambda v: str(v))
def test_analyze_outputs_match_golden_hashes(tmp_path, n_epochs, fs):
    manifest = build_sleep_fixture(tmp_path, n_epochs=n_epochs, fs=fs)
    out = tmp_path / "out"
    assert main(["analyze", "--manifest", manifest, "--out", str(out)]) == 0
    assert _digests(out, GOLDEN[n_epochs, fs]) == GOLDEN[n_epochs, fs]


# Case -> (generator seeds of the Healthy and the Apnea subject, hashes).
LORENZ_GOLDEN = {
    "wolf-start-fails": (
        (43, 44),
        {
            "epoch_indices.ndjson": "365803f930b046b1a80e85874e932f91b683c914248d28193a1b6ca82e03b6ab",
            "summary.csv": "be6f587dc0297d9ceaf978c56dd48688f4b2403b1aca666c8203eeabce2f24a7",
            "pvalues.csv": "7e4910a8bc949f7d57ca46dea7dc01e4fa2919fcdd98d2143e4b6abfcda17ef2",
            HISTOGRAMS: "6c0aedc4ecce3fc44ee23c01c53b8899c8cfdb99dc53a98e1fd91bba721c410c",
        },
    ),
    "short-step-at-end": (
        (71, 47),
        {
            "epoch_indices.ndjson": "a9da91de802eb5411886cef9511829da5837d4a0de68461e73bb46b12d081301",
            "summary.csv": "d087993d928f41286812c5ccd36fa0d68ec5eb9347533d73e7ffaf2c6026a6f1",
            "pvalues.csv": "a6c7b2546fa9e0f2839a69578485b9c769613e9aa378b9186b4034df06ba5b20",
            HISTOGRAMS: "2ad0bbf0301b8f2d5d7b0b65a35d7d5f69bcd35d069d6900e8b0ed27b647c064",
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
    ("d2", "logistic"): ((0, 0, 0, 0, 0, 0, 0), "ea43daa5c2649513ea99877a3dac0338574d5f29751554833563fdf499c32ab3"),
    ("d2", "sine"): ((0, 0, 0, 0, 0, 4, 0), "9d4422699f5e595754fce2584b79ae25a994b28f687a4bd93e2bc41896102c7c"),
    ("d2", "noise"): ((0, 0, 0, 0, 0, 0, 0), "a7a6c700920d0d21f2074da57aa024e82468f1174cf099af9efab7e1196927ba"),
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
