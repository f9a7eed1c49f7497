"""The repository's scripts against the package: the names the benchmark
tracer rebinds still exist and are called, every exported name exists,
every demo runs to the end, and the package keeps a single
integer-argument check, a single real-argument check, a single array
check, a single epoch record rule and a single histogram count, its
restated defaults agree with their sources, and the correlation sum
draws no random numbers."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chaoskit
from chaoskit import sleep
from chaoskit.cao import minimum_embedding_dimension
from chaoskit.cli import build_parser
from chaoskit.correlation import correlation_curve, correlation_dimension
from chaoskit.generators import GeneratorSpec, generate
from chaoskit.information import auto_mutual_information, mutual_information, select_lag_first_minimum
from chaoskit.lyapunov import WolfParams
from chaoskit.sleep import EstimatorConfig
from chaoskit.stats import histograms_by_cell

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound():
    # The tracer rebinds these by string; a rename in the package would
    # otherwise surface only when a traced benchmark round fails.
    traced = _load_tracing().TRACED
    assert traced
    for module_name, attr, _span, _counts in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_exported_names_exist():
    # A removed function must not linger in an __all__ as a stale string.
    modules = [chaoskit, *(importlib.import_module(f"chaoskit.{m.name}") for m in pkgutil.iter_modules(chaoskit.__path__))]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 10 and missing == []


def test_traced_sleep_names_are_called(monkeypatch):
    # Each name is wrapped where the tracer wraps it. A window plan that
    # reached an estimator some other way would leave its span, and so
    # its per-layer metric, silently empty.
    names = [attr for module_name, attr, _span, _counts in _load_tracing().TRACED if module_name == "chaoskit.sleep"]
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _call=getattr(sleep, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(sleep, name, counted)
    window = generate(GeneratorSpec("lorenz", 300, seed=1, transient_skip=1000, parameters={"fs": 10.0}))
    recording = sleep.Recording("l1", sleep.Group.HEALTHY, window, (sleep.SleepStage.S2,))
    (epoch,) = sleep.analyze_recordings([recording])
    assert epoch.failures == {}
    assert [name for name, n in calls.items() if n == 0] == []


def test_one_integer_rule():
    # Whole-number arguments are checked by errors.check_int alone, so
    # every entry point refuses NaN and returns whole floats as int alike.
    copies = [
        f"{path.name}: {line.strip()}"
        for path in sorted((ROOT / "src" / "chaoskit").glob("*.py"))
        if path.name != "errors.py"
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.search(r"int\((\w+(?:\.\w+)*)\) != \1\b", line)
    ]
    assert copies == []


def test_one_float_rule():
    # Real-valued arguments are checked by errors.check_float alone: no
    # hand-made "finite and bounded" test, and no range test of a value
    # against literal ends, which NaN or a string would slip past or crash.
    number = r"-?\d+(?:\.\d+)?"
    idioms = (
        r"isfinite\((\w+(?:\.\w+)*)\) and \1\b",
        rf"\bnot \(?{number} <=? \w+(?:\.\w+)* <=? (?:{number}|math\.pi)\b",
        rf"\bnot \({number} <=? \w+(?:\.\w+)*\)",
    )
    copies = [
        f"{path.name}: {line.strip()}"
        for path in sorted((ROOT / "src" / "chaoskit").glob("*.py"))
        if path.name != "errors.py"
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(re.search(idiom, line) for idiom in idioms)
    ]
    assert copies == []


def test_one_array_rule():
    # Array arguments and the arrays of the value types are checked and
    # converted by errors.check_array alone, so every entry point and
    # every value refuses NaN, strings and ragged input alike. Two modules
    # test arrays they compute themselves: generators.py its orbits,
    # cao.py its neighbour distances; generators.py also converts the
    # states its step functions return.
    finite = ("errors.py", "generators.py", "cao.py")
    idioms = {
        r"np\.all\(np\.isfinite\(": finite,
        r"np\.isfinite\([^()]*\)\.all\(\)": finite,
        r"np\.asarray\(.*dtype=np\.float64": ("errors.py", "generators.py"),
    }
    copies = [
        f"{path.name}: {line.strip()}"
        for path in sorted((ROOT / "src" / "chaoskit").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if any(path.name not in exempt and re.search(idiom, line) for idiom, exempt in idioms.items())
    ]
    assert copies == []


def test_one_histogram_rule():
    # Every histogram is counted in information.py: the report histograms
    # through marginal_distribution, every joint count, for
    # mutual_information and the delay scan alike, through one kernel,
    # and mutual information is H(X) + H(Y) - H(X, Y) written once.
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "chaoskit").glob("*.py"))}
    assert [name for name, source in sources.items() if "np.bincount(" in source] == ["information.py"]
    assert sum(source.count("_entropy_bits(p.sum(axis=1))") for source in sources.values()) == 1


def test_correlation_draws_no_random_numbers():
    # The radius grid comes from every admissible pair, so C(R) and D2
    # depend on the points alone, with no seed behind them.
    source = (ROOT / "src" / "chaoskit" / "correlation.py").read_text(encoding="utf-8")
    assert "default_rng" not in source and "np.random" not in source


def _default(function, name):
    return inspect.signature(function).parameters[name].default


def test_config_defaults_are_the_estimator_defaults():
    # EstimatorConfig restates the defaults of the estimators it feeds,
    # and the CLI's --hist-bins that of histograms_by_cell; these copies
    # must not drift apart.
    config, wolf = EstimatorConfig(), WolfParams()
    fed = {
        "bins": [(f, "bins") for f in (select_lag_first_minimum, auto_mutual_information, mutual_information)],
        "m_max": [(minimum_embedding_dimension, "m_max")],
        "plateau_tol": [(minimum_embedding_dimension, "plateau_tol")],
        "e2_tol": [(minimum_embedding_dimension, "e2_tol")],
        "n_radii": [(correlation_curve, "n_radii")],
        "min_fit_r2": [(correlation_dimension, "min_fit_r2")],
    }
    for name, sites in fed.items():
        for function, parameter in sites:
            assert getattr(config, name) == _default(function, parameter), (name, function.__name__)
    for name in ("evolve_steps", "min_separation", "max_separation", "max_replacement_angle"):
        assert getattr(config, name) == getattr(wolf, name), name
    parser = build_parser()
    for argv in (["analyze", "--manifest", "m.json", "--out", "o"], ["report", "--epochs", "e", "--out", "o"]):
        assert parser.parse_args(argv).hist_bins == _default(histograms_by_cell, "n_bins"), argv[0]


def test_one_record_rule():
    # The epoch record's rules live in sleep.EpochIndices, one per kind of
    # annotation, so io.py restates no field's rule and lists no field by
    # name: it only turns the group and stage spellings into enums and
    # sorts the failures it writes. Outside the two manifest functions,
    # whose keys merely share names with fields, any other field name is
    # a restated rule.
    fields = {f.name for f in dataclasses.fields(sleep.EpochIndices)}
    source = (ROOT / "src" / "chaoskit" / "io.py").read_text(encoding="utf-8")
    module = ast.parse(source)
    nodes = [
        node
        for top in module.body
        if not (isinstance(top, ast.FunctionDef) and top.name in ("read_manifest", "write_run_manifest"))
        for node in ast.walk(top)
    ]
    named = sorted(
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and node.value in fields - {"group", "stage", "failures"}
    )
    assert named == []
    assert "epoch record field" not in source
    assert not re.search(r"\bmath\.isfinite\(", source)
