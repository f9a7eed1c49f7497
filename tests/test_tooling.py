"""The repository's scripts against the package: the names the benchmark
tracer rebinds still exist and are called, every exported name exists,
is defined by the module that exports it and is used by the package, a
demo or the benchmark, the benchmark's checks state the Wolf walk's
separation fractions that the package names, every demo runs to the end,
and the package keeps a single integer-argument check, a single
real-argument check, a single array check, a single epoch record rule, a
single histogram count and a single delay-vector layout, each estimator
default is written once, the tracer's counts read the arguments the
pipeline passes, the correlation sum draws no random numbers, and no
module calls a BLAS-backed routine."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chaoskit
from chaoskit import cli, lyapunov, sleep
from chaoskit.cli import build_parser
from chaoskit.generators import GeneratorSpec, generate
from chaoskit.sleep import EstimatorConfig

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


def _modules() -> list:
    """The package and each of its modules."""
    return [chaoskit, *(importlib.import_module(f"chaoskit.{m.name}") for m in pkgutil.iter_modules(chaoskit.__path__))]


def test_exported_names_exist():
    # A removed function must not linger in an __all__ as a stale string.
    modules = _modules()
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 10 and missing == []


def test_each_module_exports_only_what_it_defines():
    # A module's __all__ is its public surface, and the package exports
    # their union: a name that a module imports is exported by the
    # module that defines it, or not at all.
    strays = []
    for module in _modules():
        if module is chaoskit:
            continue
        defined = set()
        for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
        strays += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ()) if name not in defined]
    assert strays == []
    assert len(set(chaoskit.__all__)) == len(chaoskit.__all__)


def _uses(path: Path) -> list[tuple[str, frozenset[str]]]:
    """Each name a file reads, imports or reads as an attribute, with the
    names of the functions and classes whose definitions enclose it."""
    uses = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            uses.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            uses.append((node.name, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return uses


def test_every_exported_name_has_a_user():
    # Each module exports only what the pipeline, a demo or the benchmark
    # uses: a name that only the tests call belongs in tests/oracles.py.
    # A use inside src/chaoskit counts when no unused export's definition
    # encloses it (its own included), so dead code cannot keep dead code.
    uses = [
        use
        for path in sorted((ROOT / "src" / "chaoskit").glob("*.py"))
        if path.name != "__init__.py"
        for use in _uses(path)
    ]
    uses += [
        (name, frozenset())
        for folder in ("demos", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
        for name, _inside in _uses(path)
    ]
    unused = {name for module in _modules() for name in getattr(module, "__all__", ())}
    while True:
        reached = {name for name, inside in uses if name in unused and not inside & unused}
        if not reached:
            break
        unused -= reached
    assert sorted(unused) == []


def test_checks_state_the_wolf_separation_fractions():
    # perfbench/checks.py predicts the Wolf start from point 0 with the
    # walk's default bounds, written there as literal multiples of the
    # extent; they must be the fractions lyapunov names.
    module = ast.parse((ROOT / "perfbench" / "checks.py").read_text(encoding="utf-8"))
    (fn,) = [n for n in module.body if isinstance(n, ast.FunctionDef) and n.name == "_point0_admissible"]
    bounds = {
        type(op).__name__: node.left.value
        for compare in ast.walk(fn)
        if isinstance(compare, ast.Compare)
        for op, node in zip(compare.ops, compare.comparators)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.left, ast.Constant)
        and ast.unparse(node.right) == "extent"
    }
    assert bounds == {"GtE": lyapunov.MIN_SEPARATION_FRACTION, "LtE": lyapunov.MAX_SEPARATION_FRACTION}


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
    # through marginal_distribution, the delay scan's joint counts
    # through one kernel, and mutual information is H(X) + H(Y) - H(X, Y)
    # written once. One
    # type holds a histogram: no dataclass but information.py's
    # DiscreteDistribution has a bin_edges field.
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "chaoskit").glob("*.py"))}
    assert [name for name, source in sources.items() if "np.bincount(" in source] == ["information.py"]
    assert sum(source.count("_entropy_bits(p.sum(axis=1))") for source in sources.values()) == 1
    with_edges = [
        f"{name}:{node.name}"
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        and any(
            isinstance(stmt, ast.AnnAssign) and ast.unparse(stmt.target) == "bin_edges" for stmt in node.body
        )
    ]
    assert with_edges == ["information.py:DiscreteDistribution"]


def test_one_delay_layout_rule():
    # Point k of an (m, t) delay embedding is (x[k], x[k + t], ...): only
    # series.py builds those indices, for DelayVectors and the Cao scan
    # alike, and no module rebuilds a series from point columns, since
    # delay vectors carry the series they embed. C(R) lays a plain
    # array's columns end to end (pts.T.ravel()), which reads each
    # column once and rebuilds no embedded series.
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "chaoskit").glob("*.py"))}
    layout = r"np\.arange\(.*\)\[:, None\] \+ np\.arange\(.*\)\[None, :\] \*"
    assert [name for name, source in sources.items() if re.search(layout, source)] == ["series.py"]
    rebuilt = r"\w\[[^\]]*:[^\]]*\] = \w+\[:, [^\]]+\]"
    assert [name for name, source in sources.items() if re.search(rebuilt, source)] == []


def test_correlation_draws_no_random_numbers():
    # The radius grid comes from every admissible pair, so C(R) and D2
    # depend on the points alone, with no seed behind them.
    source = (ROOT / "src" / "chaoskit" / "correlation.py").read_text(encoding="utf-8")
    assert "default_rng" not in source and "np.random" not in source


# Routines numpy and scipy hand to BLAS (np.correlate and np.convolve
# through the dtype's dot), and the packages whose routines all go there.
_BLAS_NAMES = {
    "dot", "cov", "matmul", "inner", "vdot", "einsum", "tensordot", "correlate", "convolve", "polyfit", "linregress",
    "linalg",
}


def _blas_calls(package: Path) -> list[str]:
    """``module.function: routine`` for each BLAS-backed routine that a
    module of ``package`` names as an attribute or imports, and each
    ``@`` it applies."""

    def visit(node, where, found):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        named = None
        if isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            named = ast.unparse(node)
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in _BLAS_NAMES:
            named = node.name
        elif isinstance(node, ast.ImportFrom) and set((node.module or "").split(".")) & _BLAS_NAMES:
            named = node.module
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            named = "@"
        if named is not None:
            found.append(f"{where}: {named}")
        for child in ast.iter_child_nodes(node):
            visit(child, where, found)
        return found

    return [
        call
        for path in sorted(package.glob("*.py"))
        for call in visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    ]


def test_no_blas_routine():
    # Each BLAS kernel, picked per CPU when the library loads, rounds its
    # sums its own way, so no output may pass through one.
    assert _blas_calls(ROOT / "src" / "chaoskit") == []


def _is_literal(node) -> bool:
    return isinstance(node, ast.Constant) or (
        isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant)
    )


def _default_declarations(names, flag):
    """Every literal that src/chaoskit gives as the default of a parameter
    or class field spelled as one of ``names``, or of an ``add_argument``
    for ``flag``: a literal in place, or a module constant holding one.
    Anything else (a signature read, a subscript) reads a default and
    declares none. Keyed by (file, line, column), so a constant that
    several signatures share counts once."""
    found = {}
    for path in sorted((ROOT / "src" / "chaoskit").glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        constants = {
            target.id: top.value
            for top in module.body
            if isinstance(top, ast.Assign) and _is_literal(top.value)
            for target in top.targets
            if isinstance(target, ast.Name)
        }
        defaults = []
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults)]
                pairs += zip(args.kwonlyargs, args.kw_defaults)
                defaults += [d for a, d in pairs if a.arg in names and d is not None]
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        targets = [stmt.target]
                    elif isinstance(stmt, ast.Assign):
                        targets = stmt.targets
                    else:
                        continue
                    value = stmt.value
                    if value is None or not any(isinstance(t, ast.Name) and t.id in names for t in targets):
                        continue
                    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                        defaults += [k.value for k in value.keywords if k.arg == "default"]
                    else:
                        defaults.append(value)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "add_argument"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == flag
            ):
                defaults += [k.value for k in node.keywords if k.arg == "default"]
        for node in defaults:
            node = constants.get(node.id, node) if isinstance(node, ast.Name) else node
            if _is_literal(node):
                found[(path.name, node.lineno, node.col_offset)] = ast.literal_eval(node)
    return found


def _knobs():
    """Each EstimatorConfig field and --hist-bins: the names a default of
    it may be declared under, its flag, and the default the CLI gives it."""
    parser = build_parser()
    given = [
        parser.parse_args(argv)
        for argv in (["analyze", "--manifest", "m.json", "--out", "o"], ["report", "--epochs", "e", "--out", "o"])
    ]
    knobs = {
        f.name: ({f.name}, flag, getattr(given[0], flag[2:].replace("-", "_")))
        for f, flag in cli._config_flags()
    }
    assert given[0].hist_bins == given[1].hist_bins
    knobs["hist_bins"] = ({"hist_bins", "n_bins"}, "--hist-bins", given[0].hist_bins)
    return knobs


def test_each_default_is_written_once():
    # Every estimator default has one home in src/chaoskit (the estimator
    # it feeds, or EstimatorConfig for the scan caps no estimator
    # defaults); everything else reads it, so no copy can drift. The one
    # declaration must also be the value the CLI and the config give.
    config = EstimatorConfig()
    for name, (names, flag, given) in _knobs().items():
        declared = _default_declarations(names, flag)
        assert len(declared) == 1, (name, sorted(declared))
        (value,) = declared.values()
        assert type(given) is type(value) and given == value, (name, given, value)
        if name != "hist_bins":
            assert type(getattr(config, name)) is type(value) and getattr(config, name) == value, name


def test_help_shows_the_wolf_separation_fractions(capsys):
    # The walk's default separation bounds are fractions of the extent,
    # named once in lyapunov; --help states them from there. A count of
    # literals cannot see a copy of these: 0.1 is also e2_tol's default.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["analyze", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    shown = re.findall(r"(--(?:min|max)-separation) [A-Z_]+ [^()]*\(default (\S+) x extent\)", text)
    assert {flag: float(value) for flag, value in shown} == {
        "--min-separation": lyapunov.MIN_SEPARATION_FRACTION,
        "--max-separation": lyapunov.MAX_SEPARATION_FRACTION,
    }
    assert len(shown) == 2


def test_config_defaults_have_their_annotated_types():
    # The CLI picks int or float from the default's type, and the
    # fingerprint hashes the defaults as JSON: a default read from an
    # estimator must not turn 8 into 8.0 or a numpy scalar.
    kinds = {"int": int, "float": float, "float | None": type(None)}
    for f in dataclasses.fields(EstimatorConfig):
        assert type(f.default) is kinds[f.type], f.name
    assert {k: type(v) for k, v in EstimatorConfig().as_dict().items()} == {
        f.name: kinds[f.type] for f in dataclasses.fields(EstimatorConfig)
    }


def test_traced_counts_read_the_plan_arguments(monkeypatch):
    # The tracer counts Cao points and C(R) pairs from the arguments a
    # window plan passes, reading m_max and theiler_w as args[2]; its own
    # fallbacks (m_max 8, theiler_w 0) would count a different window.
    tracing = _load_tracing()
    calls = {}
    for name in ("minimum_embedding_dimension", "correlation_curve"):
        def recorded(*args, _name=name, _call=getattr(sleep, name), **kwargs):
            calls[_name] = (args, kwargs, _call(*args, **kwargs))
            return calls[_name][2]

        monkeypatch.setattr(sleep, name, recorded)
    window = generate(GeneratorSpec("lorenz", 300, seed=1, transient_skip=1000, parameters={"fs": 10.0}))
    plan = sleep.WindowPlan(window, EstimatorConfig(m_max=6))
    plan.d2()
    n, t, w = len(window), plan.lag.lag, plan.theiler.lag
    assert w > 0 and (n - 2) // t >= 8

    args, kwargs, result = calls["minimum_embedding_dimension"]
    assert len(args) > 2 and args[2] == 6
    points = tracing._cao_points(args, kwargs, result)["points"]
    assert points == sum(n - m * t for m in range(1, 7))
    assert points != tracing._cao_points(args[:2], {}, result)["points"]

    args, kwargs, result = calls["correlation_curve"]
    assert len(args) > 2 and args[2] == w
    gaps = len(plan.vectors) - 1 - w
    pairs = tracing._curve_pairs(args, kwargs, result)["pairs"]
    assert pairs == gaps * (gaps + 1) // 2
    assert pairs != tracing._curve_pairs(args[:2], {}, result)["pairs"]


def test_one_record_rule():
    # The epoch record's rules live in sleep.EpochIndices, one per kind of
    # annotation, so io.py restates no field's rule and lists no field by
    # name: it only turns the group and stage spellings into enums and
    # sorts the failures it writes. Outside the three manifest functions,
    # whose keys merely share names with fields, any other field name is
    # a restated rule.
    fields = {f.name for f in dataclasses.fields(sleep.EpochIndices)}
    source = (ROOT / "src" / "chaoskit" / "io.py").read_text(encoding="utf-8")
    module = ast.parse(source)
    nodes = [
        node
        for top in module.body
        if not (isinstance(top, ast.FunctionDef) and top.name in ("read_manifest", "read_run_manifest", "write_run_manifest"))
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
