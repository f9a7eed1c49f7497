"""The repository's scripts against the package: the names the benchmark
tracer rebinds still exist and are called, and every demo runs to the
end."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chaoskit import sleep
from chaoskit.generators import GeneratorSpec, generate

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
