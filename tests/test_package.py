"""The top-level package: lazy exports, per-command imports, the BLAS
thread pin of the entry module, the README tour.

``import diskbundle`` loads no submodule, each exported name loads its
module on first use, and each command imports only the layers it runs.
The entry module pins OpenBLAS to one thread unless the caller chose a
thread count; library imports leave the environment alone. Every check
runs in a fresh interpreter, because this test session has long since
imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import diskbundle
from diskbundle.bundle import AnalyticFrame, save_frame
from diskbundle.rational import RationalFunction
from diskbundle.toeplitz import MatrixSymbol, save_symbol

ROOT = Path(__file__).resolve().parents[1]

#: the ``diskbundle.*`` modules a command loads, besides ``cli`` and ``errors``
COMMAND_MODULES = {
    "curvature": {"bundle", "calculus", "rational"},
    "criteria": {"criteria", "bundle", "calculus", "rational"},
    "toeplitz": {"toeplitz", "rational", "calculus"},
    "counterexample": {"weights", "kernels"},
}

#: runs ``cli.main`` on its arguments, then prints the exit code and the loaded submodules
_PROBE = """
import json, sys
from diskbundle.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m.partition(".")[2] for m in sys.modules if m.startswith("diskbundle."))]))
"""


#: OpenBLAS's thread-count variables, in its order of precedence
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**extra) -> dict:
    """This environment without the thread variables, plus ``extra``, with the sources on the path."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    return {**env, **extra, "PYTHONPATH": str(ROOT / "src")}


def python(*args, **extra):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child_env(**extra))


def command_configs(tmp_path: Path) -> dict:
    """Small inputs that take each command through all of its stages."""
    save_frame(AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]]), tmp_path / "frame.json")
    save_symbol(MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True), tmp_path / "s.json")
    save_symbol(MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -0.3]), analytic=True), tmp_path / "s2.json")
    grid = {"radial_count": 2, "angular_count": 8}
    payloads = {
        "curvature": {"frame": "frame.json", "grid": grid},
        "criteria": {"frame": "frame.json", "grid": grid},
        "toeplitz": {"symbol": "s.json", "second_symbol": "s2.json", "grid": grid},
        "counterexample": {"epsilon": 0.1, "spike_count": 2, "length": 128},
    }
    configs = {}
    for command, payload in payloads.items():
        configs[command] = tmp_path / f"{command}.json"
        configs[command].write_text(json.dumps(payload))
    return configs


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_layers(tmp_path, command):
    config = command_configs(tmp_path)[command]
    result = python("-c", _PROBE, command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stdout + result.stderr
    code, loaded = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stdout
    assert set(loaded) == {"cli", "errors"} | COMMAND_MODULES[command]


def test_import_loads_no_submodule_and_no_numpy():
    result = python("-c", "import sys, diskbundle; print(sorted(m for m in sys.modules if 'diskbundle' in m or m == 'numpy'))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['diskbundle']"


def test_every_export_resolves_in_its_module_and_nothing_else_does():
    listed = dir(diskbundle)
    for module, names in diskbundle._EXPORTS.items():
        home = importlib.import_module(f"diskbundle.{module}")
        for name in names:
            assert name in listed, name
            assert getattr(diskbundle, name) is getattr(home, name), name
            assert getattr(home, name).__module__ == home.__name__, name
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        diskbundle.no_such_name


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("## Library tour")) + len("```python\n")
    code = readme[start : readme.index("```", start)]
    assert "import diskbundle as db" in code
    result = python("-W", "error", "-c", code)
    assert result.returncode == 0, result.stderr


#: prints the thread variables after importing the entry module, which does not run ``main`` on import
_THREAD_PROBE = f"""
import json, os
import diskbundle.__main__
print(json.dumps([os.environ.get(name) for name in {THREAD_VARS!r}]))
"""


@pytest.mark.parametrize(
    "given, expected",
    [
        ({}, ["1", None, None]),
        ({"OMP_NUM_THREADS": "2"}, [None, None, "2"]),
        ({"OPENBLAS_NUM_THREADS": "3"}, ["3", None, None]),
        ({"GOTO_NUM_THREADS": "2"}, [None, "2", None]),
    ],
)
def test_entry_module_pins_blas_unless_the_caller_chose(given, expected):
    result = python("-c", _THREAD_PROBE, **given)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == expected


def test_library_imports_leave_the_environment_alone():
    modules = ["diskbundle", "diskbundle.cli", *(f"diskbundle.{m}" for m in diskbundle._EXPORTS)]
    code = f"""
import importlib, os
before = dict(os.environ)
for name in {modules!r}:
    importlib.import_module(name)
print(dict(os.environ) == before)
"""
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="an idle BLAS worker thread can only show on a Linux host with two or more CPUs",
)
def test_command_uses_no_more_cpu_than_wall_time(tmp_path):
    """With one BLAS thread a run is single-threaded, so its CPU time stays
    within its wall time; an idle OpenBLAS worker would spin beyond it."""
    config = command_configs(tmp_path)["counterexample"]
    argv = [sys.executable, "-m", "diskbundle", "counterexample", "--config", str(config), "--out", str(tmp_path / "out")]
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=child_env())
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    assert usage.ru_utime + usage.ru_stime <= wall
