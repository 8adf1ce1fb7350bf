"""The top-level package: lazy exports, per-command imports, the entry
module's BLAS thread pin and collector handling, the README tour.

``import diskbundle`` loads no submodule, each exported name loads its
module on first use, and each command imports only the layers it runs,
and no argparse. The entry module pins OpenBLAS to one thread unless the
caller chose a thread count, runs with the garbage collector off, freezes
it once the run is done and leaves it on or off as it found it, and keeps
the run's exit code when the reader of stdout has gone. Library imports
and ``cli.main`` leave the environment and the collector alone.
Every check runs in a fresh interpreter, because this test session has
long since imported every module and has its own collector state.
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
from diskbundle.bundle import AnalyticFrame
from diskbundle.rational import RationalFunction
from diskbundle.toeplitz import MatrixSymbol

ROOT = Path(__file__).resolve().parents[1]

#: the ``diskbundle.*`` modules a command loads, besides ``cli`` and ``errors``
COMMAND_MODULES = {
    "curvature": {"bundle", "calculus", "rational"},
    "criteria": {"criteria", "bundle", "calculus", "rational"},
    "toeplitz": {"toeplitz", "rational", "calculus"},
    "counterexample": {"weights", "kernels"},
}

#: modules of the standard library that no command loads: ``argparse`` and the two it imports,
#: and ``dataclasses``, whose classes generate and compile their methods at import
UNUSED_STDLIB = ("argparse", "gettext", "locale", "dataclasses")

#: runs ``cli.main`` on its arguments, then prints the exit code, the loaded
#: submodules, the collector's freeze count and state, and which of ``UNUSED_STDLIB`` are loaded
_PROBE = f"""
import gc, json, sys
from diskbundle.cli import main
code = main(sys.argv[1:])
loaded = sorted(m.partition(".")[2] for m in sys.modules if m.startswith("diskbundle."))
stdlib = [m for m in {UNUSED_STDLIB!r} if m in sys.modules]
print(json.dumps([code, loaded, gc.get_freeze_count(), gc.isenabled(), stdlib]))
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
    AnalyticFrame.from_polynomials([[1.0], [0.0, 1.0]]).save(tmp_path / "frame.json")
    MatrixSymbol.scalar(RationalFunction([-0.5, 1.0], [1.0, -0.5]), analytic=True).save(tmp_path / "s.json")
    MatrixSymbol.scalar(RationalFunction([1.0], [1.0, -0.3]), analytic=True).save(tmp_path / "s2.json")
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
    code, loaded, frozen, enabled, stdlib = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stdout
    assert set(loaded) == {"cli", "errors"} | COMMAND_MODULES[command]
    assert (frozen, enabled) == (0, True)  # only the entry module freezes the collector
    assert stdlib == []


def test_import_loads_no_submodule_and_no_numpy():
    result = python("-c", "import sys, diskbundle; print(sorted(m for m in sys.modules if 'diskbundle' in m or m == 'numpy'))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['diskbundle']"


def test_cli_import_loads_no_numpy():
    # so the entry module's thread pin comes before numpy in ``python -m diskbundle.cli``
    result = python("-c", "import sys, diskbundle.cli; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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
import gc, importlib, os
before = dict(os.environ)
for name in {modules!r}:
    importlib.import_module(name)
print(dict(os.environ) == before, gc.get_freeze_count(), gc.isenabled())
"""
    result = python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "0", "True"]


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="an idle BLAS worker thread can only show on a Linux host with two or more CPUs",
)
@pytest.mark.parametrize("module", ["diskbundle", "diskbundle.cli"])
def test_command_uses_no_more_cpu_than_wall_time(tmp_path, module):
    """With one BLAS thread a run is single-threaded, so its CPU time stays
    within its wall time; an idle OpenBLAS worker would spin beyond it."""
    config = command_configs(tmp_path)["counterexample"]
    argv = [sys.executable, "-m", module, "counterexample", "--config", str(config), "--out", str(tmp_path / "out")]
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=child_env())
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    assert usage.ru_utime + usage.ru_stime <= wall


def exit_configs(tmp_path: Path) -> dict:
    """``[command, config]`` by the exit code its run gives: 0 on a small
    ``counterexample``, 2 on a ``length`` of 0, and 3 on ``curvature`` of
    the 1×1 frame (λ), whose Gram matrix is singular at the sample λ = 0."""
    ok = command_configs(tmp_path)["counterexample"]
    bad = tmp_path / "bad_length.json"
    bad.write_text(json.dumps({"epsilon": 0.1, "spike_count": 2, "length": 0}))
    AnalyticFrame.from_polynomials([[0.0, 1.0]]).save(tmp_path / "lambda.json")
    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({"frame": "lambda.json", "grid": {"radial_count": 2, "angular_count": 8}}))
    return {0: ["counterexample", ok], 2: ["counterexample", bad], 3: ["curvature", singular]}


#: runs ``cli.main`` and then the entry module's ``main`` on the same
#: arguments, and prints each one's exit code, stdout and the freeze count after it
_ENTRY_PROBE = """
import contextlib, gc, io, json, sys
import diskbundle.__main__ as entry
from diskbundle import cli
runs = []
for run in (cli.main, entry.main):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = run(sys.argv[1:])
    runs.append([code, text.getvalue(), gc.get_freeze_count()])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("expected", [0, 2, 3])
def test_entry_main_runs_cli_main_then_freezes_the_collector(tmp_path, expected):
    command, config = exit_configs(tmp_path)[expected]
    result = python("-c", _ENTRY_PROBE, command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    (code, text, frozen), (entry_code, entry_text, entry_frozen) = json.loads(result.stdout)
    assert code == entry_code == expected
    assert entry_text == text
    assert json.loads(text)["status"] == ("ok" if expected == 0 else "error")
    assert frozen == 0 < entry_frozen


#: with the collector on or off as its first argument says, runs the entry
#: module's ``main`` on the rest and prints the exit code, the collector
#: passes from the import of the entry module on, and the collector's state
#: and freeze count afterwards
_COLLECTOR_PROBE = """
import gc, json, sys
passes = []
gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(info["generation"]))
if sys.argv.pop(1) == "off":
    gc.disable()
import diskbundle.__main__ as entry
code = entry.main(sys.argv[1:])
print(json.dumps([code, len(passes), gc.isenabled(), gc.get_freeze_count()]))
"""


@pytest.mark.parametrize("collector", ["on", "off"])
@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_entry_main_runs_without_a_collector_pass_and_restores_its_state(tmp_path, command, collector):
    config = command_configs(tmp_path)[command]
    result = python("-c", _COLLECTOR_PROBE, collector, command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    code, passes, enabled, frozen = json.loads(result.stdout.splitlines()[-1])
    assert (code, passes) == (0, 0)
    assert enabled == (collector == "on")
    assert frozen > 0


#: imports ``cli``, then runs ``cli.main`` with the collector on and prints
#: the exit code and the number of objects the collector's passes freed
_FREED_PROBE = """
import gc, json, sys
from diskbundle import cli
freed = []
gc.callbacks.append(lambda phase, info: phase == "stop" and freed.append(info["collected"]))
code = cli.main(sys.argv[1:])
print(json.dumps([code, sum(freed)]))
"""


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_a_run_leaves_little_for_the_collector(tmp_path, command):
    """The entry module runs a command with the collector off; that leaks
    nothing that matters only because a run makes few reference cycles."""
    config = command_configs(tmp_path)[command]
    result = python("-c", _FREED_PROBE, command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    code, freed = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert freed < 1000


@pytest.mark.parametrize("stdout", ["closed pipe", "closed pipe, unbuffered", "closed fd"])
@pytest.mark.parametrize("expected", [0, 2])
def test_gone_stdout_keeps_the_exit_code_and_leaves_stderr_empty(tmp_path, expected, stdout):
    """A reader that has gone before the status line is printed, as in
    ``diskbundle ... | head -c0``, or no stdout at all, as in
    ``diskbundle ... >&-``: the run's files and exit code stand."""
    command, config = exit_configs(tmp_path)[expected]
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "diskbundle", command, "--config", str(config), "--out", str(out)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            argv,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(PYTHONUNBUFFERED="1" if stdout.endswith("unbuffered") else ""),
            preexec_fn=(lambda: os.close(1)) if stdout == "closed fd" else None,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (expected, "")
    assert (out / "report.json").is_file() == (expected == 0)


def test_cli_module_run_as_a_script_keeps_the_exit_code_on_a_gone_reader(tmp_path):
    """``python -m diskbundle.cli ... | head -c0`` goes through the entry
    module's ``main``: exit 0, nothing on stderr, the report written."""
    config = command_configs(tmp_path)["counterexample"]
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "diskbundle.cli", "counterexample", "--config", str(config), "--out", str(out)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            argv, stdout=write_end, stderr=subprocess.PIPE, text=True, env=child_env(PYTHONUNBUFFERED="")
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, "")
    assert (out / "report.json").is_file()


def test_cli_module_run_as_a_script_loads_once(tmp_path):
    """``python -m diskbundle.cli`` runs ``cli``'s body once, as ``__main__``:
    the entry module's ``main`` finds it as ``diskbundle.cli``, so
    ``-X importtime`` shows no second import of it."""
    config = command_configs(tmp_path)["counterexample"]
    argv = ["-X", "importtime", "-m", "diskbundle.cli", "counterexample", "--config", str(config)]
    result = python(*argv, "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    imported = [line.rpartition("|")[2].strip() for line in result.stderr.splitlines()]
    assert "diskbundle.__main__" in imported and "diskbundle.weights" in imported
    assert "diskbundle.cli" not in imported
