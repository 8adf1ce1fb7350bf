"""The top-level package: lazy exports, per-command imports, the README tour.

``import diskbundle`` loads no submodule, each exported name loads its
module on first use, and each command imports only the layers it runs.
Every check runs in a fresh interpreter, because this test session has
long since imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
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


def python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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
