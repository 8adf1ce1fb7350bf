"""The benchmark reaches into the package by name; every name must resolve.

``perfbench/tracing.py`` wraps its ``FUNCTIONS`` and ``METHODS`` with
``getattr`` while a traced command runs, and ``perfbench/checks.py`` calls
``package.<name>`` on the top-level package. A rename or a deletion in
``src/`` would otherwise surface only when the benchmark itself runs.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import diskbundle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve():
    tracing = _load_tracing()
    for _, home, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"diskbundle.{home}"), attr))
    for _, home, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"diskbundle.{home}"), cls_name)
        assert attr in cls.__dict__


def test_checks_package_attributes_resolve():
    names = set(re.findall(r"\bpackage\.(\w+)", (PERFBENCH / "checks.py").read_text()))
    assert names >= {
        "load_frame",
        "curvature_defect",
        "build_grid",
        "DefectField",
        "green_potential",
        "weights_from_csv",
        "ToolkitError",
    }
    for name in names:
        assert hasattr(diskbundle, name), name
