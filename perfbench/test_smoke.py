"""The benchmark's own tests: every workload once at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced with ``--smoke`` (2x8 grids, weight
length 256). The result must name every metric of ``BENCHMARK.json`` with
its unit and report no failed invocation. The checks must also reject a
report with one value nudged, and the benchmark must refuse to run where
the package sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4, proc.stdout
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float)) and np.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0


@pytest.mark.parametrize(
    "command, key, factor",
    [
        ("curvature", ("defect", "max"), 1 + 1e-9),
        ("criteria", ("pointwise_const",), 1 + 1e-9),
        ("toeplitz", ("margin",), 1 + 1e-9),
        ("counterexample", ("growth_max",), 1 + 1e-9),
    ],
)
def test_checks_reject_a_nudged_report(tmp_path, command, key, factor):
    import diskbundle

    configs = inputs.write_inputs("sweeps", 5, tmp_path, smoke=True)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-m", "diskbundle", command, "--config", str(configs[command]), "--out", str(out)],
        env=env,
        check=True,
        capture_output=True,
    )
    assert checks.check(command, configs[command], out, 5, diskbundle) == []
    report = json.loads((out / "report.json").read_text())
    holder = report
    for part in key[:-1]:
        holder = holder[part]
    holder[key[-1]] *= factor
    (out / "report.json").write_text(json.dumps(report))
    assert checks.check(command, configs[command], out, 5, diskbundle) != []


def test_refuses_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_uses_the_nearest_references():
    import run

    slow = {"kind": "reference", "wall_s": 2 * run.REFERENCE_S}
    far = {"kind": "reference", "wall_s": 100.0}
    events = [slow] * 4 + [{"kind": "curvature", "wall_s": 1.0}] + [slow] * 2 + [far] * 3
    assert run.host_speed(events) == [0.5]
