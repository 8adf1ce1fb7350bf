"""Seeded inputs for the benchmark workloads.

Every workload runs all four CLI commands, so every end-to-end metric is
measured on every workload. Each command is sized ``small`` (the default
8x64 grid), ``large`` (the size that makes it the workload's focus) or
``smoke`` (tiny, for the benchmark's own test). A large command takes a
few seconds, so it repeats several times within one run and its median
is steady. The program only ever sees the JSON files written here.

Frames and symbols are a constant block with orthonormal columns plus
seeded terms ``c*lam + b/(lam - p)`` with ``|b|, |c| <= 0.04`` and poles
``1.5 <= |p| <= 3``. Each perturbed entry is then at most 0.12 in modulus
on the closed disk, so for at most 24 entries the perturbation has norm
below 0.6 and the frame keeps full rank (smallest singular value above
0.4) by construction.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

COMMANDS = ("curvature", "criteria", "toeplitz", "counterexample")

#: per-command sizes; ``frame`` names the frame shape (rows, cols)
SIZES = {
    "small": {
        "curvature": {"frame": (3, 2), "grid": (8, 64, 1e-3)},
        "criteria": {"frame": (3, 2), "grid": (8, 64, 1e-3)},
        "toeplitz": {"grid": (8, 64, 1e-3)},
        "counterexample": {"length": 4096},
    },
    "large": {
        "curvature": {"frame": (12, 2), "grid": (16, 64, 1e-3)},
        "criteria": {"frame": (3, 2), "grid": (20, 64, 1e-3), "probe_stride": 1},
        "toeplitz": {"grid": (24, 256, 1e-6)},
        "counterexample": {"length": 10**5},
    },
    "smoke": {
        "curvature": {"frame": (3, 2), "grid": (2, 8, 1e-3)},
        "criteria": {"frame": (3, 2), "grid": (2, 8, 1e-3)},
        "toeplitz": {"grid": (2, 8, 1e-3)},
        "counterexample": {"length": 256},
    },
}

#: which commands run at the large size; the rest run at the small size
WORKLOADS = {
    "criteria-20x64": {"criteria"},
    "sweeps": {"curvature", "toeplitz", "counterexample"},
}

EPSILON = 0.1
SPIKE_COUNT = 3
PROBE_STRIDE = 4
MAX_DEPTH = 8


def command_sizes(workload: str, smoke: bool = False) -> dict:
    """Size table ``{command: size spec}`` of one workload."""
    if smoke:
        return dict(SIZES["smoke"])
    large = WORKLOADS[workload]
    return {cmd: SIZES["large" if cmd in large else "small"][cmd] for cmd in COMMANDS}


def _pair(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _unit(rng, shape=()):
    return np.exp(2j * np.pi * rng.random(shape))


def _entry(a: complex, rng) -> dict:
    """``a + c*lam + b/(lam - p)`` as one rational function."""
    p = rng.uniform(1.5, 3.0) * _unit(rng)
    b = 0.04 * rng.uniform(0.5, 1.0) * _unit(rng)
    c = 0.04 * rng.uniform(0.5, 1.0) * _unit(rng)
    num = [b - a * p, a - c * p, c]
    den = [-p, 1.0]
    return {"num": [_pair(v) for v in num], "den": [_pair(v) for v in den]}


def rational_matrix(rows: int, cols: int, rng) -> dict:
    """Full-rank rational matrix with poles in ``1.5 <= |p| <= 3``."""
    gauss = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(gauss)
    entries = [[_entry(complex(q[i, j]), rng) for j in range(cols)] for i in range(rows)]
    return {"rows": rows, "cols": cols, "entries": entries}


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return path


def _grid(spec) -> dict:
    k, m, margin = spec
    return {"radial_count": k, "angular_count": m, "margin": margin}


def write_inputs(workload: str, seed: int, directory: Path, smoke: bool = False) -> dict:
    """Write the configs of one workload; returns ``{command: config path}``.

    The same seed always writes the same files.
    """
    directory.mkdir(parents=True, exist_ok=True)
    sizes = command_sizes(workload, smoke)
    streams = {cmd: np.random.default_rng([seed, i]) for i, cmd in enumerate(COMMANDS)}
    configs = {}
    for cmd in COMMANDS:
        rng = streams[cmd]
        spec = sizes[cmd]
        cfg = {}
        if cmd in ("curvature", "criteria"):
            rows, cols = spec["frame"]
            cfg["frame"] = _write(directory / f"{cmd}_frame.json", rational_matrix(rows, cols, rng)).name
            cfg["grid"] = _grid(spec["grid"])
            if cmd == "criteria":
                cfg["probe_stride"] = spec.get("probe_stride", PROBE_STRIDE)
                cfg["max_depth"] = MAX_DEPTH
        elif cmd == "toeplitz":
            for key in ("symbol", "second_symbol"):
                sym = rational_matrix(2, 2, rng)
                sym["analytic"] = True
                cfg[key] = _write(directory / f"toeplitz_{key}.json", sym).name
            cfg["grid"] = _grid(spec["grid"])
            cfg["lambda"] = _pair(rng.uniform(0.2, 0.6) * _unit(rng))
            vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            cfg["vector"] = [_pair(v) for v in vec / np.linalg.norm(vec)]
        else:
            cfg["epsilon"] = EPSILON
            cfg["spike_count"] = SPIKE_COUNT
            cfg["length"] = spec["length"]
            cfg["radii"] = [0.0] + sorted(float(r) for r in rng.uniform(0.5, 0.999, 4))
        configs[cmd] = _write(directory / f"{cmd}_config.json", cfg)
    return configs
