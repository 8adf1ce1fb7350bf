"""Reference checks of the CLI outputs.

Each check reads the inputs the benchmark generated and the files one
command wrote, and returns a list of problems (empty when the output is
correct). The references are closed forms and independent numpy oracles:
frame and symbol values are evaluated here from the input JSON, and the
curvature defect is recomputed on the whole grid as
``|(I - P) F' (F*F)^-1 F*|_HS^2``. Only the Green potential, whose
quadrature is the program's definition of the quantity, is recomputed
through the package's scalar ``green_potential`` on the oracle field.
Nothing is compared with bytes from an earlier version, so a change that
improves accuracy still passes.

Tolerances are the ones the tier-1 tests pin, or tighter.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

#: relative agreement of recomputed quantities (defect, potentials, constants)
REL = 1e-12
#: absolute floor for defect values next to zero
DEFECT_FLOOR = 1e-14
#: bounds pinned by the tier-1 tests
DISCREPANCY_BOUND = 1e-6
MULTIPLICATIVITY_BOUND = 1e-12
INTERTWINING_BOUND = 1e-12
KERNEL_ACTION_BOUND = 1e-10
KERNEL_RATIO_SLACK = 1e-9
#: uniform density 1 has potential -1 at the origin over the full disk
ANCHOR_TOL = 0.02
#: probes whose Green potential is recomputed, and scalar-oracle defect samples
POTENTIAL_SAMPLES = 24
DEFECT_SAMPLES = 64
MARGIN_SAMPLES = 256


def _close(a: float, b: float, rel: float = REL, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _poly(coeffs, z):
    """Ascending coefficients evaluated at ``z`` (array)."""
    return np.polyval(np.asarray(coeffs[::-1], dtype=complex), z)


def eval_matrix(doc: dict, z: np.ndarray):
    """Values and exact derivatives ``(n, rows, cols)`` of a frame or symbol file."""
    rows, cols = doc["rows"], doc["cols"]
    val = np.empty((len(z), rows, cols), dtype=complex)
    der = np.empty_like(val)
    for i, row in enumerate(doc["entries"]):
        for j, entry in enumerate(row):
            num = [_complex(p) for p in entry["num"]]
            den = [_complex(p) for p in entry["den"]]
            n, d = _poly(num, z), _poly(den, z)
            dn = _poly([k * c for k, c in enumerate(num)][1:] or [0j], z)
            dd = _poly([k * c for k, c in enumerate(den)][1:] or [0j], z)
            val[:, i, j] = n / d
            der[:, i, j] = (dn * d - n * dd) / (d * d)
    return val, der


def oracle_defect(doc: dict, z: np.ndarray):
    """Curvature defect and Gram eigenvalues of a frame at every point of ``z``."""
    f, fp = eval_matrix(doc, z)
    fh = np.conj(np.swapaxes(f, 1, 2))
    g = fh @ f
    solved = np.linalg.solve(g, fh)  # (F*F)^-1 F*
    p = f @ solved
    eye = np.eye(f.shape[1], dtype=complex)
    dp = (eye - p) @ fp @ solved
    defect = np.sum(np.abs(dp) ** 2, axis=(1, 2))
    return defect, np.linalg.eigvalsh(g)


def _read_rows(path: Path, columns: int) -> np.ndarray:
    """Numeric CSV rows; a value written as ``np.float64(x)`` is read as ``x``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        for row in reader:
            if len(row) != columns:
                raise ValueError(f"{path.name}: row {len(rows)} has {len(row)} fields")
            rows.append([float(v.removeprefix("np.float64(").removesuffix(")")) for v in row])
    return np.array(rows, dtype=float).reshape(-1, columns)


def _load(path: Path):
    return json.loads(path.read_text())


def check_curvature(cfg_path: Path, out: Path, rng, package) -> list:
    cfg = _load(cfg_path)
    report = _load(out / "report.json")
    frame = _load(cfg_path.parent / cfg["frame"])
    problems = []
    g = cfg["grid"]
    rows = _read_rows(out / "defect_field.csv", 3)
    n = g["radial_count"] * g["angular_count"]
    if len(rows) != n or report["grid"]["points"] != n:
        return [f"curvature: {len(rows)} field rows, report says {report['grid']['points']}, grid has {n}"]
    z = rows[:, 0] + 1j * rows[:, 1]
    values = rows[:, 2]
    defect, eigs = oracle_defect(frame, z)
    bad = np.abs(values - defect) > REL * np.abs(defect) + DEFECT_FLOOR
    if np.any(bad):
        i = int(np.argmax(bad))
        problems.append(f"curvature: defect at {z[i]} is {values[i]!r}, oracle {defect[i]!r}")
    # the oracle itself against the package's scalar reference
    loaded = package.load_frame(cfg_path.parent / cfg["frame"])
    for i in rng.choice(n, size=min(n, DEFECT_SAMPLES), replace=False):
        scalar = package.curvature_defect(loaded, complex(z[i]))
        if not _close(scalar, defect[i], floor=DEFECT_FLOOR):
            problems.append(f"curvature: scalar oracle {scalar!r} vs batched {defect[i]!r} at {z[i]}")
            break
    summary = report["defect"]
    for key, ref in (("min", values.min()), ("max", values.max()), ("mean", values.mean())):
        if not _close(summary[key], float(ref)):
            problems.append(f"curvature: defect.{key} {summary[key]!r} vs field {ref!r}")
    bounds = report["gram_bounds"]
    if not bounds["c_min"] > 0.0:
        problems.append(f"curvature: c_min {bounds['c_min']!r} is not positive")
    if not _close(bounds["c_min"], float(eigs[:, 0].min())) or not _close(bounds["c_max"], float(eigs[:, -1].max())):
        problems.append(f"curvature: gram bounds {bounds} vs oracle [{eigs[:, 0].min()!r}, {eigs[:, -1].max()!r}]")
    for sample in report.get("samples", []):
        if not sample["discrepancy"] <= DISCREPANCY_BOUND:
            problems.append(f"curvature: discrepancy {sample['discrepancy']!r} at {sample['lambda']}")
    return problems


def _carleson(values, points, weights, max_depth: int) -> float:
    """Dyadic Carleson constant of ``values * (1 - |z|) dA``, written out anew."""
    radii = np.abs(points)
    mass = values * (1.0 - radii) * weights
    angles = np.mod(np.angle(points), 2.0 * np.pi)
    best = 0.0
    for k in range(max_depth + 1):
        side = 2.0 ** -k
        inside = radii >= 1.0 - side
        if not np.any(inside):
            continue
        box = np.minimum(np.floor(angles[inside] / (2.0 * np.pi * side)).astype(int), 2 ** k - 1)
        best = max(best, float(np.bincount(box, weights=mass[inside]).max()) / side)
    return best


def check_criteria(cfg_path: Path, out: Path, rng, package) -> list:
    cfg = _load(cfg_path)
    report = _load(out / "report.json")
    frame = _load(cfg_path.parent / cfg["frame"])
    g = cfg["grid"]
    grid = package.build_grid(g["radial_count"], g["angular_count"], g["margin"])
    problems = []
    if report["grid"]["points"] != grid.n:
        return [f"criteria: report has {report['grid']['points']} points, grid has {grid.n}"]
    defect, eigs = oracle_defect(frame, grid.points)
    field = package.DefectField(grid=grid, values=defect)

    rows = _read_rows(out / "criteria_probes.csv", 4)
    probes = grid.points[(np.arange(grid.n) // grid.angular_count) % cfg["probe_stride"] == 0]
    if len(rows) != len(probes) or np.max(np.abs(rows[:, 0] + 1j * rows[:, 1] - probes)) > 1e-15:
        return [f"criteria: probe rows do not list the {len(probes)} stride-{cfg['probe_stride']} grid points"]
    at_probes = defect[(np.arange(grid.n) // grid.angular_count) % cfg["probe_stride"] == 0]
    if np.any(np.abs(rows[:, 2] - at_probes) > REL * at_probes + DEFECT_FLOOR):
        problems.append("criteria: probe defect column differs from the oracle")
    potentials = rows[:, 3]
    for i in rng.choice(len(probes), size=min(len(probes), POTENTIAL_SAMPLES), replace=False):
        ref = package.green_potential(field, complex(probes[i]))
        if not _close(potentials[i], ref, floor=1e-15):
            problems.append(f"criteria: potential at {probes[i]} is {potentials[i]!r}, scalar oracle {ref!r}")
            break

    # the scalar oracle itself, at the anchor the acceptance test pins
    anchor = package.green_potential(package.DefectField(grid=grid, values=np.ones(grid.n)), 0.0)
    if not abs(anchor + 1.0) <= ANCHOR_TOL:
        problems.append(f"criteria: uniform-field potential at 0 is {anchor!r}, expected -1 within {ANCHOR_TOL}")

    green_inf = report["green_inf"]
    if not green_inf <= 0.0:
        problems.append(f"criteria: green_inf {green_inf!r} is positive")
    if not _close(green_inf, float(potentials.min())):
        problems.append(f"criteria: green_inf {green_inf!r} vs probe minimum {potentials.min()!r}")
    pointwise = float(np.max(np.sqrt(np.maximum(defect, 0.0)) * (1.0 - np.abs(grid.points))))
    if not _close(report["pointwise_const"], pointwise):
        problems.append(f"criteria: pointwise_const {report['pointwise_const']!r} vs {pointwise!r}")
    carleson = _carleson(defect, grid.points, grid.area_weights, cfg["max_depth"])
    if not _close(report["carleson_const"], carleson):
        problems.append(f"criteria: carleson_const {report['carleson_const']!r} vs {carleson!r}")
    bounds = report["gram_bounds"]
    if not (bounds["c_min"] > 0.0 and _close(bounds["c_min"], float(eigs[:, 0].min()))
            and _close(bounds["c_max"], float(eigs[:, -1].max()))):
        problems.append(f"criteria: gram bounds {bounds} vs oracle")
    verdict = report["verdict"]
    limits = report["thresholds"]
    expected = {
        "gram": bounds["c_min"] > 0.0,
        "green": green_inf >= -limits["M"],
        "carleson": report["carleson_const"] <= limits["C"],
        "pointwise": report["pointwise_const"] <= limits["C"],
        "partial": False,
    }
    if any(verdict.get(k) != v for k, v in expected.items()):
        problems.append(f"criteria: verdict {verdict} inconsistent with the constants")
    return problems


def check_toeplitz(cfg_path: Path, out: Path, rng, package) -> list:
    cfg = _load(cfg_path)
    report = _load(out / "report.json")
    symbol = _load(cfg_path.parent / cfg["symbol"])
    g = cfg["grid"]
    grid = package.build_grid(g["radial_count"], g["angular_count"], g["margin"])
    problems = []
    values, _ = eval_matrix(symbol, grid.points)
    sigma = np.linalg.svd(values, compute_uv=False)[:, -1]
    sample = rng.choice(grid.n, size=min(grid.n, MARGIN_SAMPLES), replace=False)
    margin = report["margin"]
    if not (margin is not None and 0.0 < margin <= sigma[sample].min() * (1.0 + REL)):
        problems.append(f"toeplitz: margin {margin!r} not in (0, sampled minimum {sigma[sample].min()!r}]")
    elif not _close(margin, float(sigma.min())):
        problems.append(f"toeplitz: margin {margin!r} vs oracle grid minimum {sigma.min()!r}")
    gaps = (
        ("multiplicativity", report["multiplicativity"], MULTIPLICATIVITY_BOUND),
        ("intertwining", report["intertwining"], INTERTWINING_BOUND),
        ("kernel_action", (report["kernel_action"] or {}).get("discrepancy"), KERNEL_ACTION_BOUND),
    )
    for name, gap, bound in gaps:
        if gap is None or not 0.0 <= gap <= bound:
            problems.append(f"toeplitz: {name} gap {gap!r} exceeds {bound:g}")
    if report["order"] != 64 or report["analytic"] is not True:
        problems.append(f"toeplitz: order {report['order']} analytic {report['analytic']}")
    return problems


def check_counterexample(cfg_path: Path, out: Path, rng, package) -> list:
    cfg = _load(cfg_path)
    report = _load(out / "report.json")
    eps, count = cfg["epsilon"], cfg["spike_count"]
    alpha = 1.0 - (1.0 + eps) ** -2
    problems = []
    if report["ratio_check"] != (1.0 + eps) ** 2:
        problems.append(f"counterexample: ratio_check {report['ratio_check']!r} != (1+eps)^2")
    peak = (1.0 + eps) ** (2 * count)
    if not _close(report["growth_max"], peak, rel=1e-15):
        problems.append(f"counterexample: growth_max {report['growth_max']!r} != {peak!r}")
    if not _close(report["alpha"], alpha, rel=1e-15):
        problems.append(f"counterexample: alpha {report['alpha']!r} != {alpha!r}")
    lo, hi = report["kernel_ratio"]["min"], report["kernel_ratio"]["max"]
    if not (1.0 - alpha - KERNEL_RATIO_SLACK <= lo <= hi <= 1.0 + KERNEL_RATIO_SLACK):
        problems.append(f"counterexample: kernel ratio [{lo!r}, {hi!r}] outside [1 - alpha, 1]")
    spikes = report["spikes"]
    if len(spikes) != count or any(
        not (s["A_j"] <= s["bound"] + 1e-12 and s["bound"] <= alpha / 2 ** s["j"] + 1e-12) for s in spikes
    ):
        problems.append("counterexample: spike extremals exceed their bounds")

    w = package.weights_from_csv(out / "weights.csv").values
    if len(w) != cfg["length"] or w[0] != 1.0:
        return problems + [f"counterexample: weights.csv has {len(w)} rows, w_0 = {w[0]!r}"]
    steps = w[1:] / w[:-1]
    if float(np.max(np.maximum(steps, 1.0 / steps))) > (1.0 + eps) ** 2 * (1.0 + 1e-15):
        problems.append("counterexample: a consecutive weight ratio exceeds (1+eps)^2")
    for s in spikes:
        top = w[s["N_j"] + s["j"]]
        if not _close(top, (1.0 + eps) ** (2 * s["j"]), rel=1e-15):
            problems.append(f"counterexample: spike {s['j']} peaks at {top!r}")
    if float(w.max()) != report["growth_max"]:
        problems.append(f"counterexample: largest weight {w.max()!r} vs growth_max {report['growth_max']!r}")
    # kernel ratios recomputed from the dumped weights, unit tail in closed form
    ratios = []
    n = np.arange(len(w))
    for r in cfg["radii"]:
        x = r * r
        tail = x ** len(w) / (1.0 - x)
        ratios.append((1.0 - x) * (float(np.sum(np.power(x, n) / w)) + tail))
    if not (_close(lo, min(ratios), rel=1e-10) and _close(hi, max(ratios), rel=1e-10)):
        problems.append(f"counterexample: kernel ratio [{lo!r}, {hi!r}] vs recomputed [{min(ratios)!r}, {max(ratios)!r}]")
    return problems


CHECKS = {
    "curvature": check_curvature,
    "criteria": check_criteria,
    "toeplitz": check_toeplitz,
    "counterexample": check_counterexample,
}


def check(command: str, cfg_path: Path, out: Path, seed: int, package) -> list:
    """Problems with one command's outputs; the sample choice follows ``seed``."""
    rng = np.random.default_rng([seed, 99])
    try:
        return CHECKS[command](cfg_path, out, rng, package)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command}: unreadable output: {type(exc).__name__}: {exc}"]
    except package.ToolkitError as exc:
        return [f"{command}: reference failed on the output: {exc}"]
