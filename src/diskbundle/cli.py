"""Config-driven command line front end.

``diskbundle <command> --config cfg.json [--out DIR] [--grid-radial K]
[--grid-angular M] [--margin X] [--truncation N]``

Commands: ``curvature``, ``criteria``, ``toeplitz``, ``counterexample``.
Each run writes ``report.json`` (floats at 17 significant digits, sorted
keys, fixed row orders) plus the command's CSV dumps, so identical inputs
produce byte-identical artifacts. Validation problems exit with code 2,
numerical failures with code 3, both with a machine-readable error JSON on
stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .bundle import DefectField, defect_field, full_bundle_curvature, gram_bounds, load_frame
from .calculus import build_grid, write_csv
from .criteria import Thresholds, grid_meta, similarity_verdict, write_probe_heatmap
from .errors import DataError, NumericalError, ParameterError, ValidationError
from .toeplitz import (
    intertwining_check,
    kernel_action_check,
    left_invertibility_margin,
    load_symbol,
    multiplicativity_check,
    scalar_inner_outer,
    toeplitz_section,
)
from .weights import build_spike_weight, counterexample_report, weights_to_csv, DEFAULT_RADII

COMMANDS = ("curvature", "criteria", "toeplitz", "counterexample")

_GRID_KEYS = {"radial_count", "angular_count", "margin"}
_THRESHOLD_KEYS = {"M", "C"}
_COMMON_KEYS = {"grid", "truncation", "thresholds", "out_dir"}
_COMMAND_KEYS = {
    "curvature": {"frame"},
    "criteria": {"frame", "probe_stride", "max_depth"},
    "toeplitz": {"symbol", "second_symbol", "lambda", "vector"},
    "counterexample": {"epsilon", "spike_count", "length", "radii"},
}
_REQUIRED_KEYS = {
    "curvature": {"frame"},
    "criteria": {"frame"},
    "toeplitz": {"symbol"},
    "counterexample": {"epsilon", "spike_count", "length"},
}


@dataclass
class GridSpec:
    radial_count: int = 8
    angular_count: int = 64
    margin: float = 1e-3

    def validate(self):
        if not 1 <= self.radial_count <= 48:
            raise ParameterError("grid.radial_count must be in 1..48", field="grid.radial_count")
        if not 1 <= self.angular_count <= 65536:
            raise ParameterError("grid.angular_count must be in 1..65536", field="grid.angular_count")
        if not 0.0 < self.margin < 1.0:
            raise ParameterError("grid.margin must lie in (0, 1)", field="grid.margin")

    def build(self):
        return build_grid(self.radial_count, self.angular_count, self.margin)


@dataclass
class RunConfig:
    command: str
    grid: GridSpec = field(default_factory=GridSpec)
    truncation: int = 512
    thresholds: Thresholds = field(default_factory=Thresholds)
    out_dir: Path = Path(".")
    frame_path: Optional[Path] = None
    symbol_path: Optional[Path] = None
    second_symbol_path: Optional[Path] = None
    lam: complex = 0.5 + 0.0j
    vector: Optional[list] = None
    probe_stride: int = 4
    max_depth: int = 8
    epsilon: float = 0.1
    spike_count: int = 1
    length: int = 64
    radii: tuple = DEFAULT_RADII

    def validate(self):
        """Range checks shared by config keys and command-line overrides."""
        self.grid.validate()
        if not 2 <= self.truncation <= 100000:
            raise ParameterError("truncation must be in 2..100000", field="truncation")


def _typed(obj, types, name):
    if not isinstance(obj, types) or isinstance(obj, bool):
        raise ParameterError(f"{name} has the wrong type", field=name)
    return obj


def _float(obj, name) -> float:
    """A JSON number as a float; an integer beyond float range is refused."""
    try:
        return float(_typed(obj, (int, float), name))
    except OverflowError:
        raise ParameterError(f"{name} is beyond the float range", field=name) from None


def _complex_pair(obj, name) -> complex:
    """``[re, im]`` of two finite JSON numbers."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParameterError(f"{name} must be an [re, im] pair", field=name)
    z = complex(*(_float(x, name) for x in obj))
    if not np.isfinite(z):
        raise ParameterError(f"{name} must be finite", field=name)
    return z


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} must be a JSON object", field=where)
    for key in obj:
        if key not in allowed:
            raise ParameterError(f"unknown key {key!r} in {where}", field=f"{where}.{key}")


def _with_file(action, path: Path, key: str):
    """``action(path)``; a file the run cannot read or create exits 2 on ``key``."""
    try:
        return action(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{key} {path} cannot be used: {type(exc).__name__}: {exc}", field=key) from exc


def load_config(path: Path, command: str) -> RunConfig:
    text = _with_file(lambda p: Path(p).read_text(encoding="utf-8"), path, "config")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"config file is not valid JSON: {exc}", field="config") from exc
    allowed = _COMMON_KEYS | _COMMAND_KEYS[command]
    _check_keys(raw, allowed, "config")
    missing = _REQUIRED_KEYS[command] - set(raw)
    if missing:
        raise ParameterError(f"config is missing {sorted(missing)[0]!r}", field=sorted(missing)[0])

    cfg = RunConfig(command=command)
    base = Path(path).resolve().parent

    if "grid" in raw:
        _check_keys(raw["grid"], _GRID_KEYS, "grid")
        cfg.grid = GridSpec(
            radial_count=int(_typed(raw["grid"].get("radial_count", 8), int, "grid.radial_count")),
            angular_count=int(_typed(raw["grid"].get("angular_count", 64), int, "grid.angular_count")),
            margin=_float(raw["grid"].get("margin", 1e-3), "grid.margin"),
        )
    if "truncation" in raw:
        cfg.truncation = int(_typed(raw["truncation"], int, "truncation"))
    if "thresholds" in raw:
        _check_keys(raw["thresholds"], _THRESHOLD_KEYS, "thresholds")
        cfg.thresholds = Thresholds(
            M=_float(raw["thresholds"].get("M", 1e3), "thresholds.M"),
            C=_float(raw["thresholds"].get("C", 1e3), "thresholds.C"),
        )
    if "out_dir" in raw:
        cfg.out_dir = base / str(_typed(raw["out_dir"], str, "out_dir"))

    if "frame" in raw:
        cfg.frame_path = base / str(_typed(raw["frame"], str, "frame"))
    if "symbol" in raw:
        cfg.symbol_path = base / str(_typed(raw["symbol"], str, "symbol"))
    if "second_symbol" in raw:
        cfg.second_symbol_path = base / str(_typed(raw["second_symbol"], str, "second_symbol"))
    if "lambda" in raw:
        cfg.lam = _complex_pair(raw["lambda"], "lambda")
        if abs(cfg.lam) >= 1.0:
            raise ParameterError("lambda must lie in the open unit disk", field="lambda")
    if "vector" in raw:
        vec = raw["vector"]
        if not isinstance(vec, list) or not vec:
            raise ParameterError("vector must be a list of [re, im] pairs", field="vector")
        cfg.vector = [_complex_pair(p, "vector") for p in vec]
    if "probe_stride" in raw:
        cfg.probe_stride = int(_typed(raw["probe_stride"], int, "probe_stride"))
        if cfg.probe_stride < 1:
            raise ParameterError("probe_stride must be >= 1", field="probe_stride")
    if "max_depth" in raw:
        cfg.max_depth = int(_typed(raw["max_depth"], int, "max_depth"))
        if not 0 <= cfg.max_depth <= 24:
            raise ParameterError("max_depth must be in 0..24", field="max_depth")
    if "epsilon" in raw:
        cfg.epsilon = _float(raw["epsilon"], "epsilon")
        if not 0.0 < cfg.epsilon <= 10.0:
            raise ParameterError("epsilon must lie in (0, 10]", field="epsilon")
    if "spike_count" in raw:
        cfg.spike_count = int(_typed(raw["spike_count"], int, "spike_count"))
        if not 1 <= cfg.spike_count <= 64:
            raise ParameterError("spike_count must be in 1..64", field="spike_count")
    if "length" in raw:
        cfg.length = int(_typed(raw["length"], int, "length"))
        if not 1 <= cfg.length <= 10**7:
            raise ParameterError("length must be in 1..10^7", field="length")
    if "radii" in raw:
        radii = raw["radii"]
        if not isinstance(radii, list) or not radii:
            raise ParameterError("radii must be a nonempty list", field="radii")
        cfg.radii = tuple(_float(r, "radii") for r in radii)
        if not all(0.0 <= r < 1.0 for r in cfg.radii):
            raise ParameterError("radii must lie in [0, 1)", field="radii")

    cfg.validate()
    return cfg


# --- deterministic JSON with 17-significant-digit floats ---


def _json_text(value, indent=0):
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not np.isfinite(x):
            raise NumericalError("non-finite value in report")
        return format(x, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(pad + "  " + _json_text(v, indent + 2) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            items.append(pad + "  " + json.dumps(str(key)) + ": " + _json_text(value[key], indent + 2))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise ParameterError(f"cannot serialize {type(value).__name__} into a report")


def write_report(doc: dict, path: Path) -> None:
    Path(path).write_text(_json_text(doc) + "\n")


def emit_heatmap(field: DefectField, path) -> None:
    """CSV ``re,im,value`` in radial-major grid order; partial fields are refused."""
    if field.is_partial:
        raise NumericalError("refusing to dump a partial field")
    points = field.grid.points
    rows = zip(points.real.tolist(), points.imag.tolist(), field.values.tolist())
    write_csv(path, ["re", "im", "value"], rows)


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _cmd_curvature(cfg: RunConfig) -> dict:
    frame = _with_file(load_frame, cfg.frame_path, "frame")
    grid = cfg.grid.build()
    field_ = defect_field(frame, grid)
    if field_.is_partial:
        raise NumericalError(
            f"defect field is partial ({len(field_.failures)} failures); first: {field_.failures[0][1]}"
        )
    bounds = gram_bounds(field_)
    emit_heatmap(field_, cfg.out_dir / "defect_field.csv")
    samples = []
    for lam in (0.0 + 0.0j, 0.5 + 0.0j):
        split = full_bundle_curvature(frame, lam, cfg.truncation)
        samples.append(
            {
                "lambda": _pair(lam),
                "total": split.total,
                "shift_part": split.shift_part,
                "defect": split.defect,
                "tensor_total": split.tensor_total,
                "discrepancy": split.discrepancy,
                "truncation_tail": split.truncation_tail,
            }
        )
    return {
        "command": "curvature",
        "grid": grid_meta(grid),
        "gram_bounds": {"c_min": bounds.c_min, "c_max": bounds.c_max},
        "defect": {
            "min": float(np.min(field_.values)),
            "max": float(np.max(field_.values)),
            "mean": float(np.mean(field_.values)),
        },
        "samples": samples,
        "truncation": cfg.truncation,
        "heatmap_csv": "defect_field.csv",
    }


def _cmd_criteria(cfg: RunConfig) -> dict:
    frame = _with_file(load_frame, cfg.frame_path, "frame")
    grid = cfg.grid.build()
    report = similarity_verdict(frame, grid, cfg.thresholds, cfg.probe_stride, cfg.max_depth)
    doc = {"command": "criteria", **report.to_json_dict()}
    if not report.partial:
        write_probe_heatmap(report.field, report.probes, cfg.out_dir / "criteria_probes.csv", report.potentials)
        doc["heatmap_csv"] = "criteria_probes.csv"
    else:
        doc["heatmap_csv"] = None
        doc["failures"] = [[int(i), msg] for i, msg in report.failures]
    return doc


def _cmd_toeplitz(cfg: RunConfig) -> dict:
    symbol = _with_file(load_symbol, cfg.symbol_path, "symbol")
    grid = cfg.grid.build()
    order = min(cfg.truncation, 64)
    section = toeplitz_section(symbol, order)
    doc = {
        "command": "toeplitz",
        "order": order,
        "analytic": symbol.analytic,
        "aliasing_estimate": section.aliasing_estimate,
        "margin": left_invertibility_margin(symbol, grid) if symbol.rows >= symbol.cols else None,
        "margin_scope": "grid sweep only; no claim about the full open disk",
        "multiplicativity": None,
        "kernel_action": None,
        "intertwining": None,
        "inner_outer": None,
    }
    if cfg.second_symbol_path is not None:
        other = _with_file(load_symbol, cfg.second_symbol_path, "second_symbol")
        doc["multiplicativity"] = multiplicativity_check(symbol, other, order)
    if symbol.analytic:
        e = cfg.vector if cfg.vector is not None else [1.0] + [0.0] * (symbol.rows - 1)
        if len(e) != symbol.rows:
            raise ParameterError(f"vector must have length {symbol.rows}", field="vector")
        doc["kernel_action"] = {
            "lambda": _pair(cfg.lam),
            "discrepancy": kernel_action_check(symbol, cfg.lam, e, order),
        }
        if order >= 2:
            doc["intertwining"] = intertwining_check(symbol, order)
        if symbol.is_scalar:
            split = scalar_inner_outer(symbol.entries[0][0])
            doc["inner_outer"] = {
                "disk_zeros": [_pair(a) for a in split.disk_zeros],
                "inner": split.inner.to_jsonable(),
                "outer": split.outer.to_jsonable(),
            }
    return doc


def _cmd_counterexample(cfg: RunConfig) -> dict:
    w = build_spike_weight(cfg.epsilon, cfg.spike_count, cfg.length)
    report = counterexample_report(w, cfg.radii)
    weights_to_csv(w, cfg.out_dir / "weights.csv")
    return {
        "command": "counterexample",
        "length": cfg.length,
        "radii": list(cfg.radii),
        "weights_csv": "weights.csv",
        **report,
    }


_DISPATCH = {
    "curvature": _cmd_curvature,
    "criteria": _cmd_criteria,
    "toeplitz": _cmd_toeplitz,
    "counterexample": _cmd_counterexample,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diskbundle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--grid-radial", type=int, default=None)
        p.add_argument("--grid-angular", type=int, default=None)
        p.add_argument("--margin", type=float, default=None)
        p.add_argument("--truncation", type=int, default=None)
    return parser


def _error_doc(exc: Exception, kind: str) -> dict:
    return {
        "status": "error",
        "kind": kind,
        "type": type(exc).__name__,
        "message": str(exc),
        "field": getattr(exc, "field", None),
    }


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.grid_radial is not None:
            cfg.grid.radial_count = args.grid_radial
        if args.grid_angular is not None:
            cfg.grid.angular_count = args.grid_angular
        if args.margin is not None:
            cfg.grid.margin = args.margin
        if args.truncation is not None:
            cfg.truncation = args.truncation
        cfg.validate()
        _with_file(lambda p: p.mkdir(parents=True, exist_ok=True), cfg.out_dir, "out_dir")
        doc = _DISPATCH[args.command](cfg)
        report_path = cfg.out_dir / "report.json"
        write_report(doc, report_path)
    except ValidationError as exc:
        print(_json_text(_error_doc(exc, "validation")))
        return 2
    except NumericalError as exc:
        print(_json_text(_error_doc(exc, "numerical")))
        return 3
    print(_json_text({"status": "ok", "report": str(report_path)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
