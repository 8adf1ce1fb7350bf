"""Config-driven command line front end.

``diskbundle <command> --config cfg.json [--out DIR]``

Commands: ``curvature``, ``criteria``, ``toeplitz``, ``counterexample``.
Every setting is a config key, one row of ``_KEYS``, which lists the
commands that read it; a command refuses every other key. Each run writes
``report.json`` (floats as their shortest round-trip ``repr``, as in the
CSVs; sorted keys, fixed row orders) plus the command's CSV dumps into
``--out``, the working directory by default, so identical inputs produce
byte-identical artifacts. Validation problems
exit with code 2, numerical failures with code 3, both with a
machine-readable error JSON on stdout; a run that fails removes every
file and directory it made. Each ``_cmd_*`` computes its report and hands
back its files' writers, and ``main`` writes them all. Each ``_cmd_*`` imports the
layers its command runs, so a run loads no other layer. This module
imports no numpy, so the entry module's BLAS thread pin comes first.

``main`` reads the command line itself: a faulty command line is a
``ParameterError`` like a faulty config, exit 2 with its JSON on stdout,
where argparse would print a usage message on stderr and nothing on
stdout. No command loads ``argparse``,
nor the ``gettext`` and ``locale`` it imports, about 7 ms in every run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import DataError, NumericalError, ParameterError, ValidationError, read_json

if TYPE_CHECKING:
    from .bundle import DefectField

COMMANDS = ("curvature", "criteria", "toeplitz", "counterexample")

#: the order of the Toeplitz sections ``toeplitz`` builds of an analytic symbol and reports
TOEPLITZ_ORDER = 64


def _typed(obj, types, name):
    if not isinstance(obj, types) or isinstance(obj, bool):
        raise ParameterError(f"{name} has the wrong type", field=name)
    return obj


def _int(obj, name) -> int:
    return int(_typed(obj, int, name))


def _float(obj, name) -> float:
    """A JSON number as a float; an integer beyond float range is refused."""
    try:
        return float(_typed(obj, (int, float), name))
    except OverflowError:
        raise ParameterError(f"{name} is beyond the float range", field=name) from None


def _path(obj, name) -> Path:
    return Path(_typed(obj, str, name))


def _complex_pair(obj, name) -> complex:
    """``[re, im]`` of two finite JSON numbers."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParameterError(f"{name} must be an [re, im] pair", field=name)
    z = complex(*(_float(x, name) for x in obj))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParameterError(f"{name} must be finite", field=name)
    return z


def _nonempty_list(item, what: str):
    """A parser for a nonempty JSON list whose elements ``item`` parses."""

    def parse(obj, name) -> tuple:
        if not isinstance(obj, list) or not obj:
            raise ParameterError(f"{name} must be {what}", field=name)
        return tuple(item(x, name) for x in obj)

    return parse


#: the default of a key that the config must give
_REQUIRED = object()


class _Key(NamedTuple):
    """One config key: the commands that read it, its parser, default and range."""

    commands: tuple
    parse: Callable
    default: object = None
    ok: Optional[Callable] = None  # range test of a parsed value
    rule: str = ""  # what ``ok`` demands, as the error message says it


_GRID = ("curvature", "criteria", "toeplitz")

#: every config key by dotted name, in the order values are parsed
_KEYS = {
    "grid.radial_count": _Key(_GRID, _int, 8, lambda n: 1 <= n <= 48, "must be in 1..48"),
    "grid.angular_count": _Key(_GRID, _int, 64, lambda n: 1 <= n <= 65536, "must be in 1..65536"),
    "grid.margin": _Key(_GRID, _float, 1e-3, lambda x: 0.0 < x < 1.0, "must lie in (0, 1)"),
    "frame": _Key(("curvature", "criteria"), _path, _REQUIRED),
    "symbol": _Key(("toeplitz",), _path, _REQUIRED),
    "second_symbol": _Key(("toeplitz",), _path),
    "lambda": _Key(("toeplitz",), _complex_pair, 0.5 + 0.0j, lambda z: abs(z) < 1.0, "must lie in the open unit disk"),
    "vector": _Key(("toeplitz",), _nonempty_list(_complex_pair, "a list of [re, im] pairs")),
    # grid.radial_count <= 48, so a stride of 48 or more probes ring 0 only
    "probe_stride": _Key(("criteria",), _int, 4, lambda n: 1 <= n <= 48, "must be in 1..48"),
    "max_depth": _Key(("criteria",), _int, 8, lambda n: 0 <= n <= 24, "must be in 0..24"),
    "epsilon": _Key(("counterexample",), _float, _REQUIRED, lambda x: 0.0 < x <= 10.0, "must lie in (0, 10]"),
    "spike_count": _Key(("counterexample",), _int, _REQUIRED, lambda n: 1 <= n <= 64, "must be in 1..64"),
    "length": _Key(("counterexample",), _int, _REQUIRED, lambda n: 1 <= n <= 10**7, "must be in 1..10^7"),
    "radii": _Key(
        ("counterexample",), _nonempty_list(_float, "a nonempty list"), (0.0, 0.5, 0.9, 0.99, 0.999),
        lambda radii: all(0.0 <= r < 1.0 for r in radii), "must lie in [0, 1)",
    ),
}


def _parse(key: str, obj):
    """A config value as its row's type, inside its row's range."""
    row = _KEYS[key]
    value = row.parse(obj, key)
    if row.ok is not None and not row.ok(value):
        raise ParameterError(f"{key} {row.rule}", field=key)
    return value


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} must be a JSON object", field=where)
    for key in obj:
        if key not in allowed:
            raise ParameterError(f"unknown key {key!r} in {where}", field=f"{where}.{key}")


def _with_file(action, path: Path, key: str):
    """``action(path)``; a file the run cannot read or create, or a data fault
    of the whole file (text that is not JSON, no top-level object), exits 2
    on ``key``."""
    try:
        return action(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{key} {path} cannot be used: {type(exc).__name__}: {exc}", field=key) from exc
    except DataError as exc:
        if exc.field:  # a field inside the file
            raise
        raise DataError(str(exc), field=key) from exc


def load_config(path: Path, command: str) -> dict:
    """The command's settings by dotted key: the config's values, and the
    table's defaults for the rest."""
    raw = _with_file(lambda p: read_json(p, "config"), path, "config")
    keys = {key: row for key, row in _KEYS.items() if command in row.commands}
    _check_keys(raw, {key.partition(".")[0] for key in keys}, "config")
    missing = [key for key, row in keys.items() if row.default is _REQUIRED and key not in raw]
    if missing:
        raise ParameterError(f"config is missing {min(missing)!r}", field=min(missing))
    given = {key: raw[key] for key in keys if key in raw}
    for section in dict.fromkeys(key.partition(".")[0] for key in keys if "." in key):
        if section in raw:
            inner = {key.partition(".")[2] for key in keys if key.startswith(section + ".")}
            _check_keys(raw[section], inner, section)
            given.update((f"{section}.{sub}", obj) for sub, obj in raw[section].items())

    base = Path(path).resolve().parent
    cfg = {}
    for key, row in keys.items():
        cfg[key] = row.default
        if key in given:
            value = _parse(key, given[key])
            cfg[key] = base / value if isinstance(value, Path) else value
    return cfg


# --- deterministic JSON: sorted keys, floats by their shortest round-trip repr ---


def _python_scalar(value):
    """A numpy scalar as its Python value; any other type has no JSON form."""
    import numpy as np  # loaded by then, by the layer that made the value

    if isinstance(value, np.generic):
        return value.item()
    raise ParameterError(f"cannot serialize {type(value).__name__} into a report")


def _json_text(value) -> str:
    try:
        return json.dumps(value, indent=2, sort_keys=True, allow_nan=False, default=_python_scalar)
    except ValueError:  # json's refusal of NaN and infinity
        raise NumericalError("non-finite value in report") from None


def _stamp(path: Path):
    """What writing ``path`` changes: its inode, mtime and size; None if it is not there."""
    try:
        st = path.stat()
    except OSError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def _write_outputs(out_dir: Path, outputs: dict) -> None:
    """Make ``out_dir``, then run each ``name: writer`` on ``out_dir / name`` in
    order. If one fails, the files written before it and any part it wrote,
    then the directories made here, are removed before the error goes on;
    a file it did not touch stays."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    _with_file(lambda p: p.mkdir(parents=True, exist_ok=True), out_dir, "--out")
    written = []
    for name, writer in outputs.items():
        path = out_dir / name
        before = _stamp(path)
        try:
            _with_file(writer, path, "--out")
        except BaseException:
            if _stamp(path) != before:
                written.append(path)
            for undo in [done.unlink for done in written] + [directory.rmdir for directory in made]:
                try:
                    undo()
                except OSError:
                    pass
            raise
        written.append(path)


def write_report(doc: dict, path: Path) -> None:
    Path(path).write_text(_json_text(doc) + "\n")


def emit_heatmap(field: DefectField, path) -> None:
    """CSV ``re,im,value`` in radial-major grid order; partial fields are refused."""
    from .calculus import write_csv

    if field.is_partial:
        raise NumericalError("refusing to dump a partial field")
    points = field.grid.points
    write_csv(path, ["re", "im", "value"], [points.real, points.imag, field.values])


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _grid(cfg: dict):
    from .calculus import build_grid

    return build_grid(cfg["grid.radial_count"], cfg["grid.angular_count"], cfg["grid.margin"])


def _cmd_curvature(cfg: dict) -> tuple:
    """Curvature defect and Gram bounds of an analytic frame."""
    from .bundle import defect_field, full_bundle_curvature, gram_bounds, load_frame
    from .calculus import grid_meta

    frame = _with_file(load_frame, cfg["frame"], "frame")
    grid = _grid(cfg)
    field_ = defect_field(frame, grid)
    if field_.is_partial:
        raise NumericalError(
            f"defect field is partial ({len(field_.failures)} failures); first: {field_.failures[0][1]}"
        )
    samples = [{"lambda": _pair(lam), **full_bundle_curvature(frame, lam)} for lam in (0.0 + 0.0j, 0.5 + 0.0j)]
    doc = {
        "command": "curvature",
        "grid": grid_meta(grid),
        "gram_bounds": gram_bounds(field_),
        "defect": {
            "min": float(field_.values.min()),
            "max": float(field_.values.max()),
            "mean": float(field_.values.mean()),
        },
        "samples": samples,
        "heatmap_csv": "defect_field.csv",
    }
    return doc, {"defect_field.csv": lambda p: emit_heatmap(field_, p)}


def _cmd_criteria(cfg: dict) -> tuple:
    """Green potential, Carleson and pointwise similarity tests."""
    from .bundle import load_frame
    from .criteria import similarity_verdict, write_probe_heatmap

    frame = _with_file(load_frame, cfg["frame"], "frame")
    report, probed = similarity_verdict(frame, _grid(cfg), cfg["probe_stride"], cfg["max_depth"])
    if probed is None:  # a partial field: the report lists its failures, and no sweep ran
        return {"command": "criteria", **report, "heatmap_csv": None}, {}
    field_, rings, potentials = probed
    doc = {"command": "criteria", **report, "heatmap_csv": "criteria_probes.csv"}
    return doc, {"criteria_probes.csv": lambda p: write_probe_heatmap(field_, rings, p, potentials)}


def _cmd_toeplitz(cfg: dict) -> tuple:
    """The margin of a matrix symbol and, if it is analytic, its Toeplitz sections' checks."""
    from .toeplitz import (
        intertwining_check,
        kernel_action_check,
        left_invertibility_margin,
        load_symbol,
        multiplicativity_check,
        scalar_inner_outer,
        toeplitz_section,
    )

    symbol = _with_file(load_symbol, cfg["symbol"], "symbol")
    grid = _grid(cfg)
    if symbol.analytic:  # a section, and its errors, before the margin's
        try:
            section = toeplitz_section(symbol, TOEPLITZ_ORDER)
        except NumericalError as exc:  # Taylor coefficients that are not finite
            exc.field = "symbol"
            raise
    doc = {
        "command": "toeplitz",
        "order": TOEPLITZ_ORDER,
        "analytic": symbol.analytic,
        "margin": left_invertibility_margin(symbol, grid) if symbol.rows >= symbol.cols else None,
        "margin_scope": "grid sweep only; no claim about the full open disk",
        "multiplicativity": None,
        "kernel_action": None,
        "intertwining": None,
        "inner_outer": None,
    }
    if cfg["second_symbol"] is not None:
        other = _with_file(load_symbol, cfg["second_symbol"], "second_symbol")
        try:
            doc["multiplicativity"] = multiplicativity_check(symbol, other, TOEPLITZ_ORDER)
        except (ParameterError, NumericalError) as exc:  # not analytic, shapes that do not compose, not finite
            exc.field = "second_symbol"
            raise
    if symbol.analytic:
        e = cfg["vector"] or [1.0] + [0.0] * (symbol.rows - 1)
        if len(e) != symbol.rows:
            raise ParameterError(f"vector must have length {symbol.rows}", field="vector")
        doc["kernel_action"] = {
            "lambda": _pair(cfg["lambda"]),
            "discrepancy": kernel_action_check(section, cfg["lambda"], e),
        }
        doc["intertwining"] = intertwining_check(section)
        if symbol.is_scalar:
            try:
                split = scalar_inner_outer(symbol.entries[0][0])
            except ValidationError as exc:  # a zero numerator, a zero on the circle, unlocatable zeros
                exc.field = "entries[0][0].num"
                raise
            doc["inner_outer"] = {
                "disk_zeros": [_pair(a) for a in split.disk_zeros],
                "inner": split.inner.to_jsonable(),
                "outer": split.outer.to_jsonable(),
            }
    return doc, {}


def _cmd_counterexample(cfg: dict) -> tuple:
    """The spike-weighted shift counterexample."""
    from .weights import build_spike_weight, counterexample_report, weights_to_csv

    w = build_spike_weight(cfg["epsilon"], cfg["spike_count"], cfg["length"])
    report = counterexample_report(w, cfg["radii"])
    doc = {
        "command": "counterexample",
        "length": cfg["length"],
        "radii": list(cfg["radii"]),
        "weights_csv": "weights.csv",
        **report,
    }
    return doc, {"weights.csv": lambda p: weights_to_csv(w, p)}


_DISPATCH = {
    "curvature": _cmd_curvature,
    "criteria": _cmd_criteria,
    "toeplitz": _cmd_toeplitz,
    "counterexample": _cmd_counterexample,
}


#: what ``diskbundle --help`` says above the commands
_DESCRIPTION = (
    "Similarity diagnostics of analytic frame bundles on the unit disk. Each command reads the JSON config "
    "--config names, writes report.json and its CSV files to the directory --out names (the working directory "
    "by default), and prints one JSON status line. Exit codes: 0 success, 2 invalid input, 3 numerical failure."
)

_HELP = ("-h", "--help")

#: the options every command takes
_OPTIONS = ("--config", "--out")


def _help() -> str:
    """What ``--help`` prints, after a command or not: the usage, the description and the commands."""
    import textwrap

    lines = ["usage: diskbundle COMMAND --config PATH [--out DIR]", "", textwrap.fill(_DESCRIPTION)]
    lines += ["", "commands:", *(f"  {name:<16}{_DISPATCH[name].__doc__}" for name in COMMANDS)]
    return "\n".join(lines)


def _read_argv(argv: list) -> tuple:
    """``(command, options)``: the command, then each option given with its
    last value as text. A value is the text after ``=`` (``--opt=value``) or
    the next argument, which must not begin with ``--``; options are not
    abbreviated. ``options`` is None when the line asks for help. Any other
    fault is a ``ParameterError`` on ``command``, ``--config`` or the option."""
    if argv[:1] and argv[0] in _HELP:
        return None, None
    if not argv or argv[0] not in _DISPATCH:
        fault = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ParameterError(f"{fault}; the commands are {', '.join(COMMANDS)}", field="command")
    command, rest = argv[0], iter(argv[1:])
    options = {}
    for arg in rest:
        if arg in _HELP:
            return command, None
        name, given, value = arg.partition("=") if arg.startswith("--") else (arg, "", "")
        if name not in _OPTIONS:
            raise ParameterError(f"{command} takes no option {name!r}; it takes {', '.join(_OPTIONS)}", field=name)
        if not given:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise ParameterError(f"{name} needs a value", field=name)
        options[name] = value
    if "--config" not in options:
        raise ParameterError(f"{command} needs --config PATH", field="--config")
    return command, options


def _run(argv: list) -> str:
    """The line ``main`` prints: the help asked for, or the status of the run ``argv`` names."""
    command, options = _read_argv(argv)
    if options is None:
        return _help()
    cfg = load_config(Path(options["--config"]), command)
    out_dir = Path(options.get("--out", "."))
    doc, outputs = _DISPATCH[command](cfg)
    _write_outputs(out_dir, {**outputs, "report.json": lambda p: write_report(doc, p)})
    return _json_text({"status": "ok", "report": str(out_dir / "report.json")})


def main(argv=None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` by default), print its
    status JSON or the help it asks for, and return the exit code."""
    try:
        text, code = _run(sys.argv[1:] if argv is None else list(argv)), 0
    except (ValidationError, NumericalError) as exc:
        kind, code = ("validation", 2) if isinstance(exc, ValidationError) else ("numerical", 3)
        error = {"status": "error", "kind": kind, "type": type(exc).__name__, "message": str(exc)}
        text = _json_text({**error, "field": getattr(exc, "field", None)})
    try:
        print(text)
    except BrokenPipeError:  # the reader closed stdout; the run's files and code stand
        pass
    return code


if __name__ == "__main__":  # python -m diskbundle.cli: run once, as diskbundle.cli, through the entry module's main
    sys.modules["diskbundle.cli"] = sys.modules[__name__]
    from diskbundle.__main__ import main as entry_main

    sys.exit(entry_main())
