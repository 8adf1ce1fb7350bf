"""Fuzzed config JSON through the in-process command line.

Every input has to end with exit code 0 (report written), 2 (validation)
or 3 (numerical failure) and one JSON document on stdout, never with a
traceback. Hypothesis draws the config, the frame or symbol file it names,
and junk in place of any value; sizes stay small (grids at most 4x16,
lengths in the hundreds).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from diskbundle import cli

FUZZ = settings(
    max_examples=40,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: what a fuzzed value may turn into; integers stay below every valid size
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(10**400),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=1),
)

#: mostly ordinary coefficients, sometimes zero, huge, tiny or not finite
number = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 0.999, 1e200, -1e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
)
pair = st.lists(number, min_size=2, max_size=2)


@st.composite
def corrupted(draw, valid):
    """A draw from ``valid``; half the time one key is dropped, added or made junk."""
    doc = draw(valid)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc) + ["bogus"]))
        if key in doc and draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(junk)
    return doc


@st.composite
def matrix_doc(draw, flags):
    """A frame or symbol document: rational entries of degree at most 2, at most 3x2."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 2))
    coeffs = st.lists(pair, min_size=1, max_size=3)
    entry = st.fixed_dictionaries({"num": coeffs, "den": st.one_of(st.just([[1.0, 0.0]]), coeffs)})
    entries = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    return draw(corrupted(st.fixed_dictionaries({"rows": st.just(rows), "cols": st.just(cols), **flags, "entries": entries})))


# radial and angular counts are always drawn, so the 8x64 default grid never runs
grid = corrupted(
    st.fixed_dictionaries(
        {"radial_count": st.integers(1, 4), "angular_count": st.integers(1, 16)},
        optional={"margin": st.floats(0.01, 0.5)},
    )
)

# each command draws only the keys it reads; corrupted() adds the unknown ones
CONFIGS = {
    "curvature": corrupted(st.fixed_dictionaries({"grid": grid, "frame": st.just("frame.json")})),
    "criteria": corrupted(
        st.fixed_dictionaries(
            {"grid": grid, "frame": st.just("frame.json")},
            optional={"probe_stride": st.integers(1, 4), "max_depth": st.integers(0, 6)},
        )
    ),
    "toeplitz": corrupted(
        st.fixed_dictionaries(
            {"grid": grid, "symbol": st.just("symbol.json")},
            optional={
                "second_symbol": st.just("symbol2.json"),
                "lambda": pair,
                "vector": st.lists(pair, min_size=1, max_size=3),
            },
        )
    ),
    "counterexample": corrupted(
        st.fixed_dictionaries(
            {
                "length": st.integers(1, 200),
                # tiny values too: below about 1.1e-16, 1 - (1 + epsilon)^-2 rounds to 0
                "epsilon": st.one_of(st.floats(0.01, 10.0), st.floats(0.0, 1e-15, exclude_min=True)),
                "spike_count": st.integers(1, 4),
            },
            optional={"radii": st.lists(st.floats(0.0, 0.99), min_size=1, max_size=3)},
        )
    ),
}

FILES = {
    "frame.json": matrix_doc({}),
    "symbol.json": matrix_doc({"analytic": st.booleans()}),
    "symbol2.json": matrix_doc({"analytic": st.booleans()}),
}


class Fixed:
    """An explicit input in place of ``st.data()``: each draw returns the value kept under its label."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]


def fixed_case(den=((1.0, 0.0),), **criteria):
    """Every command's config, on a 2x4 grid where it reads one, with the keys ``criteria`` for
    ``criteria``, and frame and symbol files with one entry ``1/den``."""
    grid = {"grid": {"radial_count": 2, "angular_count": 4}}
    doc = {"rows": 1, "cols": 1, "entries": [[{"num": [[1.0, 0.0]], "den": den}]]}
    return Fixed(
        **{
            "curvature config": {"frame": "frame.json", **grid},
            "criteria config": {"frame": "frame.json", **grid, **criteria},
            "toeplitz config": {"symbol": "symbol.json", **grid},
            "counterexample config": {"epsilon": 0.1, "spike_count": 1, "length": 16},
            "frame.json": doc,
            "symbol.json": {**doc, "analytic": False},
        }
    )


@pytest.mark.parametrize("command", cli.COMMANDS)
@FUZZ
@given(data=st.data())
# inputs the derandomized draws miss: an infinite or NaN grid margin, a
# probe stride beyond int64, and a denominator with a NaN (trailing or not)
# or a subnormal leading coefficient
@example(data=fixed_case(grid={"radial_count": 2, "angular_count": 4, "margin": float("inf")}))
@example(data=fixed_case(grid={"radial_count": 2, "angular_count": 4, "margin": float("nan")}))
@example(data=fixed_case(probe_stride=10**20))
@example(data=fixed_case(den=[[1.0, 0.0], [float("nan"), 0.0]]))
@example(data=fixed_case(den=[[float("nan"), 0.0], [1.0, 0.0]]))
@example(data=fixed_case(den=[[1.0, 0.0], [1e-320, 0.0]]))
def test_fuzzed_config_exits_cleanly(command, data):
    config = data.draw(CONFIGS[command], label=f"{command} config")
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for name, doc in FILES.items():
            if name in config.values():
                (base / name).write_text(json.dumps(data.draw(doc, label=name)))
        (base / "config.json").write_text(json.dumps(config))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([command, "--config", str(base / "config.json"), "--out", str(base / "out")])
        event(f"exit {code}")
        assert code in (0, 2, 3)
        doc = json.loads(stdout.getvalue())
        assert doc["status"] == ("ok" if code == 0 else "error")
