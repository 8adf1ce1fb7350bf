import copy
import pickle

import numpy as np
import pytest

from diskbundle.bundle import DefectField
from diskbundle.calculus import build_grid, carleson_constant, write_csv
from diskbundle.errors import DataError, DomainError, ParameterError
from diskbundle.weights import WeightSequence
from oracles import CarlesonBox, csv_module_dump, dyadic_boxes, laplacian, wirtinger_dz


# --- CSV dumps ---


# the writer takes arrays; an object array keeps its ints, which are written as ints;
# the last table spans three of the writer's 8192-row blocks and is the float array a field gives
@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[-0.0, 5e-324, 1e16], [1e-7, 0.1 + 0.2, -3], [0, 12, 2.5]],
        np.random.default_rng(0).standard_normal((2 * 8192 + 1, 3)),
    ],
)
def test_write_csv_matches_csv_module_bytes(tmp_path, rows):
    if isinstance(rows, np.ndarray):
        columns, rows = list(rows.T), rows.tolist()
    else:
        columns = [np.array(column, dtype=object) for column in zip(*rows)]
    write_csv(tmp_path / "fast.csv", ["re", "im", "value"], columns)
    csv_module_dump(tmp_path / "oracle.csv", ["re", "im", "value"], rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# --- grids ---


def test_single_ring_grid():
    grid = build_grid(1, 4, 0.5)
    assert grid.n == 4
    assert np.allclose(np.abs(grid.points), 0.25)
    assert abs(np.sum(grid.area_weights) - np.pi * 0.25) < 1e-12


def test_default_grid_weight_sum():
    grid = build_grid(8, 64, 1e-3)
    assert grid.n == 512
    covered = np.pi * 0.999**2
    assert abs(np.sum(grid.area_weights) - covered) <= 0.02 * covered
    # the midpoint construction actually reproduces the area exactly
    assert abs(np.sum(grid.area_weights) - covered) < 1e-12


def test_grid_points_stay_inside_margin():
    grid = build_grid(6, 16, 0.05)
    assert np.max(np.abs(grid.points)) <= 1 - 0.05
    assert np.all(grid.area_weights > 0)


@pytest.mark.parametrize(
    "bad",
    [
        (0, 4, 0.5), (4, 0, 0.5), (4, 4, 0.0), (4, 4, 1.0), (4, 4, -0.1), (2.5, 4, 0.1), (2, 4.5, 0.1),
        # a bool is an int, but no ring or sector count; the command line refuses it too
        (True, 4, 0.1), (2, True, 0.1),
    ],
)
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(ParameterError):
        build_grid(*bad)


@pytest.mark.parametrize("name", ["radial_edges", "points", "area_weights"])
def test_grid_arrays_are_read_only(name):
    # a grid that compares equal to an untouched one cannot sweep other points
    grid = build_grid(2, 4, 0.1)
    with pytest.raises(ValueError):
        getattr(grid, name)[0] = 0
    assert grid == build_grid(2, 4, 0.1) and np.array_equal(grid.points, build_grid(2, 4, 0.1).points)


def test_value_classes_are_frozen_and_rebuilt_from_their_arguments():
    # plain slotted classes where frozen dataclasses were: no field can be set or deleted,
    # and a grid is equal, hashes, prints, copies and pickles by its three parameters
    grid = build_grid(2, 4, 0.1)
    field = DefectField(grid, np.arange(8.0), failures=((3, "m"),))
    weight = WeightSequence([1.0, 1.2, 1.0], epsilon=0.1)
    for value, name in ((grid, "margin"), (grid, "points"), (field, "values"), (weight, "epsilon")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
    assert repr(grid) == "ComplexGrid(radial_count=2, angular_count=4, margin=0.1)"
    assert grid != build_grid(2, 4, 0.2) and grid != (2, 4, 0.1)
    assert {grid: 1}[build_grid(2, 4, 0.1)] == 1
    for clone in (copy.copy(grid), copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
        assert clone == grid and hash(clone) == hash(grid) and np.array_equal(clone.points, grid.points)
        assert not clone.points.flags.writeable
    for clone in (copy.deepcopy(field), pickle.loads(pickle.dumps(field))):
        assert clone.grid == grid and np.array_equal(clone.values, field.values) and clone.failures == field.failures
    clone = pickle.loads(pickle.dumps(weight))
    assert np.array_equal(clone.values, weight.values) and clone.epsilon == 0.1 and not clone.values.flags.writeable


# --- Wirtinger derivative ---


def test_wirtinger_on_identity():
    assert abs(wirtinger_dz(lambda z: z, 0.3 + 0.1j, 1e-4) - 1.0) < 1e-8


def test_wirtinger_kills_antianalytic():
    for z in (0.2, -0.3 + 0.4j, 0.1j):
        assert abs(wirtinger_dz(np.conj, z, 1e-4)) < 1e-8


def test_wirtinger_abs_squared():
    z = 0.2 - 0.4j
    val = wirtinger_dz(lambda w: abs(w) ** 2, z, 1e-4)
    assert abs(val - np.conj(z)) < 1e-7


def test_wirtinger_second_order_in_h():
    # mixed polynomial in z and conj(z); d/dz symbolically: 3 z^2 zbar^2 + 2 zbar
    f = lambda w: w**3 * np.conj(w) ** 2 + 2 * w * np.conj(w)
    df = lambda w: 3 * w**2 * np.conj(w) ** 2 + 2 * np.conj(w)
    z = 0.31 + 0.17j
    e1 = abs(wirtinger_dz(f, z, 1e-2) - df(z))
    e2 = abs(wirtinger_dz(f, z, 5e-3) - df(z))
    assert e1 < 1e-3
    assert 3.5 < e1 / e2 < 4.5


def test_wirtinger_stencil_domain_error():
    with pytest.raises(DomainError):
        wirtinger_dz(lambda z: z, 0.9999, 1e-3)


# --- Laplacian ---


def test_laplacian_abs_squared():
    assert abs(laplacian(lambda z: abs(z) ** 2, 0.1, 1e-4) - 1.0) < 1e-6


def test_laplacian_log_kernel_diagonal():
    f = lambda z: np.log(1.0 / (1.0 - abs(z) ** 2))
    assert abs(laplacian(f, 0.0, 1e-3) - 1.0) < 1e-5


def test_laplacian_harmonic_polynomials():
    for n in range(1, 6):
        for z in (0.3, 0.2 + 0.4j, -0.5j):
            assert abs(laplacian(lambda w: (w**n).real, z, 1e-3)) < 1e-5
            assert abs(laplacian(lambda w: (w**n).imag, z, 1e-3)) < 1e-5


# --- Carleson boxes ---


def _box_sweep_oracle(density, grid, max_depth):
    # direct membership sweep over the same dyadic family
    radii = np.abs(grid.points)
    mass = np.asarray(density) * (1.0 - radii) * grid.area_weights
    best = 0.0
    for box in dyadic_boxes(max_depth):
        inside = np.fromiter((box.contains(z) for z in grid.points), dtype=bool)
        best = max(best, float(np.sum(mass[inside])) / box.side)
    return best


def test_carleson_zero_density():
    grid = build_grid(4, 16, 0.01)
    assert carleson_constant(np.zeros(grid.n), grid, 4) == 0.0


def test_carleson_unit_density_bounded():
    grid = build_grid(8, 64, 1e-3)
    c = carleson_constant(np.ones(grid.n), grid, 8)
    assert 0.0 < c <= 2 * np.pi + 1e-9


def test_carleson_matches_box_sweep_oracle():
    grid = build_grid(4, 16, 0.01)
    rng = np.random.default_rng(3)
    density = rng.random(grid.n)
    fast = carleson_constant(density, grid, 4)
    slow = _box_sweep_oracle(density, grid, 4)
    assert abs(fast - slow) < 1e-12


def test_carleson_monotone_in_depth():
    grid = build_grid(6, 32, 1e-2)
    density = (1.0 + np.abs(grid.points) ** 2) ** -2
    values = [carleson_constant(density, grid, d) for d in range(7)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_carleson_refinement_stability():
    coarse = build_grid(8, 64, 1e-3)
    fine = build_grid(16, 128, 1e-3)
    f = lambda g: carleson_constant((1.0 + np.abs(g.points) ** 2) ** -2, g, 8)
    a, b = f(coarse), f(fine)
    assert abs(a - b) <= 0.05 * max(a, b)


def test_carleson_rejects_negative_density():
    grid = build_grid(2, 8, 0.1)
    density = np.zeros(grid.n)
    density[0] = -1e-3
    with pytest.raises(DataError):
        carleson_constant(density, grid, 2)


def test_carleson_box_membership():
    box = CarlesonBox(side=0.25, theta0=0.0)
    assert box.contains(0.9 * np.exp(0.3j))
    assert not box.contains(0.5)            # too deep
    assert not box.contains(0.9 * np.exp(2.0j))  # wrong sector
    with pytest.raises(ParameterError):
        CarlesonBox(side=0.0, theta0=0.0)
