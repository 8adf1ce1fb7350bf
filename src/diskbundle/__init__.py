"""Curvature of analytic frame bundles on the unit disk.

The package computes the differential geometry of moving subspaces given
by rational frames (curvature defects at a point and on a grid, the
curvature split, Gram bounds), evaluates similarity-type diagnostics for
the resulting defect fields (Green potential, dyadic Carleson constant,
pointwise growth bound), verifies finite-section Toeplitz identities with
rational matrix symbols including scalar inner-outer factorization, and
builds the spike weight whose kernel ratios, ratio bounds and shift-orbit
growth it then certifies numerically. Finite-difference and brute-force
references live with the tests, not here.

``import diskbundle`` loads no submodule (and so no numpy): each name of
``_EXPORTS`` imports its module the first time it is read (PEP 562), so a
command pays only for the layers it runs.
"""

import importlib

#: the public names, by the submodule that defines them
_EXPORTS = {
    "bundle": (
        "AnalyticFrame", "DefectField", "curvature_defect", "defect_field", "full_bundle_curvature", "gram_bounds",
        "load_frame",
    ),
    "calculus": ("ComplexGrid", "build_grid", "carleson_constant"),
    "criteria": (
        "carleson_check", "default_probes", "green_potential", "green_sweep", "pointwise_bound", "similarity_verdict",
    ),
    "errors": (
        "AccuracyError", "BoundaryZeroError", "CapacityError", "ConditioningError", "DataError", "DomainError",
        "NumericalError", "ParameterError", "SymbolError", "ToolkitError", "ValidationError",
    ),
    "kernels": ("weighted_kernel_diag_certified",),
    "rational": ("RationalFunction",),
    "toeplitz": (
        "InnerOuterFactorization", "MatrixSymbol", "ToeplitzSection", "intertwining_check", "kernel_action_check",
        "left_invertibility_margin", "load_symbol", "multiplicativity_check", "scalar_inner_outer", "toeplitz_section",
    ),
    "weights": (
        "WeightSequence", "build_spike_weight", "counterexample_report", "kernel_ratio_check", "ratio_bound_check",
        "shift_growth_witness", "spike_peak_bound", "weights_from_csv", "weights_to_csv",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, read from its submodule (imported on first use)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
