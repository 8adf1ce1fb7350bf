"""Curvature of analytic frame bundles on the unit disk.

The package computes the differential geometry of moving subspaces given
by rational frames (projections, holomorphic derivatives, curvature
defects, Gram bounds), evaluates similarity-type diagnostics for the
resulting defect fields (Green potential, dyadic Carleson constant,
pointwise growth bound), verifies finite-section Toeplitz identities with
rational matrix symbols including scalar inner-outer factorization, and
builds the spike weight whose kernel ratios, ratio bounds and shift-orbit
growth it then certifies numerically. Finite-difference and brute-force
references live with the tests, not here.
"""

from .bundle import (
    AnalyticFrame,
    BundleCurvature,
    DefectField,
    GramBounds,
    constant_field,
    curvature_defect,
    defect_field,
    full_bundle_curvature,
    gram,
    gram_bounds,
    hardy_line_frame,
    hs_norm_sq,
    load_frame,
    projection,
    projection_dz,
    save_frame,
)
from .calculus import (
    ComplexGrid,
    build_grid,
    carleson_constant,
    ring_grid,
)
from .criteria import (
    CriteriaReport,
    Thresholds,
    carleson_check,
    default_probes,
    green_potential,
    green_sweep,
    pointwise_bound,
    similarity_verdict,
)
from .errors import (
    AccuracyError,
    BoundaryZeroError,
    CapacityError,
    ConditioningError,
    DataError,
    DomainError,
    NumericalError,
    ParameterError,
    SymbolError,
    ToolkitError,
    ValidationError,
)
from .kernels import weighted_kernel_diag_certified
from .rational import RationalFunction
from .toeplitz import (
    InnerOuterFactorization,
    MatrixSymbol,
    ToeplitzSection,
    fourier_block,
    intertwining_check,
    kernel_action_check,
    left_invertibility_margin,
    load_symbol,
    multiplicativity_check,
    save_symbol,
    scalar_inner_outer,
    toeplitz_section,
)
from .weights import (
    KernelRatio,
    SpikeBound,
    WeightSequence,
    build_spike_weight,
    counterexample_report,
    kernel_ratio_check,
    ratio_bound_check,
    shift_growth_witness,
    spike_peak_bound,
    weights_from_csv,
    weights_to_csv,
)

__version__ = "0.1.0"
