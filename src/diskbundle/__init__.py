"""Curvature of analytic frame bundles on the unit disk.

The package computes the differential geometry of moving subspaces given
by rational frames (projections, holomorphic derivatives, curvature
defects), evaluates similarity-type diagnostics for the resulting defect
fields (Green potential, dyadic Carleson constant, pointwise growth
bound), verifies finite-section Toeplitz identities with rational matrix
symbols including scalar inner-outer factorization, and builds the
spike-weighted backward shift whose kernel ratios, ratio bounds, and
growth witness it then certifies numerically.
"""

from .bundle import (
    AnalyticFrame,
    BundleCurvature,
    DefectField,
    GramBounds,
    ProjectionSample,
    constant_field,
    curvature_defect,
    defect_field,
    field_from_function,
    full_bundle_curvature,
    gram,
    gram_bounds,
    hardy_line_frame,
    hs_norm_sq,
    load_frame,
    projection,
    projection_dz,
    projection_sample,
    save_frame,
)
from .calculus import (
    CarlesonBox,
    ComplexGrid,
    build_grid,
    carleson_constant,
    dyadic_boxes,
    green_function,
    laplacian,
    ring_grid,
    wirtinger_dz,
)
from .criteria import (
    CriteriaReport,
    Thresholds,
    carleson_check,
    default_probes,
    green_boundedness,
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
    SingularityError,
    SymbolError,
    ToolkitError,
    ValidationError,
)
from .kernels import (
    DerivKernelPoint,
    HardyKernelPoint,
    KernelIdentities,
    coefficient_inner,
    h2w_norm_sq,
    hardy_kernel,
    kernel_identities,
    weighted_kernel_diag,
    weighted_kernel_diag_certified,
)
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
    almost_isometry_check,
    backward_shift_apply,
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
