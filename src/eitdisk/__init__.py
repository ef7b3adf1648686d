"""Linearized impedance tomography on the unit disk.

Forward boundary-data maps for conductivity and potential perturbations,
exact moment inversion through Muntz-Legendre bases, and partial-boundary
reconstruction via Schwarz reflection and conformal transplantation.
"""

from .errors import (
    DegenerateSequenceError,
    DomainError,
    EitdiskError,
    FormatError,
    InconsistentDataError,
    KindMismatchError,
    RangeError,
    ShapeError,
    SingularPointError,
)
from .muntz import (
    ExponentSequence,
    MuntzPolynomial,
    TriangularMatrix,
    WeightedFamily,
    build_muntz,
    build_weighted_family,
    eval_weighted,
    gram_matrix,
    inverse_matrix,
    lm_norm_squared,
)
from .fields import (
    CONDUCTIVITY,
    POTENTIAL,
    FourierRadialField,
    RadialProfile,
    eval_field,
    eval_field_grid,
    l2_norm_squared,
    moment,
    sample_grid,
)
from .quadrature import QuadratureSpec
from .forward import (
    SCHROEDINGER,
    BoundaryMode,
    DtnMatrixSet,
    block_shapes,
    conductivity_dtn,
    energy_oracle,
    index_origins,
    oracle_dtn,
    schroedinger_dtn,
)
from .inverse import (
    MomentData,
    Reconstruction,
    ValidationReport,
    admissibility,
    condition_sums,
    extra_hankel_moments,
    extract_conductivity_moments,
    extract_schroedinger_moments,
    reconstruct,
    solve_moment_problem,
    validate,
)
from .conformal import ArcSpec, ConformalMap, psi, psi_inverse
from .partial import (
    ArcReconstruction,
    HalfDiskData,
    arc_data,
    arc_forward_oracle,
    arc_invert,
    half_disk_data,
    half_disk_forward_oracle,
    half_disk_invert,
)

__version__ = "0.1.0"
