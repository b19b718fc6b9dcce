"""Vector spaces of matrix-pencil linearizations for state-space systems.

The package constructs, samples and verifies pencils ``lambda X + Y``
attached to a realization (A(lambda), B, C, D(lambda)) of a transfer
function ``G(lambda) = C A(lambda)^{-1} B + D(lambda)``: the first and
second ansatz spaces, their one-dimensional intersection, symmetric and
Hermitian structured members, companion forms, eigenvector recovery and
non-monomial polynomial bases.
"""

from .basis import BasisSpec, build_L1_tilde, phi_matrix, residual_tilde, tilde_to_monomial
from .core import (
    BlockDims,
    MatrixPolynomial,
    Realization,
    build_system_matrix,
    eval_polymat,
    eval_transfer,
    lambda_vector,
    padded_identity,
    transpose_realization,
)
from .errors import (
    DegenerateFit,
    DegenerateVector,
    DimensionError,
    InterpolationError,
    NotAMember,
    PencilError,
    PoleError,
    SingularBasis,
    SingularSystem,
    SolverFailure,
    StructureError,
    ZeroAnsatz,
)
from .shiftsum import block_shift_sum, col_shift_sum, row_shift_sum
from .spaces import (
    SPACE_DL,
    SPACE_HERM,
    SPACE_L1G,
    SPACE_L1S,
    SPACE_L2G,
    SPACE_SYM,
    AnsatzPencil,
    build_C1,
    build_C2,
    build_DL,
    build_hermitian,
    build_pencil_L1,
    build_pencil_L2,
    build_symmetric,
    dim_space,
    membership,
    residual_ansatz,
    sample_space,
)
from .spectra import (
    PencilEigs,
    RecoveredVector,
    SpectralReport,
    ZRankCertificate,
    f_map,
    g_map,
    lift_left,
    lift_right,
    match_multisets,
    nonpole_samples,
    pencil_eigvals,
    recover_left,
    recover_right,
    solve_pencil,
    system_zeros,
    verify_linearization,
    z_rank,
)

__version__ = "0.1.0"
