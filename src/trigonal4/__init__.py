"""Exact deformation invariants of the trigonal genus-4 family
y**3 = (x**3 - 1)(x - u1)(x - u2)(x - u3).

All core arithmetic is exact over Q(w), w a primitive cube root of unity;
pairing values are stored as Q(w) coefficients of the fixed transcendental
unit 6*pi*i.  Floating point appears only in the optional numeric
cross-check oracle.
"""

from .canonical_ideal import (
    CubicForm,
    QuadricForm,
    SymTensor,
    canonical_cubic,
    noether_rank,
    schiffer_test,
    sym2_relation,
    veronese,
)
from .curve import (
    OMEGA,
    BranchPoint,
    CurveParams,
    Differential,
    Divisor,
    FiberLocus,
    FiberPoint,
    FinitePoint,
    InfinityPoint,
    KDifferential,
    PlaceLocus,
    canonical_map,
    divisor_min,
    divisor_of,
    divisor_of_function,
    finite_point,
    local_series,
    trigonal_fiber,
    validate_params,
    vanishing_order,
)
from .deformation import (
    CeresaCertificate,
    CeresaVariant,
    ConicReport,
    PairingMatrix,
    TangentVector,
    base_locus,
    cone_directions,
    conic_condition,
    delta_nu_c_test,
    kernel_W,
    ks_rank,
    pairing_matrix,
    residue_pairing,
    support_test,
    xi_functional,
)
from .errors import (
    DegenerateInput,
    InvalidParameters,
    OracleMismatch,
    StructuralError,
    Trigonal4Error,
    ZeroTangent,
)
from .linalg import Matrix
from .polynomials import RationalFunction, UniPoly, poly_gcd
from .qz24 import cube_family_covector, cube_family_report
from .rulings import D0Cycle, RulingLine, d0_cycle, principal_witness, ruling_divisor
from .scalars import INFINITY, Scalar
from .series import LocalSeries

__version__ = "0.1.0"
