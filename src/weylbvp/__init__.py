"""weylbvp: elliptic boundary value problems with spectral-parameter-dependent
boundary conditions, solved through boundary triples, Weyl functions and a
selfadjoint linearization in a product space (finite-dimensional linear
algebra: one banded LU per point for the Dirichlet operator, which gives the
elliptic triple's gamma-field, Weyl function and resolvent, and one
shift-invert Lanczos run on it for the lowest Dirichlet eigenvalue, sparse LU
for the direct oracle and the compressed resolvent, one symmetric sparse
factorization per eigenvalue count, one dense LU per point for the data of a
generic boundary triple, dense boundary-size algebra, and a sparse
linearization, which for a constant boundary condition is the fixed
selfadjoint extension in L^2, with one sparse route for A - lambda that its
compressed resolvent and its eigensolve share: count-sized slices, one
shift-invert Lanczos run on one LU of A - sigma each).
"""

__version__ = "1.0.0"

from .errors import (
    BetaOneSingular,
    ConfigError,
    DimensionMismatch,
    InsufficientSamples,
    MathDomainError,
    NonAdjointBlocks,
    NonPositiveCoefficient,
    NotStrict,
    RankDeficientCoupling,
    RealTheta,
    SpectrumPoint,
    WeylbvpError,
)
from .krein import (
    KreinSpace,
    LinearRelation,
    Subspace,
    column_space,
    intersect,
    nullspace,
    orthonormal_columns,
)
from .triple import BoundaryTriple, WeylData, verify_triple_identities
from .opfunc import (
    ConstantFunction,
    RationalNevanlinna,
    RepresentationForm,
    decompose,
    negative_squares,
    strict_kernel,
)
from .realize import (
    couple,
    realize,
    realize_constant,
    realize_rational,
    realize_strict,
    verify_realization,
)
from .elliptic import (
    DiscreteElliptic,
    EllipticTriple,
    build_1d,
    build_2d,
    direct_solve,
    elliptic_triple,
)
from .solver import (
    Linearization,
    ScanResult,
    SolveReport,
    build_fixed_extension,
    build_linearization,
    build_linearization_rational,
    compressed_resolvent,
    eigen_correspondence,
    homogeneous_scan,
    krein_resolve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
