"""weylbvp: elliptic boundary value problems with spectral-parameter-dependent
boundary conditions, solved through boundary triples, Weyl functions and a
selfadjoint linearization in a product space (finite-dimensional linear
algebra: banded LU and banded eigenvalues for the Dirichlet operator, sparse
LU for the direct oracle and the compressed resolvent, one dense LU per point
for the gamma-field, Weyl function and resolvent of a generic boundary
triple, dense boundary-size algebra, and a dense Hermitian eigensolve of the
linearization that returns only the eigenpairs in a window).
"""

__version__ = "1.0.0"

from .errors import (
    BetaOneSingular,
    ConfigError,
    DimensionMismatch,
    InsufficientSamples,
    MathDomainError,
    NonAdjointBlocks,
    NonInvertibleTrace,
    NonPositiveCoefficient,
    NotStrict,
    OutsideU,
    PoleOrSpectrum,
    RankDeficientCoupling,
    RealTheta,
    SingularSystem,
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
    build_linearization,
    build_linearization_rational,
    compressed_resolvent,
    eigen_correspondence,
    homogeneous_scan,
    krein_resolve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
