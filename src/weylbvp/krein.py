"""Finite-dimensional Krein spaces, subspaces and linear relations.

A linear relation is a subspace of H x H stored by an orthonormalized
spanning basis (top n rows: first components, bottom n rows: second
components).  All queries depend only on the column span.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, SpectrumPoint

DEFAULT_RTOL = 1e-10
COND_LIMIT = 1e12


def _inverse_onenorm(solve: Callable[..., np.ndarray], n: int) -> float:
    """Lower estimate of ||S^{-1}||_1 by Hager's iteration, from the LU of an
    n x n matrix S: ``solve(b)`` returns S^{-1} b and ``solve(b, trans="H")``
    returns S^{-H} b (the signature of ``SuperLU.solve``).

    The textbook start, all ones, is blind to a null direction that is odd
    under a symmetry of the grid, and so are the unit vectors it leads to
    (an odd mode vanishes at the centre).  This start has unit-modulus
    entries of random phase from a fixed local seed: deterministic, and the
    global random state is not touched.
    """
    x = np.exp(2j * np.pi * np.random.default_rng(0).random(n)) / n
    est = 0.0
    for _ in range(5):
        y = solve(x)
        new = float(np.abs(y).sum())
        if new <= est:
            break
        est = new
        sign = np.exp(1j * np.angle(y))  # 1 where y vanishes
        j = int(np.argmax(np.abs(solve(sign, trans="H"))))
        if x[j] == 1:                    # the same unit vector again
            break
        x = np.zeros(n, dtype=complex)
        x[j] = 1
    return est


def dense_lu(mat: np.ndarray, error: type, what: str) -> tuple:
    """LU of a square dense matrix S (``scipy.linalg.lu_factor``, which may
    overwrite ``mat``), guarded: raises ``error`` at an exactly zero pivot or
    when the condition estimate ||S||_1 est||S^{-1}||_1 reaches
    ``COND_LIMIT``.  The dense counterpart of ``elliptic.sparse_lu``.
    """
    norm = float(np.abs(mat).sum(axis=0).max())
    with warnings.catch_warnings():  # an exactly zero pivot is caught below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu = scipy.linalg.lu_factor(mat, overwrite_a=True)
    if not np.all(lu[0].diagonal()):
        raise error(f"{what} is singular")

    def solve(b, trans="N"):
        # b's real and imaginary parts as two columns: a complex b would cast
        # a real factor to complex at each solve
        x = scipy.linalg.lu_solve(lu, np.column_stack([b.real, b.imag]),
                                  trans=0 if trans == "N" else 2)
        return x[:, 0] + 1j * x[:, 1]

    cond = norm * _inverse_onenorm(solve, mat.shape[0])
    if not cond < COND_LIMIT:
        raise error(f"{what} is numerically singular "
                    f"(1-norm condition estimate {cond:.3e})")
    return lu


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    return a


def orthonormal_columns(m, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Orthonormal basis of range(m), dropping directions below rtol*sigma_max."""
    a = _as_matrix(m)
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    rank = int(np.count_nonzero(s > rtol * s[0]))
    return u[:, :rank]


def nullspace(m, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Orthonormal basis of ker(m)."""
    a = _as_matrix(m)
    ncols = a.shape[1]
    if a.shape[0] == 0 or ncols == 0:
        return np.eye(ncols, dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(ncols, dtype=complex)
    rank = int(np.count_nonzero(s > rtol * s[0]))
    return vh[rank:].conj().T


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient with an orthonormal column basis."""

    ambient: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.conj().T @ v)

    def containment_residual(self, other: "Subspace") -> float:
        """sup over unit vectors of other of the distance to self."""
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        if other.dim == 0:
            return 0.0
        rest = other.basis - self.project(other.basis)
        return float(np.linalg.norm(rest, 2))

    def contains(self, other: "Subspace", tol: float = 1e-10) -> bool:
        return self.containment_residual(other) <= tol

    def gap(self, other: "Subspace") -> float:
        return max(self.containment_residual(other), other.containment_residual(self))

    def equals(self, other: "Subspace", tol: float = 1e-10) -> bool:
        return self.gap(other) <= tol


def column_space(m, rtol: float = DEFAULT_RTOL, ambient: int | None = None) -> Subspace:
    a = _as_matrix(m)
    if ambient is None:
        ambient = a.shape[0]
    return Subspace(ambient, orthonormal_columns(a, rtol))


def intersect(u: Subspace, v: Subspace, rtol: float = DEFAULT_RTOL) -> Subspace:
    """Intersection of two subspaces via the nullspace of the stacked bases."""
    if u.ambient != v.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if u.dim == 0 or v.dim == 0:
        return Subspace(u.ambient, np.zeros((u.ambient, 0), dtype=complex))
    # vectors (a, b) with Bu a = Bv b parameterize the intersection
    stacked = np.hstack([u.basis, -v.basis])
    null = nullspace(stacked, rtol)
    vecs = u.basis @ null[: u.dim]
    return column_space(vecs, rtol, ambient=u.ambient)


@dataclass(frozen=True)
class KreinSpace:
    """Finite-dimensional inner-product space with Gram matrix ``gram``.

    The (possibly indefinite) product is [x, y] = y^* G x.  When ``j`` is
    absent the space is required to be Hilbert (G positive definite) and the
    fundamental symmetry defaults to the identity.
    """

    dim: int
    gram: np.ndarray | None = None
    j: np.ndarray | None = None
    # ascending eigenvalues of the Gram matrix, the one decomposition of it
    _gram_eigs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim <= 0:
            raise DimensionMismatch("dim must be positive")
        g = np.eye(self.dim, dtype=complex) if self.gram is None else _as_matrix(self.gram)
        if g.shape != (self.dim, self.dim):
            raise DimensionMismatch("gram has wrong shape")
        if not np.all(np.isfinite(g)):
            raise DimensionMismatch("gram must be finite")
        # one eigvalsh gives the scale (the 2-norm of a Hermitian G), the
        # condition number and the inertia (the default identity's spectrum
        # is known); residuals are measured in the Frobenius norm, which
        # bounds the 2-norm from above
        w = np.ones(self.dim) if self.gram is None else np.linalg.eigvalsh(g)
        absw = np.abs(w)
        scale = float(absw.max())
        if np.linalg.norm(g - g.conj().T) > 1e-12 * max(1.0, scale):
            raise DimensionMismatch("gram must be Hermitian")
        if absw.min() <= scale / COND_LIMIT:
            raise DimensionMismatch(
                f"gram is numerically singular (cond {scale / max(absw.min(), 1e-300):.2e})"
            )
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_gram_eigs", w)
        if self.j is None:
            # Hilbert default: positive definite Gram, J = I
            if w[0] <= 0:
                raise DimensionMismatch("indefinite gram requires an explicit fundamental symmetry")
            jmat = np.eye(self.dim, dtype=complex)
        else:
            jmat = _as_matrix(self.j)
            if np.linalg.norm(jmat - jmat.conj().T) > 1e-12:
                raise DimensionMismatch("J must be Hermitian")
            if np.linalg.norm(jmat @ jmat - np.eye(self.dim)) > 1e-12:
                raise DimensionMismatch("J must be an involution")
            # J is a Hermitian involution, hence unitary, so norm(G J) = scale
            h = g @ jmat
            if np.linalg.norm(h - h.conj().T) > 1e-10 * max(1.0, scale):
                raise DimensionMismatch("G*J must be Hermitian")
            try:
                np.linalg.cholesky((h + h.conj().T) / 2)
            except np.linalg.LinAlgError:
                raise DimensionMismatch("G*J must be positive definite") from None
        object.__setattr__(self, "j", jmat)

    @property
    def is_hilbert(self) -> bool:
        return bool(self._gram_eigs[0] > 0)

    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia of the Gram matrix."""
        w = self._gram_eigs
        return int(np.count_nonzero(w > 0)), int(np.count_nonzero(w < 0))

    def ip(self, x: np.ndarray, y: np.ndarray):
        """[x, y] = y^* G x."""
        return np.vdot(y, self.gram @ x)

    def pair_gram(self) -> np.ndarray:
        """Gram matrix of the indefinite product on H x H:
        [[f^, g^]] = i([f, g'] - [f', g]) = g^* K f^."""
        n = self.dim
        k = np.zeros((2 * n, 2 * n), dtype=complex)
        k[:n, n:] = -1j * self.gram
        k[n:, :n] = 1j * self.gram
        return k


@dataclass(frozen=True)
class LinearRelation:
    """Subspace of H x H over a KreinSpace, stored by an orthonormal basis."""

    space: KreinSpace
    basis: np.ndarray = field(repr=False)

    @classmethod
    def from_span(cls, space: KreinSpace, m, rtol: float = DEFAULT_RTOL) -> "LinearRelation":
        a = _as_matrix(m)
        if a.shape[0] != 2 * space.dim:
            raise DimensionMismatch("spanning matrix must have 2*dim rows")
        return cls(space, orthonormal_columns(a, rtol))

    @classmethod
    def from_graph(cls, space: KreinSpace, a) -> "LinearRelation":
        """Graph of the operator x -> A x."""
        amat = _as_matrix(a)
        if amat.shape != (space.dim, space.dim):
            raise DimensionMismatch("operator has wrong shape")
        return cls.from_span(space, np.vstack([np.eye(space.dim), amat]))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def first(self) -> np.ndarray:
        return self.basis[: self.space.dim]

    @property
    def second(self) -> np.ndarray:
        return self.basis[self.space.dim:]

    def span_subspace(self) -> Subspace:
        return Subspace(2 * self.space.dim, self.basis)

    def adjoint(self) -> "LinearRelation":
        """Orthogonal companion with respect to [[. , .]] on H x H."""
        k = self.space.pair_gram()
        if self.dim == 0:
            return LinearRelation(self.space, np.eye(2 * self.space.dim, dtype=complex))
        null = nullspace(self.basis.conj().T @ k)
        return LinearRelation(self.space, null)

    def symmetry_residual(self) -> float:
        return self.adjoint().span_subspace().containment_residual(self.span_subspace())

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        return self.symmetry_residual() <= tol

    def selfadjointness_residual(self) -> float:
        return self.span_subspace().gap(self.adjoint().span_subspace())

    def is_selfadjoint(self, tol: float = 1e-10) -> bool:
        return self.dim == self.adjoint().dim and self.selfadjointness_residual() <= tol

    def resolvent(self, lam: complex, rtol: float = DEFAULT_RTOL) -> np.ndarray:
        """Matrix of (A - lam)^{-1}; raises SpectrumPoint if not boundedly invertible."""
        n = self.space.dim
        c = self.second - lam * self.first
        # one SVD gives both the range check and the pseudoinverse
        u, s, vh = np.linalg.svd(c, full_matrices=False) if c.size \
            else (None, np.zeros(0), None)
        # the basis is orthonormal, so norm(C) <= 1 + |lam| is the natural scale
        scale = 1.0 + abs(lam)
        if s.size < n or s[n - 1] <= scale / COND_LIMIT:
            raise SpectrumPoint(f"ran(A - {lam}) is not all of H")
        keep = s > rtol * s[0]                 # the cutoff of pinv(c, rcond=rtol)
        res = (self.first @ vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
        # a nonzero kernel of (A - lam) shows up as an unreachable first component
        # (relative to max(1, norm(first)), which is 1 for an orthonormal basis)
        defect = np.linalg.norm(res @ c - self.first, 2)
        if defect > 1e-8:
            raise SpectrumPoint(f"ker(A - {lam}) is nontrivial")
        return res

    def eigen_kernel(self, lam: complex, rtol: float = DEFAULT_RTOL) -> Subspace:
        """ker(A - lam) = {f : {f, lam f} in A} as a subspace of H."""
        null = nullspace(self.second - lam * self.first, rtol)
        return column_space(self.first @ null, rtol, ambient=self.space.dim)

    def parts(self, rtol: float = DEFAULT_RTOL) -> dict[str, Subspace]:
        """Canonical subspaces dom, ran, ker and the multivalued part."""
        n = self.space.dim
        return {
            "dom": column_space(self.first, rtol, ambient=n),
            "ran": column_space(self.second, rtol, ambient=n),
            "ker": column_space(self.first @ nullspace(self.second, rtol), rtol, ambient=n),
            "mul": column_space(self.second @ nullspace(self.first, rtol), rtol, ambient=n),
        }
