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


def check_condition(norm: float, solve: Callable[..., np.ndarray], n: int,
                    error: type, what: str, why: str = "") -> float:
    """The package's condition guard, one estimate per factorization: the
    estimate ||S||_1 est||S^{-1}||_1 (``norm`` = ||S||_1, ``solve`` the LU's
    solve, as for ``_inverse_onenorm``); raises ``error`` where it reaches
    ``COND_LIMIT``, and ``why``, if given, ends the message."""
    cond = norm * _inverse_onenorm(solve, n)
    if not cond < COND_LIMIT:
        raise error(f"{what} is numerically singular (1-norm condition estimate "
                    f"{cond:.3e})" + (f": {why}" if why else ""))
    return cond


def relative_residual(diff: np.ndarray, *refs: np.ndarray) -> float:
    """The package's residual rule: ||D||_F / max(1, largest column norm of the
    references), a vector being one column.  No SVD, and never below
    ||D||_2 / max(1, ||R||_2) for any reference R: ||.||_F >= ||.||_2 >= a column norm."""
    scale = max([1.0] + [float(np.max(np.linalg.norm(r, axis=0), initial=0.0)) for r in refs])
    return float(np.linalg.norm(diff)) / scale


def dense_lu(mat: np.ndarray, error: type, what: str, scale: float = 0.0) -> tuple:
    """LU of a square dense matrix S (``scipy.linalg.lu_factor``, which may
    overwrite ``mat``) and its condition estimate, guarded: raises ``error`` at
    an exactly zero pivot or where ``check_condition`` refuses S.  A ``scale``
    above ||S||_1 takes its place in the estimate: a sum S whose terms cancel
    is measured against their size.  The dense counterpart of ``sparse_lu``.
    """
    norm = max(scale, float(np.abs(mat).sum(axis=0).max()))
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

    return lu, check_condition(norm, solve, mat.shape[0], error, what)


def sparse_lu(mat: scipy.sparse.csc_array, ordering: str, what: str,
              symmetric: bool = False) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of a square CSC matrix S, real or complex, under
    SuperLU's column ``ordering`` (its ``permc_spec``), guarded: raises
    ``SpectrumPoint`` when SuperLU finds S exactly singular or
    ``check_condition`` refuses it.  The one guarded sparse factorization: a
    ``SparseRoute`` calls it under a fill-reducing ordering once per
    operator, and under the natural ordering of its pre-permuted matrix at
    every later lambda; ``BoundaryTriple.weyl_data`` calls it once per
    lambda.  A ``symmetric`` factorization pivots on the
    diagonal alone (SuperLU's symmetric mode, pivot threshold 0), so that the
    rows follow the column order and U = D L^H for a Hermitian S: it is read
    for its inertia, which is defined wherever S is nonsingular, so it raises
    at an exactly zero pivot and where a pivot leaves the diagonal, and takes
    no condition estimate.
    """
    # imported on first use: importing weylbvp does not load the package,
    # which adds about 2 MB of resident memory
    import scipy.sparse.linalg
    pivoting = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}} if symmetric else {}
    try:
        # panels of one column and no relaxed supernodes: with SuperLU's
        # defaults a count took 159 against 90 us at 1D n = 399 and 4.07
        # against 4.00 ms at 2D 50x50 (one BLAS thread), and no route here
        # factored faster with them
        lu = scipy.sparse.linalg.splu(mat, permc_spec=ordering, panel_size=1, relax=1,
                                      **pivoting)
    except RuntimeError as exc:          # "Factor is exactly singular"
        raise SpectrumPoint(f"{what} is singular") from exc
    if symmetric:
        if np.any(lu.perm_r != lu.perm_c):
            raise SpectrumPoint(f"{what} has a zero pivot on its diagonal")
        return lu
    solve = lu.solve
    if not np.iscomplexobj(mat.data):
        def solve(b, trans="N"):
            # b's real and imaginary parts as two columns of one real solve
            x = lu.solve(np.column_stack([b.real, b.imag]), trans)
            return x[:, 0] + 1j * x[:, 1]

    check_condition(float(abs(mat).sum(axis=0).max()), solve, mat.shape[0], SpectrumPoint, what)
    return lu


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    return a


def orthonormal_columns(m) -> np.ndarray:
    """Orthonormal basis of range(m), dropping directions below
    DEFAULT_RTOL*sigma_max."""
    a = _as_matrix(m)
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    rank = int(np.count_nonzero(s > DEFAULT_RTOL * s[0]))
    return u[:, :rank]


def nullspace(m) -> np.ndarray:
    """Orthonormal basis of ker(m)."""
    a = _as_matrix(m)
    ncols = a.shape[1]
    if a.shape[0] == 0 or ncols == 0:
        return np.eye(ncols, dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(ncols, dtype=complex)
    rank = int(np.count_nonzero(s > DEFAULT_RTOL * s[0]))
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
        """sup over unit vectors of other of the distance to self, by eigvalsh."""
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient dimensions differ")
        if other.dim == 0:
            return 0.0
        rest = other.basis - self.project(other.basis)
        return float(np.sqrt(max(np.linalg.eigvalsh(rest.conj().T @ rest)[-1], 0.0)))

    def gap(self, other: "Subspace") -> float:
        return max(self.containment_residual(other), other.containment_residual(self))

    def equals(self, other: "Subspace", tol: float = 1e-10) -> bool:
        return self.gap(other) <= tol


def column_space(m, ambient: int | None = None) -> Subspace:
    a = _as_matrix(m)
    if ambient is None:
        ambient = a.shape[0]
    return Subspace(ambient, orthonormal_columns(a))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection of two subspaces via the nullspace of the stacked bases."""
    if u.ambient != v.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if u.dim == 0 or v.dim == 0:
        return Subspace(u.ambient, np.zeros((u.ambient, 0), dtype=complex))
    # vectors (a, b) with Bu a = Bv b parameterize the intersection
    stacked = np.hstack([u.basis, -v.basis])
    null = nullspace(stacked)
    vecs = u.basis @ null[: u.dim]
    return column_space(vecs, ambient=u.ambient)


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

    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia of the Gram matrix."""
        w = self._gram_eigs
        return int(np.count_nonzero(w > 0)), int(np.count_nonzero(w < 0))

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
    def from_span(cls, space: KreinSpace, m) -> "LinearRelation":
        a = _as_matrix(m)
        if a.shape[0] != 2 * space.dim:
            raise DimensionMismatch("spanning matrix must have 2*dim rows")
        return cls(space, orthonormal_columns(a))

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

    def selfadjointness_residual(self) -> float:
        """||B^H K B||_F ||G^{-1}||_2 (B the basis, K = ``pair_gram()``), or 1
        where dim A != dim H: A with dim A = dim H is selfadjoint iff it is
        [[., .]]-neutral, and gap(A, A^+) <= ||K^{-1}||_2 ||B^H K B||_2 with
        ||K^{-1}||_2 = ||G^{-1}||_2, so this never reads below that gap."""
        if self.dim != self.space.dim:
            return 1.0
        neutral = self.basis.conj().T @ self.space.pair_gram() @ self.basis
        return float(np.linalg.norm(neutral) / np.min(np.abs(self.space._gram_eigs)))

    def is_selfadjoint(self, tol: float = 1e-10) -> bool:
        return self.dim == self.space.dim and self.selfadjointness_residual() <= tol

    def resolvent(self, lam: complex) -> np.ndarray:
        """(A - lam)^{-1} = first C^{-1}, C = second - lam first, by one
        ``dense_lu``; raises ``SpectrumPoint`` where lam is not a resolvent
        point, and at every lam where dim A != dim H.  C is bordered by its
        natural scale 1 + |lam| >= ||C||, so the guard measures
        (1 + |lam|) ||C^{-1}|| and refuses a C that is small as a whole."""
        n = self.space.dim
        if self.dim != n:
            raise SpectrumPoint(f"a relation of dimension {self.dim} in H x H with "
                                f"dim H = {n} has no resolvent point")
        bordered = np.zeros((n + 1, n + 1), dtype=complex)
        bordered[:n, :n] = self.second - lam * self.first
        bordered[n, n] = 1.0 + abs(lam)
        lu = dense_lu(bordered, SpectrumPoint, f"A - {lam}")[0]
        # X C = first as C^T X^T = first^T; the border's row of X is zero
        rhs = np.vstack([self.first.T, np.zeros((1, n))])
        return scipy.linalg.lu_solve(lu, rhs, trans=1)[:n].T
