"""Boundary triples over linear relations, gamma-fields and Weyl functions.

The boundary maps are stored in coordinates of a fixed parameter basis of
the relation T = dom(Gamma): ``g0`` and ``g1`` send T-coordinates to vectors
in the boundary space, which carries the Euclidean inner product.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import DimensionMismatch
from .krein import (DEFAULT_RTOL, KreinSpace, LinearRelation, _as_matrix, nullspace,
                    relative_residual, sparse_lu)


@dataclass(frozen=True)
class WeylData:
    """gamma(lam) and M(lam) of a triple at one point, and the resolvent of
    A_0 that the point's factorization gives: ``resolvent(x)`` returns
    ((A_0 - lam)^{-1} x, Gamma_1 of the element {(A_0 - lam)^{-1} x,
    (I + lam (A_0 - lam)^{-1}) x} of A_0) for a matrix x, column by column."""

    lam: complex
    gamma_mat: np.ndarray
    m_mat: np.ndarray
    resolvent: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)


@dataclass(frozen=True)
class BoundaryTriple:
    state: KreinSpace
    boundary_dim: int
    t_basis: np.ndarray = field(repr=False)       # 2n x t parameter basis of T
    g0: np.ndarray = field(repr=False)            # g x t
    g1: np.ndarray = field(repr=False)            # g x t

    def __post_init__(self):
        n, g = self.state.dim, self.boundary_dim
        tb = _as_matrix(self.t_basis)
        if tb.shape[0] != 2 * n:
            raise DimensionMismatch("t_basis must have 2*dim rows")
        t = tb.shape[1]
        if _as_matrix(self.g0).shape != (g, t) or _as_matrix(self.g1).shape != (g, t):
            raise DimensionMismatch("boundary maps must be g x t")
        if t != n + g:
            raise DimensionMismatch(f"dim T = {t} != dim H + boundary dimension = {n + g}")
        object.__setattr__(self, "t_basis", tb)
        object.__setattr__(self, "g0", _as_matrix(self.g0))
        object.__setattr__(self, "g1", _as_matrix(self.g1))

    # -- structure ---------------------------------------------------------

    @property
    def t_dim(self) -> int:
        return self.t_basis.shape[1]

    @property
    def first(self) -> np.ndarray:
        return self.t_basis[: self.state.dim]

    @property
    def second(self) -> np.ndarray:
        return self.t_basis[self.state.dim:]

    @cached_property
    def a0(self) -> LinearRelation:
        """ker Gamma_0, the distinguished selfadjoint relation."""
        return LinearRelation.from_span(self.state, self.t_basis @ nullspace(self.g0))

    # -- boundary-space adjoints -------------------------------------------

    def gamma_plus(self, gamma_mat: np.ndarray) -> np.ndarray:
        """Adjoint G -> H of a map H <- G: gamma^+ = gamma^H G."""
        return gamma_mat.conj().T @ self.state.gram

    # -- verification -------------------------------------------------------

    def green_residual(self) -> float:
        """Relative residual of the abstract Green identity over a basis of T,
        by ``relative_residual`` against both sides."""
        f, fp = self.first, self.second
        g = self.state.gram
        lhs = f.conj().T @ g @ fp - fp.conj().T @ g @ f
        rhs = self.g0.conj().T @ self.g1 - self.g1.conj().T @ self.g0
        return relative_residual(lhs - rhs, lhs, rhs)

    def is_ordinary(self) -> bool:
        """True when the stacked boundary map (Gamma_0; Gamma_1) is surjective."""
        stacked = np.vstack([self.g0, self.g1])
        s = np.linalg.svd(stacked, compute_uv=False)
        rank = 2 * self.boundary_dim
        return bool(s.size >= rank and s[rank - 1] > DEFAULT_RTOL * s[0])

    # -- gamma-field and Weyl function ---------------------------------------

    @cached_property
    def _sparse_maps(self) -> tuple:
        """[second; Gamma_0] and [first; 0], whose difference at lam is K_lam,
        and the maps first and Gamma_1 that read its solutions, as CSC arrays:
        a realized triple's maps are block-sparse."""
        zero = np.zeros((self.boundary_dim, self.t_dim))
        return tuple(scipy.sparse.csc_array(m) for m in (
            np.vstack([self.second, self.g0]), np.vstack([self.first, zero]), self.first, self.g1))

    def weyl_data(self, lam: complex) -> WeylData:
        """gamma(lam) and M(lam) from one guarded sparse LU of the t x t
        matrix K_lam = [second - lam first; Gamma_0].  K c = (0, x) puts c in
        ker(T - lam) with Gamma_0 c = x, so gamma(lam) = first K^{-1}[0; I]
        and M(lam) = Gamma_1 K^{-1}[0; I], one solve on g columns; K c = (h, 0)
        puts c in A_0 with first c = (A_0 - lam)^{-1} h.  The data's
        ``resolvent`` forms the state resolvent first K^{-1}[I; 0] and its
        Gamma_1 image from this LU, one solve on n columns, and applies them
        to x as sparse arrays of their nonzero entries (a realized triple's
        A_0 is block-diagonal), not by dense n x n products.  It keeps
        neither, so a point's data holds nothing of size n x n, and a point
        read only for gamma (a conjugate point) forms neither.  A basis of T
        has t = n + g columns (checked when the triple is built), so K_lam is
        singular exactly when lam is an eigenvalue of A_0: ``sparse_lu``
        raises ``SpectrumPoint`` there.
        """
        n, g = self.state.dim, self.boundary_dim
        top, slope, first, g1 = self._sparse_maps
        lu = sparse_lu(top - lam * slope, "MMD_AT_PLUS_A",
                       f"K_lambda at the eigenvalue lambda={lam} of A_0")
        coeff = lu.solve(np.eye(n + g, g, -n, dtype=complex))

        def resolvent(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            coords = lu.solve(np.eye(n + g, n, dtype=complex))
            return (scipy.sparse.csr_array(first @ coords) @ x,
                    scipy.sparse.csr_array(g1 @ coords) @ x)

        return WeylData(lam, first @ coeff, g1 @ coeff, resolvent)


def verify_triple_identities(triple, samples, seed: int = 0,
                             data: dict[complex, WeylData] | None = None) -> dict[str, float]:
    """Max ``relative_residual`` of the gamma-field/Weyl identities at sample points.

    Checks, for all pairs (lam, mu) of samples in rho(A_0) and the first
    nonreal sample l0:
      id1:    gamma(lam) = (I + (lam-mu)(A0-lam)^{-1}) gamma(mu)
      gambar: gamma(conj(lam))^+ h = Gamma_1 {(A0-lam)^{-1} h, (I+lam(A0-lam)^{-1}) h}
      id2:    M(lam) - M(mu)^* = (lam - conj(mu)) gamma(mu)^+ gamma(lam)
      rep:    M(lam) = Re M(l0) + gamma(l0)^+((lam-Re l0) + (lam-l0)(lam-conj(l0))
              (A0-lam)^{-1}) gamma(l0)
    ``triple`` is any triple with ``weyl_data`` and ``gamma_plus``: a
    ``BoundaryTriple``, or an ``EllipticTriple``, whose data come from its
    banded Dirichlet solve.  ``weyl_data`` is taken once per distinct point,
    and at each sample one ``resolvent`` call on [gamma(mu_1) ... gamma(mu_k), h]
    gives (A0-lam)^{-1} on every column the identities need.  ``data`` holds
    ``weyl_data`` of points that the caller already has, samples or their
    conjugates; they are not taken again.
    """
    samples = list(samples)
    lambda0 = next(s for s in samples if abs(complex(s).imag) > 0)
    rng = np.random.default_rng(seed)
    points = list(dict.fromkeys(samples))
    known = dict(data or {})
    data = {lam: known.get(lam) or triple.weyl_data(lam) for lam in points}
    known.update(data)
    # gambar needs gamma(conj lam); of a conjugate that is no sample only
    # gamma is kept
    gamma_conj = {lam: (known.get(np.conj(lam)) or triple.weyl_data(np.conj(lam))).gamma_mat
                  for lam in set(samples)}
    gplus = {mu: triple.gamma_plus(data[mu].gamma_mat) for mu in points}
    gammas = np.hstack([data[mu].gamma_mat for mu in points])
    n, g = gammas.shape[0], data[lambda0].m_mat.shape[0]
    out = {"id1": 0.0, "gambar": 0.0, "id2": 0.0, "rep": 0.0}

    wd0 = data[lambda0]
    m0 = wd0.m_mat
    re_m0 = (m0 + m0.conj().T) / 2

    for lam in samples:
        wl = data[lam]
        # (A0-lam)^{-1} on gamma(mu) for every point mu and on a random h,
        # and the Gamma_1 image of h's element of A0
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res, image = wl.resolvent(np.column_stack([gammas, h]))
        res_gamma = {mu: res[:, k * g:(k + 1) * g] for k, mu in enumerate(points)}
        # gambar at the random vector h
        lhs = triple.gamma_plus(gamma_conj[lam]) @ h
        rhs = image[:, -1]
        out["gambar"] = max(out["gambar"], relative_residual(lhs - rhs, lhs, rhs))
        # representation of M via the fixed lambda0
        op = (lam - lambda0.real) * wd0.gamma_mat \
            + (lam - lambda0) * (lam - np.conj(lambda0)) * res_gamma[lambda0]
        rep = re_m0 + gplus[lambda0] @ op
        out["rep"] = max(out["rep"], relative_residual(wl.m_mat - rep, wl.m_mat, rep))
        for mu in samples:
            wm = data[mu]
            g_pred = wm.gamma_mat + (lam - mu) * res_gamma[mu]
            out["id1"] = max(out["id1"],
                             relative_residual(wl.gamma_mat - g_pred, wl.gamma_mat, g_pred))
            lhs2 = wl.m_mat - wm.m_mat.conj().T
            rhs2 = (lam - np.conj(mu)) * gplus[mu] @ wl.gamma_mat
            out["id2"] = max(out["id2"], relative_residual(lhs2 - rhs2, lhs2, rhs2))
    return out
