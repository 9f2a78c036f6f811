"""Boundary triples over linear relations, gamma-fields and Weyl functions.

The boundary maps are stored in coordinates of a fixed parameter basis of
the relation T = dom(Gamma): ``g0`` and ``g1`` send T-coordinates to vectors
in the boundary space, which carries the Euclidean inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonInvertibleTrace, SpectrumPoint
from .krein import DEFAULT_RTOL, KreinSpace, LinearRelation, _as_matrix, dense_lu, nullspace


@dataclass(frozen=True)
class WeylData:
    """gamma(lam) and M(lam), with the LU of K_lam = [second - lam first; Gamma_0]
    that gave them."""

    lam: complex
    gamma_mat: np.ndarray
    m_mat: np.ndarray
    lu: tuple = field(repr=False)

    def resolvent_coords(self, h: np.ndarray) -> np.ndarray:
        """T-coordinates c of the elements of A_0 = ker Gamma_0 with
        (second - lam first) c = h: first c = (A_0 - lam)^{-1} h and
        second c = h + lam (A_0 - lam)^{-1} h, column by column."""
        h = _as_matrix(h)
        rhs = np.vstack([h, np.zeros((self.m_mat.shape[0], h.shape[1]))])
        return scipy.linalg.lu_solve(self.lu, rhs)


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
        """Relative residual of the abstract Green identity over a basis of T:
        ||lhs - rhs||_F / max(1, largest column norm of lhs and rhs), no SVD,
        and never below the 2-norm ratio (the Frobenius norm bounds the
        2-norm from above, a column norm bounds it from below)."""
        f, fp = self.first, self.second
        g = self.state.gram
        lhs = f.conj().T @ g @ fp - fp.conj().T @ g @ f
        rhs = self.g0.conj().T @ self.g1 - self.g1.conj().T @ self.g0
        scale = max(1.0, float(np.max(np.linalg.norm(lhs, axis=0))),
                    float(np.max(np.linalg.norm(rhs, axis=0))))
        return float(np.linalg.norm(lhs - rhs) / scale)

    def is_ordinary(self) -> bool:
        """True when the stacked boundary map (Gamma_0; Gamma_1) is surjective."""
        stacked = np.vstack([self.g0, self.g1])
        s = np.linalg.svd(stacked, compute_uv=False)
        rank = 2 * self.boundary_dim
        return s.size >= rank and s[rank - 1] > DEFAULT_RTOL * s[0]

    # -- gamma-field and Weyl function ---------------------------------------

    def weyl_data(self, lam: complex) -> WeylData:
        """gamma(lam) and M(lam) from one guarded LU of the t x t matrix
        K_lam = [second - lam first; Gamma_0].  K c = (0, x) puts c in
        ker(T - lam) with Gamma_0 c = x, so gamma(lam) = first K^{-1}[0; I]
        and M(lam) = Gamma_1 K^{-1}[0; I]; ``WeylData.resolvent_coords``
        solves K c = (h, 0) for (A_0 - lam)^{-1}.  A basis of T has
        t = n + g columns (else ``NonInvertibleTrace``), and then K_lam is
        singular exactly when lam is an eigenvalue of A_0: ``dense_lu``
        raises ``SpectrumPoint`` there.
        """
        n, g = self.state.dim, self.boundary_dim
        if self.t_dim != n + g:
            raise NonInvertibleTrace(
                f"dim T = {self.t_dim} != dim H + boundary dimension = {n + g}")
        lu = dense_lu(np.vstack([self.second - lam * self.first, self.g0]), SpectrumPoint,
                      f"K_lambda at the eigenvalue lambda={lam} of A_0")
        rhs = np.zeros((n + g, g), dtype=complex)
        rhs[n:] = np.eye(g)
        coeff = scipy.linalg.lu_solve(lu, rhs)
        return WeylData(lam, self.first @ coeff, self.g1 @ coeff, lu)


def _rel(diff: np.ndarray, *refs: np.ndarray) -> float:
    scale = max([1.0] + [float(np.linalg.norm(r)) for r in refs])
    return float(np.linalg.norm(diff)) / scale


def verify_triple_identities(bt: BoundaryTriple, samples, seed: int = 0,
                             data: dict[complex, WeylData] | None = None) -> dict[str, float]:
    """Max scaled residuals of the gamma-field/Weyl identities at sample points.

    Checks, for all pairs (lam, mu) of samples in rho(A_0) and the first
    nonreal sample l0:
      id1:    gamma(lam) = (I + (lam-mu)(A0-lam)^{-1}) gamma(mu)
      gambar: gamma(conj(lam))^+ h = Gamma_1 {(A0-lam)^{-1} h, (I+lam(A0-lam)^{-1}) h}
      id2:    M(lam) - M(mu)^* = (lam - conj(mu)) gamma(mu)^+ gamma(lam)
      rep:    M(lam) = Re M(l0) + gamma(l0)^+((lam-Re l0) + (lam-l0)(lam-conj(l0))
              (A0-lam)^{-1}) gamma(l0)
    One LU per distinct point (``weyl_data``) gives gamma and M there and,
    at each sample, (A0-lam)^{-1} on the columns the identities need; no
    interior-size inverse is formed.  ``data`` holds ``weyl_data`` of points
    that the caller has already factored; they are not factored again.
    """
    samples = list(samples)
    lambda0 = next(s for s in samples if abs(complex(s).imag) > 0)
    rng = np.random.default_rng(seed)
    n = bt.state.dim
    points = list(dict.fromkeys(samples))
    data = {lam: (data or {}).get(lam) or bt.weyl_data(lam) for lam in points}
    # gambar needs gamma(conj lam); of a conjugate that is no sample only
    # gamma is kept, not its LU
    gamma_conj = {lam: (data.get(np.conj(lam)) or bt.weyl_data(np.conj(lam))).gamma_mat
                  for lam in set(samples)}
    gplus = {mu: bt.gamma_plus(data[mu].gamma_mat) for mu in points}
    out = {"id1": 0.0, "gambar": 0.0, "id2": 0.0, "rep": 0.0}

    wd0 = data[lambda0]
    m0 = wd0.m_mat
    re_m0 = (m0 + m0.conj().T) / 2

    for lam in samples:
        wl = data[lam]
        # this point's LU applied to g columns per point mu, (A0-lam)^{-1} gamma(mu),
        # and to a random h, whose element of A0 has T-coordinates c
        res_gamma = {mu: bt.first @ wl.resolvent_coords(data[mu].gamma_mat) for mu in points}
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = wl.resolvent_coords(h)
        # gambar at the random vector h
        lhs = bt.gamma_plus(gamma_conj[lam]) @ h
        rhs = (bt.g1 @ c).ravel()
        out["gambar"] = max(out["gambar"], _rel(lhs - rhs, lhs, rhs))
        # representation of M via the fixed lambda0
        op = (lam - lambda0.real) * wd0.gamma_mat \
            + (lam - lambda0) * (lam - np.conj(lambda0)) * res_gamma[lambda0]
        rep = re_m0 + gplus[lambda0] @ op
        out["rep"] = max(out["rep"], _rel(wl.m_mat - rep, wl.m_mat, rep))
        for mu in samples:
            wm = data[mu]
            g_pred = wm.gamma_mat + (lam - mu) * res_gamma[mu]
            out["id1"] = max(out["id1"], _rel(wl.gamma_mat - g_pred, wl.gamma_mat, g_pred))
            lhs2 = wl.m_mat - wm.m_mat.conj().T
            rhs2 = (lam - np.conj(mu)) * gplus[mu] @ wl.gamma_mat
            out["id2"] = max(out["id2"], _rel(lhs2 - rhs2, lhs2, rhs2))
    return out
