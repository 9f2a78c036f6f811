"""Boundary triples over linear relations, gamma-fields and Weyl functions.

The boundary maps are stored in coordinates of a fixed parameter basis of
the relation T = dom(Gamma): ``g0`` and ``g1`` send T-coordinates to vectors
in the boundary space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonInvertibleTrace, SpectrumPoint
from .krein import (
    DEFAULT_RTOL,
    KreinSpace,
    LinearRelation,
    Subspace,
    _as_matrix,
    column_space,
    nullspace,
)


@dataclass(frozen=True)
class WeylData:
    lam: complex
    gamma_mat: np.ndarray
    m_mat: np.ndarray


@dataclass(frozen=True)
class BoundaryTriple:
    state: KreinSpace
    boundary_dim: int
    t_basis: np.ndarray = field(repr=False)       # 2n x t parameter basis of T
    g0: np.ndarray = field(repr=False)            # g x t
    g1: np.ndarray = field(repr=False)            # g x t
    boundary_gram: np.ndarray | None = None

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
        gb = np.eye(g, dtype=complex) if self.boundary_gram is None \
            else _as_matrix(self.boundary_gram)
        if gb.shape != (g, g):
            raise DimensionMismatch("boundary gram has wrong shape")
        object.__setattr__(self, "boundary_gram", gb)

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
    def relation(self) -> LinearRelation:
        return LinearRelation.from_span(self.state, self.t_basis)

    @cached_property
    def a0(self) -> LinearRelation:
        """ker Gamma_0, the distinguished selfadjoint relation."""
        return LinearRelation.from_span(self.state, self.t_basis @ nullspace(self.g0))

    @cached_property
    def kernel_relation(self) -> LinearRelation:
        """ker Gamma = ker Gamma_0 \\cap ker Gamma_1 (the symmetric restriction)."""
        null = nullspace(np.vstack([self.g0, self.g1]))
        return LinearRelation.from_span(self.state, self.t_basis @ null)

    def coords(self, elements: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        """T-coordinates of columns of ``elements`` (must lie in span of T)."""
        el = _as_matrix(elements)
        c, *_ = np.linalg.lstsq(self.t_basis, el, rcond=None)
        if np.linalg.norm(self.t_basis @ c - el, 2) > tol * max(1.0, np.linalg.norm(el, 2)):
            raise DimensionMismatch("element does not belong to dom(Gamma)")
        return c

    # -- boundary-space adjoints -------------------------------------------

    def badj(self, m: np.ndarray) -> np.ndarray:
        """Adjoint of a boundary operator with respect to the boundary Gram."""
        gb = self.boundary_gram
        return np.linalg.solve(gb, m.conj().T @ gb)

    def gamma_plus(self, gamma_mat: np.ndarray) -> np.ndarray:
        """Adjoint G -> H of a map H <- G: gamma^+ = Gb^{-1} gamma^H G."""
        return np.linalg.solve(self.boundary_gram, gamma_mat.conj().T @ self.state.gram)

    # -- verification -------------------------------------------------------

    def green_residual(self) -> float:
        """Relative residual of the abstract Green identity over a basis of T."""
        f, fp = self.first, self.second
        g = self.state.gram
        gb = self.boundary_gram
        lhs = f.conj().T @ g @ fp - fp.conj().T @ g @ f
        rhs = self.g0.conj().T @ gb @ self.g1 - self.g1.conj().T @ gb @ self.g0
        scale = max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2), 1.0)
        return float(np.linalg.norm(lhs - rhs, 2) / scale)

    def validate(self, tol: float = 1e-10) -> None:
        res = self.green_residual()
        if res > tol:
            raise DimensionMismatch(f"Green identity violated: residual {res:.3e}")
        if not self.a0.is_selfadjoint(tol):
            raise DimensionMismatch("ker Gamma_0 is not selfadjoint")
        if np.linalg.matrix_rank(self.g0) < self.boundary_dim:
            raise DimensionMismatch("Gamma_0 is not surjective")

    def is_ordinary(self, rtol: float = DEFAULT_RTOL) -> bool:
        """True when the stacked boundary map (Gamma_0; Gamma_1) is surjective."""
        stacked = np.vstack([self.g0, self.g1])
        s = np.linalg.svd(stacked, compute_uv=False)
        return s.size >= 2 * self.boundary_dim and s[2 * self.boundary_dim - 1] > rtol * s[0]

    # -- gamma-field and Weyl function ---------------------------------------

    def defect_nullvectors(self, lam: complex, rtol: float = DEFAULT_RTOL) -> np.ndarray:
        return nullspace(self.second - lam * self.first, rtol)

    def defect_subspace(self, lam: complex, rtol: float = DEFAULT_RTOL) -> Subspace:
        """ker(T - lam) as a subspace of the state space."""
        null = self.defect_nullvectors(lam, rtol)
        return column_space(self.first @ null, rtol, ambient=self.state.dim)

    def weyl_data(self, lam: complex, check_resolvent: bool = True) -> WeylData:
        if check_resolvent:
            self.a0.resolvent(lam)  # raises SpectrumPoint off rho(A_0)
        null = self.defect_nullvectors(lam)
        g = self.boundary_dim
        trace = self.g0 @ null
        if trace.shape[1] != g:
            raise NonInvertibleTrace(
                f"defect dimension {trace.shape[1]} != boundary dimension {g} at {lam}"
            )
        s = np.linalg.svd(trace, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise NonInvertibleTrace(f"Gamma_0 restricted to the defect space is singular at {lam}")
        x = np.linalg.solve(trace, np.eye(g))
        coeff = null @ x
        return WeylData(lam, self.first @ coeff, self.g1 @ coeff)

    def gamma(self, lam: complex) -> np.ndarray:
        return self.weyl_data(lam).gamma_mat

    def weyl(self, lam: complex) -> np.ndarray:
        return self.weyl_data(lam).m_mat


# spec-facing functional aliases -------------------------------------------

def defect_subspace(bt: BoundaryTriple, lam: complex) -> Subspace:
    return bt.defect_subspace(lam)


def gamma_field(bt: BoundaryTriple, lam: complex) -> np.ndarray:
    return bt.gamma(lam)


def weyl(bt: BoundaryTriple, lam: complex) -> np.ndarray:
    return bt.weyl(lam)


def is_ordinary(bt: BoundaryTriple) -> bool:
    return bt.is_ordinary()


def _rel(diff: np.ndarray, *refs: np.ndarray) -> float:
    scale = max([1.0] + [float(np.linalg.norm(r)) for r in refs])
    return float(np.linalg.norm(diff)) / scale


def verify_triple_identities(bt: BoundaryTriple, samples, lambda0: complex | None = None,
                  seed: int = 0) -> dict[str, float]:
    """Max scaled residuals of the gamma-field/Weyl identities at sample points.

    Checks, for all pairs (lam, mu) of samples in rho(A_0):
      id1:    gamma(lam) = (I + (lam-mu)(A0-lam)^{-1}) gamma(mu)
      gambar: gamma(conj(lam))^+ h = Gamma_1 {(A0-lam)^{-1} h, (I+lam(A0-lam)^{-1}) h}
      id2:    M(lam) - M(mu)^* = (lam - conj(mu)) gamma(mu)^+ gamma(lam)
      rep:    M(lam) = Re M(l0) + gamma(l0)^+((lam-Re l0) + (lam-l0)(lam-conj(l0))
              (A0-lam)^{-1}) gamma(l0)
    """
    samples = list(samples)
    if lambda0 is None:
        lambda0 = next(s for s in samples if abs(complex(s).imag) > 0)
    rng = np.random.default_rng(seed)
    n = bt.state.dim
    # one resolvent per point serves as weyl_data's rho(A_0) check and as the
    # (A_0 - lam)^{-1} of the identities; conj(lam) is needed for gambar
    res0, data = {}, {}
    for lam in set(samples) | {lambda0} | {np.conj(s) for s in samples}:
        res0[lam] = bt.a0.resolvent(lam)
        data[lam] = bt.weyl_data(lam, check_resolvent=False)
    out = {"id1": 0.0, "gambar": 0.0, "id2": 0.0, "rep": 0.0}

    wd0 = data[lambda0]
    m0 = wd0.m_mat
    re_m0 = (m0 + bt.badj(m0)) / 2
    gp0 = bt.gamma_plus(wd0.gamma_mat)

    for lam in samples:
        wl = data[lam]
        # gambar at a random vector h
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        el = np.concatenate([res0[lam] @ h, h + lam * (res0[lam] @ h)])
        lhs = bt.gamma_plus(data[np.conj(lam)].gamma_mat) @ h
        rhs = (bt.g1 @ bt.coords(el)).ravel()
        out["gambar"] = max(out["gambar"], _rel(lhs - rhs, lhs, rhs))
        # representation of M via the fixed lambda0
        op = (lam - lambda0.real) * np.eye(n) \
            + (lam - lambda0) * (lam - np.conj(lambda0)) * res0[lam]
        rep = re_m0 + gp0 @ op @ wd0.gamma_mat
        out["rep"] = max(out["rep"], _rel(wl.m_mat - rep, wl.m_mat, rep))
        for mu in samples:
            wm = data[mu]
            g_pred = (np.eye(n) + (lam - mu) * res0[lam]) @ wm.gamma_mat
            out["id1"] = max(out["id1"], _rel(wl.gamma_mat - g_pred, wl.gamma_mat, g_pred))
            lhs2 = wl.m_mat - bt.badj(wm.m_mat)
            rhs2 = (lam - np.conj(mu)) * bt.gamma_plus(wm.gamma_mat) @ wl.gamma_mat
            out["id2"] = max(out["id2"], _rel(lhs2 - rhs2, lhs2, rhs2))
    return out
