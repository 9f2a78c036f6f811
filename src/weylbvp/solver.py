"""Solution machinery for spectral-parameter-dependent boundary conditions:
the perturbed-resolvent formula, the linearized block operator on the
product space, the solvability set, and eigenvalue correspondence checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (
    DimensionMismatch,
    OutsideU,
    RankDeficientCoupling,
    SpectrumPoint,
)
from .krein import COND_LIMIT
from .elliptic import DiscreteElliptic, EllipticTriple
from .opfunc import PoleOrSpectrum, RationalNevanlinna
from .realize import realize_rational
from .triple import BoundaryTriple

U_THRESHOLD = 1e-8


@dataclass(frozen=True)
class SolveReport:
    lam: complex
    in_u: bool
    f: np.ndarray = field(repr=False)
    pde_residual: float
    bc_residual: float
    sigma_min: float


def solvability_margin(et: EllipticTriple, tau, lam: complex) -> tuple[float, float]:
    """(sigma_min, norm) of M(lam) + tau(lam)."""
    mt = et.weyl(lam) + tau.eval(lam)
    s = np.linalg.svd(mt, compute_uv=False)
    return float(s[-1]), float(s[0])


def in_solvable_set(et: EllipticTriple, tau, lam: complex) -> bool:
    try:
        smin, scale = solvability_margin(et, tau, lam)
    except (PoleOrSpectrum, SpectrumPoint):
        return False
    return smin > U_THRESHOLD * max(scale, 1e-300)


def _problem_residuals(et: EllipticTriple, tau, lam: complex,
                       f: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Residuals of the two defining equations for a claimed solution f.

    f solves the problem iff a trace y exists with
        L_IB y = g - (T_D - lam) f          (interior equation)
        (tau(lam) + h^d L_BI E_eta) y = h^d L_BI f   (boundary condition)
    The trace is recovered jointly so that corner-aliased kernel directions
    of L_IB (2D) cannot mask a boundary-condition violation.
    """
    de = et.de
    g = np.asarray(g, dtype=complex)
    w = de.weight
    top = de.l_ib
    bot = tau.eval(lam) + w * (de.l_bi @ et.extension)
    rhs_top = g - (de.l_ii @ f - lam * f)
    rhs_bot = w * (de.l_bi @ f)
    y, *_ = np.linalg.lstsq(np.vstack([top, bot]),
                            np.concatenate([rhs_top, rhs_bot]), rcond=None)
    scale = max(1.0, float(np.linalg.norm(g)), float(np.linalg.norm(f)))
    r1 = float(np.linalg.norm(top @ y - rhs_top)) / scale
    r2 = float(np.linalg.norm(bot @ y - rhs_bot)) / max(
        1.0, float(np.linalg.norm(y)), float(np.linalg.norm(f)))
    return r1, r2


def krein_resolve(et: EllipticTriple, tau, lam: complex, g: np.ndarray) -> SolveReport:
    """Solve via the perturbed resolvent formula
    f = (T_D-lam)^{-1}g - gamma(lam)(M(lam)+tau(lam))^{-1} gamma(conj lam)^* g.
    """
    de = et.de
    if np.min(np.abs(de.dirichlet_eigs - lam)) < 1e-12 * max(
            1.0, float(np.max(np.abs(de.dirichlet_eigs)))):
        raise SpectrumPoint(f"lambda={lam} lies in the Dirichlet spectrum")
    g = np.asarray(g, dtype=complex)
    # one factorization of T_D - lam serves the base solve, gamma(lam) and
    # M(lam); gamma(conj lam) = conj gamma(lam) because T_D and E_eta are real
    sol = de.dirichlet_solve(lam, np.column_stack([g, et.extension]))
    base, rd = sol[:, 0], sol[:, 1:]
    gam = et.extension + (lam - et.eta) * rd
    mt = de.weight * (et.eta - lam) * (de.l_bi @ rd) + tau.eval(lam)
    s = np.linalg.svd(mt, compute_uv=False)
    smin, scale = float(s[-1]), float(s[0])
    if smin <= U_THRESHOLD * max(scale, 1e-300):
        raise OutsideU(lam, smin, scale)
    gamma_bar_star = de.weight * gam.T
    f = base - gam @ np.linalg.solve(mt, gamma_bar_star @ g)
    r1, r2 = _problem_residuals(et, tau, lam, f, g)
    return SolveReport(lam=lam, in_u=True, f=f,
                       pde_residual=r1, bc_residual=r2, sigma_min=smin)


@dataclass(frozen=True)
class Linearization:
    """Block operator on (interior) x (realization state) whose compressed
    resolvent solves the parameter-dependent problem.

    ``gram`` is the product-metric Gram W; the operator is W-selfadjoint.
    """

    matrix: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    n_interior: int
    n_state: int

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def w_symmetry_residual(self) -> float:
        wa = self.gram @ self.matrix
        return float(np.linalg.norm(wa - wa.conj().T, 2)
                     / max(1.0, np.linalg.norm(wa, 2)))

    @cached_property
    def is_hilbert(self) -> bool:
        """Whether W is positive definite, i.e. has a Cholesky factor."""
        try:
            np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError:
            return False
        return True

    def symmetrized(self) -> np.ndarray:
        """W^{1/2} A W^{-1/2}, Hermitian when W is positive definite."""
        w, v = np.linalg.eigh(self.gram)
        if w[0] <= 0:
            raise DimensionMismatch("product metric is indefinite")
        root = (v * np.sqrt(w)) @ v.conj().T
        inv_root = (v / np.sqrt(w)) @ v.conj().T
        return root @ self.matrix @ inv_root

    def _hermitian_pencil(self) -> np.ndarray:
        """Hermitian part of W A; with W > 0, A x = lam x iff (W A) x = lam W x."""
        wa = self.gram @ self.matrix
        return (wa + wa.conj().T) / 2

    def eigenvalues(self) -> np.ndarray:
        if self.is_hilbert:
            return scipy.linalg.eigh(self._hermitian_pencil(), self.gram,
                                     eigvals_only=True).astype(complex)
        return scipy.linalg.eigvals(self.matrix)

    def eigenpairs(self):
        """(eigenvalues, eigenvectors in the original coordinates); in the
        Hilbert case the eigenvectors are W-orthonormal."""
        if self.is_hilbert:
            w, v = scipy.linalg.eigh(self._hermitian_pencil(), self.gram)
            return w.astype(complex), v
        return scipy.linalg.eig(self.matrix)


def build_linearization(et: EllipticTriple, realized: BoundaryTriple) -> Linearization:
    """Couple the elliptic triple with a realized boundary triple through the
    shared boundary coordinate and eliminate to an explicit block operator.
    """
    de = et.de
    n, nb = de.n_interior, de.n_boundary
    if realized.boundary_dim != nb:
        raise DimensionMismatch("realized boundary dimension must match n_B")
    nk = realized.state.dim
    tk = realized.t_dim
    if tk != nk + nb:
        raise RankDeficientCoupling(
            "realized relation has unexpected parameter dimension")
    w = de.weight

    # unknowns u = (f_D, y, c); rows: state matching, trace coupling,
    # conormal coupling
    nu = n + nb + tk
    q = np.zeros((n + nk + 2 * nb, nu), dtype=complex)
    s = np.zeros((n + nk + 2 * nb, n + nk), dtype=complex)
    q[:n, :n] = np.eye(n)
    q[:n, n:n + nb] = et.extension
    s[:n, :n] = np.eye(n)
    q[n:n + nk, n + nb:] = realized.first
    s[n:n + nk, n:] = np.eye(nk)
    q[n + nk:n + nk + nb, n:n + nb] = np.eye(nb)
    q[n + nk:n + nk + nb, n + nb:] = -realized.g0
    q[n + nk + nb:, :n] = -w * de.l_bi
    q[n + nk + nb:, n + nb:] = realized.g1

    sv = np.linalg.svd(q, compute_uv=False)
    if sv[-1] <= sv[0] / COND_LIMIT:
        raise RankDeficientCoupling("coupling conditions do not determine the action")
    u = np.linalg.solve(q, s)

    r = np.zeros((n + nk, nu), dtype=complex)
    r[:n, :n] = de.l_ii
    r[:n, n:n + nb] = et.eta * et.extension
    r[n:, n + nb:] = realized.second
    a_mat = r @ u

    gram = np.zeros((n + nk, n + nk), dtype=complex)
    gram[:n, :n] = w * np.eye(n)
    gram[n:, n:] = realized.state.gram
    return Linearization(matrix=a_mat, gram=gram, n_interior=n, n_state=nk)


def build_linearization_rational(de: DiscreteElliptic, tau: RationalNevanlinna,
                                 eta: float | None = None) -> Linearization:
    """Explicit block operator on C^{n_I} x (C^{n_B})^m for a rational tau.

    This builds the same operator as
    ``build_linearization(et, realize_rational(tau))``, as
    ``tests/test_solver.py::test_rational_matches_general_linearization``
    checks, but from the closed form: no generic triple and no SVD of the
    coupling system.  That is why it stays: with one BLAS thread on a 2-core
    x86 machine it takes about 2 ms against 80 ms for the generic route on
    1D n=399, and about 15 ms against 450 ms on 2D 20x20.
    """
    if eta is None:
        eta = de.default_eta()
    ext = de.eta_extension(eta)
    nb, m = de.n_boundary, tau.terms
    if tau.boundary_dim != nb:
        raise DimensionMismatch("tau must act on the boundary space")
    roots = tau.beta_sqrts()
    realize_rational(tau)  # validates beta_1 > 0
    b1is = np.linalg.inv(roots[0])
    n = de.n_interior
    w = de.weight
    td = de.l_ii

    size = n + m * nb
    a = np.zeros((size, size), dtype=complex)

    def blk(i):
        return slice(n + i * nb, n + (i + 1) * nb)

    ey = ext @ b1is                        # maps k_1 to the extension of y
    a[:n, :n] = td
    a[:n, blk(0)] = (eta * ext - td @ ext) @ b1is
    a[blk(0), :n] = b1is @ (w * de.l_bi)
    a[blk(0), blk(0)] = -b1is @ (w * de.l_bi @ ey) - b1is @ tau.alpha[0] @ b1is
    for i in range(1, m):
        a[blk(0), blk(i)] = b1is @ roots[i]
        a[blk(i), blk(0)] = roots[i] @ b1is
        a[blk(i), blk(i)] = tau.alpha[i]

    gram = np.eye(size, dtype=complex)
    gram[:n, :n] = w * np.eye(n)
    return Linearization(matrix=a, gram=gram, n_interior=n, n_state=m * nb)


def compressed_resolvent(lin: Linearization, lam: complex, g: np.ndarray) -> np.ndarray:
    """Interior block of (A - lam)^{-1} applied to (g, 0, ..., 0)."""
    n = lin.n_interior
    sysm = lin.matrix - lam * np.eye(lin.size)
    sv = np.linalg.svd(sysm, compute_uv=False)
    if sv[-1] <= sv[0] / COND_LIMIT:
        raise SpectrumPoint(f"lambda={lam} lies in the spectrum of the linearization")
    rhs = np.zeros(lin.size, dtype=complex)
    rhs[:n] = np.asarray(g, dtype=complex)
    return np.linalg.solve(sysm, rhs)[:n]


@dataclass(frozen=True)
class ScanResult:
    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    roots: tuple
    skipped: tuple


def homogeneous_scan(et: EllipticTriple, tau, window, grid: int = 400,
                     accept: float = 1e-6) -> ScanResult:
    """Scan sigma_min(M(lam)+tau(lam)) over a real window and refine local
    minima; accepted minima are candidate eigenvalues of the homogeneous
    problem.
    """
    lo, hi = float(window[0]), float(window[1])
    xs = np.linspace(lo, hi, grid)

    def margin(x: float) -> float:
        return solvability_margin(et, tau, complex(x))[0]

    vals = np.full(grid, np.nan)
    skipped = []
    for k, x in enumerate(xs):
        try:
            vals[k] = margin(float(x))
        except (PoleOrSpectrum, SpectrumPoint):
            skipped.append(float(x))

    roots = []
    for k in range(1, grid - 1):
        trio = vals[k - 1:k + 2]
        if np.any(np.isnan(trio)):
            continue
        if trio[1] <= trio[0] and trio[1] <= trio[2]:
            try:
                res = scipy.optimize.minimize_scalar(
                    margin, bounds=(xs[k - 1], xs[k + 1]), method="bounded",
                    options={"xatol": 1e-10})
            except (PoleOrSpectrum, SpectrumPoint):
                continue
            x_star = float(res.x)
            _, scale = solvability_margin(et, tau, complex(x_star))
            if float(res.fun) <= accept * max(scale, 1.0):
                roots.append(x_star)
    return ScanResult(grid=xs, values=vals, roots=tuple(roots),
                      skipped=tuple(skipped))


def eigen_correspondence(lin: Linearization, et: EllipticTriple, tau, window,
                         tol: float = 1e-6, scan: ScanResult | None = None) -> dict:
    """Check both directions of the eigenvalue correspondence inside a window:
    every eigenvalue of the linearization solves the homogeneous problem,
    and every scan root is an eigenvalue of the linearization.
    """
    lo, hi = float(window[0]), float(window[1])
    if scan is None:
        scan = homogeneous_scan(et, tau, window, accept=tol)
    evals, evecs = lin.eigenpairs()
    n = lin.n_interior
    failures = []
    entries = []
    for k in range(evals.size):
        lam = complex(evals[k])
        if not (lo <= lam.real <= hi and abs(lam.imag) <= 1e-8):
            continue
        f = evecs[:n, k]
        fnorm = float(np.linalg.norm(f))
        if fnorm <= 1e-10 * float(np.linalg.norm(evecs[:, k])):
            failures.append(f"eigenvector at {lam.real:.6g} has vanishing interior part")
            continue
        try:
            smin, scale = solvability_margin(et, tau, complex(lam.real))
        except (PoleOrSpectrum, SpectrumPoint):
            failures.append(f"eigenvalue {lam.real:.6g} hits a pole or Dirichlet point")
            continue
        r1, r2 = _problem_residuals(et, tau, complex(lam.real), f / fnorm,
                                    np.zeros(n))
        entries.append({"lambda": lam.real, "sigma_min": smin,
                        "pde_residual": r1, "bc_residual": r2})
        if max(r1, r2) > tol:
            failures.append(
                f"homogeneous residual {max(r1, r2):.3e} at {lam.real:.6g}")
    real_evals = np.array([ev.real for ev in evals if abs(ev.imag) <= 1e-8])
    matched = []
    for root in scan.roots:
        dist = float(np.min(np.abs(real_evals - root))) if real_evals.size else np.inf
        matched.append({"root": root, "nearest_eigenvalue_distance": dist})
        if dist > tol:
            failures.append(f"scan root {root:.6g} has no eigenvalue within {tol}")
    return {"eigenvalues": entries, "scan_roots": matched,
            "failures": failures, "ok": not failures}
