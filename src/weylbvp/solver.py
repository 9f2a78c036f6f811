"""Solution machinery for spectral-parameter-dependent boundary conditions:
the perturbed-resolvent formula (whose guard is the only sigma_min of
M + tau), the linearized block operator on the product space, the
eigenvalue count and the count certificate of the linearization's
eigenvalues, and the eigenvalue correspondence and completeness check by
counts and residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, RankDeficientCoupling, SpectrumPoint
from .krein import dense_lu
from .elliptic import DiscreteElliptic, EllipticTriple, SparseRoute, _check_dense, elliptic_triple
from .opfunc import RationalNevanlinna
from .realize import realize_rational
from .triple import BoundaryTriple

U_THRESHOLD = 1e-8
# Largest residual (pde or boundary) that ``krein_resolve`` returns: the
# tolerance to which the three routes must agree.
RESIDUAL_LIMIT = 1e-10


@dataclass(frozen=True)
class SolveReport:
    f: np.ndarray = field(repr=False)
    pde_residual: float
    bc_residual: float
    sigma_min: float


def _problem_residuals(et: EllipticTriple, tau_lam: np.ndarray, lam: complex,
                       f: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Residuals of the two defining equations for a claimed solution f, given
    the matrix tau_lam = tau(lam).

    f solves the problem iff a trace y exists with
        L_IB y = g - (T_D - lam) f          (interior equation)
        (tau(lam) + h^d L_BI E_eta) y = h^d L_BI f   (boundary condition)
    Each channel couples to one interior row of its own, so y is that row of
    the interior equation divided by the channel's L_IB entry, and the
    boundary condition is checked at that y.
    """
    de = et.de
    g = np.asarray(g, dtype=complex)
    bot = tau_lam + et.boundary_block
    rhs_top = g - (de.sparse_blocks[0] @ f - lam * f)
    rhs_bot = de.weight * de.apply_l_bi(f)
    y = rhs_top[de.channel_rows] / de.coupling
    scale = max(1.0, float(np.linalg.norm(g)), float(np.linalg.norm(f)))
    r1 = float(np.linalg.norm(de.sparse_blocks[1] @ y - rhs_top)) / scale
    r2 = float(np.linalg.norm(bot @ y - rhs_bot)) / max(
        1.0, float(np.linalg.norm(y)), float(np.linalg.norm(f)))
    return r1, r2


def krein_resolve(et: EllipticTriple, tau, lam: complex, g: np.ndarray) -> SolveReport:
    """Solve via the perturbed resolvent formula
    f = (T_D-lam)^{-1}g - gamma(lam)(M(lam)+tau(lam))^{-1} gamma(conj lam)^* g.

    Raises ``SpectrumPoint`` on the Dirichlet spectrum (the guard of
    ``dirichlet_solve``), outside the solvability set, and where f's pde or
    boundary residual exceeds ``RESIDUAL_LIMIT``: next to a Dirichlet
    eigenvalue T_D - lam is so ill-conditioned that f misses the problem.
    """
    de = et.de
    g = np.asarray(g, dtype=complex)
    # one factorization of T_D - lam serves the base solve, gamma(lam) and
    # M(lam); gamma(conj lam) = conj gamma(lam) because T_D and E_eta are real
    sol = de.dirichlet_solve(lam, np.column_stack([g, et.extension]))
    base, rd = sol[:, 0], sol[:, 1:]
    gam = et.extension + (lam - et.eta) * rd
    tau_lam = tau.eval(lam)
    mt = de.weight * (et.eta - lam) * de.apply_l_bi(rd) + tau_lam
    s = np.linalg.svd(mt, compute_uv=False)
    smin, scale = float(s[-1]), float(s[0])
    if smin <= U_THRESHOLD * max(scale, 1e-300):
        raise SpectrumPoint(f"lambda={lam} is outside the solvability set: "
                            f"sigma_min(M+tau)={smin:.3e} (scale {scale:.3e})")
    gamma_bar_star = de.weight * gam.T
    f = base - gam @ np.linalg.solve(mt, gamma_bar_star @ g)
    r1, r2 = _problem_residuals(et, tau_lam, lam, f, g)
    if not max(r1, r2) <= RESIDUAL_LIMIT:
        raise SpectrumPoint(f"lambda={lam} is numerically in the spectrum: the perturbed "
                            f"resolvent leaves residual {max(r1, r2):.3e}")
    return SolveReport(f=f, pde_residual=r1, bc_residual=r2, sigma_min=smin)


@dataclass(frozen=True)
class Linearization:
    """Block operator on (interior) x (realization state) whose compressed
    resolvent solves the parameter-dependent problem.

    The product metric is block diagonal, W = h^d I (+) G with ``weight``
    h^d > 0 and ``state_gram`` G; the operator is W-selfadjoint.
    """

    matrix: np.ndarray = field(repr=False)
    weight: float
    state_gram: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_interior(self) -> int:
        return self.size - self.state_gram.shape[0]

    @cached_property
    def weighted_matrix(self) -> np.ndarray:
        """W A, row block by row block: no matrix product of interior size."""
        n = self.n_interior
        wa = np.empty_like(self.matrix)
        wa[:n] = self.weight * self.matrix[:n]
        wa[n:] = self.state_gram @ self.matrix[n:]
        return wa

    def w_symmetry_residual(self) -> float:
        """||WA - (WA)^H||_F / max(1, largest column norm of WA): no SVD, and
        never below the 2-norm ratio (the Frobenius norm bounds the 2-norm
        from above, a column norm bounds it from below)."""
        wa = self.weighted_matrix
        scale = float(np.max(np.linalg.norm(wa, axis=0)))
        return float(np.linalg.norm(wa - wa.conj().T) / max(1.0, scale))

    @cached_property
    def sparse_route(self) -> SparseRoute:
        """A - lam as a ``SparseRoute``, built on first use: only the
        compressed resolvent reads it.  Minimum degree on the pattern of
        A + A^T orders it (A is W-selfadjoint, so its pattern is nearly
        symmetric)."""
        return SparseRoute(self.matrix, self.size, 0, "MMD_AT_PLUS_A")

    @cached_property
    def _state_cholesky(self) -> np.ndarray | None:
        """Lower L with G = L L^H, or None where G is not positive definite."""
        try:
            return np.linalg.cholesky(self.state_gram)
        except np.linalg.LinAlgError:
            return None

    @property
    def is_hilbert(self) -> bool:
        """Whether W is positive definite: h^d > 0, so whether G is."""
        return self._state_cholesky is not None

    def _hermitian_form(self) -> np.ndarray:
        """S^{-H} He(W A) S^{-1} for the block Cholesky factor S = h^{d/2} I (+) L^H
        of W > 0, He the Hermitian part: for a W-selfadjoint A, (lam, x) is an
        eigenpair of A iff (lam, S x) is one of this matrix.  The interior
        block is a scaling and the others are triangular solves with L, so
        no interior-size matrix is multiplied by W or factored.  A real A
        (real tau) gives a real form, whose eigensolve costs a fraction of
        the complex one.
        """
        n, chol = self.n_interior, self._state_cholesky
        wa = self.weighted_matrix
        herm = (wa + wa.conj().T) / 2
        form = np.empty_like(herm)
        form[:n, :n] = herm[:n, :n] / self.weight
        lower = scipy.linalg.solve_triangular(chol, herm[n:, :n], lower=True)
        form[n:, :n] = lower / np.sqrt(self.weight)
        form[:n, n:] = form[n:, :n].conj().T
        state = scipy.linalg.solve_triangular(chol, herm[n:, n:], lower=True)
        form[n:, n:] = scipy.linalg.solve_triangular(chol, state.conj().T,
                                                     lower=True).conj().T
        return form

    def eigenpairs(self, window: tuple[float, float] | None = None):
        """(eigenvalues, eigenvectors in the original coordinates); in the
        Hilbert case the eigenvectors are W-orthonormal, and a real window
        (a, b) restricts both to the eigenvalues in (a, b], which LAPACK
        selects by Sturm bisection on the tridiagonal reduction: an exact
        count with multiplicity.  The non-Hilbert case ignores the window.
        """
        if self.is_hilbert:
            w, z = scipy.linalg.eigh(self._hermitian_form(), subset_by_value=window)
            n = self.n_interior             # x = S^{-1} z
            x = np.vstack([z[:n] / np.sqrt(self.weight),
                           scipy.linalg.solve_triangular(self._state_cholesky, z[n:],
                                                         lower=True, trans="C")])
            return w.astype(complex), x
        return scipy.linalg.eig(self.matrix)


def build_linearization(et: EllipticTriple, realized: BoundaryTriple) -> Linearization:
    """Couple the elliptic triple with a realized boundary triple through the
    shared boundary coordinate and eliminate to an explicit block operator.

    The unknowns f_D, y and the relation parameter c satisfy f = f_D + E_eta y,
    y = Gamma_0 c, first c = k and w L_BI f_D = Gamma_1 c (w = h^d).  Since
    L_II E_eta = eta E_eta - L_IB, eliminating f_D and y leaves one square
    system of boundary size n_K + n_B,
        C c = [k; w L_BI f],   C = [first; Gamma_1 + w L_BI E_eta Gamma_0],
    and with C^{-1} = [P | Q] split at column n_K the operator on (f, k) is
        A = [[L_II + L_IB Gamma_0 Q w L_BI,  L_IB Gamma_0 P],
             [second Q w L_BI,               second P]].
    The full coupling system is singular exactly when C is (f_D and y enter
    it through identity blocks), so the guard is one ``dense_lu`` of C, which
    raises ``RankDeficientCoupling``; the four blocks come from one
    transposed solve for [Gamma_0; second] C^{-1}, and nothing of interior
    size is decomposed.  A dense A above ``DENSE_LIMIT_BYTES`` raises
    ``ConfigError`` before allocation.
    """
    de = et.de
    n, nb = de.n_interior, de.n_boundary
    if realized.boundary_dim != nb:
        raise DimensionMismatch("realized boundary dimension must match n_B")
    nk = realized.state.dim
    g0, second, gram = realized.g0, realized.second, realized.state.gram
    coupling = np.vstack([realized.first, realized.g1 + et.boundary_block @ g0])
    # a real realization (real tau) gives a real C and a real A, factored and
    # stored real so that W A, its Hermitian form and the eigensolve run in
    # real arithmetic
    if not any(np.any(m.imag) for m in (coupling, g0, second, gram)):
        coupling, g0, second, gram = coupling.real, g0.real, second.real, gram.real
    lu = dense_lu(coupling, RankDeficientCoupling, "the coupling matrix C")
    # X C = [Gamma_0; second] as C^T X^T = [Gamma_0; second]^T
    blocks = scipy.linalg.lu_solve(lu, np.vstack([g0, second]).T, trans=1).T
    g0p, g0q = blocks[:nb, :nk], blocks[:nb, nk:]
    sp, sq = blocks[nb:, :nk], blocks[nb:, nk:]

    _check_dense((n + nk, n + nk), blocks.dtype, "the linearization")
    a_mat = np.zeros((n + nk, n + nk), dtype=blocks.dtype)
    a_mat[:n, :n] = de.l_ii
    # L_IB and w L_BI touch only the channel rows and columns of A
    rows, w_coupling = de.channel_rows, de.weight * de.coupling
    a_mat[np.ix_(rows, rows)] += de.coupling[:, None] * g0q * w_coupling
    a_mat[rows, n:] = de.coupling[:, None] * g0p
    a_mat[n:, rows] = sq * w_coupling
    a_mat[n:, n:] = sp

    return Linearization(matrix=a_mat, weight=de.weight, state_gram=np.ascontiguousarray(gram))


def build_linearization_rational(de: DiscreteElliptic, tau: RationalNevanlinna,
                                 eta: float | None = None) -> Linearization:
    """The linearization for a rational tau, on C^{n_I} x (C^{n_B})^m:
    ``build_linearization`` of the elliptic triple and ``realize_rational(tau)``.

    Its one caller is the benchmark's set-up (``perfbench/run.py``), which
    has already built the elliptic triple and so builds the eta-extension a
    second time here.
    """
    return build_linearization(elliptic_triple(de, eta), realize_rational(tau))


def compressed_resolvent(lin: Linearization, lam: complex, g: np.ndarray) -> np.ndarray:
    """Interior block of (A - lam)^{-1} applied to (g, 0, ..., 0), by one
    sparse LU of A - lam; its pattern, A's values and its column ordering are
    built once per linearization (``Linearization.sparse_route``).  A is
    built from E_eta, so this route checks the linearization rather than
    being independent of the Krein formula; the direct oracle is the route
    that shares no factorization with it.  Raises ``SpectrumPoint`` where
    A - lam is singular (see ``sparse_lu``).
    """
    rhs = np.zeros(lin.size, dtype=complex)
    rhs[:lin.n_interior] = g
    return lin.sparse_route.solve(lam, rhs, f"A - lambda at lambda={lam}")[:lin.n_interior]


# The count is undefined this close (relative) to a Dirichlet eigenvalue or a
# pole of tau: there the side of the computed pole decides it.
COUNT_GAP = 1e-11
# The linearization eigensolve of ``homogeneous_scan`` covers the counted
# window widened by this much (relative to the window's largest |endpoint|,
# at least 1), so that the half-open (a, b] that the solve returns keeps an
# eigenvalue on the lower end.
WINDOW_PAD = 1e-9


def eigenvalue_count(et: EllipticTriple, tau, x: float) -> int:
    """N(x): the number of eigenvalues below the real x, with multiplicity.

    By Haynsworth inertia additivity on the Schur complement of the
    Dirichlet block,
        N(x) = #{Dirichlet eigenvalues < x} + #{poles of tau < x}
               + #{positive eigenvalues of M(x) + tau(x)}.
    For a rational Nevanlinna tau this counts the eigenvalues of the
    selfadjoint linearization, for a constant tau the eigenvalues of the
    fixed extension (the real eigenvalues of its linearization).  Raises
    ``SpectrumPoint`` within ``COUNT_GAP`` of a Dirichlet eigenvalue or a
    pole.
    """
    singular = np.concatenate([et.de.dirichlet_eigs, tau.poles()])
    scale = max(1.0, abs(x), float(np.max(np.abs(singular))))
    if np.min(np.abs(singular - x)) <= COUNT_GAP * scale:
        raise SpectrumPoint(f"{x} is a Dirichlet eigenvalue or a pole of tau")
    mt = et.weyl(x) + tau.eval(x)
    inertia = np.linalg.eigvalsh((mt + mt.conj().T) / 2)
    return int(np.count_nonzero(singular < x) + np.count_nonzero(inertia > 0))


@dataclass(frozen=True)
class ScanResult:
    """The count certificate of a window: the linearization's real
    eigenvalues in it (``roots``, increasing, with multiplicity) and their
    eigenvectors (the columns of ``vectors``), every (x, N(x)) evaluated,
    sorted by x, and where the two disagree (``failures``)."""

    roots: tuple
    vectors: np.ndarray = field(repr=False)
    counts: tuple = field(repr=False)
    failures: tuple

    @property
    def window_count(self) -> int:
        """N(hi) - N(lo): the number of eigenvalues in the window."""
        return self.counts[-1][1] - self.counts[0][1]


def homogeneous_scan(et: EllipticTriple, tau, window, lin: Linearization,
                     tol: float = 1e-6) -> ScanResult:
    """Every real eigenvalue in the window, with multiplicity: the
    linearization's eigenvalues there, certified complete by the count N.

    N is counted at both window ends; an end on a Dirichlet eigenvalue or a
    pole moves outward.  The linearization's real eigenvalues (|Im| <= 1e-8)
    in [lo, hi) between the counted ends are grouped into clusters, in which
    neighbours are closer than 2 tol, and N is counted once in each gap
    between clusters: at its middle, or where N is undefined there at 3/8,
    5/8, 1/4 or 3/4 of it, so at least tol/2 from every eigenvalue; a gap
    with no such point joins its two clusters.  The certificate holds when N
    jumps across each cluster by the cluster's size: N(x) counts the
    eigenvalues below x exactly, so the eigenvalues listed are then all
    those of the window.  k clusters take k + 1 counts.
    """
    lo, hi = float(window[0]), float(window[1])
    scale = max(1.0, abs(lo), abs(hi))
    counts: dict[float, int] = {}

    def count(x: float) -> int | None:
        try:
            counts[x] = eigenvalue_count(et, tau, x)
        except SpectrumPoint:
            return None
        return counts[x]

    def end(x: float, step: float) -> float:
        # the singular points are finite in number, so a doubling step
        # leaves them behind
        while count(x) is None:
            x, step = x + step, 2 * step
        return x

    def split(a: float, b: float) -> float | None:
        for t in (0.5, 0.375, 0.625, 0.25, 0.75):
            if count(x := a + t * (b - a)) is not None:
                return x
        return None

    lo, hi = end(lo, -COUNT_GAP * scale), end(hi, COUNT_GAP * scale)
    pad = WINDOW_PAD * scale
    evals, evecs = lin.eigenpairs((lo - pad, hi + pad))
    keep = np.flatnonzero((np.abs(evals.imag) <= 1e-8)
                          & (evals.real >= lo) & (evals.real < hi))
    keep = keep[np.argsort(evals.real[keep], kind="stable")]
    roots = evals.real[keep].tolist()

    cuts = [lo]
    for a, b in zip(roots, roots[1:]):
        x = split(a, b) if b - a >= 2 * tol else None
        if x is not None:
            cuts.append(x)
    cuts.append(hi)
    below = np.searchsorted(roots, cuts)
    failures = [f"count mismatch on [{a:.6g}, {b:.6g}): N jumps by "
                f"{counts[b] - counts[a]}, the linearization has {k - j} eigenvalues"
                for a, b, j, k in zip(cuts, cuts[1:], below, below[1:])
                if counts[b] - counts[a] != k - j]
    if counts[hi] - counts[lo] != len(roots):
        failures.insert(0, f"incomplete: the count gives {counts[hi] - counts[lo]} "
                           f"eigenvalues in the window, the linearization {len(roots)}")
    return ScanResult(roots=tuple(roots), vectors=evecs[:, keep],
                      counts=tuple(sorted(counts.items())), failures=tuple(failures))


def eigen_correspondence(lin: Linearization, et: EllipticTriple, tau, window,
                         tol: float = 1e-6) -> dict:
    """Check both directions of the eigenvalue correspondence inside a window,
    and its completeness: ``homogeneous_scan`` certifies by counts that the
    linearization's real eigenvalues there are every eigenvalue of the
    problem, with multiplicity, and the interior part of each eigenvector
    must solve the homogeneous problem to ``tol``.  Each eigenvalue takes one
    evaluation of tau, at the real lambda, and no M(lambda): the boundary
    residual already checks (tau(lambda) + h^d L_BI E_eta) y = h^d L_BI f at
    the eigenvector's trace y.  An eigenvalue on a pole of tau, where the
    boundary condition is undefined, is a failure.
    """
    scan = homogeneous_scan(et, tau, window, lin, tol)
    n = lin.n_interior
    failures = []
    entries = []
    for lam, vec in zip(scan.roots, scan.vectors.T):
        try:
            tau_lam = tau.eval(lam)
        except SpectrumPoint:
            failures.append(f"eigenvalue {lam:.6g} hits a pole of tau")
            continue
        f = vec[:n]
        fnorm = float(np.linalg.norm(f))
        if fnorm <= 1e-10 * float(np.linalg.norm(vec)):
            failures.append(f"eigenvector at {lam:.6g} has vanishing interior part")
            continue
        r1, r2 = _problem_residuals(et, tau_lam, lam, f / fnorm, np.zeros(n))
        entries.append({"lambda": lam, "pde_residual": r1, "bc_residual": r2})
        if max(r1, r2) > tol:
            failures.append(f"homogeneous residual {max(r1, r2):.3e} at {lam:.6g}")
    failures += scan.failures
    return {"eigenvalues": entries, "scan_roots": list(scan.roots),
            "counts": scan.counts, "window_count": scan.window_count,
            "failures": failures, "ok": not failures}
