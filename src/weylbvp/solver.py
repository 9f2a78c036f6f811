"""Solution machinery for spectral-parameter-dependent boundary conditions:
the perturbed-resolvent formula (whose guard is the only sigma_min of
M + tau), the linearized block operator on the product space (with no state
for a constant tau: its selfadjoint extension in H), stored sparse with one
route for A - lam that both the compressed resolvent and the eigensolve (a
shift-invert Lanczos run per count-sized slice) factor, the eigenvalue count
and the count certificate of the linearization's eigenvalues, and the
eigenvalue correspondence and completeness check by counts and residuals.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionMismatch, RankDeficientCoupling, SpectrumPoint
from .krein import dense_lu
from .elliptic import DiscreteElliptic, EllipticTriple, SparseRoute, elliptic_triple
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
    ``dirichlet_factor``), outside the solvability set, and where f's pde or
    boundary residual exceeds ``RESIDUAL_LIMIT``: next to a Dirichlet
    eigenvalue T_D - lam is so ill-conditioned that f misses the problem.
    """
    g = np.asarray(g, dtype=complex)
    # one factorization of T_D - lam gives gamma(lam), M(lam) and the base
    # solve; gamma(conj lam) = conj gamma(lam) because T_D and E_eta are real
    wd = et.weyl_data(lam)
    gam = wd.gamma_mat
    tau_lam = tau.eval(lam)
    mt = wd.m_mat + tau_lam
    s = np.linalg.svd(mt, compute_uv=False)
    smin, scale = float(s[-1]), float(s[0])
    if smin <= U_THRESHOLD * max(scale, 1e-300):
        raise SpectrumPoint(f"lambda={lam} is outside the solvability set: "
                            f"sigma_min(M+tau)={smin:.3e} (scale {scale:.3e})")
    f = wd.resolvent(g)[0] - gam @ np.linalg.solve(mt, et.gamma_plus(gam.conj()) @ g)
    r1, r2 = _problem_residuals(et, tau_lam, lam, f, g)
    if not max(r1, r2) <= RESIDUAL_LIMIT:
        raise SpectrumPoint(f"lambda={lam} is numerically in the spectrum: the perturbed "
                            f"resolvent leaves residual {max(r1, r2):.3e}")
    return SolveReport(f=f, pde_residual=r1, bc_residual=r2, sigma_min=smin)


@dataclass(frozen=True)
class Linearization:
    """Block operator on (interior) x (realization state) whose compressed
    resolvent solves the parameter-dependent problem, stored sparse (CSR,
    nonzero entries only): L_II, one n_B x n_B block at the channel rows and
    state blocks of boundary size.

    The product metric is block diagonal, W = h^d I (+) G with ``weight``
    h^d > 0 and ``state_gram`` G; the operator is W-selfadjoint.  G is I for
    a rational tau, empty in ``build_fixed_extension`` and indefinite for the
    Krein companion of a constant tau (``realize_constant``).  It holds A and
    one route for A - lam (``sparse_route``), which the compressed resolvent
    and the eigensolve share.
    """

    matrix: scipy.sparse.csr_array = field(repr=False)
    weight: float
    state_gram: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_interior(self) -> int:
        return self.size - self.state_gram.shape[0]

    def w_symmetry_residual(self) -> float:
        """||WA - (WA)^H||_F / max(1, largest column norm of WA): no SVD, and
        never below the 2-norm ratio (the Frobenius norm bounds the 2-norm
        from above, a column norm bounds it from below)."""
        n, a = self.n_interior, self.matrix
        # W A: the interior rows scaled by h^d, the state rows multiplied by G
        # where G is not I
        wa = a.copy()
        wa.data[:a.indptr[n]] *= self.weight
        if not np.array_equal(self.state_gram, np.eye(self.size - n)):
            wa = scipy.sparse.vstack([wa[:n], scipy.sparse.csr_array(self.state_gram) @ a[n:]],
                                     format="csr")
        scale = np.sqrt(float(np.max(np.bincount(wa.indices, np.abs(wa.data) ** 2,
                                                 minlength=self.size))))
        return float(np.linalg.norm((wa - wa.conj().T).data) / max(1.0, scale))

    @cached_property
    def sparse_route(self) -> SparseRoute:
        """A - lam as a ``SparseRoute``, built on first use: the compressed
        resolvent and the eigensolve factor through it, so one linearization
        is ordered once.  Minimum degree on the pattern of A + A^T orders it
        (A is W-selfadjoint, so its pattern is nearly symmetric)."""
        return SparseRoute(self.matrix, self.size, 0, "MMD_AT_PLUS_A")

    def eigenpairs(self, window: tuple[float, float], count: int):
        """(eigenvalues, eigenvectors, residual) of the ``count`` eigenvalues
        nearest the window's midpoint sigma: real, increasing and
        W-orthonormal, from one shift-invert Lanczos run (``eigsh``) with a
        fixed start vector on one guarded LU of A - sigma (``sparse_route``;
        ``SpectrumPoint`` where ``sparse_lu`` refuses it).  With W = D =
        h^d I (+) I the operator z -> D^{1/2} (A - sigma)^{-1} D^{-1/2} z is
        the inverse of F - sigma for F = D^{1/2} A D^{-1/2}, Hermitian since
        A is W-selfadjoint, and its unit eigenvectors z give A's as
        x = D^{-1/2} z.  Nothing of interior size is dense.  The residual is
        max ||D^{1/2} (A x - lam x)||_2 / ||F||_1, A's own: an A that is not
        W-selfadjoint leaves it large.  ``homogeneous_scan`` reads which
        eigenvalues lie in the window against the count there.  A state
        other than G = I (or none) raises ``DimensionMismatch``.
        """
        import scipy.sparse.linalg
        n, size, a = self.n_interior, self.size, self.matrix
        if not np.array_equal(self.state_gram, np.eye(size - n)):
            raise DimensionMismatch("the eigensolve needs a Euclidean state, G = I")
        root = np.ones(size)
        root[:n] = np.sqrt(self.weight)         # D^{1/2}
        sigma = (window[0] + window[1]) / 2
        solve = self.sparse_route.solver(sigma, f"the eigensolve's A - sigma at "
                                                f"sigma={sigma:.6g}")
        inverse = scipy.sparse.linalg.LinearOperator(
            (size, size), matvec=lambda z: root * solve(z / root), dtype=a.dtype)
        # a random start from a fixed seed: all ones would be blind to the
        # modes that are odd under a symmetry of the grid
        start = np.random.default_rng(0).standard_normal(size).astype(a.dtype)
        # in shift-invert mode eigsh reads only the shape and dtype of A
        w, z = scipy.sparse.linalg.eigsh(a, k=count, sigma=sigma, OPinv=inverse, tol=0,
                                         v0=start)
        order = np.argsort(w)
        w, x = w[order], z[:, order] / root[:, None]
        rows = np.repeat(np.arange(size), np.diff(a.indptr))
        norm = float(np.max(np.bincount(a.indices, np.abs(a.data) * root[rows] / root[a.indices],
                                        minlength=size)))
        residual = float(np.max(np.linalg.norm(root[:, None] * (a @ x - x * w), axis=0)))
        return w, x, residual / max(norm, 1e-300)


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
    size is decomposed.  A is stored sparse, its nonzero entries only: the
    interior block is L_II plus one n_B x n_B block at the channel rows, and
    the state blocks are of boundary size.
    """
    return _linearize(et, realized.first, realized.g0, realized.g1, realized.second,
                      realized.state.gram)


def build_fixed_extension(et: EllipticTriple, theta: np.ndarray) -> Linearization:
    """A constant tau = Theta as one selfadjoint extension in H,
    A_Theta = L_II + L_IB (Theta + B)^{-1} h^d L_BI (B = ``boundary_block``):
    ``build_linearization``'s A with no state (Gamma_0 = I, Gamma_1 = Theta,
    C = Theta + B).  ``dense_lu`` measures C against ||Theta||_1 + ||B||_1, so
    a Theta + B that cancels raises ``RankDeficientCoupling``.
    """
    nb = et.de.n_boundary
    empty = np.zeros((0, nb))
    scale = sum(float(np.abs(m).sum(axis=0).max()) for m in (theta, et.boundary_block))
    return _linearize(et, empty, np.eye(nb), theta, empty, np.zeros((0, 0)), scale)


def _linearize(et: EllipticTriple, first, g0, g1, second, gram,
               scale: float = 0.0) -> Linearization:
    """``build_linearization``'s A from a triple's parts (n_K >= 0)."""
    de = et.de
    n, nb = de.n_interior, de.n_boundary
    if np.shape(g1) != (nb, g0.shape[1]):
        raise DimensionMismatch("the boundary dimension must match n_B")
    nk = gram.shape[0]
    coupling = np.vstack([first, g1 + et.boundary_block @ g0])
    # a real realization (real tau) gives a real C and a real A, factored and
    # stored real so that the eigensolve runs in real arithmetic
    if not any(np.any(m.imag) for m in (coupling, g0, second, gram)):
        coupling, g0, second, gram = coupling.real, g0.real, second.real, gram.real
    lu = dense_lu(coupling, RankDeficientCoupling, "the coupling matrix C", scale)
    # X C = [Gamma_0; second] as C^T X^T = [Gamma_0; second]^T
    blocks = scipy.linalg.lu_solve(lu, np.vstack([g0, second]).T, trans=1).T
    g0p, g0q = blocks[:nb, :nk], blocks[:nb, nk:]
    sp, sq = blocks[nb:, :nk], blocks[nb:, nk:]

    # A from its blocks, nonzero entries only: L_II, the n_B x n_B block at
    # the channel rows and columns, and the state blocks; L_IB and w L_BI
    # touch only the channel rows and columns
    rows, w_coupling = de.channel_rows, de.weight * de.coupling
    l_ii = de.sparse_blocks[0].tocoo()
    parts = [(l_ii.row, l_ii.col, l_ii.data)]
    for block, at_rows, at_cols in (
            (de.coupling[:, None] * g0q * w_coupling, rows, rows),
            (de.coupling[:, None] * g0p, rows, n + np.arange(nk)),
            (sq * w_coupling, n + np.arange(nk), rows),
            (sp, n + np.arange(nk), n + np.arange(nk))):
        i, j = np.nonzero(block)
        parts.append((at_rows[i], at_cols[j], block[i, j]))
    i, j, v = (np.concatenate(p) for p in zip(*parts))
    # CSR sums the entries that L_II and the channel block share
    a_mat = scipy.sparse.csr_array((v, (i, j)), shape=(n + nk, n + nk))
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
    solve = lin.sparse_route.solver(complex(lam), f"A - lambda at lambda={lam}")
    return solve(rhs)[:lin.n_interior]


# ``homogeneous_scan`` moves a window end where the count raises (on a pole of
# tau or an eigenvalue of the problem) by this step (relative to the window's
# largest |endpoint|, at least 1), doubling it, at most ``END_STEPS`` times.
COUNT_GAP = 1e-11
END_STEPS = 40
# ``homogeneous_scan`` splits its window at counted points until each slice
# holds at most this many eigenvalues, and solves each slice by one
# shift-invert Lanczos run; an eigenpair whose residual
# ||D^{1/2} (A x - lam x)||_2 / ||F||_1 (``Linearization.eigenpairs``) exceeds
# ``SLICE_RESIDUAL`` fails its slice's certificate.
SLICE_COUNT = 48
SLICE_RESIDUAL = 1e-12


def eigenvalue_count(et: EllipticTriple, tau, x: float) -> int:
    """N(x): the number of eigenvalues below the real x, with multiplicity.

    The bordered matrix S(x) = [[L_II - x, L_IB], [L_IB^T, -He(tau(x) + B)/h^d]]
    (B = ``boundary_block``, He the Hermitian part) has the Schur complement
    -(M(x) + He tau(x))/h^d on its boundary block, so by Haynsworth inertia
    additivity
        N(x) = #{Dirichlet eigenvalues < x} + #{poles of tau < x}
               + #{positive eigenvalues of M(x) + tau(x)}
             = #{negative eigenvalues of S(x)} + #{poles of tau < x}.
    For a rational Nevanlinna tau this counts the eigenvalues of the
    selfadjoint linearization, for a constant tau those of the fixed
    extension A_tau (``build_fixed_extension``).  One
    symmetric factorization of S(x) (``EllipticTriple.count_route``) pivots on
    its diagonal, so U = D L^H and the negative pivots are its negative
    eigenvalues (Sylvester).  S(x) is singular exactly at the eigenvalues of
    the problem; there, where a pivot leaves the diagonal, and at a pole of
    tau, ``SpectrumPoint`` is raised.  A Dirichlet eigenvalue is no
    singular point of the count.
    """
    mt = tau.eval(x) + et.boundary_block
    if not np.any(mt.imag):
        mt = mt.real                    # a real tau(x) is factored real
    block = (mt + mt.conj().T) / (-2 * et.de.weight)
    lu = et.count_route.factor(x, f"the bordered count matrix at x={x}", block)[0]
    negative = np.count_nonzero(lu.U.diagonal().real < 0)
    return int(negative + np.count_nonzero(tau.poles() < x))


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

    N is counted at both window ends; an end on a pole of tau or an
    eigenvalue of the problem, where N is undefined, moves outward, and
    after ``END_STEPS`` such points ``SpectrumPoint`` is raised.  The
    counted window [lo, hi) holds N(hi) - N(lo) eigenvalues before any
    eigensolve.  It is bisected at counted points (``split``) into pieces of
    at most ``SLICE_COUNT``, and neighbouring pieces are joined into slices
    while they hold at most that many.  A slice [a, b) holding k is solved
    by one ``Linearization.eigenpairs`` for the k + 1 eigenvalues nearest
    its midpoint: the k nearest are exactly those in [a, b) and the next
    lies outside.  Fewer than k inside, a residual above ``SLICE_RESIDUAL``
    or a refused shift fails the slice, which is split and solved again,
    down to a width of 2 tol or until its midpoint rounds onto an end; a
    slice that cannot be split further is reported as a failure.  More than k inside is a count that is short,
    which the certificate below reports.

    The eigenvalues found are then grouped into clusters, in which
    neighbours are closer than 2 tol, and N is counted once in each gap
    between clusters that holds no counted point yet: at its middle, or
    where N is undefined there at 3/8, 5/8, 1/4 or 3/4 of it, so at least
    tol/2 from every eigenvalue; a gap with no such point joins its two
    clusters.  The certificate holds when N
    jumps across each cluster by the cluster's size: N(x) counts the
    eigenvalues below x exactly, so the eigenvalues listed are then all
    those of the window.
    """
    import scipy.sparse.linalg
    lo, hi = float(window[0]), float(window[1])
    scale = max(1.0, abs(lo), abs(hi))
    counts: dict[float, int] = {}
    found, failures = [], []

    def count(x: float) -> int | None:
        try:
            counts[x] = eigenvalue_count(et, tau, x)
        except SpectrumPoint:
            return None
        return counts[x]

    def end(x: float, step: float) -> float:
        # the singular points are finite in number, so a doubling step
        # leaves them behind; a count that raises everywhere ends here
        for _ in range(END_STEPS):
            if count(x) is not None:
                return x
            x, step = x + step, 2 * step
        raise SpectrumPoint(f"the eigenvalue count is undefined at {END_STEPS} points "
                            f"moving out from the window end {float(window[step > 0]):.6g}")

    def split(a: float, b: float) -> float | None:
        # a point that rounds onto an end would split nothing
        for t in (0.5, 0.375, 0.625, 0.25, 0.75):
            if a < (x := a + t * (b - a)) < b and count(x) is not None:
                return x
        return None

    def certify(a: float, b: float, k: int) -> str:
        """Solve the slice [a, b) of k eigenvalues by the k + 1 nearest its
        midpoint; the reason it fails, or ''."""
        wanted = min(k + 1, lin.size - 2)
        if wanted < k:
            return f"{k} eigenvalues, more than the eigensolve takes"
        try:
            w, x, residual = lin.eigenpairs((a, b), wanted)
        except (SpectrumPoint, scipy.sparse.linalg.ArpackNoConvergence) as exc:
            return str(exc)
        if not residual <= SLICE_RESIDUAL:
            return f"eigenpair residual {residual:.3e}"
        inside = (w >= a) & (w < b)
        if np.count_nonzero(inside) < k:
            return (f"{np.count_nonzero(inside)} of the {w.size} eigenvalues nearest "
                    "its midpoint lie in it")
        # more than k inside means a count that is short: the certificate fails
        found.append((w[inside], x[:, inside]))
        return ""

    lo, hi = end(lo, -COUNT_GAP * scale), end(hi, COUNT_GAP * scale)
    # bisect the window at counted points into pieces of at most SLICE_COUNT
    # eigenvalues, then join neighbouring pieces while the slice holds at most
    # that many: a slice edge inside a cluster slows the Lanczos run
    pieces, slices = [(lo, hi)], []
    while pieces:
        a, b = pieces.pop()
        mid = split(a, b) if counts[b] - counts[a] > SLICE_COUNT and b - a > 2 * tol else None
        if mid is not None:
            pieces += [(mid, b), (a, mid)]
        elif counts[b] > counts[a]:     # a negative jump fails the cluster certificate
            if slices and slices[-1][1] == a and counts[b] - counts[slices[-1][0]] <= SLICE_COUNT:
                a = slices.pop()[0]
            slices.append((a, b))
    # solve each slice, in increasing order; one that fails is split and its
    # halves are solved again
    slices.reverse()
    while slices:
        a, b = slices.pop()
        k = counts[b] - counts[a]
        if k <= 0 or not (why := certify(a, b, k)):
            continue
        mid = split(a, b) if b - a > 2 * tol else None
        if mid is None:
            failures.append(f"slice [{a:.6g}, {b:.6g}) of {k} eigenvalues is not certified: {why}")
        else:
            slices += [(mid, b), (a, mid)]
    roots = [float(v) for w, _ in found for v in w]
    vectors = np.hstack([np.zeros((lin.size, 0))] + [x for _, x in found])

    # the slice points are counted already: a gap that holds one needs no count
    points = sorted(counts)
    for a, b in zip(roots, roots[1:]):
        if b - a >= 2 * tol and points[bisect.bisect_right(points, a)] >= b:
            split(a, b)
    cuts = sorted(counts)
    below = np.searchsorted(roots, cuts)
    failures += [f"count mismatch on [{a:.6g}, {b:.6g}): N jumps by "
                 f"{counts[b] - counts[a]}, the linearization has {k - j} eigenvalues"
                 for a, b, j, k in zip(cuts, cuts[1:], below, below[1:])
                 if counts[b] - counts[a] != k - j]
    if counts[hi] - counts[lo] != len(roots):
        failures.insert(0, f"incomplete: the count gives {counts[hi] - counts[lo]} "
                           f"eigenvalues in the window, the linearization {len(roots)}")
    return ScanResult(roots=tuple(roots), vectors=vectors,
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
