"""Finite-difference second-order elliptic operators on an interval or
rectangle, split into interior/boundary blocks, with the induced boundary
triple (Dirichlet operator, harmonic-type extension, discrete
Dirichlet-to-Neumann map).

The stencil is stored once, as L_II's upper band and one interior row and
L_IB entry per boundary channel; every other form is derived from these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (
    NonPositiveCoefficient,
    RankDeficientCoupling,
    SpectrumPoint,
)
from .krein import check_condition, sparse_lu
from .triple import WeylData


def _sampler(c):
    """Turn a constant or callable coefficient into a callable."""
    if callable(c):
        return c
    val = float(c)
    return lambda *args: val


@dataclass(frozen=True)
class DiscreteElliptic:
    """Stencil of -div(a grad u) + a0 u split by interior/boundary nodes.

    ``band`` is the upper band of the Dirichlet operator L_II, band[u + i - j, j]
    = L_II[i, j] for i <= j (u = 1 in 1D, nx in 2D).  Boundary channel k
    couples to interior row ``channel_rows[k]`` alone, by the L_IB entry
    ``coupling[k]``; L_BI = L_IBᵀ.  ``weight`` is the quadrature weight h^d
    of the interior inner product.
    """

    dim: int
    shape: tuple
    spacing: float
    band: np.ndarray = field(repr=False)
    channel_rows: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    interior_coords: np.ndarray = field(repr=False)
    boundary_coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        # the one check of both builders: a reversed domain (h < 0 makes the
        # weight h^d negative), a coefficient sample that is not finite, or
        # one so large that the stencil overflows, ends here
        if not (0 < self.spacing < np.inf and np.all(np.isfinite(self.band))
                and np.all(np.isfinite(self.coupling))):
            raise NonPositiveCoefficient(
                f"grid spacing must be positive (got {self.spacing}), and "
                "coefficient samples and stencil entries finite")

    @property
    def n_interior(self) -> int:
        return self.band.shape[1]

    @property
    def n_boundary(self) -> int:
        return len(self.coupling)

    @property
    def weight(self) -> float:
        return self.spacing ** self.dim

    @property
    def l_ib(self) -> np.ndarray:
        """L_IB as a dense n_I x n_B matrix, built on each call."""
        return self.sparse_blocks[1].toarray()

    @cached_property
    def dirichlet_eigs(self) -> np.ndarray:
        """All n eigenvalues of the symmetric L_II in increasing order, by a band
        reduction that costs O(n^2 u): a reference for checks, which no action
        computes."""
        return scipy.linalg.eigvals_banded(self.band)

    def default_eta(self) -> float:
        """mu_1 - 1 for the lowest Dirichlet eigenvalue mu_1, from one
        shift-invert Lanczos run on the ``dirichlet_factor`` at a shift 1 below
        Gershgorin's lower bound of the spectrum, where L_II - shift is positive
        definite, so that the eigenvalue nearest the shift is mu_1.  The start
        vector is all ones: fixed, and not orthogonal to the lowest
        eigenvector, which is positive because no off-diagonal entry of L_II
        is.  A stencil so large that the shift rounds onto the bound raises
        ``SpectrumPoint``: eta would round onto the spectrum too."""
        # imported on first use, as in ``sparse_lu``
        import scipy.sparse.linalg
        l_ii, n = self.sparse_blocks[0], self.n_interior
        bound = float(np.min(self.band[-1] - self._radius))
        shift = bound - 1.0
        if not shift < bound:
            raise SpectrumPoint(f"the Dirichlet spectrum starts above {bound:.6e}, where "
                                "eta = mu_1 - 1 does not resolve from mu_1")
        inverse = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=self.dirichlet_factor(shift), dtype=float)
        # six Lanczos vectors: eigsh's default of 20 takes half as long again
        # at 1D n = 399 for the same mu_1
        mu = scipy.sparse.linalg.eigsh(l_ii, k=1, sigma=shift, OPinv=inverse, tol=0,
                                       v0=np.ones(n), ncv=min(n, 6),
                                       return_eigenvectors=False)
        return float(mu[0]) - 1.0

    @cached_property
    def _radius(self) -> np.ndarray:
        """The absolute off-diagonal row sums of L_II, which are its column
        sums too: L_II is symmetric."""
        l_ii = self.sparse_blocks[0].tocoo()
        off = l_ii.row != l_ii.col
        return np.bincount(l_ii.row[off], np.abs(l_ii.data[off]), self.n_interior)

    @cached_property
    def _lu_band(self) -> np.ndarray:
        """L_II in LAPACK ``gbtrf`` storage, ab[2u + i - j, j] = L_II[i, j], the
        upper band mirrored below the diagonal and u zero rows above it for
        the fill of the row interchanges."""
        u = self.band.shape[0] - 1
        ab = np.zeros((3 * u + 1, self.n_interior), order="F")    # factored in place
        ab[u:2 * u + 1] = self.band
        for k in range(1, u + 1):
            ab[2 * u + k, :-k] = self.band[u - k, k:]
        return ab

    @cached_property
    def sparse_blocks(self) -> tuple:
        """(L_II, L_IB) in compressed sparse column form."""
        n, nb, u = self.n_interior, self.n_boundary, self.band.shape[0] - 1
        l_ii = scipy.sparse.dia_array((self._lu_band[u:], np.arange(u, -u - 1, -1)), shape=(n, n))
        l_ib = scipy.sparse.csc_array((self.coupling, (self.channel_rows, np.arange(nb))),
                                      shape=(n, nb))
        return scipy.sparse.csc_array(l_ii), l_ib

    def apply_l_bi(self, v: np.ndarray) -> np.ndarray:
        """L_BI v for a vector or matrix v: v at the channel rows, scaled."""
        scale = self.coupling if v.ndim == 1 else self.coupling[:, None]
        return scale * v[self.channel_rows]

    def dirichlet_factor(self, lam: complex) -> Callable[[np.ndarray], np.ndarray]:
        """One LU of L_II - lam (LAPACK ``gbtrf``, ``gttrf`` for a tridiagonal
        L_II) as the solve rhs -> (L_II - lam)^{-1} rhs of a vector or matrix.
        The package's one Dirichlet guard: it raises ``SpectrumPoint`` at an
        exactly zero pivot and where ``check_condition``, the guard of
        ``sparse_lu`` and ``dense_lu``, refuses L_II - lam.  A real lam's
        factor solves a complex rhs by its two parts."""
        u = self.band.shape[0] - 1
        shifted = self._lu_band.astype(np.result_type(self._lu_band, lam))
        shifted[2 * u] -= lam                  # the main diagonal
        norm = float(np.max(self._radius + np.abs(shifted[2 * u])))
        if u == 1:
            # gttrf divides by each pivot, gbtrf multiplies by its reciprocal:
            # for -u'' at n = 799 that gives E_eta 27 times gttrf's error
            trf, trs = scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), (shifted,))
            dl, d, du, du2, piv, info = trf(shifted[3, :-1], shifted[2], shifted[1, 1:])
            factor = {"dl": dl, "d": d, "du": du, "du2": du2, "ipiv": piv}
        else:
            trf, trs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (shifted,))
            lu, piv, info = trf(shifted, u, u, overwrite_ab=True)
            factor = {"ab": lu, "kl": u, "ku": u, "ipiv": piv}
        if info > 0:
            raise SpectrumPoint(f"L_II - lambda at lambda={lam} is singular: "
                                "lambda is in the Dirichlet spectrum")
        split = not np.iscomplexobj(shifted)

        def solve(rhs: np.ndarray) -> np.ndarray:
            if split and np.iscomplexobj(rhs):
                return trs(b=rhs.real, **factor)[0] + 1j * trs(b=rhs.imag, **factor)[0]
            return trs(b=rhs, **factor)[0]

        # L_II is real symmetric, so (L_II - lam)^H = conj (L_II - lam) conj
        check_condition(
            norm, lambda b, trans="N": solve(b) if trans == "N" else solve(b.conj()).conj(),
            self.n_interior, SpectrumPoint, f"L_II - lambda at lambda={lam}",
            "lambda is in the Dirichlet spectrum")
        return solve

    def eta_extension(self, eta: float) -> np.ndarray:
        """E_eta with (L_II - eta) E_eta + L_IB = 0."""
        # a channel disconnected from the interior would have a meaningless trace
        size = np.abs(self.coupling)
        if np.any(size <= 1e-12 * max(1.0, float(size.max(initial=0.0)))):
            raise RankDeficientCoupling("a boundary channel is disconnected from the interior")
        return -self.dirichlet_factor(eta)(self.l_ib)


def build_1d(n: int, p=1.0, a=0.0, interval=(0.0, 1.0)) -> DiscreteElliptic:
    """Three-point stencil for -(p u')' + a u with n interior nodes.

    Boundary nodes ordered (left, right).
    """
    if n < 3:
        raise NonPositiveCoefficient("need at least 3 interior nodes")
    x0, x1 = float(interval[0]), float(interval[1])
    h = (x1 - x0) / (n + 1)
    psamp, asamp = _sampler(p), _sampler(a)
    xs = x0 + h * np.arange(n + 2)            # nodes 0..n+1
    phalf = np.array([psamp(x0 + h * (k + 0.5)) for k in range(n + 1)], dtype=float)
    if np.any(phalf <= 0):
        raise NonPositiveCoefficient("diffusion coefficient p must be positive")
    avals = np.array([asamp(x) for x in xs[1:-1]], dtype=float)

    band = np.zeros((2, n))
    # an overflowing stencil entry is refused by DiscreteElliptic, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        band[0, 1:] = -phalf[1:n] / h**2
        band[1] = (phalf[:-1] + phalf[1:]) / h**2 + avals
        coupling = -phalf[[0, n]] / h**2
    return DiscreteElliptic(
        dim=1, shape=(n,), spacing=h, band=band,
        channel_rows=np.array([0, n - 1]),
        coupling=coupling,
        interior_coords=xs[1:-1].reshape(-1, 1),
        boundary_coords=np.array([[x0], [x1]]),
    )


def build_2d(nx: int, ny: int, a11=1.0, a22=1.0, a=0.0,
             rect=(0.0, 1.0, 0.0, 1.0)) -> DiscreteElliptic:
    """Five-point stencil for -(a11 u_x)_x - (a22 u_y)_y + a u on a rectangle.

    Requires equal spacing in both directions.  Interior nodes are numbered
    x-fastest.  The 2nx + 2ny - 4 boundary channels run counterclockwise from
    the lower-left corner: one per edge node, and one at each corner point that
    merges its two neighbours, which couple only to the interior corner node.
    Channel k couples to the k-th node of the interior's outer ring, walked
    counterclockwise from node (1, 1).
    """
    if nx < 3 or ny < 3:
        raise NonPositiveCoefficient("need at least 3 interior nodes per direction")
    x0, x1, y0, y1 = (float(v) for v in rect)
    hx = (x1 - x0) / (nx + 1)
    hy = (y1 - y0) / (ny + 1)
    if not (hx > 0 and hy > 0):
        raise NonPositiveCoefficient(
            f"grid spacing must be positive (got hx={hx}, hy={hy})")
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise NonPositiveCoefficient("grid spacing must match in both directions")
    h = hx
    s11, s22, sa = _sampler(a11), _sampler(a22), _sampler(a)
    xs, ys = x0 + h * np.arange(nx + 2), y0 + h * np.arange(ny + 2)     # nodes 0..n+1
    xf, yf = x0 + h * (np.arange(nx + 1) + 0.5), y0 + h * (np.arange(ny + 1) + 0.5)
    # each face coefficient once: ax[j, k] on the x-face k + 1/2 of interior
    # row j + 1, ay[k, i] on the y-face k + 1/2 of interior column i + 1
    ax = np.array([[s11(x, y) for x in xf.tolist()] for y in ys[1:-1].tolist()], dtype=float)
    ay = np.array([[s22(x, y) for x in xs[1:-1].tolist()] for y in yf.tolist()], dtype=float)
    if np.any(ax <= 0) or np.any(ay <= 0):
        raise NonPositiveCoefficient("diffusion coefficients must be positive")
    av = np.array([[sa(x, y) for x in xs[1:-1].tolist()] for y in ys[1:-1].tolist()],
                  dtype=float)
    # an overflowing stencil entry is refused by DiscreteElliptic, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        gx, gy = -ax / h**2, -ay / h**2            # the off-diagonal entries
        band = np.zeros((nx + 1, nx * ny))
        band[0].reshape(ny, nx)[1:] = gy[1:-1]             # L_II[r - nx, r]
        band[nx - 1].reshape(ny, nx)[:, 1:] = gx[:, 1:-1]  # L_II[r - 1, r]
        band[nx] = ((ax[:, :-1] + ax[:, 1:] + ay[:-1] + ay[1:]) / h**2 + av).ravel()

    # the rows of the interior's outer ring, counterclockwise from (1, 1)
    rows = np.concatenate([np.arange(nx), nx * np.arange(2, ny) - 1,
                           nx * ny - 1 - np.arange(nx), nx * np.arange(ny - 2, 0, -1)])
    rj, ri = np.divmod(rows, nx)
    west, east, south, north = ri == 0, ri == nx - 1, rj == 0, rj == ny - 1
    # a corner node's channel carries both of its boundary faces
    coupling = (np.where(west, gx[rj, 0], 0.0) + np.where(east, gx[rj, nx], 0.0)
                + np.where(south, gy[0, ri], 0.0) + np.where(north, gy[ny, ri], 0.0))
    # a channel sits one step out across each face it carries: a corner one at the corner
    bi, bj = ri + 1 - west + east, rj + 1 - south + north
    return DiscreteElliptic(
        dim=2, shape=(nx, ny), spacing=h, band=band,
        channel_rows=rows, coupling=coupling,
        interior_coords=np.column_stack([np.tile(xs[1:-1], ny), np.repeat(ys[1:-1], nx)]),
        boundary_coords=np.column_stack([xs[bi], ys[bj]]),
    )


@dataclass(frozen=True)
class EllipticTriple:
    """Boundary triple of a discrete elliptic operator over (C^{n_I}, h^d I).

    States f = f_D + E_eta y are parameterized by the Dirichlet part f_D and
    the boundary trace y; Gamma_0 reads y, Gamma_1 = -h^d L_BI f_D is the
    (sign-flipped, weight-scaled) discrete conormal derivative of f_D.  In
    these T-coordinates first = [I, E_eta], second = [L_II, eta E_eta] and
    K_lam = [second - lam first; Gamma_0] = [[L_II - lam, (eta - lam) E_eta],
    [0, I]] is block upper triangular, so every point needs only the banded
    LU of ``dirichlet_factor``: ``weyl_data``, ``green_residual`` and
    ``gamma_plus`` give ``verify_triple_identities`` what a dense
    ``BoundaryTriple`` gives it, and nothing of interior size n_I x n_I is
    formed.
    """

    de: DiscreteElliptic
    eta: float
    extension: np.ndarray = field(repr=False)

    @cached_property
    def direct_route(self) -> SparseRoute:
        """The direct oracle's coupled system (see ``direct_solve``) as a
        ``SparseRoute``, built on first use: the shift by lam acts on f and
        tau(lam) is the trailing n_B x n_B block."""
        de = self.de
        l_ii, l_ib = de.sparse_blocks
        shifted = l_ii - self.eta * scipy.sparse.identity(de.n_interior, format="csc")
        base = scipy.sparse.bmat([
            [l_ii, None, l_ib],
            [shifted, -shifted, l_ib],
            [None, -de.weight * l_ib.T, None],
        ], format="coo")
        # COLAMD, once per triple: the pattern is unsymmetric, and minimum
        # degree on S + S^T fills it about 2.6 times more (six times the
        # factor time at 2D 50x50)
        return SparseRoute(base, de.n_interior, de.n_boundary, "COLAMD")

    @cached_property
    def count_route(self) -> SparseRoute:
        """The bordered matrix S(x) = [[L_II - x, L_IB], [L_IB^T, T]] of the
        eigenvalue count as a symmetric ``SparseRoute``, built on first use:
        the shift by x acts on the interior and T is the trailing n_B x n_B
        block.  Minimum degree on S + S^T orders it once per triple, so the
        dense boundary block is eliminated last."""
        l_ii, l_ib = self.de.sparse_blocks
        base = scipy.sparse.bmat([[l_ii, l_ib], [l_ib.T, None]], format="coo")
        return SparseRoute(base, self.de.n_interior, self.de.n_boundary, "MMD_AT_PLUS_A",
                           symmetric=True)

    @cached_property
    def boundary_block(self) -> np.ndarray:
        """h^d L_BI E_eta: the lambda-independent n_B x n_B term that the
        boundary condition adds to tau(lam) once the trace is eliminated."""
        return self.de.weight * self.de.apply_l_bi(self.extension)

    def weyl_data(self, lam: complex) -> WeylData:
        """gamma(lam) = E_eta + (lam - eta)(T_D - lam)^{-1} E_eta and
        M(lam) = h^d (eta - lam) L_BI (T_D - lam)^{-1} E_eta from one
        ``dirichlet_factor``, which the data's ``resolvent`` reuses:
        (T_D - lam)^{-1} x is the f_D part of the element of A_0 = ker Gamma_0
        (its y is 0), and -h^d L_BI (T_D - lam)^{-1} x its Gamma_1 image."""
        solve = self.de.dirichlet_factor(lam)
        sol = solve(self.extension)

        def resolvent(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            res = solve(x)
            return res, -self.de.weight * self.de.apply_l_bi(res)

        return WeylData(lam, self.extension + (lam - self.eta) * sol,
                        self.de.weight * (self.eta - lam) * self.de.apply_l_bi(sol), resolvent)

    def conjugate_data(self, wd: WeylData) -> WeylData:
        """``weyl_data`` at conj lam from the data at lam, with no factorization:
        L_II and E_eta are real, so gamma(conj lam) = conj gamma(lam),
        M(conj lam) = conj M(lam), and the resolvent at conj lam is
        x -> conj of the resolvent at lam of conj x."""
        def resolvent(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            res, image = wd.resolvent(x.conj())
            return res.conj(), image.conj()

        return WeylData(np.conj(wd.lam), wd.gamma_mat.conj(), wd.m_mat.conj(), resolvent)

    def gamma_plus(self, gamma_mat: np.ndarray) -> np.ndarray:
        """Adjoint G -> H of a map H <- G: gamma^+ = h^d gamma^H."""
        return self.de.weight * gamma_mat.conj().T

    def green_residual(self) -> float:
        """``BoundaryTriple.green_residual`` of this triple, block by block in
        the T-coordinates (f_D, y), with the same scale rule.  The left side
        h^d (first^H second - second^H first) has the f_D-f_D block
        h^d (L_II - L_II^T), kept sparse, two off-diagonal blocks n_B wide and
        the y-y block h^d (eta - conj eta) E_eta^H E_eta, zero for the real
        eta; the right side Gamma_0^H Gamma_1 - Gamma_1^H Gamma_0 has
        h^d L_IB in the f_D-y block and -h^d L_BI in the y-f_D block."""
        de, ext, eta, w = self.de, self.extension, self.eta, self.de.weight
        l_ii = de.sparse_blocks[0]
        skew = (w * (l_ii - l_ii.T)).power(2)
        lt_ext = l_ii.T @ ext                          # L_II^H E_eta: L_II is real
        upper = w * (eta * ext - lt_ext)               # rows f_D, columns y
        lower = w * (lt_ext.conj().T - eta * ext.conj().T)   # rows y, columns f_D
        bound = w * de.l_ib
        skew_cols = np.asarray(skew.sum(axis=0)).ravel()
        lhs_cols = np.concatenate([np.sqrt(skew_cols + np.sum(np.abs(lower) ** 2, axis=0)),
                                   np.linalg.norm(upper, axis=0)])
        rhs_cols = np.concatenate([np.linalg.norm(bound, axis=1), np.linalg.norm(bound, axis=0)])
        scale = max(1.0, float(np.max(lhs_cols)), float(np.max(rhs_cols)))
        diff = np.sqrt(skew_cols.sum() + np.linalg.norm(upper - bound) ** 2
                       + np.linalg.norm(lower + bound.T) ** 2)
        return float(diff / scale)


def elliptic_triple(de: DiscreteElliptic, eta: float | None = None) -> EllipticTriple:
    """The boundary triple of a discrete elliptic operator (its eta-extension)."""
    if eta is None:
        eta = de.default_eta()
    return EllipticTriple(de=de, eta=float(eta), extension=de.eta_extension(eta))


class SparseRoute:
    """The sparse matrix S(lam) = B - lam (I_k (+) 0) + (0 (+) T(lam)) of one
    fixed operator, factored (and solved) at each lam: B is fixed (``base``),
    the shift acts on the first k = ``shifted`` coordinates and T(lam) fills
    a trailing square block of size ``block_size`` (tau(lam) in the direct
    oracle; A - lam has none).

    Everything independent of lam is built once per route, and the operators
    make their routes at their first use: the CSC pattern, which stores the
    shifted diagonal and T's entries even where they are zero, B's values,
    and the column order of the first guarded factorization under
    ``ordering`` (``columns``: column j of the stored matrix is column
    columns[j] of S).  Every later lam writes only its lam-dependent values
    into the pre-permuted data and makes one ``sparse_lu`` under the natural
    ordering; permuting columns changes neither 1-norm nor Hager's estimate,
    so the guard is the same.  T's pattern is that of its first value; a
    later value with a nonzero outside it grows the pattern, and the next
    factorization orders again.  A ``symmetric`` route permutes its rows as
    its columns and factors in ``sparse_lu``'s symmetric mode; it is
    factored, never solved.
    """

    def __init__(self, base, shifted: int, block_size: int, ordering: str,
                 symmetric: bool = False):
        coo = scipy.sparse.coo_array(base)
        self.shape = coo.shape
        self._shifted, self._ordering, self._symmetric = shifted, ordering, symmetric
        self._mask = np.zeros((block_size, block_size), dtype=bool)
        # the shifted diagonal merged as zeros: b + 0.0 is exact where B has an entry
        diag = np.arange(shifted)
        self._assemble(np.concatenate([coo.row, diag]), np.concatenate([coo.col, diag]),
                       np.concatenate([coo.data, np.zeros(shifted, coo.dtype)]), None)

    def _assemble(self, rows, cols, vals, columns: np.ndarray | None) -> None:
        """Store the matrix with these entries (zeros included) in CSC form,
        column j holding column columns[j] of S (the natural order where
        ``columns`` is None), and row j row columns[j] in a symmetric route;
        find the slots of the shifted diagonal and of T's pattern."""
        n = self.shape[0]
        place = np.arange(n) if columns is None else np.argsort(columns)
        row_place = place if self._symmetric else np.arange(n)
        mat = scipy.sparse.csc_array((vals, (row_place[rows], place[cols])), shape=self.shape)
        # canonical CSC is sorted by (column, row): a slot is found by bisection
        keys = np.repeat(np.arange(n), np.diff(mat.indptr)) * n + mat.indices
        diag = np.arange(self._shifted)
        br, bc = self._block_entries(self._mask)
        self._diag = np.searchsorted(keys, place[diag] * n + row_place[diag])
        self._block = np.searchsorted(keys, place[bc] * n + row_place[br])
        # SuperLU's own index type, so that no factorization copies them
        self._indptr, self._indices = mat.indptr.astype(np.intc), mat.indices.astype(np.intc)
        self._data, self.columns = mat.data, columns

    def _block_entries(self, mask: np.ndarray) -> tuple:
        """(rows, columns) in S of the entries of T that ``mask`` marks."""
        off = self.shape[0] - len(mask)
        rows, cols = np.nonzero(mask)
        return rows + off, cols + off

    def _entries(self) -> tuple:
        """(rows, columns, values) of the stored matrix, numbered as in S."""
        rows = self._indices
        cols = np.repeat(np.arange(self.shape[0]), np.diff(self._indptr))
        if self.columns is not None:
            cols = self.columns[cols]
            if self._symmetric:
                rows = self.columns[rows]
        return rows, cols, self._data

    def factor(self, lam: complex, what: str, block: np.ndarray | None = None) -> tuple:
        """(the ``sparse_lu`` of S(lam) with T(lam) = ``block``, the columns of
        S that the factored matrix holds as in ``columns``); real for a real
        lam and block.  Raises ``SpectrumPoint``, naming ``what``, where
        ``sparse_lu`` does."""
        if block is not None and np.any(block[~self._mask]):
            grown = (block != 0) & ~self._mask
            self._mask |= grown
            br, bc = self._block_entries(grown)
            rows, cols, vals = self._entries()
            self._assemble(np.concatenate([rows, br]), np.concatenate([cols, bc]),
                           np.concatenate([vals, np.zeros(len(br), vals.dtype)]), None)
        columns = self.columns
        data = self._data.astype(np.result_type(self._data, lam, 0.0 if block is None else block))
        data[self._diag] -= lam
        if block is not None:
            data[self._block] = block[self._mask]
        mat = scipy.sparse.csc_array((data, self._indices, self._indptr), shape=self.shape)
        lu = sparse_lu(mat, self._ordering if columns is None else "NATURAL", what,
                       self._symmetric)
        if columns is None:
            # argsort makes an array of its own: perm_c is a view that would
            # keep this whole LU alive
            self._assemble(*self._entries(), np.argsort(lu.perm_c))
        return lu, columns

    def solver(self, lam: complex, what: str,
               block: np.ndarray | None = None) -> Callable[[np.ndarray], np.ndarray]:
        """rhs -> S(lam)^{-1} rhs with T(lam) = ``block``, from one ``factor``
        (real for a real lam and block, whose solve takes a real rhs); raises
        ``SpectrumPoint`` where ``factor`` does."""
        lu, columns = self.factor(lam, what, block)
        if columns is None:
            return lu.solve

        def solve(rhs: np.ndarray) -> np.ndarray:
            sol = lu.solve(rhs)
            x = np.empty_like(sol)
            x[columns] = sol
            return x

        return solve


def direct_solve(et: EllipticTriple, tau, lam: complex, g: np.ndarray) -> np.ndarray:
    """Independent oracle: one sparse LU of the unreduced coupled system in
    (f, f_D, y),
        (L_II - lam) f + L_IB y = g,
        (L_II - eta)(f - f_D) + L_IB y = 0,
        tau(lam) y - h^d L_BI f_D = 0.
    It never forms E_eta and never factors T_D - lam, so it is the route that
    shares no factorization with the perturbed-resolvent formula.  The
    system's pattern, lam-independent values and column ordering are built
    once per triple (``EllipticTriple.direct_route``); each lam writes the
    shifted diagonal and tau(lam) and makes one LU.  Raises
    ``SpectrumPoint`` where the system is singular (see ``sparse_lu``).
    """
    route, n = et.direct_route, et.de.n_interior
    rhs = np.zeros(route.shape[0], dtype=complex)
    rhs[:n] = g
    return route.solver(complex(lam), f"coupled system at lambda={lam}",
                        tau.eval(lam))(rhs)[:n]
