"""Finite-difference second-order elliptic operators on an interval or
rectangle, split into interior/boundary blocks, with the induced boundary
triple (Dirichlet operator, harmonic-type extension, discrete
Dirichlet-to-Neumann map).

The stencil is stored once, as L_II's upper band and one interior row and
L_IB entry per boundary channel; every other form is derived from these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import (
    ConfigError,
    NonPositiveCoefficient,
    RankDeficientCoupling,
    SpectrumPoint,
)
from .krein import COND_LIMIT, KreinSpace, _inverse_onenorm
from .triple import BoundaryTriple


# Bytes allowed for one dense array of interior size: the linearization's A
# and the generic triple's basis are the only ones left, and above this
# they are refused before allocation instead of exhausting the host.
DENSE_LIMIT_BYTES = 2**30


def _check_dense(shape: tuple, dtype, what: str) -> None:
    """Raise ``ConfigError`` when a dense array of this shape and dtype
    would exceed ``DENSE_LIMIT_BYTES``."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if nbytes > DENSE_LIMIT_BYTES:
        raise ConfigError(f"{what} would take {nbytes / 2**20:.0f} MiB as a dense "
                          f"{shape[0]}x{shape[1]} array, above the "
                          f"{DENSE_LIMIT_BYTES / 2**20:.0f} MiB limit")


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
    def l_ii(self) -> np.ndarray:
        """L_II as a dense matrix, built on each call."""
        return self.sparse_blocks[0].toarray()

    @property
    def l_ib(self) -> np.ndarray:
        """L_IB as a dense n_I x n_B matrix, built on each call."""
        return self.sparse_blocks[1].toarray()

    @cached_property
    def dirichlet_eigs(self) -> np.ndarray:
        """Eigenvalues of the symmetric L_II in increasing order."""
        return scipy.linalg.eigvals_banded(self.band)

    def default_eta(self) -> float:
        return float(self.dirichlet_eigs[0]) - 1.0

    @cached_property
    def _full_band(self) -> np.ndarray:
        """L_II in ``scipy.linalg.solve_banded`` storage, the upper band
        mirrored below the diagonal: ab[u + i - j, j] = L_II[i, j]."""
        u = self.band.shape[0] - 1
        ab = np.vstack([self.band, np.zeros((u, self.n_interior))])
        for k in range(1, u + 1):
            ab[u + k, :-k] = self.band[u - k, k:]
        return ab

    @cached_property
    def sparse_blocks(self) -> tuple:
        """(L_II, L_IB) in compressed sparse column form."""
        n, nb, u = self.n_interior, self.n_boundary, self.band.shape[0] - 1
        l_ii = scipy.sparse.dia_array((self._full_band, np.arange(u, -u - 1, -1)), shape=(n, n))
        l_ib = scipy.sparse.csc_array((self.coupling, (self.channel_rows, np.arange(nb))),
                                      shape=(n, nb))
        return scipy.sparse.csc_array(l_ii), l_ib

    def apply_l_bi(self, v: np.ndarray) -> np.ndarray:
        """L_BI v for a vector or matrix v: v at the channel rows, scaled."""
        scale = self.coupling if v.ndim == 1 else self.coupling[:, None]
        return scale * v[self.channel_rows]

    def dirichlet_solve(self, lam: complex, rhs: np.ndarray) -> np.ndarray:
        """(L_II - lam)^{-1} rhs for a vector or matrix rhs, by banded LU; the
        package's one Dirichlet guard raises ``SpectrumPoint`` within
        1e-10 max(1, max|mu|) of a Dirichlet eigenvalue mu."""
        eigs = self.dirichlet_eigs
        if np.min(np.abs(eigs - lam)) < 1e-10 * max(1.0, float(np.max(np.abs(eigs)))):
            raise SpectrumPoint(f"{lam} lies in the Dirichlet spectrum")
        u = self.band.shape[0] - 1
        shifted = self._full_band.astype(np.result_type(self._full_band, lam))
        shifted[u] -= lam                      # the main diagonal
        return scipy.linalg.solve_banded((u, u), shifted, rhs, overwrite_ab=True)

    def eta_extension(self, eta: float) -> np.ndarray:
        """E_eta with (L_II - eta) E_eta + L_IB = 0."""
        # a channel disconnected from the interior would have a meaningless trace
        size = np.abs(self.coupling)
        if np.any(size <= 1e-12 * max(1.0, float(size.max(initial=0.0)))):
            raise RankDeficientCoupling("a boundary channel is disconnected from the interior")
        return -self.dirichlet_solve(eta, self.l_ib)


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
    """Boundary triple of a discrete elliptic operator.

    States f = f_D + E_eta y are parameterized by the Dirichlet part f_D and
    the boundary trace y; Gamma_0 reads y, Gamma_1 is the (sign-flipped,
    weight-scaled) discrete conormal derivative of f_D.
    """

    de: DiscreteElliptic
    eta: float
    extension: np.ndarray = field(repr=False)

    @cached_property
    def bt(self) -> BoundaryTriple:
        """This triple as a generic ``BoundaryTriple`` over (C^{n_I}, h^d I) in
        T-coordinates (f_D, y), built on first use: only verification reads it.
        A basis above ``DENSE_LIMIT_BYTES`` raises ``ConfigError``."""
        de, ext, w = self.de, self.extension, self.de.weight
        n, nb = de.n_interior, de.n_boundary
        _check_dense((2 * n, n + nb), complex, "the generic triple's basis")
        t_basis = np.block([
            [np.eye(n), ext],
            [de.l_ii, self.eta * ext],
        ])
        g0 = np.hstack([np.zeros((nb, n)), np.eye(nb)])
        g1 = np.hstack([-w * de.l_ib.T, np.zeros((nb, nb))])
        state = KreinSpace(n, gram=w * np.eye(n))
        return BoundaryTriple(state, nb, t_basis, g0, g1)

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
    def boundary_block(self) -> np.ndarray:
        """h^d L_BI E_eta: the lambda-independent n_B x n_B term that the
        boundary condition adds to tau(lam) once the trace is eliminated."""
        return self.de.weight * self.de.apply_l_bi(self.extension)

    def weyl(self, lam: complex) -> np.ndarray:
        """h^d (eta - lam) L_BI (T_D - lam)^{-1} E_eta."""
        sol = self.de.dirichlet_solve(lam, self.extension)
        return self.de.weight * (self.eta - lam) * self.de.apply_l_bi(sol)


def elliptic_triple(de: DiscreteElliptic, eta: float | None = None) -> EllipticTriple:
    """The boundary triple of a discrete elliptic operator (its eta-extension)."""
    if eta is None:
        eta = de.default_eta()
    return EllipticTriple(de=de, eta=float(eta), extension=de.eta_extension(eta))


def sparse_lu(mat: scipy.sparse.csc_array, ordering: str,
              what: str) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of a square complex CSC matrix S under SuperLU's column
    ``ordering`` (its ``permc_spec``), guarded: raises ``SpectrumPoint`` when
    SuperLU finds S exactly singular or when the condition estimate
    ||S||_1 est||S^{-1}||_1 reaches ``COND_LIMIT``.  The one guarded sparse
    factorization: a ``SparseRoute`` calls it under a fill-reducing ordering
    once per operator, and under the natural ordering of its pre-permuted
    matrix at every later lambda.
    """
    # imported on first use: the eigen and realize actions factor no sparse
    # matrix, and loading the package adds about 2 MB of resident memory
    import scipy.sparse.linalg
    try:
        lu = scipy.sparse.linalg.splu(mat, permc_spec=ordering)
    except RuntimeError as exc:          # "Factor is exactly singular"
        raise SpectrumPoint(f"{what} is singular") from exc
    cond = float(abs(mat).sum(axis=0).max()) * _inverse_onenorm(lu.solve, mat.shape[0])
    if not cond < COND_LIMIT:
        raise SpectrumPoint(f"{what} is numerically singular "
                            f"(1-norm condition estimate {cond:.3e})")
    return lu


class SparseRoute:
    """The sparse matrix S(lam) = B - lam (I_k (+) 0) + (0 (+) T(lam)) of one
    fixed operator, factored and solved at each lam: B is fixed (``base``),
    the shift acts on the first k = ``shifted`` coordinates and T(lam) fills
    a trailing square block of size ``block_size`` (tau(lam) in the direct
    oracle; A - lam has none).

    Everything independent of lam is built once per route, and the operators
    make their routes at their first solve: the CSC pattern, which stores the
    shifted diagonal and T's entries even where they are zero, B's values,
    and the column order of the first guarded factorization under
    ``ordering`` (``columns``: column j of the stored matrix is column
    columns[j] of S).  Every later lam writes only its lam-dependent values
    into the pre-permuted data and makes one ``sparse_lu`` under the natural
    ordering; permuting columns changes neither 1-norm nor Hager's estimate,
    so the guard is the same.  T's pattern is that of its first value; a
    later value with a nonzero outside it grows the pattern, and the next
    factorization orders again.
    """

    def __init__(self, base, shifted: int, block_size: int, ordering: str):
        coo = scipy.sparse.coo_array(base)
        self.shape = coo.shape
        self._shifted, self._ordering = shifted, ordering
        self._mask = np.zeros((block_size, block_size), dtype=bool)
        # the shifted diagonal merged as zeros: b + 0.0 is exact where B has an entry
        diag = np.arange(shifted)
        self._assemble(np.concatenate([coo.row, diag]), np.concatenate([coo.col, diag]),
                       np.concatenate([coo.data, np.zeros(shifted, coo.dtype)]), None)

    def _assemble(self, rows, cols, vals, columns: np.ndarray | None) -> None:
        """Store the matrix with these entries (zeros included) in CSC form,
        column j holding column columns[j] of S (the natural order where
        ``columns`` is None), and find the slots of the shifted diagonal and
        of T's pattern."""
        n = self.shape[0]
        place = np.arange(n) if columns is None else np.argsort(columns)
        mat = scipy.sparse.csc_array((vals, (rows, place[cols])), shape=self.shape)
        # canonical CSC is sorted by (column, row): a slot is found by bisection
        keys = np.repeat(np.arange(n), np.diff(mat.indptr)) * n + mat.indices
        diag = np.arange(self._shifted)
        br, bc = self._block_entries(self._mask)
        self._diag = np.searchsorted(keys, place[diag] * n + diag)
        self._block = np.searchsorted(keys, place[bc] * n + br)
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
        cols = np.repeat(np.arange(self.shape[0]), np.diff(self._indptr))
        if self.columns is not None:
            cols = self.columns[cols]
        return self._indices, cols, self._data

    def solve(self, lam: complex, rhs: np.ndarray, what: str,
              block: np.ndarray | None = None) -> np.ndarray:
        """S(lam)^{-1} rhs with T(lam) = ``block``; raises ``SpectrumPoint``,
        naming ``what``, where ``sparse_lu`` does."""
        if block is not None and np.any(block[~self._mask]):
            grown = (block != 0) & ~self._mask
            self._mask |= grown
            br, bc = self._block_entries(grown)
            rows, cols, vals = self._entries()
            self._assemble(np.concatenate([rows, br]), np.concatenate([cols, bc]),
                           np.concatenate([vals, np.zeros(len(br), vals.dtype)]), None)
        data = self._data.astype(complex)
        data[self._diag] -= lam
        if block is not None:
            data[self._block] = block[self._mask]
        mat = scipy.sparse.csc_array((data, self._indices, self._indptr), shape=self.shape)
        ordered = self.columns is not None
        lu = sparse_lu(mat, "NATURAL" if ordered else self._ordering, what)
        sol = lu.solve(rhs)
        if not ordered:
            # argsort makes an array of its own: perm_c is a view that would
            # keep this whole LU alive
            self._assemble(*self._entries(), np.argsort(lu.perm_c))
            return sol
        x = np.empty_like(sol)
        x[self.columns] = sol
        return x


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
    return route.solve(lam, rhs, f"coupled system at lambda={lam}", tau.eval(lam))[:n]
