"""Finite-difference second-order elliptic operators on an interval or
rectangle, split into interior/boundary blocks, with the induced boundary
triple (Dirichlet operator, harmonic-type extension, discrete
Dirichlet-to-Neumann map).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    NonPositiveCoefficient,
    RankDeficientCoupling,
    SingularSystem,
    SpectrumPoint,
)
from .krein import COND_LIMIT, KreinSpace
from .triple import BoundaryTriple


def _sampler(c):
    """Turn a constant or callable coefficient into a callable."""
    if callable(c):
        return c
    val = float(c)
    return lambda *args: val


@dataclass(frozen=True)
class DiscreteElliptic:
    """Stencil matrix of -div(a grad u) + a0 u split by interior/boundary nodes.

    ``l_ii`` acts interior-to-interior (the Dirichlet operator), ``l_ib``
    couples boundary values into interior equations, ``l_bi`` = l_ibᵀ, and
    ``weight`` is the quadrature weight h^d of the interior inner product.
    """

    dim: int
    shape: tuple
    spacing: float
    l_ii: np.ndarray = field(repr=False)
    l_ib: np.ndarray = field(repr=False)
    l_bi: np.ndarray = field(repr=False)
    interior_coords: np.ndarray = field(repr=False)
    boundary_coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        # the one check of both builders: a reversed domain (h < 0 makes the
        # weight h^d negative), a coefficient sample that is not finite, or
        # one so large that the stencil overflows, ends here
        if not (0 < self.spacing < np.inf and np.all(np.isfinite(self.l_ii))
                and np.all(np.isfinite(self.l_ib))):
            raise NonPositiveCoefficient(
                f"grid spacing must be positive (got {self.spacing}), and "
                "coefficient samples and stencil entries finite")

    @property
    def n_interior(self) -> int:
        return self.l_ii.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.l_ib.shape[1]

    @property
    def weight(self) -> float:
        return self.spacing ** self.dim

    @cached_property
    def dirichlet_eigs(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.l_ii)

    def default_eta(self) -> float:
        return float(self.dirichlet_eigs[0]) - 1.0

    @cached_property
    def banded_l_ii(self) -> tuple[tuple[int, int], np.ndarray]:
        """((lower, upper), ab): the bandwidths of ``l_ii``, read off its
        nonzero pattern, and its diagonals in ``scipy.linalg.solve_banded``
        storage, ab[upper + i - j, j] = l_ii[i, j].
        """
        rows, cols = np.nonzero(self.l_ii)
        lower = int(np.max(rows - cols, initial=0))
        upper = int(np.max(cols - rows, initial=0))
        n = self.n_interior
        ab = np.zeros((lower + upper + 1, n))
        for k in range(-lower, upper + 1):
            ab[upper - k, max(k, 0):n + min(k, 0)] = np.diagonal(self.l_ii, k)
        return (lower, upper), ab

    def dirichlet_solve(self, lam: complex, rhs: np.ndarray) -> np.ndarray:
        """(L_II - lam)^{-1} rhs for a vector or matrix rhs, by banded LU."""
        bands, ab = self.banded_l_ii
        shifted = ab.astype(np.result_type(ab, lam))
        shifted[bands[1]] -= lam               # the main diagonal
        return scipy.linalg.solve_banded(bands, shifted, rhs, overwrite_ab=True)

    def eta_extension(self, eta: float) -> np.ndarray:
        """E_eta with (L_II - eta) E_eta + L_IB = 0."""
        # every boundary node must couple to the interior (a disconnected node
        # would make its trace coordinate meaningless); note that in 2D the two
        # neighbors of a corner alias the same interior row, so full column rank
        # is structurally impossible and is not required by the construction
        colnorm = np.linalg.norm(self.l_ib, axis=0)
        if np.any(colnorm <= 1e-12 * max(1.0, float(colnorm.max(initial=0.0)))):
            raise RankDeficientCoupling("a boundary node is disconnected from the interior")
        if np.min(np.abs(self.dirichlet_eigs - eta)) < 1e-10 * max(
                1.0, float(np.max(np.abs(self.dirichlet_eigs)))):
            raise SpectrumPoint(f"eta={eta} lies in the Dirichlet spectrum")
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

    l_ii = np.zeros((n, n))
    for i in range(n):           # interior node i+1
        l_ii[i, i] = (phalf[i] + phalf[i + 1]) / h**2 + avals[i]
        if i > 0:
            l_ii[i, i - 1] = -phalf[i] / h**2
        if i < n - 1:
            l_ii[i, i + 1] = -phalf[i + 1] / h**2
    l_ib = np.zeros((n, 2))
    l_ib[0, 0] = -phalf[0] / h**2
    l_ib[-1, 1] = -phalf[n] / h**2
    return DiscreteElliptic(
        dim=1, shape=(n,), spacing=h,
        l_ii=l_ii, l_ib=l_ib, l_bi=l_ib.T.copy(),
        interior_coords=xs[1:-1].reshape(-1, 1),
        boundary_coords=np.array([[x0], [x1]]),
    )


def build_2d(nx: int, ny: int, a11=1.0, a22=1.0, a=0.0,
             rect=(0.0, 1.0, 0.0, 1.0)) -> DiscreteElliptic:
    """Five-point stencil for -(a11 u_x)_x - (a22 u_y)_y + a u on a rectangle.

    Requires equal spacing in both directions.  Interior nodes are numbered
    x-fastest; boundary nodes run counterclockwise from the lower-left,
    corners excluded (they never touch an interior stencil).
    """
    if nx < 3 or ny < 3:
        raise NonPositiveCoefficient("need at least 3 interior nodes per direction")
    x0, x1, y0, y1 = (float(v) for v in rect)
    hx = (x1 - x0) / (nx + 1)
    hy = (y1 - y0) / (ny + 1)
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise NonPositiveCoefficient("grid spacing must match in both directions")
    h = hx
    s11, s22, sa = _sampler(a11), _sampler(a22), _sampler(a)

    def xpos(i):
        return x0 + h * i

    def ypos(j):
        return y0 + h * j

    def idx(i, j):               # interior (i=1..nx, j=1..ny)
        return (j - 1) * nx + (i - 1)

    # boundary ordering: bottom L->R, right B->T, top R->L, left T->B
    blist = ([("b", i, 0) for i in range(1, nx + 1)]
             + [("r", nx + 1, j) for j in range(1, ny + 1)]
             + [("t", i, ny + 1) for i in range(nx, 0, -1)]
             + [("l", 0, j) for j in range(ny, 0, -1)])
    bindex = {(i, j): k for k, (_, i, j) in enumerate(blist)}

    n_i, n_b = nx * ny, len(blist)
    l_ii = np.zeros((n_i, n_i))
    l_ib = np.zeros((n_i, n_b))
    for j in range(1, ny + 1):
        for i in range(1, nx + 1):
            row = idx(i, j)
            cw = s11(xpos(i - 0.5), ypos(j))
            ce = s11(xpos(i + 0.5), ypos(j))
            cs = s22(xpos(i), ypos(j - 0.5))
            cn = s22(xpos(i), ypos(j + 0.5))
            if min(cw, ce, cs, cn) <= 0:
                raise NonPositiveCoefficient("diffusion coefficients must be positive")
            l_ii[row, row] = (cw + ce + cs + cn) / h**2 + sa(xpos(i), ypos(j))
            for coef, ii, jj in ((cw, i - 1, j), (ce, i + 1, j),
                                 (cs, i, j - 1), (cn, i, j + 1)):
                val = -coef / h**2
                if 1 <= ii <= nx and 1 <= jj <= ny:
                    l_ii[row, idx(ii, jj)] = val
                else:
                    l_ib[row, bindex[(ii, jj)]] = val
    icoords = np.array([[xpos(i), ypos(j)]
                        for j in range(1, ny + 1) for i in range(1, nx + 1)])
    bcoords = np.array([[xpos(i), ypos(j)] for _, i, j in blist])
    return DiscreteElliptic(
        dim=2, shape=(nx, ny), spacing=h,
        l_ii=l_ii, l_ib=l_ib, l_bi=l_ib.T.copy(),
        interior_coords=icoords, boundary_coords=bcoords,
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
        T-coordinates (f_D, y), built on first use: only verification reads it."""
        de, ext, w = self.de, self.extension, self.de.weight
        n, nb = de.n_interior, de.n_boundary
        t_basis = np.block([
            [np.eye(n), ext],
            [de.l_ii, self.eta * ext],
        ])
        g0 = np.hstack([np.zeros((nb, n)), np.eye(nb)])
        g1 = np.hstack([-w * de.l_bi, np.zeros((nb, nb))])
        state = KreinSpace(n, gram=w * np.eye(n))
        return BoundaryTriple(state, nb, t_basis, g0, g1)

    def gamma(self, lam: complex) -> np.ndarray:
        """(I + (lam - eta)(T_D - lam)^{-1}) E_eta."""
        sol = self.de.dirichlet_solve(lam, self.extension)
        return self.extension + (lam - self.eta) * sol

    def weyl(self, lam: complex) -> np.ndarray:
        """h^d (eta - lam) L_BI (T_D - lam)^{-1} E_eta."""
        sol = self.de.dirichlet_solve(lam, self.extension)
        return self.de.weight * (self.eta - lam) * (self.de.l_bi @ sol)


def elliptic_triple(de: DiscreteElliptic, eta: float | None = None) -> EllipticTriple:
    """The boundary triple of a discrete elliptic operator (its eta-extension)."""
    if eta is None:
        eta = de.default_eta()
    return EllipticTriple(de=de, eta=float(eta), extension=de.eta_extension(eta))


def direct_solve(et: EllipticTriple, tau, lam: complex, g: np.ndarray) -> np.ndarray:
    """Independent oracle: assemble and solve the coupled interior/boundary
    system (T_D - lam) f_D + (eta - lam) E_eta y = g, tau(lam) y = h^d L_BI f_D.
    """
    de = et.de
    n, nb = de.n_interior, de.n_boundary
    w = de.weight
    sys = np.zeros((n + nb, n + nb), dtype=complex)
    sys[:n, :n] = de.l_ii - lam * np.eye(n)
    sys[:n, n:] = (et.eta - lam) * et.extension
    sys[n:, :n] = -w * de.l_bi
    sys[n:, n:] = tau.eval(lam)
    rhs = np.concatenate([np.asarray(g, dtype=complex), np.zeros(nb, dtype=complex)])
    sv = np.linalg.svd(sys, compute_uv=False)
    if sv[-1] <= sv[0] / COND_LIMIT:
        raise SingularSystem(f"coupled system singular at lambda={lam}")
    sol = np.linalg.solve(sys, rhs)
    return sol[:n] + et.extension @ sol[n:]
