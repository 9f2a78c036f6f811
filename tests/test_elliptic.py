"""Finite-difference discretizations and their boundary triples."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import weylbvp.elliptic
from weylbvp import (
    ConfigError,
    ConstantFunction,
    DiscreteElliptic,
    KreinSpace,
    NonPositiveCoefficient,
    RankDeficientCoupling,
    RationalNevanlinna,
    SpectrumPoint,
    build_1d,
    build_2d,
    build_linearization,
    compressed_resolvent,
    direct_solve,
    elliptic_triple,
    krein_resolve,
    realize_constant,
    realize_rational,
)
from weylbvp.solver import eigenvalue_count

from oracles import elliptic_gamma


# ---------------------------------------------------------------------------
# assembly


def l_bi_is_transpose(de):
    """Whether L_BI, applied by channel-row selection, is L_IBᵀ."""
    mat = np.random.default_rng(7).standard_normal((de.n_interior, 3))
    ref = de.l_ib.T @ mat
    return (np.linalg.norm(de.apply_l_bi(mat) - ref) <= 1e-13 * np.linalg.norm(ref)
            and np.linalg.norm(de.apply_l_bi(mat[:, 0]) - ref[:, 0])
            <= 1e-13 * np.linalg.norm(ref[:, 0]))


def test_1d_symmetry_and_spectrum_shift():
    de = build_1d(30)
    assert l_bi_is_transpose(de)
    assert np.linalg.norm(de.l_ii - de.l_ii.T) == 0.0
    shifted = build_1d(30, a=2.5)
    assert np.allclose(np.sort(shifted.dirichlet_eigs),
                       np.sort(de.dirichlet_eigs) + 2.5, atol=1e-10)


def test_1d_variable_coefficient_positive_definite():
    de = build_1d(25, p=lambda x: 1 + 0.5 * np.sin(np.pi * x), a=lambda x: x)
    assert np.min(de.dirichlet_eigs) > 0


def test_1d_rejects_nonpositive_diffusion():
    with pytest.raises(NonPositiveCoefficient):
        build_1d(10, p=lambda x: x - 0.5)


def test_2d_laplacian_smallest_eigenvalue():
    de = build_2d(15, 15)
    smallest = float(np.min(de.dirichlet_eigs))
    exact = 2 * np.pi ** 2
    assert abs(smallest - exact) / exact <= 0.02


def test_2d_symmetry_and_boundary_ordering():
    # rectangle chosen so both directions share the same spacing h = 0.2
    de = build_2d(4, 5, rect=(0.0, 1.0, 0.0, 1.2))
    assert l_bi_is_transpose(de)
    assert np.linalg.norm(de.l_ii - de.l_ii.T) == 0.0
    assert de.n_boundary == 2 * 4 + 2 * 5 - 4
    # counterclockwise from the lower-left corner; each side starts at its
    # corner: bottom L->R, right B->T, top R->L, left T->B
    expected = [[0.0, 0.0], [0.4, 0.0], [0.6, 0.0],
                [1.0, 0.0], [1.0, 0.4], [1.0, 0.6], [1.0, 0.8],
                [1.0, 1.2], [0.6, 1.2], [0.4, 1.2],
                [0.0, 1.2], [0.0, 0.8], [0.0, 0.6], [0.0, 0.4]]
    assert np.allclose(de.boundary_coords, expected)
    # a corner channel carries both of its neighbours' couplings to the
    # interior corner node: the lower-left one, interior row 0
    h = de.spacing
    assert np.flatnonzero(de.l_ib[:, 0]).tolist() == [0]
    assert de.l_ib[0, 0] == pytest.approx(-2 / h**2)
    # channel k couples to the k-th node of the interior's outer ring,
    # counterclockwise from (1, 1); rows are numbered x-fastest, (i, j) -> 4(j-1) + i-1
    ring = [(1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5),
            (3, 5), (2, 5), (1, 5), (1, 4), (1, 3), (1, 2)]
    assert de.channel_rows.tolist() == [4 * (j - 1) + i - 1 for i, j in ring]
    rows, cols = np.nonzero(de.l_ib)
    assert rows[np.argsort(cols)].tolist() == de.channel_rows.tolist()


@pytest.mark.parametrize("name", ["1d-variable", "2d-variable"])
def test_boundary_channels_couple_to_distinct_rows(name):
    # the diagonal trace recovery of the residual check relies on this:
    # each L_IB column has one nonzero, the nonzeros lie in distinct rows,
    # so L_BI L_IB is diagonal and positive
    de = {
        "1d-variable": lambda: build_1d(9, p=lambda x: 1 + x * x, a=lambda x: np.cos(x)),
        "2d-variable": lambda: build_2d(5, 7, a11=lambda x, y: 1 + x,
                                        a22=lambda x, y: 2 + np.sin(3 * y),
                                        a=lambda x, y: x * y, rect=(0.0, 0.6, 0.0, 0.8)),
    }[name]()
    rows, cols = np.nonzero(de.l_ib)
    assert np.array_equal(np.sort(cols), np.arange(de.n_boundary))
    assert len(set(rows.tolist())) == de.n_boundary
    gram = de.l_ib.T @ de.l_ib
    assert np.array_equal(gram, np.diag(np.diag(gram)))
    assert np.all(np.diag(gram) > 0)


# The per-node loop assembly of dense L_II and L_IB that the vectorized
# builders replaced, kept as the reference for their entries.

def loop_assembly_1d(n, p, a, interval=(0.0, 1.0)):
    x0, x1 = interval
    h = (x1 - x0) / (n + 1)
    xs = x0 + h * np.arange(n + 2)
    phalf = np.array([p(x0 + h * (k + 0.5)) for k in range(n + 1)], dtype=float)
    avals = np.array([a(x) for x in xs[1:-1]], dtype=float)
    l_ii = np.zeros((n, n))
    for i in range(n):
        l_ii[i, i] = (phalf[i] + phalf[i + 1]) / h**2 + avals[i]
        if i > 0:
            l_ii[i, i - 1] = -phalf[i] / h**2
        if i < n - 1:
            l_ii[i, i + 1] = -phalf[i + 1] / h**2
    l_ib = np.zeros((n, 2))
    l_ib[0, 0] = -phalf[0] / h**2
    l_ib[-1, 1] = -phalf[n] / h**2
    return l_ii, l_ib


def loop_assembly_2d(nx, ny, a11, a22, a, rect):
    x0, x1, y0, _ = rect
    h = (x1 - x0) / (nx + 1)

    def xpos(i):
        return x0 + h * i

    def ypos(j):
        return y0 + h * j

    def idx(i, j):
        return (j - 1) * nx + (i - 1)

    def snap(v, n):
        return 0 if v <= 1 else n + 1 if v >= n else v

    blist = ([(i, 0) for i in (0, *range(2, nx))]
             + [(nx + 1, j) for j in (0, *range(2, ny))]
             + [(i, ny + 1) for i in (nx + 1, *range(nx - 1, 1, -1))]
             + [(0, j) for j in (ny + 1, *range(ny - 1, 1, -1))])
    bindex = {ij: k for k, ij in enumerate(blist)}
    l_ii = np.zeros((nx * ny, nx * ny))
    l_ib = np.zeros((nx * ny, len(blist)))
    for j in range(1, ny + 1):
        for i in range(1, nx + 1):
            row = idx(i, j)
            cw = a11(xpos(i - 0.5), ypos(j))
            ce = a11(xpos(i + 0.5), ypos(j))
            cs = a22(xpos(i), ypos(j - 0.5))
            cn = a22(xpos(i), ypos(j + 0.5))
            l_ii[row, row] = (cw + ce + cs + cn) / h**2 + a(xpos(i), ypos(j))
            for coef, ii, jj in ((cw, i - 1, j), (ce, i + 1, j),
                                 (cs, i, j - 1), (cn, i, j + 1)):
                val = -coef / h**2
                if 1 <= ii <= nx and 1 <= jj <= ny:
                    l_ii[row, idx(ii, jj)] = val
                else:
                    l_ib[row, bindex[(snap(ii, nx), snap(jj, ny))]] += val
    return l_ii, l_ib


def p_1d(x):
    return 1 + x * x


def a11_2d(x, y):
    return 1 + x


def a22_2d(x, y):
    return 2 + np.sin(3 * y)


def a_2d(x, y):
    return x * y


@pytest.mark.parametrize("name", ["1d-variable", "2d-variable", "2d-wide"])
def test_stencil_bit_identical_to_loop_assembly(name):
    # the parameter sets of test_boundary_channels_couple_to_distinct_rows,
    # plus a grid wider than tall: variable coefficients, nx != ny, a11 != a22
    if name == "1d-variable":
        de = build_1d(9, p=p_1d, a=np.cos)
        ref = loop_assembly_1d(9, p_1d, np.cos)
    else:
        nx, ny, rect = {"2d-variable": (5, 7, (0.0, 0.6, 0.0, 0.8)),
                        "2d-wide": (7, 4, (0.0, 0.8, 0.0, 0.5))}[name]
        de = build_2d(nx, ny, a11=a11_2d, a22=a22_2d, a=a_2d, rect=rect)
        ref = loop_assembly_2d(nx, ny, a11_2d, a22_2d, a_2d, rect)
    assert np.array_equal(de.l_ii, ref[0])
    assert np.array_equal(de.l_ib, ref[1])


def test_dirichlet_resolvent_positive():
    de = build_1d(20)
    r = np.linalg.inv(de.l_ii + np.eye(20))
    assert np.min(np.linalg.eigvalsh((r + r.T) / 2)) > 0


# ---------------------------------------------------------------------------
# banded Dirichlet resolvent

# non-square grids (h = 0.2 in both directions) pin which grid size sets the
# bandwidth: interior nodes are numbered x-fastest, so it is nx
BANDED_PROBLEMS = {
    "1d-variable-p": (lambda: build_1d(25, p=lambda x: 1 + 0.5 * np.sin(np.pi * x),
                                       a=lambda x: x), (1, 1)),
    "2d-6x6": (lambda: build_2d(6, 6), (6, 6)),
    "2d-4x6": (lambda: build_2d(4, 6, rect=(0.0, 1.0, 0.0, 1.4)), (4, 4)),
    "2d-6x4": (lambda: build_2d(6, 4, rect=(0.0, 1.4, 0.0, 1.0)), (6, 6)),
}


@pytest.mark.parametrize("name", sorted(BANDED_PROBLEMS))
def test_banded_bandwidths(name):
    # the stored upper band has one row per diagonal of the true bandwidth
    build, (lower, upper) = BANDED_PROBLEMS[name]
    de = build()
    assert de.band.shape == (upper + 1, de.n_interior)
    rows, cols = np.nonzero(de.l_ii)
    assert (int(np.max(rows - cols)), int(np.max(cols - rows))) == (lower, upper)


@pytest.mark.parametrize("name", sorted(BANDED_PROBLEMS))
def test_dirichlet_solve_matches_dense(name):
    de = BANDED_PROBLEMS[name][0]()
    n = de.n_interior
    rng = np.random.default_rng(11)
    # below the spectrum, between eigenvalues, and off the real axis
    for lam in (2.5, 100.5, 1 + 1j, -0.5 - 2j):
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mat = rng.standard_normal((n, 3))
        for rhs in (vec, mat):
            ref = np.linalg.solve(de.l_ii - lam * np.eye(n), rhs)
            got = de.dirichlet_solve(lam, rhs)
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", ["1d-variable-p", "2d-6x6", "2d-4x6"])
def test_dirichlet_eigs_match_dense(name):
    de = BANDED_PROBLEMS[name][0]()
    ref = np.linalg.eigvalsh(de.l_ii)
    got = de.dirichlet_eigs
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# extension


def test_eta_extension_defining_residual():
    de = build_1d(20)
    eta = de.default_eta()
    e = de.eta_extension(eta)
    assert np.linalg.norm((de.l_ii - eta * np.eye(20)) @ e + de.l_ib) <= 1e-10


def test_eta_zero_extension_is_linear_interpolant():
    de = build_1d(20)
    e = de.eta_extension(0.0)
    xs = de.interior_coords[:, 0]
    # harmonic extension of boundary data (1, 0) is 1 - x; of (0, 1) is x
    assert np.allclose(e[:, 0], 1 - xs, atol=1e-10)
    assert np.allclose(e[:, 1], xs, atol=1e-10)


def test_eta_extension_real_below_spectrum():
    de = build_1d(15)
    e = de.eta_extension(de.default_eta())
    assert np.max(np.abs(e.imag)) == 0.0


def test_eta_extension_rejects_spectrum():
    de = build_1d(15)
    with pytest.raises(SpectrumPoint, match="Dirichlet spectrum"):
        de.eta_extension(float(de.dirichlet_eigs[0]))


@pytest.mark.parametrize("k", [0, 4])
@pytest.mark.parametrize("de", [build_1d(30), build_2d(6, 6)], ids=["1d", "2d"])
def test_every_dirichlet_entry_point_refuses_a_dirichlet_eigenvalue(de, k):
    """The one guard in ``dirichlet_solve`` covers every solve with T_D - mu:
    the Weyl function, the perturbed resolvent and the eta-extension."""
    et = elliptic_triple(de)
    mu = float(de.dirichlet_eigs[k])
    tau = ConstantFunction(theta=2.0 * np.eye(de.n_boundary))
    g = np.ones(de.n_interior, dtype=complex)
    with pytest.raises(SpectrumPoint, match="Dirichlet spectrum"):
        de.dirichlet_solve(mu, g)
    with pytest.raises(SpectrumPoint, match="Dirichlet spectrum"):
        et.weyl(mu)
    with pytest.raises(SpectrumPoint, match="Dirichlet spectrum"):
        krein_resolve(et, tau, mu, g)
    with pytest.raises(SpectrumPoint, match="Dirichlet spectrum"):
        elliptic_triple(de, mu)


def test_disconnected_boundary_node_rejected():
    de = build_1d(10)
    coupling = de.coupling.copy()
    coupling[1] = 0.0
    cut = dataclasses.replace(de, coupling=coupling)
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)),), beta=(np.eye(2),))
    with pytest.raises(RankDeficientCoupling):
        elliptic_triple(cut)
    with pytest.raises(RankDeficientCoupling):
        build_linearization(elliptic_triple(cut), realize_rational(tau))


# ---------------------------------------------------------------------------
# triple


@pytest.fixture(scope="module")
def et1d():
    return elliptic_triple(build_1d(30))


@pytest.fixture(scope="module")
def et2d():
    return elliptic_triple(build_2d(8, 8))


def test_generic_triple_built_on_demand(monkeypatch):
    # solve and eigen never read the generic form, so elliptic_triple builds
    # no KreinSpace; verification builds it once and then reuses it
    dims = []
    original = KreinSpace.__post_init__

    def counting(self):
        dims.append(self.dim)
        original(self)

    monkeypatch.setattr(KreinSpace, "__post_init__", counting)
    et = elliptic_triple(build_1d(30))
    assert dims == []
    bt = et.bt
    assert dims == [30]
    assert et.bt is bt and dims == [30]
    assert bt.green_residual() <= 1e-12


def test_green_identity_exact(et1d, et2d):
    assert et1d.bt.green_residual() <= 1e-12
    assert et2d.bt.green_residual() <= 1e-12


def test_gamma_closed_form(et1d):
    for lam in (1 + 1j, -2.0, 0.5 + 0.25j):
        gam = et1d.bt.weyl_data(lam).gamma_mat
        assert np.linalg.norm(gam - elliptic_gamma(et1d, lam)) <= 1e-9


def test_weyl_closed_form(et1d, et2d):
    for et in (et1d, et2d):
        for lam in (1 + 1j, 0.5 - 0.75j):
            m1, m2 = et.bt.weyl_data(lam).m_mat, et.weyl(lam)
            assert np.linalg.norm(m1 - m2, 2) <= 1e-9 * max(1.0, np.linalg.norm(m2, 2))


def test_weyl_matches_dense_closed_form(et1d, et2d):
    for et in (et1d, et2d):
        de = et.de
        n = de.n_interior
        for lam in (1 + 1j, 0.5 - 0.75j, -3.0):
            sol = np.linalg.solve(de.l_ii - lam * np.eye(n), et.extension)
            ref = de.weight * (et.eta - lam) * (de.l_ib.T @ sol)
            assert np.linalg.norm(et.weyl(lam) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_gamma_conjugate_symmetry(et1d, et2d):
    for et in (et1d, et2d):
        for lam in (0.8 + 1.1j, -2.0 - 0.5j):
            gam = elliptic_gamma(et, lam)
            assert np.linalg.norm(elliptic_gamma(et, np.conj(lam)) - gam.conj()) \
                <= 1e-12 * np.linalg.norm(gam)


def test_weyl_conjugate_symmetry(et1d):
    lam = 0.8 + 1.1j
    assert np.linalg.norm(et1d.weyl(np.conj(lam)) - et1d.weyl(lam).conj().T) <= 1e-10


def test_gambar_identity_elliptic(et1d):
    rng = np.random.default_rng(2)
    de = et1d.de
    n = de.n_interior
    for lam in (1 + 1j, -0.5 + 2j):
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = np.linalg.solve(de.l_ii - lam * np.eye(n), h)
        lhs = de.weight * elliptic_gamma(et1d, np.conj(lam)).conj().T @ h
        rhs = -de.weight * de.l_ib.T @ r
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


# ---------------------------------------------------------------------------
# direct solve oracle


def test_direct_solve_zero_rhs(et1d):
    tau = ConstantFunction(theta=np.eye(2))
    f = direct_solve(et1d, tau, 0.3 + 0.9j, np.zeros(30))
    assert np.linalg.norm(f) <= 1e-12


def test_direct_solve_large_theta_approaches_dirichlet(et1d):
    rng = np.random.default_rng(4)
    g = rng.standard_normal(30)
    lam = 1.0 + 1.0j
    fd = np.linalg.solve(et1d.de.l_ii - lam * np.eye(30), g)
    errs = []
    for scale in (1e2, 1e4, 1e6):
        tau = ConstantFunction(theta=scale * np.eye(2))
        f = direct_solve(et1d, tau, lam, g)
        errs.append(np.linalg.norm(f - fd))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-4 * np.linalg.norm(fd)


def test_krein_resolve_factors_once(et1d, monkeypatch):
    calls = []
    banded = scipy.linalg.solve_banded

    def counting(*args, **kwargs):
        calls.append(1)
        return banded(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_banded", counting)
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)),), beta=(np.eye(2),))
    krein_resolve(et1d, tau, 0.4 + 1.5j, np.ones(30))
    assert len(calls) == 1


def test_direct_solve_matches_krein(et1d):
    from weylbvp import RationalNevanlinna
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)),), beta=(np.eye(2),))
    rng = np.random.default_rng(5)
    g = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    lam = 1j
    f1 = direct_solve(et1d, tau, lam, g)
    f2 = krein_resolve(et1d, tau, lam, g).f
    assert np.linalg.norm(f1 - f2) <= 1e-10 * np.linalg.norm(f1)


def dense_direct_solve(et, tau, lam, g):
    """Reference: the coupled system in (f_D, y),
    (T_D - lam) f_D + (eta - lam) E_eta y = g,  tau(lam) y = h^d L_BI f_D,
    assembled densely and solved; f = f_D + E_eta y."""
    de = et.de
    n, nb = de.n_interior, de.n_boundary
    sys = np.zeros((n + nb, n + nb), dtype=complex)
    sys[:n, :n] = de.l_ii - lam * np.eye(n)
    sys[:n, n:] = (et.eta - lam) * et.extension
    sys[n:, :n] = -de.weight * de.l_ib.T
    sys[n:, n:] = tau.eval(lam)
    sol = np.linalg.solve(sys, np.concatenate([g, np.zeros(nb)]))
    return sol[:n] + et.extension @ sol[n:]


def reference_taus(nb):
    """(tau, its linearization's builder): a rational tau and a constant tau."""
    rational = RationalNevanlinna(alpha=(np.zeros((nb, nb)), -2 * np.eye(nb)),
                                  beta=(np.eye(nb), np.eye(nb)))
    theta = 2.0 * np.eye(nb)
    return {
        "rational": (rational,
                     lambda et: build_linearization(et, realize_rational(rational))),
        "constant": (ConstantFunction(theta=theta),
                     lambda et: build_linearization(et, realize_constant(theta, 3.7j))),
    }


SPARSE_CASES = [(problem, tau, lam)
                for problem in ("1d-variable-p", "2d-6x6", "2d-4x6")
                for tau in ("rational", "constant")
                for lam in (-0.7, 1.3 + 0.8j)]


@pytest.mark.parametrize("problem,tau_name,lam", SPARSE_CASES)
def test_sparse_routes_match_dense_references(problem, tau_name, lam):
    et = elliptic_triple(BANDED_PROBLEMS[problem][0]())
    tau, linearize = reference_taus(et.de.n_boundary)[tau_name]
    lin = linearize(et)
    n = et.de.n_interior
    rng = np.random.default_rng(23)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = dense_direct_solve(et, tau, lam, g)
    assert np.linalg.norm(direct_solve(et, tau, lam, g) - ref) <= 1e-12 * np.linalg.norm(ref)
    rhs = np.concatenate([g, np.zeros(lin.size - n)])
    ref = np.linalg.solve(lin.matrix - lam * np.eye(lin.size), rhs)[:n]
    assert np.linalg.norm(compressed_resolvent(lin, lam, g) - ref) \
        <= 1e-12 * np.linalg.norm(ref)


def recorded_orderings(monkeypatch) -> list:
    """The column ordering of every sparse factorization from now on."""
    import scipy.sparse.linalg
    orderings, splu = [], scipy.sparse.linalg.splu

    def recording(mat, permc_spec):
        orderings.append(permc_spec)
        return splu(mat, permc_spec=permc_spec)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    return orderings


def test_cached_direct_route_matches_fresh_dense_solve(monkeypatch):
    # one triple serves every lambda, in both half-planes: the first LU orders
    # the columns and every later one reuses that order; a full tau after a
    # diagonal one grows the pattern and orders again, and the diagonal tau
    # then fits the grown pattern, its off-diagonal entries stored as zeros
    orderings = recorded_orderings(monkeypatch)
    et = elliptic_triple(BANDED_PROBLEMS["2d-4x6"][0]())
    nb, n = et.de.n_boundary, et.de.n_interior
    rng = np.random.default_rng(37)
    diagonal = np.diag(rng.uniform(0.5, 2.0, nb))
    full = rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))
    full = (full + full.conj().T) / 2
    once = ["COLAMD", "NATURAL", "NATURAL"]
    for theta, expected in ((diagonal, once), (full, once), (diagonal, ["NATURAL"] * 3)):
        tau = ConstantFunction(theta=theta)
        orderings.clear()
        for lam in (1.3 + 0.8j, -0.4 - 1.1j, 7.0 + 0.3j):
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ref = dense_direct_solve(et, tau, lam, g)
            assert np.linalg.norm(direct_solve(et, tau, lam, g) - ref) \
                <= 1e-12 * np.linalg.norm(ref)
        assert orderings == expected
    # the kept ordering owns its memory: a view of SuperLU's perm_c would keep
    # the first LU alive
    assert et.direct_route.columns.base is None


def test_cached_compressed_route_matches_fresh_dense_solve(monkeypatch):
    orderings = recorded_orderings(monkeypatch)
    et = elliptic_triple(BANDED_PROBLEMS["2d-4x6"][0]())
    tau, linearize = reference_taus(et.de.n_boundary)["rational"]
    lin = linearize(et)
    n = et.de.n_interior
    rng = np.random.default_rng(41)
    for lam in (1.3 + 0.8j, -0.4 - 1.1j, 7.0 + 0.3j, 0.9):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rhs = np.concatenate([g, np.zeros(lin.size - n)])
        ref = np.linalg.solve(lin.matrix - lam * np.eye(lin.size), rhs)[:n]
        assert np.linalg.norm(compressed_resolvent(lin, lam, g) - ref) \
            <= 1e-12 * np.linalg.norm(ref)
    assert orderings == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 3
    assert lin.sparse_route.columns.base is None


# ---------------------------------------------------------------------------
# storage: no dense interior-size array outside the linearization and the
# generic triple


def test_solve_and_count_build_no_dense_l_ii(monkeypatch):
    def refuse(self):
        raise AssertionError("dense L_II built")

    monkeypatch.setattr(DiscreteElliptic, "l_ii", property(refuse))
    de = build_2d(6, 4, a11=a11_2d, a22=a22_2d, a=a_2d, rect=(0.0, 1.4, 0.0, 1.0))
    et = elliptic_triple(de)
    tau = reference_taus(de.n_boundary)["rational"][0]
    rng = np.random.default_rng(31)
    g = rng.standard_normal(de.n_interior) + 1j * rng.standard_normal(de.n_interior)
    rep = krein_resolve(et, tau, 1.3 + 0.8j, g)
    f = direct_solve(et, tau, 1.3 + 0.8j, g)
    assert np.linalg.norm(rep.f - f) <= 1e-10 * np.linalg.norm(f)
    assert max(rep.pde_residual, rep.bc_residual) <= 1e-10
    assert eigenvalue_count(et, tau, 2.345) >= 0


def test_dense_memory_guard(monkeypatch):
    # the limit is lowered on a small problem, so nothing large is allocated
    de = build_1d(10)
    et = elliptic_triple(de)
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)), -2 * np.eye(2)),
                             beta=(np.eye(2), np.eye(2)))
    realized = realize_rational(tau)
    size = de.n_interior + realized.state.dim
    a_bytes = size * size * 8                      # a real tau gives a real A
    basis_bytes = 2 * de.n_interior * (de.n_interior + de.n_boundary) * 16   # stored complex
    monkeypatch.setattr(weylbvp.elliptic, "DENSE_LIMIT_BYTES", a_bytes)
    assert build_linearization(et, realized).matrix.nbytes == a_bytes
    monkeypatch.setattr(weylbvp.elliptic, "DENSE_LIMIT_BYTES", a_bytes - 1)
    with pytest.raises(ConfigError):
        build_linearization(et, realized)
    monkeypatch.setattr(weylbvp.elliptic, "DENSE_LIMIT_BYTES", basis_bytes - 1)
    with pytest.raises(ConfigError):
        elliptic_triple(de).bt
    monkeypatch.setattr(weylbvp.elliptic, "DENSE_LIMIT_BYTES", basis_bytes)
    assert elliptic_triple(de).bt.t_basis.nbytes == basis_bytes
