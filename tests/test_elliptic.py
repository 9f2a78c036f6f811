"""Finite-difference discretizations and their boundary triples."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from weylbvp import (
    ConstantFunction,
    KreinSpace,
    NonPositiveCoefficient,
    RankDeficientCoupling,
    RationalNevanlinna,
    SpectrumPoint,
    build_1d,
    build_2d,
    build_linearization_rational,
    direct_solve,
    elliptic_triple,
    krein_resolve,
)


# ---------------------------------------------------------------------------
# assembly


def test_1d_symmetry_and_spectrum_shift():
    de = build_1d(30)
    assert np.linalg.norm(de.l_ib - de.l_bi.T) <= 1e-13
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
    assert np.linalg.norm(de.l_ib - de.l_bi.T) <= 1e-13
    assert de.n_boundary == 2 * 4 + 2 * 5
    # counterclockwise from lower-left: first node on the bottom edge,
    # then right, top (reversed), left (reversed)
    b = de.boundary_coords
    h = de.spacing
    assert np.allclose(b[0], [h, 0.0])
    assert np.allclose(b[4], [1.0, h])
    assert b[9][1] == pytest.approx(1.2)   # first top node
    assert b[-1][0] == pytest.approx(0.0)  # last left node


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
    build, bands = BANDED_PROBLEMS[name]
    assert build().banded_l_ii[0] == bands


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
    with pytest.raises(SpectrumPoint):
        de.eta_extension(float(de.dirichlet_eigs[0]))


def test_disconnected_boundary_node_rejected():
    de = build_1d(10)
    l_ib = de.l_ib.copy()
    l_ib[:, 1] = 0.0
    cut = dataclasses.replace(de, l_ib=l_ib, l_bi=l_ib.T.copy())
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)),), beta=(np.eye(2),))
    with pytest.raises(RankDeficientCoupling):
        elliptic_triple(cut)
    with pytest.raises(RankDeficientCoupling):
        build_linearization_rational(cut, tau)


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
        assert np.linalg.norm(et1d.bt.gamma(lam) - et1d.gamma(lam)) <= 1e-9


def test_weyl_closed_form(et1d, et2d):
    for et in (et1d, et2d):
        for lam in (1 + 1j, 0.5 - 0.75j):
            m1, m2 = et.bt.weyl(lam), et.weyl(lam)
            assert np.linalg.norm(m1 - m2, 2) <= 1e-9 * max(1.0, np.linalg.norm(m2, 2))


def test_weyl_matches_dense_closed_form(et1d, et2d):
    for et in (et1d, et2d):
        de = et.de
        n = de.n_interior
        for lam in (1 + 1j, 0.5 - 0.75j, -3.0):
            sol = np.linalg.solve(de.l_ii - lam * np.eye(n), et.extension)
            ref = de.weight * (et.eta - lam) * (de.l_bi @ sol)
            assert np.linalg.norm(et.weyl(lam) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_gamma_conjugate_symmetry(et1d, et2d):
    for et in (et1d, et2d):
        for lam in (0.8 + 1.1j, -2.0 - 0.5j):
            gam = et.gamma(lam)
            assert np.linalg.norm(et.gamma(np.conj(lam)) - gam.conj()) \
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
        lhs = de.weight * et1d.gamma(np.conj(lam)).conj().T @ h
        rhs = -de.weight * de.l_bi @ r
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
