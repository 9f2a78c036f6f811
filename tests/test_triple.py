"""Boundary triple structure: Green identity, gamma-field, Weyl function,
and the verification-identity suite.
"""

import numpy as np
import pytest
import scipy.linalg

from weylbvp import (
    BoundaryTriple,
    DimensionMismatch,
    KreinSpace,
    LinearRelation,
    RationalNevanlinna,
    SpectrumPoint,
    build_1d,
    build_2d,
    column_space,
    elliptic_triple,
    nullspace,
    realize_constant,
    realize_rational,
    verify_triple_identities,
)

from oracles import elliptic_gamma, generic_elliptic_triple, symmetry_residual


def sample_points(seed=0, count=10):
    rng = np.random.default_rng(seed)
    return [complex(rng.uniform(-2, 2), rng.uniform(0.3, 2) * (-1) ** k)
            for k in range(count)]


def kernel_relation(bt):
    """ker Gamma = ker Gamma_0 \\cap ker Gamma_1 (the symmetric restriction)."""
    null = nullspace(np.vstack([bt.g0, bt.g1]))
    return LinearRelation.from_span(bt.state, bt.t_basis @ null)


def defect_subspace(bt, lam):
    """ker(T - lam) as a subspace of the state space."""
    null = nullspace(bt.second - lam * bt.first)
    return column_space(bt.first @ null, ambient=bt.state.dim)


@pytest.fixture(scope="module")
def elliptic_bt():
    return generic_elliptic_triple(elliptic_triple(build_1d(25)))


@pytest.fixture(scope="module")
def rational_bt():
    tau = RationalNevanlinna(
        alpha=(np.array([[1.0]]), np.array([[-1.0]])),
        beta=(np.array([[2.0]]), np.array([[0.5]])),
    )
    return realize_rational(tau)


def test_green_identity(elliptic_bt, rational_bt):
    assert elliptic_bt.green_residual() <= 1e-12
    assert rational_bt.green_residual() <= 1e-12


def test_a0_selfadjoint(elliptic_bt, rational_bt):
    for bt in (elliptic_bt, rational_bt):
        assert bt.a0.is_selfadjoint(tol=1e-10)


def test_kernel_relation_symmetric(elliptic_bt):
    assert symmetry_residual(kernel_relation(elliptic_bt)) <= 1e-10


def test_domain_decomposition(elliptic_bt):
    # dim T = dim A0 + g, and T = A0 + defect span is a direct sum
    bt = elliptic_bt
    mu = 1.0 + 1.0j
    wd = bt.weyl_data(mu)
    defect = np.vstack([wd.gamma_mat, mu * wd.gamma_mat])
    stacked = np.hstack([bt.a0.basis, defect])
    rank = np.linalg.matrix_rank(stacked, tol=1e-8)
    assert bt.t_dim == bt.a0.dim + bt.boundary_dim
    assert rank == bt.a0.dim + bt.boundary_dim


def test_defect_subspace_dimension(elliptic_bt):
    assert defect_subspace(elliptic_bt, 0.5 + 0.5j).dim == elliptic_bt.boundary_dim


def test_defect_at_a0_eigenvalue_inflates():
    # toy triple: A0 = diag(1, 2), one boundary channel attached to e1;
    # at lam = 2 the A0-eigenvector e2 joins the defect space
    from weylbvp import RepresentationForm, realize_strict

    sp = KreinSpace(2)
    a0 = LinearRelation.from_graph(sp, np.diag([1.0, 2.0]))
    rf = RepresentationForm(space=sp, a0=a0, gamma=np.array([[1.0], [0.0]]),
                            lambda0=1j, c=np.zeros((1, 1)))
    bt = realize_strict(rf)
    assert defect_subspace(bt, 0.5 + 0.5j).dim == 1
    assert defect_subspace(bt, 2.0).dim == 2


def test_gamma_weyl_identities(elliptic_bt, rational_bt):
    for bt in (elliptic_bt, rational_bt):
        report = verify_triple_identities(bt, sample_points())
        for name, val in report.items():
            assert val <= 1e-9, f"{name}: {val}"


def test_identities_one_resolvent_per_point(elliptic_bt, monkeypatch):
    # one LU of K_lam per sample and per conjugate sample gives gamma and M
    # there, (A_0 - lam)^{-1} on the columns the identities need, and the
    # rho(A_0) check; K_lam[0, 0] = L_II[0, 0] - lam tells the points apart
    calls = []
    lu_factor = scipy.linalg.lu_factor

    def counted(a, *args, **kwargs):
        calls.append(complex(a[0, 0]))
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    pts = sample_points(count=4)
    report = verify_triple_identities(elliptic_bt, pts)
    assert max(report.values()) <= 1e-9
    assert len(calls) == len(set(calls)) == len(set(pts) | {np.conj(p) for p in pts})


def test_identities_take_no_svd_or_lstsq(monkeypatch):
    et = elliptic_triple(build_2d(8, 8))
    triples = (et, generic_elliptic_triple(et))

    def forbidden(*args, **kwargs):
        raise AssertionError("SVD or least squares on the identity path")

    for mod in (np.linalg, scipy.linalg):
        for name in ("svd", "lstsq", "pinv"):
            monkeypatch.setattr(mod, name, forbidden)
    for triple in triples:
        report = verify_triple_identities(triple, sample_points(count=4))
        assert max(report.values()) <= 1e-9


def _point_solve_triples():
    rational = RationalNevanlinna(
        alpha=(np.array([[1.0, 0.5], [0.5, -1.0]]), np.array([[-1.0, 0.0], [0.0, 2.0]])),
        beta=(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([[0.5, 0.0], [0.0, 0.25]])),
    )
    return {
        "1d-25": generic_elliptic_triple(elliptic_triple(build_1d(25))),
        "2d-6x6": generic_elliptic_triple(elliptic_triple(build_2d(6, 6))),
        "rational": realize_rational(rational),
        "constant": realize_constant(np.array([[2.0, 1.0], [1.0, -1.0]]), 1.5j),
    }


@pytest.mark.parametrize("name", ["1d-25", "2d-6x6", "rational", "constant"])
def test_point_solve_resolvent_matches_a0(name):
    bt = _point_solve_triples()[name]
    eye = np.eye(bt.state.dim)
    for lam in (0.3 + 0.8j, -1.2 - 0.4j, 2.0 + 3.0j):
        ref = bt.a0.resolvent(lam)
        res, image = bt.weyl_data(lam).resolvent(eye)
        assert np.linalg.norm(res - ref) <= 1e-12 * np.linalg.norm(ref)
        # the image is Gamma_1 of the elements {R h, (I + lam R) h} of
        # A_0 = ker Gamma_0, whose T-coordinates c are found independently
        c = np.linalg.lstsq(bt.t_basis, np.vstack([res, eye + lam * res]), rcond=None)[0]
        assert np.linalg.norm(bt.t_basis @ c - np.vstack([res, eye + lam * res])) \
            <= 1e-12 * max(1.0, np.linalg.norm(c))
        assert np.linalg.norm(bt.g0 @ c) <= 1e-12 * max(1.0, np.linalg.norm(c))
        assert np.linalg.norm(bt.g1 @ c - image) <= 1e-12 * max(1.0, np.linalg.norm(c))


@pytest.mark.parametrize("build", [lambda: build_1d(25), lambda: build_2d(6, 6)],
                         ids=["1d-25", "2d-6x6"])
def test_weyl_data_matches_closed_form(build):
    et = elliptic_triple(build())
    bt = generic_elliptic_triple(et)
    for lam in (0.3 + 0.8j, -1.2 - 0.4j, 5.0 + 0.1j):
        wd = bt.weyl_data(lam)
        gam, m = elliptic_gamma(et, lam), et.weyl_data(lam).m_mat
        assert np.linalg.norm(wd.gamma_mat - gam) <= 1e-10 * max(1.0, np.linalg.norm(gam))
        assert np.linalg.norm(wd.m_mat - m) <= 1e-10 * max(1.0, np.linalg.norm(m))


def test_weyl_data_guard_at_dirichlet_eigenvalues():
    # every eigenvalue of A_0, the reflection-odd modes of the square included
    et = elliptic_triple(build_2d(6, 6))
    bt = generic_elliptic_triple(et)
    for ev in et.de.dirichlet_eigs:
        with pytest.raises(SpectrumPoint):
            bt.weyl_data(complex(ev))
    bt.weyl_data(complex(et.de.dirichlet_eigs[0]) + 0.1j)


def test_weyl_data_guard_at_constant_anchor():
    vt = 1.5j
    bt = realize_constant(np.array([[2.0, 1.0], [1.0, -1.0]]), vt)
    for lam in (vt, np.conj(vt)):
        with pytest.raises(SpectrumPoint):
            bt.weyl_data(lam)


def test_weyl_data_rejects_redundant_basis(elliptic_bt):
    bt = elliptic_bt
    with pytest.raises(DimensionMismatch, match=r"dim T = 28 != dim H \+ boundary dimension = 27"):
        BoundaryTriple(bt.state, bt.boundary_dim,
                       np.hstack([bt.t_basis, bt.t_basis[:, :1]]),
                       np.hstack([bt.g0, bt.g0[:, :1]]), np.hstack([bt.g1, bt.g1[:, :1]]))


def test_identities_catch_non_hermitian_perturbation(elliptic_bt):
    # Gamma_1 + eps R Gamma_0 with R non-Hermitian breaks Green's identity and
    # the symmetry M(lam)^* = M(conj lam) that id2 checks
    bt = elliptic_bt
    g = bt.boundary_dim
    r = np.random.default_rng(3).standard_normal((g, g))
    r -= r.T.copy() / 2
    broken = BoundaryTriple(bt.state, g, bt.t_basis, bt.g0, bt.g1 + 1e-6 * r @ bt.g0)
    assert verify_triple_identities(broken, sample_points(count=4))["id2"] > 1e-9


def test_green_residual_bounds_the_two_norm_ratio(elliptic_bt, rational_bt):
    # the Frobenius/column-norm residual is never below the 2-norm ratio
    def two_norm_ratio(bt):
        f, fp, gram = bt.first, bt.second, bt.state.gram
        lhs = f.conj().T @ gram @ fp - fp.conj().T @ gram @ f
        rhs = bt.g0.conj().T @ bt.g1 - bt.g1.conj().T @ bt.g0
        scale = max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2), 1.0)
        return np.linalg.norm(lhs - rhs, 2) / scale

    rng = np.random.default_rng(5)
    for bt in (elliptic_bt, rational_bt, *_point_solve_triples().values()):
        g = bt.boundary_dim
        for eps in (0.0, 1e-6, 1e-2):
            noisy = BoundaryTriple(bt.state, g, bt.t_basis, bt.g0,
                                   bt.g1 + eps * rng.standard_normal(bt.g1.shape))
            assert noisy.green_residual() >= two_norm_ratio(noisy)


def test_weyl_symmetry(elliptic_bt):
    lam = 0.7 + 1.3j
    m1 = elliptic_bt.weyl_data(np.conj(lam)).m_mat
    m2 = elliptic_bt.weyl_data(lam).m_mat.conj().T
    assert np.linalg.norm(m1 - m2, 2) <= 1e-10 * max(1.0, np.linalg.norm(m2, 2))


def test_weyl_nevanlinna_property(elliptic_bt):
    # Hilbert state, so Im M(lam) >= 0 in the upper half-plane
    for lam in (1j, 0.5 + 2j, -3 + 0.25j):
        m = elliptic_bt.weyl_data(lam).m_mat
        im = (m - m.conj().T) / 2j
        assert np.min(np.linalg.eigvalsh((im + im.conj().T) / 2)) >= -1e-10


def test_is_ordinary_and_rank_deficient(elliptic_bt):
    assert elliptic_bt.is_ordinary()
    broken = BoundaryTriple(
        elliptic_bt.state, elliptic_bt.boundary_dim, elliptic_bt.t_basis,
        elliptic_bt.g0, np.zeros_like(elliptic_bt.g1))
    assert not broken.is_ordinary()

