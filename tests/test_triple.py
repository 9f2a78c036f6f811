"""Boundary triple structure: Green identity, gamma-field, Weyl function,
and the verification-identity suite.
"""

import numpy as np
import pytest

from weylbvp import (
    BoundaryTriple,
    DimensionMismatch,
    KreinSpace,
    RationalNevanlinna,
    build_1d,
    elliptic_triple,
    realize_rational,
    verify_triple_identities,
)


def sample_points(seed=0, count=10):
    rng = np.random.default_rng(seed)
    return [complex(rng.uniform(-2, 2), rng.uniform(0.3, 2) * (-1) ** k)
            for k in range(count)]


@pytest.fixture(scope="module")
def elliptic_bt():
    return elliptic_triple(build_1d(25)).bt


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
    assert elliptic_bt.kernel_relation.is_symmetric(tol=1e-10)


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
    assert elliptic_bt.defect_subspace(0.5 + 0.5j).dim == elliptic_bt.boundary_dim


def test_defect_at_a0_eigenvalue_inflates():
    # toy triple: A0 = diag(1, 2), one boundary channel attached to e1;
    # at lam = 2 the A0-eigenvector e2 joins the defect space
    from weylbvp import LinearRelation, RepresentationForm, realize_strict

    sp = KreinSpace(2)
    a0 = LinearRelation.from_graph(sp, np.diag([1.0, 2.0]))
    rf = RepresentationForm(space=sp, a0=a0, gamma=np.array([[1.0], [0.0]]),
                            lambda0=1j, c=np.zeros((1, 1)))
    bt = realize_strict(rf)
    assert bt.defect_subspace(0.5 + 0.5j).dim == 1
    assert bt.defect_subspace(2.0).dim == 2


def test_gamma_weyl_identities(elliptic_bt, rational_bt):
    for bt in (elliptic_bt, rational_bt):
        report = verify_triple_identities(bt, sample_points())
        for name, val in report.items():
            assert val <= 1e-9, f"{name}: {val}"


def test_identities_one_resolvent_per_point(elliptic_bt, monkeypatch):
    # (A_0 - lam)^{-1} is computed once per sample and once per conjugate
    # sample; it doubles as the rho(A_0) check of the Weyl data
    from weylbvp import LinearRelation

    calls = []
    resolvent = LinearRelation.resolvent

    def counted(self, lam, *args, **kwargs):
        calls.append(lam)
        return resolvent(self, lam, *args, **kwargs)

    monkeypatch.setattr(LinearRelation, "resolvent", counted)
    pts = sample_points(count=4)
    report = verify_triple_identities(elliptic_bt, pts)
    assert max(report.values()) <= 1e-9
    assert len(calls) == len(set(calls)) == len(set(pts) | {np.conj(p) for p in pts})


def test_weyl_symmetry(elliptic_bt):
    lam = 0.7 + 1.3j
    m1 = elliptic_bt.weyl(np.conj(lam))
    m2 = elliptic_bt.weyl(lam).conj().T
    assert np.linalg.norm(m1 - m2, 2) <= 1e-10 * max(1.0, np.linalg.norm(m2, 2))


def test_weyl_nevanlinna_property(elliptic_bt):
    # Hilbert state, so Im M(lam) >= 0 in the upper half-plane
    for lam in (1j, 0.5 + 2j, -3 + 0.25j):
        m = elliptic_bt.weyl(lam)
        im = (m - m.conj().T) / 2j
        assert np.min(np.linalg.eigvalsh((im + im.conj().T) / 2)) >= -1e-10


def test_is_ordinary_and_rank_deficient(elliptic_bt):
    assert elliptic_bt.is_ordinary()
    broken = BoundaryTriple(
        elliptic_bt.state, elliptic_bt.boundary_dim, elliptic_bt.t_basis,
        elliptic_bt.g0, np.zeros_like(elliptic_bt.g1))
    assert not broken.is_ordinary()


def test_coords_rejects_outside_elements(elliptic_bt):
    rng = np.random.default_rng(9)
    v = rng.standard_normal(2 * elliptic_bt.state.dim)
    with pytest.raises(DimensionMismatch):
        elliptic_bt.coords(v)


def test_validate_catches_broken_green():
    sp = KreinSpace(2)
    t_basis = np.vstack([np.eye(2), np.diag([1.0, 2.0])])
    g0 = np.array([[1.0, 0.0]])
    g1 = np.array([[0.0, 1.0]])
    bt = BoundaryTriple(sp, 1, t_basis, g0, g1)
    with pytest.raises(DimensionMismatch):
        bt.validate()
