"""Realization constructions: strict, constant, coupled and rational."""

import numpy as np
import pytest

from weylbvp import (
    BetaOneSingular,
    KreinSpace,
    LinearRelation,
    NonAdjointBlocks,
    NotStrict,
    RationalNevanlinna,
    RealTheta,
    RepresentationForm,
    column_space,
    couple,
    decompose,
    realize,
    realize_constant,
    realize_rational,
    nullspace,
    orthonormal_columns,
    realize_strict,
    verify_triple_identities,
    verify_realization,
)
from weylbvp.opfunc import default_samples

from oracles import constant_state_resolvent, span_subspace, symmetry_residual


def scalar(x):
    return np.array([[x]], dtype=complex)


def is_minimal(rf):
    """Whether span{(I + (lam - l0)(A0 - lam)^{-1}) gamma x} over 2n + 3
    default sample points fills the state space; A0 is selfadjoint in a
    Hilbert space here, so every nonreal sample is a resolvent point."""
    n, l0 = rf.space.dim, complex(rf.lambda0)
    cols = [(np.eye(n) + (lam - l0) * rf.a0.resolvent(lam)) @ rf.gamma
            for lam in default_samples(rf.boundary_dim, count=2 * n + 3)]
    return orthonormal_columns(np.hstack(cols)).shape[1] == n


def kernel_relation(bt):
    """ker Gamma = ker Gamma_0 \\cap ker Gamma_1 (the symmetric restriction)."""
    null = nullspace(np.vstack([bt.g0, bt.g1]))
    return LinearRelation.from_span(bt.state, bt.t_basis @ null)


def eigen_kernel(rel, lam):
    """ker(A - lam) = {f : {f, lam f} in A} as a subspace of the state space."""
    null = nullspace(rel.second - lam * rel.first)
    return column_space(rel.first @ null, ambient=rel.space.dim)


def weyl_match(bt, tau, points, tol=1e-9):
    worst = 0.0
    for lam in points:
        t = tau.eval(lam)
        worst = max(worst, np.linalg.norm(bt.weyl_data(lam).m_mat - t, 2)
                    / max(1.0, np.linalg.norm(t, 2)))
    return worst <= tol, worst


def diag_lambda_five():
    sp = KreinSpace(1)
    a0 = LinearRelation.from_span(sp, np.array([[0.0], [1.0]]))
    return RepresentationForm(space=sp, a0=a0, gamma=np.array([[1.0, 0.0]]),
                              lambda0=1j, c=np.diag([0.0, 5.0]).astype(complex))


POINTS = [2j, 1 + 1j, -0.5 + 0.8j, 2 - 1.5j, -1.2 - 0.6j,
          0.3 + 2j, -2 + 0.4j, 1.5 + 0.9j, -0.8 - 1.7j, 0.1 - 0.5j]


# ---------------------------------------------------------------------------
# strict realization


def test_realize_strict_scalar():
    sp = KreinSpace(1)
    a0 = LinearRelation.from_graph(sp, np.zeros((1, 1)))
    rf = RepresentationForm(space=sp, a0=a0, gamma=np.array([[1.0]]),
                            lambda0=1j, c=np.zeros((1, 1)))
    bt = realize_strict(rf)
    assert bt.green_residual() <= 1e-12
    ok, worst = weyl_match(bt, rf, [2j])
    assert ok, worst


def test_realize_strict_reproduces_gamma_at_anchor():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2
    sp = KreinSpace(3)
    a0 = LinearRelation.from_graph(sp, m)
    gamma = rng.standard_normal((3, 2))
    rf = RepresentationForm(space=sp, a0=a0, gamma=gamma, lambda0=1j,
                            c=np.zeros((2, 2)))
    bt = realize_strict(rf)
    assert np.linalg.norm(bt.weyl_data(rf.lambda0).gamma_mat - gamma) <= 1e-10


def test_realize_strict_identities():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((4, 4))
    m = (m + m.T) / 2
    sp = KreinSpace(4)
    a0 = LinearRelation.from_graph(sp, m)
    c = rng.standard_normal((2, 2))
    rf = RepresentationForm(space=sp, a0=a0,
                            gamma=rng.standard_normal((4, 2)),
                            lambda0=1j, c=(c + c.T) / 2)
    bt = realize_strict(rf)
    report = verify_triple_identities(bt, POINTS[:5])
    assert max(report.values()) <= 1e-9
    ok, worst = weyl_match(bt, rf, POINTS)
    assert ok, worst
    assert bt.is_ordinary()


def test_realize_strict_rejects_nonstrict():
    with pytest.raises(NotStrict):
        realize_strict(diag_lambda_five())


def test_strict_kernel_relation_has_no_eigenvalues():
    # ker Gamma of a minimal strict realization: eigenvalue-free, checked at
    # every eigenvalue of A0 (the only candidates in finite dimensions)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2
    sp = KreinSpace(3)
    a0 = LinearRelation.from_graph(sp, m)
    rf = RepresentationForm(space=sp, a0=a0, gamma=rng.standard_normal((3, 1)),
                            lambda0=1j, c=np.zeros((1, 1)))
    assert is_minimal(rf)
    bt = realize_strict(rf)
    a = kernel_relation(bt)
    assert symmetry_residual(a) <= 1e-10
    for lam in np.linalg.eigvalsh(m):
        assert eigen_kernel(a, lam).dim == 0


# ---------------------------------------------------------------------------
# constant realization


def test_realize_constant_zero():
    bt = realize_constant(np.zeros((1, 1)), 1j)
    for lam in (2j, 1 + 1j, -3j):
        assert np.linalg.norm(bt.weyl_data(lam).m_mat) <= 1e-12


def test_realize_constant_indefinite_theta():
    theta = np.diag([1.0, -1.0]).astype(complex)
    bt = realize_constant(theta, 4j)
    assert bt.green_residual() <= 1e-12
    assert bt.state.signature() == (2, 2)
    for lam in POINTS[:5]:
        assert np.linalg.norm(bt.weyl_data(lam).m_mat - theta) <= 1e-12


def test_realize_constant_state_resolvent_formula():
    theta = np.diag([1.0, -1.0]).astype(complex)
    vt = 2j
    bt = realize_constant(theta, vt)
    # the graph part of T is the companion block; its resolvent matches the
    # closed form entrywise
    b0 = np.block([[vt * np.eye(2), np.eye(2)],
                   [np.zeros((2, 2)), np.conj(vt) * np.eye(2)]])
    rel = LinearRelation.from_graph(bt.state, b0)
    for lam in (1 + 1j, -0.5, 3j + 1):
        expected = constant_state_resolvent(vt, lam, 2)
        assert np.max(np.abs(rel.resolvent(lam) - expected)) <= 1e-12
    # a0 of the triple is that same block relation
    assert span_subspace(bt.a0).equals(span_subspace(rel), tol=1e-10)


def test_realize_constant_gamma_plus_formula():
    theta = np.zeros((2, 2))
    vt = 2j
    bt = realize_constant(theta, vt)
    mu = vt / 2  # the anchor of the defect span in the construction
    for eta in (1 + 1j, -3j, 0.7 - 0.4j):
        gp = bt.gamma_plus(bt.weyl_data(eta).gamma_mat)
        coeff = np.conj((vt - mu) / (vt - eta))
        expected = np.hstack([np.zeros((2, 2)), coeff * np.eye(2)])
        assert np.linalg.norm(gp - expected) <= 1e-10


def test_realize_constant_kernel_identity():
    # gamma(eta)^+ gamma(lam) vanishes identically, so the Weyl difference
    # quotient is zero
    bt = realize_constant(np.diag([3.0, -1.0]).astype(complex), 1.5j)
    for lam, eta in ((1 + 1j, 2j), (-1 - 1j, 0.5 + 0.25j)):
        gp = bt.gamma_plus(bt.weyl_data(eta).gamma_mat)
        assert np.linalg.norm(gp @ bt.weyl_data(lam).gamma_mat) <= 1e-12


def test_realize_constant_rejects_real_anchor():
    with pytest.raises(RealTheta):
        realize_constant(np.zeros((1, 1)), 2.0)


# ---------------------------------------------------------------------------
# coupling


def test_couple_trivial_kernel_degenerates():
    sp = KreinSpace(1)
    a0 = LinearRelation.from_graph(sp, np.zeros((1, 1)))
    rf = RepresentationForm(space=sp, a0=a0, gamma=np.array([[1.0]]),
                            lambda0=1j, c=np.zeros((1, 1)))
    bt = realize_strict(rf)
    out = couple(bt, _empty_triple(), np.zeros((1, 0)), np.zeros((0, 1)))
    assert out is bt


def _empty_triple():
    class _T:  # minimal stand-in with zero boundary channels
        boundary_dim = 0
    return _T()


def test_couple_diag_lambda_five():
    rf = diag_lambda_five()
    dec = decompose(rf, 1j)
    strict_rf = RepresentationForm(
        space=rf.space, a0=rf.a0, gamma=rf.gamma @ dec.iota_strict,
        lambda0=rf.lambda0,
        c=dec.iota_strict.conj().T @ rf.c @ dec.iota_strict)
    t_s = realize_strict(strict_rf)
    t_c = realize_constant(dec.constant_block, 3j)
    bt = couple(t_s, t_c, dec.constant_cross, dec.constant_cross2,
                rotation=dec.basis)
    assert bt.green_residual() <= 1e-12
    ok, worst = weyl_match(bt, rf, [2j])
    assert ok, worst
    assert np.linalg.norm(bt.weyl_data(2j).m_mat - np.diag([2j, 5.0])) <= 1e-10


def test_couple_rejects_nonadjoint_blocks():
    rf = diag_lambda_five()
    dec = decompose(rf, 1j)
    strict_rf = RepresentationForm(
        space=rf.space, a0=rf.a0, gamma=rf.gamma @ dec.iota_strict,
        lambda0=rf.lambda0,
        c=dec.iota_strict.conj().T @ rf.c @ dec.iota_strict)
    t_s = realize_strict(strict_rf)
    t_c = realize_constant(dec.constant_block, 3j)
    with pytest.raises(NonAdjointBlocks):
        couple(t_s, t_c, np.array([[1.0]]), np.array([[2.0]]))


def test_coupled_symmetric_part_spectrum():
    # the only eigenvalue of ker Gamma in the coupled system is the anchor
    vt = 3j
    bt = realize(diag_lambda_five(), vartheta=vt)
    s = kernel_relation(bt)
    assert symmetry_residual(s) <= 1e-10
    assert eigen_kernel(s, vt).dim >= 1
    for lam in (0.0, 1.0, 2j, np.conj(vt), 5.0):
        assert eigen_kernel(s, lam).dim == 0


# ---------------------------------------------------------------------------
# full pipeline


def test_realize_strict_path_dispatch():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 3))
    m = (m + m.T) / 2
    sp = KreinSpace(3)
    a0 = LinearRelation.from_graph(sp, m)
    rf = RepresentationForm(space=sp, a0=a0, gamma=np.eye(3)[:, :2],
                            lambda0=1j, c=np.zeros((2, 2)))
    bt = realize(rf)
    direct = realize_strict(rf)
    assert bt.state.dim == direct.state.dim
    ok, worst = weyl_match(bt, rf, POINTS)
    assert ok, worst


def test_realize_diag_lambda_five_pipeline():
    rf = diag_lambda_five()
    bt = realize(rf)
    ok, worst = weyl_match(bt, rf, POINTS)
    assert ok, worst
    assert bt.green_residual() <= 1e-10


def test_realize_seeded_nonstrict_3x3():
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    sp = KreinSpace(2)
    m = rng.standard_normal((2, 2))
    a0 = LinearRelation.from_graph(sp, (m + m.T) / 2)
    gamma = rng.standard_normal((2, 2)) @ np.hstack(
        [np.eye(2), np.zeros((2, 1))]) @ q.T
    c = rng.standard_normal((3, 3))
    rf = RepresentationForm(space=sp, a0=a0, gamma=gamma, lambda0=1j,
                            c=(c + c.T) / 2)
    bt = realize(rf)
    ok, worst = weyl_match(bt, rf, POINTS)
    assert ok, worst
    # coupled realizations of non-strict functions are never minimal:
    # the constant block contributes unreachable state directions
    samples = default_samples(3, seed=1, count=10)
    ver = verify_realization(bt, rf, samples)
    assert ver["green"] <= 1e-10
    assert max(ver["triple_identities"].values()) <= 1e-9


# ---------------------------------------------------------------------------
# rational realization


def test_realize_rational_m1():
    tau = RationalNevanlinna(alpha=(scalar(0),), beta=(scalar(1),))
    bt = realize_rational(tau)
    assert abs(bt.weyl_data(1j).m_mat[0, 0] - 1j) <= 1e-12


def test_realize_rational_m2_scalar():
    tau = RationalNevanlinna(alpha=(scalar(0), scalar(0)),
                             beta=(scalar(1), scalar(1)))
    bt = realize_rational(tau)
    assert abs(bt.weyl_data(2.0).m_mat[0, 0] - 1.5) <= 1e-12


def test_realize_rational_seeded_g2_m3():
    rng = np.random.default_rng(11)
    alphas, betas = [], []
    for k in range(3):
        a = rng.standard_normal((2, 2))
        alphas.append((a + a.T) / 2)
        b = rng.standard_normal((2, 2))
        betas.append(b @ b.T + (0.5 if k == 0 else 0.0) * np.eye(2))
    tau = RationalNevanlinna(alpha=tuple(alphas), beta=tuple(betas))
    bt = realize_rational(tau)
    assert bt.green_residual() <= 1e-12
    assert bt.state.is_hilbert
    ok, worst = weyl_match(bt, tau, POINTS)
    assert ok, worst
    assert bt.is_ordinary()


def test_realize_rational_rejects_singular_beta1():
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)),),
                             beta=(np.diag([1.0, 0.0]),))
    with pytest.raises(BetaOneSingular):
        realize_rational(tau)


def test_realize_dispatches_rational():
    tau = RationalNevanlinna(alpha=(scalar(0), scalar(0)),
                             beta=(scalar(1), scalar(1)))
    bt = realize(tau)
    assert bt.state.is_hilbert
    assert abs(bt.weyl_data(2.0).m_mat[0, 0] - 1.5) <= 1e-12
