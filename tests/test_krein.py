"""Subspace arithmetic, Krein spaces and linear relation calculus."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.linalg

from weylbvp import (
    DimensionMismatch,
    KreinSpace,
    LinearRelation,
    RankDeficientCoupling,
    SpectrumPoint,
    column_space,
    intersect,
    nullspace,
)
from weylbvp.krein import dense_lu

from oracles import adjoint, adjoint_gap, span_subspace, symmetry_residual


def hilbert(n):
    return KreinSpace(n)


# ---------------------------------------------------------------------------
# subspaces


def test_column_space_identity():
    s = column_space(np.eye(3))
    assert s.dim == 3


def test_column_space_zero():
    s = column_space(np.zeros((3, 2)))
    assert s.dim == 0


def test_column_space_rank_one():
    s = column_space(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert s.dim == 1
    v = s.basis[:, 0]
    target = np.array([1.0, 1.0]) / np.sqrt(2)
    assert min(np.linalg.norm(v - target), np.linalg.norm(v + target)) < 1e-12


def test_intersect_self():
    u = column_space(np.random.default_rng(0).standard_normal((4, 2)))
    assert intersect(u, u).equals(u)


def test_intersect_disjoint():
    u = column_space(np.array([[1.0], [0.0]]))
    v = column_space(np.array([[0.0], [1.0]]))
    assert intersect(u, v).dim == 0


def test_intersect_partial_overlap():
    u = column_space(np.eye(3)[:, :2])        # span(e1, e2)
    v = column_space(np.eye(3)[:, 1:])        # span(e2, e3)
    w = intersect(u, v)
    assert w.dim == 1
    # brute-force check: basis vector is (up to phase) e2
    proj = np.abs(w.basis[:, 0])
    assert np.allclose(proj, [0, 1, 0], atol=1e-12)


def test_intersect_dimension_mismatch():
    u = column_space(np.eye(2))
    v = column_space(np.eye(3))
    with pytest.raises(DimensionMismatch):
        intersect(u, v)


# ---------------------------------------------------------------------------
# Krein spaces


def test_kreinspace_rejects_nonhermitian_gram():
    with pytest.raises(DimensionMismatch):
        KreinSpace(2, gram=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_kreinspace_indefinite_needs_symmetry():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        KreinSpace(2, gram=flip)
    sp = KreinSpace(2, gram=flip, j=flip)
    assert sp.signature() == (1, 1)


def test_kreinspace_one_eigvalsh_no_svd(monkeypatch):
    calls = {"eigvalsh": 0, "eigh": 0, "svd": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    rng = np.random.default_rng(4)
    b = rng.standard_normal((6, 6))
    sp = KreinSpace(6, gram=b @ b.T + 6 * np.eye(6))
    assert sp.signature() == (6, 0)
    assert calls == {"eigvalsh": 1, "eigh": 0, "svd": 0}


def test_kreinspace_default_gram_takes_no_eigensolve(monkeypatch):
    explicit = KreinSpace(5, gram=np.eye(5))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: pytest.fail("eigvalsh"))
    default = KreinSpace(5)
    assert default.signature() == explicit.signature() == (5, 0)
    assert np.array_equal(default.gram, explicit.gram)


def test_kreinspace_rejects_singular_gram_with_and_without_j():
    g = np.diag([1.0, 1e-13])                  # cond 1e13 > COND_LIMIT
    with pytest.raises(DimensionMismatch, match="singular"):
        KreinSpace(2, gram=g)
    with pytest.raises(DimensionMismatch, match="singular"):
        KreinSpace(2, gram=np.diag([1.0, -1e-13]), j=np.diag([1.0, -1.0]))
    # just inside the limit both are accepted
    KreinSpace(2, gram=np.diag([1.0, 1e-11]))
    KreinSpace(2, gram=np.diag([1.0, -1e-11]), j=np.diag([1.0, -1.0]))


def test_kreinspace_rejects_sign_mismatched_symmetry():
    with pytest.raises(DimensionMismatch, match="positive definite"):
        KreinSpace(2, gram=np.diag([1.0, -1.0]), j=np.eye(2))


def test_pair_gram_reproduces_indefinite_product():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((3, 3))
    g = g @ g.T + np.eye(3)
    sp = KreinSpace(3, gram=g)
    k = sp.pair_gram()
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lhs = np.vdot(h, k @ f)
    # [x, y] = y^* G x
    rhs = 1j * (np.vdot(h[3:], sp.gram @ f[:3]) - np.vdot(h[:3], sp.gram @ f[3:]))
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# the guarded dense LU


@pytest.mark.parametrize("error", [RankDeficientCoupling, SpectrumPoint])
def test_dense_lu_raises_at_an_exact_zero_pivot(error):
    # the second pivot of [[1, 2], [2, 4]] is exactly 1 - 0.5 * 2 = 0
    with pytest.raises(error, match="S is singular"):
        dense_lu(np.array([[1.0, 2.0], [2.0, 4.0]]), error, "S")


@pytest.mark.parametrize("error", [RankDeficientCoupling, SpectrumPoint])
@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_lu_raises_above_the_condition_limit(error, dtype):
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    mat = (q * np.array([1.0, 1.0, 0.5, 1.0, 2.0, 1e-13])) @ q.T   # cond ~2e13
    with pytest.raises(error, match="numerically singular"):
        dense_lu(mat.astype(dtype), error, "S")


def test_dense_lu_returns_the_factor_of_a_well_conditioned_matrix():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b = rng.standard_normal(6)
    lu = dense_lu(mat.copy(), SpectrumPoint, "S")
    assert np.allclose(mat @ scipy.linalg.lu_solve(lu, b), b, atol=1e-12)


# ---------------------------------------------------------------------------
# adjoints and symmetry


def test_adjoint_identity_graph_selfadjoint():
    sp = hilbert(2)
    a = LinearRelation.from_graph(sp, np.eye(2))
    assert span_subspace(adjoint(a)).equals(span_subspace(a))
    assert a.is_selfadjoint()


def test_adjoint_of_trivial_relation():
    sp = hilbert(2)
    a = LinearRelation(sp, np.zeros((4, 0), dtype=complex))
    assert adjoint(a).dim == 4


def test_companion_block_selfadjoint_in_krein_space():
    # graph of [[t, 1], [0, conj(t)]] with the flip product is selfadjoint
    t = 1.5 + 2.0j
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = KreinSpace(2, gram=flip, j=flip)
    b0 = np.array([[t, 1.0], [0.0, np.conj(t)]])
    a = LinearRelation.from_graph(sp, b0)
    assert a.is_selfadjoint(tol=1e-12)


def test_hermitian_graph_selfadjoint():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = m + m.conj().T
    a = LinearRelation.from_graph(hilbert(3), m)
    assert a.is_selfadjoint()


def test_nilpotent_graph_not_symmetric():
    a = LinearRelation.from_graph(hilbert(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert symmetry_residual(a) > 1e-10


def test_restriction_symmetric_not_selfadjoint():
    # restrict a selfadjoint diagonal operator to vectors with the defect
    # direction removed: symmetric, strictly contained in its adjoint
    sp = hilbert(2)
    a0 = np.diag([1.0, 3.0])
    basis = np.vstack([np.eye(2)[:, :1], a0[:, :1]])
    a = LinearRelation.from_span(sp, basis)
    assert symmetry_residual(a) <= 1e-10
    assert not a.is_selfadjoint()


@pytest.mark.parametrize("k", [1, 3])
def test_relation_of_wrong_dimension_is_neither_selfadjoint_nor_resolvable(k):
    # dim A < dim H leaves part of H out of ran(A - lam), dim A > dim H puts
    # a vector in ker(A - lam): no lam is a resolvent point
    basis = np.random.default_rng(k).standard_normal((4, k))
    a = LinearRelation.from_span(hilbert(2), basis)
    assert a.dim == k
    with pytest.raises(SpectrumPoint, match="has no resolvent point"):
        a.resolvent(1.0j)
    assert a.selfadjointness_residual() == 1.0
    assert not a.is_selfadjoint()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
       st.booleans(), st.floats(min_value=-9.0, max_value=-1.0))
def test_selfadjointness_residual_bounds_the_adjoint_gap(seed, n, krein, log_eps):
    """||B^H K B||_F ||G^{-1}||_2 is never below gap(A, A^+), for a
    G-selfadjoint graph G^{-1} H perturbed by eps in [1e-9, 1e-1], in a
    Hilbert space and in a Krein space G = U diag(s d) U^H, J = U diag(s) U^H.
    In dimension 1 the bound is attained (both sides are 2|Im a|/(1 + |a|^2)
    for the graph of a), so the comparison allows both sides' absolute
    roundoff, a few ulps of ||G|| ||G^{-1}||."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if krein:
        u = np.linalg.qr(m)[0]
        s = rng.choice([-1.0, 1.0], size=n)
        g = (u * (s * rng.uniform(0.2, 5.0, size=n))) @ u.conj().T
        sp = KreinSpace(n, gram=(g + g.conj().T) / 2, j=(u * s) @ u.conj().T)
    else:
        sp = KreinSpace(n, gram=m @ m.conj().T + np.eye(n))
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = np.linalg.solve(sp.gram, h + h.conj().T) + 10.0 ** log_eps * e / np.linalg.norm(e, 2)
    rel = LinearRelation.from_graph(sp, a)
    assert rel.selfadjointness_residual() >= adjoint_gap(rel) - 1e-13


# ---------------------------------------------------------------------------
# resolvents


def test_resolvent_diagonal():
    a = LinearRelation.from_graph(hilbert(2), np.diag([1.0, 2.0]))
    r = a.resolvent(0.0)
    assert np.allclose(r, np.diag([1.0, 0.5]), atol=1e-12)


def test_resolvent_companion_closed_form():
    t = 2.0j
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = KreinSpace(2, gram=flip, j=flip)
    b0 = np.array([[t, 1.0], [0.0, np.conj(t)]])
    a = LinearRelation.from_graph(sp, b0)
    for lam in (1.0 + 1.0j, -0.5, 3.0j + 1):
        expected = np.array([
            [1 / (t - lam), 1 / ((lam - t) * (np.conj(t) - lam))],
            [0.0, 1 / (np.conj(t) - lam)],
        ])
        assert np.allclose(a.resolvent(lam), expected, atol=1e-12)


def test_resolvent_multivalued_block():
    # first block purely multivalued, remaining blocks diagonal operators:
    # resolvent is diag(0, (a2-lam)^{-1})
    sp = hilbert(2)
    basis = np.array([
        [0.0, 0.0],
        [0.0, 1.0],
        [1.0, 0.0],
        [0.0, 4.0],
    ])
    a = LinearRelation.from_span(sp, basis)
    r = a.resolvent(1.0)
    assert np.allclose(r, np.diag([0.0, 1.0 / 3.0]), atol=1e-12)


def test_resolvent_purely_multivalued():
    # {0} x H: the resolvent of a purely multivalued relation is the zero operator
    basis = np.vstack([np.zeros((2, 2)), np.eye(2)])
    a = LinearRelation.from_span(hilbert(2), basis)
    assert np.allclose(a.resolvent(1.0 + 1.0j), 0.0)


def test_resolvent_spectrum_point():
    a = LinearRelation.from_graph(hilbert(2), np.diag([1.0, 2.0]))
    with pytest.raises(SpectrumPoint):
        a.resolvent(1.0)


def test_resolvent_identity():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = LinearRelation.from_graph(hilbert(4), m)
    lam, mu = 5.0 + 2.0j, -3.0 + 1.0j
    rl, rm = a.resolvent(lam), a.resolvent(mu)
    lhs = rl - rm
    rhs = (lam - mu) * rl @ rm
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * max(1.0, np.linalg.norm(rhs, 2))


def test_selfadjoint_resolvent_norm_bound():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 5))
    m = m + m.T
    a = LinearRelation.from_graph(hilbert(5), m)
    for lam in (1.0j, 2.0 - 0.5j, -1.0 + 0.25j):
        assert np.linalg.norm(a.resolvent(lam), 2) <= 1.0 / abs(lam.imag) + 1e-12


# ---------------------------------------------------------------------------
# structural properties (randomized)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=8))
def test_adjoint_involution_and_dimension(seed, n, k):
    k = min(k, 2 * n)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = g @ g.conj().T + np.eye(n)
    sp = KreinSpace(n, gram=g)
    basis = rng.standard_normal((2 * n, k)) + 1j * rng.standard_normal((2 * n, k))
    a = LinearRelation.from_span(sp, basis)
    adj = adjoint(a)
    assert a.dim + adj.dim == 2 * n
    assert span_subspace(adjoint(adj)).gap(span_subspace(a)) <= 1e-10
