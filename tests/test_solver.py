"""Solver machinery: resolvent-formula/direct/compressed oracle equivalence,
linearization selfadjointness, solvability set, and eigenvalue
correspondence.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

from weylbvp import (
    BoundaryTriple,
    ConstantFunction,
    DimensionMismatch,
    KreinSpace,
    LinearRelation,
    MathDomainError,
    RankDeficientCoupling,
    RationalNevanlinna,
    RepresentationForm,
    SpectrumPoint,
    build_1d,
    build_2d,
    build_fixed_extension,
    build_linearization,
    compressed_resolvent,
    direct_solve,
    eigen_correspondence,
    elliptic_triple,
    homogeneous_scan,
    krein_resolve,
    realize,
    realize_constant,
    realize_rational,
)
from weylbvp import solver
import weylbvp.elliptic
from weylbvp.elliptic import EllipticTriple, SparseRoute
from weylbvp.solver import SLICE_COUNT, Linearization, eigenvalue_count

from oracles import (dense_eigenpairs, dense_l_ii, dense_matrix, elliptic_gamma, fixed_extension,
                     fixed_extension_count)


def rational_m2(g):
    return RationalNevanlinna(alpha=(np.zeros((g, g)), -2 * np.eye(g)),
                              beta=(np.eye(g), np.eye(g)))


def linear_tau(g):
    return RationalNevanlinna(alpha=(np.zeros((g, g)),), beta=(np.eye(g),))


@pytest.fixture(scope="module")
def et1d():
    return elliptic_triple(build_1d(40))


@pytest.fixture(scope="module")
def et2d():
    return elliptic_triple(build_2d(8, 8))


def taus_for(nb):
    return [ConstantFunction(theta=2.0 * np.eye(nb)), linear_tau(nb),
            rational_m2(nb)]


def hidden_pole_tau():
    """beta_2 = diag(1, 0) hides the pole -2 from tau in one direction, so the
    linearization has an eigenvalue at the pole itself."""
    return RationalNevanlinna(alpha=(np.zeros((2, 2)), -2 * np.eye(2)),
                              beta=(np.eye(2), np.diag([1.0, 0.0])))


def in_solvable_set(et, tau, lam):
    """Whether lam passes the guards of ``krein_resolve``: off the Dirichlet
    spectrum and the poles, and sigma_min(M + tau) above its threshold."""
    try:
        krein_resolve(et, tau, lam, np.zeros(et.de.n_interior))
    except SpectrumPoint:
        return False
    return True


def product_gram(lin):
    """The product metric W = h^d I (+) G as a dense matrix."""
    return scipy.linalg.block_diag(lin.weight * np.eye(lin.n_interior), lin.state_gram)


def lin_for(et, tau):
    if isinstance(tau, RationalNevanlinna):
        return build_linearization(et, realize_rational(tau))
    return build_linearization(et, realize_constant(tau.theta, 3.7j))


# ---------------------------------------------------------------------------
# oracle equivalence


@pytest.mark.parametrize("which", ["1d", "2d"])
def test_three_way_oracle_equivalence(which, et1d, et2d):
    et = et1d
    et = {"1d": et1d, "2d": et2d}[which]
    nb = et.de.n_boundary
    rng = np.random.default_rng(17)
    n = et.de.n_interior
    for tau in taus_for(nb):
        lin = lin_for(et, tau)
        assert lin.w_symmetry_residual() <= 1e-10
        for _ in range(7):
            lam = complex(rng.uniform(-2, 3), rng.uniform(0.4, 2) * rng.choice([-1, 1]))
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f1 = krein_resolve(et, tau, lam, g).f
            f2 = direct_solve(et, tau, lam, g)
            f3 = compressed_resolvent(lin, lam, g)
            scale = np.linalg.norm(f1)
            assert np.linalg.norm(f1 - f2) <= 1e-10 * scale
            assert np.linalg.norm(f1 - f3) <= 1e-10 * scale


def test_three_routes_agree_at_2d_50x50():
    et = elliptic_triple(build_2d(50, 50))
    tau = rational_m2(et.de.n_boundary)
    lin = build_linearization(et, realize_rational(tau))
    n = et.de.n_interior
    rng = np.random.default_rng(50)
    for lam in (3.0 + 1.5j, 40.0 - 0.5j):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f1 = krein_resolve(et, tau, lam, g).f
        scale = np.linalg.norm(f1)
        assert np.linalg.norm(direct_solve(et, tau, lam, g) - f1) <= 1e-10 * scale
        assert np.linalg.norm(compressed_resolvent(lin, lam, g) - f1) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), n1=st.integers(5, 40), n2=st.integers(3, 8),
       p0=st.floats(0.5, 3.0), p1=st.floats(-0.4, 2.0), a0=st.floats(0.0, 5.0),
       seed=st.integers(0, 2**32 - 1), re=st.floats(-10.0, 100.0),
       im=st.floats(0.1, 5.0), sign=st.sampled_from([-1, 1]))
def test_three_routes_agree_on_random_problems(dim, n1, n2, p0, p1, a0, seed, re, im, sign):
    # 1D with p = p0 + p1 x > 0 or a 2D square, a potential a0, an m = 2
    # rational tau with random Hermitian alpha and PSD beta (beta_1 >= 0.1 I)
    # and a nonreal lambda: the three routes agree, or the problem is refused
    # as a domain error
    de = build_1d(n1, p=lambda x: p0 + p1 * x, a=a0) if dim == 1 else build_2d(n2, n2, a=a0)
    et = elliptic_triple(de)
    nb, n = de.n_boundary, de.n_interior
    rng = np.random.default_rng(seed)

    def square():
        return rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))

    alpha = tuple((m + m.conj().T) / 2 for m in (square(), square()))
    b1, b2 = (m @ m.conj().T for m in (square(), square()))
    tau = RationalNevanlinna(alpha=alpha, beta=(b1 + 0.1 * np.eye(nb), b2))
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    lam = complex(re, sign * im)
    try:
        f1 = krein_resolve(et, tau, lam, g).f
        f2 = direct_solve(et, tau, lam, g)
        f3 = compressed_resolvent(build_linearization(et, realize_rational(tau)), lam, g)
    except MathDomainError:
        return
    scale = max(np.linalg.norm(f) for f in (f1, f2, f3))
    pair = max(np.linalg.norm(f1 - f2), np.linalg.norm(f1 - f3), np.linalg.norm(f2 - f3))
    assert pair <= 1e-10 * scale


# ---------------------------------------------------------------------------
# singularity guards of the sparse routes


GUARD_PROBLEMS = pytest.mark.parametrize(
    "build", [lambda: build_1d(99), lambda: build_2d(15, 15)], ids=["1d-99", "2d-15x15"])


def guarded_routes(build, first=None):
    """(et, tau, lin, g) on a triple whose sparse routes, if ``first`` is
    given, have solved there once and so keep their column ordering."""
    et = elliptic_triple(build())
    tau = rational_m2(et.de.n_boundary)
    lin = build_linearization(et, realize_rational(tau))
    g = np.ones(et.de.n_interior, dtype=complex)
    if first is not None:
        direct_solve(et, tau, first, g)
        compressed_resolvent(lin, first, g)
    return et, tau, lin, g


def assert_sparse_guards_raise(et, tau, lin, g):
    # every eigenvalue, so that the modes odd under the grid's symmetries
    # (invisible to an all-ones start of the condition estimate) are included
    for lam in dense_eigenpairs(lin)[0]:
        with pytest.raises(SpectrumPoint, match="coupled system at lambda="):
            direct_solve(et, tau, lam, g)
        with pytest.raises(SpectrumPoint, match="A - lambda at lambda="):
            compressed_resolvent(lin, lam, g)


@GUARD_PROBLEMS
def test_sparse_guards_raise_at_linearization_eigenvalues(build):
    assert_sparse_guards_raise(*guarded_routes(build))


@GUARD_PROBLEMS
def test_sparse_guards_raise_at_linearization_eigenvalues_after_ordering(build):
    # every eigenvalue meets the reused ordering and its natural-order LU
    et, tau, lin, g = guarded_routes(build, first=1 + 1j)
    kept = (et.direct_route.columns, lin.sparse_route.columns)
    assert all(columns is not None for columns in kept)
    assert_sparse_guards_raise(et, tau, lin, g)
    assert et.direct_route.columns is kept[0] and lin.sparse_route.columns is kept[1]


@pytest.mark.parametrize("build", [lambda: build_1d(30), lambda: build_2d(6, 6)],
                         ids=["1d-30", "2d-6x6"])
def test_every_route_raises_spectrum_point_at_an_eigenvalue(build):
    # one failure, one class: each route names its own guard in the message
    et, tau, lin, g = guarded_routes(build)
    for lam in dense_eigenpairs(lin)[0][:6]:
        with pytest.raises(SpectrumPoint, match="is outside the solvability set"):
            krein_resolve(et, tau, lam, g)
        with pytest.raises(SpectrumPoint, match="coupled system at lambda="):
            direct_solve(et, tau, lam, g)
        with pytest.raises(SpectrumPoint, match="A - lambda at lambda="):
            compressed_resolvent(lin, lam, g)


def test_every_evaluation_raises_spectrum_point_at_a_pole(et1d):
    tau = rational_m2(2)
    g = np.ones(et1d.de.n_interior)
    with pytest.raises(SpectrumPoint, match="is a pole of the rational function"):
        tau.eval(-2.0)
    with pytest.raises(SpectrumPoint, match="is a pole of the rational function"):
        krein_resolve(et1d, tau, -2.0, g)
    with pytest.raises(SpectrumPoint, match="is a pole of the rational function"):
        direct_solve(et1d, tau, -2.0, g)
    with pytest.raises(SpectrumPoint, match="is a pole of the rational function"):
        eigenvalue_count(et1d, tau, -2.0)


def test_dirichlet_guard_refuses_a_point_next_to_a_dirichlet_eigenvalue():
    # the guard of ``dirichlet_factor`` is its condition estimate: 5e-13
    # max|mu| above mu_1 it reads about 2.5e12, past COND_LIMIT, so the factor
    # and weyl_data refuse the point.  At 5e-12 max|mu| it reads about 2.5e11
    # and the factor is taken, but the perturbed resolvent still refuses the
    # point, which lies outside the solvability set
    et = elliptic_triple(build_1d(30))
    eigs = et.de.dirichlet_eigs
    tau = rational_m2(2)
    near = float(eigs[0] + 5e-13 * np.max(np.abs(eigs)))
    with pytest.raises(SpectrumPoint, match="Dirichlet spectrum"):
        et.de.dirichlet_factor(near)
    with pytest.raises(SpectrumPoint, match="Dirichlet spectrum"):
        et.weyl_data(near)
    x = float(eigs[0] + 5e-12 * np.max(np.abs(eigs)))
    with pytest.raises(SpectrumPoint, match="outside the solvability set"):
        krein_resolve(et, tau, x, np.ones(30))


COUNT_PROBLEMS = {"2d-6x6": lambda: build_2d(6, 6),
                  "2d-4x6": lambda: build_2d(4, 6, rect=(0.0, 1.0, 0.0, 1.4))}


@pytest.mark.parametrize("tau_name", ["constant", "hermitian", "rational"])
@pytest.mark.parametrize("problem", sorted(COUNT_PROBLEMS))
def test_count_matches_dense_reference(problem, tau_name):
    # the bordered count against dense eigensolves on 2D grids, corner
    # channels included: a constant tau by the fixed extension, a rational
    # one by its linearization; at points between eigenvalues and at
    # Dirichlet eigenvalues, where the count is defined
    et = elliptic_triple(COUNT_PROBLEMS[problem]())
    nb = et.de.n_boundary
    rng = np.random.default_rng(4)
    z = rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))
    theta = {"constant": 2.0 * np.eye(nb), "hermitian": 3.0 * (z + z.conj().T),
             "rational": None}[tau_name]
    if theta is None:
        tau = rational_m2(nb)
        eigs = window_eigenvalues(lin_for(et, tau), -np.inf, np.inf)

        def reference(x):
            return int(np.count_nonzero(eigs < x))
    else:
        tau = ConstantFunction(theta=theta)

        def reference(x):
            return fixed_extension_count(et, theta, x)
    dirichlet = et.de.dirichlet_eigs
    points = [-7.5, 3.1, 55.0, 180.0, 420.0] + [float(dirichlet[k]) for k in (0, 4, 9)]
    counts = [eigenvalue_count(et, tau, x) for x in points]
    assert counts == [reference(x) for x in points]
    assert len(set(counts)) > 3


def test_exactly_singular_factorization_is_a_domain_error():
    # with eta = 0 and tau(lam) = lam, M(0) + tau(0) = 0: lambda = 0 is an
    # eigenvalue of multiplicity n_B, and on the h = 1/4 grid SuperLU meets an
    # exact zero pivot in the direct oracle
    et = elliptic_triple(build_1d(3), eta=0.0)
    tau = linear_tau(2)
    with pytest.raises(SpectrumPoint, match="coupled system at lambda=0.0 is singular") \
            as direct:
        direct_solve(et, tau, 0.0, np.ones(3))
    # A's entries come from an LU of C, so its exact singularity at 0 is lost
    # to rounding; a zero row makes A - 0 exactly singular by construction
    lin = build_linearization(et, realize_rational(tau))
    matrix = dense_matrix(lin)
    matrix[1] = 0
    zero_row = dataclasses.replace(lin, matrix=scipy.sparse.csr_array(matrix))
    with pytest.raises(SpectrumPoint, match="A - lambda at lambda=0.0 is singular") \
            as compressed:
        compressed_resolvent(zero_row, 0.0, np.ones(3))
    for info in (direct, compressed):
        assert isinstance(info.value.__cause__, RuntimeError)


def test_krein_resolve_zero_rhs(et1d):
    rep = krein_resolve(et1d, linear_tau(2), 1 + 1j, np.zeros(40))
    assert np.linalg.norm(rep.f) <= 1e-12


def test_krein_resolve_refuses_next_to_a_dirichlet_eigenvalue():
    # 1e-6 above the lowest Dirichlet eigenvalue, T_D - lam is so
    # ill-conditioned that the Krein solution leaves pde and boundary
    # residuals of a few 1e-8, while the sparse routes still agree
    et = elliptic_triple(build_1d(30))
    tau = rational_m2(2)
    rng = np.random.default_rng(11)
    g = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    lam = complex(et.de.dirichlet_eigs[0], 1e-6)
    with pytest.raises(SpectrumPoint, match="residual"):
        krein_resolve(et, tau, lam, g)
    f2 = direct_solve(et, tau, lam, g)
    f3 = compressed_resolvent(build_linearization(et, realize_rational(tau)), lam, g)
    assert np.linalg.norm(f2 - f3) <= 1e-10 * np.linalg.norm(f2)
    rep = krein_resolve(et, tau, complex(et.de.dirichlet_eigs[0], 1e-2), g)
    assert max(rep.pde_residual, rep.bc_residual) <= solver.RESIDUAL_LIMIT


def _dense_coupling_linearization(et, realized):
    """Reference: the coupled system in the unknowns u = (f_D, y, c) assembled
    in full (state matching f_D + E_eta y = f, first c = k, y = Gamma_0 c,
    h^d L_BI f_D = Gamma_1 c) and solved densely, q u = s, A = r u."""
    de = et.de
    n, nb = de.n_interior, de.n_boundary
    nk, tk = realized.state.dim, realized.t_dim
    w = de.weight
    nu = n + nb + tk
    q = np.zeros((n + nk + 2 * nb, nu), dtype=complex)
    s = np.zeros((n + nk + 2 * nb, n + nk), dtype=complex)
    q[:n, :n] = np.eye(n)
    q[:n, n:n + nb] = et.extension
    s[:n, :n] = np.eye(n)
    q[n:n + nk, n + nb:] = realized.first
    s[n:n + nk, n:] = np.eye(nk)
    q[n + nk:n + nk + nb, n:n + nb] = np.eye(nb)
    q[n + nk:n + nk + nb, n + nb:] = -realized.g0
    q[n + nk + nb:, :n] = -w * de.l_ib.T
    q[n + nk + nb:, n + nb:] = realized.g1
    u = np.linalg.solve(q, s)
    r = np.zeros((n + nk, nu), dtype=complex)
    r[:n, :n] = dense_l_ii(de)
    r[:n, n:n + nb] = et.eta * et.extension
    r[n:, n + nb:] = realized.second
    gram = np.zeros((n + nk, n + nk), dtype=complex)
    gram[:n, :n] = w * np.eye(n)
    gram[n:, n:] = realized.state.gram
    return r @ u, gram


def test_rational_matches_general_linearization(et1d, et2d):
    # the eliminated builder (and its rational entry) against the full
    # coupling system: rational tau in 1D and 2D, and constant tau over an
    # indefinite state space; the fixed extension against its dense formula
    for et in (et1d, et2d):
        nb = et.de.n_boundary
        tau = rational_m2(nb)
        const = 2.0 * np.eye(nb)
        for lin, realized in (
                (build_linearization(et, realize_rational(tau)), realize_rational(tau)),
                (lin_for(et, ConstantFunction(theta=const)), realize_constant(const, 3.7j))):
            a_ref, w_ref = _dense_coupling_linearization(et, realized)
            assert np.linalg.norm(dense_matrix(lin) - a_ref, 2) <= 1e-8
            assert np.linalg.norm(product_gram(lin) - w_ref, 2) <= 1e-12
        fixed = build_fixed_extension(et, const)
        assert fixed.state_gram.shape == (0, 0)
        assert np.linalg.norm(dense_matrix(fixed) - fixed_extension(et, const)[0], 2) <= 1e-8


def test_real_tau_gives_real_linearization(et1d, monkeypatch):
    # a real realization is stored real, so the eigensolve factors a real
    # A - sigma and returns real eigenvectors; A - lam stays complex in the
    # compressed resolvent, at a real lam too
    tau = rational_m2(2)
    lin = build_linearization(et1d, realize_rational(tau))
    assert lin.matrix.dtype == float and np.isrealobj(lin.state_gram)
    factored = []
    sparse_lu = weylbvp.elliptic.sparse_lu
    monkeypatch.setattr(weylbvp.elliptic, "sparse_lu", lambda mat, *args: (
        factored.append(mat.dtype) or sparse_lu(mat, *args)))
    _, x, _ = lin.eigenpairs((0.2, 9.0), 3)
    assert factored == [float] and np.isrealobj(x)
    monkeypatch.undo()
    assert lin_for(et1d, ConstantFunction(theta=2.0 * np.eye(2))).matrix.dtype == complex
    rng = np.random.default_rng(4)
    g = rng.standard_normal(et1d.de.n_interior) + 1j * rng.standard_normal(et1d.de.n_interior)
    for lam in (-5.0, 0.5 + 1.0j):
        f1 = krein_resolve(et1d, tau, lam, g).f
        f3 = compressed_resolvent(lin, lam, g)
        assert np.linalg.norm(f1 - f3) <= 1e-10 * np.linalg.norm(f1)


def test_rank_deficient_coupling_rejected(et1d):
    # a parameter column that no coupling condition sees leaves the action
    # undetermined
    realized = realize_rational(rational_m2(2))
    keep = np.ones(realized.t_dim)
    keep[0] = 0.0
    cut = BoundaryTriple(realized.state, realized.boundary_dim,
                         realized.t_basis * keep, realized.g0 * keep,
                         realized.g1 * keep)
    with pytest.raises(RankDeficientCoupling):
        build_linearization(et1d, cut)


@pytest.mark.parametrize("which", ["rational", "constant", "fixed"])
def test_linearization_takes_one_lu_and_no_svd_or_inverse(which, et2d, monkeypatch):
    nb = et2d.de.n_boundary
    theta = 2.0 * np.eye(nb)
    realized = realize_rational(rational_m2(nb)) if which == "rational" \
        else realize_constant(theta, 3.7j)

    def build():
        if which == "fixed":
            return build_fixed_extension(et2d, theta)
        return build_linearization(et2d, realized)

    reference = dense_matrix(build())

    def forbidden(*args, **kwargs):
        raise AssertionError("SVD or explicit inverse in build_linearization")

    for owner, name in ((np.linalg, "svd"), (np.linalg, "inv"), (scipy.linalg, "svd")):
        monkeypatch.setattr(owner, name, forbidden)
    factors = []
    lu_factor = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda a, **k: factors.append(a.shape) or lu_factor(a, **k))
    lin = build()
    size = nb if which == "fixed" else realized.t_dim
    assert factors == [(size, size)]
    assert np.array_equal(dense_matrix(lin), reference)


def test_real_coupling_takes_real_solves(et2d, monkeypatch):
    # the condition estimate of a real C solves real columns: a complex
    # right-hand side would cast the real LU to complex at each solve; the
    # estimate only reads the factor, so A is bit-identical to the A of an
    # unguarded LU
    realized = realize_rational(rational_m2(et2d.de.n_boundary))
    lu_factor, lu_solve = scipy.linalg.lu_factor, scipy.linalg.lu_solve
    monkeypatch.setattr(solver, "dense_lu", lambda mat, *args: lu_factor(mat))
    unguarded = dense_matrix(build_linearization(et2d, realized))
    monkeypatch.undo()
    kinds = []
    monkeypatch.setattr(scipy.linalg, "lu_solve",
                        lambda lu, b, **k: kinds.append(np.asarray(b).dtype.kind)
                        or lu_solve(lu, b, **k))
    lin = build_linearization(et2d, realized)
    assert lin.matrix.dtype == float
    assert len(kinds) > 1 and set(kinds) == {"f"}
    assert np.array_equal(dense_matrix(lin), unguarded)


def test_w_symmetry_residual_never_below_two_norm_ratio(et1d):
    lin = build_linearization(et1d, realize_rational(rational_m2(2)))
    assert lin.w_symmetry_residual() <= 1e-10
    a = dense_matrix(lin)
    a[3, 7] += 1e-3
    bad = dataclasses.replace(lin, matrix=scipy.sparse.csr_array(a))
    wa = product_gram(bad) @ a
    two_norm_ratio = (np.linalg.norm(wa - wa.conj().T, 2)
                      / max(1.0, np.linalg.norm(wa, 2)))
    assert bad.w_symmetry_residual() > 1e-10
    assert bad.w_symmetry_residual() >= two_norm_ratio


@pytest.mark.parametrize("build", [lambda: build_1d(30), lambda: build_2d(6, 6)], ids=["1d", "2d"])
def test_slice_certificate_refuses_a_non_w_selfadjoint_a(build):
    # one entry of the block that couples the first channel row to the state,
    # scaled by 1 + 1e-6, leaves A off W-selfadjoint by about 6e-7; the
    # slice residual is A's own, so the eigensolve does not certify the slice
    de = build()
    lin = build_linearization(elliptic_triple(de), realize_rational(rational_m2(de.n_boundary)))
    n, row = lin.n_interior, de.channel_rows[0]
    a = lin.matrix.tolil()
    col = n + np.flatnonzero(a[[row], n:].toarray())[0]
    a[row, col] *= 1 + 1e-6
    bad = dataclasses.replace(lin, matrix=scipy.sparse.csr_array(a))
    assert bad.w_symmetry_residual() > 1e-7
    window = (0.2, 9.0)
    full = dense_eigenpairs(lin)[0]
    count = int(np.count_nonzero((full >= window[0]) & (full < window[1]))) + 1
    assert lin.eigenpairs(window, count)[2] <= solver.SLICE_RESIDUAL
    assert bad.eigenpairs(window, count)[2] > solver.SLICE_RESIDUAL


# ---------------------------------------------------------------------------
# solvability set


def test_outside_u_at_scan_root(et1d):
    tau = rational_m2(2)
    scan = homogeneous_scan(et1d, tau, (0.2, 9.0), lin_for(et1d, tau))
    assert scan.roots, "expected at least one homogeneous eigenvalue"
    root = scan.roots[0]
    with pytest.raises(SpectrumPoint, match="outside the solvability set: sigma_min"):
        krein_resolve(et1d, tau, root, np.ones(40))
    # the two singularity notions agree: the trace operator M + tau is
    # numerically singular exactly where the assembled system is
    s = np.linalg.svd(et1d.weyl_data(root).m_mat + tau.eval(root), compute_uv=False)
    assert s[-1] <= 1e-6 * max(s[0], 1.0)
    assert not in_solvable_set(et1d, tau, root)
    assert in_solvable_set(et1d, tau, root + 0.5j)


def test_nonreal_probes_solvable_for_nevanlinna(et1d):
    # Nevanlinna boundary functions leave all of C \ R solvable
    tau = rational_m2(2)
    rng = np.random.default_rng(23)
    for _ in range(50):
        lam = complex(rng.uniform(-5, 10), rng.uniform(0.05, 3) * rng.choice([-1, 1]))
        assert in_solvable_set(et1d, tau, lam), lam


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_uniqueness_defect_perturbation(dim, et1d, et2d):
    # perturbing the solution by a defect element breaks the boundary
    # condition: (M + tau) is injective on traces inside the solvable set
    et = {"1d": et1d, "2d": et2d}[dim]
    de = et.de
    n, nb = de.n_interior, de.n_boundary
    tau = linear_tau(nb)
    rng = np.random.default_rng(29)
    lam = 0.7 + 1.1j
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rep = krein_resolve(et, tau, lam, g)
    assert max(rep.pde_residual, rep.bc_residual) <= 1e-9
    from weylbvp.solver import _problem_residuals
    traces = [rng.standard_normal(nb) + 1j * rng.standard_normal(nb) for _ in range(3)]
    if dim == "2d":
        # a trace on the lower-left corner channel alone, which merges the
        # corner's two neighbours
        traces.append(np.eye(nb)[0])
        assert np.allclose(de.boundary_coords[0], [0.0, 0.0])
    for x in traces:
        defect = elliptic_gamma(et, lam) @ x
        # the defect element solves the interior equation with trace x ...
        assert np.linalg.norm(
            (dense_l_ii(de) - lam * np.eye(n)) @ defect + de.l_ib @ x) <= 1e-8
        # ... so adding it keeps the interior consistent but must violate
        # the boundary condition, and the residual check detects it
        r1, r2 = _problem_residuals(et, tau.eval(lam), lam, rep.f + defect, g)
        assert max(r1, r2) > 1e-6


def test_solve_and_eigen_take_no_lstsq(et2d, monkeypatch):
    # the residual checks recover the trace by a diagonal solve

    def forbidden(*args, **kwargs):
        raise AssertionError("least squares on the solve or eigen path")

    for mod in (np.linalg, scipy.linalg):
        monkeypatch.setattr(mod, "lstsq", forbidden)
    tau = rational_m2(et2d.de.n_boundary)
    g = np.random.default_rng(3).standard_normal(et2d.de.n_interior) + 0j
    rep = krein_resolve(et2d, tau, 1.0 + 1.0j, g)
    assert max(rep.pde_residual, rep.bc_residual) <= 1e-9
    report = eigen_correspondence(lin_for(et2d, tau), et2d, tau, (0.2, 9.0))
    assert report["ok"]


def test_eigen_takes_no_svd_and_one_factorization_per_count(et2d, monkeypatch):
    # each certified eigenvalue is checked by its residuals alone, each
    # count is one symmetric factorization of its bordered matrix and each
    # slice one guarded LU of A - sigma on the linearization's one route: no
    # weyl_data, and nothing takes an SVD
    tau = rational_m2(et2d.de.n_boundary)
    lin = lin_for(et2d, tau)

    def forbidden(*args, **kwargs):
        raise AssertionError("SVD or weyl_data on the eigen path")

    for owner in (np.linalg, scipy.linalg):
        monkeypatch.setattr(owner, "svd", forbidden)
    monkeypatch.setattr(EllipticTriple, "weyl_data", forbidden)
    points, factored = [], []
    factor = SparseRoute.factor
    monkeypatch.setattr(SparseRoute, "factor", lambda self, lam, what, block=None: (
        points.append((self, lam)) or factor(self, lam, what, block)))
    sparse_lu = weylbvp.elliptic.sparse_lu
    monkeypatch.setattr(weylbvp.elliptic, "sparse_lu", lambda *args: (
        factored.append(args[3]) or sparse_lu(*args)))
    report = eigen_correspondence(lin, et2d, tau, (0.2, 9.0))
    assert report["ok"] and report["eigenvalues"]
    counted = [x for route, x in points if route is et2d.count_route]
    slices = [route for route, _ in points if route is not et2d.count_route]
    assert sorted(counted) == [x for x, _ in report["counts"]]
    assert slices and all(route is lin.sparse_route for route in slices)
    assert sorted(factored) == [False] * len(slices) + [True] * len(counted)


def test_one_route_per_linearization(et2d, monkeypatch):
    # the compressed resolvent and the eigensolve factor A - lam through one
    # SparseRoute: it is built once, ordered at its first factorization, and
    # every later factorization reuses that ordering
    tau = rational_m2(et2d.de.n_boundary)
    lin = lin_for(et2d, tau)
    built, orderings = [], []
    init, sparse_lu = SparseRoute.__init__, weylbvp.elliptic.sparse_lu

    def record_init(self, *args, symmetric=False):
        if not symmetric:               # the count route is the triple's
            built.append(self)
        init(self, *args, symmetric=symmetric)

    def record_lu(mat, ordering, what, symmetric=False):
        if not symmetric:               # the counts factor the triple's route
            orderings.append(ordering)
        return sparse_lu(mat, ordering, what, symmetric)

    monkeypatch.setattr(SparseRoute, "__init__", record_init)
    monkeypatch.setattr(weylbvp.elliptic, "sparse_lu", record_lu)
    g = np.random.default_rng(5).standard_normal(lin.n_interior) + 0j
    compressed_resolvent(lin, 1.0 + 1.0j, g)
    scan = homogeneous_scan(et2d, tau, (0.2, 9.0), lin)
    assert scan.roots and not scan.failures
    assert built == [lin.sparse_route]
    assert len(orderings) > 1
    assert orderings == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(orderings) - 1)


# ---------------------------------------------------------------------------
# spectra of the linearization


def _gap_midpoint(ev, start, stop):
    """Midpoint of the widest gap between ev[start:stop+1], sorted ev."""
    k = start + int(np.argmax(np.diff(ev[start:stop + 1])))
    return (ev[k] + ev[k + 1]) / 2


def _slice(lin, start, stop):
    """(window, count) of a slice whose ends lie in the widest gaps around
    ev[start] and ev[stop], by the dense oracle."""
    full = dense_eigenpairs(lin)[0]
    window = (_gap_midpoint(full, max(start - 3, 0), start),
              _gap_midpoint(full, stop, stop + 3))
    return window, int(np.count_nonzero((full >= window[0]) & (full < window[1])))


def test_hilbert_spectrum_real(et1d):
    # a Euclidean state: the slice eigensolve on A - sigma returns
    # real eigenvalues
    lin = build_linearization(et1d, realize_rational(rational_m2(2)))
    window, count = _slice(lin, 2, 12)
    lam, v, residual = lin.eigenpairs(window, count)
    assert np.isrealobj(lam) and lam.size == v.shape[1] == count
    assert residual <= solver.SLICE_RESIDUAL


def test_krein_state_allows_nonreal_eigenvalues(et1d):
    # constant boundary function realized over an indefinite state space:
    # the linearization is W-selfadjoint but W is indefinite, and the anchor
    # pair shows up as a nonreal conjugate pair of eigenvalues
    vt = 3.7j
    lin = lin_for(et1d, ConstantFunction(theta=2.0 * np.eye(2)))
    assert np.min(np.linalg.eigvalsh(lin.state_gram)) < 0
    assert lin.w_symmetry_residual() <= 1e-10
    ev = scipy.linalg.eigvals(dense_matrix(lin))
    nonreal = ev[np.abs(ev.imag) > 1e-6]
    assert nonreal.size > 0
    assert min(abs(z - vt) for z in nonreal) <= 1e-6


def _count_eigensolves(monkeypatch):
    """From now on, record each dense eigensolve and each Lanczos run
    (``eigsh``) as (name, order of the matrix)."""
    import scipy.sparse.linalg
    calls = []
    for owner, names in ((np.linalg, ("eig", "eigh", "eigvals", "eigvalsh")),
                         (scipy.linalg, ("eig", "eigh", "eigvals", "eigvalsh")),
                         (scipy.sparse.linalg, ("eigs", "eigsh"))):
        for name in names:
            original = getattr(owner, name)

            def counting(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, a.shape[0]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("which", ["1d", "2d"])
def test_hilbert_eigenpairs_one_eigensolve(which, et1d, et2d, monkeypatch):
    # one slice is one Lanczos run on the sparse form, and no dense
    # eigensolve of interior size runs
    et = {"1d": et1d, "2d": et2d}[which]
    lin = build_linearization(et, realize_rational(rational_m2(et.de.n_boundary)))
    window, count = _slice(lin, 3, 15)
    calls = _count_eigensolves(monkeypatch)
    lam, v, residual = lin.eigenpairs(window, count)
    assert calls == [("eigsh", lin.size)]
    a, w = dense_matrix(lin), product_gram(lin)
    assert residual <= solver.SLICE_RESIDUAL
    assert np.linalg.norm(a @ v - v * lam, 2) <= 1e-10 * np.linalg.norm(a, 2)
    assert np.linalg.norm(v.conj().T @ w @ v - np.eye(count), 2) <= 1e-12


@pytest.mark.parametrize("build", [lambda: build_1d(99), lambda: build_2d(8, 8)],
                         ids=["1d-99", "2d-8x8"])
def test_windowed_eigenpairs_match_full_solve(build):
    # a slice returns the count eigenvalues nearest its midpoint: all those
    # of the window, as the dense oracle has them, even where it is wide
    # and its eigenvalues lie next to one end
    et = elliptic_triple(build())
    lin = build_linearization(et, realize_rational(rational_m2(et.de.n_boundary)))
    full = dense_eigenpairs(lin)[0]
    size, scale = full.size, max(1.0, float(np.max(np.abs(full))))
    a, w = dense_matrix(lin), product_gram(lin)
    lo, hi = _gap_midpoint(full, 1, size // 4), _gap_midpoint(full, size // 2, 3 * size // 4)
    for window in ((lo, hi), (lo, 2 * hi - lo), (2 * lo - hi, hi)):
        expected = full[(full >= window[0]) & (full < window[1])]
        lam, v, residual = lin.eigenpairs(window, expected.size)
        assert lam.size == v.shape[1] == expected.size > 0
        assert np.max(np.abs(lam - expected)) <= 1e-10 * scale
        assert residual <= solver.SLICE_RESIDUAL
        assert np.linalg.norm(a @ v - v * lam, 2) <= 1e-10 * np.linalg.norm(a, 2)
        assert np.linalg.norm(v.conj().T @ w @ v - np.eye(lam.size), 2) <= 1e-12


@pytest.mark.parametrize("which", ["1d", "2d"])
def test_hilbert_windowed_eigenpairs_one_eigensolve(which, et1d, et2d, monkeypatch):
    # a window whose count fits one slice: the scan makes one Lanczos run on
    # the form and no dense eigensolve of interior size
    et = {"1d": et1d, "2d": et2d}[which]
    tau = rational_m2(et.de.n_boundary)
    lin = build_linearization(et, realize_rational(tau))
    window, count = _slice(lin, 2, 14)
    calls = _count_eigensolves(monkeypatch)
    scan = homogeneous_scan(et, tau, window, lin)
    assert not scan.failures and len(scan.roots) == scan.window_count == count <= SLICE_COUNT
    assert calls == [("eigsh", lin.size)]
    assert scan.vectors.shape == (lin.size, count)


def test_krein_eigenpairs_nonreal_pair(et1d):
    # the nonreal pair at the anchor belongs to the Krein companion; the
    # package's Hermitian eigensolve refuses an indefinite state
    vt = 3.7j
    lin = lin_for(et1d, ConstantFunction(theta=2.0 * np.eye(2)))
    with pytest.raises(DimensionMismatch, match="Euclidean state"):
        lin.eigenpairs((0.0, 1.0), 1)
    a = dense_matrix(lin)
    lam, v = scipy.linalg.eig(a)
    assert np.linalg.norm(a @ v - v * lam, 2) <= 1e-10 * np.linalg.norm(a, 2)
    for target in (vt, np.conj(vt)):
        assert np.min(np.abs(lam - target)) <= 1e-6


def test_scan_slices_a_square_grid_and_keeps_every_copy(monkeypatch):
    # a square grid's eigenvalues come in near-double pairs; the window holds
    # more than one slice, so it is sliced at counted points, and every copy
    # is found, as the dense oracle has it
    et = elliptic_triple(build_2d(30, 30))
    tau = rational_m2(et.de.n_boundary)
    lin = build_linearization(et, realize_rational(tau))
    calls = _count_eigensolves(monkeypatch)
    scan = homogeneous_scan(et, tau, (0.2, 20.0), lin)
    monkeypatch.undo()
    assert not scan.failures and scan.window_count == len(scan.roots) > SLICE_COUNT
    assert len(calls) > 1 and set(calls) == {("eigsh", lin.size)}
    full = dense_eigenpairs(lin)[0]
    expected = full[(full >= 0.2) & (full < 20.0)]
    pairs = np.count_nonzero(np.diff(expected) <= 1e-8 * expected[1:])
    assert pairs > 10
    roots = np.array(scan.roots)
    assert roots.size == expected.size
    assert np.max(np.abs(roots - expected) / expected) <= 1e-11
    assert np.count_nonzero(np.diff(roots) <= 1e-8 * roots[1:]) == pairs


def test_compressed_resolvent_far_field_bound(et1d):
    lin = build_linearization(et1d, realize_rational(linear_tau(2)))
    rng = np.random.default_rng(31)
    g = rng.standard_normal(40)
    lam = 1e6j
    f = compressed_resolvent(lin, lam, g)
    # Hilbert case: ||(A - lam)^{-1}|| <= 1/dist(lam, R); the interior
    # weight drops out of the compressed block
    assert np.linalg.norm(f) <= np.linalg.norm(g) / 1e6 * 1.0001


# ---------------------------------------------------------------------------
# scans and correspondence


def test_scan_constant_tau_matches_fixed_extension(et1d):
    # the scan runs on the fixed extension A_theta in H.  Its roots are the
    # real eigenvalues of the paper's Krein linearization of the same tau,
    # whose nonreal pair 4 +- 3.7i (the companion's anchor) lies over the
    # window, and its counts are those of the dense fixed extension
    theta = 2.0 * np.eye(2)
    tau = ConstantFunction(theta=theta)
    scan = homogeneous_scan(et1d, tau, (0.5, 9.5), build_fixed_extension(et1d, theta))
    assert not scan.failures
    krein = build_linearization(et1d, realize_constant(theta, 4.0 + 3.7j))
    ev = scipy.linalg.eigvals(dense_matrix(krein))
    assert np.min(np.abs(ev - (4.0 + 3.7j))) <= 1e-6
    real_ev = np.sort(ev.real[np.abs(ev.imag) < 1e-8])
    window_ev = real_ev[(real_ev >= 0.5) & (real_ev <= 9.5)]
    assert scan.window_count == len(scan.roots) == len(window_ev) > 0
    assert np.max(np.abs(np.array(scan.roots) - window_ev)) <= 1e-10 * np.max(window_ev)
    assert [n for _, n in scan.counts] == [fixed_extension_count(et1d, theta, x)
                                           for x, _ in scan.counts]


@pytest.mark.parametrize("tau_name", ["linear", "rational"])
def test_eigen_correspondence_both_directions(tau_name, et1d):
    tau = {"linear": linear_tau(2), "rational": rational_m2(2)}[tau_name]
    lin = build_linearization(et1d, realize_rational(tau))
    report = eigen_correspondence(lin, et1d, tau, (0.2, 9.0), tol=1e-6)
    assert report["ok"], report["failures"]
    assert report["eigenvalues"], "expected eigenvalues in the window"
    assert report["scan_roots"], "expected scan roots in the window"
    # every interior component is nonzero over windows inside the resolvent
    # set of the decoupled operator (checked internally; failures would list)


def window_eigenvalues(lin, lo, hi):
    ev = dense_eigenpairs(lin)[0]
    return ev[(ev >= lo) & (ev <= hi)]


def test_scan_straddles_pole(et1d):
    # the pole -2 lies inside (-3, -1): N counts it, the certificate holds
    tau = rational_m2(2)
    lin = lin_for(et1d, tau)
    scan = homogeneous_scan(et1d, tau, (-3.0, -1.0), lin)
    assert not scan.failures
    assert -2.0 not in dict(scan.counts)
    expected = window_eigenvalues(lin, -3.0, -1.0)
    assert scan.window_count == len(scan.roots) == len(expected) > 0
    assert np.max(np.abs(np.array(scan.roots) - expected)) <= 1e-8


def _blocking_count(monkeypatch, blocked):
    """Make N undefined at the points in ``blocked``, as at a pole."""
    count = solver.eigenvalue_count

    def blocking(et, tau, x):
        if x in blocked:
            raise SpectrumPoint(f"{x} is blocked")
        return count(et, tau, x)

    monkeypatch.setattr(solver, "eigenvalue_count", blocking)


def test_scan_gap_point_moves_off_singular_point(et1d, monkeypatch):
    # a singular point in the middle of the gap moves the gap point to 3/8;
    # with all five candidates singular the two clusters share one jump
    tau = rational_m2(2)
    lin = lin_for(et1d, tau)
    window = (0.2, 9.0)
    clean = homogeneous_scan(et1d, tau, window, lin)
    a, b = clean.roots
    assert [x for x, _ in clean.counts] == [0.2, a + 0.5 * (b - a), 9.0]
    _blocking_count(monkeypatch, {a + 0.5 * (b - a)})
    moved = homogeneous_scan(et1d, tau, window, lin)
    assert not moved.failures and moved.roots == clean.roots
    assert [x for x, _ in moved.counts] == [0.2, a + 0.375 * (b - a), 9.0]
    _blocking_count(monkeypatch, {a + t * (b - a) for t in (0.5, 0.375, 0.625, 0.25, 0.75)})
    merged = homogeneous_scan(et1d, tau, window, lin)
    assert not merged.failures and merged.roots == clean.roots
    assert [x for x, _ in merged.counts] == [0.2, 9.0]
    assert merged.window_count == 2


def test_scan_merges_eigenvalues_closer_than_two_tol(et1d):
    # neighbours closer than 2 tol form one cluster: no count between them
    tau = rational_m2(2)
    lin = lin_for(et1d, tau)
    a, b = homogeneous_scan(et1d, tau, (0.2, 9.0), lin).roots
    for tol, points in ((0.49 * (b - a), 3), (0.51 * (b - a), 2)):
        scan = homogeneous_scan(et1d, tau, (0.2, 9.0), lin, tol)
        assert not scan.failures and scan.roots == (a, b)
        assert len(scan.counts) == points


def test_scan_finds_eigenvalue_at_pole(et1d):
    # the linearization has an eigenvalue at the hidden pole -2, where N is
    # undefined: at the window's lower end, the end moves outward past it
    tau = hidden_pole_tau()
    lin = lin_for(et1d, tau)
    for window in ((-3.0, -1.0), (-2.0, 0.0)):
        scan = homogeneous_scan(et1d, tau, window, lin)
        assert not scan.failures
        expected = window_eigenvalues(lin, *window)
        assert scan.window_count == len(scan.roots) == len(expected)
        assert np.min(np.abs(expected + 2.0)) <= 1e-10
        assert np.max(np.abs(np.array(scan.roots) - expected)) <= 1e-6


def test_correspondence_reports_eigenvalue_at_pole(et1d):
    # tau is undefined at the hidden pole -2, so the eigenvalue there fails as
    # a pole, and every other eigenvalue of the window keeps its residuals
    tau = hidden_pole_tau()
    report = eigen_correspondence(lin_for(et1d, tau), et1d, tau, (-3.0, -1.0))
    roots = report["scan_roots"]
    at_pole = [lam for lam in roots if abs(lam + 2.0) <= 1e-10]
    assert len(at_pole) == 1 and len(roots) > 1
    assert not report["ok"]
    assert report["failures"] == [f"eigenvalue {at_pole[0]:.6g} hits a pole of tau"]
    others = [lam for lam in roots if lam not in at_pole]
    assert [e["lambda"] for e in report["eigenvalues"]] == others
    for e in report["eigenvalues"]:
        assert max(e["pde_residual"], e["bc_residual"]) <= 1e-6


def test_scan_2d_has_no_corner_roots(et2d):
    # with one channel per corner L_IB has no kernel, so sqrt(2) - 1, where
    # tau(lam) = lam + 1/(-2 - lam) vanishes, is no eigenvalue, and every
    # eigenvector of the window solves the homogeneous problem
    tau = rational_m2(et2d.de.n_boundary)
    lin = lin_for(et2d, tau)
    scan = homogeneous_scan(et2d, tau, (0.2, 9.0), lin)
    assert not scan.failures
    expected = window_eigenvalues(lin, 0.2, 9.0)
    assert scan.window_count == len(scan.roots) == len(expected) > 0
    assert np.max(np.abs(np.array(scan.roots) - expected)) <= 1e-8
    assert np.min(np.abs(np.array(scan.roots) - (np.sqrt(2) - 1))) > 1e-6
    report = eigen_correspondence(lin, et2d, tau, (0.2, 9.0))
    assert report["ok"] and report["failures"] == []
    assert len(report["eigenvalues"]) == report["window_count"]


def _drop_one(window, lam, v, residual):
    """The eigenpairs less the lowest one in the window."""
    keep = np.arange(lam.size) != np.argmax(lam >= window[0])
    return lam[keep], v[:, keep], residual


CORRUPTIONS = {
    "drop": _drop_one,
    "residual": lambda window, lam, v, residual: (lam, v, 1e-6),
    "outside": lambda window, lam, v, residual: (lam + 100.0, v, residual),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_scan_solves_a_failed_slice_again_in_halves(kind, et1d, monkeypatch):
    # a slice eigensolve that drops an eigenvalue, misses the residual bound
    # or returns one outside the slice fails the slice's certificate once:
    # the slice is split at a counted point and its halves are solved again
    tau = rational_m2(2)
    lin = lin_for(et1d, tau)
    clean = homogeneous_scan(et1d, tau, (0.2, 9.0), lin)
    eigenpairs, windows = Linearization.eigenpairs, []

    def failing_once(self, window, count):
        windows.append(window)
        pairs = eigenpairs(self, window, count)
        return CORRUPTIONS[kind](window, *pairs) if len(windows) == 1 else pairs

    monkeypatch.setattr(Linearization, "eigenpairs", failing_once)
    scan = homogeneous_scan(et1d, tau, (0.2, 9.0), lin)
    mid = 0.2 + 0.5 * (9.0 - 0.2)
    assert not scan.failures and len(scan.roots) == scan.window_count == 2
    assert np.max(np.abs(np.array(scan.roots) - clean.roots)) <= 1e-10 * max(clean.roots)
    assert windows[0] == (0.2, 9.0) and len(windows) > 1 and mid in dict(scan.counts)


def test_correspondence_reports_incomplete_scan(et1d, monkeypatch):
    # an eigensolve that always drops one eigenvalue of its slice: every
    # slice fails down to the smallest width, and the certificate fails as
    # incomplete
    tau = rational_m2(2)
    lin = lin_for(et1d, tau)
    eigenpairs = Linearization.eigenpairs
    monkeypatch.setattr(Linearization, "eigenpairs", lambda self, window, count:
                        _drop_one(window, *eigenpairs(self, window, count)))
    report = eigen_correspondence(lin, et1d, tau, (0.2, 9.0))
    assert not report["ok"]
    assert report["window_count"] == 2 and report["scan_roots"] == []
    assert report["failures"][0] == ("incomplete: the count gives 2 eigenvalues "
                                     "in the window, the linearization 0")
    unsolved = [f for f in report["failures"] if " is not certified: " in f]
    assert len(unsolved) == 2
    assert all(f.endswith("nearest its midpoint lie in it") for f in unsolved)
    assert any(f.startswith("count mismatch") for f in report["failures"])


def test_scan_ends_where_a_failing_slice_rounds_onto_its_ends(et1d, monkeypatch):
    # with tol below the spacing of floats a failing slice is split until its
    # midpoint rounds onto an end, and then reported, not split for ever
    tau = rational_m2(2)
    lin = lin_for(et1d, tau)
    eigenpairs = Linearization.eigenpairs
    monkeypatch.setattr(Linearization, "eigenpairs", lambda self, window, count:
                        _drop_one(window, *eigenpairs(self, window, count)))
    scan = homogeneous_scan(et1d, tau, (0.2, 9.0), lin, tol=1e-300)
    unsolved = [f for f in scan.failures if " is not certified: " in f]
    assert scan.roots == () and len(unsolved) == 2


def test_correspondence_window_ends_next_to_eigenvalues(et1d):
    # both window ends 1e-7 outside an eigenvalue: the windowed eigensolve
    # must return both, and the check then holds as with the full solve
    tau = rational_m2(2)
    lin = lin_for(et1d, tau)
    inside = window_eigenvalues(lin, 0.2, 9.0)
    window = (inside[0] - 1e-7, inside[-1] + 1e-7)
    report = eigen_correspondence(lin, et1d, tau, window, tol=1e-6)
    assert report["ok"], report["failures"]
    got = [e["lambda"] for e in report["eigenvalues"]]
    assert len(got) == report["window_count"] == inside.size >= 2
    assert np.max(np.abs(np.array(got) - inside)) <= 1e-10 * np.max(np.abs(inside))


def test_correspondence_reports_eigenvalue_the_count_lacks(et1d, monkeypatch):
    # the linearization holds every eigenvalue of the window; a count one
    # short at the upper end must make the check fail as incomplete
    tau = rational_m2(2)
    lin = lin_for(et1d, tau)
    count = solver.eigenvalue_count
    monkeypatch.setattr(solver, "eigenvalue_count",
                        lambda et, tau, x: count(et, tau, x) - (x == 9.0))
    report = eigen_correspondence(lin, et1d, tau, (0.2, 9.0))
    k = len(report["eigenvalues"])
    assert not report["ok"] and k == 2
    assert report["window_count"] == k - 1
    assert report["failures"] == [
        f"incomplete: the count gives {k - 1} eigenvalues in the window, "
        f"the linearization {k}",
        f"count mismatch on [{report['counts'][-2][0]:.6g}, 9): N jumps by 0, "
        f"the linearization has 1 eigenvalues"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_count_matches_dense_eigensolve(seed, m):
    # a small 1D problem and a random rational tau on its two boundary nodes:
    # Hermitian alpha_i, PSD beta_i, beta_1 positive definite
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 16))
    c0, c1, a0 = rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4), rng.uniform(-2.0, 2.0)
    et = elliptic_triple(build_1d(n, p=lambda x: c0 + c1 * x, a=a0))

    def hermitian():
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return 2.0 * (z + z.conj().T)

    def psd(rank):
        z = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
        return z @ z.conj().T

    alphas = tuple(hermitian() for _ in range(m))
    betas = (psd(2) + 0.1 * np.eye(2),) + tuple(psd(int(rng.integers(1, 3)))
                                                 for _ in range(m - 1))
    tau = RationalNevanlinna(alpha=alphas, beta=betas)
    lo = float(rng.uniform(-10.0, 40.0))
    hi = lo + float(rng.uniform(0.5, 60.0))
    lin = lin_for(et, tau)
    expected = window_eigenvalues(lin, lo, hi)
    assert eigenvalue_count(et, tau, hi) - eigenvalue_count(et, tau, lo) == len(expected)
    scan = homogeneous_scan(et, tau, (lo, hi), lin)
    assert not scan.failures
    assert scan.window_count == len(scan.roots) == len(expected)
    if expected.size:
        assert np.max(np.abs(np.array(scan.roots) - expected)) <= 1e-6
