"""Solver machinery: resolvent-formula/direct/compressed oracle equivalence,
linearization selfadjointness, solvability set, and eigenvalue
correspondence.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from weylbvp import (
    BoundaryTriple,
    ConstantFunction,
    KreinSpace,
    LinearRelation,
    MathDomainError,
    RankDeficientCoupling,
    RationalNevanlinna,
    RepresentationForm,
    SpectrumPoint,
    build_1d,
    build_2d,
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
from weylbvp.elliptic import EllipticTriple
from weylbvp.solver import WINDOW_PAD, Linearization, eigenvalue_count

from oracles import elliptic_gamma


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
    for lam in lin.eigenpairs()[0]:
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
    for lam in np.sort(lin.eigenpairs()[0].real)[:6]:
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
    with pytest.raises(SpectrumPoint, match="is a Dirichlet eigenvalue or a pole of tau"):
        eigenvalue_count(et1d, tau, -2.0)


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
    matrix = lin.matrix.copy()
    matrix[1] = 0
    with pytest.raises(SpectrumPoint, match="A - lambda at lambda=0.0 is singular") \
            as compressed:
        compressed_resolvent(dataclasses.replace(lin, matrix=matrix), 0.0, np.ones(3))
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
    r[:n, :n] = de.l_ii
    r[:n, n:n + nb] = et.eta * et.extension
    r[n:, n + nb:] = realized.second
    gram = np.zeros((n + nk, n + nk), dtype=complex)
    gram[:n, :n] = w * np.eye(n)
    gram[n:, n:] = realized.state.gram
    return r @ u, gram


def test_rational_matches_general_linearization(et1d, et2d):
    # the eliminated builder (and its rational entry) against the full
    # coupling system: rational tau in 1D and 2D, and constant tau over an
    # indefinite state space
    for et in (et1d, et2d):
        nb = et.de.n_boundary
        tau = rational_m2(nb)
        const = 2.0 * np.eye(nb)
        for lin, realized in (
                (build_linearization(et, realize_rational(tau)), realize_rational(tau)),
                (lin_for(et, ConstantFunction(theta=const)), realize_constant(const, 3.7j))):
            a_ref, w_ref = _dense_coupling_linearization(et, realized)
            assert np.linalg.norm(lin.matrix - a_ref, 2) <= 1e-8
            assert np.linalg.norm(product_gram(lin) - w_ref, 2) <= 1e-12


def test_real_tau_gives_real_linearization(et1d):
    # a real realization is stored real, so W A, its Hermitian form and the
    # eigensolve run in real arithmetic; A - lam stays complex in the
    # compressed resolvent, at a real lam too
    tau = rational_m2(2)
    lin = build_linearization(et1d, realize_rational(tau))
    assert np.isrealobj(lin.matrix) and np.isrealobj(lin.state_gram)
    assert np.isrealobj(lin.weighted_matrix)
    assert np.iscomplexobj(lin_for(et1d, ConstantFunction(theta=2.0 * np.eye(2))).matrix)
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


@pytest.mark.parametrize("which", ["rational", "constant"])
def test_linearization_takes_one_lu_and_no_svd_or_inverse(which, et2d, monkeypatch):
    nb = et2d.de.n_boundary
    realized = realize_rational(rational_m2(nb)) if which == "rational" \
        else realize_constant(2.0 * np.eye(nb), 3.7j)
    reference = build_linearization(et2d, realized).matrix

    def forbidden(*args, **kwargs):
        raise AssertionError("SVD or explicit inverse in build_linearization")

    for owner, name in ((np.linalg, "svd"), (np.linalg, "inv"), (scipy.linalg, "svd")):
        monkeypatch.setattr(owner, name, forbidden)
    factors = []
    lu_factor = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda a, **k: factors.append(a.shape) or lu_factor(a, **k))
    lin = build_linearization(et2d, realized)
    assert factors == [(realized.t_dim, realized.t_dim)]
    assert np.array_equal(lin.matrix, reference)


def test_real_coupling_takes_real_solves(et2d, monkeypatch):
    # the condition estimate of a real C solves real columns: a complex
    # right-hand side would cast the real LU to complex at each solve; the
    # estimate only reads the factor, so A is bit-identical to the A of an
    # unguarded LU
    realized = realize_rational(rational_m2(et2d.de.n_boundary))
    lu_factor, lu_solve = scipy.linalg.lu_factor, scipy.linalg.lu_solve
    monkeypatch.setattr(solver, "dense_lu", lambda mat, error, what: lu_factor(mat))
    unguarded = build_linearization(et2d, realized).matrix
    monkeypatch.undo()
    kinds = []
    monkeypatch.setattr(scipy.linalg, "lu_solve",
                        lambda lu, b, **k: kinds.append(np.asarray(b).dtype.kind)
                        or lu_solve(lu, b, **k))
    lin = build_linearization(et2d, realized)
    assert np.isrealobj(lin.matrix)
    assert len(kinds) > 1 and set(kinds) == {"f"}
    assert np.array_equal(lin.matrix, unguarded)


def test_w_symmetry_residual_never_below_two_norm_ratio(et1d):
    lin = build_linearization(et1d, realize_rational(rational_m2(2)))
    assert lin.w_symmetry_residual() <= 1e-10
    a = lin.matrix.copy()
    a[3, 7] += 1e-3
    bad = dataclasses.replace(lin, matrix=a)
    wa = product_gram(bad) @ bad.matrix
    two_norm_ratio = (np.linalg.norm(wa - wa.conj().T, 2)
                      / max(1.0, np.linalg.norm(wa, 2)))
    assert bad.w_symmetry_residual() > 1e-10
    assert bad.w_symmetry_residual() >= two_norm_ratio


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
    s = np.linalg.svd(et1d.weyl(root) + tau.eval(root), compute_uv=False)
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
            (de.l_ii - lam * np.eye(n)) @ defect + de.l_ib @ x) <= 1e-8
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


def test_eigen_takes_no_svd_and_one_weyl_per_count(et2d, monkeypatch):
    # each certified eigenvalue is checked by its residuals alone: M(x) is
    # evaluated only at the count points, and nothing takes an SVD
    tau = rational_m2(et2d.de.n_boundary)
    lin = lin_for(et2d, tau)

    def forbidden(*args, **kwargs):
        raise AssertionError("SVD on the eigen path")

    for owner in (np.linalg, scipy.linalg):
        monkeypatch.setattr(owner, "svd", forbidden)
    points = []
    weyl = EllipticTriple.weyl
    monkeypatch.setattr(EllipticTriple, "weyl",
                        lambda self, lam: points.append(lam) or weyl(self, lam))
    report = eigen_correspondence(lin, et2d, tau, (0.2, 9.0))
    assert report["ok"] and report["eigenvalues"]
    assert len(points) == len(report["counts"])
    assert sorted(points) == [x for x, _ in report["counts"]]


# ---------------------------------------------------------------------------
# spectra of the linearization


def test_hilbert_spectrum_real(et1d):
    lin = build_linearization(et1d, realize_rational(rational_m2(2)))
    assert lin.is_hilbert
    ev = lin.eigenpairs()[0]
    assert np.max(np.abs(ev.imag)) <= 1e-9


def test_krein_state_allows_nonreal_eigenvalues(et1d):
    # constant boundary function realized over an indefinite state space:
    # the linearization is W-selfadjoint but W is indefinite, and the anchor
    # pair shows up as a nonreal conjugate pair of eigenvalues
    vt = 3.7j
    lin = lin_for(et1d, ConstantFunction(theta=2.0 * np.eye(2)))
    assert not lin.is_hilbert
    assert lin.w_symmetry_residual() <= 1e-10
    ev = lin.eigenpairs()[0]
    nonreal = ev[np.abs(ev.imag) > 1e-6]
    assert nonreal.size > 0
    assert min(abs(z - vt) for z in nonreal) <= 1e-6


def _count_eigensolves(monkeypatch):
    calls = []
    for owner in (np.linalg, scipy.linalg):
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            original = getattr(owner, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("which", ["1d", "2d"])
def test_hilbert_eigenpairs_one_eigensolve(which, et1d, et2d, monkeypatch):
    et = {"1d": et1d, "2d": et2d}[which]
    lin = build_linearization(et, realize_rational(rational_m2(et.de.n_boundary)))
    calls = _count_eigensolves(monkeypatch)
    lam, v = lin.eigenpairs()
    assert calls == ["eigh"]
    assert lin.is_hilbert and calls == ["eigh"]    # cached, no second solve
    a, w = lin.matrix, product_gram(lin)
    assert np.linalg.norm(a @ v - v * lam, 2) <= 1e-10 * np.linalg.norm(a, 2)
    assert np.linalg.norm(v.conj().T @ w @ v - np.eye(lin.size), 2) <= 1e-12
    ev = lin.eigenpairs()[0]
    assert calls == ["eigh", "eigh"]
    assert np.max(np.abs(ev - lam)) <= 1e-10 * np.max(np.abs(lam))


def _gap_midpoint(ev, start, stop):
    """Midpoint of the widest gap between ev[start:stop+1], sorted ev."""
    k = start + int(np.argmax(np.diff(ev[start:stop + 1])))
    return (ev[k] + ev[k + 1]) / 2


def _simple_eigenvalue(ev, start):
    """The first eigenvalue from ev[start] on that is apart from its neighbours."""
    k = start
    while min(ev[k] - ev[k - 1], ev[k + 1] - ev[k]) <= 1e-6 * max(1.0, abs(ev[k])):
        k += 1
    return ev[k]


@pytest.mark.parametrize("build", [lambda: build_1d(99), lambda: build_2d(8, 8)],
                         ids=["1d-99", "2d-8x8"])
def test_windowed_eigenpairs_match_full_solve(build):
    et = elliptic_triple(build())
    lin = build_linearization(et, realize_rational(rational_m2(et.de.n_boundary)))
    full = np.sort(lin.eigenpairs()[0].real)
    size, scale = full.size, max(1.0, float(np.max(np.abs(full))))
    a, w = lin.matrix, product_gram(lin)
    # ends between eigenvalues, then ends on (simple) eigenvalues, widened by
    # the floor that eigen_correspondence adds to the half-open (a, b]
    lo, hi = _gap_midpoint(full, 1, size // 4), _gap_midpoint(full, size // 2, 3 * size // 4)
    on_lo, on_hi = _simple_eigenvalue(full, 3), _simple_eigenvalue(full, size // 3)
    pad = WINDOW_PAD * max(1.0, abs(on_lo), abs(on_hi))
    for window, (low, high) in (((lo, hi), (lo, hi)),
                                ((on_lo - pad, on_hi + pad), (on_lo, on_hi))):
        lam, v = lin.eigenpairs(window)
        expected = full[(full >= low) & (full <= high)]
        assert lam.size == v.shape[1] == expected.size > 0
        assert np.max(np.abs(lam.imag)) == 0
        assert np.max(np.abs(lam.real - expected)) <= 1e-10 * scale
        assert np.linalg.norm(a @ v - v * lam, 2) <= 1e-10 * np.linalg.norm(a, 2)
        assert np.linalg.norm(v.conj().T @ w @ v - np.eye(lam.size), 2) <= 1e-12


@pytest.mark.parametrize("which", ["1d", "2d"])
def test_hilbert_windowed_eigenpairs_one_eigensolve(which, et1d, et2d, monkeypatch):
    et = {"1d": et1d, "2d": et2d}[which]
    lin = build_linearization(et, realize_rational(rational_m2(et.de.n_boundary)))
    full = np.sort(lin.eigenpairs()[0].real)
    window = (_gap_midpoint(full, 0, 5), _gap_midpoint(full, 10, 20))
    inside = int(np.count_nonzero((full > window[0]) & (full <= window[1])))
    calls = _count_eigensolves(monkeypatch)
    lam, v = lin.eigenpairs(window)
    assert calls == ["eigh"]
    assert v.shape == (lin.size, inside) and lam.size == inside > 0


def test_krein_eigenpairs_nonreal_pair(et1d):
    vt = 3.7j
    lin = lin_for(et1d, ConstantFunction(theta=2.0 * np.eye(2)))
    lam, v = lin.eigenpairs()
    a = lin.matrix
    assert np.linalg.norm(a @ v - v * lam, 2) <= 1e-10 * np.linalg.norm(a, 2)
    for target in (vt, np.conj(vt)):
        assert np.min(np.abs(lam - target)) <= 1e-6


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
    # a constant tau realizes over an indefinite state space: the full
    # nonsymmetric eigensolve, whose nonreal pair 4 +- 3.7i lies over the
    # window and must stay out of the clusters
    theta = 2.0 * np.eye(2)
    tau = ConstantFunction(theta=theta)
    lin = build_linearization(et1d, realize_constant(theta, 4.0 + 3.7j))
    assert not lin.is_hilbert
    ev = lin.eigenpairs()[0]
    assert np.min(np.abs(ev - (4.0 + 3.7j))) <= 1e-6
    scan = homogeneous_scan(et1d, tau, (0.5, 9.5), lin)
    assert not scan.failures
    real_ev = np.sort(ev.real[np.abs(ev.imag) < 1e-8])
    window_ev = real_ev[(real_ev >= 0.5) & (real_ev <= 9.5)]
    assert scan.window_count == len(scan.roots) == len(window_ev) > 0
    assert np.max(np.abs(np.array(scan.roots) - window_ev)) <= 1e-6


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
    ev = lin.eigenpairs()[0]
    real = np.sort(ev.real[np.abs(ev.imag) <= 1e-8])
    return real[(real >= lo) & (real <= hi)]


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


def test_correspondence_reports_incomplete_scan(et1d, monkeypatch):
    # an eigensolve that drops one eigenvalue of the window: the certificate
    # must fail as incomplete
    tau = rational_m2(2)
    lin = lin_for(et1d, tau)
    eigenpairs = Linearization.eigenpairs

    def dropping(self, window=None):
        lam, v = eigenpairs(self, window)
        return lam[1:], v[:, 1:]

    monkeypatch.setattr(Linearization, "eigenpairs", dropping)
    report = eigen_correspondence(lin, et1d, tau, (0.2, 9.0))
    assert not report["ok"]
    assert report["window_count"] == 2 and len(report["scan_roots"]) == 1
    assert report["failures"][0] == ("incomplete: the count gives 2 eigenvalues "
                                     "in the window, the linearization 1")
    assert any(f.startswith("count mismatch") for f in report["failures"])


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
