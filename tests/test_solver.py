"""Solver machinery: resolvent-formula/direct/compressed oracle equivalence,
linearization selfadjointness, solvability set, and eigenvalue
correspondence.
"""

import dataclasses

import numpy as np
import pytest

from weylbvp import (
    BoundaryTriple,
    ConstantFunction,
    KreinSpace,
    LinearRelation,
    OutsideU,
    RankDeficientCoupling,
    RationalNevanlinna,
    RepresentationForm,
    SingularSystem,
    build_1d,
    build_2d,
    build_linearization,
    build_linearization_rational,
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
from weylbvp.solver import in_solvable_set, solvability_margin


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


def lin_for(et, tau):
    if isinstance(tau, RationalNevanlinna):
        return build_linearization_rational(et.de, tau, et.eta)
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


def test_krein_resolve_zero_rhs(et1d):
    rep = krein_resolve(et1d, linear_tau(2), 1 + 1j, np.zeros(40))
    assert np.linalg.norm(rep.f) <= 1e-12
    assert rep.in_u


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
    q[n + nk + nb:, :n] = -w * de.l_bi
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
                (build_linearization_rational(et.de, tau, et.eta), realize_rational(tau)),
                (lin_for(et, ConstantFunction(theta=const)), realize_constant(const, 3.7j))):
            a_ref, w_ref = _dense_coupling_linearization(et, realized)
            assert np.linalg.norm(lin.matrix - a_ref, 2) <= 1e-8
            assert np.linalg.norm(lin.gram - w_ref, 2) <= 1e-12


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


def test_w_symmetry_residual_never_below_two_norm_ratio(et1d):
    lin = build_linearization_rational(et1d.de, rational_m2(2), et1d.eta)
    assert lin.w_symmetry_residual() <= 1e-10
    a = lin.matrix.copy()
    a[3, 7] += 1e-3
    bad = dataclasses.replace(lin, matrix=a)
    wa = bad.gram @ bad.matrix
    two_norm_ratio = (np.linalg.norm(wa - wa.conj().T, 2)
                      / max(1.0, np.linalg.norm(wa, 2)))
    assert bad.w_symmetry_residual() > 1e-10
    assert bad.w_symmetry_residual() >= two_norm_ratio


# ---------------------------------------------------------------------------
# solvability set


def test_outside_u_at_scan_root(et1d):
    tau = rational_m2(2)
    scan = homogeneous_scan(et1d, tau, (0.2, 9.0))
    assert scan.roots, "expected at least one homogeneous eigenvalue"
    root = scan.roots[0]
    with pytest.raises(OutsideU):
        krein_resolve(et1d, tau, root, np.ones(40))
    # the two singularity notions agree: the trace operator M + tau is
    # numerically singular exactly where the assembled system is
    smin, scale = solvability_margin(et1d, tau, root)
    assert smin <= 1e-6 * max(scale, 1.0)
    assert not in_solvable_set(et1d, tau, root)
    assert in_solvable_set(et1d, tau, root + 0.5j)


def test_nonreal_probes_solvable_for_nevanlinna(et1d):
    # Nevanlinna boundary functions leave all of C \ R solvable
    tau = rational_m2(2)
    rng = np.random.default_rng(23)
    for _ in range(50):
        lam = complex(rng.uniform(-5, 10), rng.uniform(0.05, 3) * rng.choice([-1, 1]))
        assert in_solvable_set(et1d, tau, lam), lam


def test_uniqueness_defect_perturbation(et1d):
    # perturbing the solution by a defect element breaks the boundary
    # condition: (M + tau) is injective on traces inside the solvable set
    tau = linear_tau(2)
    rng = np.random.default_rng(29)
    lam = 0.7 + 1.1j
    g = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    rep = krein_resolve(et1d, tau, lam, g)
    assert max(rep.pde_residual, rep.bc_residual) <= 1e-9
    from weylbvp.solver import _problem_residuals
    de = et1d.de
    for _ in range(3):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        defect = et1d.gamma(lam) @ x
        # the defect element solves the interior equation with trace x ...
        assert np.linalg.norm(
            (de.l_ii - lam * np.eye(40)) @ defect + de.l_ib @ x) <= 1e-8
        # ... so adding it keeps the interior consistent but must violate
        # the boundary condition, and the residual check detects it
        r1, r2 = _problem_residuals(et1d, tau, lam, rep.f + defect, g)
        assert max(r1, r2) > 1e-6


# ---------------------------------------------------------------------------
# spectra of the linearization


def test_hilbert_spectrum_real(et1d):
    lin = build_linearization_rational(et1d.de, rational_m2(2), et1d.eta)
    assert lin.is_hilbert
    ev = lin.eigenvalues()
    assert np.max(np.abs(ev.imag)) <= 1e-9


def test_krein_state_allows_nonreal_eigenvalues(et1d):
    # constant boundary function realized over an indefinite state space:
    # the linearization is W-selfadjoint but W is indefinite, and the anchor
    # pair shows up as a nonreal conjugate pair of eigenvalues
    vt = 3.7j
    lin = lin_for(et1d, ConstantFunction(theta=2.0 * np.eye(2)))
    assert not lin.is_hilbert
    assert lin.w_symmetry_residual() <= 1e-10
    ev = lin.eigenvalues()
    nonreal = ev[np.abs(ev.imag) > 1e-6]
    assert nonreal.size > 0
    assert min(abs(z - vt) for z in nonreal) <= 1e-6


def _count_eigensolves(monkeypatch):
    import scipy.linalg
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
    lin = build_linearization_rational(et.de, rational_m2(et.de.n_boundary), et.eta)
    calls = _count_eigensolves(monkeypatch)
    lam, v = lin.eigenpairs()
    assert calls == ["eigh"]
    assert lin.is_hilbert and calls == ["eigh"]    # cached, no second solve
    a, w = lin.matrix, lin.gram
    assert np.linalg.norm(a @ v - v * lam, 2) <= 1e-10 * np.linalg.norm(a, 2)
    assert np.linalg.norm(v.conj().T @ w @ v - np.eye(lin.size), 2) <= 1e-12
    ev = lin.eigenvalues()
    assert calls == ["eigh", "eigh"]
    assert np.max(np.abs(ev - lam)) <= 1e-10 * np.max(np.abs(lam))


def test_krein_eigenpairs_nonreal_pair(et1d):
    vt = 3.7j
    lin = lin_for(et1d, ConstantFunction(theta=2.0 * np.eye(2)))
    lam, v = lin.eigenpairs()
    a = lin.matrix
    assert np.linalg.norm(a @ v - v * lam, 2) <= 1e-10 * np.linalg.norm(a, 2)
    for target in (vt, np.conj(vt)):
        assert np.min(np.abs(lam - target)) <= 1e-6


def test_compressed_resolvent_far_field_bound(et1d):
    lin = build_linearization_rational(et1d.de, linear_tau(2), et1d.eta)
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
    theta = 2.0 * np.eye(2)
    tau = ConstantFunction(theta=theta)
    # the fixed extension: interior operator with Robin-type closure; its
    # eigenvalues are exactly the homogeneous roots.  Assemble it from the
    # same blocks the direct solve uses.
    de = et1d.de
    n = de.n_interior
    # eliminate y from tau*y = w*L_BI*f_D with f = f_D + E y
    scan = homogeneous_scan(et1d, tau, (0.5, 9.5))
    lin = lin_for(et1d, tau)
    ev = lin.eigenvalues()
    real_ev = np.sort(ev.real[np.abs(ev.imag) < 1e-8])
    window_ev = real_ev[(real_ev >= 0.5) & (real_ev <= 9.5)]
    assert len(scan.roots) == len(window_ev) > 0
    assert np.max(np.abs(np.array(scan.roots) - window_ev)) <= 1e-6


@pytest.mark.parametrize("tau_name", ["linear", "rational"])
def test_eigen_correspondence_both_directions(tau_name, et1d):
    tau = {"linear": linear_tau(2), "rational": rational_m2(2)}[tau_name]
    lin = build_linearization_rational(et1d.de, tau, et1d.eta)
    report = eigen_correspondence(lin, et1d, tau, (0.2, 9.0), tol=1e-6)
    assert report["ok"], report["failures"]
    assert report["eigenvalues"], "expected eigenvalues in the window"
    assert report["scan_roots"], "expected scan roots in the window"
    # every interior component is nonzero over windows inside the resolvent
    # set of the decoupled operator (checked internally; failures would list)


def test_scan_skips_poles(et1d):
    tau = rational_m2(2)
    scan = homogeneous_scan(et1d, tau, (-3.0, -1.0), grid=401)
    assert any(abs(x + 2.0) < 0.05 for x in scan.skipped)
