"""Acceptance gate: one test per top-level acceptance criterion, each
printing a single PASS/FAIL line with the measured quantity.
"""

import numpy as np
import pytest
import scipy.linalg

from weylbvp import (
    ConstantFunction,
    KreinSpace,
    LinearRelation,
    RationalNevanlinna,
    RepresentationForm,
    SpectrumPoint,
    build_1d,
    build_2d,
    build_fixed_extension,
    build_linearization,
    compressed_resolvent,
    couple,
    decompose,
    direct_solve,
    eigen_correspondence,
    elliptic_triple,
    krein_resolve,
    negative_squares,
    realize,
    realize_constant,
    realize_rational,
    realize_strict,
    verify_triple_identities,
)

from oracles import constant_state_resolvent, dense_matrix


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


POINTS = [2j, 1 + 1j, -0.5 + 0.8j, 2 - 1.5j, -1.2 - 0.6j,
          0.3 + 2j, -2 + 0.4j, 1.5 + 0.9j, -0.8 - 1.7j, 0.1 - 0.5j]


def seeded_rep_form(dim, g, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    sp = KreinSpace(dim)
    a0 = LinearRelation.from_graph(sp, (m + m.T) / 2)
    c = rng.standard_normal((g, g))
    return RepresentationForm(space=sp, a0=a0,
                              gamma=rng.standard_normal((dim, g)),
                              lambda0=1j, c=(c + c.T) / 2)


def diag_lambda_five():
    sp = KreinSpace(1)
    a0 = LinearRelation.from_span(sp, np.array([[0.0], [1.0]]))
    return RepresentationForm(space=sp, a0=a0, gamma=np.array([[1.0, 0.0]]),
                              lambda0=1j, c=np.diag([0.0, 5.0]).astype(complex))


def seeded_nonstrict_3x3():
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    sp = KreinSpace(2)
    m = rng.standard_normal((2, 2))
    a0 = LinearRelation.from_graph(sp, (m + m.T) / 2)
    gamma = rng.standard_normal((2, 2)) @ np.hstack(
        [np.eye(2), np.zeros((2, 1))]) @ q.T
    c = rng.standard_normal((3, 3))
    return RepresentationForm(space=sp, a0=a0, gamma=gamma, lambda0=1j,
                              c=(c + c.T) / 2)


def rational_m2(g):
    return RationalNevanlinna(alpha=(np.zeros((g, g)), -2 * np.eye(g)),
                              beta=(np.eye(g), np.eye(g)))


def seeded_rational(seed=11, g=2, m=3):
    rng = np.random.default_rng(seed)
    alphas, betas = [], []
    for k in range(m):
        a = rng.standard_normal((g, g))
        alphas.append((a + a.T) / 2)
        b = rng.standard_normal((g, g))
        betas.append(b @ b.T + (0.5 if k == 0 else 0.0) * np.eye(g))
    return RationalNevanlinna(alpha=tuple(alphas), beta=tuple(betas))


def coupled_diag_lambda_five():
    rf = diag_lambda_five()
    dec = decompose(rf, 1j)
    strict_rf = RepresentationForm(
        space=rf.space, a0=rf.a0, gamma=rf.gamma @ dec.iota_strict,
        lambda0=rf.lambda0,
        c=dec.iota_strict.conj().T @ rf.c @ dec.iota_strict)
    return couple(realize_strict(strict_rf),
                  realize_constant(dec.constant_block, 3j),
                  dec.constant_cross, dec.constant_cross2,
                  rotation=dec.basis)


def all_triples():
    return {
        "strict": realize_strict(seeded_rep_form(4, 2, 6)),
        "constant": realize_constant(np.diag([1.0, -1.0]).astype(complex), 4j),
        "coupled": coupled_diag_lambda_five(),
        "rational": realize_rational(seeded_rational()),
        "elliptic-1d": elliptic_triple(build_1d(40)),
        "elliptic-2d": elliptic_triple(build_2d(8, 8)),
    }


def test_green_identity_exactness():
    worst = {name: bt.green_residual() for name, bt in all_triples().items()}
    val = max(worst.values())
    report("green-identity exactness (all constructions)",
           val <= 1e-10, f"worst relative residual {val:.3e}")


def test_boundary_map_identities():
    rng = np.random.default_rng(3)
    worst = 0.0
    for name, bt in all_triples().items():
        if name == "constant":
            # keep clear of the anchor spectrum {4j, -4j}
            pts = [complex(rng.uniform(-2, 2), rng.uniform(0.3, 2) * s)
                   for s in (1, -1, 1, -1, 1, 1, -1, 1, -1, 1)]
        else:
            pts = [complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5) * (-1) ** k)
                   for k in range(10)]
        res = verify_triple_identities(bt, pts)
        worst = max(worst, max(res.values()))
    report("boundary-map identities at 10 random points per triple",
           worst <= 1e-9, f"worst relative residual {worst:.3e}")


def test_realization_fidelity():
    cases = {
        "strict": seeded_rep_form(4, 2, 6),
        "nonstrict-diag": diag_lambda_five(),
        "nonstrict-seeded-3x3": seeded_nonstrict_3x3(),
        "rational-m1": RationalNevanlinna(alpha=(np.zeros((1, 1)),),
                                          beta=(np.eye(1),)),
        "rational-m2": rational_m2(2),
        "rational-seeded-m3": seeded_rational(),
    }
    worst = 0.0
    for name, tau in cases.items():
        bt = realize(tau)
        for lam in POINTS:
            t = tau.eval(lam)
            m = bt.weyl_data(lam).m_mat
            err = np.linalg.norm(m - t, 2) / max(1.0, np.linalg.norm(t, 2))
            worst = max(worst, err)
    report("realized Weyl function reproduces the input function",
           worst <= 1e-9, f"worst relative residual {worst:.3e} over "
           f"{len(cases)} cases x {len(POINTS)} points")


def test_constant_realization_resolvent_and_signature():
    g = 2
    theta = np.diag([1.0, -1.0]).astype(complex)
    vt = 4j  # anchor chosen away from the evaluation points
    bt = realize_constant(theta, vt)
    b0 = np.block([[vt * np.eye(g), np.eye(g)],
                   [np.zeros((g, g)), np.conj(vt) * np.eye(g)]])
    rel = LinearRelation.from_graph(bt.state, b0)
    res_err = max(
        float(np.max(np.abs(rel.resolvent(lam)
                            - constant_state_resolvent(vt, lam, g))))
        for lam in (1 + 1j, -0.5, 3j + 1, 0.3 - 0.7j))
    weyl_err = max(float(np.linalg.norm(bt.weyl_data(lam).m_mat - theta))
                   for lam in POINTS[:6])
    sig = bt.state.signature()
    ok = res_err <= 1e-12 and weyl_err <= 1e-12 and sig == (g, g)
    report("constant-block state resolvent, Weyl value and signature",
           ok, f"resolvent entrywise {res_err:.3e}, weyl {weyl_err:.3e}, "
           f"signature {sig}")


def test_solver_oracle_equivalence():
    problems = {"1d": elliptic_triple(build_1d(99)),
                "2d": elliptic_triple(build_2d(15, 15))}
    rng = np.random.default_rng(17)
    worst = 0.0
    for pname, et in problems.items():
        nb, n = et.de.n_boundary, et.de.n_interior
        taus = {
            "constant": ConstantFunction(theta=2.0 * np.eye(nb)),
            "linear": RationalNevanlinna(alpha=(np.zeros((nb, nb)),),
                                         beta=(np.eye(nb),)),
            "rational-m2": rational_m2(nb),
        }
        for tname, tau in taus.items():
            # a constant tau has two linearizations: the Krein companion and
            # the fixed extension in H
            if isinstance(tau, RationalNevanlinna):
                lins = [build_linearization(et, realize_rational(tau))]
            else:
                lins = [build_linearization(et, realize_constant(tau.theta, 3.7j)),
                        build_fixed_extension(et, tau.theta)]
            for _ in range(20):
                lam = complex(rng.uniform(-2, 3),
                              rng.uniform(0.4, 2) * rng.choice([-1, 1]))
                g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                f1 = krein_resolve(et, tau, lam, g).f
                f2 = direct_solve(et, tau, lam, g)
                for lin in lins:
                    f3 = compressed_resolvent(lin, lam, g)
                    scale = max(np.linalg.norm(f1), np.linalg.norm(f2),
                                np.linalg.norm(f3))
                    pair = max(np.linalg.norm(f1 - f2), np.linalg.norm(f1 - f3),
                               np.linalg.norm(f2 - f3)) / scale
                    worst = max(worst, pair)
    report("three solver oracles agree pairwise (20 pairs x 3 tau x 1D/2D, "
           "constant tau through both linearizations)",
           worst <= 1e-10, f"worst pairwise relative difference {worst:.3e}")


def symmetrized(lin):
    """W^{1/2} A W^{-1/2}, Hermitian when W is positive definite."""
    gram = scipy.linalg.block_diag(lin.weight * np.eye(lin.n_interior), lin.state_gram)
    w, v = np.linalg.eigh(gram)
    assert w[0] > 0, "product metric is indefinite"
    root = (v * np.sqrt(w)) @ v.conj().T
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return root @ dense_matrix(lin) @ inv_root


def test_linearization_selfadjointness():
    et = elliptic_triple(build_1d(99))
    nb = et.de.n_boundary
    wsym = []
    # two rational taus over a Euclidean state and the fixed extension of a
    # constant one, which has no state
    for lin in [build_linearization(et, realize_rational(tau)) for tau in (
            rational_m2(nb),
            RationalNevanlinna(alpha=(np.zeros((nb, nb)),), beta=(np.eye(nb),)))] \
            + [build_fixed_extension(et, 2.0 * np.eye(nb))]:
        wsym.append(lin.w_symmetry_residual())
        ev = scipy.linalg.eigvals(symmetrized(lin))
        wsym.append(0.0 if np.max(np.abs(ev.imag)) <= 1e-9 else np.inf)
    lin_c = build_linearization(
        et, realize_constant(2.0 * np.eye(nb), 3.7j))
    wsym.append(lin_c.w_symmetry_residual())
    val = max(wsym)
    report("product-space linearization is metric-selfadjoint, real spectrum "
           "in the definite case", val <= 1e-10,
           f"worst symmetry/imaginary-part indicator {val:.3e}")


def test_eigenvalue_correspondence():
    et = elliptic_triple(build_1d(40))
    tau = rational_m2(2)
    lin = build_linearization(et, realize_rational(tau))
    corr = eigen_correspondence(lin, et, tau, (0.2, 9.0), tol=1e-6)
    ok = corr["ok"] and corr["eigenvalues"] and corr["scan_roots"]
    report("eigenvalues of the linearization match homogeneous roots "
           "(both directions)", bool(ok),
           f"{len(corr['eigenvalues'])} eigenvalues, "
           f"{len(corr['scan_roots'])} scan roots, failures={corr['failures']}")


def test_nonreal_points_always_solvable_for_nevanlinna():
    et = elliptic_triple(build_1d(40))
    tau = rational_m2(2)
    rng = np.random.default_rng(23)
    bad = []
    for _ in range(50):
        lam = complex(rng.uniform(-5, 10),
                      rng.uniform(0.05, 3) * rng.choice([-1, 1]))
        try:
            krein_resolve(et, tau, lam, rng.standard_normal(40))
        except SpectrumPoint:
            bad.append(lam)
    report("every nonreal probe is solvable for a rational Nevanlinna "
           "boundary function (50 probes)", not bad, f"failures {bad}")


class _NegSlope:
    """tau(lambda) = -lambda * I, not a Nevanlinna function."""

    boundary_dim = 1

    def eval(self, lam):
        return np.array([[-lam]], dtype=complex)


def test_kernel_negative_square_counts():
    pts = POINTS[:5]
    kappas = [negative_squares(tau, pts) for tau in (
        rational_m2(2),
        RationalNevanlinna(alpha=(np.zeros((1, 1)),), beta=(np.eye(1),)),
        seeded_rational(),
        ConstantFunction(theta=np.diag([1.0, -1.0]).astype(complex)),
    )]
    kappa_neg = negative_squares(_NegSlope(), pts)
    ok = all(k == 0 for k in kappas) and kappa_neg >= 1
    report("kernel negative-square count: 0 for nonnegative instances, "
           ">=1 for -lambda", ok,
           f"nonnegative instances {kappas}, -lambda instance {kappa_neg}")


def test_discretization_convergence():
    exact = np.array([(k * np.pi) ** 2 for k in range(1, 6)])
    errs = {}
    for n in (99, 199):
        eigs = np.sort(build_1d(n).dirichlet_eigs)[:5]
        errs[n] = np.abs(eigs - exact) / exact
    order = np.log2(errs[99] / errs[199])
    ok = bool(np.all(errs[99] <= 1e-3) and np.min(order) >= 1.8)
    report("first five 1D eigenvalues within 1e-3 at 99 nodes, observed "
           "order >= 1.8", ok,
           "relative errors at 99 nodes "
           + np.array2string(errs[99], precision=3)
           + ", observed orders "
           + np.array2string(order, precision=3))
