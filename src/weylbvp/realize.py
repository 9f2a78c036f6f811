"""Constructions of boundary triples with a prescribed Weyl function.

Given an operator function tau, build a boundary triple whose Weyl function
coincides with tau on the verification window: directly for strict
representation forms, via a Krein-space companion block for constants, by
coupling for non-strict functions, and by an explicit Hilbert-state block
operator for rational functions with positive semidefinite coefficients.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BetaOneSingular,
    DimensionMismatch,
    NonAdjointBlocks,
    NotStrict,
    RealTheta,
)
from .krein import KreinSpace, LinearRelation, nullspace
from .opfunc import (
    ConstantFunction,
    Decomposition,
    RationalNevanlinna,
    RepresentationForm,
    decompose,
    default_samples,
    psd_sqrt,
    strict_kernel,
)
from .triple import BoundaryTriple, verify_triple_identities


def realize_strict(rf: RepresentationForm, mu: complex | None = None) -> BoundaryTriple:
    """Boundary triple with Weyl function rf, for strict rf (ker gamma = {0}).

    The domain relation is A0 extended by the defect span at the anchor mu;
    Gamma_0 reads off the defect coordinate and Gamma_1 combines the
    abstract conormal derivative with tau(mu).
    """
    g = rf.boundary_dim
    n = rf.space.dim
    if nullspace(rf.gamma).shape[1] > 0:
        raise NotStrict("gamma has a nontrivial kernel; decompose first")
    if mu is None:
        mu = complex(rf.lambda0)
    mu = complex(mu)
    l0 = complex(rf.lambda0)
    res_mu = rf.a0.resolvent(mu)  # raises SpectrumPoint off rho(A0)
    gamma_mu = (np.eye(n) + (mu - l0) * res_mu) @ rf.gamma

    f0, f0p = rf.a0.first, rf.a0.second
    t_basis = np.block([[f0, gamma_mu], [f0p, mu * gamma_mu]])
    na = rf.a0.dim
    g0 = np.hstack([np.zeros((g, na), dtype=complex), np.eye(g, dtype=complex)])
    gamma_mu_plus = gamma_mu.conj().T @ rf.space.gram
    g1 = np.hstack([gamma_mu_plus @ (f0p - np.conj(mu) * f0), rf.eval(mu)])
    return BoundaryTriple(rf.space, g, t_basis, g0, g1)


def realize_constant(theta: np.ndarray, vartheta: complex,
                     mu: complex | None = None) -> BoundaryTriple:
    """Boundary triple over a Krein space C^{2g} whose Weyl function is the
    constant Hermitian matrix theta.

    The state relation is the graph of the block matrix [[vt, I], [0, conj(vt)]]
    with the indefinite product given by the flip Gram [[0, I], [I, 0]]; the
    state space has signature (g, g).
    """
    theta = np.asarray(theta, dtype=complex)
    g = theta.shape[0]
    vt = complex(vartheta)
    if abs(vt.imag) < 1e-12:
        raise RealTheta("the spectral anchor must be nonreal")
    if mu is None:
        mu = vt / 2  # nonreal, never equals vt or conj(vt)
    mu = complex(mu)
    if min(abs(mu - vt), abs(mu - np.conj(vt))) < 1e-12:
        raise RealTheta("mu must avoid the anchor pair")

    eye = np.eye(g, dtype=complex)
    zero = np.zeros((g, g), dtype=complex)
    flip = np.block([[zero, eye], [eye, zero]])
    space = KreinSpace(2 * g, gram=flip, j=flip)
    b0 = np.block([[vt * eye, eye], [zero, np.conj(vt) * eye]])

    # defect element at mu with unit Gamma_0 coordinate: (x, 0)
    gamma_mu = np.vstack([eye, zero])
    t_basis = np.block([
        [np.eye(2 * g, dtype=complex), gamma_mu],
        [b0, mu * gamma_mu],
    ])
    g0 = np.hstack([np.zeros((g, 2 * g), dtype=complex), eye])
    gamma_mu_plus = gamma_mu.conj().T @ flip  # = [0, I]
    g1 = np.hstack([gamma_mu_plus @ (b0 - np.conj(mu) * np.eye(2 * g)), theta])
    return BoundaryTriple(space, g, t_basis, g0, g1)


def constant_state_resolvent(vartheta: complex, lam: complex, g: int) -> np.ndarray:
    """Closed-form resolvent of the companion block used by realize_constant."""
    vt = complex(vartheta)
    eye = np.eye(g, dtype=complex)
    return np.block([
        [eye / (vt - lam), eye / ((lam - vt) * (np.conj(vt) - lam))],
        [np.zeros((g, g), dtype=complex), eye / (np.conj(vt) - lam)],
    ])


def couple(t_strict: BoundaryTriple, t_const: BoundaryTriple,
           off1: np.ndarray, off2: np.ndarray,
           rotation: np.ndarray | None = None) -> BoundaryTriple:
    """Join two boundary triples over a product state space.

    Gamma_0 acts block-diagonally; Gamma_1 carries the cross blocks ``off1``
    (strict row, constant column) and ``off2`` (constant row, strict column),
    which must be mutual adjoints.  The optional unitary ``rotation`` maps
    the split boundary coordinates back to the original ones.
    """
    gs, gc = t_strict.boundary_dim, t_const.boundary_dim
    off1 = np.asarray(off1, dtype=complex).reshape(gs, gc)
    off2 = np.asarray(off2, dtype=complex).reshape(gc, gs)
    scale = max(1.0, np.linalg.norm(off1))
    if np.linalg.norm(off1.conj().T - off2) > 1e-10 * scale:
        raise NonAdjointBlocks("cross blocks are not mutually adjoint")
    if gc == 0:
        return t_strict

    ns, nc = t_strict.state.dim, t_const.state.dim
    gram = np.block([
        [t_strict.state.gram, np.zeros((ns, nc))],
        [np.zeros((nc, ns)), t_const.state.gram],
    ])
    j = np.block([
        [t_strict.state.j, np.zeros((ns, nc))],
        [np.zeros((nc, ns)), t_const.state.j],
    ])
    space = KreinSpace(ns + nc, gram=gram, j=j)

    ts, tc = t_strict.t_dim, t_const.t_dim
    t_basis = np.zeros((2 * (ns + nc), ts + tc), dtype=complex)
    t_basis[:ns, :ts] = t_strict.first
    t_basis[ns:ns + nc, ts:] = t_const.first
    t_basis[ns + nc:2 * ns + nc, :ts] = t_strict.second
    t_basis[2 * ns + nc:, ts:] = t_const.second

    g = gs + gc
    g0 = np.zeros((g, ts + tc), dtype=complex)
    g0[:gs, :ts] = t_strict.g0
    g0[gs:, ts:] = t_const.g0
    g1 = np.zeros((g, ts + tc), dtype=complex)
    g1[:gs, :ts] = t_strict.g1
    g1[:gs, ts:] = off1 @ t_const.g0
    g1[gs:, :ts] = off2 @ t_strict.g0
    g1[gs:, ts:] = t_const.g1

    if rotation is not None:
        u = np.asarray(rotation, dtype=complex)
        if u.shape != (g, g):
            raise DimensionMismatch("rotation must act on the full boundary space")
        g0, g1 = u @ g0, u @ g1
    return BoundaryTriple(space, g, t_basis, g0, g1)


def strict_part_form(rf: RepresentationForm, dec: Decomposition) -> RepresentationForm:
    """Representation form of the strict block pi' tau iota'."""
    iota = dec.iota_strict
    return RepresentationForm(
        space=rf.space,
        a0=rf.a0,
        gamma=rf.gamma @ iota,
        lambda0=rf.lambda0,
        c=iota.conj().T @ rf.c @ iota,
    )


def default_vartheta(samples) -> complex:
    """Nonreal anchor placed outside the verification window."""
    radius = max((abs(complex(s)) for s in samples), default=0.0)
    return 1j * (2.0 + radius)


def realize(tau, mu0: complex | None = None, vartheta: complex | None = None,
            samples=None, seed: int = 0) -> BoundaryTriple:
    """Build a boundary triple whose Weyl function equals tau.

    Rational functions take the explicit Hilbert-state path; constants the
    companion-block path; representation forms go through strictness
    analysis, with non-strict functions split and re-coupled.
    """
    if isinstance(tau, RationalNevanlinna):
        return realize_rational(tau)
    if isinstance(tau, ConstantFunction):
        if vartheta is None:
            vartheta = default_vartheta(samples or [])
        return realize_constant(tau.theta, vartheta)
    if not isinstance(tau, RepresentationForm):
        raise DimensionMismatch(f"cannot realize {type(tau).__name__}")

    g = tau.boundary_dim
    if samples is None:
        samples = default_samples(g, seed=seed)
    if mu0 is None:
        mu0 = samples[0]
    if vartheta is None:
        vartheta = default_vartheta(list(samples) + [mu0])

    kernel = strict_kernel(tau, samples=samples, mu0=mu0, seed=seed)
    if kernel.dim == 0:
        return realize_strict(tau)
    dec = decompose(tau, mu0, kernel=kernel)
    u = dec.basis  # unitary mapping split coordinates to the original ones
    const_triple = realize_constant(dec.constant_block, vartheta)
    if dec.strict_dim == 0:
        bt = const_triple
        return BoundaryTriple(bt.state, g, bt.t_basis, u @ bt.g0, u @ bt.g1)
    strict_triple = realize_strict(strict_part_form(tau, dec))
    return couple(strict_triple, const_triple,
                  dec.constant_cross, dec.constant_cross2, rotation=u)


def realize_rational(tau: RationalNevanlinna) -> BoundaryTriple:
    """Explicit ordinary boundary triple over the Hilbert space (C^g)^m whose
    Weyl function is the rational function tau.

    State vectors stack the channel components (k_1, ..., k_m); the relation
    couples channel 1 to the others through the beta^{1/2} factors.
    """
    g, m = tau.boundary_dim, tau.terms
    roots = tau.beta_sqrts()
    w1 = np.linalg.eigvalsh(tau.beta[0])
    if w1[0] <= 1e-12 * max(1.0, w1[-1]):
        raise BetaOneSingular("leading coefficient must be positive definite")
    b1_inv_sqrt = np.linalg.inv(roots[0])

    n = m * g
    t = (m + 1) * g  # parameters (k_1..k_m, k_1')
    eye = np.eye(g, dtype=complex)
    first = np.zeros((n, t), dtype=complex)
    second = np.zeros((n, t), dtype=complex)
    for i in range(m):
        first[i * g:(i + 1) * g, i * g:(i + 1) * g] = eye
    second[:g, m * g:] = eye  # k_1' is free
    for i in range(1, m):
        second[i * g:(i + 1) * g, :g] = roots[i] @ b1_inv_sqrt
        second[i * g:(i + 1) * g, i * g:(i + 1) * g] = tau.alpha[i]

    g0 = np.zeros((g, t), dtype=complex)
    g0[:, :g] = b1_inv_sqrt
    g1 = np.zeros((g, t), dtype=complex)
    g1[:, :g] = tau.alpha[0] @ b1_inv_sqrt
    for i in range(1, m):
        g1[:, i * g:(i + 1) * g] = -roots[i]
    g1[:, m * g:] = roots[0]

    space = KreinSpace(n)  # Euclidean Hilbert state
    return BoundaryTriple(space, g, np.vstack([first, second]), g0, g1)


def verify_realization(bt: BoundaryTriple, tau, samples, seed: int = 0) -> dict:
    """Residual report comparing the triple's Weyl function against tau."""
    report: dict = {"green": bt.green_residual(), "ordinary": bt.is_ordinary()}
    data = {lam: bt.weyl_data(lam) for lam in samples}
    worst = 0.0
    for lam in samples:
        m = data[lam].m_mat
        t = tau.eval(lam)
        worst = max(worst, float(np.linalg.norm(m - t, 2))
                    / max(1.0, float(np.linalg.norm(t, 2))))
    report["weyl_residual"] = worst
    report["triple_identities"] = verify_triple_identities(bt, samples, seed=seed, data=data)
    del data    # its LUs of K_lam would otherwise add to the peak memory of the A_0 check
    report["a0_selfadjoint_residual"] = bt.a0.selfadjointness_residual()
    return report
