"""Operator functions: evaluation, symmetry, strictness, decomposition
and kernel diagnostics.
"""

import numpy as np
import pytest

from weylbvp import (
    ConstantFunction,
    InsufficientSamples,
    KreinSpace,
    LinearRelation,
    RationalNevanlinna,
    RepresentationForm,
    SpectrumPoint,
    decompose,
    negative_squares,
    strict_kernel,
)
from weylbvp.opfunc import default_samples


def scalar(x):
    return np.array([[x]], dtype=complex)


def symmetry_residual(tau, lam):
    """Residual of tau(conj(lam)) = tau(lam)^*."""
    a = tau.eval(np.conj(lam))
    b = tau.eval(lam).conj().T
    return float(np.linalg.norm(a - b, 2) / max(1.0, np.linalg.norm(b, 2)))


def strict_block(dec, tau, lam):
    """pi' tau(lam) iota', the strict part of the decomposition at lam."""
    return dec.iota_strict.conj().T @ tau.eval(lam) @ dec.iota_strict


def reassemble(dec, tau, lam):
    """tau(lam) rebuilt from its strict block at lam and the constant blocks."""
    blocks = np.block([[strict_block(dec, tau, lam), dec.constant_cross],
                       [dec.constant_cross2, dec.constant_block]])
    return dec.basis @ blocks @ dec.basis.conj().T


def multivalued_a0(n):
    sp = KreinSpace(n)
    return sp, LinearRelation.from_span(sp, np.vstack([np.zeros((n, n)), np.eye(n)]))


def diag_lambda_five():
    """Representation form of lam -> diag(lam, 5)."""
    sp, a0 = multivalued_a0(1)
    return RepresentationForm(space=sp, a0=a0, gamma=np.array([[1.0, 0.0]]),
                              lambda0=1j, c=np.diag([0.0, 5.0]).astype(complex))


# ---------------------------------------------------------------------------
# evaluation


def test_linear_scalar():
    tau = RationalNevanlinna(alpha=(scalar(0),), beta=(scalar(1),))
    assert abs(tau.eval(1j)[0, 0] - 1j) < 1e-14


def test_rational_two_term_scalar():
    tau = RationalNevanlinna(alpha=(scalar(0), scalar(0)),
                             beta=(scalar(1), scalar(1)))
    assert abs(tau.eval(2.0)[0, 0] - 1.5) < 1e-14  # 2 - 1/2


def test_rational_pole_detection():
    tau = RationalNevanlinna(alpha=(scalar(0), scalar(3)),
                             beta=(scalar(1), scalar(1)))
    assert np.allclose(tau.poles(), [3.0])
    with pytest.raises(SpectrumPoint, match="is a pole of the rational function"):
        tau.eval(3.0)


def test_constant_has_no_poles():
    tau = ConstantFunction(theta=2.0 * np.eye(3))
    assert tau.poles().shape == (0,)


def test_rational_eval_reuses_roots_and_poles(monkeypatch):
    rng = np.random.default_rng(8)
    b = rng.standard_normal((3, 3))
    tau = RationalNevanlinna(alpha=(np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0])),
                             beta=(np.eye(3), b @ b.T))
    roots = tau.beta_sqrts()
    assert np.allclose(roots[1] @ roots[1], b @ b.T, atol=1e-12)
    calls = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, **k: calls.append(_n))
    tau.eval(0.5 + 1j)
    tau.poles()
    tau.beta_sqrts()
    assert calls == []
    assert np.allclose(tau.poles(), [1.0, 2.0, 3.0])


def _random_rational(rng, g, m):
    """Random Hermitian alpha_i and PSD beta_i (beta_2 of rank g - 1)."""
    def herm():
        a = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        return (a + a.conj().T) / 2

    def psd(rank):
        b = rng.standard_normal((g, rank)) + 1j * rng.standard_normal((g, rank))
        return b @ b.conj().T

    return RationalNevanlinna(alpha=tuple(herm() for _ in range(m)),
                              beta=(psd(g), psd(g - 1), *(psd(g) for _ in range(m - 2))))


@pytest.mark.parametrize("seed", range(4))
def test_rational_eval_matches_the_solve_formula(seed):
    rng = np.random.default_rng(seed)
    g, m = 5, 3
    tau = _random_rational(rng, g, m)
    roots = tau.beta_sqrts()
    for lam in (0.3 + 1.7j, -2.1 - 0.4j, 0.5j, float(tau.poles()[-1]) + 1.0):
        ref = tau.alpha[0] + lam * tau.beta[0]
        for a, r in zip(tau.alpha[1:], roots[1:]):
            ref = ref + r @ np.linalg.solve(a - lam * np.eye(g), r)
        got = tau.eval(lam)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_rational_eval_rejects_a_pole_and_its_neighbourhood():
    tau = _random_rational(np.random.default_rng(9), 4, 3)
    for pole in tau.poles():
        for lam in (pole, pole + 1e-13, pole - 1e-13, complex(pole, 1e-13)):
            with pytest.raises(SpectrumPoint, match="is a pole of the rational function"):
                tau.eval(lam)


def test_representation_form_brute_force():
    sp = KreinSpace(1)
    a0 = LinearRelation.from_graph(sp, np.array([[1.0]]))
    rf = RepresentationForm(space=sp, a0=a0, gamma=np.array([[1.0]]),
                            lambda0=1j, c=np.zeros((1, 1)))
    for lam in (2.0j, 0.5 + 0.5j, -1 + 1j):
        expected = lam + (lam - 1j) * (lam + 1j) / (1 - lam)
        assert abs(rf.eval(lam)[0, 0] - expected) < 1e-12


def test_representation_form_rejects_spectrum_point():
    sp = KreinSpace(1)
    a0 = LinearRelation.from_graph(sp, np.array([[1.0]]))
    rf = RepresentationForm(space=sp, a0=a0, gamma=np.array([[1.0]]),
                            lambda0=1j, c=np.zeros((1, 1)))
    with pytest.raises(SpectrumPoint, match=r"ran\(A - 1\.0\) is not all of H"):
        rf.eval(1.0)


def test_symmetry_tau_conjugate():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = a + a.conj().T
    b = rng.standard_normal((2, 2))
    b = b @ b.T + 0.1 * np.eye(2)
    tau = RationalNevanlinna(alpha=(a, -a), beta=(b, b))
    for lam in (1 + 1j, -2 + 0.5j, 3j):
        assert symmetry_residual(tau, lam) <= 1e-12


def test_nevanlinna_imaginary_part():
    rng = np.random.default_rng(1)
    b2 = rng.standard_normal((2, 2))
    b2 = b2 @ b2.T
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)), np.diag([1.0, -1.0])),
                             beta=(np.eye(2), b2))
    for lam in (1j, 2 + 0.5j, -1 + 3j):
        im = (tau.eval(lam) - tau.eval(lam).conj().T) / 2j
        assert np.min(np.linalg.eigvalsh((im + im.conj().T) / 2)) >= -1e-10


# ---------------------------------------------------------------------------
# strictness


def test_strict_kernel_trivial():
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)),), beta=(np.eye(2),))
    assert strict_kernel(tau).dim == 0


def test_strict_kernel_diag_lambda_five():
    rf = diag_lambda_five()
    ker = strict_kernel(rf)
    assert ker.dim == 1
    assert np.allclose(np.abs(ker.basis[:, 0]), [0, 1], atol=1e-10)


def test_strict_kernel_matches_ker_gamma():
    sp = KreinSpace(2)
    a0 = LinearRelation.from_graph(sp, np.diag([1.0, -1.0]))
    gamma = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])  # rank 1, kernel dim 2
    rf = RepresentationForm(space=sp, a0=a0, gamma=gamma, lambda0=1j,
                            c=np.zeros((3, 3)))
    ker = strict_kernel(rf)
    assert ker.dim == 2
    # kernel of gamma is orthogonal complement of (1,1,0)/sqrt(2)
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    assert np.linalg.norm(ker.basis.conj().T @ v) < 1e-10


def test_strict_kernel_needs_samples():
    tau = ConstantFunction(theta=np.eye(2))
    with pytest.raises(InsufficientSamples):
        strict_kernel(tau, samples=[1j])


def test_strict_kernel_monotone_under_enrichment():
    rf = diag_lambda_five()
    base = default_samples(2, seed=3)
    small = strict_kernel(rf, samples=base[:4])
    large = strict_kernel(rf, samples=base)
    assert small.containment_residual(large) <= 1e-8


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_strict_is_trivial():
    tau = RationalNevanlinna(alpha=(np.zeros((2, 2)),), beta=(np.eye(2),))
    dec = decompose(tau, 1j)
    assert dec.iota_hat.shape[1] == 0
    assert dec.strict_dim == 2


def test_decompose_diag_lambda_five():
    rf = diag_lambda_five()
    dec = decompose(rf, 1j)
    assert dec.iota_hat.shape[1] == 1 and dec.strict_dim == 1
    assert abs(strict_block(dec, rf, 2j)[0, 0] - 2j) < 1e-12
    assert abs(dec.constant_block[0, 0] - 5.0) < 1e-12
    assert np.linalg.norm(dec.constant_cross) < 1e-12
    for lam in (2j, 1 + 1j, -0.3 + 0.7j):
        assert np.linalg.norm(reassemble(dec, rf, lam) - rf.eval(lam)) <= 1e-12


def test_decompose_nondiagonal_reassembly():
    # 3x3 non-strict function with a rotated 1-dim common kernel
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    sp, a0 = multivalued_a0(2)
    gamma_small = np.array([[1.0, 0.0], [0.0, 1.0]])  # 2x2 strict part
    gamma = np.hstack([gamma_small, np.zeros((2, 1))]) @ q.T
    c = rng.standard_normal((3, 3))
    c = (c + c.T) / 2
    rf = RepresentationForm(space=sp, a0=a0, gamma=gamma, lambda0=1j, c=c)
    dec = decompose(rf, 0.4 + 1.1j)
    assert dec.iota_hat.shape[1] == 1
    for lam in (2j, 1 + 1j, -0.5 - 0.8j):
        err = np.linalg.norm(reassemble(dec, rf, lam) - rf.eval(lam))
        assert err <= 1e-12 * max(1.0, np.linalg.norm(rf.eval(lam)))


# ---------------------------------------------------------------------------
# negative squares


class _NegLinear:
    """tau(lam) = -lam, the simplest function with one negative square."""

    boundary_dim = 1

    @staticmethod
    def eval(lam):
        return np.array([[-lam]], dtype=complex)


class _Cubic:
    boundary_dim = 1

    @staticmethod
    def eval(lam):
        return np.array([[lam ** 3]], dtype=complex)


def test_negative_squares_nevanlinna_zero():
    tau = RationalNevanlinna(alpha=(scalar(1), scalar(-2)),
                             beta=(scalar(2), scalar(1)))
    pts = [1j, 0.5 + 1j, -1 + 2j, 2 + 0.3j, -0.5 + 0.8j]
    assert negative_squares(tau, pts) == 0


def test_negative_squares_minus_lambda():
    assert negative_squares(_NegLinear(), [1j]) == 1
    assert negative_squares(_NegLinear(), [1j, 1 + 1j, -2 + 0.5j]) >= 1


def test_negative_squares_cubic():
    assert negative_squares(_Cubic(), [1j, 1 + 1j, -1 + 0.5j]) >= 1


def test_negative_squares_monotone_in_points():
    pts = [1j, 1 + 1j, -2 + 0.5j, 0.2 + 2j, -1 + 1.5j]
    counts = [negative_squares(_Cubic(), pts[:k]) for k in range(1, len(pts) + 1)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))
