"""Evaluable operator-valued functions of a spectral parameter.

Three concrete families: a selfadjoint constant, a rational function with
Hermitian/PSD coefficient matrices, and an abstract resolvent-based
representation form.  Shared analysis: strictness kernels, block
decomposition into a strict part plus constant blocks, and a
negative-squares diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    SpectrumPoint,
)
from .krein import (
    KreinSpace,
    LinearRelation,
    Subspace,
    _as_matrix,
    column_space,
    intersect,
    nullspace,
    orthonormal_columns,
)

_HERM_TOL = 1e-12


def _check_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square")
    if np.linalg.norm(a - a.conj().T, 2) > _HERM_TOL * max(1.0, np.linalg.norm(a, 2)):
        raise DimensionMismatch(f"{what} must be Hermitian")
    return a


def psd_sqrt(b: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root; small negative eigenvalues clipped to 0."""
    w, v = np.linalg.eigh(b)
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    if w[0] < -1e-12 * scale:
        raise DimensionMismatch("matrix is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


@dataclass(frozen=True)
class ConstantFunction:
    """lambda -> Theta for a fixed Hermitian Theta."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_hermitian(self.theta, "theta"))

    @property
    def boundary_dim(self) -> int:
        return self.theta.shape[0]

    def poles(self) -> np.ndarray:
        return np.zeros(0)

    def eval(self, lam: complex) -> np.ndarray:
        return self.theta.copy()


@dataclass(frozen=True)
class RationalNevanlinna:
    """tau(lam) = alpha_1 + lam*beta_1 + sum_{i>=2} beta_i^{1/2}(alpha_i-lam)^{-1}beta_i^{1/2}.

    All alpha_i Hermitian and all beta_i positive semidefinite; poles are the
    eigenvalues of alpha_2..alpha_m and are real.
    """

    alpha: tuple
    beta: tuple
    # beta_i^{1/2}, the pole terms (w_i, C_i) with alpha_i = V_i diag(w_i) V_i^H
    # and C_i = beta_i^{1/2} V_i, and the sorted poles, computed once from the
    # coefficients
    _roots: tuple = field(init=False, repr=False, compare=False)
    _pole_terms: tuple = field(init=False, repr=False, compare=False)
    _poles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alphas = tuple(_check_hermitian(a, "alpha") for a in self.alpha)
        if not alphas:
            raise DimensionMismatch("at least one term required")
        g = alphas[0].shape[0]
        betas = tuple(_check_hermitian(b, "beta") for b in self.beta)
        if len(betas) != len(alphas):
            raise DimensionMismatch("alpha and beta lists must have equal length")
        if any(a.shape != (g, g) for a in alphas) or any(b.shape != (g, g) for b in betas):
            raise DimensionMismatch("all coefficient blocks must be g x g")
        roots = tuple(psd_sqrt(b) for b in betas)  # validates PSD
        eigs = [np.linalg.eigh(a) for a in alphas[1:]]
        terms = tuple((w, r @ v) for (w, v), r in zip(eigs, roots[1:]))
        poles = np.sort(np.concatenate([w for w, _ in terms])) if terms else np.zeros(0)
        for arr in (*roots, *(a for term in terms for a in term), poles):
            arr.setflags(write=False)
        object.__setattr__(self, "alpha", alphas)
        object.__setattr__(self, "beta", betas)
        object.__setattr__(self, "_roots", roots)
        object.__setattr__(self, "_pole_terms", terms)
        object.__setattr__(self, "_poles", poles)

    @property
    def boundary_dim(self) -> int:
        return self.alpha[0].shape[0]

    @property
    def terms(self) -> int:
        return len(self.alpha)

    def poles(self) -> np.ndarray:
        return self._poles

    def beta_sqrts(self) -> list[np.ndarray]:
        return list(self._roots)

    def eval(self, lam: complex) -> np.ndarray:
        """alpha_1 + lam beta_1 + sum_i (C_i / (w_i - lam)) C_i^H, checked
        against the poles before any division."""
        dist = np.min(np.abs(self._poles - lam)) if self.terms > 1 else np.inf
        if dist < 1e-12 * max(1.0, abs(lam)):
            raise SpectrumPoint(f"{lam} is a pole of the rational function")
        out = self.alpha[0] + lam * self.beta[0]
        for w, c in self._pole_terms:
            out = out + (c / (w - lam)) @ c.conj().T
        return out


@dataclass(frozen=True)
class RepresentationForm:
    """tau(lam) = C + gamma^+((lam - Re l0) + (lam-l0)(lam-conj(l0))(A0-lam)^{-1})gamma.

    ``a0`` is a selfadjoint relation in the (possibly indefinite) space
    ``space``; ``gamma`` maps boundary data into that space; C = Re tau(l0).
    """

    space: KreinSpace
    a0: LinearRelation
    gamma: np.ndarray
    lambda0: complex
    c: np.ndarray

    def __post_init__(self):
        gm = _as_matrix(self.gamma)
        if gm.shape[0] != self.space.dim:
            raise DimensionMismatch("gamma must map into the state space")
        object.__setattr__(self, "gamma", gm)
        object.__setattr__(self, "c", _check_hermitian(self.c, "C"))
        if self.c.shape[0] != gm.shape[1]:
            raise DimensionMismatch("C must be g x g")
        if not self.a0.is_selfadjoint():
            raise DimensionMismatch("A0 must be selfadjoint")
        self.a0.resolvent(self.lambda0)  # lambda0 must be a resolvent point

    @property
    def boundary_dim(self) -> int:
        return self.gamma.shape[1]

    def gamma_plus(self) -> np.ndarray:
        """Krein-space adjoint of gamma (boundary space Euclidean)."""
        return self.gamma.conj().T @ self.space.gram

    def eval(self, lam: complex) -> np.ndarray:
        n = self.space.dim
        l0 = complex(self.lambda0)
        res = self.a0.resolvent(lam)
        op = (lam - l0.real) * np.eye(n) + (lam - l0) * (lam - np.conj(l0)) * res
        return self.c + self.gamma_plus() @ op @ self.gamma


def default_samples(g: int, seed: int = 0, count: int | None = None) -> list[complex]:
    """Deterministic nonreal sample points in C+ and C- for kernel analysis,
    with real part in [-2, 2] and imaginary part of modulus in [0.3, 2]."""
    if count is None:
        count = 2 * g + 3
    rng = np.random.default_rng(seed)
    pts = []
    for k in range(count):
        re = rng.uniform(-2.0, 2.0)
        im = rng.uniform(0.3, 2.0)
        pts.append(complex(re, im if k % 2 == 0 else -im))
    return pts


def nevanlinna_kernel(tau, lam: complex, mu: complex) -> np.ndarray:
    """K(lam, mu) = (tau(lam) - tau(mu)^*)/(lam - conj(mu))."""
    denom = lam - np.conj(mu)
    if abs(denom) < 1e-14:
        raise SpectrumPoint("kernel undefined at lam = conj(mu)")
    return (tau.eval(lam) - tau.eval(mu).conj().T) / denom


def strict_kernel(tau, samples=None, mu0: complex | None = None) -> Subspace:
    """Common kernel of the difference quotients (tau(lam)-tau(mu0)^*)/(lam-conj(mu0)).

    The function is strict when the result is trivial.  For a representation
    form the result equals ker(gamma), which is cross-checked.  The samples
    default to ``default_samples``.
    """
    g = tau.boundary_dim
    if samples is None:
        samples = default_samples(g)
    samples = list(samples)
    if len(samples) < 2:
        raise InsufficientSamples("need at least two sample points")
    if mu0 is None:
        mu0 = samples[0]
    result: Subspace | None = None
    for lam in samples:
        if abs(lam - np.conj(mu0)) < 1e-12:
            continue
        k = nevanlinna_kernel(tau, lam, mu0)
        ker = column_space(nullspace(k), ambient=g)
        result = ker if result is None else intersect(result, ker)
        if result.dim == 0:
            break
    if result is None:
        raise InsufficientSamples("all samples degenerate against mu0")
    if isinstance(tau, RepresentationForm):
        ker_gamma = column_space(nullspace(tau.gamma), ambient=g)
        if not result.equals(ker_gamma, tol=1e-8):
            raise InsufficientSamples(
                "sampled kernel disagrees with ker(gamma); enlarge the sample set"
            )
    return result


@dataclass(frozen=True)
class Decomposition:
    """2x2 block splitting of tau against the strict-kernel subspace, frozen at mu0.

    ``iota_strict``/``iota_hat`` are orthonormal bases of the complement of
    the common kernel and of the kernel itself; ``constant_*`` are the frozen
    tau(mu0) blocks that complete the strict part.
    """

    iota_strict: np.ndarray = field(repr=False)
    iota_hat: np.ndarray = field(repr=False)
    constant_cross: np.ndarray = field(repr=False)   # pi' tau(mu0) iota^
    constant_cross2: np.ndarray = field(repr=False)  # pi^ tau(mu0) iota'
    constant_block: np.ndarray = field(repr=False)   # pi^ tau(mu0) iota^

    @property
    def strict_dim(self) -> int:
        return self.iota_strict.shape[1]

    @property
    def basis(self) -> np.ndarray:
        return np.hstack([self.iota_strict, self.iota_hat])


def decompose(tau, mu0: complex, kernel: Subspace | None = None) -> Decomposition:
    """Split tau into a strict part plus constant blocks frozen at mu0; the
    kernel defaults to ``strict_kernel`` at the default samples."""
    g = tau.boundary_dim
    if kernel is None:
        kernel = strict_kernel(tau, mu0=mu0)
    iota_hat = kernel.basis
    # orthonormal complement of the kernel
    if kernel.dim == 0:
        iota_strict = np.eye(g, dtype=complex)
    else:
        proj = np.eye(g) - iota_hat @ iota_hat.conj().T
        iota_strict = orthonormal_columns(proj)
    t0 = tau.eval(mu0)
    return Decomposition(
        iota_strict=iota_strict,
        iota_hat=iota_hat,
        constant_cross=iota_strict.conj().T @ t0 @ iota_hat,
        constant_cross2=iota_hat.conj().T @ t0 @ iota_strict,
        constant_block=iota_hat.conj().T @ t0 @ iota_hat,
    )


def negative_squares(tau, points) -> int:
    """Negative eigenvalue count of the sampled Nevanlinna-kernel Gram matrix.

    A lower bound for the number of negative squares of the kernel; monotone
    nondecreasing in the number of sample points.
    """
    points = list(points)
    g = tau.boundary_dim
    n = len(points)
    gram = np.zeros((n * g, n * g), dtype=complex)
    for i, li in enumerate(points):
        for j, lj in enumerate(points):
            # entry (j, i) block: [K(li, lj) x_i, x_j] with Euclidean boundary pairing
            gram[j * g:(j + 1) * g, i * g:(i + 1) * g] = nevanlinna_kernel(tau, li, lj)
    gram = (gram + gram.conj().T) / 2
    w = np.linalg.eigvalsh(gram)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    return int(np.count_nonzero(w < -1e-10 * scale))
