"""Reference computations shared by the test modules.

The [[., .]]-adjoint of a relation by a full SVD and the subspace gaps built
on it, the closed-form resolvent of the companion block, the dense Dirichlet
block L_II, the closed-form gamma-field of the elliptic triple, that
triple as a dense generic ``BoundaryTriple``, the eigenvalue count of a
constant boundary condition from dense eigensolves, and a linearization's
A and full spectrum in dense form.  The package decides the same properties
by cheaper means; these are what it is checked against.  Last, a patch that
keeps the dense L_II from the code under test.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from weylbvp import BoundaryTriple, KreinSpace, LinearRelation, Subspace, nullspace


def span_subspace(rel):
    """A relation as a subspace of H x H."""
    return Subspace(2 * rel.space.dim, rel.basis)


def adjoint(rel):
    """The orthogonal companion of a relation with respect to [[., .]] on
    H x H: the kernel of B^H K, by a full SVD."""
    if rel.dim == 0:
        return LinearRelation(rel.space, np.eye(2 * rel.space.dim, dtype=complex))
    return LinearRelation(rel.space, nullspace(rel.basis.conj().T @ rel.space.pair_gram()))


def adjoint_gap(rel):
    """The two-sided gap between a relation and its adjoint."""
    return span_subspace(rel).gap(span_subspace(adjoint(rel)))


def symmetry_residual(rel):
    """How far the relation's span is from lying in its adjoint's: zero
    exactly when the relation is symmetric."""
    return span_subspace(adjoint(rel)).containment_residual(span_subspace(rel))


def constant_state_resolvent(vartheta, lam, g):
    """Closed-form resolvent of the companion block used by realize_constant."""
    vt = complex(vartheta)
    eye = np.eye(g, dtype=complex)
    return np.block([
        [eye / (vt - lam), eye / ((lam - vt) * (np.conj(vt) - lam))],
        [np.zeros((g, g), dtype=complex), eye / (np.conj(vt) - lam)],
    ])


def dense_l_ii(de):
    """L_II as a dense n_I x n_I matrix, for small sizes: the package keeps
    it banded and sparse."""
    return de.sparse_blocks[0].toarray()


def elliptic_gamma(et, lam):
    """(I + (lam - eta)(T_D - lam)^{-1}) E_eta, the closed-form gamma-field."""
    return et.extension + (lam - et.eta) * et.de.dirichlet_factor(lam)(et.extension)


def generic_elliptic_triple(et):
    """The elliptic triple as a dense generic ``BoundaryTriple`` over
    (C^{n_I}, h^d I) in T-coordinates (f_D, y): a 2 n_I x (n_I + n_B) basis,
    for small sizes only.  Its ``weyl_data`` factors the whole (n_I + n_B)^2
    matrix K_lam, where the package makes one banded solve."""
    de, ext, w = et.de, et.extension, et.de.weight
    n, nb = de.n_interior, de.n_boundary
    t_basis = np.block([[np.eye(n), ext], [dense_l_ii(de), et.eta * ext]])
    g0 = np.hstack([np.zeros((nb, n)), np.eye(nb)])
    g1 = np.hstack([-w * de.l_ib.T, np.zeros((nb, nb))])
    return BoundaryTriple(KreinSpace(n, gram=w * np.eye(n)), nb, t_basis, g0, g1)


def fixed_extension(et, theta):
    """(K, theta + B) for a constant tau = theta, densely.  The boundary
    condition theta y = h^d L_BI (f - E_eta y) gives y = (theta + B)^{-1}
    h^d L_BI f with B = h^d L_BI E_eta, so the eigenvalues are those of the
    Hermitian K = L_II + h^d L_IB (theta + B)^{-1} L_IB^T.  B is formed from
    a dense solve with L_II."""
    de = et.de
    n, l_ii, l_ib = de.n_interior, dense_l_ii(de), de.l_ib
    b = -de.weight * l_ib.T @ np.linalg.solve(l_ii - et.eta * np.eye(n), l_ib)
    tb = theta + (b + b.T) / 2
    return l_ii + de.weight * l_ib @ np.linalg.solve(tb, l_ib.T), tb


def fixed_extension_count(et, theta, x):
    """N(x) for a constant tau = theta from dense eigensolves: as x -> -inf,
    M(x) tends to B, so N counts #{positive eigenvalues of theta + B} besides
    the eigenvalues of K below x (``fixed_extension``)."""
    k, tb = fixed_extension(et, theta)
    return int(np.count_nonzero(np.linalg.eigvalsh((k + k.conj().T) / 2) < x)
               + np.count_nonzero(np.linalg.eigvalsh(tb) > 0))


def dense_matrix(lin):
    """A linearization's A as a dense array, for small sizes: the package
    stores it sparse."""
    return lin.matrix.toarray()


def dense_eigenpairs(lin):
    """Every eigenpair of a linearization over a Euclidean state (or none):
    (increasing real eigenvalues, W-orthonormal eigenvectors) from one dense
    Hermitian eigensolve of D^{-1/2} He(W A) D^{-1/2} (W = D = h^d I (+) I),
    where the package solves count-sized slices by shift-invert Lanczos runs
    on A - sigma."""
    a, n = dense_matrix(lin), lin.n_interior
    assert np.array_equal(lin.state_gram, np.eye(lin.size - n)), "needs G = I"
    root = np.ones(lin.size)
    root[:n] = np.sqrt(lin.weight)
    b = root[:, None] * a / root
    w, z = scipy.linalg.eigh((b + b.conj().T) / 2)
    return w, z / root[:, None]


def refuse_dense_square(monkeypatch, n):
    """Make the ``toarray`` of every sparse array format raise on an n x n
    result: with n = n_I, the code under test may not densify L_II."""
    for cls in (scipy.sparse.csc_array, scipy.sparse.csr_array,
                scipy.sparse.coo_array, scipy.sparse.dia_array):
        def refusing(self, *args, _toarray=cls.toarray, **kwargs):
            if self.shape == (n, n):
                raise AssertionError(f"dense {n}x{n} array built")
            return _toarray(self, *args, **kwargs)

        monkeypatch.setattr(cls, "toarray", refusing)
