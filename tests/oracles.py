"""Reference computations shared by the test modules.

The [[., .]]-adjoint of a relation by a full SVD and the subspace gaps built
on it, the closed-form resolvent of the companion block and the closed-form
gamma-field of the elliptic triple.  The package decides the same
properties by cheaper means; these are what it is checked against.
"""

import numpy as np

from weylbvp import LinearRelation, Subspace, nullspace


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


def elliptic_gamma(et, lam):
    """(I + (lam - eta)(T_D - lam)^{-1}) E_eta, the closed-form gamma-field."""
    return et.extension + (lam - et.eta) * et.de.dirichlet_solve(lam, et.extension)
