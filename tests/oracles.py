"""Fixtures and oracles the tests build on, with no caller in the library.

Each was library code that only tests reached. The tests that use them
keep their assertions: linear_quiver_algebra and group_algebra are
fixtures, center feeds the fingerprint in fingerprints.py, and
minpoly_matrix, explicit_isomorphism, quotient_module, projective_leaves
and summand_split_maps are independent routes to answers the library
reaches another way (polynomials.minpoly_powers, the adjoint-pair flag, the
quotients of _quotient, and the generator and faithfulness flags, which
read covers and annihilators where these split leaves off).
"""

import numpy as np

from jorder import decomp, linalg
from jorder.algebras import Algebra, Provenance, algebra_from_quiver, subalgebra_from_rows
from jorder.modules import (
    _all_generator_actions,
    _check_compatible,
    _moved_rows,
    _quotient,
    is_split,
    projective_indecomposables,
)
from jorder.polynomials import minpoly_powers
from jorder.quivers import Quiver, QuiverPresentation


def linear_quiver_algebra(field, n, label=None):
    """Path algebra of the linear quiver 1 -> 2 -> ... -> n (no relations)."""
    quiver = Quiver([str(i) for i in range(1, n + 1)], [
        (f"a{i}", str(i), str(i + 1)) for i in range(1, n)
    ])
    return algebra_from_quiver(QuiverPresentation(quiver, []), field, label=label or f"path_{n}")


def group_algebra(group, field):
    """The group algebra k[G] with basis indexed by group elements."""
    n = group.order
    table = field.zeros((n, n, n))
    table[(*np.indices((n, n)), group.multiplication_table)] = field.one
    unit = field.zeros(n)
    unit[group.identity_index] = field.one
    return Algebra(
        field,
        table,
        unit,
        list(group.labels),
        generators=[field.eye(n)[i] for i in range(n)],
        provenance=Provenance("group_algebra", {"group": group}),
        label=f"k[{group.label}]",
        check=False,  # a table of a verified group law
    )


def center(algebra):
    """The center as a commutative subalgebra, with inclusion rows attached."""
    field = algebra.field
    # block j sends z to x_j z - z x_j
    stacked = field.sub(algebra.left_regular_mats(), algebra.right_regular_mats()).reshape(-1, algebra.dim)
    _, ker = linalg.rank_nullspace(field, stacked)
    return subalgebra_from_rows(
        algebra,
        ker.T,
        label=f"Z({algebra.label})",
        provenance=Provenance("center", {"parent": algebra}),
    )


def minpoly_matrix(field, m):
    """Monic minimal polynomial of a square matrix, by power stacking."""
    m = np.atleast_2d(m)
    n = m.shape[0]
    return minpoly_powers(field, field.eye(n).reshape(-1), lambda v: field.matmul(v.reshape(n, n), m).reshape(-1), n)[0]


def explicit_isomorphism(m, n, seed=0):
    """Matrix of a module isomorphism m -> n, or None.

    The section of split_maps on the two decompositions, checked by
    is_split: with equal dimensions a split injection is invertible.
    """
    _check_compatible(m, n)
    if m.dim != n.dim:
        return None
    dm = decomp.decompose(m, seed=seed)
    dn = decomp.decompose(n, seed=seed + 1)
    if len(dm.summands) != len(dn.summands):
        return None
    maps, _ = decomp.split_maps(dm, dn)
    if maps is None:
        return None
    if not is_split(m, n, *maps):
        raise AssertionError("matched summand maps do not split m off n")
    return maps[0]


def quotient_module(m, rows, label=None):
    """Quotient by an action-stable row span; returns (quotient, projection)."""
    field = m.field
    basis = linalg.row_basis(field, field.canon(np.atleast_2d(rows))) if np.atleast_2d(rows).size else field.zeros((0, m.dim))
    moved = _moved_rows(field, basis, _all_generator_actions(m))
    if linalg.coords_in_row_basis(field, basis, moved) is None:
        raise ValueError("quotient_module: subspace is not action-stable")
    return _quotient(m, basis, label or f"{m.label}-quo")


def projective_leaves(a):
    """One certified leaf per P_k of projective_indecomposables(a), in its order.

    A leaf's module is P_k itself.
    """
    decs = [decomp.decompose(p) for p, _, _ in projective_indecomposables(a)]
    if any(len(dec.summands) != 1 for dec in decs):
        raise AssertionError("an indecomposable projective decomposed")
    return tuple(dec.summands[0] for dec in decs)


def summand_split_maps(leaf, y):
    """(section, retraction) splitting a certified summand off y, or None.

    End(leaf) is local, so the first pair (f, g) of the leaf test has g f
    invertible and the retraction is (g f)^-1 g. Avoids decomposing y.
    """
    _check_compatible(leaf.module, y)
    if leaf.module.dim > y.dim:
        return None
    pair = decomp._leaf_pair(leaf, y)
    if pair is None:
        return None
    f, g = pair
    return f, y.field.matmul(linalg.invert(y.field, y.field.matmul(g, f)), g)
