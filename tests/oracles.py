"""Fixtures and oracles the tests build on, with no caller in the library.

Each was library code that only tests reached. The tests that use them
keep their assertions: linear_quiver_algebra and group_algebra are
fixtures, center feeds the fingerprint in fingerprints.py, and
minpoly_matrix, explicit_isomorphism, quotient_module, projective_leaves,
summand_split_maps, hom_tensor_over, fitting_pair and leaf_pair are
independent routes to answers the library reaches another way
(polynomials.minpoly_powers, the adjoint-pair flag, the quotients of
_quotient, the generator and faithfulness flags, which read covers and
annihilators where these split leaves off, tensor_over, which reads its
projection off one reversed elimination of the Hom rows, and the leaf test
of decomp, which reads an isomorphism off Hom(Z, X) alone where these two
read the composites of Hom(Z, X) and Hom(X, Z) against rad End(Z)).
basis_vector, is_commutative, pure_tensor and trivial_action were methods
of Algebra, TensorResult and groups.AlgebraAction (with
groups.FiniteGroup.trivial) that only tests called, and so were mat (of both
fields), inv (of groups.FiniteGroup) and end_algebra (decomp.EndView.algebra).
"""

import numpy as np

from jorder import decomp, linalg
from jorder.algebras import Algebra, Provenance, algebra_from_quiver, subalgebra_from_rows
from jorder.groups import AlgebraAction, FiniteGroup
from jorder.modules import (
    Module,
    TensorResult,
    _all_generator_actions,
    _check_compatible,
    _moved_rows,
    _quotient,
    _same_algebra,
    dual_module,
    hom_space,
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


def fitting_pair(end, fs, gs):
    """First pair (f, g) of the hom bases fs of x -> n and gs of n -> x
    with g f outside rad End(x), or None.

    end is (E, homs) for x, with E a local decomp.EndView. If every basis
    composite lies in the radical, bilinearity puts every composite there.
    This is the two-Hom test decomp's one-Hom leaf test replaced; it stays
    for summand_split_maps, where dim n may exceed dim x and an injective f
    need not split, and as the oracle the leaf test is compared against.
    """
    if not (fs and gs):
        return None
    e_view, _ = end
    field = e_view.field
    rad = e_view.radical_rows()
    rad_pivots = linalg.echelon_pivots(field, rad)
    for f in fs:
        for g in gs:
            comp = field.matmul(g, f)
            if field.is_zero(comp):
                continue
            if linalg.coords_in_row_basis(field, rad, e_view.coords(comp[None]), rad_pivots) is None:
                return f, g
    return None


def leaf_pair(leaf, n):
    """fitting_pair against n; Hom(n, leaf) is not solved when Hom(leaf, n) is zero."""
    fs = hom_space(leaf.module, n)
    return fitting_pair(leaf._end, fs, hom_space(n, leaf.module) if fs else [])


def summand_split_maps(leaf, y):
    """(section, retraction) splitting a certified summand off y, or None.

    End(leaf) is local, so the first pair (f, g) of the two-Hom Fitting test
    (leaf_pair) has g f invertible and the retraction is (g f)^-1 g. Avoids
    decomposing y. y may be larger than the leaf, so the one-Hom test of
    decomp.summand_isomorphism does not apply: it needs dim y = dim leaf.
    """
    _check_compatible(leaf.module, y)
    if leaf.module.dim > y.dim:
        return None
    pair = leaf_pair(leaf, y)
    if pair is None:
        return None
    f, g = pair
    return f, y.field.matmul(linalg.invert(y.field, y.field.matmul(g, f)), g)


def basis_vector(algebra, i):
    """The i-th basis element of the algebra, as a vector."""
    v = algebra.field.zeros((algebra.dim,))
    v[i] = algebra.field.one
    return v


def is_commutative(algebra):
    return algebra.field.eq(algebra.table, algebra.table.transpose(1, 0, 2))


def trivial_action(algebra):
    """The trivial group C1 acting on the algebra by the identity."""
    return AlgebraAction(FiniteGroup([[0]], ["e"], label="C1"), algebra, [algebra.field.eye(algebra.dim)])


def pure_tensor(tr, u, v):
    """The image of u (x) v in the tensor product tr (a TensorResult)."""
    field = tr.module.field
    return field.matmul(tr.projection, field.kron(u, v))


def hom_tensor_over(m, n, label=None):
    """tensor_over through hom_space, nullspace, row_basis and complement_projection.

    The route linalg.quotient_projection replaced, kept verbatim: the
    balancing subspace is the annihilator of the canonical Hom basis, taken
    by a nullspace and reduced again before its complement is read.
    """
    if m.right_algebra is None or n.left_algebra is None:
        raise ValueError("tensor_over needs a right action on the left factor and a left action on the right factor")
    if not _same_algebra(m.right_algebra, n.left_algebra):
        raise ValueError("tensor_over: the shared algebra differs between factors")
    field = m.field
    dm, dn = m.dim, n.dim
    homs = hom_space(n.restrict_left(), dual_module(m.restrict_right()))
    flat = np.stack([h.reshape(-1) for h in homs]) if homs else field.zeros((0, dm * dn))
    balancing = linalg.row_basis(field, linalg.nullspace(field, flat).T)
    proj, sect = linalg.complement_projection(field, balancing, dm * dn)
    t, free = proj.shape[0], sect.nonzero()[0]
    p = proj.reshape(t, dm, dn)

    def induced(products):
        # (algebra dim, t, dm, dn) -> proj X sect for each basis element
        return products.reshape(products.shape[0], t, dm * dn)[:, :, free]

    # L_i^T P_k and P_k R_j, stacked by (i, k) and (j, k)
    lm = None if m.left_mats is None else induced(field.tensordot(m.left_mats, p, ([1], [1])).transpose(0, 2, 1, 3))
    rm = None if n.right_mats is None else induced(field.matmul(p, n.right_mats).transpose(2, 0, 1, 3))
    module = Module(
        m.left_algebra, n.right_algebra, lm, rm,
        label or f"{m.label} (x)_{m.right_algebra.label} {n.label}",
        check=False,
    )
    return TensorResult(module, proj, sect)


def mat(field, data):
    """data as a canonical matrix over field; a flat list is one row."""
    m = field.canon(data)
    return m.reshape(1, -1) if m.ndim == 1 else m


def inv(group, i):
    """The index of the inverse of group element i, read off the multiplication table."""
    return int(np.nonzero(group.multiplication_table[i] == group.identity_index)[0][0])


def end_algebra(view):
    """The full Algebra on the basis of a decomp.EndView, with its r x r x r table."""
    return Algebra(
        view.field,
        view.products(np.arange(view.dim)),
        view.unit,
        [f"f{i}" for i in range(view.dim)],
        radical_rows=view.radical_rows(),
        provenance=Provenance("endomorphism", {"module": view.module}),
        label=view.label,
        check=False,
    )
