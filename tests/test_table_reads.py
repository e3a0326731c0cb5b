"""The multiplication table read in two shapes, against the loops it replaced.

algebras.pair_products (the products of two element families) and the
regular stacks (left_regular_mats, right_regular_mats) replaced loops that
re-derived one of these shapes one element at a time, through mul,
left_mult_matrix, right_mult_matrix and basis_vector, in algebras, groups and
modules; the group law is read by index arrays. Each _old_* function below is
such a loop, kept verbatim as an oracle: the new code must return the same
arrays, entry types included, or raise the same type.

Inputs run over GF(2), GF(3), GF(7), GF(101) and Q, and include the
Kronecker and zigzag algebras in a random basis, where the table is dense and
noncommutative.
"""

import numpy as np
import pytest

from jorder import catalog, linalg
from jorder.algebras import (
    Algebra,
    Provenance,
    check_algebra_hom,
    subalgebra_from_rows,
)
from jorder.fields import GF, QQ
from jorder.groups import invariant_subalgebra, skew_group_algebra
from jorder.modules import (
    Module,
    direct_sum,
    hom_space,
    hom_to_regular,
    left_regular_module,
    regular_bimodule,
    right_regular_module,
    zero_module,
)
from jorder.witnesses import embedding_witness_pairs

from oracles import basis_vector, center, is_commutative
from test_algebras import conjugated_basis

FIELDS = [GF(2), GF(3), GF(7), GF(101), QQ]
ACTIONS = [("zigzag_c2", {}), ("lambda_rot", {"n": 2, "k": 2}), ("lambda_rot", {"n": 3, "k": 2}),
           ("lambda_rot", {"n": 2, "k": 3}), ("lambda_rot", {"n": 4, "k": 2})]


# ---- the replaced loops, verbatim ----------------------------------------------


def _old_center(algebra):
    field = algebra.field
    n = algebra.dim
    constraints = []
    for j in range(n):
        xj = basis_vector(algebra, j)
        constraints.append(field.sub(algebra.left_mult_matrix(xj), algebra.right_mult_matrix(xj)))
    stacked = field.canon(np.concatenate(constraints, axis=0))
    _, ker = linalg.rank_nullspace(field, stacked)
    return _old_subalgebra_from_rows(
        algebra,
        ker.T,
        label=f"Z({algebra.label})",
        provenance=Provenance("center", {"parent": algebra}),
    )


def _old_subalgebra_from_rows(algebra, rows, *, label=None, provenance=None):
    field = algebra.field
    basis = linalg.row_basis(field, field.canon(np.atleast_2d(rows)))
    m = basis.shape[0]
    unit_coords = linalg.coords_in_row_basis(field, basis, algebra.unit)
    if unit_coords is None:
        raise ValueError("subalgebra must contain the unit")
    prods = []
    for i in range(m):
        li = algebra.left_mult_matrix(basis[i])
        prods.append(field.matmul(basis, li.T))
    stacked = np.concatenate(prods, axis=0)
    coords = linalg.coords_in_row_basis(field, basis, stacked)
    if coords is None:
        raise ValueError("rows are not closed under multiplication")
    table = coords.reshape(m, m, m)
    sub = Algebra(
        field,
        table,
        unit_coords[0],
        [f"s{i}" for i in range(m)],
        provenance=provenance or Provenance("subalgebra", {"parent": algebra, "rows": basis}),
        label=label or f"{algebra.label}-sub",
        check=False,
    )
    sub.inclusion_rows = basis
    return sub


def _old_ideal_powers(algebra, base):
    field = algebra.field
    powers = []
    power = base
    for _ in range(algebra.dim + 1):
        if power.shape[0] == 0:
            return powers
        powers.append(power)
        tmp = field.tensordot(power, algebra.table, axes=([1], [0]))  # (r, j, k)
        prods = field.tensordot(base, tmp, axes=([1], [1])).reshape(-1, algebra.dim)
        power = linalg.row_basis(field, prods)
    return None


def _old_check_algebra_hom(source, target, phi):
    field = source.field
    phi = field.canon(np.asarray(phi))
    if phi.shape != (target.dim, source.dim):
        raise ValueError("homomorphism matrix has the wrong shape")
    if not field.eq(field.matmul(phi, source.unit), target.unit):
        raise ValueError("the map does not preserve the unit")
    images = field.tensordot(source.table, phi, axes=([2], [1]))  # (i, j, k)
    half = field.tensordot(phi, target.table, axes=([0], [0]))  # T_t(phi e_i, e_b)
    products = field.tensordot(phi, half, axes=([0], [1])).transpose(1, 0, 2)
    if not field.eq(images, products):
        raise ValueError("the map is not an algebra homomorphism")
    return phi


def _old_invariant_rows(act):
    a, field = act.algebra, act.algebra.field
    blocks = [
        field.sub(act.matrices[g], field.eye(a.dim))
        for g in range(act.group.order)
        if g != act.group.identity_index
    ]
    if blocks:
        ns = linalg.nullspace(field, field.canon(np.concatenate(blocks, axis=0)))
        rows = linalg.row_basis(field, ns.T)
    else:
        rows = field.eye(a.dim)
    return rows


def _old_skew_table(act):
    a, group, field = act.algebra, act.group, act.algebra.field
    d, n = a.dim, group.order
    dim = d * n
    table = field.zeros((dim, dim, dim))
    for g in range(n):
        image = act.matrices[g]  # columns are g(a_j)
        c = field.tensordot(a.table, image, axes=([1], [0])).transpose(0, 2, 1)
        m_g = field.zeros((n, n, n))
        for h in range(n):
            m_g[g, h, group.mul(g, h)] = field.one
        table = field.add(table, field.kron(c, m_g))
    return table


def _old_direct_sum_maps(mods):
    field = mods[0].field
    dims = [m.dim for m in mods]
    total = sum(dims)
    offsets = np.cumsum([0] + dims)
    incls, projs = [], []
    for k in range(len(mods)):
        s, e = offsets[k], offsets[k + 1]
        incl = field.zeros((total, dims[k]))
        proj = field.zeros((dims[k], total))
        for t in range(dims[k]):
            incl[s + t, t] = field.one
            proj[t, s + t] = field.one
        incls.append(incl)
        projs.append(proj)
    return incls, projs


def _old_hom_to_regular(m):
    if m.left_mats is None:
        raise ValueError("hom_to_regular expects a left action")
    a = m.left_algebra
    field = m.field
    reg = left_regular_module(a)
    homs = hom_space(m.restrict_left(), reg)
    t = len(homs)
    if t == 0:
        return zero_module(m.right_algebra, a), []
    flat = field.canon(np.stack([h.reshape(-1) for h in homs]))
    b = m.right_algebra

    def coords(mat_list):
        target = field.canon(np.stack([x.reshape(-1) for x in mat_list]))
        c = linalg.coords_in_row_basis(field, flat, target)
        if c is None:
            raise AssertionError("action escapes the span of the Hom basis")
        return c

    lm = None
    if b is not None:
        lm = field.zeros((b.dim, t, t))
        for j in range(b.dim):
            rb = m.right_mats[j]
            lm[j] = coords([field.matmul(h, rb) for h in homs]).T
    rm = field.zeros((a.dim, t, t))
    for i in range(a.dim):
        ra = a.right_mult_matrix(basis_vector(a, i))
        rm[i] = coords([field.matmul(ra, h) for h in homs]).T
    out = Module(b, a, lm, rm, f"Hom({m.label},{a.label})", check=False)
    return out, homs


# ---- comparison ------------------------------------------------------------------


def same_arrays(got, want):
    """Equal shapes, dtypes, entries and entry types; None only against None."""
    if want is None:
        return got is None
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)
        and [type(x) for x in got.flat] == [type(x) for x in want.flat]
    )


def same_lists(got, want):
    """Lists of equal arrays, by same_arrays; None only against None."""
    if want is None:
        return got is None
    return len(got) == len(want) and all(map(same_arrays, got, want))


def same_algebras(got, want):
    return (
        got.label == want.label and got.labels == want.labels
        and same_arrays(got.table, want.table) and same_arrays(got.unit, want.unit)
        and same_lists(got.idempotents, want.idempotents) and same_lists(got.generators, want.generators)
        and same_arrays(getattr(got, "inclusion_rows", None), getattr(want, "inclusion_rows", None))
    )


def same_modules(got, want):
    return (
        got.label == want.label and got.dim == want.dim
        and same_arrays(got.left_mats, want.left_mats) and same_arrays(got.right_mats, want.right_mats)
    )


def outcome(thunk):
    """(True, value), or (False, exception type) when the call raises."""
    try:
        return True, thunk()
    except Exception as exc:  # the oracle and the new code must raise alike
        return False, type(exc)


def assert_same_outcome(new, old, same):
    """Both calls return values that same accepts, or both raise the same type; True if they returned."""
    (returned, got), (old_returned, want) = outcome(new), outcome(old)
    assert returned == old_returned
    assert same(got, want) if returned else got is want
    return returned


def algebras(field):
    """Small algebras over the field: four quiver algebras and two in a random basis."""
    kron = catalog.build("kronecker", field=field)
    zz = catalog.build("zigzag_c2", field=field).algebra
    gen = np.random.default_rng(field.char + 17)
    return [
        kron, zz, catalog.build("A_n", field=field, n=3), catalog.build("trunc_poly", field=field, k=3),
        conjugated_basis(kron, gen), conjugated_basis(zz, gen),
    ]


def actions(field):
    return [catalog.build(entry, field=field, **params) for entry, params in ACTIONS]


field_params = pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)


# ---- algebras ----------------------------------------------------------------------


@field_params
class TestAlgebraReads:
    def test_center_matches_the_basis_loop(self, field):
        for a in algebras(field):
            assert same_algebras(center(a), _old_center(a)), a.label

    def test_subalgebra_tables_match(self, field):
        """Closed spans (the center, unit plus radical, the invariants), an
        unclosed one and one without the unit."""
        cases = []
        for a in algebras(field):
            cases += [
                (a, center(a).inclusion_rows),
                (a, np.concatenate([a.unit[None], a.radical_rows()])),
                (a, np.concatenate([a.unit[None], a.generators[-1][None]])),
                (a, a.generators[-1][None]),
            ]
        cases += [(act.algebra, invariant_subalgebra(act)[1]) for act in actions(field)]
        returned = [
            assert_same_outcome(
                lambda: subalgebra_from_rows(a, rows), lambda: _old_subalgebra_from_rows(a, rows), same_algebras,
            )
            for a, rows in cases
        ]
        assert any(returned) and not all(returned)

    def test_radical_powers_match(self, field):
        for a in algebras(field) + [act.algebra for act in actions(field)]:
            assert same_lists(a.radical_powers(), _old_ideal_powers(a, a.radical_rows())), a.label

    def test_check_algebra_hom_matches(self, field):
        """Identities, the automorphisms of every action, a change of basis,
        random maps and the identity into the opposite algebra."""
        gen = np.random.default_rng(5)
        cases = []
        for a in algebras(field):
            cases += [(a, a, field.eye(a.dim)), (a, a.opposite(), field.eye(a.dim))]
            cases += [(a, a, field.rand_mat(gen, a.dim, a.dim)) for _ in range(2)]
        for act in actions(field):
            cases += [(act.algebra, act.algebra, g) for g in act.matrices]
        kron = catalog.build("kronecker", field=field)
        conj = conjugated_basis(kron, np.random.default_rng(5))
        g = linalg.random_invertible(field, np.random.default_rng(5), kron.dim)  # the change of basis drawn there
        cases += [(conj, kron, g), (kron, conj, linalg.invert(field, g))]
        returned = [
            assert_same_outcome(
                lambda: check_algebra_hom(s, t, phi), lambda: _old_check_algebra_hom(s, t, phi), same_arrays,
            )
            for s, t, phi in cases
        ]
        assert sum(returned) >= len(actions(field)) + 2 and not all(returned)

    def test_identity_into_the_opposite_is_an_anti_homomorphism(self, field):
        """For a noncommutative A the identity A -> A^op reverses products, so
        it is no algebra map; for a commutative A it is one."""
        kron = catalog.build("kronecker", field=field)
        for a in (kron, conjugated_basis(kron, np.random.default_rng(3))):
            assert not is_commutative(a)
            with pytest.raises(ValueError, match="not an algebra homomorphism"):
                check_algebra_hom(a, a.opposite(), field.eye(a.dim))
        poly = catalog.build("trunc_poly", field=field, k=3)
        assert field.eq(check_algebra_hom(poly, poly.opposite(), field.eye(poly.dim)), field.eye(poly.dim))


# ---- groups -----------------------------------------------------------------------


@field_params
class TestGroupReads:
    def test_invariants_match(self, field):
        for act in actions(field):
            sub, rows = invariant_subalgebra(act)
            want = _old_subalgebra_from_rows(
                act.algebra, _old_invariant_rows(act),
                label=f"{act.algebra.label}^{act.group.label}", provenance=Provenance("invariants", {}),
            )
            assert same_algebras(sub, want) and same_arrays(rows, want.inclusion_rows)

    def test_skew_group_algebra_matches(self, field):
        for act in actions(field)[:4]:  # the order-4 rotation's skew algebra, dimension 32, is slow over Q
            skew, _ = skew_group_algebra(act)
            assert same_arrays(skew.table, _old_skew_table(act)), act.group.label


# ---- modules ----------------------------------------------------------------------


def hom_cases(field):
    """Regular bimodules, a left regular module, the Kronecker witness's M and
    N, and both bimodules of the embedding of the invariants of three actions."""
    algs = algebras(field)
    mods = [regular_bimodule(a) for a in algs] + [left_regular_module(algs[4])]
    w = catalog.build("kronecker_witness", field=field)
    mods += [w.m, w.n]
    for act in actions(field)[:3]:
        sub, rows = invariant_subalgebra(act)
        for pair in embedding_witness_pairs(sub, act.algebra, rows=rows):
            mods += [pair.m, pair.n]
    return mods


@field_params
class TestModuleReads:
    def test_hom_to_regular_matches(self, field):
        for m in hom_cases(field):
            (got, got_homs), (want, want_homs) = hom_to_regular(m), _old_hom_to_regular(m)
            assert same_modules(got, want) and same_lists(got_homs, want_homs), m.label

    def test_direct_sum_maps_match(self, field):
        a = algebras(field)[4]
        for mods in ([regular_bimodule(a)] * 2, [right_regular_module(a), zero_module(None, a), right_regular_module(a)]):
            _, incls, projs = direct_sum(mods)
            want_incls, want_projs = _old_direct_sum_maps(mods)
            assert same_lists(incls, want_incls) and same_lists(projs, want_projs)
