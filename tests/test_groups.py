"""Group actions: invariants and skew products.

Fixture actions are the involution swapping the two branches of the zigzag
algebra and the rotation of a truncated cycle algebra; expected dimensions
and bases are derived by hand next to each assertion.
"""

import itertools

import numpy as np
import pytest

from jorder import linalg
from jorder.algebras import algebra_from_quiver
from jorder.decomp import complete_primitive_idempotents
from jorder.groups import AlgebraAction, FiniteGroup, invariant_subalgebra, skew_group_algebra
from jorder.quivers import parse_presentation

from fingerprints import fingerprint
from oracles import inv, is_commutative, mat, trivial_action


def qa(text):
    field, pres = parse_presentation(text)
    return algebra_from_quiver(pres, field)


ZIGZAG = (
    "field {f}\nvertex 1\nvertex 2\n"
    "arrow a: 1 -> 2\narrow b: 2 -> 1\nrelation a*b\nrelation b*a\n"
)

DUAL = "field {f}\nvertex 1\narrow x: 1 -> 1\nrelation x*x\n"


def truncated_cycle_text(f, n, k):
    lines = [f"field {f}"]
    lines += [f"vertex {i}" for i in range(1, n + 1)]
    lines += [f"arrow a{i}: {i} -> {i % n + 1}" for i in range(1, n + 1)]
    for v in range(1, n + 1):
        lines.append("relation " + "*".join(f"a{(v - 1 + t) % n + 1}" for t in range(k)))
    return "\n".join(lines)


def perm_matrix(field, dim, mapping):
    m = field.zeros((dim, dim))
    for src, dst in mapping.items():
        m[dst, src] = field.one
    return m


def zigzag_swap_action(field_name):
    a = qa(ZIGZAG.format(f=field_name))
    f = a.field
    idx = {lab: i for i, lab in enumerate(a.labels)}
    swap = perm_matrix(f, 4, {idx["e_1"]: idx["e_2"], idx["e_2"]: idx["e_1"],
                              idx["a"]: idx["b"], idx["b"]: idx["a"]})
    return a, AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(4), swap])


def rotation_action(field_name, n, k):
    a = qa(truncated_cycle_text(field_name, n, k))
    f = a.field
    idx = {lab: i for i, lab in enumerate(a.labels)}
    mapping = {}
    for i in range(1, n + 1):
        mapping[idx[f"e_{i}"]] = idx[f"e_{i % n + 1}"]
        mapping[idx[f"a{i}"]] = idx[f"a{i % n + 1}"]
    for lab, i in idx.items():
        if i not in mapping:
            # longer paths a_i * a_{i+1} * ...: rotate every factor
            parts = lab.split("*")
            image = "*".join(f"a{int(p[1:]) % n + 1}" for p in parts)
            mapping[i] = idx[image]
    r = perm_matrix(f, a.dim, mapping)
    mats = [f.eye(a.dim)]
    for _ in range(n - 1):
        mats.append(f.canon(f.matmul(r, mats[-1])))
    return a, AlgebraAction(FiniteGroup.cyclic(n), a, mats)


def s3_table():
    perms = sorted(itertools.permutations(range(3)))
    table = np.zeros((6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = perms.index(tuple(p[q[t]] for t in range(3)))
    return table


class TestFiniteGroup:
    def test_cyclic(self):
        g = FiniteGroup.cyclic(4)
        assert g.order == 4
        assert g.identity_index == 0
        assert inv(g, 1) == 3

    def test_s3_is_a_group_but_not_abelian(self):
        g = FiniteGroup(s3_table())
        assert g.order == 6
        assert not (g.multiplication_table == g.multiplication_table.T).all()

    def test_broken_tables_rejected(self):
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
        with pytest.raises(ValueError, match="invertible"):
            FiniteGroup([[0, 1], [1, 1]])  # associative max-semigroup, 1 has no inverse
        with pytest.raises(ValueError, match="identity"):
            FiniteGroup([[0, 0], [0, 0]])  # constant product: associative, no unit
        assert FiniteGroup([[1, 0], [0, 1]]).identity_index == 1
        with pytest.raises(ValueError, match="indices"):
            FiniteGroup([[0, 2], [2, 0]])

    def test_order_cap(self):
        with pytest.raises(ValueError, match="order"):
            FiniteGroup.cyclic(65)


class TestAlgebraAction:
    def test_zigzag_swap_validates(self):
        _, act = zigzag_swap_action("GF(7)")
        assert act.group.order == 2

    def test_identity_must_act_trivially(self):
        a = qa(ZIGZAG.format(f="GF(7)"))
        f = a.field
        idx = {lab: i for i, lab in enumerate(a.labels)}
        swap = perm_matrix(f, 4, {idx["e_1"]: idx["e_2"], idx["e_2"]: idx["e_1"],
                                  idx["a"]: idx["b"], idx["b"]: idx["a"]})
        with pytest.raises(ValueError, match="identity"):
            AlgebraAction(FiniteGroup.cyclic(2), a, [swap, f.eye(4)])

    def test_non_automorphism_rejected(self):
        a = qa(DUAL.format(f="GF(7)"))
        f = a.field
        bad = mat(f, [[1, 1], [0, 1]])  # x -> 1 + x does not fix x*x = 0
        from jorder.errors import NotAutomorphism

        with pytest.raises(NotAutomorphism):
            AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(2), bad])

    def test_composition_must_follow_group_law(self):
        a = qa(DUAL.format(f="GF(7)"))
        f = a.field
        scale3 = mat(f, [[1, 0], [0, 3]])  # order 6 automorphism, not order 2
        with pytest.raises(ValueError, match="compose"):
            AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(2), scale3])


class TestInvariants:
    def test_trivial_group_gives_everything(self):
        a = qa(ZIGZAG.format(f="GF(7)"))
        sub, incl = invariant_subalgebra(trivial_action(a))
        assert sub.dim == a.dim
        assert a.field.eq(incl, a.field.eye(a.dim))

    def test_zigzag_swap_invariants_are_dual_numbers(self):
        a, act = zigzag_swap_action("GF(7)")
        sub, incl = invariant_subalgebra(act)
        assert sub.dim == 2
        f = a.field
        # fixed space is spanned by 1 = e_1 + e_2 and a + b
        unit_row = np.asarray(a.unit).reshape(1, -1)
        idx = {lab: i for i, lab in enumerate(a.labels)}
        ab = f.zeros((1, 4))
        ab[0, idx["a"]] = f.one
        ab[0, idx["b"]] = f.one
        for v in (unit_row, ab):
            assert linalg.coords_in_row_basis(f, incl, v) is not None
        dual = qa(DUAL.format(f="GF(7)"))
        assert fingerprint(sub) == fingerprint(dual)

    def test_rotation_invariants_are_truncated_polynomials(self):
        a, act = rotation_action("GF(7)", 3, 2)
        sub, incl = invariant_subalgebra(act)
        assert sub.dim == 2  # Burnside: 6 basis paths / 3 rotations
        assert sub.loewy_layer_dims() == [2, 1, 0]
        s0, s1 = incl  # canonical rows: all-vertices sum, all-arrows sum
        coords1 = linalg.coords_in_row_basis(a.field, incl, a.mul(s1, s1).reshape(1, -1))
        assert coords1 is not None and a.field.is_zero(coords1)

    def test_rotation_invariants_deeper_cycle(self):
        a, act = rotation_action("GF(7)", 3, 3)
        sub, _ = invariant_subalgebra(act)
        assert sub.dim == 3
        assert sub.loewy_layer_dims() == [3, 2, 1, 0]
        assert is_commutative(sub)

    # GF(2) and GF(3) divide the orders of the swap and the rotation, where
    # invariant_subalgebra skips its radical cross-check
    @pytest.mark.parametrize("field_name", ["GF(2)", "GF(3)", "GF(101)", "Q"])
    def test_invariants_are_the_orbit_sums(self, field_name):
        for a, act in (zigzag_swap_action(field_name), rotation_action(field_name, 3, 2)):
            f = a.field
            orbits = {
                frozenset(int(np.flatnonzero(np.asarray(m[:, i]) != 0)[0]) for m in act.matrices)
                for i in range(a.dim)
            }
            sums = f.zeros((len(orbits), a.dim))
            for r, orbit in enumerate(orbits):
                sums[r, sorted(orbit)] = f.one
            sub, incl = invariant_subalgebra(act)
            assert sub.dim == len(orbits)
            assert f.eq(incl, linalg.row_basis(f, sums))

    @pytest.mark.parametrize("field_name", ["GF(2)", "GF(3)", "GF(101)", "Q"])
    def test_zigzag_swap_invariants_are_dual_numbers_over_every_field(self, field_name):
        _, act = zigzag_swap_action(field_name)
        sub, _ = invariant_subalgebra(act)
        assert fingerprint(sub) == fingerprint(qa(DUAL.format(f=field_name)))


class TestSkew:
    def test_trivial_group_reproduces_algebra(self):
        a = qa(ZIGZAG.format(f="GF(7)"))
        skew, emb = skew_group_algebra(trivial_action(a))
        assert skew.dim == a.dim
        assert fingerprint(skew) == fingerprint(a)

    def test_embedding_is_an_algebra_map(self):
        a, act = zigzag_swap_action("GF(7)")
        skew, emb = skew_group_algebra(act)
        f = a.field
        assert skew.dim == 8
        assert f.eq(f.matmul(emb.T, a.unit), skew.unit)
        for i in range(a.dim):
            for j in range(a.dim):
                x, y = f.eye(a.dim)[i], f.eye(a.dim)[j]
                lhs = skew.mul(f.matmul(emb.T, x), f.matmul(emb.T, y))
                rhs = f.matmul(emb.T, a.mul(x, y))
                assert f.eq(lhs, f.canon(rhs))

    def test_paper_fingerprint_match(self):
        # k[x]/(x^2) * C2 with c.x = -x matches the two-vertex truncated cycle
        a = qa(DUAL.format(f="GF(7)"))
        f = a.field
        idx = a.labels.index("x")
        c = f.eye(2)
        c[idx, idx] = f.scalar(-1)
        act = AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(2), c])
        skew, _ = skew_group_algebra(act)
        assert skew.dim == 4
        assert skew.radical_rows().shape[0] == 2
        assert skew.loewy_length() == 2
        assert len(complete_primitive_idempotents(skew)) == 2
        lam = qa(truncated_cycle_text("GF(7)", 2, 2))
        assert fingerprint(skew) == fingerprint(lam)

    def test_loewy_length_preserved_when_order_invertible(self):
        a, act = rotation_action("GF(7)", 3, 3)
        skew, _ = skew_group_algebra(act)
        assert skew.dim == 27
        assert skew.loewy_length() == a.loewy_length() == 3
        assert skew.radical_rows().shape[0] == a.radical_rows().shape[0] * 3

    def test_modular_skew_uses_generic_radical(self):
        # char 2 with C2: x tensor both group elements plus 1 tensor (e + c)
        a = qa(DUAL.format(f="GF(2)"))
        f = a.field
        act = AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(2), f.eye(2)])
        skew, _ = skew_group_algebra(act)
        assert skew.dim == 4
        assert skew.radical_rows().shape[0] == 3
        assert skew.loewy_layer_dims() == [4, 3, 1, 0]

    def test_modular_swap_skew(self):
        a, act = zigzag_swap_action("GF(2)")
        skew, _ = skew_group_algebra(act)
        assert skew.dim == 8
        # (A/J) * C2 for the swap is a full 2x2 matrix algebra: still semisimple,
        # so the radical is J tensor kG despite the bad characteristic
        assert skew.radical_rows().shape[0] == 4
