"""Group actions: invariants, isotypic pieces, skew products, quiver freeness.

Fixture actions are the involution swapping the two branches of the zigzag
algebra and the rotation of a truncated cycle algebra; expected dimensions
and component bases are derived by hand next to each assertion.
"""

import itertools

import numpy as np
import pytest

from jorder import linalg
from jorder.algebras import Algebra, algebra_from_quiver
from jorder.decomp import complete_primitive_idempotents
from jorder.errors import (
    BadCharacteristic,
    InvalidInput,
    NonAbelianGroup,
    NotQuiverCompatible,
    RootsOfUnityUnavailable,
)
from jorder.fields import GF, QQ
from jorder.groups import (
    AlgebraAction,
    FiniteGroup,
    group_algebra,
    invariant_subalgebra,
    isotypic_decomposition,
    skew_group_algebra,
    verify_free_quiver_action,
)
from jorder.quivers import parse_presentation
from jorder.serialize import parse_action_text

from fingerprints import fingerprint


def parse_action(text, algebra, **kwargs):
    """Read an action file whose algebra line names the given algebra."""
    return parse_action_text(text, lambda ref: algebra, **kwargs)


def qp(text):
    field, pres = parse_presentation(text)
    return field, pres


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
        assert g.inv(1) == 3
        assert g.element_order(1) == 4
        assert g.element_order(2) == 2
        assert g.is_abelian()

    def test_s3_is_a_group_but_not_abelian(self):
        g = FiniteGroup(s3_table())
        assert g.order == 6
        assert not g.is_abelian()

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
        bad = f.mat([[1, 1], [0, 1]])  # x -> 1 + x does not fix x*x = 0
        from jorder.errors import NotAutomorphism

        with pytest.raises(NotAutomorphism):
            AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(2), bad])

    def test_composition_must_follow_group_law(self):
        a = qa(DUAL.format(f="GF(7)"))
        f = a.field
        scale3 = f.mat([[1, 0], [0, 3]])  # order 6 automorphism, not order 2
        with pytest.raises(ValueError, match="compose"):
            AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(2), scale3])


class TestInvariants:
    def test_trivial_group_gives_everything(self):
        a = qa(ZIGZAG.format(f="GF(7)"))
        sub, incl = invariant_subalgebra(AlgebraAction.trivial(a))
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
        assert sub.is_commutative()


class TestIsotypic:
    def test_trivial_group_single_component(self):
        a = qa(ZIGZAG.format(f="GF(7)"))
        comps = isotypic_decomposition(AlgebraAction.trivial(a))
        assert len(comps) == 1
        chi, rows = comps[0]
        assert chi == (a.field.one,)
        assert rows.shape[0] == a.dim

    def test_zigzag_components_frozen(self):
        a, act = zigzag_swap_action("GF(7)")
        comps = isotypic_decomposition(act)
        assert [rows.shape[0] for _, rows in comps] == [2, 2]
        f = a.field
        idx = {lab: i for i, lab in enumerate(a.labels)}
        sign = [rows for chi, rows in comps if chi[1] != f.one][0]
        diff_e = f.zeros(4)
        diff_e[idx["e_1"]] = f.one
        diff_e[idx["e_2"]] = f.scalar(-1)
        diff_ab = f.zeros(4)
        diff_ab[idx["a"]] = f.one
        diff_ab[idx["b"]] = f.scalar(-1)
        assert linalg.coords_in_row_basis(f, sign, diff_e) is not None
        assert linalg.coords_in_row_basis(f, sign, diff_ab) is not None

    def test_rotation_components_frozen(self):
        a, act = rotation_action("GF(7)", 3, 2)
        comps = isotypic_decomposition(act)
        assert [rows.shape[0] for _, rows in comps] == [2, 2, 2]
        chars = [chi[1] for chi, _ in comps]
        assert sorted(int(c) for c in chars) == [1, 2, 4]  # cube roots of 1 mod 7

    def test_components_multiply_along_characters(self):
        a, act = rotation_action("GF(7)", 3, 2)
        comps = isotypic_decomposition(act)
        f = a.field
        lookup = {chi: rows for chi, rows in comps}
        for chi1, rows1 in comps:
            for chi2, rows2 in comps:
                target = tuple(f.scalar(c1 * c2) for c1, c2 in zip(chi1, chi2))
                for r1 in rows1:
                    for r2 in rows2:
                        prod = a.mul(r1, r2)
                        if target in lookup:
                            assert linalg.coords_in_row_basis(f, lookup[target], prod) is not None
                        else:
                            assert f.is_zero(prod)

    def test_missing_roots_of_unity(self):
        _, act = rotation_action("GF(5)", 3, 2)  # 3 does not divide 5 - 1
        with pytest.raises(RootsOfUnityUnavailable):
            isotypic_decomposition(act)

    def test_bad_characteristic(self):
        _, act = zigzag_swap_action("GF(2)")
        with pytest.raises(BadCharacteristic):
            isotypic_decomposition(act)

    def test_nonabelian_rejected(self):
        table = s3_table()
        g = FiniteGroup(table)
        f = GF(7)
        one = Algebra(f, f.zeros((1, 1, 1)) + f.one, [1], label="k")
        act = AlgebraAction(g, one, [f.eye(1)] * 6)
        with pytest.raises(NonAbelianGroup):
            isotypic_decomposition(act)

    def test_rationals_handle_order_two_only(self):
        a, act = zigzag_swap_action("QQ")
        comps = isotypic_decomposition(act)
        assert [rows.shape[0] for _, rows in comps] == [2, 2]
        _, act3 = rotation_action("QQ", 3, 2)
        with pytest.raises(RootsOfUnityUnavailable):
            isotypic_decomposition(act3)


class TestSkew:
    def test_trivial_group_reproduces_algebra(self):
        a = qa(ZIGZAG.format(f="GF(7)"))
        skew, emb = skew_group_algebra(AlgebraAction.trivial(a))
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


class TestFreeQuiverAction:
    def test_trivial_action_is_vacuously_free(self):
        field, pres = qp(ZIGZAG.format(f="GF(7)"))
        a = algebra_from_quiver(pres, field)
        assert verify_free_quiver_action(AlgebraAction.trivial(a), pres)

    def test_rotation_is_free(self):
        field, pres = qp(truncated_cycle_text("GF(7)", 3, 2))
        a = algebra_from_quiver(pres, field)
        f = a.field
        idx = {lab: i for i, lab in enumerate(a.labels)}
        mapping = {}
        for i in range(1, 4):
            mapping[idx[f"e_{i}"]] = idx[f"e_{i % 3 + 1}"]
            mapping[idx[f"a{i}"]] = idx[f"a{i % 3 + 1}"]
        r = perm_matrix(f, a.dim, mapping)
        act = AlgebraAction(FiniteGroup.cyclic(3), a, [f.eye(6), r, f.canon(f.matmul(r, r))])
        assert verify_free_quiver_action(act, pres)

    def test_fixed_vertex_is_not_free(self):
        field, pres = qp(DUAL.format(f="GF(7)"))
        a = algebra_from_quiver(pres, field)
        f = a.field
        c = f.eye(2)
        c[1, 1] = f.scalar(-1)
        act = AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(2), c])
        assert not verify_free_quiver_action(act, pres)

    def test_zigzag_swap_is_free(self):
        field, pres = qp(ZIGZAG.format(f="GF(7)"))
        a = algebra_from_quiver(pres, field)
        f = a.field
        idx = {lab: i for i, lab in enumerate(a.labels)}
        swap = perm_matrix(f, 4, {idx["e_1"]: idx["e_2"], idx["e_2"]: idx["e_1"],
                                  idx["a"]: idx["b"], idx["b"]: idx["a"]})
        act = AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(4), swap])
        assert verify_free_quiver_action(act, pres)

    def test_non_permuting_automorphism_rejected(self):
        text = "field GF(2)\nvertex 1\narrow x: 1 -> 1\nrelation x*x*x\n"
        field, pres = qp(text)
        a = algebra_from_quiver(pres, field)
        f = a.field
        idx = {lab: i for i, lab in enumerate(a.labels)}
        m = f.eye(3)
        m[idx["x*x"], idx["x"]] = f.one  # x -> x + x^2 preserves x^3 = 0
        act = AlgebraAction(FiniteGroup.cyclic(2), a, [f.eye(3), m])
        with pytest.raises(NotQuiverCompatible):
            verify_free_quiver_action(act, pres)

    def test_wrong_presentation_rejected(self):
        field, pres = qp(ZIGZAG.format(f="GF(7)"))
        a = algebra_from_quiver(pres, field)
        _, other = qp(ZIGZAG.format(f="GF(7)"))
        with pytest.raises(NotQuiverCompatible):
            verify_free_quiver_action(AlgebraAction.trivial(a), other)


class TestActionFiles:
    def test_reference_extraction(self):
        a = qa(truncated_cycle_text("GF(7)", 3, 2))
        text = "# rotation\nalgebra catalog:lambda(3,2)\nauto r: e_1 -> e_2, e_2 -> e_3, e_3 -> e_1, a1 -> a2, a2 -> a3, a3 -> a1\n"
        refs = []
        act = parse_action_text(text, lambda ref: refs.append(ref) or a)
        assert refs == ["catalog:lambda(3,2)"] and act.source_ref == refs[0]
        with pytest.raises(InvalidInput):
            parse_action("auto r: e_1 -> e_2\n", a)

    def test_zigzag_swap_file(self):
        a = qa(ZIGZAG.format(f="GF(7)"))
        text = (
            "algebra zigzag\n"
            "auto c: e_1 -> e_2, e_2 -> e_1, a -> b, b -> a\n"
        )
        act = parse_action(text, a)
        assert act.group.order == 2
        sub, _ = invariant_subalgebra(act)
        assert sub.dim == 2

    def test_scaling_generator_with_coefficients(self):
        a = qa(DUAL.format(f="GF(7)"))
        act = parse_action("algebra dual\nauto c: x -> -x\n", a)
        assert act.group.order == 2
        act6 = parse_action("algebra dual\nauto c: x -> 3 x\n", a)
        assert act6.group.order == 6  # 3 has order 6 mod 7

    def test_two_generators(self):
        a = qa(truncated_cycle_text("GF(7)", 2, 2))
        text = (
            "algebra lam22\n"
            "auto r: e_1 -> e_2, e_2 -> e_1, a1 -> a2, a2 -> a1\n"
            "auto s: a1 -> -a1, a2 -> -a2\n"
        )
        act = parse_action(text, a)
        assert act.group.order == 4  # commuting involutions: the Klein group
        one_sided = (
            "algebra lam22\n"
            "auto r: e_1 -> e_2, e_2 -> e_1, a1 -> a2, a2 -> a1\n"
            "auto s: a1 -> -a1, a2 -> a2\n"
        )
        act8 = parse_action(one_sided, a)
        assert act8.group.order == 8  # r s r != s: closure finds the larger group
        assert not act8.group.is_abelian()

    def test_errors(self):
        a = qa(DUAL.format(f="GF(7)"))
        with pytest.raises(InvalidInput, match="algebra"):
            parse_action("auto c: x -> -x\n", a)
        with pytest.raises(InvalidInput, match="unknown basis label"):
            parse_action("algebra d\nauto c: y -> x\n", a)
        with pytest.raises(InvalidInput, match="duplicate image"):
            parse_action("algebra d\nauto c: x -> -x, x -> x\n", a)
        with pytest.raises(InvalidInput, match="generators"):
            parse_action("algebra d\n", a)
        with pytest.raises(InvalidInput, match="cap"):
            parse_action("algebra d\nauto c: x -> 2 x\n", qa(DUAL.format(f="QQ")), order_cap=8)

    def test_group_algebra_helper(self):
        kg = group_algebra(FiniteGroup.cyclic(3), GF(2))
        assert kg.dim == 3
        assert kg.is_commutative()
        assert kg.radical_rows().shape[0] == 0
        kg3 = group_algebra(FiniteGroup.cyclic(3), GF(3))
        assert kg3.loewy_layer_dims() == [3, 2, 1, 0]
