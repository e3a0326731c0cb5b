"""Module and bimodule operations: actions, hom, tensor, dual, projectives.

Expected dimensions are derived by hand from path combinatorics of the small
quiver algebras used as fixtures; every derived number is stated next to its
assertion.
"""

import functools

import numpy as np
import pytest

from jorder import catalog, linalg, modules
from jorder.algebras import Algebra
from jorder.errors import NonSplitResidueField, NotAutomorphism
from jorder.fields import GF, QQ
from jorder.groups import AlgebraAction, FiniteGroup, invariant_subalgebra, skew_group_algebra
from jorder.modules import (
    _compatible,
    _quotient,
    _same_algebra,
    Module,
    TensorResult,
    direct_sum,
    dual_module,
    hom_space,
    hom_to_regular,
    intertwines,
    is_left_right_projective,
    is_module_map,
    is_projective,
    is_self_injective,
    left_annihilator_rows,
    left_regular_module,
    module_over_opposite,
    outer_tensor,
    projective_cover,
    projective_indecomposables,
    radical_sub_rows,
    random_left_module,
    regular_bimodule,
    right_regular_module,
    simple_modules,
    submodule,
    tensor_over,
    top_of,
    twist_left,
    twist_right,
    zero_module,
)
from jorder.quivers import parse_presentation
from jorder.algebras import algebra_from_quiver, subalgebra_from_rows
from jorder.witnesses import (
    bimodule_as_env_module,
    embedding_witness_pairs,
    env_module_as_bimodule,
    transport_opposite,
)

from oracles import (
    basis_vector,
    group_algebra,
    hom_tensor_over,
    linear_quiver_algebra,
    mat,
    pure_tensor,
    quotient_module,
)


def qa(text):
    field, pres = parse_presentation(text)
    return algebra_from_quiver(pres, field)


def dual_numbers(field_name="GF(5)"):
    return qa(f"field {field_name}\nvertex 1\narrow x: 1 -> 1\nrelation x*x\n")


def zigzag(field_name="GF(5)"):
    return qa(
        f"field {field_name}\nvertex 1\nvertex 2\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 1\nrelation a*b\nrelation b*a\n"
    )


def truncated_cycle(field_name, n, k):
    lines = [f"field {field_name}"]
    lines += [f"vertex {i}" for i in range(1, n + 1)]
    lines += [f"arrow a{i}: {i} -> {i % n + 1}" for i in range(1, n + 1)]
    for v in range(1, n + 1):
        lines.append("relation " + "*".join(f"a{(v - 1 + t) % n + 1}" for t in range(k)))
    return qa("\n".join(lines))


@pytest.fixture(scope="module")
def a2():
    return linear_quiver_algebra(GF(5), 2)


class TestActionsAndValidation:
    def test_regular_bimodule_validates(self, a2):
        m = regular_bimodule(a2)
        Module(a2, a2, m.left_mats, m.right_mats, check=True)

    def test_regular_actions_are_multiplication(self, a2):
        m = regular_bimodule(a2)
        gen = np.random.Generator(np.random.PCG64(3))
        for _ in range(5):
            a = a2.field.rand_mat(gen, 1, a2.dim).reshape(-1)
            x = a2.field.rand_mat(gen, 1, a2.dim).reshape(-1)
            assert a2.field.eq(a2.field.matmul(m.left_action(a), x), a2.mul(a, x))
            assert a2.field.eq(a2.field.matmul(m.right_action(a), x), a2.mul(x, a))

    def test_broken_left_action_rejected(self, a2):
        m = regular_bimodule(a2)
        bad = a2.field.copy(m.left_mats)
        i_a1 = a2.labels.index("a1")
        bad[i_a1] = a2.field.eye(a2.dim)  # the radical generator cannot act invertibly
        with pytest.raises(ValueError, match="multiplicative|unit"):
            Module(a2, None, bad, None, check=True)

    def test_noncommuting_sides_rejected(self, a2):
        m = regular_bimodule(a2)
        # swap one right matrix for a left one: sides then fail to commute
        bad = a2.field.copy(m.right_mats)
        i_a1 = a2.labels.index("a1")
        bad[i_a1] = m.left_mats[i_a1]
        with pytest.raises(ValueError):
            Module(a2, a2, m.left_mats, bad, check=True)

    def test_zero_module(self, a2):
        z = zero_module(a2, a2)
        assert z.dim == 0
        assert hom_space(z, regular_bimodule(a2)) == []
        assert is_projective(zero_module(a2, None))


class TestSubQuotientTop:
    def test_projective_indecomposables_of_a2(self, a2):
        # A e_1 has basis {e_1, a1}; A e_2 has basis {e_2}
        projs = projective_indecomposables(a2)
        assert [p.dim for p, _, _ in projs] == [2, 1]

    def test_top_and_radical_series_match_algebra_loewy(self):
        def radical_series_dims(m):
            """[dim M, dim rad M, dim rad^2 M, ...] down to 0, each layer the radical of the last."""
            dims = [m.dim]
            while m.dim:
                m, _ = submodule(m, radical_sub_rows(m))
                dims.append(m.dim)
            return dims

        lam = truncated_cycle("GF(7)", 3, 3)
        reg = regular_bimodule(lam)
        assert radical_series_dims(reg) == lam.loewy_layer_dims() == [9, 6, 3, 0]
        left = left_regular_module(lam)
        assert radical_series_dims(left) == [9, 6, 3, 0]
        top, _ = top_of(left)
        assert top.dim == 3

    def test_submodule_closure(self, a2):
        reg = left_regular_module(a2)
        i_e1 = a2.labels.index("e_1")
        seed = np.asarray(basis_vector(a2, i_e1)).reshape(1, -1)
        sub, incl = submodule(reg, a2.field.canon(seed))
        # A.e_1 = span{e_1, a1}
        assert sub.dim == 2
        assert incl.shape == (3, 2)

    def test_quotient_requires_stability(self, a2):
        reg = left_regular_module(a2)
        i_e1 = a2.labels.index("e_1")
        rows = np.asarray(basis_vector(a2, i_e1)).reshape(1, -1)
        with pytest.raises(ValueError, match="stable"):
            quotient_module(reg, a2.field.canon(rows))


class TestHom:
    def test_hom_between_projectives_counts_paths(self, a2):
        projs = projective_indecomposables(a2)
        p1, p2 = projs[0][0], projs[1][0]
        # Hom(Ae_i, Ae_j) = e_i A e_j: one path 1 -> 2, none backwards
        assert len(hom_space(p1, p1)) == 1
        assert len(hom_space(p2, p2)) == 1
        assert len(hom_space(p2, p1)) == 1
        assert len(hom_space(p1, p2)) == 0

    def test_hom_from_projective_is_idempotent_slice(self):
        lam = truncated_cycle("GF(7)", 3, 2)
        projs = projective_indecomposables(lam)
        gen = np.random.Generator(np.random.PCG64(11))
        m = random_left_module(lam, gen)
        for (p, _, e) in projs:
            slice_dim = linalg.rank(lam.field, m.left_action(e))
            assert len(hom_space(p, m)) == slice_dim

    def test_hom_maps_commute_with_action(self, a2):
        projs = projective_indecomposables(a2)
        p1 = projs[0][0]
        reg = left_regular_module(a2)
        for f in hom_space(p1, reg):
            for g in a2.generators:
                lhs = a2.field.matmul(reg.left_action(g), f)
                rhs = a2.field.matmul(f, p1.left_action(g))
                assert a2.field.eq(lhs, rhs)

    def test_hom_is_deterministic(self, a2):
        p1 = projective_indecomposables(a2)[0][0]
        reg = left_regular_module(a2)
        h1 = hom_space(p1, reg)
        h2 = hom_space(p1, reg)
        assert len(h1) == len(h2)
        for f, g in zip(h1, h2):
            assert a2.field.eq(f, g)


class TestTensor:
    def test_unit_isomorphism_for_regular(self, a2):
        reg = regular_bimodule(a2)
        res = tensor_over(reg, reg)
        assert res.module.dim == a2.dim
        # x -> 1 (x) x is the inverse of multiplication
        s = a2.field.zeros((res.module.dim, a2.dim))
        for j in range(a2.dim):
            s[:, j] = pure_tensor(res, a2.unit, basis_vector(a2, j))
        assert linalg.rank(a2.field, s) == a2.dim
        for g in a2.generators:
            lhs = a2.field.matmul(res.module.left_action(g), s)
            rhs = a2.field.matmul(s, reg.left_action(g))
            assert a2.field.eq(lhs, rhs)

    def test_tensor_with_projective_factor(self, a2):
        reg = regular_bimodule(a2)
        p1 = projective_indecomposables(a2)[0][0]
        res = tensor_over(reg, p1)
        assert res.module.dim == p1.dim
        assert res.module.sidedness() == "left"

    def test_tensor_over_subalgebra_counts(self, a2):
        # S = span{1, a1} inside kA2; A_S = S + k, so A (x)_S A has dim 5
        rows = np.stack([np.asarray(a2.unit), np.asarray(basis_vector(a2, a2.labels.index("a1")))])
        s = subalgebra_from_rows(a2, a2.field.canon(rows))
        incl = s.inclusion_rows
        right_mats = a2.field.canon(
            np.stack([a2.right_mult_matrix(incl[j]) for j in range(s.dim)])
        )
        left_mats = a2.field.canon(
            np.stack([a2.left_mult_matrix(incl[j]) for j in range(s.dim)])
        )
        m = Module(a2, s, a2.left_regular_mats(), right_mats, "A as (A,S)", check=True)
        n = Module(s, a2, left_mats, a2.right_regular_mats(), "A as (S,A)", check=True)
        res = tensor_over(m, n)
        assert res.module.dim == 5
        assert res.module.sidedness() == "bimodule"
        assert not res.module.field.is_zero(pure_tensor(res, a2.unit, a2.unit))

    def test_pure_tensor_is_exact_near_the_prime_cap(self):
        # x -> c x twists k[x]/x^12 on the right; x^i (x) x^j then sits at
        # c^j x^(i+j) (x) 1, so the projection's last row sums to 8.8 p, and
        # that row against unreduced products (p - 1)^2 leaves the int64 range
        field = GF(1048573)
        a = catalog.build("trunc_poly", field=field, k=12)
        twist = field.canon(np.diag([pow(5414, i, field.p) for i in range(a.dim)]))
        res = tensor_over(twist_right(regular_bimodule(a), twist), regular_bimodule(a))
        top = np.full(a.dim, field.p - 1, dtype=np.int64)
        exact = [sum(map(int, row)) * (field.p - 1) ** 2 % field.p for row in res.projection]
        assert pure_tensor(res, top, top).tolist() == exact

    def test_mismatched_tensor_rejected(self, a2):
        reg = regular_bimodule(a2)
        other = regular_bimodule(dual_numbers())
        with pytest.raises(ValueError, match="differs|shared"):
            tensor_over(reg, other)


class TestDualAndTwist:
    def test_dual_is_an_involution(self, a2):
        m = regular_bimodule(a2)
        dd = dual_module(dual_module(m))
        assert a2.field.eq(dd.left_mats, m.left_mats)
        assert a2.field.eq(dd.right_mats, m.right_mats)

    def test_dual_swaps_sides_and_validates(self, a2):
        p1 = projective_indecomposables(a2)[0][0]
        d = dual_module(p1)
        assert d.sidedness() == "right"
        Module(None, a2, None, d.right_mats, check=True)

    def test_dual_preserves_hom_dimensions(self, a2):
        projs = projective_indecomposables(a2)
        p1, p2 = projs[0][0], projs[1][0]
        assert len(hom_space(p2, p1)) == len(hom_space(dual_module(p1), dual_module(p2)))

    def test_twist_by_scaling_automorphism(self):
        d = dual_numbers("GF(7)")
        g = mat(d.field, [[1, 0], [0, 3]])  # x -> 3x preserves x*x = 0
        m = twist_left(left_regular_module(d), g)
        i_x = d.labels.index("x")
        assert d.field.eq(m.left_mats[i_x], d.field.smul(3, left_regular_module(d).left_mats[i_x]))

    def test_twist_rejects_non_automorphism(self):
        d = dual_numbers("GF(7)")
        bad = mat(d.field, [[1, 1], [0, 1]])  # x -> 1 + x breaks x*x = 0
        with pytest.raises(NotAutomorphism):
            twist_left(left_regular_module(d), bad)
        with pytest.raises(NotAutomorphism):
            twist_left(left_regular_module(d), d.field.zeros((2, 2)))
        with pytest.raises(NotAutomorphism):  # 1 -> 1, x -> 0: a unital endomorphism, not invertible
            twist_left(left_regular_module(d), mat(d.field, [[1, 0], [0, 0]]))


class TestProjectives:
    def test_cover_of_projective_is_itself(self, a2):
        for p, _, _ in projective_indecomposables(a2):
            assert is_projective(p)
        assert is_projective(left_regular_module(a2))

    def test_cover_of_simple_is_its_projective(self, a2):
        simples = simple_modules(a2)
        assert len(simples) == 2
        s1 = simples[0][0]
        cover = projective_cover(s1)
        assert cover.module.dim == 2  # P_1 covers S_1
        assert sorted(cover.multiplicities) == [(0, 1), (1, 0)]
        assert not is_projective(s1)

    def test_cover_surjection_shape_and_kernel(self):
        lam = truncated_cycle("GF(7)", 3, 2)
        gen = np.random.Generator(np.random.PCG64(23))
        for _ in range(5):
            m = random_left_module(lam, gen)
            if m.dim == 0:
                continue
            cover = projective_cover(m)
            assert cover.module.dim >= m.dim
            assert linalg.rank(lam.field, cover.surjection) == m.dim

    def test_random_modules_are_valid(self):
        lam = truncated_cycle("GF(7)", 3, 2)
        gen = np.random.Generator(np.random.PCG64(5))
        for _ in range(5):
            m = random_left_module(lam, gen)
            if m.dim:
                Module(lam, None, m.left_mats, None, check=True)

    def test_non_split_residue_field_detected(self):
        f = GF(2)
        table = f.zeros((2, 2, 2))
        # k[t]/(t^2+t+1), the field with four elements over GF(2)
        table[0, 0] = [1, 0]
        table[0, 1] = [0, 1]
        table[1, 0] = [0, 1]
        table[1, 1] = [1, 1]
        quartic = Algebra(f, table, [1, 0], idempotents=[[1, 0]], idempotents_primitive=True)
        with pytest.raises(NonSplitResidueField):
            projective_cover(left_regular_module(quartic))

    def test_self_injectivity(self):
        assert is_self_injective(dual_numbers())
        assert is_self_injective(zigzag())
        assert is_self_injective(truncated_cycle("GF(7)", 3, 2))
        assert not is_self_injective(linear_quiver_algebra(GF(5), 2))
        assert not is_self_injective(linear_quiver_algebra(GF(5), 3))

    def test_left_right_projective_outer_tensor(self, a2):
        b = dual_numbers()
        p1 = projective_indecomposables(a2)[0][0]
        q = right_regular_module(b)
        m = outer_tensor(p1, q)
        assert m.dim == 4
        assert is_left_right_projective(m)
        Module(a2, b, m.left_mats, m.right_mats, check=True)

    def test_module_over_opposite_roundtrip(self, a2):
        r = right_regular_module(a2)
        as_left = module_over_opposite(r)
        assert as_left.left_algebra is a2.opposite()
        assert is_projective(as_left)


class TestHomToRegular:
    def test_dims_are_opposite_idempotent_slices(self, a2):
        projs = projective_indecomposables(a2)
        # Hom(Ae_1, A) = e_1 A = span{e_1}; Hom(Ae_2, A) = e_2 A = span{e_2, a1}
        h1, _ = hom_to_regular(projs[0][0])
        h2, _ = hom_to_regular(projs[1][0])
        assert h1.dim == 1
        assert h2.dim == 2
        assert h1.sidedness() == "right"

    def test_bimodule_output_sides(self, a2):
        reg = regular_bimodule(a2)
        h, homs = hom_to_regular(reg)
        assert h.sidedness() == "bimodule"
        assert h.dim == len(homs) == a2.dim


class TestAnnihilators:
    def test_regular_is_faithful(self, a2):
        assert left_annihilator_rows(left_regular_module(a2)).shape[0] == 0

    def test_simple_annihilator(self, a2):
        s1 = simple_modules(a2)[0][0]
        # e_2 and a1 kill S_1
        assert left_annihilator_rows(s1).shape[0] == 2


class TestDirectSum:
    def test_projection_inclusion_identities(self, a2):
        p1 = projective_indecomposables(a2)[0][0]
        p2 = projective_indecomposables(a2)[1][0]
        total, incls, projs = direct_sum([p1, p2, p1])
        assert total.dim == 5
        f = a2.field
        acc = f.zeros((5, 5))
        for incl, proj in zip(incls, projs):
            assert f.eq(f.matmul(proj, incl), f.eye(incl.shape[1]))
            acc = f.add(acc, f.matmul(incl, proj))
        assert f.eq(f.canon(acc), f.eye(5))


# ---- the blocked Hom solver against the Kronecker one ---------------------------


def kronecker_hom_space(m, n):
    """The Kronecker-system Hom solver that hom_space replaced, kept as an oracle."""
    if not _compatible(m, n):
        raise ValueError("hom_space needs modules with identical sidedness and algebras")
    field = m.field
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return []
    constraints = []
    if m.left_mats is not None:
        for g in m.left_algebra.generators:
            constraints.append((m.left_action(g), n.left_action(g)))
    if m.right_mats is not None:
        for g in m.right_algebra.generators:
            constraints.append((m.right_action(g), n.right_action(g)))
    basis = None  # columns over vec_r(F), row-major
    eye_m, eye_n = field.eye(dm), field.eye(dn)
    for am, an in constraints:
        # F am = an F as (I (x) am^T - an (x) I) vec_r(F) = 0
        c = field.sub(field.kron(eye_n, am.T), field.kron(an, eye_m))
        if basis is None:
            _, basis = linalg.rank_nullspace(field, c)
        else:
            _, small = linalg.rank_nullspace(field, field.matmul(c, basis))
            basis = field.matmul(basis, small)
        if basis.shape[1] == 0:
            return []
    if basis is None:
        basis = field.eye(dm * dn)
    rows = linalg.row_basis(field, basis.T)
    return [rows[k].reshape(dn, dm) for k in range(rows.shape[0])]


def without_family(a):
    """The same table with no idempotent family and every basis vector a generator."""
    return Algebra(a.field, a.table, a.unit, a.labels, label=f"{a.label}-plain")


def conjugate(m, gen, left_algebra=None, right_algebra=None):
    """m in a random basis, optionally read over equal-table algebras."""
    field = m.field
    # unitriangular factors with small integer entries: invertible over every
    # field, and over Q the entries stay small enough for the Kronecker oracle
    low = np.tril(gen.integers(-2, 3, size=(m.dim, m.dim)), -1) + np.eye(m.dim, dtype=np.int64)
    up = np.tril(gen.integers(-2, 3, size=(m.dim, m.dim)), -1).T + np.eye(m.dim, dtype=np.int64)
    s = field.matmul(field.canon(low), field.canon(up))
    s_inv = linalg.invert(field, s)

    def move(mats):
        if mats is None:
            return None
        return field.canon(np.stack([field.matmul(field.matmul(s_inv, x), s) for x in mats]))

    return Module(
        left_algebra or m.left_algebra, right_algebra or m.right_algebra,
        move(m.left_mats), move(m.right_mats), label=f"{m.label}^s", check=False,
    )


@functools.lru_cache(maxsize=None)
def hom_algebras(field_name):
    """A_3, zigzag, dual numbers (a one-member family), and the first two without family."""
    a3 = qa(f"field {field_name}\nvertex 1\nvertex 2\nvertex 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n")
    zz = zigzag(field_name)
    return a3, zz, dual_numbers(field_name), without_family(a3), without_family(zz)


def hom_cases(field_name, seed):
    """(m, n) pairs: one-sided and two-sided, conjugated, m is n and m != n."""
    gen = np.random.Generator(np.random.PCG64(seed))
    a3, zz, dn, a3_plain, zz_plain = hom_algebras(field_name)
    cases = []
    for a, plain in ((a3, a3_plain), (zz, zz_plain)):
        reg = left_regular_module(a)
        projs = [p for p, _, _ in projective_indecomposables(a)]
        simples = [s for s, _ in simple_modules(a)]
        rand = random_left_module(a, gen)
        rand_s = conjugate(rand, gen)
        cases += [(reg, reg), (rand_s, rand_s), (rand_s, conjugate(rand, gen))]
        cases += [(p, q) for p in projs for q in projs]
        cases += [(s, t) for s in simples for t in simples]  # empty pieces, zero Homs
        cases += [(simples[0], rand_s), (rand_s, projs[-1])]
        # equal tables, the family on one side only
        plain_s = conjugate(rand, gen, left_algebra=plain)
        cases += [(rand_s, plain_s), (plain_s, rand_s), (plain_s, plain_s)]
        rr = conjugate(right_regular_module(a), gen)
        cases += [(rr, rr), (rr, conjugate(right_regular_module(a), gen, right_algebra=plain))]
        bim = conjugate(regular_bimodule(a), gen)
        cases += [(bim, bim), (bim, conjugate(regular_bimodule(a), gen))]
    left_reg_dn = left_regular_module(dn)
    cases += [(left_reg_dn, left_reg_dn)]
    p1 = projective_indecomposables(a3)[0][0]
    out1 = conjugate(outer_tensor(p1, right_regular_module(dn)), gen)
    out2 = conjugate(outer_tensor(left_regular_module(a3), right_regular_module(dn)), gen)
    out3 = conjugate(outer_tensor(p1, right_regular_module(zz)), gen)
    cases += [(out1, out1), (out1, out2), (out2, out1), (out3, out3)]
    return cases


class TestBlockedHomAgainstKronecker:
    # Over Q the Kronecker oracle's Fraction eliminations take seconds beyond
    # 24 unknowns, so the Q pairs stop there; the GF(p) pairs go up to 144.
    @pytest.mark.parametrize("field_name,seeds,max_unknowns", [
        ("GF(2)", range(4), None), ("GF(3)", range(4), None), ("GF(101)", range(4), None),
        ("Q", range(2), 24),
    ], ids=["GF2", "GF3", "GF101", "Q"])
    def test_same_basis_shapes_and_dtypes(self, field_name, seeds, max_unknowns):
        zero_homs = 0
        for seed in seeds:
            for m, n in hom_cases(field_name, seed):
                if max_unknowns is not None and m.dim * n.dim > max_unknowns:
                    continue
                got, want = hom_space(m, n), kronecker_hom_space(m, n)
                assert len(got) == len(want)
                zero_homs += not want
                for f, g in zip(got, want):
                    assert f.shape == g.shape == (n.dim, m.dim)
                    assert f.dtype == g.dtype
                    assert np.array_equal(f, g)
                    assert [type(x) for x in f.flat] == [type(x) for x in g.flat]
        assert zero_homs


# ---- the piece-coordinate Hom solver against the block-space one -----------------


def block_space_hom_space(m, n):
    """The block-space hom_space that the piece-coordinate solve replaced, kept as an oracle.

    It spans the block space by the Kronecker maps B_N X C_M of every piece
    and imposes each generator outside the families through the residual
    F am - an F on all basis maps at once, one nullspace per generator.
    """
    if not _compatible(m, n):
        raise ValueError("hom_space needs modules with identical sidedness and algebras")
    field = m.field
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return []
    constraints = []
    for (mats, alg), (n_mats, _) in zip(modules._sides(m), modules._sides(n)):
        if mats is not None:
            keep = modules._other_generators(alg)
            constraints += zip(modules._generator_actions(mats, alg)[keep], modules._generator_actions(n_mats, alg)[keep])
    families = modules._families(m)
    pieces_m = modules._graded(m, *families)
    pieces_n = pieces_m if n is m else modules._graded(n, *families)
    basis = np.concatenate([field.kron(bn.T, cm) for (_, cm), (bn, _) in zip(pieces_m, pieces_n)])
    for am, an in constraints:
        f = basis.reshape(basis.shape[0], dn, dm)
        res = field.sub(field.matmul(f, am), field.matmul(an, f).transpose(1, 0, 2))
        small = linalg.nullspace(field, res.reshape(basis.shape[0], dn * dm).T)
        basis = field.matmul(small.T, basis)
        if basis.shape[0] == 0:
            return []
    rows = linalg.row_basis(field, basis)
    return [rows[k].reshape(dn, dm) for k in range(rows.shape[0])]


@functools.lru_cache(maxsize=None)
def group_algebras(field_name):
    """k[C_3] with its primitive family installed, and k[C_3] with none: the group elements
    generate, and none of them is homogeneous for the family. Over GF(3) the family is {1}."""
    field = QQ if field_name == "Q" else GF(int(field_name[3:-1]))
    graded = group_algebra(FiniteGroup.cyclic(3), field)
    projective_indecomposables(graded)
    return graded, group_algebra(FiniteGroup.cyclic(3), field)


def twin(a):
    """a's table, unit and family under a longer generator list: the sum of two generators first."""
    return Algebra(a.field, a.table, a.unit, generators=[a.field.add(a.generators[-1], a.generators[-2]), *a.generators],
                   idempotents=a.idempotents)


def piece_hom_cases(field_name, seed):
    """hom_cases plus group and skew group algebras (generators that are not homogeneous for
    the family), a family-free group algebra and modules over a twin algebra."""
    gen = np.random.Generator(np.random.PCG64((seed, 41)))
    cases = hom_cases(field_name, seed)
    graded, plain = group_algebras(field_name)
    rand = random_left_module(graded, gen)
    reg = left_regular_module(graded)
    cases += [(reg, reg), (rand, rand), (conjugate(rand, gen), rand), (reg, conjugate(reg, gen))]
    cases += [(p, conjugate(q, gen)) for p, _, _ in projective_indecomposables(graded) for q, _, _ in projective_indecomposables(graded)]
    cases += [(conjugate(reg, gen, left_algebra=plain), conjugate(reg, gen, left_algebra=plain))]
    # k[C_6] with no family: its 6 generators give more than 4 rows per unknown, so the stack is cut
    reg6 = left_regular_module(group_algebra(FiniteGroup.cyclic(6), graded.field))
    cases += [(conjugate(reg6, gen), reg6)]
    rr = conjugate(right_regular_module(graded), gen)
    bim = conjugate(regular_bimodule(graded), gen)
    cases += [(rr, rr), (bim, bim), (bim, conjugate(regular_bimodule(graded), gen))]
    if field_name != "GF(2)":  # the skew product needs 2 invertible
        skew = catalog.build("skew", of="zigzag_c2", field=field_name)
        projs = [p for p, _, _ in projective_indecomposables(skew)]
        rand = conjugate(random_left_module(skew, gen), gen)
        cases += [(p, q) for p in projs for q in projs] + [(rand, rand), (projs[0], rand), (rand, projs[-1])]
    a3, zz = hom_algebras(field_name)[:2]
    for a in (a3, zz, graded):
        m = conjugate(random_left_module(a, gen), gen)
        n = conjugate(m, gen, left_algebra=twin(a))
        cases += [(m, n), (n, m), (n, n)]
    return cases


class TestPieceHomAgainstBlockSpace:
    @pytest.mark.parametrize("field_name", ["GF(2)", "GF(3)", "GF(101)", "GF(1048573)", "Q"])
    def test_same_basis_bit_for_bit(self, field_name):
        zero_homs = nonzero_homs = same = 0
        for seed in range(2):
            for m, n in piece_hom_cases(field_name, seed):
                got, want = hom_space(m, n), block_space_hom_space(m, n)
                assert len(got) == len(want), (m, n)
                zero_homs += not want
                nonzero_homs += bool(want)
                same += m is n
                for f, g in zip(got, want):
                    assert f.shape == g.shape == (n.dim, m.dim)
                    assert f.dtype == g.dtype
                    assert np.array_equal(f, g)
                    assert [type(x) for x in f.flat] == [type(x) for x in g.flat]
        assert zero_homs and nonzero_homs and same

    def test_holds_frames_and_piece_actions_keyed_by_the_lists(self):
        """The frame and the generator matrices in piece coordinates are built once per module
        and list, equal fresh builds, and a replaced list rebuilds them."""
        a = catalog.build("kronecker", field="GF(5)")
        m = conjugate(direct_sum([p for p, _, _ in projective_indecomposables(a)])[0], np.random.default_rng(2))
        hom_space(m, m)
        families = modules._families(m)
        frame = modules._frame(m, *families)
        basis, coords, dims = frame
        assert dims == tuple(b.shape[1] for b, _ in modules._graded(m, *families))
        assert np.array_equal(m.field.matmul(coords, basis), m.field.eye(m.dim))
        actions = modules._piece_actions(m, 0, a, frame)
        fresh = linalg.stack_product(
            m.field, coords, m.field.matmul(modules._generator_actions(m.left_mats, a)[modules._other_generators(a)], basis))
        assert np.array_equal(actions, fresh) and actions.shape[0] == 2  # the two arrows
        hom_space(m, m)
        assert modules._frame(m, *families) is frame and modules._piece_actions(m, 0, a, frame) is actions
        a.generators = list(a.generators)
        again = modules._piece_actions(m, 0, a, frame)
        assert again is not actions and np.array_equal(again, actions)


# ---- tensor, submodule and quotient against their Kronecker and loop versions ----


def kronecker_tensor_over(m, n, label=None):
    """The Kronecker-stack tensor_over that the Hom-solver one replaced, kept as an oracle.

    The balancing subspace is generated by the rows for algebra generators:
    products telescope into generator balancing elements. It is stable under
    the outer actions, which commute with the inner ones, so the induced
    actions need no check.
    """
    if m.right_algebra is None or n.left_algebra is None:
        raise ValueError("tensor_over needs a right action on the left factor and a left action on the right factor")
    if not _same_algebra(m.right_algebra, n.left_algebra):
        raise ValueError("tensor_over: the shared algebra differs between factors")
    field = m.field
    b = m.right_algebra
    dm, dn = m.dim, n.dim
    eye_m, eye_n = field.eye(dm), field.eye(dn)
    blocks = []
    for g in b.generators:
        rg = m.right_action(g)
        lg = n.left_action(g)
        blocks.append(field.sub(field.kron(eye_m, lg.T), field.kron(rg.T, eye_n)))
    if blocks:
        balancing = linalg.row_basis(field, np.concatenate(blocks, axis=0))
    else:
        balancing = field.zeros((0, dm * dn))
    proj, sect = linalg.complement_projection(field, balancing, dm * dn)

    def induced(mats_builder, algebra):
        out = field.zeros((algebra.dim, proj.shape[0], proj.shape[0]))
        for i in range(algebra.dim):
            out[i] = field.matmul(field.matmul(proj, mats_builder(i)), sect)
        return out

    lm = None
    if m.left_mats is not None:
        lm = induced(lambda i: field.kron(m.left_mats[i], eye_n), m.left_algebra)
    rm = None
    if n.right_mats is not None:
        rm = induced(lambda i: field.kron(eye_m, n.right_mats[i]), n.right_algebra)
    module = Module(
        m.left_algebra, n.right_algebra, lm, rm,
        label or f"{m.label} (x)_{b.label} {n.label}",
        check=False,
    )
    return TensorResult(module, proj, sect)


def loop_submodule(m, rows, label=None):
    """submodule with one elimination per basis element, kept as an oracle."""
    field = m.field
    basis = linalg.row_basis(field, field.canon(np.atleast_2d(rows)))
    gen_mats = []
    if m.left_mats is not None:
        gen_mats += [m.left_action(g) for g in m.left_algebra.generators]
    if m.right_mats is not None:
        gen_mats += [m.right_action(g) for g in m.right_algebra.generators]
    while True:
        stacked = [basis]
        for mat in gen_mats:
            stacked.append(field.matmul(basis, mat.T))
        new_basis = linalg.row_basis(field, np.concatenate(stacked, axis=0))
        if new_basis.shape[0] == basis.shape[0]:
            break
        basis = new_basis
    s = basis.shape[0]
    incl = basis.T

    def induced(mats, algebra):
        out = field.zeros((algebra.dim, s, s))
        for i in range(algebra.dim):
            coords = linalg.coords_in_row_basis(field, basis, field.matmul(basis, mats[i].T))
            if coords is None:
                raise AssertionError("submodule basis is not action-stable")
            out[i] = coords.T
        return out

    lm = induced(m.left_mats, m.left_algebra) if m.left_mats is not None else None
    rm = induced(m.right_mats, m.right_algebra) if m.right_mats is not None else None
    sub = Module(m.left_algebra, m.right_algebra, lm, rm, label or f"{m.label}-sub", check=False)
    return sub, field.canon(incl)


def loop_quotient(m, basis, label):
    """_quotient with two matmuls per basis element, kept as an oracle."""
    field = m.field
    proj, sect = linalg.complement_projection(field, basis, m.dim)

    def induced(mats, algebra):
        out = field.zeros((algebra.dim, proj.shape[0], proj.shape[0]))
        for i in range(algebra.dim):
            out[i] = field.matmul(field.matmul(proj, mats[i]), sect)
        return out

    lm = induced(m.left_mats, m.left_algebra) if m.left_mats is not None else None
    rm = induced(m.right_mats, m.right_algebra) if m.right_mats is not None else None
    quo = Module(m.left_algebra, m.right_algebra, lm, rm, label, check=False)
    return quo, proj


def assert_same_arrays(got, want):
    """Equal arrays, dtypes and entry types; None only against None."""
    if want is None:
        assert got is None
        return
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert [type(x) for x in got.flat] == [type(x) for x in want.flat]


def assert_same_tensor(got, want):
    """Equal projections, sections, induced actions and labels of two TensorResults."""
    assert_same_arrays(got.projection, want.projection)
    assert_same_arrays(got.section, want.section)
    assert_same_arrays(got.module.left_mats, want.module.left_mats)
    assert_same_arrays(got.module.right_mats, want.module.right_mats)
    assert got.module.label == want.module.label


def random_bimodule(a, gen, copies_cap):
    """A random (a, a)-bimodule: a quotient of projectives over a (x) a^op."""
    env, _ = bimodule_as_env_module(regular_bimodule(a))
    return env_module_as_bimodule(random_left_module(env, gen, copies_cap=copies_cap), a, a)


def tensor_cases(field_name, seed):
    """(kind, m, n) pairs for tensor_over over B with and without a family.

    B is the Kronecker algebra or dual numbers (the catalog witness and its
    opposite), A_3 or zigzag (a family of 2-3 members), trunc_poly k=3 or
    dual numbers (a one-member family), and A_3 without a family or a
    subalgebra of A_2 (no family).
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    a3, zz, dn, a3_plain, _ = hom_algebras(field_name)
    tp = catalog.build("trunc_poly", k=3, field=field_name)
    w = catalog.build("kronecker_witness", field=field_name)
    wop = transport_opposite(w)
    cases = [("witness", x, y) for v in (w, wop) for x, y in ((v.m, v.n), (v.n, v.m))]
    cases += [("witness", conjugate(w.m, gen), conjugate(w.n, gen))]
    for a in (a3, zz, tp, dn, a3_plain):
        reg = regular_bimodule(a)
        cases += [
            ("regular", reg, reg),
            ("regular", conjugate(reg, gen), conjugate(reg, gen)),
            ("regular", conjugate(right_regular_module(a), gen), reg),
            ("regular", reg, conjugate(left_regular_module(a), gen)),
        ]
    # over Q the enveloping algebras' idempotent searches cost seconds at 2 copies
    copies = 1 if field_name == "Q" else 2
    for a in (dn, zz, tp):
        x, y = random_bimodule(a, gen, copies), random_bimodule(a, gen, copies)
        cases += [("random", x, y), ("random", conjugate(x, gen), conjugate(y, gen))]
    # D(S_i) (x)_B S_j vanishes for i != j: Hom_B(S_j, S_i) = 0
    simples = [s for s, _ in simple_modules(a3)]
    outer = left_regular_module(dn)
    for i, si in enumerate(simples):
        for j, sj in enumerate(simples):
            m = outer_tensor(outer, dual_module(si))
            n = outer_tensor(sj, right_regular_module(dn))
            cases.append(("simple" if i == j else "zero hom", m, n))
    # the subalgebra span{1, a1} of A_2, which carries no family
    a2 = linear_quiver_algebra(a3.field, 2)
    s = subalgebra_from_rows(a2, a2.field.canon(np.stack([a2.unit, basis_vector(a2, a2.labels.index("a1"))])))
    right = a2.field.canon(np.stack([a2.right_mult_matrix(r) for r in s.inclusion_rows]))
    left = a2.field.canon(np.stack([a2.left_mult_matrix(r) for r in s.inclusion_rows]))
    m = Module(a2, s, a2.left_regular_mats(), right, "A as (A,S)", check=False)
    n = Module(s, a2, left, a2.right_regular_mats(), "A as (S,A)", check=False)
    cases += [("no family", m, n), ("no family", conjugate(m, gen), conjugate(n, gen))]
    zero = zero_module(zz, zz)
    cases += [("zero factor", zero, regular_bimodule(zz)), ("zero factor", regular_bimodule(zz), zero)]
    return cases


class TestTensorAgainstKronecker:
    # Over Q the Kronecker oracle takes about a second on each conjugated A_3
    # pair (36 unknowns), so the Q pairs stop at 16 unknowns.
    @pytest.mark.parametrize("field_name,seeds,max_unknowns", [
        ("GF(2)", range(3), None), ("GF(3)", range(3), None), ("GF(101)", range(3), None),
        ("Q", range(1), 16),
    ], ids=["GF2", "GF3", "GF101", "Q"])
    def test_same_projection_section_and_actions(self, field_name, seeds, max_unknowns):
        kinds = {}
        for seed in seeds:
            for kind, m, n in tensor_cases(field_name, seed):
                if max_unknowns is not None and m.dim * n.dim > max_unknowns:
                    continue
                got = tensor_over(m, n)
                assert_same_tensor(got, kronecker_tensor_over(m, n))
                if kind == "zero hom":
                    assert got.module.dim == 0 < m.dim * n.dim
                kinds[kind] = kinds.get(kind, 0) + 1
        assert set(kinds) == {"witness", "regular", "random", "simple", "zero hom", "no family", "zero factor"}


def witness_families(field):
    """Both witnesses of each family the verify benchmark checks: the Kronecker
    witness, the skew extensions of the dual numbers and of zigzag under C_2,
    and the rotation invariants of lambda_rot (2,2), (3,2) and (2,3)."""
    w = catalog.build("kronecker_witness", field=field.name)
    pairs = [w, transport_opposite(w)]
    tp = catalog.build("trunc_poly", field=field.name, k=2)
    sign = field.canon(np.array([[1, 0], [0, -1]], dtype=object))
    for action in (AlgebraAction(FiniteGroup.cyclic(2), tp, [field.eye(2), sign]),
                   catalog.build("zigzag_c2", field=field.name)):
        skew, emb = skew_group_algebra(action)
        pairs += embedding_witness_pairs(action.algebra, skew, rows=emb)
    for n, k in ((2, 2), (3, 2), (2, 3)):
        action = catalog.build("lambda_rot", field=field.name, n=n, k=k)
        sub, rows = invariant_subalgebra(action)
        pairs += embedding_witness_pairs(sub, action.algebra, rows=rows)
    return pairs


class TestTensorAgainstTheHomRoute:
    """tensor_over against the route quotient_projection replaced (Hom basis,
    nullspace, row basis, complement_projection), bit for bit. That oracle is
    fast, so Q takes every case."""

    @pytest.mark.parametrize("field_name", ["GF(2)", "GF(3)", "GF(101)", "Q"])
    def test_tensor_cases(self, field_name):
        kinds = set()
        for seed in range(3):
            for kind, m, n in tensor_cases(field_name, seed):
                assert_same_tensor(tensor_over(m, n), hom_tensor_over(m, n))
                kinds.add(kind)
        assert kinds == {"witness", "regular", "random", "simple", "zero hom", "no family", "zero factor"}

    @pytest.mark.parametrize("field", [GF(101), QQ], ids=lambda f: f.name)
    def test_benchmark_witness_families(self, field):
        pairs = witness_families(field)
        assert len(pairs) == 12
        for w in pairs:
            for m, n in ((w.m, w.n), (w.n, w.m)):
                assert_same_tensor(tensor_over(m, n), hom_tensor_over(m, n))


def subquotient_cases(field_name, seed):
    """(module, rows) pairs: one-sided and two-sided, conjugated, zero rows."""
    gen = np.random.Generator(np.random.PCG64(seed))
    field = hom_algebras(field_name)[0].field
    mods = {id(m): m for pair in hom_cases(field_name, seed) for m in pair}.values()
    cases = []
    for m in mods:
        cases.append((m, field.zeros((1, m.dim))))
        cases += [(m, field.rand_mat(gen, k, m.dim)) for k in (1, 2)]
    return cases


class TestSubquotientsAgainstLoops:
    # Over Q the conjugated 12-dim bimodules take seconds, so Q stops at dim 6.
    @pytest.mark.parametrize("field_name,max_dim", [
        ("GF(2)", None), ("GF(3)", None), ("GF(101)", None), ("Q", 6),
    ], ids=["GF2", "GF3", "GF101", "Q"])
    def test_submodule_and_quotient(self, field_name, max_dim):
        sizes = set()
        for m, rows in subquotient_cases(field_name, 0):
            if max_dim is not None and m.dim > max_dim:
                continue
            sub, incl = submodule(m, rows)
            sub0, incl0 = loop_submodule(m, rows)
            assert_same_arrays(incl, incl0)
            assert_same_arrays(sub.left_mats, sub0.left_mats)
            assert_same_arrays(sub.right_mats, sub0.right_mats)
            for basis in (incl.T, radical_sub_rows(m)):
                quo, proj = _quotient(m, basis, "q")
                quo0, proj0 = loop_quotient(m, basis, "q")
                assert_same_arrays(proj, proj0)
                assert_same_arrays(quo.left_mats, quo0.left_mats)
                assert_same_arrays(quo.right_mats, quo0.right_mats)
                sizes.add((quo.dim == 0, quo.dim == m.dim))
            sizes.add((sub.dim == 0, sub.dim == m.dim))
        assert sizes == {(True, False), (False, True), (False, False)}


class TestModuleMapCheck:
    @pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
    def test_is_module_map_is_the_per_side_conjunction(self, field):
        """is_module_map answers as intertwines on each side's basis actions,
        conjoined: on the hom bases of the modules and of their one-sided
        restrictions, and on random maps."""
        a = linear_quiver_algebra(field, 3)
        p0 = projective_indecomposables(a)[0][0]
        reg = regular_bimodule(a)
        pairs = [
            (left_regular_module(a), direct_sum([p0, left_regular_module(a)])[0]),
            (right_regular_module(a), right_regular_module(a)),
            (reg, reg),
            (reg, dual_module(reg)),
        ]
        gen = np.random.default_rng(8)
        verdicts = set()
        for x, y in pairs:
            maps = list(hom_space(x, y))
            if x.sidedness() == "bimodule":
                maps += hom_space(x.restrict_left(), y.restrict_left()) + hom_space(x.restrict_right(), y.restrict_right())
            maps += [field.canon(field.rand_mat(gen, y.dim, x.dim)) for _ in range(3)]
            for f in maps:
                sides = tuple(
                    intertwines(field, f, xm, ym)
                    for xm, ym in ((x.left_mats, y.left_mats), (x.right_mats, y.right_mats))
                    if xm is not None
                )
                assert is_module_map(f, x, y) == all(sides)
                verdicts.add(sides)
        assert {(True,), (False,), (True, True), (True, False), (False, True), (False, False)} <= verdicts
