"""Krull-Schmidt machinery against exhaustive idempotent enumeration.

The oracle enumerates every element of a small endomorphism algebra over
GF(p), collects all idempotents by direct squaring, and refines {1} into a
maximal orthogonal family; its size and image ranks must match the library's
certified decomposition.
"""

import warnings

import numpy as np
import pytest

from jorder import catalog, decomp, linalg
from jorder.algebras import Algebra, _quotient_structure, matrix_algebra_radical, quotient_algebra
from jorder.decomp import (
    Decomposition,
    _match_classes,
    are_isomorphic,
    block_count,
    complete_primitive_idempotents,
    decompose,
    endomorphism_algebra,
    find_nontrivial_idempotent,
    is_connected,
    is_symmetric,
    split_maps,
    summand_isomorphism,
)
from jorder.errors import Inconclusive, NotASummand
from jorder.fields import GF, QQ
from jorder.modules import (
    Module,
    _check_compatible,
    direct_sum,
    hom_space,
    intertwines,
    left_regular_module,
    module_over_opposite,
    outer_tensor,
    projective_indecomposables,
    random_left_module,
    regular_bimodule,
    simple_modules,
    submodule,
    tensor_over,
    zero_module,
)
from jorder.polynomials import crt_split_poly, factor_poly
from jorder.witnesses import JWitnessPair, _op_left_as_right, embedding_witness_pairs, verify_j_geq
from jorder.quivers import parse_presentation
from jorder.algebras import algebra_from_quiver

from fingerprints import fingerprint
from oracles import basis_vector, explicit_isomorphism, linear_quiver_algebra, minpoly_matrix, summand_split_maps
from test_algebras import conjugated_basis


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


def group_algebra_cyclic(field, n):
    table = field.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            table[i, j, (i + j) % n] = field.one
    unit = field.zeros(n)
    unit[0] = field.one
    return Algebra(field, table, unit, [f"g{i}" for i in range(n)], label=f"k[C{n}]")


def matrix_units_algebra(field, n):
    d = n * n
    table = field.zeros((d, d, d))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        table[i * n + j, k * n + l, i * n + l] = field.one
    unit = field.zeros(d)
    for i in range(n):
        unit[i * n + i] = field.one
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return Algebra(field, table, unit, labels, label=f"M{n}")


def quaternions():
    f = QQ
    t = f.zeros((4, 4, 4))
    for i in range(4):
        t[0, i, i] = f.one
        t[i, 0, i] = f.one
    for i in (1, 2, 3):
        t[i, i, 0] = f.scalar(-1)
    t[1, 2, 3], t[2, 1, 3] = f.one, f.scalar(-1)
    t[2, 3, 1], t[3, 2, 1] = f.one, f.scalar(-1)
    t[3, 1, 2], t[1, 3, 2] = f.one, f.scalar(-1)
    return Algebra(f, t, [1, 0, 0, 0], ["1", "i", "j", "k"], label="H")


def all_idempotents(e_alg):
    """Every idempotent of a small GF(p) algebra, by direct enumeration."""
    p, d = e_alg.field.p, e_alg.dim
    count = p**d
    vecs = np.zeros((count, d), dtype=np.int64)
    tmp = np.arange(count)
    for i in range(d):
        vecs[:, i] = tmp % p
        tmp = tmp // p
    sq = np.einsum("vi,vj,ijk->vk", vecs, vecs, np.asarray(e_alg.table)) % p
    return vecs[(sq == vecs).all(axis=1)]


def primitive_family_by_enumeration(e_alg, idems):
    """Refine {1} with enumerated sub-idempotents until nothing splits."""
    f = e_alg.field
    fam = [f.canon(np.asarray(e_alg.unit))]
    progress = True
    while progress:
        progress = False
        for pos, e in enumerate(fam):
            for cand in idems:
                c = f.canon(cand)
                if not c.any() or f.eq(c, e):
                    continue
                if f.eq(e_alg.mul(e, c), c) and f.eq(e_alg.mul(c, e), c):
                    fam[pos : pos + 1] = [c, f.canon(f.sub(e, c))]
                    progress = True
                    break
            if progress:
                break
    return fam


def oracle_check(m):
    view, homs = endomorphism_algebra(m)
    e_alg = view.algebra
    assert e_alg.field.p ** e_alg.dim <= 20000, "oracle fixture grew too large"
    fam = primitive_family_by_enumeration(e_alg, all_idempotents(e_alg))
    dec = decompose(m, seed=0)
    assert len(fam) == len(dec.summands)
    f = e_alg.field
    stack = f.canon(np.stack(homs))
    ranks = sorted(
        linalg.rank(f, f.canon(np.tensordot(c, stack, axes=([0], [0])))) for c in fam
    )
    assert ranks == dec.dims()


class TestEndomorphismAlgebra:
    def test_end_of_regular_matches_opposite(self):
        a = linear_quiver_algebra(GF(5), 2)
        view, homs = endomorphism_algebra(left_regular_module(a))
        assert view.dim == a.dim == len(homs)
        assert view.algebra.loewy_layer_dims() == a.loewy_layer_dims()

    def test_table_is_composition(self):
        a = linear_quiver_algebra(GF(5), 2)
        view, homs = endomorphism_algebra(left_regular_module(a))
        e_alg = view.algebra
        f = a.field
        for i in range(e_alg.dim):
            for j in range(e_alg.dim):
                composite = f.matmul(homs[i], homs[j])
                rebuilt = f.zeros(composite.shape)
                for k in range(e_alg.dim):
                    rebuilt = f.add(rebuilt, f.smul(e_alg.table[i, j, k], homs[k]))
                assert f.eq(f.canon(rebuilt), f.canon(composite))

    def test_end_of_projective_power_is_semisimple(self):
        a = linear_quiver_algebra(GF(5), 2)
        p1 = projective_indecomposables(a)[0][0]
        total, _, _ = direct_sum([p1, p1])
        e_alg, _ = endomorphism_algebra(total)
        assert e_alg.dim == 4  # End(P1 + P1) is a 2x2 matrix algebra over k
        assert e_alg.radical_rows().shape[0] == 0


    def test_each_basis_is_checked_once(self, monkeypatch):
        """End(M)'s hom basis and radical are checked once, when the view is
        built: its unit, the table .algebra reads, and every composite
        summand_isomorphism reads use those pivots and check none again."""
        checked = []
        real = linalg.echelon_pivots
        monkeypatch.setattr(linalg, "echelon_pivots", lambda field, rows: checked.append(rows.shape) or real(field, rows))
        reg = left_regular_module(linear_quiver_algebra(GF(5), 3))
        view, homs = endomorphism_algebra(reg)
        assert len(homs) == 6 and checked.count((6, 36)) == 1
        checked.clear()
        view = decomp.EndView(reg, homs)
        assert checked == [(6, 36), view.radical_rows().shape]
        checked.clear()
        view.algebra
        assert checked == []
        lam = truncated_cycle("GF(3)", 2, 5)
        dec = decompose(left_regular_module(lam), seed=0)
        si, sj = dec.summands
        checked.clear()
        # End(P) has a 3-dim basis with a 2-dim radical; three composites are nonzero
        assert si._end[0].dim == 3 and si._end[0].radical_rows().shape == (2, 3)
        assert summand_isomorphism(si, sj.module) is None
        assert checked == []


class TestIdempotentSearch:
    def test_splits_two_projectives(self):
        a = linear_quiver_algebra(GF(5), 2)
        e_alg, homs = endomorphism_algebra(left_regular_module(a))
        gen = np.random.Generator(np.random.PCG64(0))
        e_vec, cert = find_nontrivial_idempotent(e_alg, gen)
        assert cert is None
        assert e_alg.field.eq(e_alg.mul(e_vec, e_vec), e_vec)
        assert not e_alg.field.is_zero(e_vec)
        assert not e_alg.field.eq(e_vec, e_alg.unit)

    def test_dim_one_certificate(self):
        a = linear_quiver_algebra(GF(5), 2)
        p1 = projective_indecomposables(a)[0][0]
        e_alg, _ = endomorphism_algebra(p1)
        gen = np.random.Generator(np.random.PCG64(0))
        assert find_nontrivial_idempotent(e_alg, gen) == (None, "dim_one")

    def test_field_quotient_certificate_over_qq(self):
        f = QQ
        table = f.zeros((2, 2, 2))
        table[0, 0] = [1, 0]
        table[0, 1] = [0, 1]
        table[1, 0] = [0, 1]
        table[1, 1] = [2, 0]  # x * x = 2, so the algebra is Q(sqrt 2)
        a = Algebra(f, table, [1, 0], label="Q(sqrt2)")
        gen = np.random.Generator(np.random.PCG64(0))
        assert find_nontrivial_idempotent(a, gen) == (None, "field_quotient")

    def test_field_quotient_certificate_over_gf2(self):
        f = GF(2)
        table = f.zeros((2, 2, 2))
        table[0, 0] = [1, 0]
        table[0, 1] = [0, 1]
        table[1, 0] = [0, 1]
        table[1, 1] = [1, 1]  # t * t = t + 1: the field with four elements
        a = Algebra(f, table, [1, 0], label="F4")
        gen = np.random.Generator(np.random.PCG64(0))
        assert find_nontrivial_idempotent(a, gen) == (None, "field_quotient")

    def test_matrix_algebra_splits(self):
        a = matrix_units_algebra(GF(2), 2)
        gen = np.random.Generator(np.random.PCG64(0))
        e_vec, cert = find_nontrivial_idempotent(a, gen)
        assert cert is None
        assert a.field.eq(a.mul(e_vec, e_vec), e_vec)

    def test_quaternions_are_inconclusive(self):
        h = quaternions()
        gen = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(Inconclusive):
            find_nontrivial_idempotent(h, gen, budget=16)


class TestDecompose:
    def test_regular_of_path_algebra(self):
        a = linear_quiver_algebra(GF(5), 2)
        dec = decompose(left_regular_module(a), seed=0)
        assert dec.dims() == [1, 2]
        assert dec.class_summary() == [(1, 1), (2, 1)]
        assert all(s.certificate in ("dim_one", "field_quotient") for s in dec.summands)

    def test_direct_sum_multiplicities(self):
        a = linear_quiver_algebra(GF(5), 2)
        projs = projective_indecomposables(a)
        p1, p2 = projs[0][0], projs[1][0]
        total, _, _ = direct_sum([p1, p2, p1])
        dec = decompose(total, seed=0)
        assert dec.class_summary() == [(1, 1), (2, 2)]

    def test_matrix_algebra_regular(self):
        a = matrix_units_algebra(GF(3), 2)
        dec = decompose(left_regular_module(a), seed=0)
        assert dec.dims() == [2, 2]
        assert dec.class_summary() == [(2, 2)]

    def test_group_algebra_with_nonsplit_block(self):
        a = group_algebra_cyclic(GF(2), 3)
        dec = decompose(left_regular_module(a), seed=0)
        assert dec.dims() == [1, 2]
        dim2 = [s for s in dec.summands if s.module.dim == 2][0]
        assert dim2.certificate == "field_quotient"

    def test_determinism(self):
        a = truncated_cycle("GF(3)", 2, 2)
        m = left_regular_module(a)
        d1 = decompose(m, seed=5)
        d2 = decompose(m, seed=5)
        assert d1.dims() == d2.dims()
        for s, t in zip(d1.summands, d2.summands):
            assert a.field.eq(s.inclusion, t.inclusion)
            assert a.field.eq(s.projection, t.projection)

    def test_quaternion_regular_is_inconclusive(self):
        h = quaternions()
        with pytest.raises(Inconclusive):
            decompose(left_regular_module(h), seed=0)

    def test_zero_module(self):
        a = linear_quiver_algebra(GF(5), 2)
        from jorder.modules import zero_module

        dec = decompose(zero_module(a, None), seed=0)
        assert dec.summands == [] and dec.classes == []


class TestAgainstEnumeration:
    def test_path_algebra_regular(self):
        oracle_check(left_regular_module(linear_quiver_algebra(GF(2), 2)))

    def test_zigzag_regular(self):
        oracle_check(left_regular_module(zigzag("GF(2)")))

    def test_projectives_with_simple(self):
        a = linear_quiver_algebra(GF(3), 2)
        p1 = projective_indecomposables(a)[0][0]
        s2 = simple_modules(a)[1][0]
        total, _, _ = direct_sum([p1, p1, s2])
        oracle_check(total)

    def test_group_algebra(self):
        oracle_check(left_regular_module(group_algebra_cyclic(GF(2), 3)))

    def test_truncated_cycle_regular(self):
        oracle_check(left_regular_module(truncated_cycle("GF(3)", 2, 2)))

    def test_random_modules(self):
        a = truncated_cycle("GF(2)", 2, 2)
        gen = np.random.Generator(np.random.PCG64(17))
        checked = 0
        for _ in range(8):
            m = random_left_module(a, gen)
            if m.dim == 0:
                continue
            e_alg, _ = endomorphism_algebra(m)
            if a.field.p**e_alg.dim > 20000:
                continue
            oracle_check(m)
            checked += 1
        assert checked >= 3


class TestIsomorphismAndSummands:
    def test_regular_isomorphic_to_itself(self):
        a = linear_quiver_algebra(GF(5), 2)
        assert are_isomorphic(left_regular_module(a), left_regular_module(a))

    def test_distinct_projectives_not_isomorphic(self):
        a = linear_quiver_algebra(GF(5), 2)
        projs = projective_indecomposables(a)
        assert not are_isomorphic(projs[0][0], projs[1][0])

    def test_nakayama_projectives_same_dim_not_isomorphic(self):
        lam = truncated_cycle("GF(3)", 2, 2)
        projs = projective_indecomposables(lam)
        assert projs[0][0].dim == projs[1][0].dim == 2
        assert not are_isomorphic(projs[0][0], projs[1][0])

    def test_matrix_algebra_columns_isomorphic(self):
        a = matrix_units_algebra(GF(3), 2)
        dec = decompose(left_regular_module(a), seed=0)
        s0, s1 = dec.summands
        assert are_isomorphic(s0.module, s1.module)

    def test_projective_is_summand_of_regular(self):
        a = linear_quiver_algebra(GF(5), 2)
        p2 = projective_indecomposables(a)[1][0]
        dx = decompose(p2)
        maps, unpaired = split_maps(dx, decompose(left_regular_module(a), seed=1))
        assert maps is not None and unpaired is None
        assert dx.class_summary() == [(1, 1)]

    def test_simple_is_not_summand_of_regular(self):
        a = linear_quiver_algebra(GF(5), 2)
        s1 = simple_modules(a)[0][0]
        assert s1.dim == 1
        dx = decompose(s1)
        maps, unpaired = split_maps(dx, decompose(left_regular_module(a), seed=1))
        assert maps is None and unpaired is dx.summands[0]

    def test_multiplicity_bound(self):
        a = linear_quiver_algebra(GF(5), 2)
        projs = projective_indecomposables(a)
        p1, p2 = projs[0][0], projs[1][0]
        small, _, _ = direct_sum([p1, p2])
        big, _, _ = direct_sum([p1, p1, p2])
        maps, _ = split_maps(decompose(small), decompose(big, seed=1))
        assert maps is not None
        maps, unpaired = split_maps(decompose(big), decompose(small, seed=1))
        assert maps is None and unpaired.module.dim == 2


class TestAlgebraLevel:
    def test_connectedness(self):
        a = linear_quiver_algebra(GF(5), 2)
        assert is_connected(a)
        two_parts = qa(
            "field GF(5)\nvertex 1\nvertex 2\nvertex 3\n"
            "arrow a: 1 -> 2\narrow x: 3 -> 3\nrelation x*x\n"
        )
        assert block_count(two_parts) == 2
        assert not is_connected(two_parts)

    def test_group_algebra_blocks(self):
        assert block_count(group_algebra_cyclic(GF(2), 3)) == 2

    def test_symmetric_algebras(self):
        assert is_symmetric(dual_numbers("GF(5)"))
        assert is_symmetric(group_algebra_cyclic(GF(3), 3))

    def test_non_symmetric_algebras(self):
        assert not is_symmetric(linear_quiver_algebra(GF(5), 2))
        # self-injective with a nontrivial socle permutation, hence not symmetric
        assert not is_symmetric(zigzag("GF(5)"))

    def test_complete_primitive_idempotents_on_quotient(self):
        a4 = linear_quiver_algebra(GF(5), 4)
        i_dead = a4.labels.index("a2*a3")
        rows = np.asarray(basis_vector(a4, i_dead)).reshape(1, -1)
        rows = np.concatenate(
            [rows, np.asarray(basis_vector(a4, a4.labels.index("a1*a2*a3"))).reshape(1, -1)]
        )
        c4 = quotient_algebra(a4, a4.field.canon(rows), label="C4")
        assert not c4.idempotents_primitive
        es = complete_primitive_idempotents(c4)
        assert len(es) == 4
        assert c4.idempotents_primitive
        dims = sorted(p.dim for p, _, _ in projective_indecomposables(c4))
        assert dims == [1, 2, 2, 3]

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
    def test_recovered_family_is_checked_by_the_algebra_reader(self, field, monkeypatch):
        """A recovered family that fails a condition raises AssertionError with
        the message Algebra's own family check gives, and installs nothing."""
        base = linear_quiver_algebra(field, 2)
        a = Algebra(field, base.table, base.unit, label="A2")
        doubled = decomp.Summand(None, field.canon(field.smul(2, field.eye(a.dim))), field.eye(a.dim), "dim_one")
        fake = Decomposition(left_regular_module(a), [doubled], [[0]])
        monkeypatch.setattr(decomp, "decompose", lambda m, seed=0: fake)
        with pytest.raises(AssertionError, match="family element 0 is not idempotent"):
            complete_primitive_idempotents(a)
        assert a.idempotents is None

    def test_fingerprint_frozen_path_algebra(self):
        a = linear_quiver_algebra(GF(5), 2)
        assert fingerprint(a) == {
            "dim": 3,
            "field": "GF(5)",
            "commutative": False,
            "loewy_layers": [3, 1, 0],
            "center_dim": 1,
            "blocks": 1,
            "projectives": [[1, 1, 1], [2, 1, 1]],
        }

    def test_fingerprint_nonsplit_group_algebra(self):
        a = group_algebra_cyclic(GF(2), 3)
        assert fingerprint(a) == {
            "dim": 3,
            "field": "GF(2)",
            "commutative": True,
            "loewy_layers": [3, 0],
            "center_dim": 3,
            "blocks": 2,
            "projectives": [[1, 1, 1], [2, 2, 1]],
        }

    def test_fingerprint_deterministic(self):
        a = truncated_cycle("GF(7)", 3, 2)
        assert fingerprint(a) == fingerprint(truncated_cycle("GF(7)", 3, 2))


# ---- the pairing loops before the class matcher, kept as oracles ----------------
# Verbatim apart from the oracle names they call: the two-summand Fitting test,
# the four class-matching loops, the rank-based split search and verify_j_geq's
# greedy summand scan.


def _old_summand_isomorphism(si, sj):
    mi, mj = si.module, sj.module
    if mi.dim != mj.dim:
        return None
    field = mi.field
    fs = hom_space(mi, mj)
    if not fs:
        return None
    gs = hom_space(mj, mi)
    if not gs:
        return None
    e_alg, homs = si._end
    rad = e_alg.radical_rows()
    vec_rows = field.canon(np.stack(homs)).reshape(len(homs), -1)
    pivots, rad_pivots = linalg.echelon_pivots(field, vec_rows), linalg.echelon_pivots(field, rad)
    for f in fs:
        for g in gs:
            comp = field.matmul(g, f)
            if field.is_zero(comp):
                continue
            coords = linalg.coords_in_row_basis(field, vec_rows, comp.reshape(1, -1), pivots)
            if coords is None:
                raise AssertionError("composite escaped the endomorphism space")
            if linalg.coords_in_row_basis(field, rad, coords, rad_pivots) is None:
                return f
    return None


def _old_summands_isomorphic(si, sj):
    return _old_summand_isomorphism(si, sj) is not None


def _old_are_isomorphic(m, n, seed=0):
    if m.dim != n.dim or m.sidedness() != n.sidedness():
        return False
    if m.dim == 0:
        return True
    dm = decompose(m, seed=seed)
    dn = decompose(n, seed=seed + 1)
    if len(dm.summands) != len(dn.summands):
        return False
    unmatched = list(range(len(dn.classes)))
    for cls in dm.classes:
        rep = dm.summands[cls[0]]
        hit = None
        for pos in unmatched:
            other = dn.classes[pos]
            if len(other) == len(cls) and _old_summands_isomorphic(rep, dn.summands[other[0]]):
                hit = pos
                break
        if hit is None:
            return False
        unmatched.remove(hit)
    return not unmatched


def _old_summand_split_maps(x, y):
    field = x.field
    if x.dim == 0:
        return field.zeros((y.dim, 0)), field.zeros((0, y.dim))
    if x.dim > y.dim:
        return None
    e_alg, _ = endomorphism_algebra(x)
    if e_alg.radical_rows().shape[0] != e_alg.dim - 1:
        raise ValueError(f"{x.label} is not indecomposable with split endomorphisms")
    fs = hom_space(x, y)
    if not fs:
        return None
    gs = hom_space(y, x)
    if not gs:
        return None
    for f in fs:
        for g in gs:
            u = field.matmul(g, f)
            if linalg.rank(field, u) == x.dim:
                h = field.matmul(linalg.invert(field, u), g)
                return f, h
    return None


def _old_explicit_isomorphism(m, n, seed=0):
    if m.dim != n.dim or m.sidedness() != n.sidedness():
        return None
    field = m.field
    if m.dim == 0:
        return field.zeros((0, 0))
    dm = decompose(m, seed=seed)
    dn = decompose(n, seed=seed + 1)
    if len(dm.summands) != len(dn.summands):
        return None
    used = set()
    total = field.zeros((n.dim, m.dim))
    for s in dm.summands:
        hit = None
        for j, t in enumerate(dn.summands):
            if j in used or t.module.dim != s.module.dim:
                continue
            f = _old_summand_isomorphism(s, t)
            if f is not None:
                hit = (j, t, f)
                break
        if hit is None:
            return None
        j, t, f = hit
        used.add(j)
        total = field.add(total, field.matmul(t.inclusion, field.matmul(f, s.projection)))
    total = field.canon(total)
    if linalg.rank(field, total) != m.dim:
        raise AssertionError("matched summand maps failed to assemble invertibly")
    for mats_m, mats_n in ((m.left_mats, n.left_mats), (m.right_mats, n.right_mats)):
        if mats_m is not None and not intertwines(field, total, mats_m, mats_n):
            raise AssertionError("assembled isomorphism is not a module map")
    return total


def _old_is_direct_summand(x, y, seed=0):
    evidence = {}
    if x.dim == 0:
        return True, evidence
    dx = decompose(x, seed=seed)
    dy = decompose(y, seed=seed + 1)
    evidence["left_classes"] = dx.class_summary()
    evidence["right_classes"] = dy.class_summary()
    remaining = {pos: len(cls) for pos, cls in enumerate(dy.classes)}
    for cls in dx.classes:
        rep = dx.summands[cls[0]]
        hit = None
        for pos, cap in remaining.items():
            if cap < len(cls):
                continue
            other = dy.classes[pos]
            if _old_summands_isomorphic(rep, dy.summands[other[0]]):
                hit = pos
                break
        if hit is None:
            evidence["missing_class"] = {"dim": rep.module.dim, "multiplicity": len(cls)}
            return False, evidence
        remaining[hit] -= len(cls)
    return True, evidence


def _old_greedy_pairs(d_reg, d_t):
    """verify_j_geq's scan: ([(i, j, iso)], index of the first unpaired summand or None)."""
    pairs = []
    used = set()
    for i, r in enumerate(d_reg.summands):
        hit = None
        for j, s in enumerate(d_t.summands):
            if j in used or s.module.dim != r.module.dim:
                continue
            iso = _old_summand_isomorphism(r, s)
            if iso is not None:
                hit = (j, s, iso)
                break
        if hit is None:
            return pairs, i
        j, s, iso = hit
        used.add(j)
        pairs.append((i, j, iso))
    return pairs, None


def _summed_pairs(dx, dy, pairs):
    """Section and retraction summed over (i, j, iso) pairs in order, as verify_j_geq's scan summed them."""
    field = dx.module.field
    section = field.zeros((dy.module.dim, dx.module.dim))
    retraction = field.zeros((dx.module.dim, dy.module.dim))
    for i, j, iso in pairs:
        r, s = dx.summands[i], dy.summands[j]
        section = field.add(section, field.matmul(s.inclusion, field.matmul(iso, r.projection)))
        retraction = field.add(
            retraction,
            field.matmul(r.inclusion, field.matmul(linalg.invert(field, iso), s.projection)),
        )
    return section, retraction


def _old_verify_split(w):
    """verify_j_geq's section and retraction before the class matcher, or missing_dim."""
    field = w.a.field
    tr = tensor_over(w.m, w.n)
    t = tr.module
    reg = regular_bimodule(w.a)
    d_reg = decompose(reg, seed=w.seed)
    d_t = decompose(t, seed=w.seed + 1)
    used = set()
    section = field.zeros((t.dim, reg.dim))
    retraction = field.zeros((reg.dim, t.dim))
    for r in d_reg.summands:
        hit = None
        for j, s in enumerate(d_t.summands):
            if j in used or s.module.dim != r.module.dim:
                continue
            iso = _old_summand_isomorphism(r, s)
            if iso is not None:
                hit = (j, s, iso)
                break
        if hit is None:
            return r.module.dim
        j, s, iso = hit
        used.add(j)
        section = field.add(section, field.matmul(s.inclusion, field.matmul(iso, r.projection)))
        retraction = field.add(
            retraction,
            field.matmul(r.inclusion, field.matmul(linalg.invert(field, iso), s.projection)),
        )
    return section, retraction


def assert_same_array(a, b):
    """Equal shape, dtype, entries and entry types."""
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tolist() == b.tolist()
    assert [type(x) for x in a.flat] == [type(x) for x in b.flat]


def assert_same_maps(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None and len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_array(g, w)


FIELDS = [GF(2), GF(3), GF(101), QQ]


def conjugated(m, gen):
    """m on the same space in a seeded random basis; over Q, m unchanged.

    Over Q the idempotent search does not split End(P + P) = M_2(Q) in a
    random basis within its budget (decompose raises Inconclusive), so the Q
    inputs keep the direct-sum basis.
    """
    f = m.field
    if f == QQ:
        return m
    t = f.canon(f.rand_mat(gen, m.dim, m.dim))
    while linalg.rank(f, t) != m.dim:
        t = f.canon(f.rand_mat(gen, m.dim, m.dim))
    ti = linalg.invert(f, t)

    def conj(mats):
        return None if mats is None else f.canon(np.stack([f.matmul(t, f.matmul(x, ti)) for x in mats]))

    return Module(m.left_algebra, m.right_algebra, conj(m.left_mats), conj(m.right_mats), f"{m.label}^t", check=False)


def summand_fixtures(field):
    """Indecomposables of A_3 (three projectives, a simple) and Nakayama projectives of one dimension."""
    a = linear_quiver_algebra(field, 3)
    p0, p1, p2 = (p for p, _, _ in projective_indecomposables(a))
    s0 = simple_modules(a)[0][0]
    lam = truncated_cycle(field.name, 2, 2)
    q0, q1 = (p for p, _, _ in projective_indecomposables(lam))
    assert (p0.dim, p1.dim, s0.dim, q0.dim, q1.dim) == (3, 2, 1, 2, 2)
    return (p0, p1, p2, s0), (q0, q1)


def summed(mods, gen):
    return conjugated(direct_sum(list(mods))[0], gen)


def reordered(dec, order):
    """dec with its summands in the given order and classes rebuilt by first member."""
    owner = {i: c for c, cls in enumerate(dec.classes) for i in cls}
    summands = [dec.summands[i] for i in order]
    classes, seen = [], {}
    for pos, i in enumerate(order):
        c = owner[i]
        if c not in seen:
            seen[c] = len(classes)
            classes.append([])
        classes[seen[c]].append(pos)
    return Decomposition(dec.module, summands, classes)


class TestMatcherAgainstGreedyLoops:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_isomorphism_and_summand_answers(self, field):
        gen = np.random.default_rng(11)
        (p0, p1, p2, s0), (q0, q1) = summand_fixtures(field)
        pairs = [
            (summed([p0, p0, p1], gen), summed([p1, p0, p0], gen)),  # a repeated class
            (summed([q0, q1], gen), summed([q1, q0], gen)),
            (summed([q0, q1], gen), summed([q1, q1], gen)),  # same dimensions, not isomorphic
            (summed([s0, p0], gen), summed([p0, p1, p2], gen)),  # a missing class
            (summed([p0, p0, p1], gen), summed([p0, p1, p2], gen)),  # a multiplicity shortfall
            (summed([p1, p0], gen), summed([p0, p2, p0, p1], gen)),
            (zero_module(p0.left_algebra, None), zero_module(p0.left_algebra, None)),
        ]
        answers = []
        for seed, (x, y) in enumerate(pairs):
            for a, b in ((x, y), (y, x)):
                assert are_isomorphic(a, b, seed=seed) == _old_are_isomorphic(a, b, seed=seed)
                summand = split_maps(decompose(a, seed=seed), decompose(b, seed=seed + 1))[0] is not None
                assert summand == _old_is_direct_summand(a, b, seed=seed)[0]
                got, want = explicit_isomorphism(a, b, seed=seed), _old_explicit_isomorphism(a, b, seed=seed)
                assert (got is None) == (want is None)
                if want is not None:
                    assert_same_array(got, want)
                answers.append((want is not None, summand))
        assert {(True, True), (False, True), (False, False)} <= set(answers)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_split_maps(self, field):
        gen = np.random.default_rng(12)
        (p0, p1, p2, s0), (q0, q1) = summand_fixtures(field)
        targets = [summed([p0, p1], gen), summed([p2, p1, p0], gen), summed([s0, p1], gen),
                   summed([p1, p0, p1], gen), summed([p0, p0], gen), summed([q1, q1], gen), summed([q0, q1], gen)]
        found = []
        for x in (conjugated(p0, gen), conjugated(p1, gen), s0, conjugated(q0, gen), q1):
            leaf = decompose(x).summands[0]
            for y in targets:
                if x.left_algebra is not y.left_algebra:
                    continue
                want = _old_summand_split_maps(x, y)
                assert_same_maps(summand_split_maps(leaf, y), want)
                found.append(want is not None)
        assert True in found and False in found
        # a split takes a certified leaf, and a decomposable module has more than one
        assert len(decompose(targets[0]).summands) > 1

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_pairs_follow_the_greedy_scan(self, field):
        """split_maps sums the pairs of the scan over the second decomposition's
        summands, each summand with the first unused member of its matched class
        and the same isomorphism, or names the summand the scan leaves unpaired."""
        gen = np.random.default_rng(13)
        (p0, p1, p2, s0), (q0, q1) = summand_fixtures(field)
        cases = [
            (summed([p0, p1, p0, p1], gen), summed([p1, p1, p0, p0], gen)),
            (summed([q1, q0, q1], gen), summed([q1, q1, q0], gen)),
            (summed([p1, p0, p0], gen), summed([p0, p1], gen)),
            (summed([q0, q0], gen), summed([q1, q0], gen)),
        ]
        for x, y in cases:
            dx, dy = decompose(x, seed=1), decompose(y, seed=2)
            want, missing = _old_greedy_pairs(dx, dy)
            maps, unpaired = split_maps(dx, dy)
            if missing is None:
                assert unpaired is None
                assert_same_maps(maps, _summed_pairs(dx, dy, want))
            else:
                assert maps is None and unpaired is dx.summands[missing]

    def test_summand_order_decides_the_unpaired_summand(self):
        """Class C1 = {0, 5} is short and class C2 = {1} is absent: summand order
        meets C2 first, class order C1, and split_maps names C2's summand, as
        the greedy scan does."""
        field = GF(3)
        gen = np.random.default_rng(14)
        (p0, p1, p2, s0), _ = summand_fixtures(field)
        x = summed([p0, s0, p1, p1, p1, p0], gen)
        y = summed([p1, p0, p1, p1], gen)
        by_dim = {}
        dx = decompose(x, seed=0)
        for i, s in enumerate(dx.summands):
            by_dim.setdefault(s.module.dim, []).append(i)
        (a0, a1), (b,), (c0, c1, c2) = by_dim[3], by_dim[1], by_dim[2]
        dx = reordered(dx, [a0, b, c0, c1, c2, a1])
        assert dx.classes == [[0, 5], [1], [2, 3, 4]]
        dy = decompose(y, seed=1)
        _, missing = _old_greedy_pairs(dx, dy)
        maps, unpaired = split_maps(dx, dy)
        assert missing == 1 and maps is None and unpaired is dx.summands[1]

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_verify_j_geq_split_is_unchanged(self, field):
        d = truncated_cycle(field.name, 1, 3)
        k = qa(f"field {field.name}\nvertex 1\n")
        down, up = embedding_witness_pairs(k, d, rows=field.canon(np.asarray(d.unit)).reshape(1, -1), seed=2)
        two = qa(f"field {field.name}\nvertex 1\nvertex 2\n")
        witnesses = [down, up, JWitnessPair(two, two, regular_bimodule(two), regular_bimodule(two), seed=1)]
        if field.name in ("GF(101)", "Q"):
            witnesses.append(catalog.build("kronecker_witness", field=field.name))
        outcomes = []
        for w in witnesses:
            want = _old_verify_split(w)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    cert = verify_j_geq(w, quality=False)
                except NotASummand as exc:
                    assert exc.evidence["missing_dim"] == want
                    outcomes.append(False)
                    continue
            assert_same_maps([cert.section, cert.retraction], list(want))
            outcomes.append(True)
        assert outcomes[:3] == [True, False, True]

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_leaf_test_on_k_split_candidates(self, field):
        """The leaf test answers as are_isomorphic did on every candidate outer
        product X (x)_k Y of the one-sided summands of a k-split bimodule,
        including same-dimensional non-isomorphic ones."""
        lam = truncated_cycle(field.name, 2, 3)  # Q0 -> Q1 -> Q0 is a nonzero radical composite
        d = truncated_cycle(field.name, 1, 2)
        d_right = _op_left_as_right(left_regular_module(d), d)  # d is commutative
        q0, q1 = (p for p, _, _ in projective_indecomposables(lam))
        m = summed([outer_tensor(q0, d_right), outer_tensor(q1, d_right)], np.random.default_rng(15))
        dec = decompose(m, seed=0)
        cands = []
        for z in dec.summands:
            lefts = decompose(z.module.restrict_left(), seed=1)
            rights = decompose(module_over_opposite(z.module.restrict_right()), seed=2)
            cands += [outer_tensor(x.module, _op_left_as_right(y.module, d))
                      for x in lefts.summands for y in rights.summands]
        answers = []
        for z in dec.summands:
            for cand in cands:
                leaf = summand_isomorphism(z, cand) is not None
                assert leaf == _old_are_isomorphic(cand, z.module, seed=3)
                answers.append((cand.dim == z.module.dim, leaf))
        assert {(True, True), (True, False)} <= set(answers)


class TestMatcherPreconditions:
    """Every matcher entry point rejects modules of different sidedness or
    algebras with hom_space's ValueError, before decomposing anything."""

    @pytest.fixture
    def no_decompose(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decomposed before the precondition")

        monkeypatch.setattr(decomp, "decompose", refuse)

    def test_zero_left_module_against_bimodule(self, no_decompose):
        a = linear_quiver_algebra(GF(5), 2)
        with pytest.raises(ValueError, match="identical sidedness and algebras"):
            are_isomorphic(zero_module(a, None), regular_bimodule(a))

    def test_zero_bimodule_split_off_left_module(self, no_decompose):
        a = linear_quiver_algebra(GF(5), 2)
        # the zero bimodule has no leaf; a leaf of the regular bimodule, decomposed
        # through the unpatched import, has the same sides
        (leaf,) = decompose(regular_bimodule(a)).summands
        with pytest.raises(ValueError, match="identical sidedness and algebras"):
            summand_split_maps(leaf, left_regular_module(a))

    def test_different_algebras_of_different_dimension(self, no_decompose):
        a2, a3 = linear_quiver_algebra(GF(5), 2), linear_quiver_algebra(GF(5), 3)
        with pytest.raises(ValueError, match="identical sidedness and algebras"):
            are_isomorphic(left_regular_module(a2), left_regular_module(a3))

    def test_different_algebras_of_equal_module_dimension(self, no_decompose):
        d, k2 = dual_numbers("GF(5)"), qa("field GF(5)\nvertex 1\nvertex 2\n")
        with pytest.raises(ValueError, match="identical sidedness and algebras"):
            are_isomorphic(left_regular_module(d), left_regular_module(k2))

    def test_explicit_isomorphism_across_sidedness(self, no_decompose):
        d = dual_numbers("GF(5)")
        right = _op_left_as_right(left_regular_module(d), d)
        with pytest.raises(ValueError, match="identical sidedness and algebras"):
            explicit_isomorphism(left_regular_module(d), right)


# ---- corner reads: every Hom of a decomposition read off the root's End(M) --------
# The oracles solve each Hom with hom_space, and are_isomorphic is compared
# with its two-decomposition form, which decomposes n even when m is
# indecomposable.


def _two_decomposition_are_isomorphic(m, n, seed=0):
    _check_compatible(m, n)
    if m.dim != n.dim:
        return False
    dm = decompose(m, seed=seed)
    dn = decompose(n, seed=seed + 1)
    if len(dm.summands) != len(dn.summands):
        return False
    return all(d is not None and len(dn.classes[d]) == len(cls) for cls, d, _ in _match_classes(dm, dn))


def corner_fixtures(field):
    """Indecomposables of A_3 (projectives, simples), of the Kronecker algebra and of lambda (2,2)."""
    a = linear_quiver_algebra(field, 3)
    p0, p1, p2 = (p for p, _, _ in projective_indecomposables(a))
    s0, s1, s2 = (s for s, _ in simple_modules(a))
    kron = catalog.build("kronecker", field=field.name)
    (k0, k1), (t0, _) = (p for p, _, _ in projective_indecomposables(kron)), (s for s, _ in simple_modules(kron))
    _, (q0, q1) = summand_fixtures(field)
    assert (p1.dim, k0.dim, k1.dim, q0.dim) == (2, 3, 1, 2)
    return (p0, p1, p2, s0, s1, s2), (k0, k1, t0), (q0, q1)


def corner_sums(field, gen):
    (p0, p1, p2, s0, s1, s2), (k0, k1, t0), (q0, q1) = corner_fixtures(field)
    return [
        summed([p0, p0, p1, p2], gen),
        summed([p1, s1, s2, p1], gen),  # P1 and S1 + S2 share composition factors
        summed([k0, k1, t0, k0, k1], gen),
        summed([q0, q1, q0], gen),
    ]


class TestCornerReads:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_every_node_and_leaf_pair_equals_hom_space(self, field, monkeypatch):
        """Each node's End basis, and Hom between any two leaves both ways, read
        off End(M) equal the bases hom_space solves, entry for entry."""
        nodes = []
        real = decomp.EndView.__init__
        monkeypatch.setattr(decomp.EndView, "__init__", lambda view, m, homs: nodes.append((m, homs)) or real(view, m, homs))
        for seed, m in enumerate(corner_sums(field, np.random.default_rng(21))):
            nodes.clear()
            dec = decompose(m, seed=seed)
            assert len(nodes) == 2 * len(dec.summands) - 1  # every node of the split tree
            for mod, homs in nodes:
                assert_same_maps(homs, hom_space(mod, mod))
            root = hom_space(m, m)
            for r in dec.summands:
                for s in dec.summands:
                    if r is not s:
                        assert_same_maps(decomp._corner(field, root, s.projection, r.inclusion),
                                         hom_space(r.module, s.module))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_are_isomorphic_matches_two_decompositions(self, field):
        gen = np.random.default_rng(22)
        (p0, p1, p2, s0, s1, s2), (k0, k1, t0), (q0, q1) = corner_fixtures(field)
        pairs = [
            (conjugated(p1, gen), summed([p1], gen)),
            (conjugated(p1, gen), summed([s1, s2], gen)),  # equal dimension, not isomorphic
            (conjugated(k0, gen), summed([t0, k1, k1], gen)),
            (conjugated(k0, gen), summed([k0], gen)),
            (q0, conjugated(q1, gen)),
            (summed([p0, p1], gen), summed([p1, p0], gen)),  # m decomposable
            (summed([q0, q1], gen), summed([q1, q1], gen)),
        ]
        answers = []
        for seed, (x, y) in enumerate(pairs):
            for a, b in ((x, y), (y, x)):
                want = _two_decomposition_are_isomorphic(a, b, seed=seed)
                assert are_isomorphic(a, b, seed=seed) == want
                answers.append(want)
        assert True in answers and False in answers

    def test_one_hom_solve_per_decomposition(self, monkeypatch):
        calls = []
        real = decomp.hom_space
        monkeypatch.setattr(decomp, "hom_space", lambda m, n: calls.append((m, n)) or real(m, n))
        (p0, p1, p2, _, _, _), _, _ = corner_fixtures(GF(101))
        m = summed([p0, p0, p1, p2], np.random.default_rng(23))
        dec = decompose(m, seed=0)
        assert dec.class_summary() == [(1, 1), (2, 1), (3, 2)]
        assert calls == [(m, m)]

    def test_indecomposable_is_matched_without_decomposing_the_other(self, monkeypatch):
        calls = []
        real = decomp.decompose
        monkeypatch.setattr(decomp, "decompose", lambda m, seed=0: calls.append(m) or real(m, seed=seed))
        (p0, p1, p2, _, s1, s2), _, _ = corner_fixtures(GF(3))
        gen = np.random.default_rng(24)
        for n, want in ((summed([p1], gen), True), (summed([s1, s2], gen), False)):
            calls.clear()
            assert are_isomorphic(p1, n) is want
            assert calls == [p1]


# ---- splitting off an idempotent image, against the spanning split -----------------


def spanning_split_by_endomorphism(mod, part):
    """_split_by_endomorphism with the image spanned again under the actions by
    submodule; kept as an oracle."""
    field = mod.field
    rows = linalg.row_basis(field, field.canon(part.T))
    sub, incl = submodule(mod, rows)
    if sub.dim != rows.shape[0]:
        raise AssertionError("idempotent image is not action stable")
    coords = linalg.coords_in_row_basis(field, rows, field.canon(part.T))
    proj = field.canon(coords.T)
    if not field.eq(field.matmul(proj, incl), field.eye(sub.dim)):
        raise AssertionError("projection does not retract the inclusion")
    return sub, incl, proj


class TestSplitByEndomorphism:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_every_split_equals_the_spanning_split(self, field, monkeypatch):
        """At every split of every node, the submodule on the idempotent's image,
        its inclusion and its projection equal those of the spanning split."""
        splits = []
        split = decomp._split_by_endomorphism

        def both(mod, part):
            got = split(mod, part)
            splits.append((got, spanning_split_by_endomorphism(mod, part)))
            return got

        monkeypatch.setattr(decomp, "_split_by_endomorphism", both)
        count = 0
        for seed, m in enumerate(view_inputs(field, np.random.default_rng(33))):
            splits.clear()
            dec = decompose(m, seed=seed)
            assert len(splits) == 2 * (len(dec.summands) - 1)
            count += len(splits)
            for (sub, incl, proj), (sub0, incl0, proj0) in splits:
                assert sub.label == sub0.label
                for mats, mats0 in ((sub.left_mats, sub0.left_mats), (sub.right_mats, sub0.right_mats)):
                    assert (mats is None) == (mats0 is None)
                    if mats is not None:
                        assert_same_array(mats, mats0)
                assert_same_array(incl, incl0)
                assert_same_array(proj, proj0)
        assert count > 0


# ---- End(M) as a view, against the full table solved the slow way ---------------


def view_inputs(field, gen):
    """The corner sums, plus over GF(p) a conjugated regular module and regular bimodule."""
    mods = corner_sums(field, gen)
    if field != QQ:
        mods.append(conjugated(left_regular_module(truncated_cycle(field.name, 2, 3)), gen))
        mods.append(conjugated(regular_bimodule(linear_quiver_algebra(field, 2)), gen))
    return mods


def solved_end_structure(field, homs, n):
    """(table, unit) of End on the basis homs by one general solve of every
    composite and the identity: no pivot read, no view."""
    r = len(homs)
    stack = field.canon(np.stack(homs))
    composites = np.concatenate([linalg.stack_product(field, f, stack) for f in stack] + [field.eye(n)[None]])
    coords = linalg.solve(field, stack.reshape(r, -1).T, composites.reshape(r * r + 1, -1).T)
    assert coords is not None
    return coords[:, : r * r].T.reshape(r, r, r), coords[:, r * r]


def decomposition_views(m, seed, monkeypatch):
    """The EndView of every node of decompose(m, seed), in the order they are built."""
    views = []
    real = decomp.EndView.__init__
    monkeypatch.setattr(decomp.EndView, "__init__", lambda view, mod, homs: views.append(view) or real(view, mod, homs))
    dec = decompose(m, seed=seed)
    monkeypatch.undo()
    assert len(views) == 2 * len(dec.summands) - 1
    return views


class TestEndView:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_every_node_reads_as_its_full_table(self, field, monkeypatch):
        """Each node's unit, products, mul and radical equal the full Algebra's,
        whose table equals one solved independently; the radical equals the one
        taken on the regular representation; and the search returns the same
        idempotent or certificate on the view as on the Algebra."""
        gen = np.random.default_rng(31)
        outcomes = set()
        for seed, m in enumerate(view_inputs(field, gen)):
            for view in decomposition_views(m, seed, monkeypatch):
                r = view.dim
                alg = view.algebra
                table, unit = solved_end_structure(field, list(view.stack), view.module.dim)
                assert_same_array(view.products(range(r)), table)
                assert_same_array(alg.table, field.canon(table))
                assert_same_array(view.unit, unit)
                assert_same_array(alg.unit, unit)
                rad = view.radical_rows()
                assert_same_array(rad, alg.radical_rows())
                assert_same_array(rad, matrix_algebra_radical(field, alg.left_regular_mats()))
                free = linalg.free_columns(r, linalg.echelon_pivots(field, rad))
                for idx in (free, np.arange(r)[::2]):
                    assert_same_array(view.products(idx), alg.products(idx))
                xs = [basis_vector(alg, i) for i in range(r)] + list(field.canon(field.rand_mat(gen, 6, r)))
                for k, x in enumerate(xs):
                    y = xs[(3 * k + 1) % len(xs)]
                    assert_same_array(view.mul(x, y), alg.mul(x, y))
                results = []
                for e in (view, alg):
                    try:
                        results.append(find_nontrivial_idempotent(e, np.random.Generator(np.random.PCG64(seed))))
                    except Inconclusive as exc:
                        results.append(("inconclusive", str(exc)))
                (got_vec, got_cert), (want_vec, want_cert) = results
                assert got_cert == want_cert
                if want_vec is None or isinstance(want_vec, str):
                    assert got_vec == want_vec
                else:
                    assert_same_array(got_vec, want_vec)
                outcomes.add(want_cert or "split")
        assert {"split", "dim_one"} <= outcomes

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_decompose_builds_no_structure_table(self, field, monkeypatch):
        """No node reads EndView.algebra, and the only Algebras decompose builds
        are semisimple quotients E/J, each of its node's dimension dim E - dim J."""
        mods = view_inputs(field, np.random.default_rng(32))
        quotient_dims, built = [], []
        search = decomp.find_nontrivial_idempotent
        init = Algebra.__init__

        def counted_search(e, gen, budget=64):
            quotient_dims.append(e.dim - e.radical_rows().shape[0])
            return search(e, gen, budget)

        def counted_init(alg, field, table, *args, **kwargs):
            built.append((np.shape(table), quotient_dims[-1]))
            init(alg, field, table, *args, **kwargs)

        monkeypatch.setattr(decomp, "find_nontrivial_idempotent", counted_search)
        monkeypatch.setattr(Algebra, "__init__", counted_init)
        monkeypatch.setattr(decomp.EndView, "algebra", property(lambda view: pytest.fail("End's table was built")))
        for seed, m in enumerate(mods):
            decompose(m, seed=seed)
        assert built and all(shape == (d, d, d) and d > 1 for shape, d in built)
        assert len(built) == sum(d > 1 for d in quotient_dims)


# ---- the idempotent search against the one it replaced --------------------------


def _old_find_nontrivial_idempotent(e_alg, gen, budget=64):
    """The search before it read dim S off rank J and mu_S off the powers of s:
    S's table first, then the minimal polynomial of left_mult_matrix(s), and
    e_s by Horner. Kept verbatim as the oracle."""
    field = e_alg.field
    if e_alg.dim == 1:
        return None, "dim_one"
    rad = e_alg.radical_rows()
    table_s, unit_s, proj, section = _quotient_structure(e_alg, rad)
    dim_s = table_s.shape[0]
    if dim_s == 1:
        return None, "field_quotient"
    quo = Algebra(field, table_s, unit_s, label=f"{e_alg.label}/J", check=False)

    def candidates():
        for i in range(dim_s):
            yield field.canon(field.eye(dim_s)[i])
        while True:
            yield field.canon(field.rand_mat(gen, 1, dim_s).reshape(-1))

    tried = 0
    for s in candidates():
        if tried >= budget:
            break
        tried += 1
        if field.is_zero(s):
            continue
        mu = minpoly_matrix(field, quo.left_mult_matrix(s))
        factors = factor_poly(field, mu)
        if len(mu) - 1 == dim_s and len(factors) == 1 and factors[0][1] == 1:
            return None, "field_quotient"
        proj_poly = crt_split_poly(field, mu, factors)
        if proj_poly is None:
            continue
        e_s = field.zeros(dim_s)
        for c in reversed(proj_poly):  # Horner
            e_s = quo.mul(e_s, s)
            if c != field.zero:
                e_s = field.canon(field.add(e_s, field.smul(c, quo.unit)))
        if field.is_zero(e_s) or field.eq(e_s, unit_s):
            raise AssertionError("projector polynomial gave a trivial idempotent")
        if not field.eq(quo.mul(e_s, e_s), e_s):
            raise AssertionError("projector polynomial gave a non-idempotent")
        x = field.matmul(section, e_s)
        three, two = field.scalar(3), field.scalar(2)
        for _ in range(64):
            x2 = e_alg.mul(x, x)
            if field.eq(x2, x):
                break
            x3 = e_alg.mul(x2, x)
            x = field.canon(field.sub(field.smul(three, x2), field.smul(two, x3)))
        else:
            raise AssertionError("idempotent lift did not converge")
        if not field.eq(field.matmul(proj, x), e_s):
            raise AssertionError("idempotent lift left its residue class")
        return x, None
    raise Inconclusive(
        f"no idempotent or locality certificate for {e_alg.label} "
        f"(dim {e_alg.dim}, semisimple quotient dim {dim_s}) within budget {budget}"
    )


SEARCH_FIELDS = [GF(2), GF(3), GF(101), GF(1048573), QQ]


def search_outcome(search, e, seed, budget):
    """(vector, certificate), or ("inconclusive", message)."""
    try:
        return search(e, np.random.Generator(np.random.PCG64(seed)), budget)
    except Inconclusive as exc:
        return "inconclusive", str(exc)


def assert_same_search(e, seed, budget=64):
    """Both searches give the same vector and certificate, or the same Inconclusive
    message; returns "split", the certificate or "inconclusive"."""
    got, want = (search_outcome(search, e, seed, budget) for search in (find_nontrivial_idempotent, _old_find_nontrivial_idempotent))
    assert got[1] == want[1]
    if isinstance(want[0], np.ndarray):
        assert_same_array(got[0], want[0])
        return "split"
    assert got[0] == want[0]
    return want[1] if want[0] is None else want[0]


def search_modules(field, gen):
    """view_inputs plus random-basis sums with repeated and distinct summands,
    and k[x]/x^2 on itself, whose local End has dimension 2."""
    (p0, p1, p2, s0), (q0, q1) = summand_fixtures(field)
    sums = [summed([p0, p0, p1, s0], gen), summed([q0, q1, q1], gen), summed([p2, p2, p2], gen)]
    return view_inputs(field, gen) + sums + [conjugated(left_regular_module(dual_numbers(field.name)), gen)]


def search_algebras(field, gen):
    """Algebras read directly: semisimple group algebras (products of fields,
    split or not) and matrix algebras, each also in a random basis."""
    algs = [group_algebra_cyclic(field, n) for n in (2, 3, 4, 5)] + [matrix_units_algebra(field, 2)]
    algs = [a for a in algs if a.radical_rows().shape[0] == 0]
    return algs + [conjugated_basis(a, gen) for a in algs]


class TestSearchAgainstTheOldSearch:
    @pytest.mark.parametrize("field", SEARCH_FIELDS, ids=str)
    def test_every_decomposition_node(self, field, monkeypatch):
        """Every node of every decomposition, read as its EndView and as the
        full Algebra, at its own seed and another."""
        gen = np.random.default_rng(41)
        outcomes = []
        for seed, m in enumerate(search_modules(field, gen)):
            for view in decomposition_views(m, seed, monkeypatch):
                for e in (view, view.algebra):
                    outcomes += [assert_same_search(e, s) for s in (seed, seed + 100)]
        assert {"split", "dim_one", "field_quotient"} <= set(outcomes)

    @pytest.mark.parametrize("field", SEARCH_FIELDS, ids=str)
    def test_algebras_read_directly(self, field):
        """Semisimple algebras, where the standard basis and random elements
        meet minimal polynomials of every shape; small budgets run dry."""
        gen = np.random.default_rng(43)
        outcomes = []
        for a in search_algebras(field, gen):
            for seed in range(4):
                outcomes += [assert_same_search(a, seed, budget) for budget in (1, 2, 64)]
        assert {"split", "inconclusive"} <= set(outcomes)

    def test_division_algebras(self):
        """Q(sqrt 2) and GF(4) are fields; the quaternions run the budget dry."""
        outcomes = [assert_same_search(quaternions(), seed, 16) for seed in range(3)]
        for field, sq in ((QQ, 2), (GF(2), None)):
            table = field.zeros((2, 2, 2))
            table[0, 0], table[0, 1], table[1, 0] = [1, 0], [0, 1], [0, 1]
            table[1, 1] = [2, 0] if sq else [1, 1]
            outcomes.append(assert_same_search(Algebra(field, table, [1, 0]), 0))
        assert outcomes == ["inconclusive"] * 3 + ["field_quotient"] * 2

    @pytest.mark.parametrize("field", SEARCH_FIELDS, ids=str)
    def test_dim_one_quotients_build_no_quotient(self, field, monkeypatch):
        """dim S comes from rank J: S's table is built only when dim S > 1."""
        gen = np.random.default_rng(47)
        es = [e for seed, m in enumerate(search_modules(field, gen))
              for view in decomposition_views(m, seed, monkeypatch) for e in (view, view.algebra)]
        dims = [e.dim - e.radical_rows().shape[0] for e in es]
        built = []
        real = decomp._quotient_structure
        monkeypatch.setattr(decomp, "_quotient_structure", lambda e, rad: built.append(e.dim - rad.shape[0]) or real(e, rad))
        for e in es:
            find_nontrivial_idempotent(e, np.random.Generator(np.random.PCG64(0)))
        assert any(d == 1 < e.dim for e, d in zip(es, dims))
        assert built == [d for d in dims if d > 1]
