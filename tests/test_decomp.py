"""Krull-Schmidt machinery against exhaustive idempotent enumeration.

The oracle enumerates every element of a small endomorphism algebra over
GF(p), collects all idempotents by direct squaring, and refines {1} into a
maximal orthogonal family; its size and image ranks must match the library's
certified decomposition.
"""

import numpy as np
import pytest

from jorder import linalg
from jorder.algebras import Algebra, linear_quiver_algebra, quotient_algebra
from jorder.decomp import (
    are_isomorphic,
    block_count,
    complete_primitive_idempotents,
    decompose,
    endomorphism_algebra,
    find_nontrivial_idempotent,
    fingerprint,
    is_connected,
    is_direct_summand,
    is_symmetric,
    summand_isomorphism,
)
from jorder.errors import Inconclusive
from jorder.fields import GF, QQ
from jorder.modules import (
    direct_sum,
    left_regular_module,
    projective_indecomposables,
    random_left_module,
    regular_bimodule,
    simple_modules,
)
from jorder.quivers import parse_presentation
from jorder.algebras import algebra_from_quiver


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
    e_alg, homs = endomorphism_algebra(m)
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
        e_alg, homs = endomorphism_algebra(left_regular_module(a))
        assert e_alg.dim == a.dim == len(homs)
        assert e_alg.loewy_layer_dims() == a.loewy_layer_dims()

    def test_table_is_composition(self):
        a = linear_quiver_algebra(GF(5), 2)
        e_alg, homs = endomorphism_algebra(left_regular_module(a))
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
        """End(M)'s table and unit, and every composite summand_isomorphism
        reads, use pivots checked once per basis rather than once per read."""
        checked = []
        real = linalg.echelon_pivots
        monkeypatch.setattr(linalg, "echelon_pivots", lambda field, rows: checked.append(rows.shape) or real(field, rows))
        reg = left_regular_module(linear_quiver_algebra(GF(5), 3))
        _, homs = endomorphism_algebra(reg)
        assert len(homs) == 6 and checked.count((6, 36)) == 1
        lam = truncated_cycle("GF(3)", 2, 5)
        dec = decompose(left_regular_module(lam), seed=0)
        si, sj = dec.summands
        checked.clear()
        # End(P) has a 3-dim basis with a 2-dim radical; three composites are nonzero
        assert summand_isomorphism(si, sj) is None
        assert checked == [(3, 25), (2, 3)]


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
        ok, evidence = is_direct_summand(p2, left_regular_module(a))
        assert ok
        assert evidence["left_classes"] == [(1, 1)]

    def test_simple_is_not_summand_of_regular(self):
        a = linear_quiver_algebra(GF(5), 2)
        s1 = simple_modules(a)[0][0]
        assert s1.dim == 1
        ok, evidence = is_direct_summand(s1, left_regular_module(a))
        assert not ok
        assert evidence["missing_class"] == {"dim": 1, "multiplicity": 1}

    def test_multiplicity_bound(self):
        a = linear_quiver_algebra(GF(5), 2)
        projs = projective_indecomposables(a)
        p1, p2 = projs[0][0], projs[1][0]
        small, _, _ = direct_sum([p1, p2])
        big, _, _ = direct_sum([p1, p1, p2])
        ok, _ = is_direct_summand(small, big)
        assert ok
        ok, evidence = is_direct_summand(big, small)
        assert not ok
        assert evidence["missing_class"] == {"dim": 2, "multiplicity": 2}


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
        rows = np.asarray(a4.basis_vector(i_dead)).reshape(1, -1)
        rows = np.concatenate(
            [rows, np.asarray(a4.basis_vector(a4.labels.index("a1*a2*a3"))).reshape(1, -1)]
        )
        c4 = quotient_algebra(a4, a4.field.canon(rows), label="C4")
        assert not c4.idempotents_primitive
        es = complete_primitive_idempotents(c4)
        assert len(es) == 4
        assert c4.idempotents_primitive
        dims = sorted(p.dim for p, _, _ in projective_indecomposables(c4))
        assert dims == [1, 2, 2, 3]

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
