"""Per-algebra structure held on the algebra: the primitive family, projectives, simples and projective leaves.

projective_indecomposables, simple_modules and projective_leaves build once
per algebra and hold the result, and projective_indecomposables installs the
primitive idempotent family when an algebra has none; is_projective reads dimensions off it
instead of building a projective cover, and the quality checks split the
held leaves off their covers without solving End(P_k) again. The cover-based test it replaced is kept below as the
oracle and compared on random modules over basic, non-basic and enveloping
algebras, over GF(2), GF(3), GF(101) and Q.
"""

import numpy as np
import pytest

from jorder import catalog, decomp, modules
from jorder.algebras import Algebra, linear_quiver_algebra, tensor_algebra
from jorder.decomp import complete_primitive_idempotents, projective_leaves
from jorder.errors import NonSplitResidueField
from jorder.fields import GF, QQ
from jorder.groups import invariant_subalgebra, skew_group_algebra
from jorder.modules import (
    is_projective,
    left_regular_module,
    projective_cover,
    projective_indecomposables,
    random_left_module,
    simple_modules,
)
from jorder.witnesses import faithful_projinj_check, generators_check, verify_j_geq


def cover_is_projective(m):
    """is_projective before the held structure: compare against the projective cover's dimension."""
    cover = projective_cover(m)
    return cover.module.dim == m.dim


def matrix_algebra(field, n):
    """M_n(k) on the matrix units E_ij (index i*n + j), with the primitive family E_ii."""
    d = n * n
    table = field.zeros((d, d, d))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                table[i * n + j, j * n + l, i * n + l] = field.one
    diag = [field.eye(d)[i * n + i] for i in range(n)]
    unit = field.canon(sum(diag))
    return Algebra(field, table, unit, idempotents=diag, idempotents_primitive=True, label=f"M{n}")


def algebras(field):
    """A_3, the Kronecker algebra, lambda (2,2), the non-basic A_2 (x) M_2 and A_2 (x) (dual numbers)^op."""
    name = field.name
    a2 = linear_quiver_algebra(field, 2)
    dual = catalog.build("trunc_poly", field=name, k=2)
    dual_op = dual.opposite()
    complete_primitive_idempotents(dual_op)
    return [
        linear_quiver_algebra(field, 3),
        catalog.build("kronecker", field=name),
        catalog.build("lambda", field=name, n=2, k=2),
        tensor_algebra(a2, matrix_algebra(field, 2), label="A2(x)M2"),
        tensor_algebra(a2, dual_op, label="A2(x)D^op"),
    ]


def samples(a, gen, count=6):
    """The projectives, the simples and random quotients of projective sums."""
    mods = [p for p, _, _ in projective_indecomposables(a)]
    mods += [s for s, _ in simple_modules(a)]
    mods += [random_left_module(a, gen) for _ in range(count)]
    return [m for m in mods if m.dim]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(101), QQ], ids=lambda f: f.name)
def test_is_projective_matches_the_cover_oracle(field):
    gen = np.random.Generator(np.random.PCG64(11))
    for a in algebras(field):
        complete_primitive_idempotents(a)
        answers = []
        for m in samples(a, gen):
            want = cover_is_projective(m)
            assert is_projective(m) == want, (a.label, m.label)
            answers.append(want)
        assert True in answers and False in answers, a.label


def test_non_basic_algebra_has_fewer_simples_than_projectives():
    a = tensor_algebra(linear_quiver_algebra(GF(3), 2), matrix_algebra(GF(3), 2))
    assert len(projective_indecomposables(a)) == 4
    simples = simple_modules(a)
    assert [s.dim for s, _ in simples] == [2, 2]
    # the multiplicity of P_k in the cover of A is dim e_k.top A, and dim P(A) = dim A
    assert is_projective(left_regular_module(a))


def test_projectives_are_built_once_per_algebra(monkeypatch):
    a = linear_quiver_algebra(GF(5), 3)
    built = []
    submodule = modules.submodule

    def counted(*args, **kwargs):
        built.append(args[0].label)
        return submodule(*args, **kwargs)

    monkeypatch.setattr(modules, "submodule", counted)
    mods = [left_regular_module(a)] + [s for s, _ in simple_modules(a)]
    for _ in range(3):
        for m in mods:
            projective_cover(m)
            is_projective(m)
    assert len(built) == len(a.idempotents) == 3
    assert projective_indecomposables(a) is projective_indecomposables(a)
    assert simple_modules(a) is simple_modules(a)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=lambda f: f.name)
def test_projective_leaves_are_the_held_projectives(field):
    for a in algebras(field):
        complete_primitive_idempotents(a)
        leaves = projective_leaves(a)
        assert projective_leaves(a) is leaves
        projs = projective_indecomposables(a)
        assert len(leaves) == len(projs)
        for k, leaf in enumerate(leaves):
            assert leaf.module is projs[k][0]
            assert leaf.certificate in ("dim_one", "field_quotient")
            assert leaf._end[0].dim == len(modules.hom_space(leaf.module, leaf.module))


def test_quality_checks_solve_no_end_twice(monkeypatch):
    w = catalog.resolve("catalog:kronecker_witness")
    cert = verify_j_geq(w, quality=False)
    solved = []
    endomorphism_algebra = decomp.endomorphism_algebra

    def counted(m):
        solved.append(m.label)
        return endomorphism_algebra(m)

    monkeypatch.setattr(decomp, "endomorphism_algebra", counted)
    assert generators_check(w, cert) and faithful_projinj_check(w, cert)
    assert solved  # the first run fills the leaves
    solved.clear()
    assert generators_check(w, cert) and faithful_projinj_check(w, cert)
    assert solved == []


def test_opposite_builds_its_own_projectives():
    a = linear_quiver_algebra(GF(5), 3)
    projs = projective_indecomposables(a)
    simple_modules(a)
    projective_leaves(a)
    aop = a.opposite()
    assert aop._projectives is None and aop._simples is None and aop._projective_leaves is None
    projs_op = projective_indecomposables(aop)
    assert all(p.left_algebra is aop for p, _, _ in projs_op)
    assert all(p.left_algebra is a for p, _, _ in projs)
    # A_3 has left projectives of dims 1, 2, 3 at its three vertices; A_3^op reverses them
    assert [p.dim for p, _, _ in projs] == [p.dim for p, _, _ in projs_op][::-1]
    assert all(s.left_algebra is aop for s, _ in simple_modules(aop))


def test_projectives_install_the_primitive_family():
    a3 = linear_quiver_algebra(GF(5), 3)
    a = Algebra(a3.field, a3.table, a3.unit, idempotents=[a3.unit])  # a complete family, not primitive
    projs = projective_indecomposables(a)
    assert sorted(p.dim for p, _, _ in projs) == [1, 2, 3]
    assert a.idempotents_primitive
    assert projective_indecomposables(a) is projs


def fresh_algebras():
    """Algebras built without a primitive family: the invariants of lambda (3,2)
    under rotation over GF(7), the skew algebra of zigzag_c2, and their opposites."""
    sub, _ = invariant_subalgebra(catalog.build("lambda_rot", field="GF(7)", n=3, k=2))
    skew, _ = skew_group_algebra(catalog.build("zigzag_c2"))
    return [sub, skew, sub.opposite(), skew.opposite()]


@pytest.fixture(scope="module")
def twin_families():
    """For each fresh algebra, the families complete_primitive_idempotents installs
    on a twin of the same table with seeds 0-3."""
    return [
        [complete_primitive_idempotents(Algebra(x.field, x.table, x.unit, check=False), seed=seed) for seed in range(4)]
        for x in fresh_algebras()
    ]


@pytest.mark.parametrize("read", [
    pytest.param(lambda x, gen: is_projective(left_regular_module(x)), id="is_projective"),
    pytest.param(lambda x, gen: simple_modules(x), id="simple_modules"),
    pytest.param(lambda x, gen: projective_leaves(x), id="projective_leaves"),
    pytest.param(lambda x, gen: random_left_module(x, gen), id="random_left_module"),
])
def test_readers_install_the_primitive_family(read, twin_families):
    gen = np.random.default_rng(0)
    for x, families in zip(fresh_algebras(), twin_families):
        assert not x.idempotents_primitive, x.label
        read(x, gen)
        assert x.idempotents_primitive, x.label
        for family in families:
            assert len(family) == len(x.idempotents), x.label
            assert all(x.field.eq(e, f) for e, f in zip(x.idempotents, family)), x.label


def test_non_split_residue_field_is_raised_on_every_call():
    f = GF(2)
    table = f.zeros((2, 2, 2))
    # k[t]/(t^2+t+1), the field with four elements over GF(2)
    table[0, 0] = [1, 0]
    table[0, 1] = [0, 1]
    table[1, 0] = [0, 1]
    table[1, 1] = [1, 1]
    quartic = Algebra(f, table, [1, 0], idempotents=[[1, 0]], idempotents_primitive=True)
    reg = left_regular_module(quartic)
    for _ in range(2):
        with pytest.raises(NonSplitResidueField):
            projective_cover(reg)
        with pytest.raises(NonSplitResidueField):
            is_projective(reg)
        assert [s.dim for s, _ in simple_modules(quartic)] == [2]
