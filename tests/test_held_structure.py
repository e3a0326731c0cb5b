"""Structure held on an algebra or a module instead of being rebuilt.

On the algebra: the primitive family, projectives, simples and the
enveloping algebra A (x) B^op of witnesses._enveloping_algebra.
On the module: its graded pieces and its generator matrices in piece
coordinates, read by hom_space and by the dimension pre-filter of
summand_isomorphism, and a weak reference to its certified leaf, read by
decompose. On a witness pair: its decomposition of the regular bimodule,
which witness_search hands to each attempt's pair.

projective_indecomposables and simple_modules build once per algebra and
hold the result, and projective_indecomposables installs the primitive
idempotent family when an algebra has none; is_projective reads dimensions
off it instead of building a projective cover. The cover-based test it
replaced is kept below as the oracle and compared on random modules over
basic, non-basic and enveloping algebras, over GF(2), GF(3), GF(101) and Q.
The quality checks read cover multiplicities and annihilators, so they
solve no End at all.
"""

import gc
import warnings
import weakref

import numpy as np
import pytest

from jorder import catalog, decomp, linalg, modules, serialize, witnesses
from jorder.algebras import Algebra, algebra_from_quiver, tensor_algebra
from jorder.decomp import (
    Summand,
    are_isomorphic,
    complete_primitive_idempotents,
    decompose,
    summand_isomorphism,
)
from jorder.errors import NonSplitResidueField
from jorder.fields import GF, QQ, field_from_name
from jorder.groups import invariant_subalgebra, skew_group_algebra
from jorder.quivers import parse_presentation
from jorder.modules import (
    Module,
    direct_sum,
    dual_module,
    is_projective,
    left_regular_module,
    projective_cover,
    projective_indecomposables,
    random_left_module,
    regular_bimodule,
    simple_modules,
)
from jorder.witnesses import JWitnessPair, bimodule_as_env_module, faithful_projinj_check, generators_check, verify_j_geq

from oracles import leaf_pair, linear_quiver_algebra, projective_leaves
from test_decomp import _old_summand_isomorphism

FIELDS = [GF(2), GF(3), GF(101), QQ]


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
        projs = projective_indecomposables(a)
        assert len(leaves) == len(projs)
        for k, leaf in enumerate(leaves):
            assert leaf.module is projs[k][0]
            assert leaf.certificate in ("dim_one", "field_quotient")
            assert leaf._end[0].dim == len(modules.hom_space(leaf.module, leaf.module))


def test_quality_checks_solve_no_end(monkeypatch):
    w = catalog.resolve("catalog:kronecker_witness")
    cert = verify_j_geq(w, quality=False)
    solved = []
    endomorphism_algebra = decomp.endomorphism_algebra

    def counted(m):
        solved.append(m.label)
        return endomorphism_algebra(m)

    monkeypatch.setattr(decomp, "endomorphism_algebra", counted)
    for _ in range(2):
        assert generators_check(w, cert) and faithful_projinj_check(w, cert)
        assert solved == []


def test_opposite_builds_its_own_projectives():
    a = linear_quiver_algebra(GF(5), 3)
    projs = projective_indecomposables(a)
    simple_modules(a)
    aop = a.opposite()
    assert aop._projectives is None and aop._simples is None
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


# ---- structure held on a module ------------------------------------------------


def same_array(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and bool((x == y).all())


def same_pieces(got, want):
    return len(got) == len(want) and all(
        same_array(b, bw) and same_array(c, cw) for (b, c), (bw, cw) in zip(got, want)
    )


def conjugated(m, gen):
    """m on the same space in a seeded random basis."""
    f = m.field
    t = f.canon(f.rand_mat(gen, m.dim, m.dim))
    while linalg.rank(f, t) != m.dim:
        t = f.canon(f.rand_mat(gen, m.dim, m.dim))
    ti = linalg.invert(f, t)

    def conj(mats):
        return None if mats is None else f.canon(np.stack([f.matmul(t, f.matmul(x, ti)) for x in mats]))

    return Module(m.left_algebra, m.right_algebra, conj(m.left_mats), conj(m.right_mats), f"{m.label}^t", check=False)


def decomposition_inputs(field):
    """A left module over A_3 with a repeated class, one over the Kronecker algebra, and two
    copies of the regular bimodule of the dual numbers, with the acting algebras' families installed."""
    a3 = linear_quiver_algebra(field, 3)
    kron = catalog.build("kronecker", field=field.name)
    dual = catalog.build("trunc_poly", field=field.name, k=2)
    for alg in (a3, kron, dual):
        complete_primitive_idempotents(alg)
    p = [q for q, _, _ in projective_indecomposables(a3)]
    k = [q for q, _, _ in projective_indecomposables(kron)]
    return [
        direct_sum([p[0], p[1], p[1]])[0],
        direct_sum([k[0], k[1]])[0],
        direct_sum([regular_bimodule(dual)] * 2)[0],
    ]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_held_pieces_and_stacks_equal_fresh_builds(field, monkeypatch):
    """At every node of a decomposition, the held graded pieces, frames and
    generator matrices in piece coordinates are the arrays the builders
    return again, keyed by the lists they were taken against."""
    nodes = []

    class Recording(decomp.EndView):
        def __init__(self, m, homs):
            nodes.append(m)
            super().__init__(m, homs)

    monkeypatch.setattr(decomp, "EndView", Recording)
    gen = np.random.default_rng(3)
    for m in decomposition_inputs(field):
        nodes.clear()
        decompose(m if field == QQ else conjugated(m, gen), seed=1)
        assert len(nodes) > 1
        for mod in nodes:
            families = modules._families(mod)
            fresh = modules._pieces(mod, families[0] or [], families[1] or [])
            held = mod._graded_pieces
            if held is not None:
                assert held[0] is families[0] and held[1] is families[1]
                assert same_pieces(held[2], fresh)
            assert same_pieces(modules._graded(mod, *families), fresh)
            assert modules._graded(mod, *families) is mod._graded_pieces[2]
            basis, coords, dims = frame = modules._frame(mod, *families)
            assert same_array(basis, np.concatenate([b for b, _ in fresh], axis=1))
            assert same_array(coords, np.concatenate([c for _, c in fresh]))
            assert dims == tuple(b.shape[1] for b, _ in fresh)
            for side, (mats, alg) in enumerate(modules._sides(mod)):
                held = mod._piece_stacks[side]
                if mats is None or held is None:
                    continue
                assert held[0][0] is alg.generators and held[0][2] is frame
                stack = modules._generator_actions(mats, alg)[modules._other_generators(alg)]
                assert same_array(held[1], linalg.stack_product(field, coords, field.matmul(stack, basis)))


def test_a_changed_list_misses_the_key():
    a = linear_quiver_algebra(GF(5), 3)
    complete_primitive_idempotents(a)
    m = direct_sum([p for p, _, _ in projective_indecomposables(a)])[0]
    pieces = modules._graded(m, *modules._families(m))
    frame = modules._frame(m, *modules._families(m))
    stack = modules._piece_actions(m, 0, a, frame)
    assert modules._piece_actions(m, 0, a, frame) is stack
    assert modules._graded(m, *modules._families(m)) is pieces
    a.generators = list(a.generators)
    a.idempotents = list(a.idempotents)
    assert modules._piece_actions(m, 0, a, frame) is not stack
    assert same_array(modules._piece_actions(m, 0, a, frame), stack)
    assert modules._graded(m, *modules._families(m)) is not pieces
    assert same_pieces(modules._graded(m, *modules._families(m)), pieces)


def test_hom_space_takes_the_stack_of_n_against_the_generators_of_m():
    """n's algebra has m's table but other generators: the constraint stack
    of n is taken against m's generator list, and the answer is the one over
    m's algebra."""
    a = catalog.build("kronecker", field="GF(3)")
    arrows = a.field.add(a.generators[2], a.generators[3])
    twin = Algebra(a.field, a.table, a.unit, generators=[arrows, *a.generators], idempotents=a.idempotents)
    m = direct_sum([p for p, _, _ in projective_indecomposables(a)])[0]
    n = Module(twin, None, m.left_mats, None, "twin", check=True)
    same = Module(a, None, m.left_mats, None, "same", check=False)
    got = modules.hom_space(m, n)
    want = modules.hom_space(m, same)
    assert len(got) == len(want) == len(modules.hom_space(m, m))
    assert all(same_array(g, w) for g, w in zip(got, want))
    assert n._piece_stacks[0][0][0] is a.generators


def test_pieces_are_built_once_per_module(monkeypatch):
    """Across decompose and are_isomorphic, no module object builds its pieces twice."""
    built = []
    pieces = modules._pieces

    def counted(m, *families):
        built.append(m)
        return pieces(m, *families)

    monkeypatch.setattr(modules, "_pieces", counted)
    gen = np.random.default_rng(5)
    for m in decomposition_inputs(GF(101)):
        built.clear()
        decompose(m, seed=0)
        assert are_isomorphic(m, conjugated(m, gen), seed=0)
        assert built
        assert len({id(x) for x in built}) == len(built)


# ---- the dimension pre-filter of summand_isomorphism -----------------------------


def unfiltered_summand_isomorphism(leaf, n):
    """summand_isomorphism without the piece-dimension filter: the two-Hom Fitting test alone."""
    if leaf.module.dim != n.dim:
        return None
    pair = leaf_pair(leaf, n)
    return None if pair is None else pair[0]


def injectives(a):
    """The indecomposable injective left modules D(e A), duals of the right projectives."""
    return [
        dual_module(Module(None, a, None, p.left_mats, f"{p.label} as right", check=False))
        for p, _, _ in projective_indecomposables(a.opposite())
    ]


def kronecker_rep(a, x, y, label):
    """The Kronecker representation k^c --x, y--> k^r as a left module (e_1, e_2, a, b act)."""
    f = a.field
    x, y = f.canon(np.atleast_2d(x)), f.canon(np.atleast_2d(y))
    r, c = x.shape
    d = r + c

    def block(mat):
        out = f.zeros((d, d))
        out[c:, :c] = mat
        return out

    e1, e2 = f.zeros((d, d)), f.zeros((d, d))
    e1[:c, :c], e2[c:, c:] = f.eye(c), f.eye(r)
    return Module(a, None, np.stack([e1, e2, block(x), block(y)]), None, label, check=True)


def kronecker_modules(field, gen):
    """Preprojectives (n, n+1), preinjectives (n+1, n) and regular modules (1, 1) and (2, 2)."""
    a = catalog.build("kronecker", field=field.name)
    complete_primitive_idempotents(a)
    f, mods = field, []
    for n in (1, 2):
        eye, zero = f.eye(n), f.zeros((1, n))
        mods.append(kronecker_rep(a, np.concatenate([eye, zero]), np.concatenate([zero, eye]), f"P({n},{n + 1})"))
        mods.append(kronecker_rep(a, np.concatenate([eye, zero.T], axis=1), np.concatenate([zero.T, eye], axis=1), f"I({n + 1},{n})"))
    for lam in f.canon(np.array([0, 1, 2, 5])):
        mods.append(kronecker_rep(a, [[1]], [[lam]], f"R({lam})"))
        mods.append(kronecker_rep(a, [[lam]], [[1]], f"R'({lam})"))
    jordan = f.canon(np.array([[2, 1], [0, 2]]))
    mods.append(kronecker_rep(a, f.eye(2), jordan, "R2(2)"))
    mods.append(kronecker_rep(a, f.eye(2), f.canon(np.array([[2, 0], [0, 2]])), "R(2)+R(2)"))
    return mods


def a3_modules(field, gen):
    a = linear_quiver_algebra(field, 3)
    complete_primitive_idempotents(a)
    mods = [p for p, _, _ in projective_indecomposables(a)] + injectives(a)
    mods += [s for s, _ in simple_modules(a)] + [random_left_module(a, gen) for _ in range(4)]
    return mods


def bimodule_modules(field, gen):
    a = linear_quiver_algebra(field, 3)
    complete_primitive_idempotents(a)
    complete_primitive_idempotents(a.opposite())
    reg = regular_bimodule(a)
    return [reg, dual_module(reg)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_piece_filter_matches_the_unfiltered_leaf_test(field, monkeypatch):
    """summand_isomorphism with the pre-filter equals the bare leaf test on every
    pair of a leaf and a module of its dimension, bit for bit, and solves no
    Hom on the pairs the filter rejects. The inputs cover both sides of the
    filter: pairs it rejects (A_3 projectives against injectives, Kronecker
    preprojectives against preinjectives) and non-isomorphic pairs it passes
    (Kronecker regular modules)."""
    solved = []
    hom_space = decomp.hom_space
    monkeypatch.setattr(decomp, "hom_space", lambda m, n: solved.append(m) or hom_space(m, n))
    gen = np.random.default_rng(17)
    tally = {"filtered": 0, "passed_not_iso": 0, "iso": 0}
    for build in (a3_modules, kronecker_modules, bimodule_modules):
        mods = [m for m in build(field, gen) if m.dim]
        leaves = [z for m in mods for z in decompose(m, seed=2).summands]
        for leaf in leaves:
            for n in mods + [z.module for z in leaves]:
                if n.dim != leaf.module.dim or n is leaf.module:
                    continue
                want = unfiltered_summand_isomorphism(leaf, n)
                solved.clear()
                got = summand_isomorphism(leaf, n)
                assert (got is None) == (want is None), (leaf.module.label, n.label)
                if got is not None:
                    tally["iso"] += 1
                    assert same_array(got, want)
                elif not modules.same_piece_dims(leaf.module, n):
                    tally["filtered"] += 1
                    assert solved == []
                else:
                    tally["passed_not_iso"] += 1
    assert all(tally.values()), tally


# ---- the one-Hom leaf test against the two-Hom Fitting test ------------------------


def fitting_classes(dec):
    """decompose's class grouping with the two-Hom Fitting test (oracles.leaf_pair) on solved Homs."""
    classes = []
    for idx, s in enumerate(dec.summands):
        for cls in classes:
            rep = dec.summands[cls[0]]
            if rep.module.dim == s.module.dim and leaf_pair(rep, s.module) is not None:
                cls.append(idx)
                break
        else:
            classes.append([idx])
    return classes


def reversed_basis(m):
    """m in its basis taken in reverse order."""
    f = m.field

    def conj(mats):
        return None if mats is None else f.canon(np.ascontiguousarray(mats[:, ::-1, ::-1]))

    return Module(m.left_algebra, m.right_algebra, conj(m.left_mats), conj(m.right_mats), f"{m.label}^rev", check=False)


def leaf_test_decompositions(field, gen):
    """Decompositions of the catalog inputs, A_3 and Kronecker modules, sums of copies of
    the Kronecker R2(2), whose End has a radical, and of a random conjugate of each.

    Over Q a module with a repeated summand is not conjugated: the search does not
    split M_2(Q) in a random basis within its budget (see test_decomp.conjugated).
    The regular module Z of k[x]/x^3 is summed with Z in reversed basis, both ways
    round: at every seed one of the two groups two leaves whose first Hom basis
    map is not bijective (Hom(Z, Z^rev) = J End(Z) with J the reversal, and its
    first echelon map is J x^2).
    """
    kron = kronecker_modules(field, gen)
    jordan = [m for m in kron if m.label == "R2(2)"]
    cubic = catalog.build("trunc_poly", field=field.name, k=3)
    complete_primitive_idempotents(cubic)
    z = left_regular_module(cubic)
    mods = decomposition_inputs(field) + [m for m in a3_modules(field, gen) + kron if m.dim]
    mods += [direct_sum(jordan * 2)[0], direct_sum(jordan * 3)[0]]
    mods += [direct_sum([z, reversed_basis(z)])[0], direct_sum([reversed_basis(z), z])[0]]
    decs = [decompose(m, seed=seed) for seed, m in enumerate(mods)]
    again = [conjugated(d.module, gen) for d in decs if field != QQ or all(len(cls) == 1 for cls in d.classes)]
    return decs + [decompose(m, seed=len(decs) + k) for k, m in enumerate(again)]


def singular_first_map(field, x, y):
    """Whether the first map of the canonical basis of Hom(x, y) is not bijective."""
    return linalg.rank(field, modules.hom_space(x, y)[0]) < y.dim


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_one_hom_leaf_test_equals_the_fitting_test(field):
    """summand_isomorphism returns the matrix the two-Hom Fitting test returned
    (test_decomp._old_summand_isomorphism) on every pair of a leaf and a module
    of its dimension, isomorphic or not, and decompose's classes equal the
    grouping the Fitting test makes, on catalog decompositions and on random
    conjugates. The tally shows every case met, among them isomorphic pairs
    and class members whose first Hom basis map is not bijective."""
    decs = leaf_test_decompositions(field, np.random.default_rng(35))
    mods = [dec.module for dec in decs]
    tally = {"iso": 0, "iso_first_map_singular": 0, "not_iso_nonzero_hom": 0, "class_first_map_singular": 0}
    leaves = []
    for dec in decs:
        assert dec.classes == fitting_classes(dec), dec.module.label
        tally["class_first_map_singular"] += sum(
            singular_first_map(field, dec.summands[cls[0]].module, dec.summands[i].module)
            for cls in dec.classes for i in cls[1:]
        )
        leaves += dec.summands
    for leaf in leaves:
        for n in mods + [z.module for z in leaves]:
            if n.dim != leaf.module.dim or n is leaf.module or not modules._compatible(leaf.module, n):
                continue
            # the oracle reads only the module of its second summand
            want = _old_summand_isomorphism(leaf, Summand(n, None, None, None))
            got = summand_isomorphism(leaf, n)
            assert (got is None) == (want is None), (leaf.module.label, n.label)
            if got is not None:
                assert same_array(got, want)
                tally["iso"] += 1
                tally["iso_first_map_singular"] += singular_first_map(field, leaf.module, n)
            elif modules.same_piece_dims(leaf.module, n) and modules.hom_space(leaf.module, n):
                tally["not_iso_nonzero_hom"] += 1
    assert all(tally.values()), tally


def test_a_leaf_test_solves_one_hom_and_the_grouping_reads_one_corner_a_pair(monkeypatch):
    """One summand_isomorphism call that passes the piece filter runs one _hom_rows
    solve, and one the filter rejects runs none. decompose's class grouping calls
    _corner once for each leaf and each earlier class representative of its
    dimension it compares, in order: Hom(rep, s) only, never Hom(s, rep)."""
    field = GF(3)
    solves, corners = [], []
    hom_rows, corner = modules._hom_rows, decomp._corner
    monkeypatch.setattr(modules, "_hom_rows", lambda m, n: solves.append((m, n)) or hom_rows(m, n))
    monkeypatch.setattr(decomp, "_corner", lambda f, homs, proj, incl: corners.append((proj, incl)) or corner(f, homs, proj, incl))
    decs = leaf_test_decompositions(field, np.random.default_rng(36))
    # corners holds every map it was passed, so no two of them share an id; the
    # node splits read their End off the parent's with maps no leaf holds
    leaf_at = {id(s.projection): (d, j) for d, dec in enumerate(decs) for j, s in enumerate(dec.summands)}
    incl_at = {id(s.inclusion): (d, j) for d, dec in enumerate(decs) for j, s in enumerate(dec.summands)}
    read = [(*leaf_at[id(p)], incl_at[id(i)][1]) for p, i in corners if id(p) in leaf_at]
    want = []
    for d, dec in enumerate(decs):
        ss, first = dec.summands, {i: cls[0] for cls in dec.classes for i in cls}
        for j, s in enumerate(ss):
            for cls in dec.classes:
                r = cls[0]
                if r >= j:
                    break
                if ss[r].module.dim == s.module.dim:
                    want.append((d, j, r))
                if r == first[j]:
                    break
    assert want and read == want
    leaves = [s for dec in decs for s in dec.summands]
    for leaf in leaves:
        for n in (z.module for z in leaves):
            if n.dim != leaf.module.dim or n is leaf.module or not modules._compatible(leaf.module, n):
                continue
            solves.clear()
            summand_isomorphism(leaf, n)
            assert solves == ([(leaf.module, n)] if modules.same_piece_dims(leaf.module, n) else [])


def unfiltered_are_isomorphic(m, n, seed=0):
    """are_isomorphic without the piece-dimension filter."""
    if m.dim != n.dim:
        return False
    dm = decompose(m, seed=seed)
    if len(dm.summands) == 1:
        return summand_isomorphism(dm.summands[0], n) is not None
    dn = decompose(n, seed=seed + 1)
    if len(dm.summands) != len(dn.summands):
        return False
    return all(d is not None and len(dn.classes[d]) == len(cls) for cls, d, _ in decomp._match_classes(dm, dn))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_are_isomorphic_piece_filter_answers_as_without_it(field, monkeypatch):
    """are_isomorphic with the piece filter answers as without it on every pair of equal
    dimension, and decomposes neither module of a pair the filter rejects."""
    calls = []
    decompose_ = decomp.decompose
    monkeypatch.setattr(decomp, "decompose", lambda x, seed=0: calls.append(x) or decompose_(x, seed=seed))
    gen = np.random.default_rng(29)
    tally = {"filtered": 0, "passed": 0, "iso": 0}
    for build in (a3_modules, kronecker_modules):
        mods = [m for m in build(field, gen) if m.dim]
        sums = [direct_sum([x, y])[0] for x, y in zip(mods[::2], mods[1::2])]
        for group in (mods, sums):
            for m in group:
                for n in group:
                    if m.dim != n.dim:
                        continue
                    want = unfiltered_are_isomorphic(m, n, seed=4)
                    calls.clear()
                    got = are_isomorphic(m, n, seed=4)
                    assert got == want, (m.label, n.label)
                    if not modules.same_piece_dims(m, n):
                        tally["filtered"] += 1
                        assert calls == [] and not got
                    else:
                        tally["iso" if got else "passed"] += 1
    assert all(tally.values()), tally


# ---- the certified leaf held on its module ---------------------------------------------


def fresh_copy(m):
    """m's action matrices in a new Module, which holds no leaf."""
    return Module(m.left_algebra, m.right_algebra, m.left_mats, m.right_mats, m.label, check=False)


def same_typed_array(x, y):
    return same_array(x, y) and [type(v) for v in x.flat] == [type(v) for v in y.flat]


def same_decomposition(got, want):
    """Equal classes, and per summand equal maps, certificate, End stack, unit and radical rows."""
    if got.classes != want.classes or len(got.summands) != len(want.summands):
        return False
    for s, t in zip(got.summands, want.summands):
        (view, homs), (view0, homs0) = s._end, t._end
        arrays = [
            (s.inclusion, t.inclusion), (s.projection, t.projection), (view.stack, view0.stack),
            (view.unit, view0.unit), (view.radical_rows(), view0.radical_rows()),
        ]
        if s.certificate != t.certificate or len(homs) != len(homs0):
            return False
        if not all(same_typed_array(x, y) for x, y in arrays + list(zip(homs, homs0))):
            return False
    return True


def leaf_inputs(field, gen):
    """The decomposition inputs and the A_3 and Kronecker projectives, in random bases
    over GF(p); over Q the sums keep their direct-sum basis (see test_decomp.conjugated)."""
    mods = [m if field == QQ else conjugated(m, gen) for m in decomposition_inputs(field)]
    for alg in (linear_quiver_algebra(field, 3), catalog.build("kronecker", field=field.name)):
        mods += [conjugated(p, gen) for p, _, _ in projective_indecomposables(alg)]
    return mods


@pytest.fixture
def solved_ends(monkeypatch):
    """The modules endomorphism_algebra solves End for, in order."""
    solved = []
    endomorphism_algebra = decomp.endomorphism_algebra
    monkeypatch.setattr(decomp, "endomorphism_algebra", lambda m: solved.append(m) or endomorphism_algebra(m))
    return solved


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_held_leaf_decomposes_as_a_fresh_copy(field, solved_ends):
    """decompose on a certified leaf's module, at any seed, solves no End and equals
    decompose of a copy that holds no leaf: maps, certificate, End and radical."""
    for m in leaf_inputs(field, np.random.default_rng(5)):
        dec = decompose(m, seed=2)
        for leaf in dec.summands:
            x = leaf.module
            assert x._leaf() is leaf
            for seed in (0, 7):
                solved_ends.clear()
                got = decompose(x, seed=seed)
                assert solved_ends == []
                assert got.module is x and got.summands[0].module is x
                want = decompose(fresh_copy(x), seed=seed)
                assert len(solved_ends) == 1
                assert same_decomposition(got, want), (m.label, x.label, seed)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_a_dropped_decomposition_is_solved_again(field, solved_ends):
    """The leaf is held weakly: once the decomposition is gone, decompose on a
    leaf's module solves End again, gives the same answer and holds the new leaf."""
    m = decomposition_inputs(field)[0]
    if field != QQ:
        m = conjugated(m, np.random.default_rng(6))
    dec = decompose(m, seed=1)
    xs = [s.module for s in dec.summands]
    held = [decompose(x, seed=3) for x in xs]
    del dec
    gc.collect()
    assert all(x._leaf() is None for x in xs)
    solved_ends.clear()
    again = [decompose(x, seed=3) for x in xs]
    assert len(solved_ends) == len(xs) and all(y is x for y, x in zip(solved_ends, xs))
    assert all(same_decomposition(g, w) for g, w in zip(again, held))
    solved_ends.clear()
    assert all(x._leaf() is d.summands[0] for x, d in zip(xs, again))
    assert same_decomposition(decompose(xs[0], seed=5), again[0]) and solved_ends == []


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_a_dropped_decomposition_dies_without_the_cycle_collector(field):
    """decompose leaves no reference cycle: with the cyclic collector off, a
    dropped decomposition frees its leaves at once, and its modules hold none."""
    algs = [catalog.build("trunc_poly", field=field.name, k=2), linear_quiver_algebra(field, 3)]
    gc.collect()
    gc.disable()
    try:
        for a, count in zip(algs, (1, 3)):
            dec = decompose(left_regular_module(a), seed=1)
            xs = [s.module for s in dec.summands]
            leaves = [weakref.ref(s) for s in dec.summands]
            assert len(xs) == count and all(x._leaf() is not None for x in xs)
            del dec
            assert all(leaf() is None for leaf in leaves)
            assert all(x._leaf() is None for x in xs)
    finally:
        gc.enable()


def test_a_disconnected_search_solves_the_regular_bimodule_once(solved_ends, monkeypatch):
    """Over the two-vertex semisimple algebra the regular bimodule has two
    summands on submodules, so no leaf answers for it; the held decomposition
    at the search's seed does. The seed-8 search solves End of it once over
    its nine verify_j_geq calls."""
    field, pres = parse_presentation("field GF(5)\nvertex 1\nvertex 2\n")
    two = algebra_from_quiver(pres, field)
    verified = []
    verify = witnesses.verify_j_geq
    monkeypatch.setattr(witnesses, "verify_j_geq", lambda w, **kw: verified.append(w) or verify(w, **kw))
    with pytest.warns(UserWarning, match="disconnected"):
        assert witnesses.witness_search(two, two, seed=8, budget=15) is None
    assert len(verified) == 9
    assert len([m for m in solved_ends if m.label == f"{two.label} (regular)"]) == 1


def test_the_regular_bimodule_is_held_only_while_a_search_runs(solved_ends):
    """witness_search hands its decomposition of the regular bimodule to its own
    attempts' pairs only: a pair made after the search solves End(reg) again,
    on a new module, and gets an equal End."""
    w = catalog.build("kronecker_witness", field="GF(101)")
    a = w.a
    assert witnesses.witness_search(a, w.b, seed=0, budget=4) is None
    regular = f"{a.label} (regular)"
    (searched,) = [m for m in solved_ends if m.label == regular]
    searched_end = decomp.endomorphism_algebra(searched)[1]
    solved_ends.clear()
    verify_j_geq(w, quality=False)
    (again,) = [m for m in solved_ends if m.label == regular]
    assert again is w.regular().module and again is not searched
    again_end = decomp.endomorphism_algebra(again)[1]
    assert len(again_end) == len(searched_end) and all(same_array(x, y) for x, y in zip(again_end, searched_end))


def semisimple(field, vertices):
    """k^vertices as a quiver algebra with no arrows: connected for one vertex only."""
    field, pres = parse_presentation(f"field {field}\n" + "".join(f"vertex {v}\n" for v in range(1, vertices + 1)))
    return algebra_from_quiver(pres, field)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_a_pair_holds_the_decomposition_of_a_new_regular_bimodule(field, solved_ends):
    """JWitnessPair.regular() solves End once, on its first call, and equals
    decompose of a new regular bimodule at the pair's seed, over a connected A
    and over the disconnected two-vertex semisimple algebra."""
    for a, count in ((linear_quiver_algebra(field, 2), 1), (semisimple(field, 2), 2)):
        for seed in (0, 3):
            w = JWitnessPair(a, a, regular_bimodule(a), regular_bimodule(a), seed=seed)
            solved_ends.clear()
            held = w.regular()
            assert w.regular() is held and solved_ends == [held.module]
            assert held.module.label == f"{a.label} (regular)" and len(held.summands) == count
            assert same_decomposition(held, decompose(regular_bimodule(a), seed=seed)), (a.label, seed)


# (field, algebra, search seed): searches that find an a >=_J a witness, over a
# connected algebra (A_2, a single vertex) and the disconnected two-vertex one
FOUND = [
    ("GF(5)", lambda f: linear_quiver_algebra(f, 2), 0),
    ("GF(101)", lambda f: semisimple(f, 2), 1),
    ("Q", lambda f: semisimple(f, 1), 0),
    ("Q", lambda f: semisimple(f, 2), 2),
]


@pytest.mark.parametrize("name, build, seed", FOUND, ids=[f"{n}-{i}" for i, (n, _, _) in enumerate(FOUND)])
def test_a_found_certificate_is_the_one_a_new_pair_verifies(name, build, seed):
    """The certificate a search returns, verified with the decomposition the
    search handed its pair, is byte for byte the one verify_j_geq gives on a
    new pair of the same modules, which decomposes the regular bimodule itself."""
    a = build(field_from_name(name))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the two-vertex algebra is disconnected
        cert = witnesses.witness_search(a, a, seed=seed, budget=15)
        assert cert is not None
        w = cert.witness
        fresh = verify_j_geq(JWitnessPair(w.a, w.b, w.m, w.n, seed=w.seed), quality=False)
    assert serialize.canon_json(serialize.certificate_doc(cert)) == serialize.canon_json(serialize.certificate_doc(fresh))


def test_submodule_on_raises_on_a_basis_that_is_not_stable():
    """_submodule_on takes the basis as stable and checks it where it reads the
    induced actions, with a raise that python -O keeps."""
    p0 = projective_indecomposables(linear_quiver_algebra(GF(5), 3))[0][0]
    stable = 0
    for row in p0.field.eye(p0.dim):
        basis = row[None]
        if modules.submodule(p0, basis)[0].dim == 1:
            stable += 1
            sub, incl = modules._submodule_on(p0, basis)
            assert sub.dim == 1 and same_array(incl, basis.T)
        else:
            with pytest.raises(AssertionError, match="not action-stable"):
                modules._submodule_on(p0, basis)
    assert 0 < stable < p0.dim


# ---- the enveloping algebra held on A ------------------------------------------------


def same_algebra_entries(x, y):
    return (
        same_array(x.table, y.table)
        and same_array(x.unit, y.unit)
        and len(x.idempotents) == len(y.idempotents)
        and all(same_array(e, f) for e, f in zip(x.idempotents, y.idempotents))
        and x.idempotents_primitive == y.idempotents_primitive
        and len(x.generators) == len(y.generators)
        and all(same_array(g, h) for g, h in zip(x.generators, y.generators))
        and same_array(x.radical_rows(), y.radical_rows())
        and x.labels == y.labels
        and x.label == y.label
    )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_held_envelope_equals_a_fresh_tensor_algebra(field):
    w = catalog.build("kronecker_witness", field=field.name)
    for m, (a, b) in ((w.m, (w.a, w.b)), (w.n, (w.b, w.a))):
        env, _ = bimodule_as_env_module(m, seed=w.seed)
        assert env is a._envelope[3]
        assert same_algebra_entries(env, tensor_algebra(a, b.opposite()))
        assert bimodule_as_env_module(m, seed=w.seed + 7)[0] is env


def test_reinstalling_a_family_rebuilds_the_envelope():
    a3 = linear_quiver_algebra(GF(5), 3)
    dual = catalog.build("trunc_poly", field="GF(5)", k=2)
    a = Algebra(a3.field, a3.table, a3.unit, idempotents=[a3.unit])  # complete, not primitive
    bop = dual.opposite()
    env = witnesses._enveloping_algebra(a, bop)
    assert witnesses._enveloping_algebra(a, bop) is env and not env.idempotents_primitive
    complete_primitive_idempotents(a)
    env_a = witnesses._enveloping_algebra(a, bop)
    assert env_a is not env and len(env_a.idempotents) == 3
    assert same_algebra_entries(env_a, tensor_algebra(a, bop))
    bop.idempotents = [bop.field.copy(e) for e in bop.idempotents]
    env_b = witnesses._enveloping_algebra(a, bop)
    assert env_b is not env_a and same_algebra_entries(env_b, env_a)
    other = Algebra(dual.field, dual.table, dual.unit, idempotents=dual.idempotents, check=False).opposite()
    assert witnesses._enveloping_algebra(a, other) is not env_b
    assert witnesses._enveloping_algebra(a, bop) is not env_b  # one slot: the last pair is held


def test_two_generators_checks_build_each_envelope_once(monkeypatch):
    w = catalog.build("kronecker_witness", field="GF(101)")
    cert = verify_j_geq(w, quality=False)
    built = []
    tensor = witnesses.tensor_algebra

    def counted(x, y, label=None):
        built.append((x, y))
        return tensor(x, y, label)

    monkeypatch.setattr(witnesses, "tensor_algebra", counted)
    assert generators_check(w, cert) and generators_check(w, cert)
    assert built == [(w.a, w.b.opposite()), (w.b, w.a.opposite())]
