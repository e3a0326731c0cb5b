"""Restriction and tensor of scalars against the code they replaced.

The oracles below are the replaced code, kept verbatim: the looped
bimodule/enveloping-module conversions, the one-sided factor restriction,
the per-index tensor with a regular module, the stacked outer tensor, the
restriction bimodules built from multiplication matrices, and the tensor and
skew group algebras assembled with np.multiply.outer, index loops and
strided assignment. Each survivor must give the same arrays, dtypes, entry
types and labels over GF(2), GF(3), GF(101) and Q, zero-dimensional
modules included. The one exception is the label of a one-sided
restriction, which the generators_check oracle in test_witnesses.py only
feeds to a divisibility test; generators_check itself restricts nothing.
"""

import numpy as np
import pytest

from jorder import catalog, linalg
from jorder.algebras import Algebra, Provenance, check_algebra_hom, tensor_algebra
from jorder.decomp import complete_primitive_idempotents
from jorder.fields import GF, QQ
from jorder.groups import AlgebraAction, skew_group_algebra
from jorder.modules import (
    Module,
    module_over_opposite,
    outer_tensor,
    projective_indecomposables,
    random_left_module,
    regular_bimodule,
    left_regular_module,
    right_regular_module,
    tensor_over,
    zero_module,
)
from jorder.witnesses import (
    JWitnessPair,
    bimodule_as_env_module,
    env_module_as_bimodule,
    restriction_bimodules,
    transport_tensor,
)

from oracles import basis_vector, pure_tensor

FIELDS = [GF(2), GF(3), GF(101), QQ]


# ---- oracles: the replaced code --------------------------------------------------


def _with_primitive_idempotents(x, seed=0):
    if x.idempotents is None or not x.idempotents_primitive:
        complete_primitive_idempotents(x, seed=seed)
    return x


def old_bimodule_as_env_module(m, seed=0):
    a, b = m.left_algebra, m.right_algebra
    _with_primitive_idempotents(a, seed)
    bop = b.opposite()
    _with_primitive_idempotents(bop, seed + 1)
    env = old_tensor_algebra(a, bop)
    field = m.field
    mats = field.zeros((env.dim, m.dim, m.dim))
    for i in range(a.dim):
        for j in range(b.dim):
            mats[i * b.dim + j] = field.matmul(m.left_mats[i], m.right_mats[j])
    return env, Module(env, None, mats, None, f"{m.label} over {env.label}", check=False)


def old_env_module_as_bimodule(mod, a, b, label=None):
    field = mod.field
    bop = b.opposite()
    lm = field.zeros((a.dim, mod.dim, mod.dim))
    for i in range(a.dim):
        vec = np.multiply.outer(basis_vector(a, i), bop.unit).reshape(-1)
        lm[i] = mod.left_action(field.canon(vec))
    rm = field.zeros((b.dim, mod.dim, mod.dim))
    for j in range(b.dim):
        vec = np.multiply.outer(a.unit, basis_vector(bop, j)).reshape(-1)
        rm[j] = mod.left_action(field.canon(vec))
    return Module(a, b, lm, rm, label or f"{mod.label} as bimodule", check=False)


def _factor_restriction(mod, left_factor, right_factor, which):
    field = mod.field
    if which == "left":
        alg = left_factor
        embed = lambda i: np.multiply.outer(basis_vector(left_factor, i), right_factor.unit)
    else:
        alg = right_factor
        embed = lambda j: np.multiply.outer(left_factor.unit, basis_vector(right_factor, j))
    mats = field.zeros((alg.dim, mod.dim, mod.dim))
    for i in range(alg.dim):
        mats[i] = mod.left_action(field.canon(embed(i).reshape(-1)))
    return Module(alg, None, mats, None, f"{mod.label}|{alg.label}", check=False)


def old_restriction_bimodules(source, target, phi):
    field = target.field
    phi = check_algebra_hom(source, target, phi)
    right_via = field.canon(np.stack([target.right_mult_matrix(im) for im in phi.T]))
    left_via = field.canon(np.stack([target.left_mult_matrix(im) for im in phi.T]))
    m = Module(
        target, source, target.left_regular_mats(), right_via,
        f"{target.label} as ({target.label},{source.label})-bimodule", check=False,
    )
    n = Module(
        source, target, left_via, target.right_regular_mats(),
        f"{target.label} as ({source.label},{target.label})-bimodule", check=False,
    )
    return m, n


def old_transport_tensor(w, c):
    ac = old_tensor_algebra(w.a, c)
    bc = old_tensor_algebra(w.b, c)
    m2 = _tensor_with_regular(w.m, ac, bc, c)
    n2 = _tensor_with_regular(w.n, bc, ac, c)
    return JWitnessPair(ac, bc, m2, n2, seed=w.seed)


def _tensor_with_regular(m, left_env, right_env, c):
    field = m.field
    creg_l = c.left_regular_mats()
    creg_r = c.right_regular_mats()
    la, ra = m.left_algebra, m.right_algebra
    lm = field.zeros((left_env.dim, m.dim * c.dim, m.dim * c.dim))
    for i in range(la.dim):
        for j in range(c.dim):
            lm[i * c.dim + j] = field.kron(m.left_mats[i], creg_l[j])
    rm = field.zeros((right_env.dim, m.dim * c.dim, m.dim * c.dim))
    for k in range(ra.dim):
        for l in range(c.dim):
            rm[k * c.dim + l] = field.kron(m.right_mats[k], creg_r[l])
    return Module(left_env, right_env, lm, rm, f"{m.label}(x){c.label}", check=False)


def old_outer_tensor(m, n, label=None):
    if m.left_mats is None or n.right_mats is None:
        raise ValueError("outer_tensor needs a left module and a right module")
    if m.right_mats is not None or n.left_mats is not None:
        raise ValueError("outer_tensor factors must be one-sided")
    field = m.field
    eye_m, eye_n = field.eye(m.dim), field.eye(n.dim)
    lm = field.canon(np.stack([field.kron(m.left_mats[i], eye_n) for i in range(m.left_algebra.dim)]))
    rm = field.canon(np.stack([field.kron(eye_m, n.right_mats[j]) for j in range(n.right_algebra.dim)]))
    return Module(m.left_algebra, n.right_algebra, lm, rm, label or f"{m.label} (x) {n.label}", check=False)


def old_pure_tensor(tr, u, v):
    field = tr.module.field
    big = np.multiply.outer(np.asarray(u), np.asarray(v)).reshape(-1)
    return field.matmul(tr.projection, big)


def old_tensor_algebra(a, b, label=None):
    if a.field != b.field:
        raise ValueError("tensor factors must share the field")
    if a.dim * b.dim > 200:
        raise ValueError("tensor algebra dimension exceeds the supported size")
    field = a.field
    big = np.multiply.outer(a.table, b.table)  # (i,k,m, j,l,n)
    table = big.transpose(0, 3, 1, 4, 2, 5).reshape(a.dim * b.dim, a.dim * b.dim, a.dim * b.dim)
    unit = np.multiply.outer(a.unit, b.unit).reshape(-1)
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    idempotents = None
    primitive = False
    if a.idempotents is not None and b.idempotents is not None:
        idempotents = [
            np.multiply.outer(e, f).reshape(-1) for e in a.idempotents for f in b.idempotents
        ]
        primitive = a.idempotents_primitive and b.idempotents_primitive
    gens = [np.multiply.outer(g, b.unit).reshape(-1) for g in a.generators]
    gens += [np.multiply.outer(a.unit, g).reshape(-1) for g in b.generators]
    rad_a, rad_b = a.radical_rows(), b.radical_rows()
    blocks = []
    if rad_a.shape[0]:
        blocks.append(field.kron(rad_a, field.eye(b.dim)))
    if rad_b.shape[0]:
        blocks.append(field.kron(field.eye(a.dim), rad_b))
    rad = linalg.row_basis(field, np.concatenate(blocks, axis=0)) if blocks else field.zeros((0, a.dim * b.dim))
    return Algebra(
        field,
        field.canon(table),
        field.canon(unit),
        labels,
        idempotents=idempotents,
        idempotents_primitive=primitive,
        generators=gens,
        radical_rows=rad,
        provenance=Provenance("tensor", {"left": a, "right": b}),
        label=label or f"{a.label}(x){b.label}",
        check=False,
    )


def old_skew_group_algebra(act):
    a, group, field = act.algebra, act.group, act.algebra.field
    d, n = a.dim, group.order
    dim = d * n
    table = field.zeros((dim, dim, dim))
    for g in range(n):
        # C[i, j, k] = coords of a_i * (g . a_j) over the algebra basis
        image = act.matrices[g]  # columns are g(a_j)
        c = field.tensordot(a.table, image, axes=([1], [0])).transpose(0, 2, 1)
        for h in range(n):
            gh = group.mul(g, h)
            # strided assignment fills [(i,g),(j,h),(k,gh)] = C[i,j,k]
            table[g::n, h::n, gh::n] = c
    unit = field.zeros(dim)
    e = group.identity_index
    for k in range(d):
        unit[k * n + e] = a.unit[k]
    labels = [f"{a.labels[i]}*{group.labels[g]}" for i in range(d) for g in range(n)]
    idempotents = None
    if a.idempotents is not None:
        idempotents = []
        for ev in a.idempotents:
            vec = field.zeros(dim)
            for k in range(d):
                vec[k * n + e] = ev[k]
            idempotents.append(vec)
    generators = []
    for gen in a.generators:
        vec = field.zeros(dim)
        for k in range(d):
            vec[k * n + e] = gen[k]
        generators.append(vec)
    for g in range(n):
        vec = field.zeros(dim)
        for k in range(d):
            vec[k * n + g] = a.unit[k]
        generators.append(vec)
    rad_rows = None
    p = field.char
    if p == 0 or n % p != 0:
        base = a.radical_rows()
        if base.shape[0]:
            rad_rows = field.zeros((base.shape[0] * n, dim))
            for r in range(base.shape[0]):
                for g in range(n):
                    rad_rows[r * n + g, g::n] = base[r]
        else:
            rad_rows = field.zeros((0, dim))
    skew = Algebra(
        field,
        table,
        unit,
        labels,
        idempotents=idempotents,
        idempotents_primitive=False,
        generators=generators,
        radical_rows=rad_rows,
        provenance=Provenance("skew", {"action": act}),
        label=f"{a.label}*{group.label}",
    )
    embedding = field.zeros((d, dim))
    for k in range(d):
        embedding[k, k * n + e] = field.one
    return skew, embedding


# ---- comparisons -----------------------------------------------------------------


def assert_same_array(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape
    assert x.dtype == y.dtype
    assert [type(v) for v in x.ravel()] == [type(v) for v in y.ravel()]
    assert (x == y).all()


def assert_same_arrays(xs, ys):
    assert (xs is None) == (ys is None)
    if xs is not None:
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert_same_array(x, y)


def assert_same_algebra(x, y):
    if x is y:
        return
    assert (x.label, x.labels, x.dim, x.field) == (y.label, y.labels, y.dim, y.field)
    assert x.idempotents_primitive == y.idempotents_primitive
    assert x.provenance.kind == y.provenance.kind
    assert x.provenance.data.keys() == y.provenance.data.keys()
    assert all(x.provenance.data[k] is y.provenance.data[k] for k in x.provenance.data)
    assert_same_array(x.table, y.table)
    assert_same_array(x.unit, y.unit)
    assert_same_arrays(x.idempotents, y.idempotents)
    assert_same_arrays(x.generators, y.generators)
    assert_same_array(x.radical_rows(), y.radical_rows())


def assert_same_module(x, y, label=True):
    assert x.dim == y.dim
    for side in ("left", "right"):
        ax, ay = getattr(x, f"{side}_algebra"), getattr(y, f"{side}_algebra")
        assert (ax is None) == (ay is None)
        if ax is not None:
            assert_same_algebra(ax, ay)
        assert_same_arrays(getattr(x, f"{side}_mats"), getattr(y, f"{side}_mats"))
    if label:
        assert x.label == y.label


def plain(a):
    """The same table with no idempotent family and every basis vector a generator."""
    return Algebra(a.field, a.table, a.unit, a.labels, label=f"{a.label}-plain")


# ---- inputs ----------------------------------------------------------------------


def witness(field):
    return catalog.build("kronecker_witness", field=field)


def algebra_pairs(field):
    dual = catalog.build("trunc_poly", field=field, k=2)
    kron = catalog.build("kronecker", field=field)
    a3 = catalog.build("kA_n_mod_Rk", field=field, n=3, k=3)
    point = catalog.build("trunc_poly", field=field, k=1)  # radical zero
    zz = catalog.build("zigzag_c2", field=field).algebra
    return [
        (dual, kron),
        (kron, dual.opposite()),
        (a3, plain(catalog.build("trunc_poly", field=field, k=3))),
        (point, point),
        (point, a3),
        (zz, zz.opposite()),
    ]


def actions(field):
    zz = catalog.build("zigzag_c2", field=field)
    rot = catalog.build("lambda_rot", field=field, n=3, k=2)
    return [
        zz,
        catalog.build("lambda_rot", field=field, n=2, k=2),
        rot,
        AlgebraAction(zz.group, plain(zz.algebra), zz.matrices),
    ]


def bimodules(field):
    w = witness(field)
    reg = regular_bimodule(w.b)
    return [w.m, w.n, reg, zero_module(w.a, w.b), zero_module(w.b, w.a)]


def maps(field):
    """(source, target, phi) for algebra maps: identity, quotient, embedding, automorphism."""
    kron = catalog.build("kronecker", field=field)
    x3 = catalog.build("trunc_poly", field=field, k=3)
    x2 = catalog.build("trunc_poly", field=field, k=2)
    onto = field.zeros((2, 3))
    onto[0, 0] = onto[1, 1] = field.one
    act = catalog.build("zigzag_c2", field=field)
    skew, emb = skew_group_algebra(act)
    return [
        (kron, kron, field.eye(kron.dim)),
        (x3, x2, onto),
        (act.algebra, skew, emb.T),
        (act.algebra, act.algebra, act.matrices[1]),
    ]


# ---- the survivors equal the oracles ---------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tensor_algebra(field):
    for a, b in algebra_pairs(field):
        assert_same_algebra(tensor_algebra(a, b), old_tensor_algebra(a, b))
        assert_same_algebra(tensor_algebra(a, b, label="T"), old_tensor_algebra(a, b, label="T"))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_skew_group_algebra(field):
    for act in actions(field):
        skew, emb = skew_group_algebra(act)
        old_skew, old_emb = old_skew_group_algebra(act)
        assert_same_algebra(skew, old_skew)
        assert_same_array(emb, old_emb)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_restriction_bimodules(field):
    for source, target, phi in maps(field):
        for new, old in zip(restriction_bimodules(source, target, phi), old_restriction_bimodules(source, target, phi)):
            assert_same_module(new, old)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_enveloping_module_round_trip(field):
    for m in bimodules(field):
        env, mod = bimodule_as_env_module(m, seed=3)
        old_env, old_mod = old_bimodule_as_env_module(m, seed=3)
        assert_same_module(mod, old_mod)
        a, b = m.left_algebra, m.right_algebra
        assert_same_module(env_module_as_bimodule(mod, a, b), old_env_module_as_bimodule(mod, a, b))
        assert_same_module(env_module_as_bimodule(mod, a, b, "M"), old_env_module_as_bimodule(mod, a, b, "M"))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_env_modules_and_their_factor_restrictions(field):
    """Random and zero modules over A (x) B^op, re-read as bimodules and restricted to each factor."""
    gen = np.random.Generator(np.random.PCG64(7))
    w = witness(field)
    for a, b in ((w.a, w.b), (w.b, w.a)):
        env, _ = bimodule_as_env_module(zero_module(a, b))
        complete_primitive_idempotents(env)
        mods = [random_left_module(env, gen) for _ in range(3)] + [zero_module(env, None)]
        mods += [p for p, _, _ in projective_indecomposables(env)][:2]
        for mod in mods:
            bim = env_module_as_bimodule(mod, a, b)
            assert_same_module(bim, old_env_module_as_bimodule(mod, a, b))
            # the one-sided covers of the generators_check oracle; only their labels differ
            assert_same_module(bim.restrict_left(), _factor_restriction(mod, a, b.opposite(), "left"), label=False)
            right = module_over_opposite(bim.restrict_right())
            assert_same_module(right, _factor_restriction(mod, a, b.opposite(), "right"), label=False)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_transport_tensor(field):
    w = witness(field)
    zero = JWitnessPair(w.a, w.b, zero_module(w.a, w.b), zero_module(w.b, w.a), seed=5)
    for pair in (w, zero):
        for c in (catalog.build("trunc_poly", field=field, k=2), catalog.build("kA_n_mod_Rk", field=field, n=2, k=2)):
            new, old = transport_tensor(pair, c), old_transport_tensor(pair, c)
            assert_same_algebra(new.a, old.a)
            assert_same_algebra(new.b, old.b)
            assert_same_module(new.m, old.m)
            assert_same_module(new.n, old.n)
            assert new.seed == old.seed


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_outer_tensor(field):
    a3 = catalog.build("kA_n_mod_Rk", field=field, n=3, k=3)
    dual = catalog.build("trunc_poly", field=field, k=2)
    p1 = projective_indecomposables(a3)[0][0]
    lefts = [p1, left_regular_module(a3), zero_module(a3, None)]
    rights = [right_regular_module(dual), right_regular_module(a3), zero_module(None, dual)]
    for m in lefts:
        for n in rights:
            assert_same_module(outer_tensor(m, n), old_outer_tensor(m, n))
    assert_same_module(outer_tensor(p1, rights[0], "P"), old_outer_tensor(p1, rights[0], "P"))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_pure_tensor(field):
    gen = np.random.Generator(np.random.PCG64(11))
    w = witness(field)
    reg = regular_bimodule(w.b)
    for m, n in ((w.m, w.n), (w.n, w.m), (reg, reg)):
        tr = tensor_over(m, n)
        for _ in range(3):
            u = field.rand_mat(gen, 1, m.dim).reshape(-1)
            v = field.rand_mat(gen, 1, n.dim).reshape(-1)
            assert_same_array(pure_tensor(tr, u, v), old_pure_tensor(tr, u, v))
