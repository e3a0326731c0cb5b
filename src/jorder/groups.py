"""Finite groups acting on algebras by automorphisms.

Groups are explicit multiplication tables over element indices; every axiom
is verified at construction, which is cheap at the supported orders. Actions
store one matrix per group element and are checked to be genuine unital
automorphisms composing according to the table.

Characters of an abelian group are read off the primitive idempotents of its
group algebra: over a field with enough roots of unity the group algebra is
split semisimple and commutative, each primitive idempotent spans a line on
which every group element acts by the character value. Missing roots of unity
surface as a non-split block, reported as RootsOfUnityUnavailable.

The group law is read by indexing the multiplication table, and the
invariants and every isotypic piece are one eigenspace read, _eigen_rows.
"""

import numpy as np

from . import linalg
from .algebras import Algebra, Provenance, pair_products, subalgebra_from_rows
from .decomp import complete_primitive_idempotents
from .errors import (
    BadCharacteristic,
    InvalidInput,
    NonAbelianGroup,
    NotQuiverCompatible,
    RootsOfUnityUnavailable,
)
from .modules import _check_automorphism

_ORDER_CAP = 64


class FiniteGroup:
    """Group on indices 0..n-1 given by its multiplication table."""

    def __init__(self, table, labels=None, label="G"):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        n = table.shape[0]
        if n == 0 or n > _ORDER_CAP:
            raise ValueError(f"group order must lie in 1..{_ORDER_CAP}")
        if table.min() < 0 or table.max() >= n:
            raise ValueError("table entries must be element indices")
        left = table[table, :]  # left[i,j,k] = (ij)k
        right = table[np.arange(n)[:, None, None], table]  # right[i,j,k] = i(jk)
        if not (left == right).all():
            raise ValueError("table is not associative")
        identity = None
        for e in range(n):
            if (table[e] == np.arange(n)).all() and (table[:, e] == np.arange(n)).all():
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        inverse = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            hits = np.nonzero(table[i] == identity)[0]
            if len(hits) != 1 or table[hits[0], i] != identity:
                raise ValueError("table has a non-invertible element")
            inverse[i] = hits[0]
        self.multiplication_table = table
        self.order = n
        self.identity_index = identity
        self.inverse_table = inverse
        self.labels = list(labels) if labels else [f"g{i}" for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("label count must match the order")
        self.label = label

    def mul(self, i, j):
        return int(self.multiplication_table[i, j])

    def inv(self, i):
        return int(self.inverse_table[i])

    def is_abelian(self):
        return bool((self.multiplication_table == self.multiplication_table.T).all())

    def element_order(self, i):
        k, acc = 1, i
        while acc != self.identity_index:
            acc = self.mul(acc, i)
            k += 1
        return k

    def __repr__(self):
        return f"FiniteGroup({self.label}, order {self.order})"

    @staticmethod
    def cyclic(n):
        table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
        labels = ["e"] + [f"c^{k}" if k > 1 else "c" for k in range(1, n)]
        return FiniteGroup(table, labels, label=f"C{n}")

    @staticmethod
    def trivial():
        return FiniteGroup([[0]], ["e"], label="C1")


class AlgebraAction:
    """A finite group acting on an algebra by verified automorphisms."""

    def __init__(self, group, algebra, automorphisms):
        self.group = group
        self.algebra = algebra
        field = algebra.field
        mats = field.canon(np.stack([np.asarray(m) for m in automorphisms]))
        if mats.shape != (group.order, algebra.dim, algebra.dim):
            raise ValueError("need one square matrix per group element")
        self.matrices = mats
        e = group.identity_index
        if not field.eq(mats[e], field.eye(algebra.dim)):
            raise ValueError("identity element must act as the identity matrix")
        for g in range(group.order):
            _check_automorphism(algebra, mats[g])
        # one stacked product per i; an all-pairs product would hold n^2 d^2 entries
        for i in range(group.order):
            if not field.eq(linalg.stack_product(field, mats[i], mats), mats[group.multiplication_table[i]]):
                raise ValueError("matrices do not compose along the group law")

    @staticmethod
    def trivial(algebra):
        return AlgebraAction(
            FiniteGroup.trivial(), algebra, [algebra.field.eye(algebra.dim)]
        )


def _eigen_rows(act, chi):
    """Row basis of {a : g a = chi[g] a for every g}, read off the non-identity elements."""
    a, field = act.algebra, act.algebra.field
    blocks = [
        field.sub(act.matrices[g], field.smul(chi[g], field.eye(a.dim)))
        for g in range(act.group.order)
        if g != act.group.identity_index
    ]
    if not blocks:
        return field.eye(a.dim)
    return linalg.row_basis(field, linalg.nullspace(field, np.concatenate(blocks, axis=0)).T)


def invariant_subalgebra(act):
    """(A^G, inclusion rows): the fixed subalgebra of the action.

    The radical of A^G is recomputed by the generic criterion; when the group
    order is invertible in the field it must coincide with A^G intersect
    rad A, and this is cross-asserted.
    """
    a, field = act.algebra, act.algebra.field
    rows = _eigen_rows(act, [field.one] * act.group.order)
    sub = subalgebra_from_rows(
        a,
        rows,
        label=f"{a.label}^{act.group.label}",
        provenance=Provenance("invariants", {"action": act}),
    )
    p = field.char
    if p == 0 or act.group.order % p != 0:
        expected = linalg.intersect_row_spaces(field, a.radical_rows(), sub.inclusion_rows)
        lifted = field.canon(field.matmul(sub.radical_rows(), sub.inclusion_rows)) \
            if sub.radical_rows().shape[0] else field.zeros((0, a.dim))
        lifted = linalg.row_basis(field, lifted)
        if expected.shape != lifted.shape or not field.eq(expected, lifted):
            raise AssertionError("invariant radical disagrees with rad(A) intersection")
    return sub, sub.inclusion_rows


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


def _characters(group, field):
    """All characters G -> k*, sorted deterministically; abelian split case.

    Every character corresponds to a primitive idempotent of k[G]; a shortage
    of idempotents means some simple block is a proper field extension, which
    happens exactly when k lacks the needed roots of unity.
    """
    kg = group_algebra(group, field)
    if kg.radical_rows().shape[0]:
        raise BadCharacteristic("group algebra is not semisimple in this characteristic")
    es = complete_primitive_idempotents(kg, seed=0)
    if len(es) < group.order:
        raise RootsOfUnityUnavailable(
            f"{field.name} lacks a primitive root of unity for {group.label}"
        )
    chars = []
    left = kg.left_regular_mats()
    for e in es:
        support = int(np.flatnonzero(np.asarray(e) != field.zero)[0])
        denom = field.inv_scalar(e[support])
        values = []
        for prod in field.matmul(left, e):  # row g is g * e
            chi = field.scalar(prod[support] * denom)
            if not field.eq(prod, field.smul(chi, e)):
                raise AssertionError("group element does not act by a scalar")
            values.append(chi)
        chars.append(tuple(values))
    chars.sort(key=lambda chi: [field.scalar_to_str(c) for c in chi])
    return chars


def isotypic_decomposition(act):
    """[(character, rows)] with A_chi = {a : g a = chi(g) a}, zero parts dropped.

    Requires an abelian group, invertible order, and enough roots of unity.
    Asserts the components fill A, the trivial component is A^G, and each
    component is stable under both-sided multiplication by A^G.
    """
    group, a, field = act.group, act.algebra, act.algebra.field
    if not group.is_abelian():
        raise NonAbelianGroup("isotypic decomposition needs an abelian group")
    p = field.char
    if p != 0 and group.order % p == 0:
        raise BadCharacteristic(f"|{group.label}| vanishes in {field.name}")
    chars = _characters(group, field)
    components = []
    total = 0
    one = field.one
    for chi in chars:
        rows = _eigen_rows(act, chi)
        if rows.shape[0] == 0:
            continue
        components.append((chi, rows))
        total += rows.shape[0]
    if total != a.dim:
        raise AssertionError("isotypic components do not fill the algebra")
    trivial = [rows for chi, rows in components if all(c == one for c in chi)]
    inv_rows = invariant_subalgebra(act)[1]
    if len(trivial) != 1 or trivial[0].shape != inv_rows.shape or \
            not field.eq(trivial[0], inv_rows):
        raise AssertionError("trivial component differs from the invariant subalgebra")
    for _, rows in components:
        if linalg.coords_in_row_basis(field, rows, pair_products(a, inv_rows, rows).reshape(-1, a.dim)) is None:
            raise AssertionError("component is not stable under left A^G")
        if linalg.coords_in_row_basis(field, rows, pair_products(a, rows, inv_rows).reshape(-1, a.dim)) is None:
            raise AssertionError("component is not stable under right A^G")
    return components


def skew_group_algebra(act):
    """(A*G, embedding rows): basis a_i * g with (a*g)(b*h) = a g(b) * gh.

    The radical is installed structurally as rad(A) tensor k[G] when |G| is
    invertible in the field (and then verified like every structural radical);
    otherwise it is recomputed by the generic criterion.
    """
    a, group, field = act.algebra, act.group, act.algebra.field
    d, n = a.dim, group.order
    dim = d * n
    # the basis a_i * g is a_i (x) g in the kron order, with g the delta vector of k[G], so the
    # table is the sum over g of C_g (x) M_g, C_g[i, j] the coords of a_i * g(a_j), M_g[g, h, gh] = 1
    table = field.zeros((dim, dim, dim))
    for g in range(n):
        image = act.matrices[g]  # columns are g(a_j)
        c = field.tensordot(a.table, image, axes=([1], [0])).transpose(0, 2, 1)
        m_g = field.zeros((n, n, n))
        m_g[g, np.arange(n), group.multiplication_table[g]] = field.one
        table = field.add(table, field.kron(c, m_g))
    delta = field.eye(n)
    e = delta[group.identity_index]
    labels = [f"{a.labels[i]}*{group.labels[g]}" for i in range(d) for g in range(n)]
    idempotents = None if a.idempotents is None else [field.kron(ev, e) for ev in a.idempotents]
    generators = [field.kron(gen, e) for gen in a.generators] + [field.kron(a.unit, dg) for dg in delta]
    rad_rows = None
    p = field.char
    if p == 0 or n % p != 0:
        rad_rows = field.kron(a.radical_rows(), delta)
    skew = Algebra(
        field,
        table,
        field.kron(a.unit, e),
        labels,
        idempotents=idempotents,
        idempotents_primitive=False,
        generators=generators,
        radical_rows=rad_rows,
        provenance=Provenance("skew", {"action": act}),
        label=f"{a.label}*{group.label}",
    )
    return skew, field.kron(field.eye(d), e[None])


def verify_free_quiver_action(act, pres):
    """True iff the action permutes the quiver freely (no fixed vertex/arrow).

    The algebra must come from the given presentation so basis positions can
    be read off its path degrees. Raises NotQuiverCompatible when some
    automorphism fails to permute vertex idempotents or arrow lines.
    """
    a, field = act.algebra, act.algebra.field
    prov = a.provenance
    if prov.kind != "quiver" or prov.data.get("presentation") is not pres:
        raise NotQuiverCompatible("algebra was not built from the given presentation")
    degrees = prov.data["degrees"]
    vertex_pos = [i for i, (deg, _) in enumerate(degrees) if deg == 0]
    arrow_pos = [i for i, (deg, _) in enumerate(degrees) if deg == 1]
    checks = (
        (vertex_pos, "a vertex idempotent is not sent to a vertex"),
        (arrow_pos, "an arrow is not sent to an arrow line"),
    )
    free = True
    for g in range(act.group.order):
        if g == act.group.identity_index:
            continue
        for positions, message in checks:
            for v in positions:
                support = np.flatnonzero(np.asarray(act.matrices[g][:, v]) != field.zero)
                if len(support) != 1 or int(support[0]) not in positions:
                    raise NotQuiverCompatible(message)
                if int(support[0]) == v:
                    free = False
    return free


def generated_action(algebra, gens, order_cap=_ORDER_CAP):
    """The action of the group the named generator matrices generate.

    gens is a list of (name, matrix). The group is closed by breadth-first
    products up to order_cap; each element is labelled by the first word in
    the generators that reaches it, and the identity by `e`.
    """
    field = algebra.field

    def key(m):
        return tuple(field.scalar_to_str(x) for x in np.asarray(m).reshape(-1))

    identity = field.eye(algebra.dim)
    elements = [identity]
    index = {key(identity): 0}
    labels = ["e"]
    frontier = [0]
    while frontier:
        nxt = []
        for pos in frontier:
            for name, gmat in gens:
                prod = field.canon(field.matmul(elements[pos], gmat))
                k = key(prod)
                if k not in index:
                    if len(elements) >= order_cap:
                        raise InvalidInput(
                            f"generated group exceeds the order cap {order_cap}"
                        )
                    index[k] = len(elements)
                    word = name if pos == 0 else f"{labels[pos]}*{name}"
                    labels.append(word)
                    elements.append(prod)
                    nxt.append(index[k])
        frontier = nxt
    # closed under right products by the generators, so under all products
    n = len(elements)
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            table[i, j] = index[key(field.canon(field.matmul(elements[i], elements[j])))]
    names = ",".join(name for name, _ in gens)
    group = FiniteGroup(table, labels, label=f"<{names}>")
    return AlgebraAction(group, algebra, elements)
