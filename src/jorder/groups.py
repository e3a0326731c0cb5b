"""Finite groups acting on algebras by automorphisms.

Groups are explicit multiplication tables over element indices; every axiom
is verified at construction, which is cheap at the supported orders. Actions
store one matrix per group element and are checked to be genuine unital
automorphisms composing according to the table.

The group law is read by indexing the multiplication table, and the
invariants are one fixed-space read, _fixed_rows.
"""

import numpy as np

from . import linalg
from .algebras import Algebra, Provenance, subalgebra_from_rows
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


def _fixed_rows(act):
    """Row basis of {a : g a = a for every g}, read off the non-identity elements."""
    a, field = act.algebra, act.algebra.field
    blocks = [
        field.sub(act.matrices[g], field.eye(a.dim))
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
    rows = _fixed_rows(act)
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
