"""Krull-Schmidt decomposition through exact idempotent splitting.

A module is split by locating a nontrivial idempotent in its endomorphism
algebra E: an idempotent is found in the semisimple quotient E/J through
minimal-polynomial factorization of a candidate element, then lifted through
the nilpotent radical by the cubic Newton step x -> 3x^2 - 2x^3, which stays
inside the commutative subalgebra generated by the candidate.

Indecomposability is only ever reported with a certificate:

  dim_one         E is one dimensional.
  field_quotient  E/J is a field, exhibited either by dimension one or by an
                  element whose minimal polynomial is irreducible of degree
                  dim E/J (a primitive element).

A local endomorphism algebra is exactly an indecomposable module, so these
certificates are proofs. When the budgeted search neither splits nor
certifies, Inconclusive is raised; the library never guesses.

Every isomorphism question goes through one leaf test, which solves one
Hom: a certified leaf Z is isomorphic to X exactly when dim X = dim Z and
some basis map of Hom(Z, X) has full rank; the first is the isomorphism.
Lemma: with End(Z) local, dim X = dim Z and fs, gs bases of Hom(Z, X) and
Hom(X, Z), some g in gs has g f outside rad End(Z) exactly when f in fs is
bijective. (=>) g f is a unit of the local ring End(Z), so f is injective,
and bijective as the dimensions are equal. (<=) f^-1 = sum c_g g, so
1 = sum c_g (g f), which would lie in rad End(Z) were every g f there.
So the first f of Fitting's two-Hom test (Anderson-Fuller, Rings and
Categories of Modules, section 12) is the first f of full rank.

Two decompositions are compared by one class matcher: each class of the
first takes the first class of the second whose representative is
isomorphic to its own, and its k-th member the k-th member of that class.
Greedy first fit is optimal because isomorphism is an equivalence
relation, so at most one class fits; and it takes the same pairs as a
greedy scan over the second decomposition's summands.

split_maps assembles a split of X off Y from the matched pairs: summands r
of X and s of Y with f: r -> s add i_s f p_r to the section and
i_r f^-1 p_s to the retraction. The partners s are distinct, so
retraction . section = sum of i_r p_r = 1. witnesses.verify_j_geq checks
the result with modules.is_split before it certifies it.

One decomposition solves one Hom system, End(M) at the root. Every other Hom
it needs is a corner of that solve: for summands X, Y of M with inclusion
i_X and projection p_Y, Hom(X, Y) = p_Y End(M) i_X (Anderson-Fuller). So a
child's End(X) is the corner p_X End(M) i_X, read off its parent's basis,
and the class grouping reads Hom(X, Y) between two leaves off the root's.
A corner is the row basis of the products p_Y h i_X over the basis h of
End(M); the reduced echelon basis of a subspace is unique, so it is bit
for bit the basis hom_space(X, Y) solves. endomorphism_algebra solves
End(M) at the root, once per decomposition.

No node builds End's structure table. Each node holds an EndView: its hom
basis as a stack of matrices, with echelon pivots, the unit's coordinates
and the radical rows. A product is one composite read in the basis, and the
search reads only the products it needs: those of the basis elements that
span E/J, and a few for the Newton lift. Products are exact and coordinates
in a reduced echelon basis unique, so each equals the table entry it
replaces. dim E/J is rank J subtracted from dim E, so a node with
dim E/J = 1 reads no product. The minimal polynomial of s in E/J is read
off the powers of s, not off left_mult_matrix(s): L(v)1 = v, so L is
injective on a unital algebra and the two minimal polynomials are equal.

Nothing a decomposition has proved is proved again. A node's module is the
image of an idempotent module map, a submodule by construction, so its
canonical row basis is not spanned under the actions again
(modules._submodule_on). A certified leaf's module keeps a weak reference to
its Summand (Module._leaf), and decompose on that module, with any seed,
answers with the one summand (module, 1, 1, certificate, End) while the leaf
is alive, with no Hom solve: End is the corner basis, bit for bit
hom_space(X, X) (above), and a local End's certificate is dim_one at
dimension one and field_quotient otherwise. The reference is weak, so a
module does not keep its parent's decomposition alive; once it is gone, the
next decompose solves again. A decomposable module holds nothing: a caller
that decomposes one module many times keeps the Decomposition itself, as a
witness pair keeps the regular bimodule's (witnesses.JWitnessPair.regular).
"""

import weakref
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .algebras import (
    Algebra,
    _quotient_structure,
    idempotent_family_failure,
    matrix_algebra_radical,
)
from .errors import Inconclusive
from .modules import (
    _check_compatible,
    _submodule_on,
    dual_module,
    hom_space,
    left_regular_module,
    regular_bimodule,
    same_piece_dims,
)
from .polynomials import crt_split_poly, factor_poly, minpoly_powers


def endomorphism_algebra(m):
    """(E, homs): E = End(m) as an EndView on the canonical basis homs of hom_space(m, m).

    E's basis element i acts on the module as the matrix homs[i]. E provides
    what the idempotent search reads: dim, unit, mul (the product convention
    of Algebra.mul, so mul(f, g) applies g first), products, coords and
    radical_rows.
    """
    homs = hom_space(m, m)
    return EndView(m, homs), homs


class EndView:
    """End(m) on a canonical hom basis, read through composites, not a structure table.

    Holds the stack of basis matrices and its echelon pivots, the unit's
    coordinates, and the radical rows (computed on the faithful matrix
    representation). A product is one composite and one pivot read;
    coordinates in a reduced echelon basis are unique, so every product
    equals the entry Algebra.mul reads off the full table.
    """

    def __init__(self, m, homs):
        field = m.field
        r = len(homs)
        if r == 0:
            raise ValueError("the zero module has no unital endomorphism algebra")
        self.field, self.dim, self.module, self.label = field, r, m, f"End({m.label})"
        self.stack = field.canon(np.stack(homs))
        self.rows = self.stack.reshape(r, -1)
        self.pivots = linalg.echelon_pivots(field, self.rows)
        self.unit = self.coords(field.eye(m.dim)[None])[0]
        self._radical_rows = matrix_algebra_radical(field, self.stack)

    def coords(self, mats):
        """Coordinates of a stack of endomorphisms in the hom basis."""
        coords = linalg.coords_in_row_basis(self.field, self.rows, mats.reshape(len(mats), -1), self.pivots)
        if coords is None:
            raise AssertionError("a map escaped the endomorphism space")
        return coords

    def mul(self, x, y):
        """Product x*y (y acts first), as Algebra.mul."""
        field = self.field
        mx, my = (field.tensordot(v, self.stack, axes=([0], [0])) for v in (x, y))
        return self.coords(field.matmul(mx, my)[None])[0]

    def products(self, idx):
        """table[np.ix_(idx, idx)]: the composites of the chosen basis matrices only.

        Read one row block at a time, so only len(idx) composites are held at once.
        """
        chosen = self.stack[idx]
        out = self.field.zeros((len(chosen), len(chosen), self.dim))
        for a, f in enumerate(chosen):
            out[a] = self.coords(linalg.stack_product(self.field, f, chosen))
        return out

    def radical_rows(self):
        return self._radical_rows


def _corner(field, homs, proj, incl):
    """Canonical basis of the maps proj h incl over the basis homs of End(M).

    With incl: X -> M and proj: M -> Y the maps of summands of M, this is
    Hom(X, Y), equal to hom_space(X, Y) (see the header).
    """
    prods = linalg.stack_product(field, proj, field.matmul(np.stack(homs), incl))
    rows = linalg.row_basis(field, prods.reshape(len(homs), -1))
    return [rows[k].reshape(proj.shape[0], incl.shape[1]) for k in range(rows.shape[0])]


def find_nontrivial_idempotent(e_alg, gen, budget=64):
    """(idempotent vector, None) or (None, locality certificate).

    The semisimple quotient S = E/J has dimension dim E - rank J; at
    dimension one it is a field, answered before S's table is built.
    Otherwise candidates are drawn from S: the standard basis first, then
    seeded random elements. Each candidate s either splits S through a
    coprime factorization of its minimal polynomial mu_S, certifies S to be a
    field by a primitive element, or is discarded. mu_S is the first linear
    relation among 1, s, s^2, ... in S (polynomials.minpoly_powers), and the
    projector e_s = sum c_k s^k is summed from those powers; no left
    multiplication matrix is formed. Exhausting the budget without either
    outcome raises Inconclusive.

    E is an EndView or an Algebra; it is read only through field, dim, label,
    unit, radical_rows(), products (S's table, from the products of the basis
    elements outside J's pivots) and mul (the Newton lift).
    """
    field = e_alg.field
    if e_alg.dim == 1:
        return None, "dim_one"
    rad = e_alg.radical_rows()
    dim_s = e_alg.dim - rad.shape[0]
    if dim_s == 1:
        return None, "field_quotient"
    table_s, unit_s, proj, section = _quotient_structure(e_alg, rad)
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
        mu, powers = minpoly_powers(field, unit_s, lambda v: quo.mul(v, s), dim_s)
        factors = factor_poly(field, mu)
        if len(mu) - 1 == dim_s and len(factors) == 1 and factors[0][1] == 1:
            # S = k[s] = k[x]/(mu) with mu irreducible, so S is a field
            return None, "field_quotient"
        proj_poly = crt_split_poly(field, mu, factors)
        if proj_poly is None:
            continue
        e_s = field.canon(field.matmul(field.vec(proj_poly), np.stack(powers[: len(proj_poly)])))
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


@dataclass
class Summand:
    """One indecomposable piece with maps to and from the parent module."""

    module: object
    inclusion: np.ndarray
    projection: np.ndarray
    certificate: str
    _end: tuple = dc_field(default=None, repr=False)


@dataclass
class Decomposition:
    """Indecomposable summands plus their grouping into isomorphism classes.

    Each class lists its summand indices in increasing order.
    """

    module: object
    summands: list
    classes: list

    def class_summary(self):
        """Sorted (dimension, multiplicity) pairs, one per class."""
        return sorted((self.summands[cls[0]].module.dim, len(cls)) for cls in self.classes)

    def dims(self):
        return sorted(s.module.dim for s in self.summands)


def _split_by_endomorphism(mod, part):
    """Submodule on the image of an idempotent endomorphism, with both maps.

    The image of a module map is a submodule, so its canonical row basis is
    not spanned again; _submodule_on still raises if it is not stable.
    """
    field = mod.field
    image = field.canon(part.T)
    rows = linalg.row_basis(field, image)
    sub, incl = _submodule_on(mod, rows)
    proj = field.canon(linalg.coords_in_row_basis(field, rows, image).T)
    if not field.eq(field.matmul(proj, incl), field.eye(sub.dim)):
        raise AssertionError("projection does not retract the inclusion")
    return sub, incl, proj


def _first_bijection(field, maps, dim):
    """The first of maps with full rank dim, or None: on Hom(Z, X), the leaf test of the header."""
    return next((f for f in maps if linalg.rank(field, f) == dim), None)


def summand_isomorphism(leaf, n):
    """Isomorphism from a certified summand to a module n (dim n x dim leaf), or None.

    Unequal dimensions, or unequal piece dimensions under the idempotent
    grading hom_space takes (modules.same_piece_dims), answer None before
    any Hom solve; otherwise the leaf test of the header solves Hom(leaf, n).
    """
    if leaf.module.dim != n.dim or not same_piece_dims(leaf.module, n):
        return None
    return _first_bijection(n.field, hom_space(leaf.module, n), n.dim)


def decompose(m, seed=0):
    """Full decomposition into indecomposables, verified and certified.

    Deterministic for a fixed seed: child splits draw their randomness from
    spawned SeedSequences. Raises Inconclusive when some piece can be neither
    split nor certified indecomposable within the search budget. A module
    that is the module of a live certified leaf is answered by that leaf,
    with no Hom solve; any other module is solved afresh (see the header).
    """
    field = m.field
    if m.dim == 0:
        return Decomposition(m, [], [])
    held = m._leaf() if m._leaf is not None else None
    if held is not None:
        return Decomposition(m, [Summand(m, field.eye(m.dim), field.eye(m.dim), held.certificate, held._end)], [[0]])
    # a work list, not a nested function that calls itself: its closure would
    # be a reference cycle, keeping the leaves alive after the decomposition
    # is dropped until the cyclic collector runs. An entry (mod, incl, proj,
    # homs, part, seed) is a split of mod by the idempotent part, made when
    # popped, so the leaves come depth first and the seeds spawn in one order
    leaves = []
    root = endomorphism_algebra(m)
    todo = [(m, field.eye(m.dim), field.eye(m.dim), None, None, np.random.SeedSequence(seed))]
    while todo:
        mod, incl, proj, homs, part, seed_seq = todo.pop()
        if part is None:
            end = root
        else:
            sub, sincl, sproj = _split_by_endomorphism(mod, part)
            sub_homs = _corner(field, homs, sproj, sincl)
            mod, incl, proj, end = sub, field.matmul(incl, sincl), field.matmul(sproj, proj), (EndView(sub, sub_homs), sub_homs)
        e_view, homs = end
        gen = np.random.Generator(np.random.PCG64(seed_seq))
        e_vec, certificate = find_nontrivial_idempotent(e_view, gen)
        if e_vec is None:
            leaves.append(Summand(mod, incl, proj, certificate, end))
            mod._leaf = weakref.ref(leaves[-1])
            continue
        e_mat = field.tensordot(e_vec, e_view.stack, axes=([0], [0]))
        complement = field.canon(field.sub(field.eye(mod.dim), e_mat))
        e_seed, complement_seed = seed_seq.spawn(2)
        # the e-part is split first, and its subtree finished before the complement
        todo += [(mod, incl, proj, homs, complement, complement_seed), (mod, incl, proj, homs, e_mat, e_seed)]

    total = field.zeros((m.dim, m.dim))
    for i, s in enumerate(leaves):
        if not field.eq(field.matmul(s.projection, s.inclusion), field.eye(s.module.dim)):
            raise AssertionError("summand projection fails to retract its inclusion")
        total = field.add(total, field.matmul(s.inclusion, s.projection))
        for j, t in enumerate(leaves):
            if i != j and not field.is_zero(field.matmul(s.projection, t.inclusion)):
                raise AssertionError("summand family is not orthogonal")
    if not field.eq(field.canon(total), field.eye(m.dim)):
        raise AssertionError("summand family does not resolve the identity")

    # the leaf test of the header, on Hom(rep, s) read off the root's End(M)
    classes = []
    for idx, s in enumerate(leaves):
        dim = s.module.dim
        for cls in classes:
            rep = leaves[cls[0]]
            if rep.module.dim != dim:
                continue
            if _first_bijection(field, _corner(field, root[1], s.projection, rep.inclusion), dim) is not None:
                cls.append(idx)
                break
        else:
            classes.append([idx])
    return Decomposition(m, leaves, classes)


def _match_classes(dx, dy):
    """Yield (cls, d, f) for the classes of dx in order: d the isomorphic class of dy
    and f the isomorphism between their representatives, or d = f = None."""
    free = list(range(len(dy.classes)))
    for cls in dx.classes:
        rep = dx.summands[cls[0]]
        for d in free:
            f = summand_isomorphism(rep, dy.summands[dy.classes[d][0]].module)
            if f is not None:
                free.remove(d)
                yield cls, d, f
                break
        else:
            yield cls, None, None


def split_maps(dx, dy):
    """((section, retraction) of dx's module off dy's, None), or (None, the first summand of dx without a partner).

    The k-th member of a class of dx takes the k-th member of its matched
    class; representatives reuse the matcher's isomorphism (see the header).
    """
    field = dx.module.field
    partner, rep_iso = {}, {}
    for cls, d, f in _match_classes(dx, dy):
        if d is not None:
            partner.update(zip(cls, dy.classes[d]))
            rep_iso[cls[0]] = f
    section = field.zeros((dy.module.dim, dx.module.dim))
    retraction = field.zeros((dx.module.dim, dy.module.dim))
    for i, r in enumerate(dx.summands):
        if i not in partner:
            return None, r
        s = dy.summands[partner[i]]
        f = rep_iso[i] if i in rep_iso else summand_isomorphism(r, s.module)
        if f is None:
            raise AssertionError("a class member is not isomorphic to its matched class")
        section = field.add(section, field.matmul(s.inclusion, field.matmul(f, r.projection)))
        retraction = field.add(
            retraction,
            field.matmul(r.inclusion, field.matmul(linalg.invert(field, f), s.projection)),
        )
    return (section, retraction), None


def are_isomorphic(m, n, seed=0):
    """Module isomorphism through matched Krull-Schmidt decompositions.

    Unequal dimensions, or unequal piece dimensions under the idempotent
    grading hom_space takes (modules.same_piece_dims), answer False before
    either module is decomposed: an isomorphism maps each piece onto the
    same piece. An indecomposable m is compared by the leaf test alone,
    without decomposing n: one Hom solve, Hom(m, n), answers whether one of
    its basis maps is bijective.
    """
    _check_compatible(m, n)
    if m.dim != n.dim or not same_piece_dims(m, n):
        return False
    dm = decompose(m, seed=seed)
    if len(dm.summands) == 1:
        return summand_isomorphism(dm.summands[0], n) is not None
    dn = decompose(n, seed=seed + 1)
    if len(dm.summands) != len(dn.summands):
        return False
    return all(d is not None and len(dn.classes[d]) == len(cls) for cls, d, _ in _match_classes(dm, dn))


def complete_primitive_idempotents(a, seed=0):
    """Primitive orthogonal idempotents summing to 1, installed on a.

    modules.projective_indecomposables calls it with seed 0 on first use, so
    an algebra gets its family when its projectives are first read. Summand
    projections of the left regular module are right multiplications, so
    evaluating each at 1 recovers an idempotent; indecomposability of the
    summand makes it primitive.
    """
    if a.idempotents is not None and a.idempotents_primitive:
        return [a.field.copy(e) for e in a.idempotents]
    field = a.field
    dec = decompose(left_regular_module(a), seed=seed)
    es = []
    for s in dec.summands:
        p = field.matmul(s.inclusion, s.projection)
        es.append(field.matmul(p, a.unit))
    failure = idempotent_family_failure(a, es)
    if failure is not None:
        raise AssertionError(failure)
    a.idempotents = [field.copy(e) for e in es]
    a.idempotents_primitive = True
    return es


def block_count(a, seed=0):
    """Number of indecomposable two-sided ideal blocks."""
    return len(decompose(regular_bimodule(a), seed=seed).summands)


def is_connected(a, seed=0):
    return block_count(a, seed=seed) == 1


def is_symmetric(a, seed=0):
    """Whether the regular bimodule is isomorphic to its linear dual."""
    reg = regular_bimodule(a)
    return are_isomorphic(reg, dual_module(reg), seed=seed)
