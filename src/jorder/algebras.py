"""Finite-dimensional associative unital algebras by structure constants.

The multiplication table T is indexed so T[i, j] holds the coordinates of
basis_i * basis_j, where the product applies the right factor first (maps
compose right to left).

Algebras are validated where they enter the library (a user's Algebra(...),
algebra_from_quiver, skew_group_algebra, deserialised documents): a nonzero
dimension, unit laws, associativity, checked exactly on the declared
generators, generation, the idempotent family, and the ideal, nilpotency and
semisimple-quotient conditions on a supplied radical. Algebras built from
algebras the library already holds are correct by construction and pass
check=False. No J-order certificate rests on these checks: it replays by
multiplication.

Radical criteria: the trace bilinear form (valid in characteristic zero and
whenever p exceeds the size of the faithful representation), and for small p
a layered chain of characteristic-polynomial-coefficient forms c_{p^(k-1)}
whose kernels descend to the radical in floor(log_p n) + 1 steps. The chain
runs on whatever faithful representation is cheapest, which for endomorphism
algebras is the module itself rather than the regular representation.

Tensor products index the basis pair (i, j) of A (x) B as i*dim B + j, which
is the axis order of field.kron: a tensor's vectors, table and stacks of
action matrices are krons of their factors', along every axis. The factor
maps x -> x (x) 1 and y -> 1 (x) y come from tensor_factor_maps alone.

The table is read in two shapes: pair_products(a, xs, ys), the products
xs[i] * ys[j] of two element families, and left_regular_mats() and
right_regular_mats(), the multiplication operators of all basis elements,
stacked. Algebra.mul, left_mult_matrix and right_mult_matrix serve the few
callers that hold a single element.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .errors import (
    IdealIsWholeAlgebra,
    NotFiniteDimensional,
    RadicalUnavailable,
)
from .polynomials import charpoly_coefficient
from .quivers import Path, QuiverPresentation, concat_paths, trivial_path

_DIM_CAP = 4096


@dataclass
class Provenance:
    kind: str
    data: dict = dc_field(default_factory=dict)


class Algebra:
    """Structure-constant algebra over GF(p) or the rationals.

    check=False skips every validation, the lazy one in radical_rows() too.
    """

    def __init__(
        self,
        field,
        table,
        unit,
        labels=None,
        *,
        idempotents=None,
        idempotents_primitive=False,
        generators=None,
        radical_rows=None,
        provenance=None,
        label="A",
        check=True,
    ):
        self.field = field
        self.table = field.canon(table)
        if self.table.size == 0:
            raise ValueError("an algebra has dimension at least 1; the table is empty")
        if self.table.ndim != 3 or len(set(self.table.shape)) != 1:
            raise ValueError("structure constants must form a cubic array")
        self.dim = self.table.shape[0]
        self.unit = field.vec(unit)
        self.labels = list(labels) if labels else [f"x{i}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise ValueError("label count must match dimension")
        self.idempotents = [field.vec(e) for e in idempotents] if idempotents else None
        self.idempotents_primitive = bool(idempotents_primitive and self.idempotents)
        self.generators = [field.vec(g) for g in generators] if generators else list(field.eye(self.dim))
        self.provenance = provenance or Provenance("structure_constants")
        self.label = label
        self._opposite = None
        self._radical_rows = None
        self._radical_powers = None
        # modules.projective_indecomposables and simple_modules fill these
        self._projectives = None
        self._simples = None
        # witnesses._enveloping_algebra fills this with (B^op, both families, A (x) B^op)
        self._envelope = None
        # modules.regular_bimodule fills this with a weak reference to the module it built
        self._regular_bimodule = None
        self._check = check
        if check:
            self._check_unit()
            self._check_associativity()
            self._check_generators()
            if self.idempotents is not None:
                failure = idempotent_family_failure(self, self.idempotents)
                if failure is not None:
                    raise ValueError(failure)
        if radical_rows is not None:
            rows = linalg.row_basis(field, field.canon(np.atleast_2d(radical_rows)))
            if check:
                self._verify_radical(rows)
            self._radical_rows = rows

    # ---- basic arithmetic -------------------------------------------------

    def basis_vector(self, i):
        v = self.field.zeros((self.dim,))
        v[i] = self.field.one
        return v

    def mul(self, x, y):
        """Product x*y (y acts first under the composition convention)."""
        tmp = self.field.tensordot(x, self.table, axes=(0, 0))
        return self.field.tensordot(y, tmp, axes=(0, 0))

    def products(self, idx):
        """The structure constants of the basis elements idx among themselves."""
        return self.table[np.ix_(idx, idx)]

    def left_mult_matrix(self, x):
        return self.field.tensordot(x, self.table, axes=(0, 0)).T

    def right_mult_matrix(self, y):
        return self.field.tensordot(y, self.table, axes=(0, 1)).T

    def left_regular_mats(self):
        return self.field.canon(self.table.transpose(0, 2, 1))

    def right_regular_mats(self):
        return self.field.canon(self.table.transpose(1, 2, 0))

    def is_commutative(self):
        return self.field.eq(self.table, self.table.transpose(1, 0, 2))

    # ---- validation -------------------------------------------------------

    def _check_unit(self):
        lu = self.field.tensordot(self.unit, self.table, axes=(0, 0))
        ru = self.field.tensordot(self.unit, self.table, axes=(0, 1))
        eye = self.field.eye(self.dim)
        if not (self.field.eq(lu, eye) and self.field.eq(ru, eye)):
            raise ValueError("unit element fails the unit laws")

    def _check_associativity(self):
        """L(g x) = L(g) L(x) for every declared generator g and basis element x.

        That proves (x y) z = x (y z) everywhere: the x with L(x y) = L(x) L(y)
        for all y form a subspace that holds 1 (the unit laws) and is closed
        under products, so once _check_generators shows that the generators
        generate, it is all of A. The check costs |G| d^4 multiply-adds and
        holds one generator's d x d x d products at a time.
        """
        mats = self.left_regular_mats()
        for lg in self.field.tensordot(np.array(self.generators), mats, axes=(1, 0)):
            # column j of L(g) is g x_j, so its tensordot with the stack is the stack of L(g x_j)
            if not self.field.eq(self.field.tensordot(lg, mats, axes=(0, 0)), linalg.stack_product(self.field, lg, mats)):
                raise ValueError("multiplication table is not associative")

    def _check_generators(self):
        gens = np.array(self.generators)
        span = linalg.row_basis(self.field, np.concatenate([self.unit.reshape(1, -1), gens], axis=0))
        # mults[k] right-multiplies a row vector x to give g x (left half) or x g (right half)
        mults = np.concatenate([self.field.tensordot(gens, self.table, axes=([1], [axis])) for axis in (0, 1)])
        while True:
            products = self.field.matmul(span, mults).reshape(-1, self.dim)
            stacked = np.concatenate([span, products], axis=0)
            new_span = linalg.row_basis(self.field, stacked)
            if new_span.shape[0] == span.shape[0]:
                break
            span = new_span
        if span.shape[0] != self.dim:
            raise ValueError("declared generators do not generate the algebra")

    def _verify_radical(self, rows):
        if rows.shape[0] == 0:
            if criterion_radical_rows(self).shape[0] != 0:
                raise ValueError("claimed semisimple but the radical criterion disagrees")
            return
        base = linalg.row_basis(self.field, rows)
        if not _is_ideal(self, base):
            raise ValueError("radical candidate is not a two-sided ideal")
        if _ideal_powers(self, base) is None:
            raise ValueError("radical candidate is not nilpotent")
        # semisimple quotient: the criterion radical of A/J must vanish
        q_table, _, _, _ = _quotient_structure(self, base)
        if matrix_algebra_radical(self.field, q_table.transpose(0, 2, 1)).shape[0] != 0:
            raise ValueError("quotient by the radical candidate is not semisimple")

    # ---- radical and Loewy structure ---------------------------------------

    def radical_rows(self):
        """Canonical row basis of the Jacobson radical."""
        if self._radical_rows is None:
            rows = criterion_radical_rows(self)
            if rows.shape[0] and self._check:
                self._verify_radical(rows)
            self._radical_rows = rows
        return self._radical_rows

    def radical_powers(self):
        """[J, J^2, ...] as row bases, stopping before the zero power."""
        if self._radical_powers is None:
            powers = _ideal_powers(self, self.radical_rows())
            if powers is None:
                raise AssertionError("radical rows are not nilpotent")
            self._radical_powers = powers
        return self._radical_powers

    def loewy_length(self):
        return len(self.radical_powers()) + 1

    def loewy_layer_dims(self):
        """Dims of A >= J >= J^2 >= ... >= 0, ending in 0."""
        return [self.dim] + [p.shape[0] for p in self.radical_powers()] + [0]

    def opposite(self):
        if self._opposite is None:
            opp = Algebra(
                self.field,
                self.table.transpose(1, 0, 2),
                self.unit,
                self.labels,
                idempotents=self.idempotents,
                idempotents_primitive=self.idempotents_primitive,
                generators=self.generators,
                radical_rows=self._radical_rows,
                provenance=Provenance("opposite", {"parent": self}),
                label=f"{self.label}^op",
                check=False,
            )
            opp._opposite = self
            self._opposite = opp
        return self._opposite

    def __repr__(self):
        return f"Algebra({self.label}, dim {self.dim} over {self.field.name})"


def pair_products(a, xs, ys):
    """prods[i, j] = xs[i] * ys[j] (ys[j] acts first), from two contractions against the table."""
    field = a.field
    half = field.tensordot(np.asarray(xs), a.table, axes=([1], [0]))  # (i, b, k): xs[i] * x_b
    return field.tensordot(half, np.asarray(ys), axes=([1], [1])).transpose(0, 2, 1)


def idempotent_family_failure(a, family):
    """The first failure of family, or None: each element idempotent, then orthogonal to the rest; the sum the unit."""
    field, fam = a.field, np.array(family)
    prods = pair_products(a, fam, fam)
    for i, e in enumerate(family):
        if not field.eq(prods[i, i], e):
            return f"family element {i} is not idempotent"
        if any(i != j and not field.is_zero(prods[i, j]) for j in range(len(fam))):
            return "idempotent family is not orthogonal"
    if not field.eq(field.canon(fam.sum(axis=0)), a.unit):
        return "idempotent family does not sum to the unit"
    return None


# ---- radical criteria -------------------------------------------------------


def _chain_gram(field, prods, j):
    """Gram matrix of one chain layer over GF(p), prods of shape (c, c, n, n).

    Entry (s, t) is the coefficient of x^(n-j) in the characteristic
    polynomial of prods[s, t], as charpoly_coefficient computes it.
    """
    p = field.char
    if j == 1:
        return (-np.trace(prods, axis1=2, axis2=3)) % p
    if j == 2:
        t1 = np.trace(prods, axis1=2, axis2=3)
        # the halving needs tr M^2 over the integers, not mod p; unreduced
        # entries stay below n * p^2, so int64 is exact
        t2 = np.trace(np.matmul(prods, prods), axis1=2, axis2=3)
        return ((t1 * t1 - t2) // 2) % p
    c = prods.shape[0]
    gram = field.zeros((c, c))
    for s in range(c):
        for t in range(c):
            gram[s, t] = charpoly_coefficient(field, prods[s, t], j)
    return gram


def matrix_algebra_radical(field, mats):
    """Radical of the span of faithful-representation matrices.

    mats has shape (r, n, n) and must span an associative algebra. Returns
    the reduced echelon basis of its coefficient rows over the input basis.
    Uses the trace form when the characteristic is 0 or exceeds n, otherwise
    the layered coefficient chain, which is valid over every prime field.
    """
    mats = field.canon(np.asarray(mats))
    r, n = mats.shape[0], mats.shape[1]
    if r == 0:
        return field.zeros((0, 0))
    if field.char == 0 or field.char > n:
        gram = field.tensordot(mats, mats, axes=([1, 2], [2, 1]))
        _, ker = linalg.rank_nullspace(field, gram)
        return linalg.row_basis(field, ker.T)
    p = field.char
    steps = 1
    while p**steps <= n:
        steps += 1
    current = field.eye(r)
    for k in range(1, steps + 1):
        if current.shape[0] == 0:
            break
        layer = field.tensordot(current, mats, axes=([1], [0]))  # (c, n, n)
        prods = field.tensordot(layer, layer, ([2], [1])).transpose(0, 2, 1, 3)  # layer[s] layer[t]
        gram = _chain_gram(field, prods, p ** (k - 1))
        _, ker = linalg.rank_nullspace(field, gram)
        current = linalg.row_basis(field, field.matmul(ker.T, current))
    coeffs = current
    # the chain's output must be nilpotent; verify before trusting it
    span = field.tensordot(coeffs, mats, axes=([1], [0]))
    power = span
    for _ in range(n + 1):
        if power.shape[0] == 0 or linalg.rank(field, power.reshape(power.shape[0], -1)) == 0:
            break
        prods = field.tensordot(span, power, ([2], [1])).transpose(0, 2, 1, 3).reshape(-1, n, n)
        rows = linalg.row_basis(field, prods.reshape(-1, n * n))
        power = rows.reshape(-1, n, n)
    else:
        raise RadicalUnavailable("coefficient chain did not terminate in a nilpotent ideal")
    return linalg.row_basis(field, coeffs)


def criterion_radical_rows(algebra):
    """Radical via the applicable computed criterion (no structural data)."""
    return matrix_algebra_radical(algebra.field, algebra.left_regular_mats())


# ---- quotients, subalgebras, tensor, opposite -------------------------------


def _quotient_structure(algebra, ideal_rows):
    """Structure constants and unit of A / ideal, plus the projection and section.

    ideal_rows must be in reduced echelon form; the quotient's basis is the
    images of the free (non-pivot) basis elements. The quotient map is
    multiplicative, so only the products of those elements are read.
    """
    field = algebra.field
    proj, section = linalg.complement_projection(field, ideal_rows, algebra.dim)
    free = section.nonzero()[0]
    table = field.matmul(algebra.products(free), proj.T)
    return table, field.matmul(proj, algebra.unit), proj, section


def _is_ideal(algebra, rows):
    """Whether the span of the row basis is closed under both multiplications by the basis."""
    field = algebra.field
    left = field.tensordot(rows, algebra.table, axes=([1], [0])).reshape(-1, algebra.dim)
    right = field.tensordot(rows, algebra.table, axes=([1], [1])).reshape(-1, algebra.dim)
    return linalg.coords_in_row_basis(field, rows, np.concatenate([left, right])) is not None


def _ideal_powers(algebra, base):
    """[I, I^2, ...] for the ideal with row basis base, down to the last nonzero power.

    None when the powers do not reach zero within dim + 1 steps.
    """
    field = algebra.field
    powers = []
    power = base
    for _ in range(algebra.dim + 1):
        if power.shape[0] == 0:
            return powers
        powers.append(power)
        power = linalg.row_basis(field, pair_products(algebra, power, base).reshape(-1, algebra.dim))
    return None


def quotient_algebra(algebra, ideal_rows, label=None):
    """Quotient by a two-sided ideal given as a row span."""
    field = algebra.field
    rows = linalg.row_basis(field, field.canon(np.atleast_2d(ideal_rows)))
    if rows.shape[0] and rows.shape[1] != algebra.dim:
        raise ValueError("ideal rows have the wrong width")
    if rows.shape[0]:
        if not _is_ideal(algebra, rows):
            raise ValueError("rows do not span a two-sided ideal")
        if linalg.coords_in_row_basis(field, rows, algebra.unit) is not None:
            raise IdealIsWholeAlgebra("the ideal contains the unit")
    table, unit, proj, section = _quotient_structure(algebra, rows)
    labels = [algebra.labels[f] for f in section.nonzero()[0]]
    idempotents = None
    if algebra.idempotents is not None:
        images = [field.matmul(proj, e) for e in algebra.idempotents]
        idempotents = [e for e in images if not field.is_zero(e)]
    gen_images = [field.matmul(proj, g) for g in algebra.generators]
    rad_images = field.matmul(algebra.radical_rows(), proj.T)
    # rad(A/I) is the image of rad(A) for any ideal I
    return Algebra(
        field,
        table,
        unit,
        labels,
        idempotents=idempotents,
        idempotents_primitive=False,
        generators=gen_images,
        radical_rows=linalg.row_basis(field, rad_images),
        provenance=Provenance("quotient", {"parent": algebra, "ideal_rows": rows}),
        label=label or f"{algebra.label}/I",
        check=False,
    )


def subalgebra_from_rows(algebra, rows, *, label=None, provenance=None):
    """Unital subalgebra spanned by the given rows (must be closed)."""
    field = algebra.field
    basis = linalg.row_basis(field, field.canon(np.atleast_2d(rows)))
    m = basis.shape[0]
    unit_coords = linalg.coords_in_row_basis(field, basis, algebra.unit)
    if unit_coords is None:
        raise ValueError("subalgebra must contain the unit")
    coords = linalg.coords_in_row_basis(field, basis, pair_products(algebra, basis, basis).reshape(-1, algebra.dim))
    if coords is None:
        raise ValueError("rows are not closed under multiplication")
    # block i of coords holds the products basis_i * basis_j for j = 0..m-1
    table = coords.reshape(m, m, m)
    sub = Algebra(
        field,
        table,
        unit_coords[0],
        [f"s{i}" for i in range(m)],
        provenance=provenance or Provenance("subalgebra", {"parent": algebra, "rows": basis}),
        label=label or f"{algebra.label}-sub",
        check=False,
    )
    sub.inclusion_rows = basis
    return sub


def tensor_factor_maps(a, b):
    """The algebra maps x -> x (x) 1 of A and y -> 1 (x) y of B into A (x) B.

    Columns are the images of the basis vectors, as in check_algebra_hom.
    """
    field = a.field
    return (
        field.kron(field.eye(a.dim), b.unit.reshape(-1, 1)),
        field.kron(a.unit.reshape(-1, 1), field.eye(b.dim)),
    )


def tensor_algebra(a, b, label=None):
    """A tensor B with componentwise product; basis index (i, j) -> i*dim_b + j."""
    if a.field != b.field:
        raise ValueError("tensor factors must share the field")
    if a.dim * b.dim > 200:
        raise ValueError("tensor algebra dimension exceeds the supported size")
    field = a.field
    left, right = tensor_factor_maps(a, b)
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    idempotents = None
    primitive = False
    if a.idempotents is not None and b.idempotents is not None:
        idempotents = [field.kron(e, f) for e in a.idempotents for f in b.idempotents]
        primitive = a.idempotents_primitive and b.idempotents_primitive
    gens = [field.matmul(left, g) for g in a.generators] + [field.matmul(right, g) for g in b.generators]
    rad_a, rad_b = a.radical_rows(), b.radical_rows()
    blocks = []
    if rad_a.shape[0]:
        blocks.append(field.kron(rad_a, field.eye(b.dim)))
    if rad_b.shape[0]:
        blocks.append(field.kron(field.eye(a.dim), rad_b))
    rad = linalg.row_basis(field, np.concatenate(blocks, axis=0)) if blocks else field.zeros((0, a.dim * b.dim))
    return Algebra(
        field,
        field.kron(a.table, b.table),
        field.kron(a.unit, b.unit),
        labels,
        idempotents=idempotents,
        idempotents_primitive=primitive,
        generators=gens,
        radical_rows=rad,
        provenance=Provenance("tensor", {"left": a, "right": b}),
        label=label or f"{a.label}(x){b.label}",
        check=False,
    )


def check_algebra_hom(source, target, phi):
    """Canonical matrix of a unit-preserving algebra map source -> target.

    Column i of phi is the image of basis vector i. The map is
    multiplicative iff phi T_s[i, j] = T_t(phi e_i, phi e_j) for every pair
    of basis vectors, compared for all pairs at once.
    """
    field = source.field
    phi = field.canon(np.asarray(phi))
    if phi.shape != (target.dim, source.dim):
        raise ValueError("homomorphism matrix has the wrong shape")
    if not field.eq(field.matmul(phi, source.unit), target.unit):
        raise ValueError("the map does not preserve the unit")
    images = field.tensordot(source.table, phi, axes=([2], [1]))  # (i, j, k)
    if not field.eq(images, pair_products(target, phi.T, phi.T)):
        raise ValueError("the map is not an algebra homomorphism")
    return phi


# ---- quiver presentation -> algebra -----------------------------------------


def algebra_from_quiver(pres: QuiverPresentation, field, label=None):
    """Path algebra of the presentation's quiver modulo its relations.

    Works degree by degree: candidates at degree d extend the surviving paths
    of degree d-1 by one arrow, in (prefix index, arrows_from) order; relation
    sandwiches ending at degree d are imposed and the quotient's canonical
    representatives kept. Terminates when a whole degree dies (all longer
    paths then die too) or the quiver has no longer paths; raises
    NotFiniteDimensional past max_path_length.

    The basis is the surviving paths in degree layers, so it starts with the
    vertices in quiver order, then every arrow in quiver order (relations
    have length >= 2); the unit, idempotents, generators and radical are
    slices of the identity in this layout.
    """
    quiver = pres.quiver
    nv, na = len(quiver.vertices), len(quiver.arrows)
    vertex_index = {v: k for k, v in enumerate(quiver.vertices)}
    layers = [  # degree -> surviving paths
        [trivial_path(v) for v in quiver.vertices],
        [Path(a.source, a.target, (i,)) for i, a in enumerate(quiver.arrows)],
    ]
    extend = [None, None]  # degree -> {(prefix index, arrow): candidate column}
    to_free = [field.eye(nv), field.eye(na)]  # degree -> candidate coords to surviving coords
    memo = {}  # path.arrows -> coords, for degree >= 2

    def candidate_coords(path):
        """Coordinates over the degree-d candidates of a path of degree d >= 2."""
        d = path.length
        pv = coords(Path(path.source, quiver.arrows[path.arrows[-1]].source, path.arrows[:-1]))
        out = field.zeros((len(extend[d]),))
        for fi in pv.nonzero()[0]:
            ci = extend[d].get((fi, path.arrows[-1]))
            if ci is None:
                raise AssertionError("reduced prefix has no candidate column")
            out[ci] = pv[fi]
        return out

    def coords(path):
        """Coordinates of a path over the surviving paths of its degree."""
        if path.length < 2:
            return to_free[path.length][path.arrows[0] if path.arrows else vertex_index[path.source]]
        if path.arrows not in memo:
            memo[path.arrows] = field.matmul(to_free[path.length], candidate_coords(path))
        return memo[path.arrows]

    while layers[-1]:
        degree = len(layers)
        if degree > pres.max_path_length:
            raise NotFiniteDimensional(
                f"nonzero paths persist past max_path_length={pres.max_path_length}"
            )
        candidates, columns = [], {}
        for fi, p in enumerate(layers[-1]):
            for ai in quiver.arrows_from(p.target):
                columns[(fi, ai)] = len(candidates)
                candidates.append(Path(p.source, quiver.arrows[ai].target, p.arrows + (ai,)))
        if len(candidates) > _DIM_CAP:
            raise NotFiniteDimensional("path growth exceeds the supported size")
        extend.append(columns)
        rows = []
        for rel in pres.relations:
            lead, source = degree - rel[0][1].length, rel[0][1].source
            for f in layers[lead] if lead >= 0 else ():
                if f.target == source:  # then f * term is a path for every term
                    terms = [candidate_coords(concat_paths(quiver, f, t)) for _, t in rel]
                    rows.append(field.matmul(field.vec([c for c, _ in rel]), np.array(terms)))
        rows = linalg.row_basis(field, np.array(rows)) if rows else field.zeros((0, len(candidates)))
        # a pivot candidate reduces to minus the free part of its row
        proj, sect = linalg.complement_projection(field, rows, len(candidates))
        to_free.append(proj)
        layers.append([candidates[c] for c in sect.nonzero()[0]])
        if sum(map(len, layers)) > _DIM_CAP:
            raise NotFiniteDimensional("algebra dimension exceeds the supported size")

    basis = [p for layer in layers for p in layer]
    off = np.cumsum([0] + [len(layer) for layer in layers])
    n = len(basis)
    table = field.zeros((n, n, n))
    for i, pi in enumerate(basis):
        for j, pj in enumerate(basis):
            prod = concat_paths(quiver, pj, pi)  # mul(x_i, x_j): walk x_j, then x_i
            if prod is not None and prod.length < len(layers) - 1:
                table[i, j, off[prod.length] : off[prod.length + 1]] = coords(prod)
    eye = field.eye(n)
    return Algebra(
        field,
        table,
        eye[:nv].sum(axis=0),
        [p.label(quiver) for p in basis],
        idempotents=list(eye[:nv]),
        idempotents_primitive=True,
        generators=list(eye[: nv + na]),
        radical_rows=eye[nv:],
        provenance=Provenance(
            "quiver",
            {
                "presentation": pres,
                "acyclic": quiver.is_acyclic(),
                "vertex_index": vertex_index,
                "degrees": [(d, p) for d, layer in enumerate(layers) for p in layer],
            },
        ),
        label=label or "kQ/I",
    )
