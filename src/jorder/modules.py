"""Modules and bimodules over structure-constant algebras.

Vectors are columns. A left action stores one matrix per algebra basis
element with L(a*b) = L(a) L(b); a right action stores matrices with
R(a*b) = R(b) R(a), so right modules are left modules over the opposite
algebra without re-indexing. Action validity is checked on algebra
generators only. L(g x) = L(g) L(x) for every generator g and basis element
x is enough, by the lemma in algebras.Algebra._check_associativity: the x
whose action is multiplicative against every y form a subalgebra that holds
the generators. A generator-pair commuting check is enough for bimodule
compatibility because each commutant is a subalgebra.

Modules are validated where they enter the library: a user's Module(...),
the catalog's hand-entered modules and deserialised documents, with
check=True. Every function that builds a module from library modules and
checked algebra maps (sums, subquotients, tensor products, duals, twists, Hom
into the regular module, re-readings over tensor algebras) passes
check=False; its actions are modules by construction. twist_left and
twist_right still check the automorphism their caller hands them.

Every module-map check goes through is_module_map, one batched product of f
against the basis action matrices of every side, stacked, and every split
check through is_split: retraction . section = 1 and both maps module maps.

Enveloping algebras are never materialized; every bimodule operation works
directly on the two families of action matrices.

Change of rings is one expression each way. Restricting an action along an
algebra map phi (columns are the images of basis vectors) is
field.tensordot(phi, mats, axes=([0], [0])): row i of phi^T picks the action
of phi(x_i). Tensoring with a second action is field.kron of the two stacks,
in the basis order of algebras.tensor_algebra.

Hom spaces are solved in piece coordinates, as a quiver-representation system
(Assem, Simson and Skowronski, Elements, section III.1): a map at each
vertex, commuting with the arrows. A module map commutes with the complete
orthogonal idempotent families of the acting algebras, so Hom(M, N) lies in
the sum over pieces of Hom_k(e.M.f, e.N.f), which is all of Hom_k(M, N) when
no family splits M. In the basis of the pieces a map is block diagonal, and
each remaining generator X, read as C X B, gives linear rows on the block
entries, written by index assignment. A homogeneous generator (an arrow)
only links the blocks it connects, so most of its rows are zero and are
dropped. One nullspace over all the rows solves the system, with no
Kronecker matrix and no residual products.

Tensor products go through the same solver. By the tensor-Hom adjunction
D(M (x)_B N) = Hom_B(N, DM) (Anderson-Fuller, Rings and Categories of
Modules, sections 19-20), the balancing subspace of M (x)_k N is the common
kernel of the rows of Hom_B(N, DM), which _hom_rows returns unreduced.
hom_space takes their canonical row basis; tensor_over instead eliminates
them once with their columns reversed, and that one reduced form, reversed
back, is the projection onto the tensor product
(linalg.quotient_projection). Actions induced on subquotients and tensor
products are batched products, with no Kronecker matrix.

Projectives and simples are structure of the algebra, built once and held
on it, and so is the primitive idempotent family they rest on.
projective_indecomposables fills a._projectives on its first call, installing
the family through decomp.complete_primitive_idempotents when a has none.
simple_modules fills a._simples, with whether every simple has a
one-dimensional endomorphism ring. opposite() never copies them: A^op builds its own, over A^op. Holding them
is sound because no algebra's table, unit or installed primitive family and
no module's action matrices change after they are set. For a split algebra
the projective cover of M is the sum of dim(e_k.top M) copies of P_k = A e_k
over the distinct simples S_k, so is_projective compares that sum of
dimensions with dim M and builds no cover (Assem, Simson and Skowronski,
Elements of the Representation Theory of Associative Algebras, section I.5).

A module holds its own solver structure the same way, each slot filled on
first read. _graded holds the pieces e.M.f of the grading by two idempotent
families, keyed by the identity of both family lists, which are the acting
algebras' installed families, and with them their frame (_frame): the bases
side by side, B, and the coordinate rows stacked, C = B^-1. _piece_actions
holds C X B for the generators X outside the family, keyed by the identity
of the generator list, the family list and the frame; _hom_rows reads n's
against m's algebra, whose lists may differ from n's own. summand_isomorphism
and are_isomorphic compare piece dimensions off the held frame before any Hom
solve or decomposition. The generators' action matrices themselves
(_generator_actions, one contraction of the generator rows with an action
stack) are not held: on the benchmark workloads a held copy answered at most
8% of its reads (none on lrproj-gf101), while building every stack costs
1-5% of a pass. _validate reads them, _piece_actions reads them when it
fills its slot, and submodule reads them through _all_generator_actions. A
held value is the exact array the builder would return again: no module's
action matrices change after they are set, and an algebra replaces its
generator or family list rather than editing it, so a changed list misses
the key and rebuilds.
_leaf is decomp's: a weak reference to the certified Summand a decomposition
proved the module to be. So is _decomposition: the seed and a weak reference
to the last Decomposition of the module itself.

regular_bimodule(a) hands out one module per algebra while anything uses it:
a._regular_bimodule is a weak reference to the last one built, and a call
while it is alive returns that object, with its held leaf and pieces. So a
caller that decomposes A once and keeps the Decomposition (the witness
search does) has every later decompose of the regular bimodule answered from
the held leaf when A is connected, and from the held Decomposition at the
same seed when it is not. The reference is weak: no algebra keeps
its regular bimodule, and once its last user drops it the next call builds a
new one with equal matrices.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebras import check_algebra_hom
from .errors import NonSplitResidueField, NotAutomorphism, SingularMatrix


class Module:
    """A left module, right module, or bimodule, by explicit action matrices."""

    def __init__(self, left_algebra, right_algebra, left_mats, right_mats, label="M", check=True):
        if left_algebra is None and right_algebra is None:
            raise ValueError("a module needs at least one acting algebra")
        if left_algebra is not None and right_algebra is not None:
            if left_algebra.field != right_algebra.field:
                raise ValueError("both acting algebras must share the field")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.field = (left_algebra or right_algebra).field
        field = self.field
        self.left_mats = None if left_mats is None else field.canon(np.asarray(left_mats))
        self.right_mats = None if right_mats is None else field.canon(np.asarray(right_mats))
        ref = self.left_mats if self.left_mats is not None else self.right_mats
        self.dim = ref.shape[1]
        self.label = label
        # _graded and _piece_actions fill these
        self._graded_pieces = None
        self._piece_stacks = [None, None]
        # a weak reference to the certified Summand decomp.decompose proved this module to be, if any
        self._leaf = None
        # (seed, weak reference to the Decomposition decomp.decompose made of this module at that seed)
        self._decomposition = None
        if self.left_mats is not None and (
            self.left_mats.shape != (left_algebra.dim, self.dim, self.dim)
        ):
            raise ValueError("left action matrices have the wrong shape")
        if self.right_mats is not None and (
            self.right_mats.shape != (right_algebra.dim, self.dim, self.dim)
        ):
            raise ValueError("right action matrices have the wrong shape")
        if check:
            self._validate()

    # ---- actions ------------------------------------------------------------

    def left_action(self, a):
        return self.field.tensordot(a, self.left_mats, axes=(0, 0))

    def right_action(self, b):
        return self.field.tensordot(b, self.right_mats, axes=(0, 0))

    def _validate(self):
        field, eye = self.field, self.field.eye(self.dim)
        # column j of left_mult_matrix(g) is g x_j, so its tensordot with the
        # action matrices is the stack of the actions of g x_j
        lefts = rights = None
        if self.left_mats is not None:
            a, mats = self.left_algebra, self.left_mats
            if not field.eq(self.left_action(a.unit), eye):
                raise ValueError("left action of the unit is not the identity")
            lefts = _generator_actions(mats, a)
            for g, lg in zip(a.generators, lefts):
                products = linalg.stack_product(field, lg, mats)
                if not field.eq(field.tensordot(a.left_mult_matrix(g), mats, axes=(0, 0)), products):
                    raise ValueError("left action is not multiplicative")
        if self.right_mats is not None:
            b, mats = self.right_algebra, self.right_mats
            if not field.eq(self.right_action(b.unit), eye):
                raise ValueError("right action of the unit is not the identity")
            rights = _generator_actions(mats, b)
            for g, rg in zip(b.generators, rights):
                if not field.eq(field.tensordot(b.left_mult_matrix(g), mats, axes=(0, 0)), field.matmul(mats, rg)):
                    raise ValueError("right action is not anti-multiplicative")
        if lefts is not None and rights is not None:
            for lg in lefts:
                if not intertwines(field, lg, rights, rights):
                    raise ValueError("left and right actions do not commute")

    # ---- views --------------------------------------------------------------

    def restrict_left(self):
        if self.left_mats is None:
            raise ValueError("module has no left action")
        return Module(self.left_algebra, None, self.left_mats, None, f"{self.label}|left", check=False)

    def restrict_right(self):
        if self.right_mats is None:
            raise ValueError("module has no right action")
        return Module(None, self.right_algebra, None, self.right_mats, f"{self.label}|right", check=False)

    def sidedness(self):
        if self.left_mats is not None and self.right_mats is not None:
            return "bimodule"
        return "left" if self.left_mats is not None else "right"

    def __repr__(self):
        sides = []
        if self.left_algebra is not None:
            sides.append(f"left {self.left_algebra.label}")
        if self.right_algebra is not None:
            sides.append(f"right {self.right_algebra.label}")
        return f"Module({self.label}, dim {self.dim}, {', '.join(sides)})"


def intertwines(field, f, src_mats, dst_mats):
    """Whether f src_mats[i] = dst_mats[i] f for every i, as one batched product."""
    return field.eq(linalg.stack_product(field, f, src_mats), field.matmul(dst_mats, f))


def is_module_map(f, x, y):
    """Whether f: x -> y commutes with the basis actions of every side, stacked: one intertwines call."""
    x_mats, y_mats = ([mats for mats in (m.left_mats, m.right_mats) if mats is not None] for m in (x, y))
    return intertwines(x.field, f, np.concatenate(x_mats), np.concatenate(y_mats))


def is_split(x, y, section, retraction):
    """Whether (section, retraction) splits x off y: retraction . section = 1_x, both module maps."""
    field = x.field
    identity = field.eq(field.matmul(retraction, section), field.eye(x.dim))
    return identity and is_module_map(section, x, y) and is_module_map(retraction, y, x)


def _generator_actions(mats, algebra):
    """The action matrices of the algebra's generators, stacked."""
    return algebra.field.tensordot(np.array(algebra.generators), mats, axes=(1, 0))


def _sides(m):
    """(action matrices, algebra) for the left side, then the right; None where m has no such action."""
    return (m.left_mats, m.left_algebra), (m.right_mats, m.right_algebra)


def _same_algebra(a, b):
    return a is b or (a is not None and b is not None and a.field == b.field and a.dim == b.dim and a.field.eq(a.table, b.table))


def _compatible(m, n):
    if m.sidedness() != n.sidedness():
        return False
    if (m.left_algebra is None) != (n.left_algebra is None):
        return False
    if m.left_algebra is not None and not _same_algebra(m.left_algebra, n.left_algebra):
        return False
    if (m.right_algebra is None) != (n.right_algebra is None):
        return False
    if m.right_algebra is not None and not _same_algebra(m.right_algebra, n.right_algebra):
        return False
    return True


def _check_compatible(m, n):
    if not _compatible(m, n):
        raise ValueError("the modules need identical sidedness and algebras")


# ---- standard modules --------------------------------------------------------


def left_regular_module(a):
    return Module(a, None, a.left_regular_mats(), None, f"{a.label} (left regular)", check=False)


def right_regular_module(a):
    return Module(None, a, None, a.right_regular_mats(), f"{a.label} (right regular)", check=False)


def regular_bimodule(a):
    """A as an A-A-bimodule: the one still alive from an earlier call, else a new one.

    Held weakly on a (see the header), so a caller that keeps it keeps its
    held leaf, and nothing outlives its last user.
    """
    held = a._regular_bimodule() if a._regular_bimodule is not None else None
    if held is None:
        held = Module(a, a, a.left_regular_mats(), a.right_regular_mats(), f"{a.label} (regular)", check=False)
        a._regular_bimodule = weakref.ref(held)
    return held


def zero_module(left_algebra, right_algebra):
    f = (left_algebra or right_algebra).field
    lm = None if left_algebra is None else f.zeros((left_algebra.dim, 0, 0))
    rm = None if right_algebra is None else f.zeros((right_algebra.dim, 0, 0))
    return Module(left_algebra, right_algebra, lm, rm, "0", check=False)


def module_over_opposite(m):
    """Re-read a right B-module as a left module over B^op (same matrices)."""
    if m.right_mats is None:
        raise ValueError("module has no right action")
    return Module(m.right_algebra.opposite(), None, m.right_mats, None, f"{m.label} as op-left", check=False)


def direct_sum(mods):
    """Block-diagonal sum; returns (module, inclusions, projections)."""
    if not mods:
        raise ValueError("empty direct sum")
    first = mods[0]
    for m in mods[1:]:
        if not _compatible(first, m):
            raise ValueError("direct summands must share sidedness and algebras")
    field = first.field
    dims = [m.dim for m in mods]
    total = sum(dims)
    offsets = np.cumsum([0] + dims)

    def blockify(mats_list, algebra):
        out = field.zeros((algebra.dim, total, total))
        for k, mats in enumerate(mats_list):
            s, e = offsets[k], offsets[k + 1]
            out[:, s:e, s:e] = mats
        return out

    lm = blockify([m.left_mats for m in mods], first.left_algebra) if first.left_mats is not None else None
    rm = blockify([m.right_mats for m in mods], first.right_algebra) if first.right_mats is not None else None
    total_mod = Module(
        first.left_algebra, first.right_algebra, lm, rm,
        " + ".join(m.label for m in mods), check=False,
    )
    eye = field.eye(total)
    incls = [field.copy(eye[:, s:e]) for s, e in zip(offsets, offsets[1:])]
    projs = [field.copy(eye[s:e]) for s, e in zip(offsets, offsets[1:])]
    return total_mod, incls, projs


# ---- subquotients -------------------------------------------------------------


def _all_generator_actions(m):
    """The generators' action matrices on every side m carries, stacked."""
    return np.concatenate([
        _generator_actions(mats, alg) for mats, alg in _sides(m) if mats is not None
    ])


def _moved_rows(field, rows, mats):
    """The rows moved by every matrix of the stack, one block of rows per matrix."""
    moved = field.matmul(mats, rows.T).transpose(0, 2, 1)
    return moved.reshape(mats.shape[0] * rows.shape[0], rows.shape[1])


def submodule(m, rows, label=None):
    """Span the rows under all actions; returns (sub, inclusion columns)."""
    field = m.field
    basis = linalg.row_basis(field, field.canon(np.atleast_2d(rows)))
    gens = _all_generator_actions(m)
    while True:
        new_basis = linalg.row_basis(field, np.concatenate([basis, _moved_rows(field, basis, gens)]))
        if new_basis.shape[0] == basis.shape[0]:
            break
        basis = new_basis
    return _submodule_on(m, basis, label)


def _submodule_on(m, basis, label=None):
    """submodule for a row basis that is action-stable by construction, with no span loop.

    The induced actions are coordinates read against the basis, so a basis
    that is not stable raises AssertionError there.
    """
    field = m.field
    s = basis.shape[0]

    def induced(mats):
        # the images of the basis rows under every basis element, solved at once
        coords = linalg.coords_in_row_basis(field, basis, _moved_rows(field, basis, mats))
        if coords is None:
            raise AssertionError("submodule basis is not action-stable")
        return coords.reshape(mats.shape[0], s, s).transpose(0, 2, 1)

    lm = induced(m.left_mats) if m.left_mats is not None else None
    rm = induced(m.right_mats) if m.right_mats is not None else None
    sub = Module(m.left_algebra, m.right_algebra, lm, rm, label or f"{m.label}-sub", check=False)
    return sub, field.canon(basis.T)


def _quotient(m, basis, label):
    """The quotient of m by an action-stable row basis; returns (quotient, projection).

    Every caller hands it a span that is stable by construction (a radical
    layer, a submodule's basis), so it checks nothing.
    """
    proj, sect = linalg.complement_projection(m.field, basis, m.dim)
    free = sect.nonzero()[0]  # the section's ones sit at the free columns: X sect = X[:, free]
    # proj X sect for every action matrix X
    lm = linalg.stack_product(m.field, proj, m.left_mats[:, :, free]) if m.left_mats is not None else None
    rm = linalg.stack_product(m.field, proj, m.right_mats[:, :, free]) if m.right_mats is not None else None
    quo = Module(m.left_algebra, m.right_algebra, lm, rm, label, check=False)
    return quo, proj


def _radical_actions(m):
    """The actions of the radical basis rows on every side m carries, stacked."""
    return np.concatenate([
        m.field.tensordot(alg.radical_rows(), mats, axes=([1], [0]))
        for mats, alg in _sides(m)
        if mats is not None
    ])


def radical_sub_rows(m):
    """Rows of rad(A).M + M.rad(B)."""
    field = m.field
    return linalg.row_basis(field, _moved_rows(field, field.eye(m.dim), _radical_actions(m)))


def top_of(m, label=None):
    """M modulo rad(A).M + M.rad(B); returns (top, projection)."""
    return _quotient(m, radical_sub_rows(m), label or f"top({m.label})")


# ---- hom spaces ---------------------------------------------------------------


def _other_generators(algebra):
    """Mask of the algebra's generators that are not members of its installed idempotent family."""
    gens = np.array(algebra.generators)
    if not algebra.idempotents:
        return np.ones(len(gens), dtype=bool)
    return ~(gens[:, None, :] == np.array(algebra.idempotents)[None, :, :]).all(axis=2).any(axis=1)


def _families(m):
    """The families hom_space grades m by: each acting algebra's installed family, if it has
    two or more members, else None (a one-member family is {1}, which splits nothing)."""
    return tuple(
        alg.idempotents if mats is not None and len(alg.idempotents or []) > 1 else None
        for mats, alg in _sides(m)
    )


def _pieces(m, left_family, right_family):
    """(B, C) for every piece e.M.f of the grading by the two families.

    P = L(e) R(f) projects onto e.M.f. B is the canonical column basis of
    its image (from one rref of P^T) and C = P[pivots] the coordinates:
    B[pivots] is the identity, so C B = I and C vanishes on the other pieces.
    """
    field = m.field
    projs = [m.left_action(e) for e in left_family]
    if right_family:
        rights = [m.right_action(f) for f in right_family]
        projs = [field.matmul(l, r) for l in projs for r in rights] if projs else rights
    if not projs:  # no family: one piece, M itself
        eye = field.eye(m.dim)
        return [(eye, eye)]
    pieces = []
    for p in projs:
        r, piv = linalg.rref(field, p.T)
        pieces.append((r[: len(piv)].T, p[piv]))
    return pieces


def _graded(m, left_family, right_family):
    """_pieces(m, left_family, right_family), held on m and keyed by the identity of both lists (or None).

    The frame that _frame reads is held with them.
    """
    held = m._graded_pieces
    if held is None or held[0] is not left_family or held[1] is not right_family:
        pieces = _pieces(m, left_family or [], right_family or [])
        frame = (
            np.concatenate([b for b, _ in pieces], axis=1),
            np.concatenate([c for _, c in pieces]),
            tuple(b.shape[1] for b, _ in pieces),
        )
        held = m._graded_pieces = (left_family, right_family, pieces, frame)
    return held[2]


def _frame(m, left_family, right_family):
    """(B, C, dims) for the held pieces of m: their bases side by side, their coordinate
    rows stacked and their dimensions. The pieces sum to M, so B is square and C B = 1."""
    _graded(m, left_family, right_family)
    return m._graded_pieces[3]


def _piece_actions(m, side, algebra, frame):
    """C X B for the generators X of algebra outside its family, acting on side 0 (left) or 1
    (right) of m: their matrices in the basis of m's pieces, held on m.

    Keyed by the identity of algebra's generator and family lists and of the
    frame, which _frame holds under the identity of the two grading families.
    """
    key = (algebra.generators, algebra.idempotents, frame)
    held = m._piece_stacks[side]
    if held is None or any(x is not y for x, y in zip(held[0], key)):
        basis, coords, _ = frame
        stack = _generator_actions((m.left_mats, m.right_mats)[side], algebra)[_other_generators(algebra)]
        held = m._piece_stacks[side] = (key, linalg.stack_product(m.field, coords, m.field.matmul(stack, basis)))
    return held[1]


def same_piece_dims(m, n):
    """Whether e.M.f and e.N.f have equal dimensions on every piece of m's grading in hom_space.

    An isomorphism commutes with every L(e) R(f), so it maps each piece of M
    onto the same piece of N: equal piece dimensions are necessary. Read off
    the held frames, which hom_space(m, n) reads too.
    """
    _check_compatible(m, n)
    families = _families(m)
    return _frame(m, *families)[2] == _frame(n, *families)[2]


# _hom_rows replaces its stacked rows by their row basis, at most one row per
# unknown, once they outnumber the unknowns this many times: a dense module with
# many generators, such as a regular group algebra, then never stacks every
# generator's rows. The row space, and so the answer, stays the same.
_ROWS_PER_UNKNOWN = 4


def _commutation_rows(field, xm, xn, rows, cols):
    """The nonzero rows of G xm - xn G in the unknowns G[rows[u], cols[u]].

    Row (i, j) has the coefficient delta_ia xm[b, j] - delta_bj xn[i, a] on
    the unknown (a, b), written by index assignment.
    """
    unknowns = np.arange(rows.size)
    k = field.zeros((xn.shape[0], xm.shape[0], rows.size))
    k[rows, :, unknowns] = xm[cols]
    k[:, cols, unknowns] = field.sub(k[:, cols, unknowns], xn[:, rows])
    k = k.reshape(-1, rows.size)
    return k[k.astype(bool).any(axis=1)]


def hom_space(m, n):
    """Canonical basis of module maps M -> N (matrices dN x dM).

    Maps commute with the actions on every side both modules carry.
    Checking generators is enough: maps commuting with two elements
    commute with their product. _hom_rows solves the system; the row basis
    of its maps is canonical, so the result does not depend on the
    coordinates or on the order of the rows.
    """
    basis = linalg.row_basis(m.field, _hom_rows(m, n))
    return [basis[k].reshape(n.dim, m.dim) for k in range(basis.shape[0])]


def _hom_rows(m, n):
    """Module maps M -> N, flattened to rows of length dN dM that span Hom(M, N), unreduced.

    The solve runs in piece coordinates. A module map commutes with L(e)
    and R(f) for the members of the acting algebras' complete orthogonal
    idempotent families, so it maps each piece e.M.f into e.N.f. With B the
    pieces' bases side by side and C their coordinates (_frame, C B = 1), a
    map is F = B_N G C_M with G block diagonal, block p a map from piece p
    of M to piece p of N, and the entries (a, b) of the blocks are the
    unknowns. n's algebras have the same tables as m's (_compatible), so m's
    families and generators serve for both: both modules' frames and
    generator matrices are read held, keyed by m's lists, and n's own lists
    may differ. A generator in a family holds on every such F (L(e) is the
    sum of the piece projections L(e) R(f)); a one-member family is {1},
    which splits nothing, so without a family of two or more members the one
    block is all of Hom_k(M, N).
    Each other generator X enters once on each side as X~ = C X B
    (_piece_actions), and F X_M = X_N F becomes G X~_M = X~_N G, whose
    nonzero rows _commutation_rows writes. The rows are stacked one
    generator at a time, and a stack of more than _ROWS_PER_UNKNOWN rows per
    unknown is cut to its row basis. One nullspace of the stack gives
    independent maps G, and the maps B_N G C_M are the rows; with no map
    there are none.
    """
    _check_compatible(m, n)
    field = m.field
    dm, dn = m.dim, n.dim
    empty = field.zeros((0, dn * dm))
    if dm == 0 or dn == 0:
        return empty
    families = _families(m)
    frame_m = _frame(m, *families)
    frame_n = frame_m if n is m else _frame(n, *families)
    # the unknowns: the entries of G whose row and column lie in one piece
    piece_n, piece_m = (np.repeat(np.arange(len(dims)), dims) for dims in (frame_n[2], frame_m[2]))
    rows, cols = np.nonzero(piece_n[:, None] == piece_m[None, :])
    if not rows.size:
        return empty
    system = field.zeros((0, rows.size))
    for side, (mats, alg) in enumerate(_sides(m)):
        if mats is None:
            continue
        for xm, xn in zip(_piece_actions(m, side, alg, frame_m), _piece_actions(n, side, alg, frame_n)):
            system = np.concatenate([system, _commutation_rows(field, xm, xn, rows, cols)])
            if system.shape[0] > _ROWS_PER_UNKNOWN * rows.size:
                system = linalg.row_basis(field, system)
    solutions = linalg.nullspace(field, system)
    if not solutions.shape[1]:
        return empty
    g = field.zeros((solutions.shape[1], dn, dm))
    g[:, rows, cols] = solutions.T
    maps = linalg.stack_product(field, frame_n[0], field.matmul(g, frame_m[1]))
    return maps.reshape(maps.shape[0], dn * dm)


def _annihilator_rows(field, mats):
    """Algebra elements whose action matrices in the stack combine to zero."""
    _, ker = linalg.rank_nullspace(field, mats.reshape(mats.shape[0], -1).T)
    return linalg.row_basis(field, ker.T)


def left_annihilator_rows(m):
    """Algebra elements acting as zero on the left."""
    return _annihilator_rows(m.field, m.left_mats)


def right_annihilator_rows(m):
    """Algebra elements acting as zero on the right."""
    return _annihilator_rows(m.field, m.right_mats)


# ---- tensor, dual, twist -------------------------------------------------------


@dataclass
class TensorResult:
    module: Module
    projection: np.ndarray  # (dim result) x (dm * dn)
    section: np.ndarray


def tensor_over(m, n, label=None):
    """M (x)_B N for a right-B (or (A,B)-bi) module M and left-B (or (B,C)-bi) N.

    A functional on M (x)_k N, stored as the dm x dn matrix F with
    f(u (x) v) = u^T F v, kills every balancing element x.b (x) y - x (x) b.y
    exactly when F L_N(b) = R_M(b)^T F, that is when F lies in Hom_B(N, DM):
    the tensor-Hom adjunction D(M (x)_B N) = Hom_B(N, DM). So the balancing
    subspace W is the common kernel of the Hom rows that _hom_rows solves;
    with no such map every element balances and the tensor product is zero.
    The coordinates are the free columns of W's canonical row basis, and
    linalg.quotient_projection reads the projection onto them and its
    section off one elimination of the Hom rows with their columns reversed
    (the lemma is in its docstring). Both depend on W alone, not on how the
    rows were found.

    With the projection reshaped to P (t, dm, dn), L (x) 1 and 1 (x) R act on
    vec_r(X) as L X and X R^T, so the rows of proj (L (x) 1) and proj (1 (x) R)
    are vec_r(L^T P_k) and vec_r(P_k R); the section keeps their free columns.
    The balancing subspace is stable under the outer actions, which commute
    with the inner ones, so the induced actions need no check.
    """
    if m.right_algebra is None or n.left_algebra is None:
        raise ValueError("tensor_over needs a right action on the left factor and a left action on the right factor")
    if not _same_algebra(m.right_algebra, n.left_algebra):
        raise ValueError("tensor_over: the shared algebra differs between factors")
    field = m.field
    dm, dn = m.dim, n.dim
    proj, sect = linalg.quotient_projection(field, _hom_rows(n.restrict_left(), dual_module(m.restrict_right())))
    t, free = proj.shape[0], sect.nonzero()[0]
    p = proj.reshape(t, dm, dn)

    def induced(products):
        # (algebra dim, t, dm, dn) -> proj X sect for each basis element
        return products.reshape(products.shape[0], t, dm * dn)[:, :, free]

    # L_i^T P_k and P_k R_j, stacked by (i, k) and (j, k)
    lm = None if m.left_mats is None else induced(field.tensordot(m.left_mats, p, ([1], [1])).transpose(0, 2, 1, 3))
    rm = None if n.right_mats is None else induced(field.matmul(p, n.right_mats).transpose(2, 0, 1, 3))
    module = Module(
        m.left_algebra, n.right_algebra, lm, rm,
        label or f"{m.label} (x)_{m.right_algebra.label} {n.label}",
        check=False,
    )
    return TensorResult(module, proj, sect)


def outer_tensor(m, n, label=None):
    """M (x)_k N for a left A-module M and right B-module N, as an (A,B)-bimodule."""
    if m.left_mats is None or n.right_mats is None:
        raise ValueError("outer_tensor needs a left module and a right module")
    if m.right_mats is not None or n.left_mats is not None:
        raise ValueError("outer_tensor factors must be one-sided")
    field = m.field
    lm = field.kron(m.left_mats, field.eye(n.dim)[None])
    rm = field.kron(field.eye(m.dim)[None], n.right_mats)
    return Module(m.left_algebra, n.right_algebra, lm, rm, label or f"{m.label} (x) {n.label}", check=False)


def dual_module(m, label=None):
    """Linear dual: an (A,B)-bimodule becomes a (B,A)-bimodule.

    (b.f.a)(x) = f(a x b), so b acts on the dual through the transpose of its
    right action and a through the transpose of its left action.
    """
    lm = None if m.right_mats is None else m.field.canon(m.right_mats.transpose(0, 2, 1))
    rm = None if m.left_mats is None else m.field.canon(m.left_mats.transpose(0, 2, 1))
    return Module(m.right_algebra, m.left_algebra, lm, rm, label or f"D({m.label})", check=False)


def _check_automorphism(algebra, g):
    """g as an invertible algebra map algebra -> algebra, else NotAutomorphism."""
    try:
        g = check_algebra_hom(algebra, algebra, g)
        linalg.invert(algebra.field, g)
    except (ValueError, SingularMatrix) as exc:
        raise NotAutomorphism(str(exc)) from exc
    return g


def twist_left(m, g, label=None):
    """Twist the left action through an algebra automorphism: a . x = g(a) x."""
    if m.left_mats is None:
        raise ValueError("no left action to twist")
    g = _check_automorphism(m.left_algebra, g)
    lm = m.field.tensordot(g, m.left_mats, axes=([0], [0]))
    return Module(m.left_algebra, m.right_algebra, lm, m.right_mats, label or f"twist({m.label})", check=False)


def twist_right(m, g, label=None):
    """Twist the right action through an algebra automorphism: x . a = x g(a)."""
    if m.right_mats is None:
        raise ValueError("no right action to twist")
    g = _check_automorphism(m.right_algebra, g)
    rm = m.field.tensordot(g, m.right_mats, axes=([0], [0]))
    return Module(m.left_algebra, m.right_algebra, m.left_mats, rm, label or f"twist({m.label})", check=False)


# ---- projectives ---------------------------------------------------------------


def projective_indecomposables(a):
    """The modules A e for the algebra's primitive family, as (module, inclusion, e).

    Built on the first call and held on a; an algebra without a primitive
    family gets one installed first.
    """
    if a._projectives is None:
        from .decomp import complete_primitive_idempotents  # decomp imports this module

        complete_primitive_idempotents(a)
        reg = left_regular_module(a)
        # row k of the right multiplication by e spans x_k e
        a._projectives = tuple(
            (*submodule(reg, a.right_mult_matrix(e).T, label=f"{a.label}e"), e)
            for e in a.idempotents
        )
    return a._projectives


def simple_modules(a):
    """Distinct simple left modules, as (module, index of source idempotent).

    Built once and held on a, with whether every simple has a one-dimensional
    endomorphism ring, which the projective-cover dimensions need.
    """
    if a._simples is None:
        simples = []
        for k, (p, _, _) in enumerate(projective_indecomposables(a)):
            s, _ = top_of(p, label=f"S{k}")
            if not any(hom_space(s, t) for t, _ in simples):
                simples.append((s, k))
        a._simples = (tuple(simples), all(len(hom_space(s, s)) == 1 for s, _ in simples))
    return a._simples[0]


def _top_generators(m):
    """(projectives, section of top M, [(k, rows spanning e_k.top M)]) per distinct simple S_k.

    dim e_k.top M is the multiplicity of P_k in the projective cover when
    every simple has a one-dimensional endomorphism ring; otherwise the
    residue field is a proper division ring over the base and this stops.
    """
    if m.left_mats is None or m.right_mats is not None:
        raise ValueError("projective_cover expects a left module")
    a, field = m.left_algebra, m.field
    proj, sect = linalg.complement_projection(field, radical_sub_rows(m), m.dim)
    projs = projective_indecomposables(a)
    simples = simple_modules(a)
    if not a._simples[1]:
        raise NonSplitResidueField(f"simple module of {a.label} has a higher-dimensional endomorphism ring")
    # e_k acts on top M = M / rad M as proj L(e_k) sect
    tops = [
        (k, linalg.row_basis(field, field.matmul(proj, field.matmul(m.left_action(projs[k][2]), sect)).T))
        for _, k in simples
    ]
    return projs, sect, tops


@dataclass
class ProjectiveCover:
    module: Module  # the covering projective P
    surjection: np.ndarray  # dim M x dim P
    multiplicities: list  # (simple index, multiplicity)


def projective_cover(m):
    """Projective cover of a left module over a split basic-or-not algebra.

    P(M) is the sum over the distinct simples S_k of dim(e_k.top M) copies
    of P_k, each mapped onto M through a lift of a top generator.
    """
    a, field = m.left_algebra, m.field
    projs, sect_top, tops = _top_generators(m)
    pieces = []
    columns = []
    for k, t_rows in tops:
        p_k, incl_k, e_k = projs[k]
        acts = field.tensordot(incl_k.T, m.left_mats, axes=(1, 0))
        for r in range(t_rows.shape[0]):
            u = field.matmul(m.left_action(e_k), field.matmul(sect_top, t_rows[r]))
            pieces.append(p_k)
            # column block: the P_k basis rows act on the lifted generator
            columns.append(field.matmul(acts, u).T)
    mults = [(k, t_rows.shape[0]) for k, t_rows in tops]
    if not pieces:
        cover = zero_module(a, None)
        return ProjectiveCover(cover, field.zeros((m.dim, 0)), mults)
    cover, _, _ = direct_sum(pieces)
    phi = field.canon(np.concatenate(columns, axis=1))
    if not is_module_map(phi, cover, m):
        raise AssertionError("cover surjection is not a module map")
    rank, ker = linalg.rank_nullspace(field, phi)
    if rank != m.dim:
        raise AssertionError("cover surjection lost rank")
    if linalg.coords_in_row_basis(field, radical_sub_rows(cover), ker.T) is None:
        raise AssertionError("cover kernel escapes the radical")
    return ProjectiveCover(cover, phi, mults)


def is_projective(m):
    """Left modules: whether dim P(M) = sum_k dim(e_k.top M) dim P_k equals dim M."""
    projs, _, tops = _top_generators(m)
    return sum(t_rows.shape[0] * projs[k][0].dim for k, t_rows in tops) == m.dim


def is_right_projective(m):
    return is_projective(module_over_opposite(m.restrict_right()))


def is_left_right_projective(m):
    """Projective as a one-sided module on each side it carries."""
    ok = True
    if m.left_mats is not None:
        ok = ok and is_projective(m.restrict_left())
    if m.right_mats is not None:
        ok = ok and is_right_projective(m)
    return ok


def is_self_injective(a):
    """A is self-injective iff the dual of the right regular module is projective."""
    dual_of_right = dual_module(right_regular_module(a))
    return is_projective(dual_of_right)


def hom_to_regular(m):
    """Hom_A(M, A) for an (A,B)-bimodule M, as a (B,A)-bimodule.

    (b.f.a)(x) = f(x b) a: b acts by precomposition with its right action on
    M, a by postcomposition with its right action on A.
    """
    if m.left_mats is None:
        raise ValueError("hom_to_regular expects a left action")
    a = m.left_algebra
    field = m.field
    reg = left_regular_module(a)
    homs = hom_space(m.restrict_left(), reg)
    t = len(homs)
    if t == 0:
        return zero_module(m.right_algebra, a), []
    stack = np.stack(homs)
    flat = stack.reshape(t, -1)
    b = m.right_algebra

    def action(products):
        # products[k, s] is the image of homs[s] under basis element k; its coordinates are column s
        c = linalg.coords_in_row_basis(field, flat, products.reshape(-1, flat.shape[1]))
        if c is None:
            raise AssertionError("action escapes the span of the Hom basis")
        return c.reshape(-1, t, t).transpose(0, 2, 1)

    # h R_M(b_j) for the left action of B, R_A(a_i) h for the right action of A
    lm = None if b is None else action(field.matmul(stack, m.right_mats).transpose(2, 0, 1, 3))
    rm = action(field.matmul(a.right_regular_mats(), stack).transpose(0, 2, 1, 3))
    out = Module(b, a, lm, rm, f"Hom({m.label},{a.label})", check=False)
    return out, homs


# ---- random modules -------------------------------------------------------------


def random_left_module(a, gen, copies_cap=2):
    """A random quotient of a random finite direct sum of the A e_i.

    Quotients of finite projective sums reach every finite-dimensional
    module, so this samples the whole category at small multiplicities.
    """
    field = a.field
    projs = projective_indecomposables(a)
    pieces = []
    for p, _, _ in projs:
        for _ in range(int(gen.integers(0, copies_cap + 1))):
            pieces.append(p)
    if not pieces:
        pieces.append(projs[int(gen.integers(0, len(projs)))][0])
    big, _, _ = direct_sum(pieces)
    rad = radical_sub_rows(big)
    count = int(gen.integers(0, rad.shape[0] + 1)) if rad.shape[0] else 0
    if count == 0:
        return big
    coeffs = field.rand_mat(gen, count, rad.shape[0])
    seeds = field.matmul(coeffs, rad)
    _, incl = submodule(big, seeds)
    quo, _ = _quotient(big, incl.T, f"{big.label}-quo")
    return quo
