"""J-order witnesses and replayable split certificates.

A >=_J B holds when the regular A-A-bimodule is a direct summand of
M (x)_B N for some pair of bimodules (A-M-B, B-N-A). A witness pair is
the raw data (A, B, M, N); verification computes the tensor product,
decomposes it, and extracts an explicit section/retraction pair in the
tensor coordinates. The certificate is sound by replay: modules.is_split
checks it by matrix multiplication alone (retraction . section = identity,
and both maps are bimodule maps), with none of the probabilistic
decomposition machinery.

Quality flags record how close a witness comes to separable division:
one-sided projectivity of both bimodules, adjointness of the induced tensor
functors (M left projective and Hom(M, A) isomorphic to N), the projective
covers restricting to one-sided generators, and faithfulness plus
projective-injective summands of the one-sided restrictions. Each flag
computes only its boolean. Adjointness asks are_isomorphic, which solves one
Hom when Hom(M, A) is indecomposable (decomp's leaf test). The generator
test reads the multiplicities of the covers over the enveloping algebras,
whose simples are pairs of the factors' simples, and solves no Hom
(generators_check). The faithfulness test is two annihilator ranks: a
faithful module already has every indecomposable projective-injective as a
summand (faithful_projinj_check).

The witness search draws pairs at random, and many draws give a tensor
product it has already tried. verify_j_geq is a deterministic function of
the algebra, the seed and the tensor's action matrices: it decomposes the
tensor at seed + 1 and matches it against the regular bimodule's
decomposition. So an equal tensor would fail again in the same way, and the
search verifies each distinct tensor once, keyed by the matrices' entries.

A witness pair holds what verifying it reads: its tensor product (tensor())
and the decomposition of the regular a-a-bimodule at its seed (regular()),
each built on the first call. The pair is the one holder of that
decomposition; no algebra or module keeps it. The search decomposes the
regular bimodule once, at the seed its attempts verify with, and hands that
decomposition to every attempt's pair, so End of the regular bimodule is
solved once per search over a connected or a disconnected algebra. The
decomposition is a function of the algebra and the seed, so the handed one
is the one each pair would build.
"""

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .algebras import check_algebra_hom, tensor_algebra, tensor_factor_maps
from .decomp import (
    are_isomorphic,
    complete_primitive_idempotents,
    decompose,
    split_maps,
)
from .errors import HypothesisViolated, Inconclusive, NotASummand, NotSurjective
from .modules import (
    Module,
    _same_algebra,
    direct_sum,
    hom_to_regular,
    is_left_right_projective,
    is_projective,
    is_self_injective,
    is_split,
    left_annihilator_rows,
    outer_tensor,
    projective_cover,
    projective_indecomposables,
    random_left_module,
    regular_bimodule,
    right_annihilator_rows,
    simple_modules,
    tensor_over,
)


class JWitnessPair:
    """The raw data of a claimed inequality a >=_J b: bimodules (a-m-b, b-n-a)."""

    def __init__(self, a, b, m, n, seed=0):
        if m.left_mats is None or m.right_mats is None:
            raise ValueError("m must be a bimodule")
        if n.left_mats is None or n.right_mats is None:
            raise ValueError("n must be a bimodule")
        if not (_same_algebra(m.left_algebra, a) and _same_algebra(m.right_algebra, b)):
            raise ValueError("m must be an (a, b)-bimodule")
        if not (_same_algebra(n.left_algebra, b) and _same_algebra(n.right_algebra, a)):
            raise ValueError("n must be a (b, a)-bimodule")
        self.a = a
        self.b = b
        self.m = m
        self.n = n
        self.seed = int(seed)
        self._tensor = None
        self._regular = None

    def tensor(self):
        """M (x)_b N as modules.tensor_over returns it, built on the first call and held."""
        if self._tensor is None:
            self._tensor = tensor_over(self.m, self.n)
        return self._tensor

    def regular(self):
        """The decomposition of the regular a-a-bimodule at the pair's seed, built on the first call and held."""
        if self._regular is None:
            self._regular = decompose(regular_bimodule(self.a), seed=self.seed)
        return self._regular

    def __repr__(self):
        return (
            f"JWitnessPair({self.a.label} >=_J {self.b.label}, "
            f"m dim {self.m.dim}, n dim {self.n.dim})"
        )


@dataclass
class JCertificate:
    """A verified split of the regular bimodule off the witness tensor.

    section embeds the regular a-a-bimodule into M (x)_b N and retraction
    splits it back; both are written in the deterministic tensor coordinates,
    so the certificate replays by multiplication alone.
    """

    direction: str
    witness: JWitnessPair
    tensor_dim: int
    section: np.ndarray
    retraction: np.ndarray
    decomposition_ref: dict
    quality_flags: dict = None
    tensor: object = dc_field(default=None, repr=False)


# ---- bimodules as one-sided modules over tensor algebras ---------------------


def _enveloping_algebra(a, bop):
    """A (x) B^op, held on a with what it was built from.

    Kept while bop is the same object and both factors keep the family lists
    it was built with, so its held projectives, simples and radical are
    reused; installing another family on either factor replaces the list and
    rebuilds it. Tables, units, generators and radicals never change once set.
    """
    held = a._envelope
    if held is None or held[0] is not bop or held[1] is not a.idempotents or held[2] is not bop.idempotents:
        held = a._envelope = (bop, a.idempotents, bop.idempotents, tensor_algebra(a, bop))
    return held[3]


def bimodule_as_env_module(m, seed=0):
    """An (A, B)-bimodule as a left module over A (x) B^op.

    Returns (env, module). x (x) y acts as L(x) R(y), one batched product in
    the basis order of tensor_algebra. The factors' primitive families are
    installed first, so the enveloping algebra inherits one from them instead
    of decomposing its own regular module for its projectives. env is the
    one held on A (_enveloping_algebra): every bimodule over the same pair of
    algebras gets the same object, with its projectives and simples.
    """
    a, b = m.left_algebra, m.right_algebra
    complete_primitive_idempotents(a, seed)
    bop = b.opposite()
    complete_primitive_idempotents(bop, seed + 1)
    env = _enveloping_algebra(a, bop)
    mats = m.field.matmul(m.left_mats, m.right_mats).transpose(0, 2, 1, 3).reshape(env.dim, m.dim, m.dim)
    return env, Module(env, None, mats, None, f"{m.label} over {env.label}", check=False)


def env_module_as_bimodule(mod, a, b, label=None):
    """A left module over A (x) B^op re-read as an (A, B)-bimodule.

    Both actions are restrictions along the factor maps of A (x) B^op.
    """
    left, right = tensor_factor_maps(a, b.opposite())
    lm = mod.field.tensordot(left, mod.left_mats, axes=([0], [0]))
    rm = mod.field.tensordot(right, mod.left_mats, axes=([0], [0]))
    return Module(a, b, lm, rm, label or f"{mod.label} as bimodule", check=False)


def opposite_bimodule(m, label=None):
    """An (A, B)-bimodule on the same space as a (B^op, A^op)-bimodule."""
    if m.left_mats is None or m.right_mats is None:
        raise ValueError("opposite_bimodule expects a bimodule")
    return Module(
        m.right_algebra.opposite(),
        m.left_algebra.opposite(),
        m.right_mats,
        m.left_mats,
        label or f"{m.label}^op",
        check=False,
    )


# ---- verification -------------------------------------------------------------


def verify_j_geq(w, *, quality=True):
    """Verify a >=_J b from the witness pair; returns a replayable certificate.

    The regular a-a-bimodule must divide M (x)_b N. Raises NotASummand with
    both class summaries as evidence when it does not; Inconclusive from the
    decomposition layer propagates untouched. The regular bimodule and its
    decomposition are the pair's (JWitnessPair.regular); the tensor is
    decomposed at w.seed + 1.
    """
    d_reg = w.regular()
    reg = d_reg.module
    if len(d_reg.summands) > 1:
        warnings.warn(
            f"{w.a.label} is disconnected; the summand criterion is used as-is",
            stacklevel=2,
        )
    tr = w.tensor()
    t = tr.module
    d_t = decompose(t, seed=w.seed + 1)
    decomposition_ref = {
        "regular_classes": d_reg.class_summary(),
        "tensor_classes": d_t.class_summary(),
    }
    maps, missing = split_maps(d_reg, d_t)
    if maps is None:
        raise NotASummand(
            f"the regular {w.a.label}-bimodule does not divide "
            f"{w.m.label} (x)_{w.b.label} {w.n.label}",
            evidence={**decomposition_ref, "missing_dim": missing.module.dim},
        )
    section, retraction = maps
    if not is_split(reg, t, section, retraction):
        raise AssertionError("assembled maps do not split the regular bimodule off the tensor")
    cert = JCertificate(
        direction="geq",
        witness=w,
        tensor_dim=t.dim,
        section=section,
        retraction=retraction,
        decomposition_ref=decomposition_ref,
        quality_flags=None,
        tensor=tr,
    )
    if quality:
        cert.quality_flags = {
            "left_right_projective": bool(
                is_left_right_projective(w.m) and is_left_right_projective(w.n)
            ),
            "adjoint_pair": is_adjoint_pair_witness(w.m, w.n, seed=w.seed),
            "generators_check": generators_check(w, cert),
            "faithful_check": faithful_projinj_check(w, cert),
        }
    return cert


def replay_certificate(cert):
    """Re-check a certificate by multiplication only; True iff it replays.

    Recomputes the tensor product (its coordinates are deterministic) and
    re-runs the exact split conditions on a new regular bimodule. No
    decomposition machinery runs, and neither the tensor nor the regular
    decomposition the witness holds is read: a replay trusts no held data.
    """
    w = cert.witness
    tr = tensor_over(w.m, w.n)
    if tr.module.dim != cert.tensor_dim:
        return False
    return is_split(regular_bimodule(w.a), tr.module, cert.section, cert.retraction)


def _packaged_certificate(wp, base_cert, left_maps, right_maps):
    """Certificate for a packaged pair, assembled from a verified block split.

    left_maps and right_maps are the (inclusion, projection) pairs embedding
    the block factors into the packaged direct sums. The composite through
    the block tensor is well defined because the kron of inclusions carries
    balancing elements to balancing elements; the result is re-verified
    exactly, so no decomposition is needed.
    """
    field = wp.a.field
    tr = tensor_over(wp.m, wp.n)
    base = base_cert.tensor
    (l_incl, l_proj), (r_incl, r_proj) = left_maps, right_maps
    block_incl = field.matmul(tr.projection, field.matmul(field.kron(l_incl, r_incl), base.section))
    block_proj = field.matmul(base.projection, field.matmul(field.kron(l_proj, r_proj), tr.section))
    section = field.matmul(block_incl, base_cert.section)
    retraction = field.matmul(base_cert.retraction, block_proj)
    if not is_split(regular_bimodule(wp.a), tr.module, section, retraction):
        raise AssertionError("packaged maps do not split the regular bimodule off the tensor")
    return JCertificate(
        direction="equiv",
        witness=wp,
        tensor_dim=tr.module.dim,
        section=section,
        retraction=retraction,
        decomposition_ref={"packaged_from": base_cert.decomposition_ref},
        quality_flags=None,
        tensor=tr,
    )


def verify_j_equiv(w1, w2, *, quality=True):
    """Verify a ~_J b from witnesses for both directions.

    w1 witnesses a >=_J b and w2 witnesses b >=_J a. The two pairs are also
    bundled into M = m1 + n2, N = n1 + m2 and split certificates for both
    packaged pairs assembled and re-verified, realizing the single-pair
    formulation of the equivalence.
    """
    if not (_same_algebra(w1.a, w2.b) and _same_algebra(w1.b, w2.a)):
        raise ValueError("the two witnesses must relate the same algebras in opposite order")
    c1 = verify_j_geq(w1, quality=quality)
    c2 = verify_j_geq(w2, quality=quality)
    c1.direction = "equiv"
    c2.direction = "equiv"
    m_pack, m_incls, m_projs = direct_sum([w1.m, w2.n])
    n_pack, n_incls, n_projs = direct_sum([w1.n, w2.m])
    wp1 = JWitnessPair(w1.a, w1.b, m_pack, n_pack, seed=w1.seed)
    wp2 = JWitnessPair(w2.a, w2.b, n_pack, m_pack, seed=w2.seed)
    _packaged_certificate(wp1, c1, (m_incls[0], m_projs[0]), (n_incls[0], n_projs[0]))
    _packaged_certificate(wp2, c2, (n_incls[1], n_projs[1]), (m_incls[1], m_projs[1]))
    return c1, c2


# ---- witness constructors ------------------------------------------------------


def restriction_bimodules(source, target, phi):
    """The regular target-bimodule with one side pulled back along a map.

    phi must be an algebra homomorphism source -> target; it is checked
    here. Returns (m, n): target as a (target, source)-bimodule and as a
    (source, target)-bimodule.
    """
    field = target.field
    phi = check_algebra_hom(source, target, phi)
    right_via = field.tensordot(phi, target.right_regular_mats(), axes=([0], [0]))
    left_via = field.tensordot(phi, target.left_regular_mats(), axes=([0], [0]))
    m = Module(
        target, source, target.left_regular_mats(), right_via,
        f"{target.label} as ({target.label},{source.label})-bimodule", check=False,
    )
    n = Module(
        source, target, left_via, target.right_regular_mats(),
        f"{target.label} as ({source.label},{target.label})-bimodule", check=False,
    )
    return m, n


def quotient_witness(source, target, phi, seed=0):
    """Witness for target >=_J source from a surjection phi: source ->> target.

    target becomes a (target, source)-bimodule through phi on the right and
    a (source, target)-bimodule through phi on the left; the tensor product
    then splits off the regular target-bimodule through x -> x (x) 1.
    """
    m, n = restriction_bimodules(source, target, phi)
    if linalg.rank(source.field, phi) != target.dim:
        raise NotSurjective(f"the homomorphism {source.label} -> {target.label} is not onto")
    return JWitnessPair(target, source, m, n, seed=seed)


def embedding_witness_pairs(sub, big, rows=None, seed=0):
    """Candidate witnesses for sub >=_J big and big >=_J sub from an embedding.

    rows embed sub into big (defaulting to inclusion_rows from a subalgebra
    construction); big itself is the connecting bimodule on both sides.
    Neither candidate verifies automatically: each instance is a theorem
    about the embedding, checked by verify_j_geq.
    """
    if rows is None:
        rows = big.field.canon(np.asarray(sub.inclusion_rows))
    phi = np.asarray(rows).T
    m, n = restriction_bimodules(sub, big, phi)
    if linalg.rank(big.field, phi) != sub.dim:
        raise ValueError(f"the map {sub.label} -> {big.label} is not injective")
    return (
        JWitnessPair(sub, big, n, m, seed=seed),
        JWitnessPair(big, sub, m, n, seed=seed),
    )


def compose_witnesses(w_ab, w_bc):
    """Transitivity at witness level: a >=_J b and b >=_J c give a >=_J c."""
    if not _same_algebra(w_ab.b, w_bc.a):
        raise ValueError("witnesses do not share the middle algebra")
    m = tensor_over(w_ab.m, w_bc.m).module
    n = tensor_over(w_bc.n, w_ab.n).module
    return JWitnessPair(w_ab.a, w_bc.b, m, n, seed=w_ab.seed)


def transport_tensor(w, c):
    """Transport a >=_J b to a (x) c >=_J b (x) c along a third algebra c."""
    ac = tensor_algebra(w.a, c)
    bc = tensor_algebra(w.b, c)
    # M (x)_k c with c acting on itself on both sides, and likewise N
    kron, creg_l, creg_r = c.field.kron, c.left_regular_mats(), c.right_regular_mats()
    m2 = Module(ac, bc, kron(w.m.left_mats, creg_l), kron(w.m.right_mats, creg_r), f"{w.m.label}(x){c.label}", check=False)
    n2 = Module(bc, ac, kron(w.n.left_mats, creg_l), kron(w.n.right_mats, creg_r), f"{w.n.label}(x){c.label}", check=False)
    return JWitnessPair(ac, bc, m2, n2, seed=w.seed)


def transport_opposite(w):
    """Transport a >=_J b to a^op >=_J b^op; the witness roles swap."""
    return JWitnessPair(
        w.a.opposite(),
        w.b.opposite(),
        opposite_bimodule(w.n),
        opposite_bimodule(w.m),
        seed=w.seed,
    )


def witness_search(a, b, seed=0, budget=20, max_dim=None):
    """Seeded random search for an a >=_J b witness.

    Samples random (a, b)- and (b, a)-bimodules as quotients of projectives
    over the enveloping algebras and tries to verify each pair. Returns the
    first certificate found, or None; None means "not found within budget",
    never "no witness exists".

    The regular bimodule is decomposed once and handed to every attempt's
    pair, and a pair whose tensor has the action matrices of one already
    tried is skipped; the module header says why both are exact. Skipping
    happens after the draws, so the random stream, and the attempt a
    certificate comes from, are unchanged.
    """
    complete_primitive_idempotents(a, seed)
    complete_primitive_idempotents(b, seed + 1)
    env_ab = _enveloping_algebra(a, b.opposite())
    env_ba = _enveloping_algebra(b, a.opposite())
    held_reg = decompose(regular_bimodule(a), seed=seed)
    tried = set()
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        m_env = random_left_module(env_ab, rng, copies_cap=1)
        n_env = random_left_module(env_ba, rng, copies_cap=1)
        if max_dim is not None and (m_env.dim > max_dim or n_env.dim > max_dim):
            continue
        if m_env.dim == 0 or n_env.dim == 0:
            continue
        m = env_module_as_bimodule(m_env, a, b)
        n = env_module_as_bimodule(n_env, b, a)
        w = JWitnessPair(a, b, m, n, seed=seed)
        t = w.tensor().module
        # tolist, not tobytes: over Q the entries are Fraction objects, compared by value
        key = (t.dim, tuple(t.left_mats.ravel().tolist()), tuple(t.right_mats.ravel().tolist()))
        if key in tried:
            continue
        tried.add(key)
        w._regular = held_reg
        try:
            return verify_j_geq(w, quality=False)
        except (NotASummand, Inconclusive):
            continue
    return None


# ---- witness quality -----------------------------------------------------------


def is_adjoint_pair_witness(m, n, seed=0):
    """Whether (M (x)_b -, N (x)_a -) is an adjoint pair.

    Holds iff M is projective as a left module and Hom(M, A) is isomorphic
    to N as a (b, a)-bimodule. Only the answer is computed: are_isomorphic
    compares piece dimensions, then solves one Hom when Hom(M, A) is
    indecomposable (decomp's leaf test) and decomposes N only when it splits.
    The section decomp.split_maps assembles is the isomorphism when one is wanted.
    """
    if not is_projective(m.restrict_left()):
        return False
    hom, _ = hom_to_regular(m)
    return are_isomorphic(hom, n, seed=seed)


def _restricts_to_generator(env, cover, left, right, on_left):
    """Whether a projective cover over env = left (x) right restricts to a
    generator over left (on_left) or over right.

    env's family must be tensor_algebra's Kronecker family e_i (x) f_j, at
    index k = i * n_right + j, of the families held on left and right, or
    this raises AssertionError. Over a split field S_i (x) S_j is then
    simple, and isomorphic to S_i' (x) S_j' exactly when S_i ~ S_i' and
    S_j ~ S_j'; so each distinct simple of env, indexed by the first member
    of its class, is a pair of distinct simples of the factors, read off k
    as i = k // n_right and j = k % n_right.
    """
    field, n_right = env.field, len(right.idempotents)
    family = field.kron(np.stack(left.idempotents), np.stack(right.idempotents))
    if len(env.idempotents) != family.shape[0] or not field.eq(np.stack(env.idempotents), family):
        raise AssertionError("the enveloping algebra's family is not the product of its factors' families")
    simples = {k for _, k in simple_modules(left if on_left else right)}
    tops = [(k // n_right if on_left else k % n_right, mult) for k, mult in cover.multiplicities]
    if {i for i, _ in tops} != simples:
        raise AssertionError("the enveloping algebra's simples are not pairs of its factors' simples")
    return simples <= {i for i, mult in tops if mult}


def generators_check(w, cert):
    """Projective covers of the witness bimodules restrict to generators.

    P(M) taken in a-mod-b must contain every indecomposable projective left
    a-module, and P(N) taken in b-mod-a every indecomposable projective
    right a-module. The test reads the covers' multiplicities over the
    enveloping algebras and solves no Hom. Lemma: over A (x) B^op with the
    Kronecker family, P(M) is the sum of the P_(i,j)^(m_ij), and
    P_(i,j) = A e_i (x) B^op f_j restricts to A as dim(B^op f_j) > 0 copies
    of A e_i. By Krull-Schmidt, P_i divides the restriction of P(M) exactly
    when m_ij != 0 for some j; _restricts_to_generator says why the distinct
    simples of A (x) B^op are the pairs (i, j). Dually, P(N) over B (x) A^op
    restricts to a generator over a^op when every simple of a^op is the
    second index of a simple in its top. projective_cover certifies the
    multiplicities: its surjection is a module map of full rank whose kernel
    lies in the radical. The covers are taken over the enveloping algebras
    held on a and b, so a second check over the same algebras builds no
    envelope, projective or simple again.
    """
    if cert is None or cert.section is None:
        raise ValueError("generators_check needs a verified certificate")
    a, b, seed = w.a, w.b, w.seed
    env, m_env = bimodule_as_env_module(w.m, seed=seed)
    if not _restricts_to_generator(env, projective_cover(m_env), a, b.opposite(), on_left=True):
        return False
    env, n_env = bimodule_as_env_module(w.n, seed=seed)
    return _restricts_to_generator(env, projective_cover(n_env), b, a.opposite(), on_left=False)


def faithful_projinj_check(w, cert):
    """The one-sided restrictions are faithful and absorb projective-injectives.

    Left side: ann(aM) = 0 and every projective-injective indecomposable
    left a-module divides aM; dually for N as a right a-module. The second
    condition follows from the first, so only the two annihilators are
    computed. Lemma: a faithful module X has every indecomposable
    projective-injective P = A e as a summand. P is indecomposable
    injective, so soc P is simple and essential; take 0 != s in soc P. X is
    faithful, so s.x != 0 for some x in X, and the module map P -> X,
    ae -> ae.x, does not vanish on soc P, so it is injective. P is
    injective, so the map splits. The right side is the same lemma over a^op.
    """
    if cert is None or cert.section is None:
        raise ValueError("faithful_projinj_check needs a verified certificate")
    return (
        left_annihilator_rows(w.m.restrict_left()).shape[0] == 0
        and right_annihilator_rows(w.n.restrict_right()).shape[0] == 0
    )


def separable_quality(w, cert):
    """Separability evidence: one-sided projectivity and adjointness both ways."""
    if cert is None or cert.section is None:
        raise ValueError("separable_quality needs a verified certificate")
    return {
        "m_left_right_projective": is_left_right_projective(w.m),
        "n_left_right_projective": is_left_right_projective(w.n),
        "adjoint_m_n": is_adjoint_pair_witness(w.m, w.n, seed=w.seed),
        "adjoint_n_m": is_adjoint_pair_witness(w.n, w.m, seed=w.seed),
    }


# ---- structure of bimodules ------------------------------------------------------


def _op_left_as_right(mod, b):
    """A left B^op-module re-read as a right B-module (same matrices)."""
    return Module(None, b, None, mod.left_mats, f"{mod.label} as right", check=False)


def lrproj_projectivity_check(a, b, m, seed=0):
    """Directed times self-injective: left-right projective forces projective.

    Returns (held, info). When m is not left-right projective the check is
    vacuous and info says so; otherwise every indecomposable summand of m
    must be an outer product of one-sided projectives. Isomorphism is
    transitive, so one representative per isomorphism class is tested. The
    representative is the side are_isomorphic decomposes: it is a certified
    leaf of m's decomposition, so that decompose solves no Hom, and no
    candidate is decomposed.
    """
    prov = a.provenance
    if prov is None or prov.kind != "quiver" or not prov.data.get("acyclic"):
        raise HypothesisViolated(f"{a.label} is not presented by an acyclic quiver")
    if not is_self_injective(b):
        raise HypothesisViolated(f"{b.label} is not self-injective")
    if not (_same_algebra(m.left_algebra, a) and _same_algebra(m.right_algebra, b)):
        raise ValueError("the bimodule sides do not match the algebras")
    if not is_left_right_projective(m):
        return True, {"vacuous": True, "summands": None}
    if m.dim == 0:
        return True, {"vacuous": False, "summands": 0}
    right_projs = [_op_left_as_right(p, b) for p, _, _ in projective_indecomposables(b.opposite())]
    candidates = [outer_tensor(p, q) for p, _, _ in projective_indecomposables(a) for q in right_projs]
    dec = decompose(m, seed=seed)
    for cls in dec.classes:
        z = dec.summands[cls[0]]
        if not any(c.dim == z.module.dim and are_isomorphic(z.module, c, seed=seed + 3) for c in candidates):
            return False, {"vacuous": False, "summands": len(dec.summands)}
    return True, {"vacuous": False, "summands": len(dec.summands)}


def loewy_experiment(pairs):
    """Loewy-length table for claimed-equivalent pairs.

    A report, never a proof: equal lengths are consistent with the
    conjectured invariance, nothing more.
    """
    rows = []
    for a, b in pairs:
        la, lb = a.loewy_length(), b.loewy_length()
        rows.append(
            {"a": a.label, "b": b.label, "loewy_a": la, "loewy_b": lb, "equal": la == lb}
        )
    all_equal = all(r["equal"] for r in rows)
    return {
        "rows": rows,
        "all_equal": all_equal,
        "status": "conjecture-consistent" if all_equal else "conjecture-violating-candidate",
        "is_proof": False,
    }
