"""The twelve numbered reproduction checks behind the acceptance gate.

Each check_* function is deterministic for a fixed seed and returns a plain
dict: id, name, passed, details.  Details hold only JSON-able scalars and
lists so a report can embed them verbatim.  Keys starting with an underscore
are private plumbing stripped from reports: _certificates carries
(witness, certificate, label) triples consumed by the structure check and
_pairs carries algebra pairs consumed by the Loewy comparison.

run_all executes the checks in numeric order, feeds checks 9 and 12 from the
accumulated plumbing, stamps wall time into _elapsed, and converts any
exception into a failed row.  Time budgets are asserted by the acceptance
tests, not here, so two runs with the same seed produce identical rows.
"""

import time
from itertools import combinations

import numpy as np

from . import catalog, linalg
from .decomp import are_isomorphic, decompose, summand_isomorphism
from .errors import Inconclusive
from .fields import field_from_name
from .groups import AlgebraAction, FiniteGroup, invariant_subalgebra, skew_group_algebra
from .modules import (
    Module,
    direct_sum,
    dual_module,
    is_module_map,
    outer_tensor,
    projective_indecomposables,
    random_left_module,
    regular_bimodule,
    right_regular_module,
    submodule,
    tensor_over,
    top_of,
    twist_left,
    twist_right,
)
from .algebras import tensor_algebra
from .witnesses import (
    check_algebra_hom,
    embedding_witness_pairs,
    faithful_projinj_check,
    generators_check,
    loewy_experiment,
    quotient_witness,
    separable_quality,
    transport_opposite,
    transport_tensor,
    verify_j_geq,
)


def _outcome(cid, name, passed, details, certificates=(), pairs=()):
    return {
        "id": cid,
        "name": name,
        "passed": bool(passed),
        "details": details,
        "_certificates": list(certificates),
        "_pairs": list(pairs),
    }


# ---- 1: the explicit Kronecker witness certificate ---------------------------


def check_kronecker_certificate(seed=0):
    """The catalog witness pair certifies dual numbers >=_J Kronecker exactly."""
    details = {}
    certs = []
    passed = True
    for fname in ("GF(101)", "Q"):
        w = catalog.build("kronecker_witness", field=fname)
        cert = verify_j_geq(w, quality=False)
        f = w.a.field
        reg = regular_bimodule(w.a)
        split_exact = bool(
            f.eq(f.matmul(cert.retraction, cert.section), f.eye(reg.dim))
        )
        tensor_is_regular = are_isomorphic(cert.tensor.module, reg, seed=seed)
        row = {
            "tensor_dim": cert.tensor_dim,
            "complement_dim": cert.tensor_dim - reg.dim,
            "split_exact": split_exact,
            "tensor_isomorphic_to_regular": bool(tensor_is_regular),
        }
        details[fname] = row
        passed = passed and cert.tensor_dim == 2 and row["complement_dim"] == 0
        passed = passed and split_exact and tensor_is_regular
        certs.append((w, cert, f"kronecker[{fname}]"))
    return _outcome(1, "kronecker-witness-certificate", passed, details, certs)


# ---- 2: zigzag duality tables ------------------------------------------------

# dual basis ordered like the algebra basis (e_1, e_2, a, b); each table lists
# the nonzero (row, column) positions of the acting basis element
ZIGZAG_DUAL_TABLES = {
    "left": {
        "e_1": ((0, 0), (2, 2)),
        "e_2": ((1, 1), (3, 3)),
        "a": ((1, 2),),
        "b": ((0, 3),),
    },
    "right": {
        "e_1": ((0, 0), (3, 3)),
        "e_2": ((1, 1), (2, 2)),
        "a": ((0, 2),),
        "b": ((1, 3),),
    },
}

# the isomorphism dual(A) -> A twisted on the right by the swap, column by
# column: dual basis vector index -> algebra basis label
ZIGZAG_DUAL_TO_TWIST = ((0, "b"), (1, "a"), (2, "e_1"), (3, "e_2"))


def _positions_matrix(field, dim, entries):
    mat = field.zeros((dim, dim))
    for r, c in entries:
        mat[r, c] = field.one
    return mat


def check_zigzag_duality(seed=0):
    """Invariants, dual action tables, and the twisted self-duality of zigzag."""
    act = catalog.build("zigzag_c2")
    alg = act.algebra
    f = alg.field
    order = {lab: i for i, lab in enumerate(alg.labels)}

    sub, rows = invariant_subalgebra(act)
    expected_rows = f.canon(np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=object))
    invariants_ok = sub.dim == 2 and bool(f.eq(rows, expected_rows))
    dual_numbers = catalog.build("trunc_poly", field=f, k=2)
    fp_ok = catalog.fingerprint(sub) == catalog.fingerprint(dual_numbers)

    du = dual_module(regular_bimodule(alg))
    tables = {"left": {}, "right": {}}
    tables_match = True
    for side, mats in (("left", du.left_mats), ("right", du.right_mats)):
        for lab, entries in ZIGZAG_DUAL_TABLES[side].items():
            got = mats[order[lab]]
            expected = _positions_matrix(f, alg.dim, entries)
            tables_match = tables_match and bool(f.eq(got, expected))
            tables[side][lab] = [[int(x) for x in row] for row in got]

    c = act.matrices[1]
    twisted = twist_right(regular_bimodule(alg), c)
    t = f.zeros((alg.dim, alg.dim))
    for col, lab in ZIGZAG_DUAL_TO_TWIST:
        t[order[lab], col] = f.one
    twist_checks = (
        linalg.rank(f, t) == alg.dim
        and is_module_map(t, du, twisted)
    )
    twist_iso = are_isomorphic(du, twisted, seed=seed)
    plain_iso = are_isomorphic(du, regular_bimodule(alg), seed=seed)

    details = {
        "invariant_rows": [[int(x) for x in row] for row in rows],
        "invariants_match_dual_numbers": bool(fp_ok),
        "dual_action_tables": tables,
        "tables_match": bool(tables_match),
        "dual_isomorphic_to_twisted_regular": bool(twist_iso),
        "explicit_twist_isomorphism_checks": bool(twist_checks),
        "dual_isomorphic_to_plain_regular": bool(plain_iso),
    }
    passed = (
        invariants_ok
        and fp_ok
        and tables_match
        and twist_checks
        and twist_iso
        and not plain_iso
    )
    return _outcome(2, "zigzag-duality-tables", passed, details)


# ---- 3: rotation invariants and the orbit of twisted regulars ----------------


def check_rotation_orbit(seed=0):
    """A (x)_{A^G} A for the rotated 3-cycle splits into the |G| twists of A."""
    act = catalog.build("lambda_rot", field="GF(7)", n=3, k=2)
    alg = act.algebra
    g_order = act.group.order
    sub, rows = invariant_subalgebra(act)
    w_down, w_up = embedding_witness_pairs(sub, alg, rows=rows)

    tr = tensor_over(w_up.m, w_up.n)
    dim_ok = tr.module.dim == g_order * alg.dim
    dec = decompose(tr.module, seed=seed)
    classes = dec.class_summary()
    classes_ok = classes == [(alg.dim, 1)] * g_order

    reg = regular_bimodule(alg)
    twist_hits = []
    for g in range(g_order):
        tw = twist_left(reg, act.matrices[g])
        hits = sum(1 for s in dec.summands if summand_isomorphism(s, tw) is not None)
        twist_hits.append(hits)
    every_summand_twisted = twist_hits == [1] * g_order
    one_regular = twist_hits[act.group.identity_index] == 1

    c_up = verify_j_geq(w_up, quality=False)
    c_down = verify_j_geq(w_down, quality=False)

    details = {
        "algebra_dim": alg.dim,
        "group_order": g_order,
        "tensor_dim": tr.module.dim,
        "classes": [list(x) for x in classes],
        "twist_hits": twist_hits,
        "regular_hits": twist_hits[act.group.identity_index],
        "certificate_tensor_dims": [c_down.tensor_dim, c_up.tensor_dim],
    }
    passed = dim_ok and classes_ok and every_summand_twisted and one_regular
    certs = [
        (w_up, c_up, "cycle3[GF(7)] over invariants"),
        (w_down, c_down, "invariants under cycle3[GF(7)]"),
    ]
    return _outcome(3, "rotation-invariants-tensor-orbit", passed, details, certs, [(alg, sub)])


# ---- 4: equivalences with truncated polynomial algebras -----------------------

EQUIVALENCE_SIZES = ((2, 2), (3, 2), (3, 3))


def check_truncated_equivalences(seed=0):
    """A^G = k[x]/x^k with both J-directions certified and separable quality."""
    details = []
    certs = []
    pairs = []
    passed = True
    for n, k in EQUIVALENCE_SIZES:
        act = catalog.build("lambda_rot", n=n, k=k)
        alg = act.algebra
        f = alg.field
        sub, rows = invariant_subalgebra(act)
        tp = catalog.build("trunc_poly", field=f, k=k)
        # the graded invariant basis a_j maps to x^j; both directions are
        # checked as unit-preserving algebra homomorphisms
        check_algebra_hom(sub, tp, f.eye(k))
        check_algebra_hom(tp, sub, f.eye(k))
        iso_ok = sub.dim == k

        w_down, w_up = embedding_witness_pairs(sub, alg, rows=rows)
        c_down = verify_j_geq(w_down, quality=False)
        c_up = verify_j_geq(w_up, quality=False)
        sq = separable_quality(w_up, c_up)
        lr_both = sq["m_left_right_projective"] and sq["n_left_right_projective"]

        details.append(
            {
                "n": n,
                "k": k,
                "invariants_dim": sub.dim,
                "isomorphic_to_truncated_polynomials": bool(iso_ok),
                "tensor_dims": [c_down.tensor_dim, c_up.tensor_dim],
                "separable_quality": {key: bool(v) for key, v in sq.items()},
            }
        )
        passed = passed and iso_ok and lr_both
        certs.append((w_down, c_down, f"invariants under cycle{n}^{k}"))
        certs.append((w_up, c_up, f"cycle{n}^{k} over invariants"))
        pairs.append((alg, sub))
    return _outcome(4, "truncated-polynomial-equivalences", passed, details, certs, pairs)


# ---- 5: skew group extensions split both ways ---------------------------------


def _sign_action_on_dual_numbers(field):
    tp = catalog.build("trunc_poly", field=field, k=2)
    sign = field.canon(np.array([[1, 0], [0, -1]], dtype=object))
    return AlgebraAction(FiniteGroup.cyclic(2), tp, [field.eye(2), sign])


def check_skew_splits(seed=0):
    """A | A*G as bimodules and A*G | A*G (x)_A A*G, with radical bookkeeping."""
    f = field_from_name("GF(101)")
    instances = [
        ("zigzag*C2", catalog.build("zigzag_c2", field=f)),
        ("dual-numbers*C2", _sign_action_on_dual_numbers(f)),
    ]
    details = []
    certs = []
    pairs = []
    passed = True
    for name, act in instances:
        alg = act.algebra
        sk, emb = skew_group_algebra(act)
        w_down, w_up = embedding_witness_pairs(alg, sk, rows=emb)
        c_down = verify_j_geq(w_down, quality=False)
        c_up = verify_j_geq(w_up, quality=False)

        dims_ok = sk.dim == alg.dim * act.group.order
        rad_alg = alg.loewy_layer_dims()[1]
        rad_sk = sk.loewy_layer_dims()[1]
        rad_ok = rad_sk == rad_alg * act.group.order
        loewy_ok = sk.loewy_length() == alg.loewy_length()

        details.append(
            {
                "instance": name,
                "algebra_dim": alg.dim,
                "skew_dim": sk.dim,
                "split_down_tensor_dim": c_down.tensor_dim,
                "split_up_tensor_dim": c_up.tensor_dim,
                "radical_dims": [rad_alg, rad_sk],
                "loewy_lengths": [alg.loewy_length(), sk.loewy_length()],
            }
        )
        passed = passed and dims_ok and rad_ok and loewy_ok
        certs.append((w_down, c_down, f"{name}: base over skew"))
        certs.append((w_up, c_up, f"{name}: skew over base"))
        pairs.append((alg, sk))
    return _outcome(5, "skew-group-extension-splits", passed, details, certs, pairs)


# ---- 6: witnesses from quotient surjections ------------------------------------


def check_quotient_witnesses(seed=0):
    """x^3 onto x^2 and the truncated 3-cycle onto the linear quotient."""
    f = field_from_name("GF(101)")
    certs = []

    x3 = catalog.build("trunc_poly", field=f, k=3)
    x2 = catalog.build("trunc_poly", field=f, k=2)
    phi = f.zeros((2, 3))
    phi[0, 0] = f.one
    phi[1, 1] = f.one
    w1 = quotient_witness(x3, x2, phi, seed=seed)
    c1 = verify_j_geq(w1, quality=False)
    first_ok = c1.tensor_dim == 2 and c1.tensor_dim == x2.dim
    certs.append((w1, c1, "x^2 under x^3"))

    lam = catalog.build("lambda", field=f, n=3, k=2)
    tgt = catalog.build("A_n", field=f, n=3)
    phi2 = f.zeros((tgt.dim, lam.dim))
    pos = {lab: i for i, lab in enumerate(tgt.labels)}
    for j, lab in enumerate(lam.labels):
        if lab in pos:
            phi2[pos[lab], j] = f.one
    w2 = quotient_witness(lam, tgt, phi2, seed=seed)
    c2 = verify_j_geq(w2, quality=False)
    second_ok = c2.tensor_dim == 5
    certs.append((w2, c2, "linear quotient under cycle3^2"))

    details = {
        "x3_onto_x2": {"tensor_dim": c1.tensor_dim, "complement_dim": c1.tensor_dim - x2.dim},
        "cycle3_onto_linear": {"tensor_dim": c2.tensor_dim},
    }
    return _outcome(6, "quotient-surjection-witnesses", first_ok and second_ok, details, certs)


# ---- 7: exhaustive Krull-Schmidt oracle over GF(2) -----------------------------

_SUBSPACE_CACHE = {}


def _proper_subspaces_gf2(dim):
    """Every proper nonzero subspace of GF(2)^dim as a tuple of RREF bitmasks.

    Bit j of a mask is the coefficient of basis vector j; distinct tuples are
    distinct subspaces because reduced echelon bases are unique.  Returned as
    {rank: [bases]} and cached: the enumeration depends only on dim.
    """
    if dim in _SUBSPACE_CACHE:
        return _SUBSPACE_CACHE[dim]
    by_rank = {}
    for k in range(1, dim):
        bucket = []
        for pivots in combinations(range(dim), k):
            pset = set(pivots)
            free = [
                (i, c)
                for i, p in enumerate(pivots)
                for c in range(p + 1, dim)
                if c not in pset
            ]
            for bits in range(1 << len(free)):
                rows = [1 << p for p in pivots]
                for t, (i, c) in enumerate(free):
                    if (bits >> t) & 1:
                        rows[i] |= 1 << c
                bucket.append(tuple(rows))
        by_rank[k] = bucket
    _SUBSPACE_CACHE[dim] = by_rank
    return by_rank


def _action_column_masks(module):
    cols = []
    for mat in module.left_mats:
        col = []
        for j in range(module.dim):
            mask = 0
            for i in range(module.dim):
                if int(mat[i, j]) & 1:
                    mask |= 1 << i
            col.append(mask)
        cols.append(col)
    return cols


def _in_span(v, rows):
    for r in rows:
        if v & (r & -r):
            v ^= r
    return v == 0


def _is_stable(rows, column_masks):
    for cols in column_masks:
        for r in rows:
            img = 0
            v = r
            while v:
                j = (v & -v).bit_length() - 1
                img ^= cols[j]
                v &= v - 1
            if not _in_span(img, rows):
                return False
    return True


def _rank_of_masks(masks):
    basis = []
    for v in masks:
        for b in basis:
            if v & (b & -b):
                v ^= b
        if v:
            basis.append(v)
    return len(basis)


def _masks_to_rows(field, masks, dim):
    rows = field.zeros((len(masks), dim))
    for i, mask in enumerate(masks):
        for j in range(dim):
            if (mask >> j) & 1:
                rows[i, j] = field.one
    return rows


def exhaustive_summand_dims(module):
    """Summand dimensions of a GF(2) left module by exhaustive subspace search.

    Enumerates every subspace, keeps the action-stable ones, splits along the
    first stable complementary pair, and recurses.  A piece with no such pair
    admits no nontrivial idempotent endomorphism, so it is certified
    indecomposable by exhaustion, independent of any endomorphism-ring search.
    """
    if module.field.char != 2:
        raise ValueError("the exhaustive oracle is written for GF(2) modules")
    d = module.dim
    if d == 0:
        return []
    if d == 1:
        return [1]
    column_masks = _action_column_masks(module)
    stable = {}
    for k, bucket in _proper_subspaces_gf2(d).items():
        kept = [rows for rows in bucket if _is_stable(rows, column_masks)]
        if kept:
            stable[k] = kept
    f = module.field
    for k in range(1, d // 2 + 1):
        for u in stable.get(k, ()):
            for w in stable.get(d - k, ()):
                if _rank_of_masks(list(u) + list(w)) != d:
                    continue
                su, _ = submodule(module, _masks_to_rows(f, u, d))
                sw, _ = submodule(module, _masks_to_rows(f, w, d))
                return exhaustive_summand_dims(su) + exhaustive_summand_dims(sw)
    return [d]


def check_krull_schmidt_oracle(seed=0):
    """decompose agrees with the exhaustive oracle on 200 random GF(2) modules."""
    f = field_from_name("GF(2)")
    a2 = catalog.build("A_n", field=f, n=2)
    tp2 = catalog.build("trunc_poly", field=f, k=2)
    gen = np.random.default_rng(seed)
    checked = 0
    mismatches = 0
    inconclusive = 0
    max_dim = 0
    for alg, cap in ((a2, 2), (tp2, 3)):
        for i in range(100):
            mod = random_left_module(alg, gen, copies_cap=cap)
            max_dim = max(max_dim, mod.dim)
            try:
                dec = decompose(mod, seed=seed + i)
            except Inconclusive:
                inconclusive += 1
                continue
            got = sorted(s.module.dim for s in dec.summands)
            want = sorted(exhaustive_summand_dims(mod))
            if got != want:
                mismatches += 1
            checked += 1
    details = {
        "modules": 200,
        "checked": checked,
        "mismatches": mismatches,
        "inconclusive": inconclusive,
        "max_dim": max_dim,
    }
    passed = checked == 200 and mismatches == 0 and inconclusive == 0 and max_dim <= 6
    return _outcome(7, "krull-schmidt-exhaustive-oracle", passed, details)


# ---- 8: left-right projective bimodules are products of projectives -----------


def check_lrproj_family(seed=0):
    """Random left-right projective bimodules decompose into P_i (x) Q_j."""
    from .witnesses import lrproj_projectivity_check

    a3 = catalog.build("A_n", n=3)
    f = a3.field
    d = catalog.build("trunc_poly", field=f, k=2)
    left_projs = [p for p, _, _ in projective_indecomposables(a3)]
    right_proj = right_regular_module(d)

    gen = np.random.default_rng(seed)
    confirmed = 0
    total_summands = 0
    max_dim = 0
    for i in range(100):
        mults = gen.integers(0, 3, size=len(left_projs))
        if not mults.any():
            mults[int(gen.integers(0, len(left_projs)))] = 1
        pieces = []
        for p, mult in zip(left_projs, mults):
            pieces.extend(outer_tensor(p, right_proj) for _ in range(int(mult)))
        big, _, _ = direct_sum(pieces)
        t = linalg.random_invertible(f, gen, big.dim)
        ti = linalg.invert(f, t)
        lm = f.canon(
            np.stack([f.matmul(t, f.matmul(big.left_mats[j], ti)) for j in range(a3.dim)])
        )
        rm = f.canon(
            np.stack([f.matmul(t, f.matmul(big.right_mats[j], ti)) for j in range(d.dim)])
        )
        mod = Module(a3, d, lm, rm, f"lrproj sample {i}", check=False)
        held, info = lrproj_projectivity_check(a3, d, mod, seed=seed)
        if held and not info["vacuous"]:
            confirmed += 1
            total_summands += info["summands"]
        max_dim = max(max_dim, mod.dim)

    w = catalog.build("kronecker_witness")
    cert = verify_j_geq(w, quality=False)
    sq = separable_quality(w, cert)
    has_non_lrproj = not (
        sq["m_left_right_projective"] and sq["n_left_right_projective"]
    )

    details = {
        "families": 100,
        "confirmed_projective_products": confirmed,
        "total_summands": total_summands,
        "max_dim": max_dim,
        "kronecker_separable_quality": {k: bool(v) for k, v in sq.items()},
        "kronecker_has_non_lrproj_witness": bool(has_non_lrproj),
    }
    passed = confirmed == 100 and has_non_lrproj
    return _outcome(8, "left-right-projective-family", passed, details)


# ---- 9: structure checks on every certificate from checks 1-6 ------------------


def check_structure_flags(cert_triples):
    """Generator and faithful/projective-injective checks on verified witnesses."""
    rows = []
    passed = len(cert_triples) > 0
    for w, cert, label in cert_triples:
        g_ok = generators_check(w, cert)
        f_ok = faithful_projinj_check(w, cert)
        rows.append(
            {
                "certificate": label,
                "generators": bool(g_ok),
                "faithful_projective_injective": bool(f_ok),
            }
        )
        passed = passed and g_ok and f_ok
    return _outcome(9, "certificate-structure-checks", passed, {"certificates": rows})


# ---- 10: transported witnesses still verify ------------------------------------


def check_transports(seed=0):
    """Opposite transport and tensoring by a third algebra preserve witnesses."""
    w = catalog.build("kronecker_witness")
    wo = transport_opposite(w)
    co = verify_j_geq(wo, quality=False)
    c_alg = catalog.build("A_n", field=w.a.field, n=2)
    wt = transport_tensor(w, c_alg)
    ct = verify_j_geq(wt, quality=False)
    details = {
        "opposite_tensor_dim": co.tensor_dim,
        "tensored_algebra_dim": wt.a.dim,
        "tensored_tensor_dim": ct.tensor_dim,
    }
    passed = (
        co.tensor_dim == 2
        and wt.a.dim == w.a.dim * c_alg.dim
        and ct.tensor_dim == wt.a.dim
    )
    return _outcome(10, "certificate-transports", passed, details)


# ---- 11: tops of indecomposable bimodules stay small ---------------------------


def check_top_bound(seed=0):
    """Indecomposable bimodules over the (4, 2) linear pair have top dim <= 2."""
    f = field_from_name("GF(2)")
    a4 = catalog.build("A_n", field=f, n=4)
    a2 = catalog.build("A_n", field=f, n=2)
    env = tensor_algebra(a4, a2.opposite())
    gen = np.random.default_rng(seed)
    tops = []
    draws = 0
    while len(tops) < 50 and draws < 200:
        draws += 1
        mod = random_left_module(env, gen, copies_cap=1)
        if mod.dim == 0:
            continue
        for s in decompose(mod, seed=seed + draws).summands:
            t, _ = top_of(s.module)
            tops.append(t.dim)
            if len(tops) >= 50:
                break
    details = {
        "indecomposables": len(tops),
        "draws": draws,
        "max_top_dim": max(tops) if tops else 0,
        "bound": 2,
    }
    passed = len(tops) >= 50 and all(t <= 2 for t in tops)
    return _outcome(11, "indecomposable-top-bound", passed, details)


# ---- 12: Loewy lengths across claimed equivalences ------------------------------


def check_loewy_comparison(pairs):
    """Loewy lengths agree on every equivalent pair; a consistency report only."""
    report = loewy_experiment(pairs)
    details = {
        "rows": report["rows"],
        "all_equal": report["all_equal"],
        "status": report["status"],
        "is_proof": report["is_proof"],
    }
    passed = (
        len(pairs) > 0
        and report["all_equal"]
        and report["status"] == "conjecture-consistent"
        and report["is_proof"] is False
    )
    return _outcome(12, "loewy-length-comparison", passed, details)


# ---- the full table -------------------------------------------------------------


def _derive(seed, cid):
    return (int(seed) * 1_000_003 + cid) % (2**63)


def run_all(seed=0):
    """All twelve checks in order; exceptions become failed rows, never crashes."""
    rows = []
    certs = []
    pairs = []

    def run(cid, name, thunk):
        t0 = time.perf_counter()
        try:
            row = thunk()
        except Exception as exc:  # a crashed check is a failed row with evidence
            row = _outcome(cid, name, False, {"error": f"{type(exc).__name__}: {exc}"})
        row["_elapsed"] = time.perf_counter() - t0
        rows.append(row)
        certs.extend(row.get("_certificates", ()))
        pairs.extend(row.get("_pairs", ()))

    run(1, "kronecker-witness-certificate", lambda: check_kronecker_certificate(_derive(seed, 1)))
    run(2, "zigzag-duality-tables", lambda: check_zigzag_duality(_derive(seed, 2)))
    run(3, "rotation-invariants-tensor-orbit", lambda: check_rotation_orbit(_derive(seed, 3)))
    run(4, "truncated-polynomial-equivalences", lambda: check_truncated_equivalences(_derive(seed, 4)))
    run(5, "skew-group-extension-splits", lambda: check_skew_splits(_derive(seed, 5)))
    run(6, "quotient-surjection-witnesses", lambda: check_quotient_witnesses(_derive(seed, 6)))
    run(7, "krull-schmidt-exhaustive-oracle", lambda: check_krull_schmidt_oracle(_derive(seed, 7)))
    run(8, "left-right-projective-family", lambda: check_lrproj_family(_derive(seed, 8)))
    run(9, "certificate-structure-checks", lambda: check_structure_flags(list(certs)))
    run(10, "certificate-transports", lambda: check_transports(_derive(seed, 10)))
    run(11, "indecomposable-top-bound", lambda: check_top_bound(_derive(seed, 11)))
    run(12, "loewy-length-comparison", lambda: check_loewy_comparison(list(pairs)))

    return {
        "seed": int(seed),
        "all_passed": all(r["passed"] for r in rows),
        "checks": rows,
    }
