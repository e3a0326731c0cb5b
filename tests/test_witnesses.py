"""J-order witnesses: split certificates, quality checks, transports, search.

Fixture pairs mirror the worked small cases: truncated polynomial quotient
chains, the zigzag and truncated-cycle group actions, and the Kronecker
witness whose tensor collapses onto the dual numbers. Expected dimensions,
coordinates, and flags are derived by hand next to each assertion.
"""

import warnings

import numpy as np
import pytest

from jorder import catalog, decomp, linalg, serialize, witnesses
from jorder.algebras import Algebra, algebra_from_quiver, tensor_algebra
from jorder.decomp import (
    are_isomorphic,
    complete_primitive_idempotents,
    decompose,
)
from jorder.errors import HypothesisViolated, Inconclusive, JorderError, NotASummand, NotSurjective
from jorder.fields import GF, QQ
from jorder.groups import (
    AlgebraAction,
    FiniteGroup,
    invariant_subalgebra,
    skew_group_algebra,
)
from jorder.modules import (
    Module,
    direct_sum,
    dual_module,
    hom_space,
    hom_to_regular,
    intertwines,
    is_module_map,
    is_projective,
    is_split,
    left_annihilator_rows,
    left_regular_module,
    module_over_opposite,
    outer_tensor,
    projective_cover,
    projective_indecomposables,
    radical_sub_rows,
    random_left_module,
    regular_bimodule,
    right_annihilator_rows,
    right_regular_module,
    submodule,
    tensor_over,
    top_of,
    twist_right,
)
from jorder.quivers import parse_presentation
from jorder.witnesses import (
    JWitnessPair,
    _op_left_as_right,
    bimodule_as_env_module,
    check_algebra_hom,
    compose_witnesses,
    embedding_witness_pairs,
    env_module_as_bimodule,
    faithful_projinj_check,
    generators_check,
    is_adjoint_pair_witness,
    loewy_experiment,
    lrproj_projectivity_check,
    quotient_witness,
    replay_certificate,
    restriction_bimodules,
    separable_quality,
    transport_opposite,
    transport_tensor,
    verify_j_equiv,
    verify_j_geq,
    witness_search,
)

from oracles import (
    explicit_isomorphism,
    linear_quiver_algebra,
    projective_leaves,
    quotient_module,
    summand_split_maps,
)


def qa(text):
    field, pres = parse_presentation(text)
    return algebra_from_quiver(pres, field)


ZIGZAG = (
    "field {f}\nvertex 1\nvertex 2\n"
    "arrow a: 1 -> 2\narrow b: 2 -> 1\nrelation a*b\nrelation b*a\n"
)

KRONECKER = "field {f}\nvertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n"


def trunc_poly(k, f="GF(101)"):
    rel = "*".join(["x"] * k)
    return qa(f"field {f}\nvertex 1\narrow x: 1 -> 1\nrelation {rel}\n")


def truncated_cycle(f, n, k):
    lines = [f"field {f}"]
    lines += [f"vertex {i}" for i in range(1, n + 1)]
    lines += [f"arrow a{i}: {i} -> {i % n + 1}" for i in range(1, n + 1)]
    for v in range(1, n + 1):
        lines.append("relation " + "*".join(f"a{(v - 1 + t) % n + 1}" for t in range(k)))
    return qa("\n".join(lines))


def swap_action(zz):
    field = zz.field
    order = {lab: i for i, lab in enumerate(zz.labels)}
    mat = field.zeros((4, 4))
    for x, y in (("e_1", "e_2"), ("e_2", "e_1"), ("a", "b"), ("b", "a")):
        mat[order[y], order[x]] = field.one
    return AlgebraAction(FiniteGroup.cyclic(2), zz, [field.eye(4), mat])


def rotation_action(alg, n):
    field = alg.field
    order = {lab: i for i, lab in enumerate(alg.labels)}

    def rot(lab):
        if lab.startswith("e_"):
            return f"e_{int(lab[2:]) % n + 1}"
        return "*".join(f"a{int(p[1:]) % n + 1}" for p in lab.split("*"))

    mat = field.zeros((alg.dim, alg.dim))
    for lab, i in order.items():
        mat[order[rot(lab)], i] = field.one
    mats = [field.eye(alg.dim)]
    cur = field.eye(alg.dim)
    for _ in range(n - 1):
        cur = field.canon(field.matmul(mat, cur))
        mats.append(cur)
    return AlgebraAction(FiniteGroup.cyclic(n), alg, mats)


def kronecker_witness(field_name):
    """The hand-built (M, N) pair over (dual numbers, Kronecker quiver)."""
    d = trunc_poly(2, field_name)
    th = qa(KRONECKER.format(f=field_name))
    f = d.field
    lm = f.zeros((2, 4, 4))
    rm = f.zeros((4, 4, 4))
    lm[0] = f.eye(4)
    lm[1][1, 0] = f.one
    lm[1][3, 2] = f.one
    for i in (0, 1):
        rm[0][i, i] = f.one
    for i in (2, 3):
        rm[1][i, i] = f.one
    rm[2][0, 2] = f.one
    rm[2][1, 3] = f.one
    rm[3][0, 2] = f.one
    rm[3][1, 2] = f.one
    rm[3][1, 3] = f.one
    m = Module(d, th, lm, rm, "M", check=True)
    ln = f.zeros((4, 4, 4))
    rn = f.zeros((2, 4, 4))
    for i in (0, 1):
        ln[0][i, i] = f.one
    for i in (2, 3):
        ln[1][i, i] = f.one
    ln[2][2, 0] = f.one
    ln[2][3, 1] = f.one
    ln[3][2, 0] = f.one
    ln[3][3, 0] = f.one
    ln[3][3, 1] = f.one
    rn[0] = f.eye(4)
    rn[1][1, 0] = f.one
    rn[1][3, 2] = f.one
    n = Module(th, d, ln, rn, "N", check=True)
    return d, th, m, n


@pytest.fixture(scope="module")
def zz():
    return qa(ZIGZAG.format(f="GF(101)"))


@pytest.fixture(scope="module")
def kron():
    return kronecker_witness("GF(101)")


class TestWitnessPairValidation:
    def test_one_sided_module_rejected(self, zz):
        reg = regular_bimodule(zz)
        left_only = reg.restrict_left()
        with pytest.raises(ValueError):
            JWitnessPair(zz, zz, left_only, reg)
        with pytest.raises(ValueError):
            JWitnessPair(zz, zz, reg, left_only)

    def test_side_algebras_must_match(self, zz):
        d = trunc_poly(2)
        reg = regular_bimodule(zz)
        with pytest.raises(ValueError):
            JWitnessPair(zz, d, reg, reg)


class TestIdentityWitness:
    def test_regular_pair_verifies_with_all_flags(self, zz):
        w = JWitnessPair(zz, zz, regular_bimodule(zz), regular_bimodule(zz))
        cert = verify_j_geq(w)
        assert cert.direction == "geq"
        assert cert.tensor_dim == 4
        assert cert.quality_flags == {
            "left_right_projective": True,
            "adjoint_pair": True,
            "generators_check": True,
            "faithful_check": True,
        }
        assert replay_certificate(cert)

    def test_split_pair_is_exact(self, zz):
        w = JWitnessPair(zz, zz, regular_bimodule(zz), regular_bimodule(zz))
        cert = verify_j_geq(w, quality=False)
        f = zz.field
        assert f.eq(f.matmul(cert.retraction, cert.section), f.eye(4))

    def test_decomposition_ref_lists_classes(self, zz):
        w = JWitnessPair(zz, zz, regular_bimodule(zz), regular_bimodule(zz))
        cert = verify_j_geq(w, quality=False)
        # the zigzag regular bimodule is connected, hence a single class
        assert cert.decomposition_ref["regular_classes"] == [(4, 1)]
        assert cert.decomposition_ref["tensor_classes"] == [(4, 1)]


class TestReplayTamper:
    def test_tampered_section_fails_replay(self, zz):
        w = JWitnessPair(zz, zz, regular_bimodule(zz), regular_bimodule(zz))
        cert = verify_j_geq(w, quality=False)
        f = zz.field
        cert.section = f.canon(np.zeros_like(cert.section))
        assert not replay_certificate(cert)

    def test_tampered_dimension_fails_replay(self, zz):
        w = JWitnessPair(zz, zz, regular_bimodule(zz), regular_bimodule(zz))
        cert = verify_j_geq(w, quality=False)
        cert.tensor_dim = 5
        assert not replay_certificate(cert)

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
    @pytest.mark.parametrize("broken", ["left", "right", "both"])
    def test_split_through_a_non_module_automorphism_fails_replay(self, field, broken):
        """(g s, r g^-1) keeps r g^-1 g s = 1; with g an automorphism of the
        tensor that is not a bimodule map, the pair is no split and must not replay."""
        a = linear_quiver_algebra(field, 2)
        reg = regular_bimodule(a)
        cert = verify_j_geq(JWitnessPair(a, a, reg, reg), quality=False)
        t = cert.tensor.module
        assert t.dim == a.dim  # s is invertible, so g s and r g^-1 break exactly g's sides
        g = _automorphism_breaking(t, broken, np.random.default_rng(3))
        section = field.matmul(g, cert.section)
        retraction = field.matmul(cert.retraction, linalg.invert(field, g))
        assert field.eq(field.matmul(retraction, section), field.eye(a.dim))
        assert is_split(reg, t, cert.section, cert.retraction) and replay_certificate(cert)
        assert not is_split(reg, t, section, retraction)
        cert.section, cert.retraction = section, retraction
        assert not replay_certificate(cert)

    @pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
    @pytest.mark.parametrize("moved", ["section", "retraction"])
    def test_one_map_off_the_module_maps_fails_replay(self, field, moved):
        """On a tensor larger than A, s + (1 - s r) u and r + v (1 - s r) keep
        r s = 1 and leave the other map a module map: both maps are checked."""
        a = linear_quiver_algebra(field, 2)
        reg = regular_bimodule(a)
        cert = verify_j_geq(JWitnessPair(a, a, direct_sum([reg, reg])[0], reg), quality=False)
        t = cert.tensor.module
        section, retraction = cert.section, cert.retraction
        gen = np.random.default_rng(4)
        complement = field.sub(field.eye(t.dim), field.matmul(section, retraction))
        if moved == "section":
            section = field.canon(field.add(section, field.matmul(complement, field.rand_mat(gen, t.dim, a.dim))))
        else:
            retraction = field.canon(field.add(retraction, field.matmul(field.rand_mat(gen, a.dim, t.dim), complement)))
        assert t.dim == 2 * a.dim and field.eq(field.matmul(retraction, section), field.eye(a.dim))
        assert is_module_map(section, reg, t) == (moved == "retraction")
        assert is_module_map(retraction, t, reg) == (moved == "section")
        assert not is_split(reg, t, section, retraction)
        cert.section, cert.retraction = section, retraction
        assert not replay_certificate(cert)


def _automorphism_breaking(t, broken, gen):
    """An automorphism of the bimodule t's space that is a module map on exactly
    the sides broken does not name: 1 + c h for h an endomorphism of the other
    side, or a random matrix for both."""
    f = t.field
    if broken == "both":
        candidates = (linalg.random_invertible(f, gen, t.dim) for _ in range(20))
    else:
        kept = t.restrict_right() if broken == "left" else t.restrict_left()
        candidates = (f.canon(f.add(f.eye(t.dim), f.smul(c, h))) for h in hom_space(kept, kept) for c in (1, 2))
    want = {"left": (False, True), "right": (True, False), "both": (False, False)}[broken]
    for g in candidates:
        sides = (intertwines(f, g, t.left_mats, t.left_mats), intertwines(f, g, t.right_mats, t.right_mats))
        if sides == want and linalg.rank(f, g) == t.dim:
            return g
    raise AssertionError(f"no automorphism breaks exactly the {broken} side")


class TestQuotientWitnesses:
    def test_x3_onto_x2_certificate(self):
        a3, a2 = trunc_poly(3), trunc_poly(2)
        f = a3.field
        phi = f.zeros((2, 3))
        phi[0, 0] = f.one
        phi[1, 1] = f.one
        w = quotient_witness(a3, a2, phi)
        cert = verify_j_geq(w)
        # x acts as zero across the quotient, so the balancing collapses
        # the tensor onto the regular bimodule itself: X = 0.
        assert cert.tensor_dim == 2
        assert replay_certificate(cert)
        assert cert.quality_flags["generators_check"]
        assert cert.quality_flags["faithful_check"]
        assert not cert.quality_flags["left_right_projective"]

    def test_canonical_multiplication_split(self):
        a3, a2 = trunc_poly(3), trunc_poly(2)
        f = a3.field
        phi = f.zeros((2, 3))
        phi[0, 0] = f.one
        phi[1, 1] = f.one
        w = quotient_witness(a3, a2, phi)
        cert = verify_j_geq(w, quality=False)
        tr = cert.tensor
        eta = f.zeros((cert.tensor_dim, 2))
        for i in range(2):
            eta[:, i] = tr.pure_tensor(a2.basis_vector(i), a2.unit)
        mul_big = f.zeros((2, 4))
        for i in range(2):
            for j in range(2):
                mul_big[:, i * 2 + j] = a2.mul(a2.basis_vector(i), a2.basis_vector(j))
        psi = f.matmul(mul_big, tr.section)
        assert f.eq(f.matmul(psi, f.canon(eta)), f.eye(2))

    def test_quotient_chain_composes(self):
        a4, a3, a2 = trunc_poly(4), trunc_poly(3), trunc_poly(2)
        f = a4.field
        phi43 = f.zeros((3, 4))
        phi32 = f.zeros((2, 3))
        for i in range(3):
            phi43[i, i] = f.one
        for i in range(2):
            phi32[i, i] = f.one
        w43 = quotient_witness(a4, a3, phi43)
        w32 = quotient_witness(a3, a2, phi32)
        w42 = compose_witnesses(w32, w43)
        assert w42.a is a2 and w42.b is a4
        cert = verify_j_geq(w42, quality=False)
        assert cert.tensor_dim == 2
        assert replay_certificate(cert)

    def test_compose_requires_shared_middle(self):
        a4, a3, a2 = trunc_poly(4), trunc_poly(3), trunc_poly(2)
        f = a4.field
        phi43 = f.zeros((3, 4))
        phi32 = f.zeros((2, 3))
        for i in range(3):
            phi43[i, i] = f.one
        for i in range(2):
            phi32[i, i] = f.one
        w43 = quotient_witness(a4, a3, phi43)
        w32 = quotient_witness(a3, a2, phi32)
        with pytest.raises(ValueError):
            compose_witnesses(w43, w32)

    def test_not_surjective(self):
        a3, a2 = trunc_poly(3), trunc_poly(2)
        f = a3.field
        phi = f.zeros((2, 3))
        phi[0, 0] = f.one  # e -> e, x -> 0: an algebra map but not onto
        with pytest.raises(NotSurjective):
            quotient_witness(a3, a2, phi)

    def test_not_a_homomorphism(self):
        a3, a2 = trunc_poly(3), trunc_poly(2)
        f = a3.field
        phi = f.zeros((2, 3))
        phi[0, 0] = f.one
        phi[0, 1] = f.one  # x -> e breaks multiplicativity
        with pytest.raises(ValueError):
            quotient_witness(a3, a2, phi)

    def test_truncated_cycle_onto_linear_quotient(self):
        lam = truncated_cycle("GF(101)", 3, 2)
        target = qa(
            "field GF(101)\nvertex 1\nvertex 2\nvertex 3\n"
            "arrow a1: 1 -> 2\narrow a2: 2 -> 3\nrelation a1*a2\n"
        )
        f = lam.field
        src = {lab: i for i, lab in enumerate(lam.labels)}
        phi = f.zeros((5, 6))
        for j, lab in enumerate(target.labels):  # a3 -> 0 kills the closing arrow
            phi[j, src[lab]] = f.one
        cert = verify_j_geq(quotient_witness(lam, target, phi), quality=False)
        assert cert.tensor_dim == 5
        assert replay_certificate(cert)


class TestNotASummand:
    def test_simple_bimodule_witness_fails_with_evidence(self):
        d = trunc_poly(2)
        f = d.field
        lm = f.zeros((2, 1, 1))
        lm[0][0, 0] = f.one
        simple = Module(d, d, lm, lm, "S", check=True)
        w = JWitnessPair(d, d, simple, simple)
        with pytest.raises(NotASummand) as exc:
            verify_j_geq(w, quality=False)
        evidence = exc.value.evidence
        assert evidence["regular_classes"] == [(2, 1)]
        assert evidence["tensor_classes"] == [(1, 1)]
        assert evidence["missing_dim"] == 2


class TestKroneckerWitness:
    def test_tensor_relations_frozen(self, kron):
        d, th, m, n = kron
        f = d.field
        tr = tensor_over(m, n)
        assert tr.module.dim == 2

        def pt(i, j):
            return tr.pure_tensor(f.eye(4)[i], f.eye(4)[j])

        one, x = f.eye(2)[0], f.eye(2)[1]
        assert f.eq(pt(0, 0), one) and f.eq(pt(2, 2), one)
        assert f.eq(pt(0, 1), x) and f.eq(pt(2, 3), x)
        assert f.eq(pt(3, 2), x) and f.eq(pt(1, 0), x)
        assert f.is_zero(pt(3, 3))
        assert f.is_zero(pt(0, 2)) and f.is_zero(pt(1, 3))
        xm1 = f.matmul(m.left_mats[1], f.eye(4)[0])
        n1x = f.matmul(n.right_mats[1], f.eye(4)[0])
        assert f.eq(tr.pure_tensor(xm1, f.eye(4)[0]), tr.pure_tensor(f.eye(4)[0], n1x))

    @pytest.mark.parametrize("field_name", ["GF(101)", "Q"])
    def test_certificate_both_fields(self, field_name):
        d, th, m, n = kronecker_witness(field_name)
        w = JWitnessPair(d, th, m, n)
        cert = verify_j_geq(w, quality=False)
        assert cert.tensor_dim == 2  # X = 0
        assert replay_certificate(cert)
        assert are_isomorphic(cert.tensor.module, regular_bimodule(d), seed=3)

    def test_quality_flags(self, kron):
        d, th, m, n = kron
        w = JWitnessPair(d, th, m, n)
        cert = verify_j_geq(w)
        assert cert.quality_flags == {
            "left_right_projective": False,
            "adjoint_pair": True,
            "generators_check": True,
            "faithful_check": True,
        }

    def test_separable_quality_reports_non_lrproj(self, kron):
        d, th, m, n = kron
        w = JWitnessPair(d, th, m, n)
        cert = verify_j_geq(w, quality=False)
        flags = separable_quality(w, cert)
        assert flags == {
            "m_left_right_projective": False,
            "n_left_right_projective": False,
            "adjoint_m_n": True,
            "adjoint_n_m": False,
        }

    def test_adjoint_pair_witness_gives_explicit_iso(self, kron):
        d, th, m, n = kron
        assert is_adjoint_pair_witness(m, n)
        iso = explicit_isomorphism(hom_to_regular(m)[0], n)
        assert iso is not None and is_split(hom_to_regular(m)[0], n, iso, linalg.invert(d.field, iso))
        assert not is_adjoint_pair_witness(n, m)
        assert not is_projective(n.restrict_left()) or explicit_isomorphism(hom_to_regular(n)[0], m) is None


class TestZigzagDuality:
    """The dual of the regular bimodule carries the hand-computed tables."""

    def test_dual_action_tables_entry_for_entry(self, zz):
        f = zz.field
        du = dual_module(regular_bimodule(zz))
        # basis order of the dual matches (e1, e2, a, b); rows are images
        left = {
            "e_1": [(0, 0), (2, 2)],
            "e_2": [(1, 1), (3, 3)],
            "a": [(1, 2)],  # a . f_a = f_2
            "b": [(0, 3)],  # b . f_b = f_1
        }
        right = {
            "e_1": [(0, 0), (3, 3)],
            "e_2": [(1, 1), (2, 2)],
            "a": [(0, 2)],  # f_a . a = f_1
            "b": [(1, 3)],  # f_b . b = f_2
        }
        order = {lab: i for i, lab in enumerate(zz.labels)}
        for lab, entries in left.items():
            expected = f.zeros((4, 4))
            for r, c in entries:
                expected[r, c] = f.one
            assert f.eq(du.left_mats[order[lab]], expected)
        for lab, entries in right.items():
            expected = f.zeros((4, 4))
            for r, c in entries:
                expected[r, c] = f.one
            assert f.eq(du.right_mats[order[lab]], expected)

    def test_dual_is_right_twist_by_swap(self, zz):
        f = zz.field
        du = dual_module(regular_bimodule(zz))
        c = swap_action(zz).matrices[1]
        twisted = twist_right(regular_bimodule(zz), c)
        order = {lab: i for i, lab in enumerate(zz.labels)}
        t = f.zeros((4, 4))
        t[order["b"], 0] = f.one  # f_1 -> b
        t[order["a"], 1] = f.one  # f_2 -> a
        t[order["e_1"], 2] = f.one  # f_a -> e1
        t[order["e_2"], 3] = f.one  # f_b -> e2
        for i in range(4):
            assert f.eq(f.matmul(t, du.left_mats[i]), f.matmul(twisted.left_mats[i], t))
            assert f.eq(f.matmul(t, du.right_mats[i]), f.matmul(twisted.right_mats[i], t))
        assert are_isomorphic(du, twisted, seed=2)

    def test_dual_is_not_the_untwisted_regular(self, zz):
        du = dual_module(regular_bimodule(zz))
        assert not are_isomorphic(du, regular_bimodule(zz), seed=2)
        assert explicit_isomorphism(du, regular_bimodule(zz), seed=2) is None


class TestInvariantWitnesses:
    def test_zigzag_invariants_both_directions(self, zz):
        act = swap_action(zz)
        sub, rows = invariant_subalgebra(act)
        assert sub.dim == 2
        f = zz.field
        assert f.eq(rows, f.canon(np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=object)))
        w_inv, w_alg = embedding_witness_pairs(sub, zz)
        c1, c2 = verify_j_equiv(w_inv, w_alg)
        assert c1.direction == "equiv" and c2.direction == "equiv"
        assert c1.tensor_dim == 4  # A tensored over A collapses to A
        assert c2.tensor_dim == 8  # A (x)_{A^G} A has |G| . dim A
        for cert in (c1, c2):
            assert all(cert.quality_flags.values())
        flags = separable_quality(w_inv, c1)
        assert all(flags.values())

    def test_lambda_rotation_instance(self):
        lam = truncated_cycle("GF(7)", 3, 2)
        act = rotation_action(lam, 3)
        sub, rows = invariant_subalgebra(act)
        assert sub.dim == 2
        f = lam.field
        a0 = f.canon(np.array([1, 1, 1, 0, 0, 0], dtype=object))
        a1 = f.canon(np.array([0, 0, 0, 1, 1, 1], dtype=object))
        assert f.eq(rows, f.canon(np.stack([a0, a1])))
        # a_j -> x^j extends to an algebra isomorphism with inverse
        tp2 = trunc_poly(2, "GF(7)")
        phi = f.eye(2)
        check_algebra_hom(sub, tp2, phi)
        check_algebra_hom(tp2, sub, linalg.invert(f, phi))
        w_inv, w_alg = embedding_witness_pairs(sub, lam)
        tr = tensor_over(w_alg.m, w_alg.n)
        assert tr.module.dim == 18
        dec = decompose(tr.module, seed=0)
        assert dec.class_summary() == [(6, 1), (6, 1), (6, 1)]
        reg = regular_bimodule(lam)
        hits = [
            sum(
                1
                for s in dec.summands
                if are_isomorphic(s.module, regular_bimodule(lam) if g == 0 else _twisted(reg, act, g), seed=1)
            )
            for g in range(3)
        ]
        assert hits == [1, 1, 1]
        cert = verify_j_geq(w_alg, quality=False)
        assert cert.tensor_dim == 18
        assert replay_certificate(cert)


def _twisted(reg, act, g):
    from jorder.modules import twist_left

    return twist_left(reg, act.matrices[g])


class TestSkewWitnesses:
    def test_zigzag_skew_both_properties(self, zz):
        act = swap_action(zz)
        sk, emb = skew_group_algebra(act)
        assert sk.dim == 8
        assert sk.radical_rows().shape[0] == zz.radical_rows().shape[0] * 2
        assert sk.loewy_length() == zz.loewy_length() == 2
        w_down, w_up = embedding_witness_pairs(zz, sk, rows=emb)
        c_down = verify_j_geq(w_down, quality=False)  # A | A*G as A-A-bimodule
        c_up = verify_j_geq(w_up, quality=False)  # multiplication splits
        assert c_down.tensor_dim == 8
        assert c_up.tensor_dim == 16
        assert replay_certificate(c_down) and replay_certificate(c_up)

    def test_trunc_poly_skew(self):
        d = trunc_poly(2, "GF(7)")
        f = d.field
        neg = f.eye(2)
        neg[1, 1] = f.canon(np.array(-1, dtype=object))
        act = AlgebraAction(FiniteGroup.cyclic(2), d, [f.eye(2), neg])
        sk, emb = skew_group_algebra(act)
        assert sk.dim == 4
        assert sk.radical_rows().shape[0] == 2
        assert sk.loewy_length() == d.loewy_length() == 2
        w_down, w_up = embedding_witness_pairs(d, sk, rows=emb)
        assert verify_j_geq(w_down, quality=False).tensor_dim == 4
        assert verify_j_geq(w_up, quality=False).tensor_dim == 8


class TestTransports:
    def test_opposite_transport(self, kron):
        d, th, m, n = kron
        w = JWitnessPair(d, th, m, n)
        w_op = transport_opposite(w)
        cert = verify_j_geq(w_op, quality=False)
        assert cert.tensor_dim == 2
        assert replay_certificate(cert)

    def test_tensor_transport_with_linear_quiver(self, kron):
        d, th, m, n = kron
        w = JWitnessPair(d, th, m, n)
        c = linear_quiver_algebra(GF(101), 2)
        w_t = transport_tensor(w, c)
        assert w_t.a.dim == d.dim * c.dim
        cert = verify_j_geq(w_t, quality=False)
        assert cert.tensor_dim == 2 * c.dim
        assert replay_certificate(cert)


class TestEnvConversions:
    def test_round_trip_preserves_actions(self, zz):
        reg = regular_bimodule(zz)
        env, menv = bimodule_as_env_module(reg)
        assert env.dim == 16
        back = env_module_as_bimodule(menv, zz, zz)
        f = zz.field
        assert f.eq(back.left_mats, reg.left_mats)
        assert f.eq(back.right_mats, reg.right_mats)

    def test_embedding_requires_injective_algebra_map(self, zz):
        f = zz.field
        with pytest.raises(ValueError):
            embedding_witness_pairs(zz, zz, rows=f.zeros((4, 4)))

    def test_restriction_bimodules_shapes(self):
        a3, a2 = trunc_poly(3), trunc_poly(2)
        f = a3.field
        phi = f.zeros((2, 3))
        phi[0, 0] = f.one
        phi[1, 1] = f.one
        m, n = restriction_bimodules(a3, a2, phi)
        assert m.left_algebra is a2 and m.right_algebra is a3
        assert n.left_algebra is a3 and n.right_algebra is a2


@pytest.fixture(scope="module")
def setup():
    a3 = linear_quiver_algebra(GF(101), 3)
    d = trunc_poly(2)
    complete_primitive_idempotents(a3)
    complete_primitive_idempotents(d)
    dop = d.opposite()
    complete_primitive_idempotents(dop)
    return a3, d, dop


class TestLrprojProjectivity:
    def test_single_outer_product(self, setup):
        a3, d, dop = setup
        p = projective_indecomposables(a3)[0][0]
        q = _op_left_as_right(projective_indecomposables(dop)[0][0], d)
        held, info = lrproj_projectivity_check(a3, d, outer_tensor(p, q))
        assert held and info == {"vacuous": False, "summands": 1}

    def test_direct_sum_of_projectives(self, setup):
        a3, d, dop = setup
        projs = projective_indecomposables(a3)
        q = _op_left_as_right(projective_indecomposables(dop)[0][0], d)
        m1 = outer_tensor(projs[0][0], q)
        m2 = outer_tensor(projs[2][0], q)
        big, _, _ = direct_sum([m1, m2, m1])
        held, info = lrproj_projectivity_check(a3, d, big)
        assert held and info["summands"] == 3

    def test_non_lrproj_is_vacuous(self, setup):
        a3, d, dop = setup
        p = projective_indecomposables(a3)[0][0]
        q = _op_left_as_right(projective_indecomposables(dop)[0][0], d)
        env, menv = bimodule_as_env_module(outer_tensor(p, q))
        rad = radical_sub_rows(menv)
        _, incl = submodule(menv, rad[:1])
        quo, _ = quotient_module(menv, incl.T)
        mq = env_module_as_bimodule(quo, a3, d)
        held, info = lrproj_projectivity_check(a3, d, mq)
        assert held and info["vacuous"]

    def test_hypotheses_enforced(self, setup):
        a3, d, dop = setup
        with pytest.raises(HypothesisViolated):
            lrproj_projectivity_check(d, d, regular_bimodule(d))
        a2 = linear_quiver_algebra(GF(101), 2)
        complete_primitive_idempotents(a2)
        p = projective_indecomposables(a3)[0][0]
        a2op = a2.opposite()
        complete_primitive_idempotents(a2op)
        q = _op_left_as_right(projective_indecomposables(a2op)[0][0], a2)
        with pytest.raises(HypothesisViolated):
            lrproj_projectivity_check(a3, a2, outer_tensor(p, q))


def per_summand_lrproj_answer(a, b, m, seed=0):
    """The answer of lrproj_projectivity_check on a left-right projective m, testing every
    summand, not one per class."""
    right_projs = [_op_left_as_right(p, b) for p, _, _ in witnesses.projective_indecomposables(b.opposite())]
    candidates = [outer_tensor(p, q) for p, _, _ in witnesses.projective_indecomposables(a) for q in right_projs]
    dec = decompose(m, seed=seed)
    held = all(
        any(c.dim == z.module.dim and are_isomorphic(c, z.module, seed=seed + 3) for c in candidates)
        for z in dec.summands
    )
    return held, {"vacuous": False, "summands": len(dec.summands)}


def lrproj_samples(field_name, seed):
    """Conjugated sums of the P_i (x) k[x]/x^2 over the radical-square-zero A_3, whose P_1 and P_2
    have one dimension and different pieces, and over the path algebra of 1 -> 2 -> 3."""
    gen = np.random.default_rng(seed)
    d = catalog.build("trunc_poly", field=field_name, k=2)
    out = []
    for a in (catalog.build("A_n", field=field_name, n=3), catalog.build("kA_n_mod_Rk", field=field_name, n=3, k=3)):
        field = a.field
        right = _op_left_as_right(projective_indecomposables(d.opposite())[0][0], d)
        projs = [outer_tensor(p, right) for p, _, _ in projective_indecomposables(a)]
        for mults in ((1, 1, 0), (2, 0, 1), (0, 2, 1), (1, 1, 1)):
            big, _, _ = direct_sum([p for p, k in zip(projs, mults) for _ in range(k)])
            t = linalg.random_invertible(field, gen, big.dim)
            ti = linalg.invert(field, t)

            def conj(mats):
                return field.canon(np.stack([field.matmul(t, field.matmul(x, ti)) for x in mats]))

            out.append((a, d, Module(a, d, conj(big.left_mats), conj(big.right_mats), f"lrproj{mults}", check=False)))
    return out


class TestLrprojPerClass:
    @pytest.mark.parametrize("field_name", ["GF(3)", "GF(101)"])
    def test_per_class_answer_equals_the_per_summand_one(self, field_name, monkeypatch):
        """One representative per class gives the answer of every summand tested: True with all
        candidates, and False or True with P_1 (x) k[x]/x^2 left out of the candidates."""
        for k, (a, d, m) in enumerate(lrproj_samples(field_name, 5)):
            got = lrproj_projectivity_check(a, d, m, seed=k)
            assert got[0] and got == per_summand_lrproj_answer(a, d, m, seed=k)
        held = witnesses.projective_indecomposables
        monkeypatch.setattr(
            witnesses, "projective_indecomposables", lambda x: held(x)[1:] if x.label.startswith("kA") else held(x))
        answers = []
        for k, (a, d, m) in enumerate(lrproj_samples(field_name, 6)):
            got = lrproj_projectivity_check(a, d, m, seed=k)
            assert got == per_summand_lrproj_answer(a, d, m, seed=k)
            answers.append(got[0])
        assert False in answers and True in answers

    def test_decomposes_once_per_class(self, monkeypatch):
        """On P_2^2 + P_3 (x) k[x]/x^2 over the radical-square-zero A_3 the check decomposes m and,
        per class, the representative against the matching candidate: P_1 (x) k[x]/x^2 has P_2's
        dimension but other pieces, so are_isomorphic rejects it before decomposing anything. The
        representative is a certified leaf of m's decomposition, so End is solved for m alone."""
        (a, d, m), = [x for x in lrproj_samples("GF(101)", 7) if x[0].label == "kA3/R2" and x[2].label == "lrproj(0, 2, 1)"]
        calls, solved = [], []
        decompose_, endomorphism_algebra = decomp.decompose, decomp.endomorphism_algebra

        def counted(x, seed=0):
            calls.append((x, decompose_(x, seed=seed)))
            return calls[-1][1]

        monkeypatch.setattr(decomp, "decompose", counted)
        monkeypatch.setattr(witnesses, "decompose", decomp.decompose)
        monkeypatch.setattr(decomp, "endomorphism_algebra", lambda x: solved.append(x) or endomorphism_algebra(x))
        held, info = lrproj_projectivity_check(a, d, m, seed=1)
        assert held and info["summands"] == 3
        assert calls[0][0] is m and len(calls) == 3
        assert len(solved) == 1 and solved[0] is m
        leaves = [s.module for s in calls[0][1].summands]
        assert all(any(x is z for z in leaves) for x, _ in calls[1:])
        assert len(decompose_(m, seed=1).classes) == 2


class TestTopBound:
    def test_indecomposable_a4_a2_bimodules(self):
        a4 = linear_quiver_algebra(GF(2), 4)
        a2 = linear_quiver_algebra(GF(2), 2)
        complete_primitive_idempotents(a4)
        a2op = a2.opposite()
        complete_primitive_idempotents(a2op)
        env = tensor_algebra(a4, a2op)
        complete_primitive_idempotents(env)
        rng = np.random.default_rng(11)
        seen = 0
        for _ in range(8):
            mod = random_left_module(env, rng, copies_cap=1)
            if mod.dim == 0:
                continue
            for s in decompose(mod, seed=7).summands:
                t, _ = top_of(s.module)
                assert t.dim <= 2
                seen += 1
        assert seen >= 8


class TestLoewyExperiment:
    def test_equal_pairs_are_consistent(self):
        d = trunc_poly(2, "GF(7)")
        f = d.field
        neg = f.eye(2)
        neg[1, 1] = f.canon(np.array(-1, dtype=object))
        act = AlgebraAction(FiniteGroup.cyclic(2), d, [f.eye(2), neg])
        sk, _ = skew_group_algebra(act)
        report = loewy_experiment([(d, sk), (d, d)])
        assert report["all_equal"]
        assert report["status"] == "conjecture-consistent"
        assert report["is_proof"] is False
        assert [r["equal"] for r in report["rows"]] == [True, True]

    def test_unequal_pair_is_flagged(self):
        report = loewy_experiment([(trunc_poly(2), trunc_poly(3))])
        assert not report["all_equal"]
        assert report["status"] == "conjecture-violating-candidate"
        assert report["is_proof"] is False


class TestWitnessSearch:
    def test_finds_witness_for_semisimple_pair(self):
        two = qa("field GF(5)\nvertex 1\nvertex 2\n")
        with pytest.warns(UserWarning):
            cert = witness_search(two, two, seed=0, budget=15)
        assert cert is not None
        assert replay_certificate(cert)

    def test_returns_none_when_no_witness_exists(self):
        d = trunc_poly(2, "GF(5)")
        k = qa("field GF(5)\nvertex 1\n")
        # every (D, k)-tensor is k-split while the regular D-bimodule is not
        assert witness_search(d, k, seed=0, budget=10) is None


class TestSummandSplitMaps:
    def test_explicit_split_of_projective(self):
        a3 = linear_quiver_algebra(GF(101), 3)
        complete_primitive_idempotents(a3)
        leaves = projective_leaves(a3)
        projs = [leaf.module for leaf in leaves]
        big, _, _ = direct_sum([projs[0], projs[1]])
        f = a3.field
        maps = summand_split_maps(leaves[0], big)
        assert maps is not None
        section, retraction = maps
        assert f.eq(f.matmul(retraction, section), f.eye(projs[0].dim))
        assert summand_split_maps(leaves[0], big) is not None
        assert summand_split_maps(leaves[2], big) is None

    def test_rejects_decomposable_input(self):
        a3 = linear_quiver_algebra(GF(101), 3)
        complete_primitive_idempotents(a3)
        projs = [p for p, _, _ in projective_indecomposables(a3)]
        big, _, _ = direct_sum([projs[0], projs[1]])
        # a split takes a certified leaf, and a decomposable module has more than one
        assert len(decompose(big).summands) > 1


class TestGuardSemantics:
    def test_quality_checks_need_verified_certificate(self, zz):
        w = JWitnessPair(zz, zz, regular_bimodule(zz), regular_bimodule(zz))
        with pytest.raises(ValueError):
            generators_check(w, None)
        with pytest.raises(ValueError):
            faithful_projinj_check(w, None)
        with pytest.raises(ValueError):
            separable_quality(w, None)

    def test_truncated_witness_fails_before_quality(self, kron):
        """The left-socle sub-bimodule of M kills x and breaks the split."""
        d, th, m, n = kron
        f = d.field
        sub_m, _ = submodule(m, f.eye(4)[[1, 3]])
        w = JWitnessPair(d, th, sub_m, n)
        with pytest.raises(NotASummand):
            verify_j_geq(w, quality=False)


# ---- the search verifies each distinct tensor once --------------------------------


def _old_witness_search(a, b, seed=0, budget=20, max_dim=None):
    """The search loop that verifies every attempt: the regular bimodule is
    decomposed again in each verify_j_geq, and equal tensors are tried again."""
    complete_primitive_idempotents(a, seed)
    complete_primitive_idempotents(b, seed + 1)
    env_ab = witnesses._enveloping_algebra(a, b.opposite())
    env_ba = witnesses._enveloping_algebra(b, a.opposite())
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
        try:
            return witnesses.verify_j_geq(JWitnessPair(a, b, m, n, seed=seed), quality=False)
        except (NotASummand, Inconclusive):
            continue
    return None


def _two_vertices():
    two = qa("field GF(5)\nvertex 1\nvertex 2\n")
    return two, two


# (name, builder of a fresh (a, b), budget): the two searches of the benchmark's
# verify-gf101 CLI jobs, the semisimple pair that finds witnesses, and a pair over Q
SEARCHES = [
    ("trunc_poly2>=kronecker/GF(101)",
     lambda: (catalog.resolve("catalog:trunc_poly?k=2", field="GF(101)"), catalog.resolve("catalog:kronecker", field="GF(101)")),
     20),
    ("trunc_poly3>=trunc_poly2/GF(101)",
     lambda: (catalog.resolve("catalog:trunc_poly?k=3", field="GF(101)"), catalog.resolve("catalog:trunc_poly?k=2", field="GF(101)")),
     20),
    ("two_vertices/GF(5)", _two_vertices, 15),
    ("trunc_poly2>=kronecker/Q",
     lambda: (catalog.resolve("catalog:trunc_poly?k=2", field="Q"), catalog.resolve("catalog:kronecker", field="Q")),
     10),
]


def _tensor_key(w):
    t = tensor_over(w.m, w.n).module
    return t.dim, tuple(t.left_mats.ravel().tolist()), tuple(t.right_mats.ravel().tolist())


def _distinct(keys):
    return list(dict.fromkeys(keys))


class TestWitnessSearchVerifiesEachTensorOnce:
    @pytest.mark.parametrize("name, build, budget", SEARCHES, ids=[s[0] for s in SEARCHES])
    def test_matches_the_search_that_verifies_every_attempt(self, name, build, budget, monkeypatch):
        """For ten seeds the two searches return byte-equal certificate documents,
        or both None, and the new one verifies the tensors the old one verified,
        each once, in the order the old one first met them."""
        tried = []
        verify = witnesses.verify_j_geq

        def recorded(w, **kw):
            tried[-1].append(_tensor_key(w))
            return verify(w, **kw)

        monkeypatch.setattr(witnesses, "verify_j_geq", recorded)
        found = 0
        for seed in range(10):
            docs = []
            for search in (_old_witness_search, witness_search):
                tried.append([])
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the semisimple pair is disconnected
                    cert = search(*build(), seed=seed, budget=budget)
                docs.append(None if cert is None else serialize.canon_json(serialize.certificate_doc(cert)))
            assert docs[0] == docs[1], (name, seed)
            assert tried[-1] == _distinct(tried[-2]), (name, seed)
            found += docs[1] is not None
        # the searches without a known witness give up, the semisimple one mostly finds one
        assert (found > 0) == (name == "two_vertices/GF(5)")
        if name == "two_vertices/GF(5)":
            return
        assert sum(len(old) > len(new) for old, new in zip(tried[::2], tried[1::2])) > 0  # repeats occur

    def test_seed0_search_decomposes_the_regular_bimodule_once(self, monkeypatch):
        """The seed-0 trunc_poly?k=2 >=_J kronecker search of the benchmark: one End
        solve for the regular bimodule, and one verify_j_geq per distinct tensor,
        the zero-dimensional one included."""
        a, b = SEARCHES[0][1]()
        solved, verified = [], []
        endomorphism_algebra, verify = decomp.endomorphism_algebra, witnesses.verify_j_geq
        monkeypatch.setattr(decomp, "endomorphism_algebra", lambda m: solved.append(m) or endomorphism_algebra(m))

        def counted(w, **kw):
            verified.append(w.tensor().module.dim)
            return verify(w, **kw)

        monkeypatch.setattr(witnesses, "verify_j_geq", counted)
        assert witness_search(a, b, seed=0, budget=20) is None
        assert len([m for m in solved if m.label == f"{a.label} (regular)"]) == 1
        assert len(verified) == 7 and 0 in verified

    def test_verify_reads_the_tensor_the_pair_holds(self, kron, monkeypatch):
        d, th, m, n = kron
        w = JWitnessPair(d, th, m, n)
        assert w.tensor() is w.tensor()
        built = []
        monkeypatch.setattr(witnesses, "tensor_over", lambda x, y: built.append(1) or tensor_over(x, y))
        cert = verify_j_geq(w, quality=False)
        assert built == [] and cert.tensor is w.tensor()
        # a replay builds the tensor again rather than trusting the held one
        assert replay_certificate(cert) and built == [1]


# ---- quality flags compute only their boolean ---------------------------------------


def _old_generators_check(w, cert):
    """generators_check by one leaf split per indecomposable projective (the oracle)."""
    if cert is None or cert.section is None:
        raise ValueError("generators_check needs a verified certificate")
    a, b, seed = w.a, w.b, w.seed
    _, m_env = bimodule_as_env_module(w.m, seed=seed)
    cover_m = projective_cover(m_env).module
    left_cover = env_module_as_bimodule(cover_m, a, b).restrict_left()
    for leaf in projective_leaves(a):
        if summand_split_maps(leaf, left_cover) is None:
            return False
    _, n_env = bimodule_as_env_module(w.n, seed=seed)
    cover_n = projective_cover(n_env).module
    right_cover = module_over_opposite(env_module_as_bimodule(cover_n, b, a).restrict_right())
    for leaf in projective_leaves(a.opposite()):
        if summand_split_maps(leaf, right_cover) is None:
            return False
    return True


def _projective_injectives(alg):
    """The projective leaves of alg whose modules are also injective."""
    return [
        leaf for leaf in projective_leaves(alg) if is_projective(module_over_opposite(dual_module(leaf.module)))
    ]


def _old_faithful_projinj_check(w, cert):
    """faithful_projinj_check by one leaf split per projective-injective (the oracle)."""
    if cert is None or cert.section is None:
        raise ValueError("faithful_projinj_check needs a verified certificate")
    a = w.a
    left = w.m.restrict_left()
    if left_annihilator_rows(left).shape[0] != 0:
        return False
    for leaf in _projective_injectives(a):
        if summand_split_maps(leaf, left) is None:
            return False
    if right_annihilator_rows(w.n.restrict_right()).shape[0] != 0:
        return False
    right = module_over_opposite(w.n.restrict_right())
    for leaf in _projective_injectives(a.opposite()):
        if summand_split_maps(leaf, right) is None:
            return False
    return True


class _Verified:
    """Stands in for a verified certificate: the quality checks only test that one is given."""

    section = np.zeros((0, 0))


QUALITY_FIELDS = [GF(2), GF(3), GF(101), QQ]


def _catalog_witnesses(field):
    """The Kronecker witness and its opposite, and both skew-extension witnesses of the
    dual numbers and (over GF(p); over Q they take seconds) the zigzag algebra under C_2."""
    w = catalog.build("kronecker_witness", field=field.name)
    ws = [w, transport_opposite(w)]
    tp = catalog.build("trunc_poly", field=field.name, k=2)
    sign = field.canon(np.array([[1, 0], [0, -1]], dtype=object))
    ws += list(_skew_pairs(AlgebraAction(FiniteGroup.cyclic(2), tp, [field.eye(2), sign])))
    if field != QQ:
        ws += list(_skew_pairs(catalog.build("zigzag_c2", field=field.name)))
    return ws


def _skew_pairs(action):
    skew, emb = skew_group_algebra(action)
    return embedding_witness_pairs(action.algebra, skew, rows=emb)


def _random_witness_pairs(field, count=4):
    """Random (a, b)- and (b, a)-bimodule pairs, drawn as the search draws them."""
    name = field.name
    pairs = [
        (catalog.build("trunc_poly", field=name, k=2), catalog.build("kronecker", field=name)),
        (linear_quiver_algebra(field, 3), catalog.build("trunc_poly", field=name, k=2)),
        (catalog.build("kronecker", field=name), linear_quiver_algebra(field, 2)),
    ]
    rng = np.random.default_rng(11)
    out = []
    for a, b in pairs:
        complete_primitive_idempotents(a)
        complete_primitive_idempotents(b, 1)
        env_ab = witnesses._enveloping_algebra(a, b.opposite())
        env_ba = witnesses._enveloping_algebra(b, a.opposite())
        for _ in range(count):
            m_env = random_left_module(env_ab, rng, copies_cap=1)
            n_env = random_left_module(env_ba, rng, copies_cap=1)
            if m_env.dim and n_env.dim:
                m, n = env_module_as_bimodule(m_env, a, b), env_module_as_bimodule(n_env, b, a)
                out.append(JWitnessPair(a, b, m, n, seed=2))
    return out


class TestQualityFlagsAgainstTheirOracles:
    @pytest.mark.parametrize("field", QUALITY_FIELDS, ids=lambda f: f.name)
    def test_generators_check_matches_the_leaf_splits(self, field):
        answers = []
        for w in _catalog_witnesses(field) + _random_witness_pairs(field):
            got = generators_check(w, _Verified())
            assert got == _old_generators_check(w, _Verified()), w
            answers.append(got)
        assert True in answers and False in answers

    @pytest.mark.parametrize("field", QUALITY_FIELDS, ids=lambda f: f.name)
    def test_faithful_check_matches_the_leaf_splits(self, field):
        answers = []
        for w in _catalog_witnesses(field) + _random_witness_pairs(field):
            got = faithful_projinj_check(w, _Verified())
            assert got is _old_faithful_projinj_check(w, _Verified()), w
            answers.append(got)
        assert True in answers and False in answers

    @pytest.mark.parametrize("field", [GF(3), GF(101), QQ], ids=lambda f: f.name)
    def test_faithful_modules_split_off_every_projective_injective(self, field):
        """The lemma behind faithful_projinj_check, on random left modules over
        basic algebras with and without projective-injectives, a non-basic skew
        algebra with an M_2 block, and their opposites."""
        name = field.name
        algs = [
            catalog.build("kronecker", field=name),
            catalog.build("trunc_poly", field=name, k=3),
            catalog.build("A_n", field=name, n=3),
            catalog.build("C4_algebra", field=name),
            catalog.build("skew", field=name, of="zigzag_c2"),
        ]
        rng = np.random.default_rng(5)
        faithful, unfaithful, splits = 0, 0, 0
        for alg in algs + [x.opposite() for x in algs]:
            leaves = _projective_injectives(alg)
            for _ in range(40):
                x = random_left_module(alg, rng)
                if left_annihilator_rows(x).shape[0]:
                    unfaithful += 1
                    continue
                faithful += 1
                for leaf in leaves:
                    assert summand_split_maps(leaf, x) is not None, (alg.label, x.dim)
                    splits += 1
        assert faithful >= 50 and unfaithful and splits >= 50, (faithful, unfaithful, splits)

    def test_generators_check_refuses_an_envelope_without_the_product_family(self):
        """The cover's multiplicities name factor simples only under the Kronecker
        family; a reordered family on the held envelope is refused, not misread."""
        w = catalog.build("kronecker_witness", field="GF(101)")
        assert generators_check(w, _Verified())
        env = w.a._envelope[3]
        env.idempotents = env.idempotents[::-1]
        env._projectives = env._simples = None
        with pytest.raises(AssertionError, match="not the product"):
            generators_check(w, _Verified())

    def test_non_split_residue_field_answers_as_the_leaf_splits(self):
        """Over GF(4) as a GF(2)-algebra the top read has no multiplicities to
        read; the check must then fail as the leaf splits do."""
        f = GF(2)
        table = f.zeros((2, 2, 2))
        # k[t]/(t^2+t+1), the field with four elements over GF(2)
        table[0, 0] = [1, 0]
        table[0, 1] = [0, 1]
        table[1, 0] = [0, 1]
        table[1, 1] = [1, 1]
        quartic = Algebra(f, table, [1, 0], idempotents=[[1, 0]], idempotents_primitive=True)
        point = qa("field GF(2)\nvertex 1\n")
        for a, b in ((quartic, point), (point, quartic), (quartic, quartic)):
            # A (x)_k B on both sides
            m = outer_tensor(left_regular_module(a), right_regular_module(b))
            n = outer_tensor(left_regular_module(b), right_regular_module(a))
            outcomes = []
            for check in (generators_check, _old_generators_check):
                try:
                    outcomes.append(check(JWitnessPair(a, b, m, n), _Verified()))
                except JorderError as exc:  # the exception class is the outcome
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], (a.label, b.label, outcomes)

    @pytest.mark.parametrize("field", QUALITY_FIELDS, ids=lambda f: f.name)
    def test_adjoint_pair_flag_matches_the_explicit_isomorphism(self, field):
        answers = []
        for w in _catalog_witnesses(field) + _random_witness_pairs(field, count=3):
            for m, n in ((w.m, w.n), (w.n, w.m)):
                want = is_projective(m.restrict_left()) and (
                    explicit_isomorphism(hom_to_regular(m)[0], n, seed=w.seed) is not None
                )
                got = is_adjoint_pair_witness(m, n, seed=w.seed)
                assert got is want, (w, m.label)
                answers.append(got)
        assert True in answers and False in answers
