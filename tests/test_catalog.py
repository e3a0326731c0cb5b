"""Catalog entries: fingerprints, parameter validation, URIs, and coincidences.

Expected fingerprints are (dim, radical layer dims, number of simples, Loewy
length), computed by hand from path counts next to each assertion.
"""

import numpy as np
import pytest

from jorder import catalog
from jorder.algebras import quotient_algebra
from jorder.errors import (
    BadCharacteristic,
    BadParams,
    FingerprintMismatch,
    UnknownEntry,
)
from jorder.fields import GF, QQ
from jorder.witnesses import verify_j_geq


class TestFingerprints:
    @pytest.mark.parametrize(
        "entry_id,params,expected",
        [
            ("trunc_poly", {"k": 1}, (1, (1, 0), 1, 1)),
            ("trunc_poly", {"k": 2}, (2, (2, 1, 0), 1, 2)),
            ("trunc_poly", {"k": 4}, (4, (4, 3, 2, 1, 0), 1, 4)),
            ("A_n", {"n": 2}, (3, (3, 1, 0), 2, 2)),
            ("A_n", {"n": 4}, (7, (7, 3, 0), 4, 2)),
            ("kA_n_mod_Rk", {"n": 4, "k": 3}, (9, (9, 5, 2, 0), 4, 3)),
            ("kA_n_mod_Rk", {"n": 1, "k": 2}, (1, (1, 0), 1, 1)),
            ("lambda", {"n": 3, "k": 2}, (6, (6, 3, 0), 3, 2)),
            ("lambda", {"n": 2, "k": 3}, (6, (6, 4, 2, 0), 2, 3)),
            ("kronecker", {}, (4, (4, 2, 0), 2, 2)),
            ("A3prime", {}, (5, (5, 2, 0), 3, 2)),
            ("C4_algebra", {}, (8, (8, 4, 1, 0), 4, 3)),
            ("Qprime", {"n": 2}, (8, (8, 4, 0), 4, 2)),
            ("Qprime", {"n": 3}, (12, (12, 6, 0), 6, 2)),
        ],
    )
    def test_algebra_entries(self, entry_id, params, expected):
        alg = catalog.build(entry_id, **params)
        assert catalog.fingerprint(alg) == expected

    def test_action_entries_fingerprint_the_algebra(self):
        act = catalog.build("zigzag_c2")
        assert catalog.fingerprint(act.algebra) == (4, (4, 2, 0), 2, 2)
        act = catalog.build("lambda_rot", n=2, k=2)
        assert catalog.fingerprint(act.algebra) == (4, (4, 2, 0), 2, 2)

    def test_skew_entries(self):
        sk = catalog.build("skew", of="zigzag_c2")
        assert catalog.fingerprint(sk) == (8, (8, 4, 0), 1, 2)
        sk = catalog.build("skew", of="lambda_rot", n=3, k=2)
        assert catalog.fingerprint(sk) == (18, (18, 9, 0), 1, 2)

    def test_mismatch_is_refused(self, monkeypatch):
        entry = catalog.CATALOG["kronecker"]
        bad = catalog.CatalogEntry(
            "bad_kronecker",
            "algebra",
            (),
            "deliberately wrong expectation",
            entry.builder,
            lambda p: (5, (5, 2, 0), 2, 2),
        )
        monkeypatch.setitem(catalog.CATALOG, "bad_kronecker", bad)
        with pytest.raises(FingerprintMismatch):
            catalog.build("bad_kronecker")


class TestCoincidences:
    def test_radical_square_zero_is_the_k2_truncation(self):
        a4 = catalog.build("A_n", n=4)
        t4 = catalog.build("kA_n_mod_Rk", n=4, k=2)
        assert a4.labels == t4.labels
        assert a4.field.eq(a4.table, t4.table)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3)])
    def test_cycle_mod_closing_arrow_matches_linear_truncation(self, n, k):
        lam = catalog.build("lambda", n=n, k=k)
        f = lam.field
        closing = f"a{n}"
        ideal = [
            f.eye(lam.dim)[i]
            for i, lab in enumerate(lam.labels)
            if closing in lab.split("*")
        ]
        quo = quotient_algebra(lam, np.stack(ideal))
        lin = catalog.build("kA_n_mod_Rk", n=n, k=k)
        assert catalog.fingerprint(quo) == catalog.fingerprint(lin)


class TestActions:
    def test_zigzag_swap_exchanges_vertices_and_arrows(self):
        act = catalog.build("zigzag_c2")
        alg, f = act.algebra, act.algebra.field
        order = {lab: i for i, lab in enumerate(alg.labels)}
        c = act.matrices[1]
        for src, dst in [("e_1", "e_2"), ("e_2", "e_1"), ("a", "b"), ("b", "a")]:
            assert f.eq(f.matmul(c, f.eye(4)[order[src]]), f.eye(4)[order[dst]])
        assert f.eq(f.matmul(c, c), f.eye(4))

    def test_rotation_has_order_n(self):
        act = catalog.build("lambda_rot", n=3, k=2)
        f = act.algebra.field
        r = act.matrices[1]
        assert f.eq(act.matrices[2], f.matmul(r, r))
        assert f.eq(f.matmul(r, act.matrices[2]), f.eye(act.algebra.dim))
        order = {lab: i for i, lab in enumerate(act.algebra.labels)}
        assert f.eq(
            f.matmul(r, f.eye(6)[order["a1"]]), f.eye(6)[order["a2"]]
        )


class TestKroneckerWitnessEntry:
    def test_displayed_matrices(self):
        w = catalog.build("kronecker_witness")
        f = w.a.field
        m = w.m
        # vertex components of M: rows 0..1 over the first vertex, 2..3 over
        # the second; the arrow actions map the second block to the first
        a_block = m.right_mats[2][0:2, 2:4]
        b_block = m.right_mats[3][0:2, 2:4]
        assert f.eq(a_block, f.eye(2))
        assert f.eq(b_block, f.canon(np.array([[1, 0], [1, 1]], dtype=object)))
        x = m.left_mats[1]
        jordan = f.canon(np.array([[0, 0], [1, 0]], dtype=object))
        assert f.eq(x[0:2, 0:2], jordan)
        assert f.eq(x[2:4, 2:4], jordan)

    def test_certificate_verifies(self):
        w = catalog.build("kronecker_witness")
        cert = verify_j_geq(w, quality=False)
        assert cert.tensor_dim == 2


class TestParameters:
    def test_unknown_entry(self):
        with pytest.raises(UnknownEntry):
            catalog.build("nope")

    @pytest.mark.parametrize(
        "entry_id,params",
        [
            ("lambda", {"n": 3}),  # missing k
            ("kronecker", {"n": 2}),  # takes no parameters
            ("trunc_poly", {"k": 0}),  # below range
            ("trunc_poly", {"k": 51}),  # above range
            ("trunc_poly", {"k": True}),  # bool is not a size
            ("lambda", {"n": 3, "k": "2"}),  # strings rejected
            ("skew", {}),  # missing of
            ("skew", {"of": "kronecker"}),  # not an action entry
            ("skew", {"of": "lambda_rot", "n": 3}),  # nested params validated
        ],
    )
    def test_bad_params(self, entry_id, params):
        with pytest.raises(BadParams):
            catalog.build(entry_id, **params)

    def test_skew_needs_invertible_group_order(self):
        with pytest.raises(BadCharacteristic):
            catalog.build("skew", field=GF(2), of="zigzag_c2")

    def test_default_field(self):
        assert catalog.build("trunc_poly", k=2).field.char == 101
        assert catalog.build("lambda_rot", n=2, k=2).algebra.field.char == 101

    def test_explicit_field_by_name(self):
        alg = catalog.build("kronecker", field="Q")
        assert alg.field.char == 0


class TestUris:
    def test_query_parameters(self):
        alg = catalog.resolve("catalog:lambda?n=2&k=2")
        assert alg.dim == 4

    def test_field_in_query(self):
        alg = catalog.resolve("catalog:trunc_poly?k=2&field=Q")
        assert alg.field.char == 0

    def test_field_in_query_and_argument_must_agree(self):
        assert catalog.resolve("catalog:A_n?n=2&field=GF(3)", field="GF(3)").field == GF(3)
        assert catalog.resolve("catalog:A_n?n=2&field=Q", field=QQ).field == QQ
        for field in ("GF(5)", GF(5), QQ):
            with pytest.raises(BadParams, match=r"GF\(3\).*(GF\(5\)|Q)"):
                catalog.resolve("catalog:A_n?n=2&field=GF(3)", field=field)

    def test_nested_skew_uri(self):
        sk = catalog.resolve("catalog:skew?of=lambda_rot&n=2&k=2")
        assert sk.dim == 8

    def test_scheme_required(self):
        with pytest.raises(UnknownEntry):
            catalog.resolve("lambda?n=2&k=2")

    def test_non_integer_value_is_rejected_by_validation(self):
        with pytest.raises(BadParams):
            catalog.resolve("catalog:trunc_poly?k=abc")

    @pytest.mark.parametrize(
        "value, message",
        [
            ("--3", "k='--3' is not an integer"),
            ("%C2%B2", "k='\u00b2' is not an integer"),  # a superscript two, percent-encoded
            ("\u0663", "k='\u0663' is not an integer"),  # an Arabic-Indic three
            ("-3", "k=-3 outside"),
        ],
    )
    def test_only_ascii_integers_are_integers(self, value, message):
        """A value is an integer only when spelled -?[0-9]+; int() would take
        the Arabic-Indic digit and raise a bare ValueError on the first two."""
        with pytest.raises(BadParams, match=f"trunc_poly: parameter {message}"):
            catalog.resolve(f"catalog:trunc_poly?k={value}")


class TestSelfTest:
    def test_grid_is_green(self):
        report = catalog.self_test()
        assert len(report) == len(catalog.SELF_TEST_GRID)
        assert all(row["ok"] for row in report)

    def test_entries_listing(self):
        rows = catalog.entries()
        ids = [e.id for e in rows]
        assert ids == sorted(ids)
        assert "kronecker_witness" in ids
        assert all(e.description for e in rows)
