"""Canonical serialization: round trips, determinism, and tamper detection."""

import json
from fractions import Fraction

import numpy as np
import pytest

from jorder import catalog, serialize
from jorder.algebras import Algebra, algebra_from_quiver
from jorder.decomp import decompose
from jorder.errors import InvalidInput
from jorder.fields import GF, QQ
from jorder.modules import Module, left_regular_module, regular_bimodule
from jorder.quivers import parse_presentation
from jorder.witnesses import replay_certificate, verify_j_geq

from json_oracle import oracle_canon_json
from oracles import linear_quiver_algebra


def qa(text):
    field, pres = parse_presentation(text)
    return algebra_from_quiver(pres, field)


def non_commuting_bimodule_doc():
    """Dual numbers acting regularly on the left and by a conjugate on the right.

    Each action is a valid module structure; the two do not commute.
    """
    d = catalog.resolve("catalog:trunc_poly?k=2")
    f = d.field
    s = f.mat([[1, 1], [0, 1]])
    s_inv = f.mat([[1, f.p - 1], [0, 1]])
    right = f.canon(np.stack([f.matmul(f.matmul(s, r), s_inv) for r in d.right_regular_mats()]))
    m = Module(d, d, d.left_regular_mats(), right, "skewed", check=False)
    ref = "catalog:trunc_poly?k=2"
    return json.loads(serialize.canon_json(serialize.bimodule_doc(m, ref, ref)))


class TestCanonJson:
    def test_sorted_keys_and_trailing_newline(self):
        out = serialize.canon_json({"b": 1, "a": [2, {"z": 3, "y": 4}]})
        assert out.endswith("\n")
        assert out.index('"a"') < out.index('"b"')
        assert out.index('"y"') < out.index('"z"')

    def test_numpy_values_are_cleaned(self):
        out = serialize.canon_json({"n": np.int64(3), "flag": np.bool_(True), "t": (1, 2)})
        doc = json.loads(out)
        assert doc == {"n": 3, "flag": True, "t": [1, 2]}

    def test_deterministic(self):
        doc = serialize.algebra_doc(catalog.build("kronecker"))
        assert serialize.canon_json(doc) == serialize.canon_json(
            serialize.algebra_doc(catalog.build("kronecker"))
        )


# ---- canon_json against json.dumps, byte for byte ----------------------------
#
# canon_json writes the indent-2 text itself; the oracle is json.dumps of the
# former _jsonable copy (tests/json_oracle.py). Certificate documents are
# compared in tests/test_suite.py on the suite's own certificates, CLI
# reports and error documents by an autouse fixture in tests/test_cli.py.


def _catalog_algebras(field):
    """Every algebra the catalog grid builds over field: entries, witness sides, acted-on algebras."""
    for entry_id, params in catalog.SELF_TEST_GRID:
        obj = catalog.build(entry_id, field=field, **params)
        kind = catalog.CATALOG[entry_id].kind
        yield from (obj.a, obj.b) if kind == "witness" else (obj.algebra,) if kind == "action" else (obj,)


class TestCanonJsonBytes:
    @pytest.mark.parametrize("field", [None, QQ], ids=["default", "Q"])
    def test_every_catalog_algebra_doc(self, field):
        assert {entry_id for entry_id, _ in catalog.SELF_TEST_GRID} == set(catalog.CATALOG)
        docs = [serialize.algebra_doc(a) for a in _catalog_algebras(field)]
        assert len(docs) == len(catalog.SELF_TEST_GRID) + 1
        for doc in docs:
            assert serialize.canon_json(doc) == oracle_canon_json(doc)

    @pytest.mark.parametrize("field", [GF(101), QQ], ids=lambda f: f.name)
    def test_decomposition_and_witness_docs(self, field):
        w = catalog.build("kronecker_witness", field=field)
        reg = regular_bimodule(catalog.build("lambda", field=field, n=3, k=2))
        for doc in (serialize.decomposition_doc(decompose(reg, seed=0)), serialize.witness_doc(w),
                    serialize.witness_doc(w, "catalog:a", "catalog:b")):
            assert serialize.canon_json(doc) == oracle_canon_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"s": "caf\u00e9 \u2603 \U0001f600", "t": "tab\tnew\nline\x00\x1f\"q\" \\ /"},
            {3: "int key", 10: [1], "2": None, "b": {}, "a": [], True: "bool key"},
            {"flags": [True, 1, False, 0, np.bool_(True), np.bool_(False), np.int64(7)]},
            {"n": np.int64(-3), "m": np.int32(5), "big": 1 << 70, "neg": [-1, -(1 << 64)]},
            {"none": None, "empty": {"d": {}, "l": [], "t": ()}, "nested": [[], [[]], [{}]]},
            {"zero_rows": serialize.matrix_out(GF(7), np.zeros((0, 3), dtype=np.int64))},
            {"mixed": [1, "1", [2, [3, "x"]], {"k": (4, 5)}], "floats": [0.5, -2.0, 1e300]},
            {"q": serialize.matrix_out(QQ, QQ.canon(np.array([[Fraction(-2, 5), 3]], dtype=object)))},
            [], {}, "top", 7, None, False, [1, 2, 3], [[1, 2], [3, 4]],
        ],
    )
    def test_edge_cases(self, doc):
        assert serialize.canon_json(doc) == oracle_canon_json(doc)

    def test_unknown_objects_are_refused_like_json(self):
        for bad in (Fraction(1, 2), np.zeros(2), {"x": {1, 2}}):
            with pytest.raises(TypeError):
                oracle_canon_json(bad)
            with pytest.raises(TypeError):
                serialize.canon_json(bad)

    def test_matrix_and_vector_out_give_python_ints_over_gf(self):
        f = GF(101)
        rows = serialize.matrix_out(f, f.mat([[1, 100], [0, 7]]))
        vec = serialize.vector_out(f, f.vec([5, 0, 100]))
        assert rows == [[1, 100], [0, 7]] and vec == [5, 0, 100]
        assert all(type(x) is int for x in [*rows[0], *rows[1], *vec])
        assert serialize.matrix_out(f, f.vec([1, 2])) == [[1, 2]]
        assert serialize.matrix_out(f, f.zeros((0, 3))) == []


class TestScalars:
    def test_gf_least_residue(self):
        f = GF(7)
        assert serialize.vector_out(f, [f.scalar(9)]) == [2]
        assert serialize.scalar_in(f, 9, "x") == f.scalar(2)

    def test_rational_strings(self):
        from fractions import Fraction

        assert serialize.vector_out(QQ, [QQ.scalar(Fraction(2, 6)), QQ.scalar(4)]) == ["1/3", "4"]
        assert serialize.scalar_in(QQ, "1/3", "x") == Fraction(1, 3)

    def test_matrix_round_trip_rational(self):
        from fractions import Fraction

        mat = QQ.canon(np.array([[Fraction(1, 2), 3], [0, Fraction(-2, 5)]], dtype=object))
        rows = serialize.matrix_out(QQ, mat)
        assert rows == [["1/2", "3"], ["0", "-2/5"]]
        assert QQ.eq(serialize.matrix_in(QQ, rows, mat.shape, "matrix"), mat)


class TestPresentationText:
    def test_round_trip_cycle_algebra(self):
        lam = catalog.build("lambda", n=3, k=2)
        text = serialize.presentation_text(lam)
        field, pres = parse_presentation(text)
        back = algebra_from_quiver(pres, field)
        assert back.labels == lam.labels
        assert lam.field.eq(back.table, lam.table)

    def test_coefficients_written_in_least_residue(self):
        alg = qa(
            "field GF(101)\nvertex 1 2 3 4\n"
            "arrow a: 1 -> 2\narrow b: 1 -> 3\narrow c: 2 -> 4\narrow d: 3 -> 4\n"
            "relation a*c - 2 b*d\n"
        )
        text = serialize.presentation_text(alg)
        assert "relation a*c + 99 b*d" in text
        field, pres = parse_presentation(text)
        back = algebra_from_quiver(pres, field)
        assert alg.field.eq(back.table, alg.table)

    @pytest.mark.parametrize(
        "field_name, relation",
        [("Q", "relation a*c - 1/2 b*d"), ("GF(7)", "relation a*c + 3 b*d")],
    )
    def test_negative_coefficients_round_trip(self, field_name, relation):
        text = (
            f"field {field_name}\nvertex 1 2 3 4\n"
            "arrow a: 1 -> 2\narrow b: 1 -> 3\narrow c: 2 -> 4\narrow d: 3 -> 4\n"
            "relation a*c - 1/2 b*d\n"
        )
        alg = qa(text)
        written = serialize.presentation_text(alg)
        assert relation in written  # -1/2 is 3 in GF(7)
        back = qa(written)
        assert serialize.presentation_text(back) == written
        assert alg.field.eq(back.table, alg.table)

    def test_requires_quiver_provenance(self):
        sk = catalog.build("skew", of="zigzag_c2")
        with pytest.raises(InvalidInput):
            serialize.presentation_text(sk)


class TestAlgebraDocs:
    @pytest.mark.parametrize("field_name", ["GF(101)", "Q"])
    def test_round_trip(self, field_name):
        alg = catalog.build("C4_algebra", field=field_name)
        doc = json.loads(serialize.canon_json(serialize.algebra_doc(alg)))
        back = serialize.algebra_from_doc(doc)
        assert back.labels == alg.labels
        assert alg.field.eq(back.table, alg.table)
        assert alg.field.eq(back.unit, alg.unit)
        assert len(back.idempotents) == len(alg.idempotents)

    def test_duplicate_labels_refused(self):
        f = GF(5)
        table = f.zeros((2, 2, 2))
        table[0, 0, 0] = f.one
        table[1, 1, 1] = f.one
        unit = f.canon(np.array([1, 1]))
        alg = Algebra(f, table, unit, ["e", "e"], label="kxk")
        with pytest.raises(InvalidInput):
            serialize.algebra_doc(alg)

    def test_wrong_format_refused(self):
        with pytest.raises(InvalidInput):
            serialize.algebra_from_doc({"format": "bimodule"})

    def test_non_associative_table_refused(self):
        # a1 * a1 = a1 keeps the unit laws but breaks associativity
        alg = catalog.build("kA_n_mod_Rk", n=2, k=2, field="GF(5)")
        doc = serialize.algebra_doc(alg)
        i = alg.labels.index("a1")
        doc["table"][i][i][i] = 1
        with pytest.raises(ValueError, match="associative"):
            serialize.algebra_from_doc(doc)


class TestBimoduleDocs:
    def test_round_trip(self):
        w = catalog.build("kronecker_witness")
        doc = json.loads(
            serialize.canon_json(serialize.bimodule_doc(w.m, "aref", "bref"))
        )
        assert doc["left_algebra_ref"] == "aref"
        assert doc["dim"] == 4
        back = serialize.bimodule_from_doc(doc, w.a, w.b)
        f = w.a.field
        assert f.eq(back.left_mats, w.m.left_mats)
        assert f.eq(back.right_mats, w.m.right_mats)

    def test_non_commuting_actions_refused(self):
        doc = non_commuting_bimodule_doc()
        d = catalog.resolve(doc["left_algebra_ref"])
        with pytest.raises(ValueError, match="commute"):
            serialize.bimodule_from_doc(doc, d, d)

    def test_qualified_keys_cover_both_sides(self):
        w = catalog.build("kronecker_witness")
        doc = serialize.bimodule_doc(w.m)
        assert "left:x" in doc["action"]
        assert "right:a" in doc["action"]
        assert "right:e_2" in doc["action"]

    def test_missing_action_key_refused(self):
        w = catalog.build("kronecker_witness")
        doc = serialize.bimodule_doc(w.m)
        del doc["action"]["left:x"]
        with pytest.raises(InvalidInput):
            serialize.bimodule_from_doc(doc, w.a, w.b)

    def test_field_mismatch_refused(self):
        w = catalog.build("kronecker_witness")
        doc = serialize.bimodule_doc(w.m)
        doc["field"] = "GF(7)"
        with pytest.raises(InvalidInput):
            serialize.bimodule_from_doc(doc, w.a, w.b)

    def test_one_sided_module_refused(self):
        w = catalog.build("kronecker_witness")
        with pytest.raises(InvalidInput):
            serialize.bimodule_doc(w.m.restrict_left())


@pytest.fixture(scope="module")
def cert():
    return verify_j_geq(catalog.build("kronecker_witness"), quality=False)


class TestCertificateDocs:

    def test_round_trip_with_refs(self, cert):
        doc = serialize.certificate_doc(
            cert,
            a_ref="catalog:trunc_poly?k=2",
            b_ref="catalog:kronecker",
            witness_ref="catalog:kronecker_witness",
        )
        assert "a" not in doc and "b" not in doc
        back = serialize.certificate_from_doc(
            json.loads(serialize.canon_json(doc)), resolver=catalog.resolve
        )
        assert back.tensor_dim == 2
        assert replay_certificate(back)

    def test_round_trip_embedded_algebras(self, cert):
        doc = serialize.certificate_doc(cert)
        assert doc["a"]["dim"] == 2 and doc["b"]["dim"] == 4
        back = serialize.certificate_from_doc(json.loads(serialize.canon_json(doc)))
        assert replay_certificate(back)

    def test_tampered_retraction_fails_replay(self, cert):
        doc = json.loads(serialize.canon_json(serialize.certificate_doc(cert)))
        doc["retraction"][0][0] = (doc["retraction"][0][0] + 1) % 101
        back = serialize.certificate_from_doc(doc)
        assert not replay_certificate(back)

    def test_ref_without_resolver_refused(self, cert):
        doc = serialize.certificate_doc(cert, a_ref="catalog:trunc_poly?k=2")
        with pytest.raises(InvalidInput):
            serialize.certificate_from_doc(doc)

    def test_certificate_doc_is_the_witness_doc_extended(self, cert):
        refs = {"a_ref": "catalog:trunc_poly?k=2", "b_ref": "catalog:kronecker", "witness_ref": "w.json"}
        for kw in ({}, refs):
            doc = serialize.certificate_doc(cert, **kw)
            assert serialize.canon_json(doc) == serialize.canon_json(old_certificate_doc(cert, **kw))
            witness = serialize.witness_doc(cert.witness, kw.get("a_ref", ""), kw.get("b_ref", ""))
            assert {k: doc[k] for k in witness if k != "format"} == {k: v for k, v in witness.items() if k != "format"}
            assert doc["format"] == "certificate"


def documents(cert):
    """{format: (document as JSON, its reader)} for every document the readers take."""
    w = cert.witness
    reg = regular_bimodule(w.a)
    docs = {
        "algebra": (serialize.algebra_doc(w.a), serialize.algebra_from_doc),
        "bimodule": (serialize.bimodule_doc(w.m), lambda doc: serialize.bimodule_from_doc(doc, w.a, w.b)),
        "witness": (serialize.witness_doc(w), serialize.witness_from_doc),
        "certificate": (serialize.certificate_doc(cert), serialize.certificate_from_doc),
        "decomposition": (serialize.decomposition_doc(decompose(reg)), lambda doc: serialize.verify_decomposition_doc(reg, doc)),
    }
    return {fmt: (json.loads(serialize.canon_json(doc)), read) for fmt, (doc, read) in docs.items()}


FORMATS = ["algebra", "bimodule", "witness", "certificate", "decomposition"]


class TestVersionAndKind:
    """A reader reads only the version it writes and, for a certificate, a
    kind it knows: anything else is InvalidInput naming the key, never a
    document replayed as if it were of this version."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("version", [99, 0, "1", True, None], ids=["99", "0", "string", "true", "missing"])
    def test_other_versions_refused(self, cert, fmt, version):
        doc, read = documents(cert)[fmt]
        assert read(doc) is not False  # the document as written reads
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
        with pytest.raises(InvalidInput, match="'version'"):
            read(doc)

    @pytest.mark.parametrize("fmt, inner", [
        ("witness", "m"), ("witness", "n"), ("witness", "a"), ("witness", "b"),
        ("certificate", "m"), ("certificate", "n"), ("certificate", "a"), ("certificate", "b"),
    ])
    def test_embedded_documents_checked(self, cert, fmt, inner):
        doc, read = documents(cert)[fmt]
        doc[inner]["version"] = 99
        with pytest.raises(InvalidInput, match="'version'"):
            read(doc)

    @pytest.mark.parametrize("kind", ["banana", "geq", 1, None], ids=["banana", "direction-name", "int", "missing"])
    def test_unknown_kinds_refused(self, cert, kind):
        doc, read = documents(cert)["certificate"]
        if kind is None:
            del doc["kind"]
        else:
            doc["kind"] = kind
        with pytest.raises(InvalidInput, match="'kind'"):
            read(doc)

    def test_both_kinds_read(self, cert):
        doc, read = documents(cert)["certificate"]
        assert read(doc).direction == "geq"
        doc["kind"] = "j_equiv"
        assert read(doc).direction == "equiv"


def old_certificate_doc(cert, a_ref="", b_ref="", witness_ref=""):
    """The certificate writer before it extended witness_doc, kept as the byte oracle."""
    w = cert.witness
    field = w.a.field
    doc = {
        "format": "certificate",
        "version": serialize.FORMAT_VERSION,
        "kind": "j_geq" if cert.direction == "geq" else "j_equiv",
        "field": str(field),
        "a_ref": a_ref,
        "b_ref": b_ref,
        "witness_ref": witness_ref,
        "a_label": w.a.label,
        "b_label": w.b.label,
        "m": serialize.bimodule_doc(w.m, left_ref=a_ref, right_ref=b_ref),
        "n": serialize.bimodule_doc(w.n, left_ref=b_ref, right_ref=a_ref),
        "tensor_dim": int(cert.tensor_dim),
        "section": serialize.matrix_out(field, cert.section),
        "retraction": serialize.matrix_out(field, cert.retraction),
        "seed": int(w.seed),
        "quality_flags": dict(cert.quality_flags) if cert.quality_flags else None,
        "decomposition_ref": cert.decomposition_ref,
    }
    if not a_ref:
        doc["a"] = serialize.algebra_doc(w.a)
    if not b_ref:
        doc["b"] = serialize.algebra_doc(w.b)
    return doc


class TestDecompositionDocs:
    def test_replay(self):
        reg = regular_bimodule(catalog.build("lambda", n=3, k=2))
        dec = decompose(reg, seed=0)
        doc = json.loads(serialize.canon_json(serialize.decomposition_doc(dec)))
        assert serialize.verify_decomposition_doc(reg, doc)

    def test_tamper_detected(self):
        reg = regular_bimodule(catalog.build("lambda", n=3, k=2))
        dec = decompose(reg, seed=0)
        doc = json.loads(serialize.canon_json(serialize.decomposition_doc(dec)))
        doc["summands"][0]["idempotent"][0][0] = 5
        assert not serialize.verify_decomposition_doc(reg, doc)

    def test_dim_mismatch_detected(self):
        reg = regular_bimodule(catalog.build("lambda", n=3, k=2))
        dec = decompose(reg, seed=0)
        doc = json.loads(serialize.canon_json(serialize.decomposition_doc(dec)))
        doc["module_dim"] = 7
        assert not serialize.verify_decomposition_doc(reg, doc)

    def test_idempotents_that_are_not_module_maps_refused(self):
        # conjugating every idempotent by one invertible matrix keeps them
        # orthogonal idempotents of the right ranks summing to the identity
        from jorder import linalg

        reg = left_regular_module(catalog.build("lambda", n=3, k=2))
        f = reg.field
        doc = serialize.decomposition_doc(decompose(reg, seed=0))
        assert len(doc["summands"]) == 3 and serialize.verify_decomposition_doc(reg, doc)
        s = linalg.random_invertible(f, np.random.default_rng(1), reg.dim)
        s_inv = linalg.invert(f, s)
        for summand in doc["summands"]:
            e = serialize.matrix_in(f, summand["idempotent"], (reg.dim, reg.dim), "idempotent")
            summand["idempotent"] = serialize.matrix_out(f, f.matmul(f.matmul(s, e), s_inv))
        assert not serialize.verify_decomposition_doc(reg, doc)

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: {"format": "decomposition", "version": 1}, "module_dim"),
        (lambda doc: {**doc, "module_dim": "3"}, "module_dim"),
        (lambda doc: {**doc, "module_dim": True}, "module_dim"),
        (lambda doc: {k: v for k, v in doc.items() if k != "summands"}, "summands"),
        (lambda doc: {**doc, "summands": [5]}, "summands"),
        (lambda doc: {**doc, "summands": [{"dim": 3}]}, "idempotent"),
        (lambda doc: {**doc, "summands": [{**doc["summands"][0], "dim": "x"}]}, "dim"),
        (lambda doc: {**doc, "summands": [{**doc["summands"][0], "dim": True}]}, "dim"),
        (lambda doc: {**doc, "summands": [{**doc["summands"][0], "idempotent": [[1]]}]}, "idempotent"),
    ], ids=["only-format", "string-module-dim", "true-module-dim", "no-summands", "summand-not-object",
            "no-idempotent", "string-dim", "true-dim", "idempotent-shape"])
    def test_malformed_document_names_the_key(self, edit, key):
        reg = regular_bimodule(linear_quiver_algebra(GF(101), 2))
        doc = json.loads(serialize.canon_json(serialize.decomposition_doc(decompose(reg, seed=0))))
        assert len(doc["summands"]) == 1 and serialize.verify_decomposition_doc(reg, doc)
        with pytest.raises(InvalidInput, match=repr(key)):
            serialize.verify_decomposition_doc(reg, edit(doc))
