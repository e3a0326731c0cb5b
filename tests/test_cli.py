"""The command line contract: exit codes 0/2/3/4 and document round trips.

0 every asserted check passed; 2 a check failed; 3 a bounded search gave up;
4 malformed input. Commands run in-process through cli.main.
"""

import json

import pytest

from jorder import catalog, cli, serialize
from jorder.fields import GF
from jorder.modules import regular_bimodule
from jorder.witnesses import JWitnessPair, verify_j_geq

from json_oracle import oracle_canon_json
from oracles import linear_quiver_algebra

A_REF = "catalog:trunc_poly?k=2"
B_REF = "catalog:kronecker"


def _run(capsys, *argv):
    code = cli.main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture(autouse=True)
def canon_json_checked(monkeypatch):
    """Every document written during a CLI test, reports and error documents
    included, is compared with json.dumps's bytes; a mismatch fails the test
    at teardown. The value is the list of (text, matched) pairs."""
    written, canon_json = [], serialize.canon_json

    def checked(doc):
        text = canon_json(doc)
        written.append((text, text == oracle_canon_json(doc)))
        return text

    monkeypatch.setattr(serialize, "canon_json", checked)
    yield written
    assert [text for text, matched in written if not matched] == []


def test_reports_dumps_and_error_documents_are_written_as_json_dumps_writes_them(capsys, canon_json_checked, tmp_path):
    assert _run(capsys, "verify-jgeq", "catalog:kronecker_witness")[0] == 0
    assert _run(capsys, "decompose", str(tmp_path / "missing.json"))[0] == 4
    assert cli.main(["catalog", "dump", "lambda_rot?n=2&k=2", "--format", "json"]) == 0
    assert cli.main(["catalog", "dump", "kronecker_witness", "--field", "Q", "--format", "json"]) == 0
    capsys.readouterr()
    kinds = [(doc.get("format"), "error" in doc) for doc in map(json.loads, (text for text, _ in canon_json_checked))]
    # verify-jgeq hashes the canonical dump of its catalog witness for the report's inputs
    assert kinds == [("witness", False), ("jorder-report", False), (None, True), ("action-bundle", False), ("witness", False)]


@pytest.fixture
def witness_files(tmp_path):
    """The Kronecker witness bimodules, written by the library with algebra refs."""
    w = catalog.resolve("catalog:kronecker_witness")
    m_path, n_path = tmp_path / "m.json", tmp_path / "n.json"
    m_path.write_text(serialize.canon_json(serialize.bimodule_doc(w.m, A_REF, B_REF)))
    n_path.write_text(serialize.canon_json(serialize.bimodule_doc(w.n, B_REF, A_REF)))
    return m_path, n_path


def test_decompose_reads_a_written_bimodule(capsys, witness_files):
    code, report = _run(capsys, "decompose", str(witness_files[0]))
    assert code == 0
    assert report["results"]["module_dim"] == 4
    assert sum(report["results"]["summand_dims"]) == 4


def test_tensor_reads_written_bimodules(capsys, witness_files):
    code, report = _run(capsys, "tensor", *map(str, witness_files))
    assert code == 0
    assert report["results"]["tensor_dim"] == 2


def test_bimodule_without_algebra_refs_is_malformed_input(capsys, tmp_path):
    w = catalog.resolve("catalog:kronecker_witness")
    path = tmp_path / "m.json"
    path.write_text(serialize.canon_json(serialize.bimodule_doc(w.m)))
    code, out = _run(capsys, "decompose", str(path))
    assert code == 4
    assert out["error"]["type"] == "InvalidInput"


def test_verify_jgeq_on_catalog_witness_exits_0(capsys):
    code, report = _run(capsys, "verify-jgeq", "catalog:kronecker_witness")
    assert code == 0
    assert report["results"]["verified"] is True


def test_tampered_certificate_exits_2(capsys, tmp_path):
    code, report = _run(capsys, "verify-jgeq", "catalog:kronecker_witness", "--no-quality")
    assert code == 0
    cert = report["certificates"][0]["certificate"]
    path = tmp_path / "cert.json"
    path.write_text(serialize.canon_json(cert))
    assert _run(capsys, "verify-cert", str(path))[0] == 0
    cert["section"][0][0] = (cert["section"][0][0] + 1) % 101  # GF(101) entries are ints
    path.write_text(serialize.canon_json(cert))
    code, report = _run(capsys, "verify-cert", str(path))
    assert code == 2
    assert report["results"]["replays"] is False


def test_witness_search_that_gives_up_exits_3(capsys):
    code, report = _run(
        capsys, "witness-search", A_REF, B_REF, "--budget", "20", "--seed", "0"
    )
    assert code == 3
    assert report["results"]["found"] is False


def test_missing_file_exits_4(capsys, tmp_path):
    code, out = _run(capsys, "decompose", str(tmp_path / "absent.json"))
    assert code == 4
    assert out["error"]["type"] == "InvalidInput"


def test_malformed_json_exits_4(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "bimodule", ')
    code, out = _run(capsys, "decompose", str(path))
    assert code == 4
    assert out["error"]["type"] == "InvalidInput"


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _bimodule(change=None, drop=None):
    w = catalog.resolve("catalog:kronecker_witness")
    doc = serialize.bimodule_doc(w.m, A_REF, B_REF)
    return {**_without(doc, drop), **(change or {})}


def _witness(drop):
    return _without(serialize.witness_doc(catalog.resolve("catalog:kronecker_witness")), drop)


def _certificate(drop=None, edit=None):
    cert = verify_j_geq(catalog.resolve("catalog:kronecker_witness"), quality=False)
    doc = _without(serialize.certificate_doc(cert), drop)
    if edit is not None:
        edit(doc)
    return doc


def _certificate_entry(value, *where):
    """The certificate document with the entry at doc[where[0]][where[1]]... set to value."""

    def edit(doc):
        for key in where[:-1]:
            doc = doc[key]
        doc[where[-1]] = value

    return _certificate(edit=edit)


def _field_witness(edit):
    """The witness k >=_J k for k = GF(101), both one-dimensional algebras embedded, then edited."""
    k = linear_quiver_algebra(GF(101), 1)
    doc = serialize.witness_doc(JWitnessPair(k, k, regular_bimodule(k), regular_bimodule(k)))
    edit(doc)
    return doc


_NOT_OBJECTS = [("array", []), ("string", "bimodule"), ("null", None)]
_MALFORMED_DOCS = [
    pytest.param(command, lambda top=top: top, "not a JSON object", id=f"{command}-{name}")
    for command in ("verify-cert", "verify-jgeq", "decompose", "tensor")
    for name, top in _NOT_OBJECTS
] + [
    pytest.param("decompose", lambda: _bimodule(change={"left_algebra_ref": 5}), "'left_algebra_ref'",
                 id="bimodule-ref-not-a-string"),
    pytest.param("decompose", lambda: _bimodule(drop="field"), "'field'", id="bimodule-without-field"),
    pytest.param("verify-jgeq", lambda: _witness(drop="field"), "'field'", id="witness-without-field"),
    # a JSON true is no dimension, even where a table of shape (1, 1) passes for (true, true)
    pytest.param("verify-jgeq", lambda: _field_witness(lambda d: d["a"].update(dim=True)), "'dim'",
                 id="witness-algebra-dim-true"),
    pytest.param("verify-cert", lambda: _certificate(drop="section"), "'section'", id="certificate-without-section"),
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d.update(section=[1, 2])), "'section'",
                 id="certificate-section-not-nested"),
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d["m"]["action"].update({"left:x": [5, 6]})),
                 "'left:x'", id="certificate-action-not-nested"),
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d["a"].update(table=d["a"]["table"][:-1])),
                 "'table'", id="certificate-table-short"),
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d["a"].update(idempotents=3)), "'idempotents'",
                 id="certificate-idempotents-not-a-list"),
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d.update(seed=[1])), "'seed'",
                 id="certificate-seed-not-an-int"),
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d["a"].update(unit=[1])), "'unit'",
                 id="certificate-unit-short"),
] + [
    # GF(101) entries: a denominator p divides, or a JSON value that is neither an int nor a string
    pytest.param("verify-cert", lambda v=v: _certificate_entry(v, "section", 0, 0), "'section'",
                 id=f"certificate-section-entry-{name}")
    for name, v in [("1-over-p", "1/101"), ("true", True), ("list", [1]), ("null", None), ("float", 0.5)]
] + [
    pytest.param("verify-cert", lambda: _certificate_entry("1/101", "m", "action", "left:x", 0, 0), "'left:x'",
                 id="certificate-action-entry-1-over-p"),
    pytest.param("verify-cert", lambda: _certificate_entry("2/101", "a", "unit", 0), "'unit'",
                 id="certificate-unit-entry-2-over-p"),
] + [
    # a document of another version or kind is refused, never replayed as this one
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d.update(version=99)), "'version'",
                 id="certificate-version-99"),
    pytest.param("verify-cert", lambda: _certificate(drop="version"), "'version'", id="certificate-without-version"),
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d["m"].update(version=2)), "'version'",
                 id="certificate-bimodule-version-2"),
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d.update(kind="banana")), "'kind'",
                 id="certificate-kind-banana"),
    pytest.param("verify-cert", lambda: _certificate(drop="kind"), "'kind'", id="certificate-without-kind"),
    pytest.param("decompose", lambda: _bimodule(change={"version": 99}), "'version'", id="bimodule-version-99"),
    pytest.param("verify-jgeq", lambda: _witness(drop="version"), "'version'", id="witness-without-version"),
    pytest.param("verify-jgeq", lambda: _field_witness(lambda d: d["a"].update(version=99)), "'version'",
                 id="witness-algebra-version-99"),
    pytest.param("verify-cert", lambda: _certificate(edit=lambda d: d["b"].pop("version")), "'version'",
                 id="certificate-algebra-without-version"),
]


@pytest.mark.parametrize("command, make_doc, named", _MALFORMED_DOCS)
def test_malformed_document_exits_4(capsys, tmp_path, command, make_doc, named):
    """A document of the wrong shape is malformed input named by its key, not a traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make_doc()))
    files = [str(path)] * (2 if command == "tensor" else 1)
    code = cli.main([command, *files, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 4
    error = json.loads(captured.out)["error"]
    assert error["type"] == "InvalidInput"
    assert named in error["message"]
    assert "Traceback" not in captured.err


def test_zero_dimensional_algebra_exits_4(capsys, tmp_path):
    """An embedded algebra of dimension 0 is refused by Algebra itself, before any check reads its table."""

    def empty(doc):
        doc["a"].update(dim=0, table=[], unit=[], labels=[])
        del doc["a"]["idempotents"]

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_field_witness(empty)))
    code = cli.main(["verify-jgeq", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out)["error"] == {
        "type": "ValueError",
        "message": "an algebra has dimension at least 1; the table is empty",
    }
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("lie", [False, True], ids=["honest", "unit-flagged-primitive"])
def test_an_embedded_family_flagged_primitive_is_checked(capsys, tmp_path, lie):
    """A_2 >=_J A_2 by the regular bimodule, A_2 embedded: verified with every
    quality flag true, and refused as malformed input naming the flag when A_2's
    family is replaced by the unit alone, still flagged primitive."""
    a2 = linear_quiver_algebra(GF(101), 2)
    doc = serialize.witness_doc(JWitnessPair(a2, a2, regular_bimodule(a2), regular_bimodule(a2)))
    if lie:
        doc["a"]["idempotents"] = [serialize.vector_out(a2.field, a2.unit)]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    code, out = _run(capsys, "verify-jgeq", str(path))
    if lie:
        assert code == 4 and out["error"]["type"] == "InvalidInput"
        assert "'idempotents_primitive'" in out["error"]["message"]
    else:
        assert code == 0 and out["results"]["verified"] is True
        assert out["results"]["quality_flags"] == dict.fromkeys(
            ("adjoint_pair", "faithful_check", "generators_check", "left_right_projective"), True
        )


def test_decompose_reads_the_tensor_output(capsys, witness_files, tmp_path):
    code, report = _run(capsys, "tensor", *map(str, witness_files))
    assert code == 0
    tensor_doc = report["results"]["tensor"]
    assert (tensor_doc["left_algebra_ref"], tensor_doc["right_algebra_ref"]) == (A_REF, A_REF)
    path = tmp_path / "tensor.json"
    path.write_text(serialize.canon_json(tensor_doc))
    code, report = _run(capsys, "decompose", str(path))
    assert code == 0
    assert report["results"]["module_dim"] == 2


def test_internal_invariant_failure_exits_2(capsys, witness_files, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("summand family does not resolve the identity")

    monkeypatch.setattr(cli, "decompose", broken)
    code, out = _run(capsys, "decompose", str(witness_files[0]))
    assert code == 2
    assert out["error"] == {
        "type": "AssertionError",
        "message": "summand family does not resolve the identity",
    }


def test_decompose_refuses_non_commuting_bimodule(capsys, tmp_path):
    from test_serialize import non_commuting_bimodule_doc

    path = tmp_path / "skewed.json"
    path.write_text(serialize.canon_json(non_commuting_bimodule_doc()))
    code, out = _run(capsys, "decompose", str(path))
    assert code == 4
    assert out["error"]["type"] == "ValueError"
    assert "commute" in out["error"]["message"]


def test_tensor_output_in_another_directory_is_readable(capsys, tmp_path, monkeypatch):
    # presentation files beside the bimodule documents in x/, the report in y/
    w = catalog.resolve("catalog:kronecker_witness")
    x, y = tmp_path / "x", tmp_path / "y"
    x.mkdir()
    y.mkdir()
    (x / "a.txt").write_text(serialize.presentation_text(w.a))
    (x / "b.txt").write_text(serialize.presentation_text(w.b))
    (x / "m.json").write_text(serialize.canon_json(serialize.bimodule_doc(w.m, "a.txt", "b.txt")))
    (x / "n.json").write_text(serialize.canon_json(serialize.bimodule_doc(w.n, "b.txt", "a.txt")))
    out = y / "t.json"
    code = cli.main(["tensor", str(x / "m.json"), str(x / "n.json"), "--out", str(out), "--format", "json"])
    assert code == 0
    tensor_doc = json.loads(out.read_text())["results"]["tensor"]
    assert (tensor_doc["left_algebra_ref"], tensor_doc["right_algebra_ref"]) == ("../x/a.txt", "../x/a.txt")
    (y / "tensor.json").write_text(serialize.canon_json(tensor_doc))
    code, report = _run(capsys, "decompose", str(y / "tensor.json"))
    assert code == 0
    assert report["results"]["module_dim"] == 2
    # to stdout, refs are relative to the working directory
    monkeypatch.chdir(tmp_path)
    code, report = _run(capsys, "tensor", "x/m.json", "x/n.json")
    assert code == 0
    assert report["results"]["tensor"]["left_algebra_ref"] == "x/a.txt"


SQUARE = "field GF(7)\nvertex 1 2 3 4\narrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
LOOP = "field Q\nvertex 1\narrow x: 1 -> 1\n"


@pytest.mark.parametrize(
    "text",
    [
        SQUARE + "relation a*b + -c*d\n",
        LOOP + "relation x*x*x -\n",
        SQUARE + "relation a*b +-c*d\n",
        LOOP + "relation 1/0 x*x\n",
        SQUARE.replace("GF(7)", "GF(3)") + "relation a*b - 1/3 c*d\n",
    ],
)
def test_malformed_relation_exits_4(capsys, tmp_path, text):
    path = tmp_path / "p.txt"
    path.write_text(text)
    code, out = _run(capsys, "algebra-info", str(path))
    assert code == 4
    assert out["error"]["type"] == "InvalidInput"
    assert out["error"]["message"].startswith(f"line {len(text.splitlines())}: ")  # the relation line


@pytest.mark.parametrize(
    "argv, text, error",
    [
        (["algebra-info", A_REF, "--field", "GF(4)"], None, "UnsupportedField"),
        (["algebra-info"], LOOP + "relation x*x - x*x*x\n", "NotAdmissible"),
        (["algebra-info"], LOOP + "relation 0 x*x\n", "NotFiniteDimensional"),
        (["algebra-info", "catalog:skew?of=zigzag_c2&field=GF(2)"], None, "BadCharacteristic"),
        (["witness-search", "catalog:trunc_poly?k=2", "catalog:kronecker", "--budget", "-1"], None, "InvalidInput"),
        (["witness-search", "catalog:trunc_poly?k=2", "catalog:kronecker", "--max-dim", "-1"], None, "InvalidInput"),
        (["algebra-info", "catalog:A_n?n=2&n=3"], None, "BadParams"),
        (["algebra-info", "catalog:A_n?n=2&field=GF(3)&field=GF(5)"], None, "BadParams"),
        (["algebra-info", "catalog:A_n?n=2&field=GF(3)", "--field", "GF(5)"], None, "BadParams"),
        (["algebra-info", "catalog:trunc_poly?k=--3"], None, "BadParams"),
        (["algebra-info", "catalog:trunc_poly?k=%C2%B2"], None, "BadParams"),
        (["algebra-info", "catalog:trunc_poly?k=\u0663"], None, "BadParams"),
    ],
)
def test_unusable_input_exits_4(capsys, tmp_path, argv, text, error):
    """A field, presentation or catalog build the library cannot take is malformed input, not a failed check."""
    if text is not None:
        path = tmp_path / "p.txt"
        path.write_text(text)
        argv = [*argv, str(path)]
    code, out = _run(capsys, *argv)
    assert code == 4
    assert out["error"]["type"] == error


@pytest.mark.parametrize("value", ["x", "2.5", ""])
def test_non_integer_catalog_parameter_is_named_as_such(capsys, value):
    """A catalog parameter that does not parse as an integer is reported as not an integer, not as out of range."""
    code, out = _run(capsys, "algebra-info", f"catalog:A_n?n={value}")
    assert code == 4
    assert out["error"]["type"] == "BadParams"
    assert out["error"]["message"] == f"A_n: parameter n={value!r} is not an integer"


def test_out_of_range_catalog_parameter_names_its_range(capsys):
    code, out = _run(capsys, "algebra-info", "catalog:A_n?n=51")
    assert code == 4
    assert out["error"]["message"] == "A_n: parameter n=51 outside [1, 50]"
