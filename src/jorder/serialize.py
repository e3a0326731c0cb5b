"""Canonical text and JSON forms for algebras, bimodules and certificates.

All JSON emitted here is canonical: keys sorted, scalars in least-residue or
lowest-terms form, fixed indentation, trailing newline.  Byte-identical
output for identical inputs is part of the contract, so reports and
certificates can be diffed and hashed.

canon_json writes the bytes of json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=True) + "\n" directly, one recursive pass over the document:
dict keys are sorted after str(), strings are quoted by json's own
encode_basestring_ascii, numpy bools and integers are written as JSON
bools and integers, any other scalar goes through json's encoder (floats
included, and its TypeError for what JSON cannot hold), and a list of ints,
every matrix row over GF(p), is written in one join. json.dumps with an
indent cannot use json's C encoder; on the 16 certificate documents of one
verify-gf101 pass (209 kB) it took 13.5 ms with the copy that cleaned numpy
scalars first, and the direct writer takes 5.4 ms. Over GF(p) matrix_out and
vector_out read entries with tolist, as Python ints.

Scalars serialize as plain integers over GF(p) and as strings over the
rationals ("4", "1/3").  Matrices are row-major nested lists.  A scalar
read back must be a JSON integer or string with a value in the field;
anything else is InvalidInput naming its key.

Every reader checks a document's format and that its version is
FORMAT_VERSION, the one this module writes, and a certificate's kind is
j_geq or j_equiv: a document from another version or of an unknown kind is
InvalidInput naming the key, never replayed as if it were this one.

Presentation text has one reader, quivers.parse_presentation, which reads
lines and linear combinations through the lexer there (directive_lines,
signed_terms), and one writer, presentation_text.

Combinations are written by _combination_text: coefficients in least
residue over GF(p), so every term after the first follows ` + `; over Q a
negative coefficient is written as a sign and a magnitude, `x*y - 1/2 y*x`.
"""

import hashlib
import json

import numpy as np

from . import linalg
from .algebras import Algebra
from .errors import InvalidInput
from .fields import field_from_name
from .modules import Module, is_module_map
from .witnesses import JCertificate, JWitnessPair

FORMAT_VERSION = 1
_DIRECTIONS = {"j_geq": "geq", "j_equiv": "equiv"}  # a certificate's kind -> JCertificate.direction


def _doc_value(doc, key, kind=str, required=True):
    """doc[key] if it is a kind (a JSON true is no int), None if absent and not required; else InvalidInput naming the key."""
    if key not in doc and not required:
        return None
    if not isinstance(doc.get(key), kind) or (kind is int and isinstance(doc.get(key), bool)):
        raise InvalidInput(f"document key {key!r} is " + (f"not of type {kind.__name__}" if key in doc else "missing"))
    return doc[key]


def _check_version(doc):
    """InvalidInput naming 'version' unless the document is of FORMAT_VERSION, the one this module reads."""
    if _doc_value(doc, "version", int) != FORMAT_VERSION:
        raise InvalidInput(f"document key 'version' is {doc['version']}; this reader reads version {FORMAT_VERSION}")


def _nested_list(value, shape, key):
    """The leaves of value in row-major order if it is nested lists of exactly this shape, else InvalidInput naming the key."""
    level = [value]
    for n in shape:
        if not all(isinstance(v, list) and len(v) == n for v in level):
            raise InvalidInput(f"document key {key!r} is not a nested list of shape {tuple(shape)}")
        level = [x for v in level for x in v]
    return level


def hash_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_quote = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode  # floats and anything else json knows, or its TypeError


def _write(x, pad, out):
    """Append x as indent-2 JSON to out; pad is the newline and indent of x's own line."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner, sep = pad + "  ", "{"
        for k, v in sorted({str(k): v for k, v in x.items()}.items()):
            out.append(sep + inner + _quote(k) + ": ")
            _write(v, inner, out)
            sep = ","
        out.append(pad + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = pad + "  "
        if all(type(v) is int for v in x):
            out.append("[" + inner + ("," + inner).join(map(str, x)) + pad + "]")
            return
        sep = "["
        for v in x:
            out.append(sep + inner)
            _write(v, inner, out)
            sep = ","
        out.append(pad + "]")
    elif isinstance(x, (bool, np.bool_)):
        out.append("true" if x else "false")
    elif isinstance(x, (int, np.integer)):
        out.append(int.__repr__(int(x)))
    elif x is None:
        out.append("null")
    else:
        out.append(_encode_scalar(x))


def canon_json(doc):
    """Canonical JSON text: sorted keys, two-space indent, newline-terminated (see the header)."""
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


# ---- scalars and matrices ----------------------------------------------------


def scalar_in(field, v, key):
    """A document scalar, an int or a string such as "-2/5"; else InvalidInput naming the key."""
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        try:
            return field.scalar_from_str(str(v))
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInput(f"document key {key!r} holds {v!r}, which is not a scalar of {field}")


def matrix_out(field, mat):
    if field.char:
        return np.atleast_2d(np.asarray(mat, dtype=np.int64)).tolist()
    return [[field.scalar_to_str(x) for x in row] for row in np.atleast_2d(np.asarray(mat))]


def matrix_in(field, value, shape, key):
    """A document array of the given shape, any number of axes; else InvalidInput naming the key."""
    leaves = [scalar_in(field, v, key) for v in _nested_list(value, shape, key)]
    return field.canon(np.array(leaves, dtype=object if field.char == 0 else None).reshape(shape))


def vector_out(field, vec):
    if field.char:
        return np.asarray(vec, dtype=np.int64).tolist()
    return [field.scalar_to_str(x) for x in np.asarray(vec)]


# ---- algebras ---------------------------------------------------------------


def _combination_text(field, terms):
    """Writer of a signed combination of (coefficient, body) terms."""
    parts = []
    for k, (coeff, body) in enumerate(terms):
        neg = field.char == 0 and coeff < 0
        magnitude = field.scalar_to_str(-coeff if neg else coeff)
        sign = ("-" if neg else "") if k == 0 else ("- " if neg else "+ ")
        parts.append(sign + (body if magnitude == "1" else f"{magnitude} {body}"))
    return " ".join(parts)


def presentation_text(algebra):
    """Reconstruct the quiver presentation text of a quiver-built algebra."""
    prov = algebra.provenance
    if prov is None or prov.kind != "quiver":
        raise InvalidInput(f"algebra {algebra.label!r} carries no quiver presentation")
    pres = prov.data["presentation"]
    quiver, field = pres.quiver, algebra.field
    lines = [f"field {field}"]
    lines += [f"vertex {v}" for v in quiver.vertices]
    lines += [f"arrow {a.label}: {a.source} -> {a.target}" for a in quiver.arrows]
    lines += [
        "relation " + _combination_text(field, [(c, path.label(quiver)) for c, path in rel])
        for rel in pres.relations
    ]
    return "\n".join(lines) + "\n"


def algebra_doc(algebra):
    """Structure-constants JSON document; complete but forgets provenance."""
    field = algebra.field
    if len(set(algebra.labels)) != len(algebra.labels):
        raise InvalidInput("algebra has duplicate basis labels; cannot serialize by label")
    doc = {
        "format": "algebra",
        "version": FORMAT_VERSION,
        "field": str(field),
        "dim": int(algebra.dim),
        "labels": list(algebra.labels),
        "unit": vector_out(field, algebra.unit),
        "table": [
            [vector_out(field, algebra.table[i, j]) for j in range(algebra.dim)]
            for i in range(algebra.dim)
        ],
        "label": algebra.label,
    }
    if algebra.idempotents is not None:
        doc["idempotents"] = [vector_out(field, e) for e in algebra.idempotents]
        doc["idempotents_primitive"] = bool(algebra.idempotents_primitive)
    return doc


def algebra_from_doc(doc):
    if doc.get("format") != "algebra":
        raise InvalidInput("not an algebra document")
    _check_version(doc)
    field = field_from_name(_doc_value(doc, "field"))
    dim = _doc_value(doc, "dim", int)
    table = matrix_in(field, _doc_value(doc, "table", list), (dim, dim, dim), "table")
    idems = None
    primitive = False
    if "idempotents" in doc:
        idems = [matrix_in(field, e, (dim,), "idempotents") for e in _doc_value(doc, "idempotents", list)]
        primitive = bool(doc.get("idempotents_primitive", False))
    return Algebra(
        field,
        table,
        matrix_in(field, _doc_value(doc, "unit", list), (dim,), "unit"),
        list(_doc_value(doc, "labels", list)),
        idempotents=idems,
        idempotents_primitive=primitive,
        label=doc.get("label", "algebra"),
    )


# ---- bimodules ---------------------------------------------------------------


def bimodule_doc(m, left_ref="", right_ref=""):
    """Interchange document: qualified basis labels map to row-major matrices."""
    if m.left_mats is None or m.right_mats is None:
        raise InvalidInput("the interchange format carries two-sided modules only")
    field = m.field
    action = {}
    for side, algebra, mats in (
        ("left", m.left_algebra, m.left_mats),
        ("right", m.right_algebra, m.right_mats),
    ):
        if len(set(algebra.labels)) != len(algebra.labels):
            raise InvalidInput(f"{side} algebra has duplicate labels; cannot key actions by label")
        for i, lab in enumerate(algebra.labels):
            action[f"{side}:{lab}"] = matrix_out(field, mats[i])
    return {
        "format": "bimodule",
        "version": FORMAT_VERSION,
        "left_algebra_ref": left_ref,
        "right_algebra_ref": right_ref,
        "field": str(field),
        "dim": int(m.dim),
        "label": m.label,
        "action": action,
    }


def bimodule_from_doc(doc, left_algebra, right_algebra):
    if doc.get("format") != "bimodule":
        raise InvalidInput("not a bimodule document")
    _check_version(doc)
    field = left_algebra.field
    if str(field) != _doc_value(doc, "field"):
        raise InvalidInput(f"document field {doc['field']} != algebra field {field}")
    dim = _doc_value(doc, "dim", int)
    action = _doc_value(doc, "action", dict)

    def side_mats(side, algebra):
        mats = field.zeros((algebra.dim, dim, dim))
        for i, lab in enumerate(algebra.labels):
            key = f"{side}:{lab}"
            if key not in action:
                raise InvalidInput(f"bimodule document is missing the action of {key}")
            mats[i] = matrix_in(field, action[key], (dim, dim), key)
        return mats

    return Module(
        left_algebra,
        right_algebra,
        side_mats("left", left_algebra),
        side_mats("right", right_algebra),
        doc.get("label", "bimodule"),
    )


# ---- certificates ------------------------------------------------------------


def witness_doc(w, a_ref="", b_ref=""):
    """A witness pair as a document: the bimodules, with or without refs."""
    doc = {
        "format": "witness",
        "version": FORMAT_VERSION,
        "field": str(w.a.field),
        "a_ref": a_ref,
        "b_ref": b_ref,
        "a_label": w.a.label,
        "b_label": w.b.label,
        "m": bimodule_doc(w.m, left_ref=a_ref, right_ref=b_ref),
        "n": bimodule_doc(w.n, left_ref=b_ref, right_ref=a_ref),
        "seed": int(w.seed),
    }
    if not a_ref:
        doc["a"] = algebra_doc(w.a)
    if not b_ref:
        doc["b"] = algebra_doc(w.b)
    return doc


def _algebra_pair_from_doc(doc, resolver, what):
    def algebra_of(ref_key, doc_key):
        ref = _doc_value(doc, ref_key, required=False)
        if ref:
            if resolver is None:
                raise InvalidInput(f"{what} references {ref!r} but no resolver was given")
            return resolver(ref)
        if doc_key not in doc:
            raise InvalidInput(f"{what} carries neither {ref_key} nor an embedded algebra")
        return algebra_from_doc(_doc_value(doc, doc_key, dict))

    a = algebra_of("a_ref", "a")
    b = algebra_of("b_ref", "b")
    if str(a.field) != _doc_value(doc, "field"):
        raise InvalidInput(f"{what} field {doc['field']} != algebra field {a.field}")
    return a, b


def _witness_from_doc(doc, resolver, what):
    a, b = _algebra_pair_from_doc(doc, resolver, what)
    m = bimodule_from_doc(_doc_value(doc, "m", dict), a, b)
    n = bimodule_from_doc(_doc_value(doc, "n", dict), b, a)
    return JWitnessPair(a, b, m, n, seed=_doc_value(doc, "seed", int, required=False) or 0)


def witness_from_doc(doc, resolver=None):
    """Rebuild a witness pair from its document."""
    if doc.get("format") != "witness":
        raise InvalidInput("not a witness document")
    _check_version(doc)
    return _witness_from_doc(doc, resolver, "witness")


def certificate_doc(cert, a_ref="", b_ref="", witness_ref=""):
    """Self-contained, replayable record of a verified split certificate: its witness document, extended."""
    field = cert.witness.a.field
    doc = witness_doc(cert.witness, a_ref, b_ref)
    doc.update(
        format="certificate",
        kind="j_geq" if cert.direction == "geq" else "j_equiv",
        witness_ref=witness_ref,
        tensor_dim=int(cert.tensor_dim),
        section=matrix_out(field, cert.section),
        retraction=matrix_out(field, cert.retraction),
        quality_flags=dict(cert.quality_flags) if cert.quality_flags else None,
        decomposition_ref=cert.decomposition_ref,
    )
    return doc


def certificate_from_doc(doc, resolver=None):
    """Rebuild the witness and certificate; verification is the caller's job."""
    if doc.get("format") != "certificate":
        raise InvalidInput("not a certificate document")
    _check_version(doc)
    kind = _doc_value(doc, "kind")
    if kind not in _DIRECTIONS:
        raise InvalidInput(f"document key 'kind' is {kind!r}, not one of {', '.join(_DIRECTIONS)}")
    w = _witness_from_doc(doc, resolver, "certificate")
    a, field = w.a, w.a.field
    tensor_dim = _doc_value(doc, "tensor_dim", int)
    return JCertificate(
        direction=_DIRECTIONS[kind],
        witness=w,
        tensor_dim=tensor_dim,
        section=matrix_in(field, _doc_value(doc, "section", list), (tensor_dim, a.dim), "section"),
        retraction=matrix_in(field, _doc_value(doc, "retraction", list), (a.dim, tensor_dim), "retraction"),
        decomposition_ref=doc.get("decomposition_ref"),
        quality_flags=doc.get("quality_flags"),
    )


# ---- decompositions ----------------------------------------------------------


def decomposition_doc(dec):
    """Idempotent matrices plus summand descriptors, replayable by multiplication."""
    module = dec.module
    field = module.field
    summands = []
    for s in dec.summands:
        idem = field.matmul(s.inclusion, s.projection)
        summands.append({"dim": int(s.module.dim), "idempotent": matrix_out(field, idem)})
    return {
        "format": "decomposition",
        "version": FORMAT_VERSION,
        "field": str(field),
        "module_dim": int(module.dim),
        "classes": [[int(d), int(mult)] for d, mult in dec.class_summary()],
        "summands": summands,
    }


def verify_decomposition_doc(module, doc):
    """Replay a decomposition document against a module: multiplications only.

    A missing or ill-typed value the replay reads, or a version other than
    FORMAT_VERSION, is InvalidInput naming its key.
    """
    field = module.field
    if doc.get("format") != "decomposition":
        return False
    _check_version(doc)
    if _doc_value(doc, "module_dim", int) != module.dim:
        return False
    dims, idems = [], []
    for s in _doc_value(doc, "summands", list):
        if not isinstance(s, dict):
            raise InvalidInput("document key 'summands' holds an entry that is not an object")
        dims.append(_doc_value(s, "dim", int))
        idems.append(matrix_in(field, _doc_value(s, "idempotent", list), (module.dim, module.dim), "idempotent"))
    total = field.zeros((module.dim, module.dim))
    for dim, e in zip(dims, idems):
        if not field.eq(field.matmul(e, e), e):
            return False
        if linalg.rank(field, e) != dim:
            return False
        if not is_module_map(e, module, module):
            return False
        total = field.add(total, e)
    for i, e in enumerate(idems):
        for ee in idems[i + 1:]:
            if not field.is_zero(field.matmul(e, ee)) or not field.is_zero(field.matmul(ee, e)):
                return False
    return bool(field.eq(total, field.eye(module.dim)))
