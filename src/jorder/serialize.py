"""Canonical text and JSON forms for algebras, bimodules, actions, and certificates.

All JSON emitted here is canonical: keys sorted, scalars in least-residue or
lowest-terms form, fixed indentation, trailing newline.  Byte-identical
output for identical inputs is part of the contract, so reports and
certificates can be diffed and hashed.

Scalars serialize as plain integers over GF(p) and as strings over the
rationals ("4", "1/3").  Matrices are row-major nested lists.
"""

import hashlib
import json
import re

import numpy as np

from .algebras import Algebra
from .errors import InvalidInput
from .fields import field_from_name
from .groups import AlgebraAction, FiniteGroup
from .modules import Module
from .witnesses import JCertificate, JWitnessPair

FORMAT_VERSION = 1


def hash_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canon_json(doc):
    """Canonical JSON text: sorted keys, two-space indent, newline-terminated."""
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# ---- scalars and matrices ----------------------------------------------------


def scalar_out(field, x):
    if field.char:
        return int(x)
    return field.scalar_to_str(x)


def scalar_in(field, v):
    return field.scalar_from_str(str(v))


def matrix_out(field, mat):
    mat = np.atleast_2d(np.asarray(mat))
    return [[scalar_out(field, x) for x in row] for row in mat]


def matrix_in(field, rows, shape=None):
    if shape is not None and (len(rows), len(rows[0]) if rows else 0) != tuple(shape):
        raise InvalidInput(f"matrix has shape {(len(rows), len(rows[0]) if rows else 0)}, expected {tuple(shape)}")
    data = np.array(
        [[scalar_in(field, v) for v in row] for row in rows],
        dtype=object if field.char == 0 else None,
    )
    return field.canon(data)


def vector_out(field, vec):
    return [scalar_out(field, x) for x in np.asarray(vec)]


def vector_in(field, values):
    data = np.array([scalar_in(field, v) for v in values], dtype=object if field.char == 0 else None)
    return field.canon(data)


# ---- algebras ---------------------------------------------------------------


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
    for rel in pres.relations:
        terms = []
        for coeff, path in rel:
            path_txt = "*".join(quiver.arrows[i].label for i in path.arrows)
            coeff_txt = field.scalar_to_str(coeff)
            terms.append(path_txt if coeff_txt == "1" else f"{coeff_txt} {path_txt}")
        lines.append("relation " + " + ".join(terms))
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
    field = field_from_name(doc["field"])
    dim = int(doc["dim"])
    table = field.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            table[i, j] = vector_in(field, doc["table"][i][j])
    idems = None
    primitive = False
    if "idempotents" in doc:
        idems = [vector_in(field, e) for e in doc["idempotents"]]
        primitive = bool(doc.get("idempotents_primitive", False))
    return Algebra(
        field,
        table,
        vector_in(field, doc["unit"]),
        list(doc["labels"]),
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
    field = left_algebra.field
    if str(field) != doc["field"]:
        raise InvalidInput(f"document field {doc['field']} != algebra field {field}")
    dim = int(doc["dim"])
    action = doc["action"]

    def side_mats(side, algebra):
        mats = field.zeros((algebra.dim, dim, dim))
        for i, lab in enumerate(algebra.labels):
            key = f"{side}:{lab}"
            if key not in action:
                raise InvalidInput(f"bimodule document is missing the action of {key}")
            mats[i] = matrix_in(field, action[key], shape=(dim, dim))
        return mats

    return Module(
        left_algebra,
        right_algebra,
        side_mats("left", left_algebra),
        side_mats("right", right_algebra),
        doc.get("label", "bimodule"),
    )


# ---- group actions -----------------------------------------------------------

_ARROW_RE = re.compile(r"^(\S+)\s*:\s*(.+)$")


def _parse_combination(algebra, text, lineno):
    field = algebra.field
    order = {lab: i for i, lab in enumerate(algebra.labels)}
    vec = field.zeros((algebra.dim,))
    for chunk in re.findall(r"[+-]?[^+-]+", text):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:].strip()
        m = re.match(r"^(?:(\d+(?:/\d+)?)\s*\*?\s+)?(\S+)$", chunk)
        if not m:
            raise InvalidInput(f"line {lineno}: cannot parse term {chunk!r}")
        coeff_txt, lab = m.group(1), m.group(2)
        if lab not in order:
            raise InvalidInput(f"line {lineno}: unknown basis label {lab!r}")
        coeff = field.scalar_from_str(coeff_txt) if coeff_txt else field.one
        if sign < 0:
            coeff = field.scalar(-coeff)
        vec[order[lab]] = field.scalar(vec[order[lab]] + coeff)
    return field.canon(vec)


def parse_action_text(text, resolver, order_cap=64):
    """Action file: an `algebra <ref>` line, then `auto g: b_i -> <combination>` lines.

    Lines sharing a generator name accumulate into one map; basis vectors
    without a stated image are fixed.  The group is the closure of the
    generators under composition, capped at order_cap.
    """
    algebra = None
    algebra_ref = None
    gen_order = []
    images = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "algebra":
            if algebra is not None:
                raise InvalidInput(f"line {lineno}: repeated algebra line")
            algebra_ref = rest
            algebra = resolver(rest)
        elif keyword == "auto":
            if algebra is None:
                raise InvalidInput(f"line {lineno}: auto before algebra")
            m = _ARROW_RE.match(rest)
            if not m:
                raise InvalidInput(f"line {lineno}: expected `auto g: b_i -> <combination>`")
            name, mapping = m.group(1), m.group(2)
            src_txt, arrow, dst_txt = mapping.partition("->")
            if not arrow:
                raise InvalidInput(f"line {lineno}: expected `auto g: b_i -> <combination>`")
            src = src_txt.strip()
            order = {lab: i for i, lab in enumerate(algebra.labels)}
            if src not in order:
                raise InvalidInput(f"line {lineno}: unknown basis label {src!r}")
            if name not in images:
                gen_order.append(name)
                images[name] = {}
            if src in images[name]:
                raise InvalidInput(f"line {lineno}: repeated image for {src!r} under {name!r}")
            images[name][src] = _parse_combination(algebra, dst_txt.strip(), lineno)
        else:
            raise InvalidInput(f"line {lineno}: unknown keyword {keyword!r}")
    if algebra is None:
        raise InvalidInput("missing `algebra` line")
    if not gen_order:
        raise InvalidInput("no `auto` lines: need at least one generator")

    field = algebra.field
    gens = []
    for name in gen_order:
        mat = field.eye(algebra.dim)
        order = {lab: i for i, lab in enumerate(algebra.labels)}
        for src, vec in images[name].items():
            mat[:, order[src]] = vec
        gens.append(field.canon(mat))

    def key_of(mat):
        return tuple(scalar_out(field, x) for x in np.asarray(mat).flat)

    # close under multiplication; element 0 is the identity
    elements = [field.eye(algebra.dim)]
    keys = {key_of(elements[0]): 0}
    for g in gens:
        if key_of(g) not in keys:
            keys[key_of(g)] = len(elements)
            elements.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(elements)):
            for g in gens:
                prod = field.canon(field.matmul(elements[i], g))
                key = key_of(prod)
                if key not in keys:
                    if len(elements) >= order_cap:
                        raise InvalidInput(
                            f"generator closure exceeds the order cap {order_cap}"
                        )
                    keys[key] = len(elements)
                    elements.append(prod)
                    changed = True
    n = len(elements)
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            prod = field.canon(field.matmul(elements[i], elements[j]))
            table[i, j] = keys[key_of(prod)]
    group = FiniteGroup(table, label=f"closure({', '.join(gen_order)})")
    action = AlgebraAction(group, algebra, elements)
    action.source_ref = algebra_ref
    return action


def action_text(action, algebra_ref):
    """Writer for the action file format: non-identity images of the generators.

    Emits every group element as a generator line set; the closure reader
    reconstructs the same group.
    """
    algebra, field = action.algebra, action.algebra.field
    lines = [f"algebra {algebra_ref}"]
    eye = field.eye(algebra.dim)
    for g in range(action.group.order):
        if g == action.group.identity_index:
            continue
        mat = action.matrices[g]
        name = f"g{g}"
        for i, lab in enumerate(algebra.labels):
            if field.eq(mat[:, i], eye[:, i]):
                continue
            terms = []
            for j, coeff in enumerate(mat[:, i]):
                if field.is_zero(coeff):
                    continue
                coeff_txt = field.scalar_to_str(coeff)
                target = algebra.labels[j]
                terms.append(target if coeff_txt == "1" else f"{coeff_txt} {target}")
            lines.append(f"auto {name}: {lab} -> {' + '.join(terms)}")
    return "\n".join(lines) + "\n"


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
        ref = doc.get(ref_key)
        if ref:
            if resolver is None:
                raise InvalidInput(f"{what} references {ref!r} but no resolver was given")
            return resolver(ref)
        if doc_key not in doc:
            raise InvalidInput(f"{what} carries neither {ref_key} nor an embedded algebra")
        return algebra_from_doc(doc[doc_key])

    a = algebra_of("a_ref", "a")
    b = algebra_of("b_ref", "b")
    if str(a.field) != doc["field"]:
        raise InvalidInput(f"{what} field {doc['field']} != algebra field {a.field}")
    return a, b


def witness_from_doc(doc, resolver=None):
    """Rebuild a witness pair from its document."""
    if doc.get("format") != "witness":
        raise InvalidInput("not a witness document")
    a, b = _algebra_pair_from_doc(doc, resolver, "witness")
    m = bimodule_from_doc(doc["m"], a, b)
    n = bimodule_from_doc(doc["n"], b, a)
    return JWitnessPair(a, b, m, n, seed=int(doc.get("seed", 0)))


def certificate_doc(cert, a_ref="", b_ref="", witness_ref=""):
    """Self-contained, replayable record of a verified split certificate."""
    w = cert.witness
    field = w.a.field
    doc = {
        "format": "certificate",
        "version": FORMAT_VERSION,
        "kind": "j_geq" if cert.direction == "geq" else "j_equiv",
        "field": str(field),
        "a_ref": a_ref,
        "b_ref": b_ref,
        "witness_ref": witness_ref,
        "a_label": w.a.label,
        "b_label": w.b.label,
        "m": bimodule_doc(w.m, left_ref=a_ref, right_ref=b_ref),
        "n": bimodule_doc(w.n, left_ref=b_ref, right_ref=a_ref),
        "tensor_dim": int(cert.tensor_dim),
        "section": matrix_out(field, cert.section),
        "retraction": matrix_out(field, cert.retraction),
        "seed": int(w.seed),
        "quality_flags": dict(cert.quality_flags) if cert.quality_flags else None,
        "decomposition_ref": cert.decomposition_ref,
    }
    if not a_ref:
        doc["a"] = algebra_doc(w.a)
    if not b_ref:
        doc["b"] = algebra_doc(w.b)
    return doc


def certificate_from_doc(doc, resolver=None):
    """Rebuild the witness and certificate; verification is the caller's job."""
    if doc.get("format") != "certificate":
        raise InvalidInput("not a certificate document")
    a, b = _algebra_pair_from_doc(doc, resolver, "certificate")
    field = a.field
    m = bimodule_from_doc(doc["m"], a, b)
    n = bimodule_from_doc(doc["n"], b, a)
    w = JWitnessPair(a, b, m, n, seed=int(doc.get("seed", 0)))
    tensor_dim = int(doc["tensor_dim"])
    return JCertificate(
        direction="geq" if doc["kind"] == "j_geq" else "equiv",
        witness=w,
        tensor_dim=tensor_dim,
        section=matrix_in(field, doc["section"], shape=(tensor_dim, a.dim)),
        retraction=matrix_in(field, doc["retraction"], shape=(a.dim, tensor_dim)),
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
    """Replay a decomposition document against a module: multiplications only."""
    from . import linalg

    field = module.field
    if doc.get("format") != "decomposition" or int(doc["module_dim"]) != module.dim:
        return False
    idems = [matrix_in(field, s["idempotent"], shape=(module.dim, module.dim)) for s in doc["summands"]]
    total = field.zeros((module.dim, module.dim))
    mats = []
    if module.left_mats is not None:
        mats += [module.left_action(g) for g in module.left_algebra.generators]
    if module.right_mats is not None:
        mats += [module.right_action(g) for g in module.right_algebra.generators]
    for s, e in zip(doc["summands"], idems):
        if not field.eq(field.matmul(e, e), e):
            return False
        if linalg.rank(field, e) != int(s["dim"]):
            return False
        for mat in mats:
            if not field.eq(field.matmul(mat, e), field.matmul(e, mat)):
                return False
        total = field.add(total, e)
    for i, e in enumerate(idems):
        for ee in idems[i + 1:]:
            if not field.is_zero(field.matmul(e, ee)) or not field.is_zero(field.matmul(ee, e)):
                return False
    return bool(field.eq(total, field.eye(module.dim)))
