"""The one lexer, reader and writer per text format against the code they replaced.

The oracles below are the replaced code, kept verbatim: the relation parser,
the presentation writer, and the comma-clause action reader with its
combination parser and closure. Every input an oracle accepts must give the
same coefficients, paths, matrices and group from the survivors. The only
inputs on which they differ are the malformed combinations in MALFORMED,
which the old relation parser misreads and the lexer rejects, and the
one-clause-per-line files of action_text, which the old action reader
refuses and the survivor reads.

The corpus is every presentation text in test_quivers.py and test_groups.py,
the action files of test_groups.py, and action_text of the catalog actions.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from jorder import catalog, quivers, serialize
from jorder.algebras import algebra_from_quiver
from jorder.catalog import SELF_TEST_GRID
from jorder.errors import InvalidInput, NotFiniteDimensional
from jorder.fields import QQ
from jorder.groups import _ORDER_CAP, AlgebraAction, FiniteGroup
from jorder.quivers import parse_presentation, path_from_arrow_labels
from jorder.witnesses import JWitnessPair

from test_groups import DUAL, ZIGZAG, qa, truncated_cycle_text

HERE = Path(__file__).resolve().parent


# ---- oracles: the replaced relation parser and presentation writer --------------


def _parse_relation(quiver, field, text, lineno):
    # split into signed terms; each term: optional coefficient, then a path
    chunks = re.findall(r"[+-]?[^+-]+", text)
    terms = []
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:].strip()
        m = re.match(r"^(?:(\d+(?:/\d+)?)\s*\*?\s+)?(.+)$", chunk)
        coeff_txt, path_txt = m.group(1), m.group(2).strip()
        coeff = field.scalar_from_str(coeff_txt) if coeff_txt else field.one
        if sign < 0:
            coeff = field.scalar(-coeff)
        labels = [t.strip() for t in path_txt.split("*") if t.strip()]
        if not labels:
            raise InvalidInput(f"line {lineno}: empty path in relation")
        terms.append((coeff, path_from_arrow_labels(quiver, labels)))
    if not terms:
        raise InvalidInput(f"line {lineno}: empty relation")
    return terms


def emit_presentation(field, pres):
    lines = [f"field {field.name}"]
    for v in pres.quiver.vertices:
        lines.append(f"vertex {v}")
    for a in pres.quiver.arrows:
        lines.append(f"arrow {a.label}: {a.source} -> {a.target}")
    for rel in pres.relations:
        parts = []
        for k, (coeff, path) in enumerate(rel):
            txt = path.label(pres.quiver)
            c = field.scalar(coeff)
            neg = False
            if hasattr(field, "p"):
                if 2 * int(c) > field.p:  # print small negatives readably
                    c, neg = field.scalar(-c), True
            else:
                if c < 0:
                    c, neg = -c, True
            coeff_txt = "" if c == field.one else f"{field.scalar_to_str(c)} "
            if k == 0:
                parts.append(("-" if neg else "") + coeff_txt + txt)
            else:
                parts.append(("- " if neg else "+ ") + coeff_txt + txt)
        lines.append("relation " + " ".join(parts))
    return "\n".join(lines) + "\n"


# ---- oracle: the replaced comma-clause action reader ------------------------------

_CLAUSE = re.compile(r"^\s*(\S+)\s*->\s*(.+?)\s*$")
_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\s*\*?\s+)?(\S+)$")


def _parse_combo(field, labels, text, where):
    """Signed linear combination of basis labels, as a coordinate vector."""
    vec = field.zeros(len(labels))
    chunks = re.findall(r"[+-]?[^+-]+", text.strip())
    if not chunks:
        raise InvalidInput(f"{where}: empty combination")
    for chunk in chunks:
        chunk = chunk.strip()
        sign = field.one
        if chunk.startswith("-"):
            sign = field.scalar(-1)
            chunk = chunk[1:].strip()
        elif chunk.startswith("+"):
            chunk = chunk[1:].strip()
        m = _TERM.match(chunk)
        if not m:
            raise InvalidInput(f"{where}: cannot parse term {chunk!r}")
        coeff = field.scalar_from_str(m.group(1)) if m.group(1) else field.one
        label = m.group(2)
        if label not in labels:
            raise InvalidInput(f"{where}: unknown basis label {label!r}")
        idx = labels.index(label)
        vec[idx] = field.scalar(vec[idx] + sign * coeff)
    return field.canon(vec)


def parse_action(text, algebra, order_cap=_ORDER_CAP):
    """Action file -> AlgebraAction, closing the generators into a group.

    Format: an `algebra <ref>` line, then one `auto <name>: l -> combo, ...`
    line per generator; basis labels not mentioned map to themselves. The
    generated matrix group is closed by breadth-first products up to the cap.
    """
    field = algebra.field
    gens = []
    saw_ref = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("algebra "):
            if saw_ref:
                raise InvalidInput(f"{where}: duplicate algebra line")
            saw_ref = True
            continue
        if not line.startswith("auto "):
            raise InvalidInput(f"{where}: expected an `auto` line")
        body = line[len("auto "):]
        if ":" not in body:
            raise InvalidInput(f"{where}: missing `:` after the generator name")
        name, rest = body.split(":", 1)
        name = name.strip()
        if not name:
            raise InvalidInput(f"{where}: empty generator name")
        mat = field.eye(algebra.dim)
        seen = set()
        for clause in rest.split(","):
            m = _CLAUSE.match(clause)
            if not m:
                raise InvalidInput(f"{where}: cannot parse clause {clause.strip()!r}")
            label = m.group(1)
            if label not in algebra.labels:
                raise InvalidInput(f"{where}: unknown basis label {label!r}")
            if label in seen:
                raise InvalidInput(f"{where}: duplicate image for {label!r}")
            seen.add(label)
            mat[:, algebra.labels.index(label)] = _parse_combo(
                field, algebra.labels, m.group(2), where
            )
        gens.append((name, field.canon(mat)))
    if not saw_ref:
        raise InvalidInput("action file has no `algebra` line")
    if not gens:
        raise InvalidInput("action file defines no generators")

    def key(m):
        return tuple(field.scalar_to_str(x) for x in np.asarray(m).reshape(-1))

    identity = field.eye(algebra.dim)
    elements = [identity]
    index = {key(identity): 0}
    labels = ["e"]
    frontier = [0]
    while frontier:
        nxt = []
        for pos in frontier:
            for name, gmat in gens:
                prod = field.canon(field.matmul(elements[pos], gmat))
                k = key(prod)
                if k not in index:
                    if len(elements) >= order_cap:
                        raise InvalidInput(
                            f"generated group exceeds the order cap {order_cap}"
                        )
                    index[k] = len(elements)
                    word = name if pos == 0 else f"{labels[pos]}*{name}"
                    labels.append(word)
                    elements.append(prod)
                    nxt.append(index[k])
        frontier = nxt
    n = len(elements)
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            prod = field.canon(field.matmul(elements[i], elements[j]))
            k = key(prod)
            if k not in index:
                raise InvalidInput("generated set is not closed; cap too small?")
            table[i, j] = index[k]
    names = ",".join(name for name, _ in gens)
    group = FiniteGroup(table, labels, label=f"<{names}>")
    return AlgebraAction(group, algebra, elements)


# ---- corpus ----------------------------------------------------------------------


def _harvested_presentations():
    """Every string constant of the two test files that reads as a presentation."""
    texts = []
    for name in ("test_quivers.py", "test_groups.py"):
        tree = ast.parse((HERE / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\n" in node.value:
                if any(line.split(" ", 1)[0] in ("field", "vertex", "relation") for line in node.value.splitlines()):
                    texts.append(node.value)
    return texts


def presentation_corpus():
    texts = []
    for text in _harvested_presentations():
        texts += [text.format(f=f) for f in ("GF(2)", "GF(7)", "GF(101)", "Q")] if "{f}" in text else [text]
    texts += [truncated_cycle_text(f, n, k) for f in ("GF(7)", "Q") for n, k in ((2, 2), (3, 2), (2, 3))]
    return texts


PRESENTATIONS = presentation_corpus()

SQUARE = "field {f}\nvertex 1 2 3 4\narrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
LOOP = "field {f}\nvertex 1\narrow x: 1 -> 1\n"

# malformed combinations: the old parser raised AttributeError on the first and
# read the others as `x*x*x` and `a*b - c*d`
MALFORMED = [
    SQUARE + "relation a*b + -c*d\n",
    LOOP + "relation x*x*x -\n",
    SQUARE + "relation a*b +-c*d\n",
]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # the differential compares the exception types
        return None, type(exc)


def _parse_with_old_relations(text, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(quivers, "_parse_relation", _parse_relation)
        return _outcome(parse_presentation, text)


def _same_presentation(got, want):
    (f1, p1), (f2, p2) = got, want
    assert f1 == f2
    assert p1.quiver.vertices == p2.quiver.vertices and p1.quiver.arrows == p2.quiver.arrows
    assert [[(type(c), c, p) for c, p in rel] for rel in p1.relations] == [
        [(type(c), c, p) for c, p in rel] for rel in p2.relations
    ]


@pytest.mark.parametrize(
    "text, coeffs",
    [
        ("x*y", [1]),
        ("-x*y + y*x", [6, 1]),
        ("+ 2 x*y - 3 * y*x", [2, 4]),
        ("2*x*y -1/2*y*x", [2, 3]),
        ("  1/3  x * y+y*x  ", [5, 1]),
    ],
)
def test_signed_term_grammar(text, coeffs):
    field, pres = parse_presentation(LOOP.format(f="GF(7)") + "arrow y: 1 -> 1\nrelation " + text + "\n")
    assert [c for c, _ in pres.relations[0]] == coeffs
    assert [p.label(pres.quiver) for _, p in pres.relations[0]] == ["x*y", "y*x"][: len(coeffs)]


def test_corpus_is_not_empty():
    assert len(PRESENTATIONS) >= 20
    assert any("1/2" in t for t in PRESENTATIONS) and any("- c*d" in t for t in PRESENTATIONS)


@pytest.mark.parametrize("text", PRESENTATIONS)
def test_relations_match_the_old_parser(text, monkeypatch):
    old, old_exc = _parse_with_old_relations(text, monkeypatch)
    new, new_exc = _outcome(parse_presentation, text)
    assert new_exc == old_exc
    if old_exc is None:
        _same_presentation(new, old)


@pytest.mark.parametrize("template", MALFORMED)
@pytest.mark.parametrize("f", ["GF(7)", "Q"])
def test_malformed_combinations_are_the_only_difference(template, f, monkeypatch):
    text = template.format(f=f)
    _, old_exc = _parse_with_old_relations(text, monkeypatch)
    assert old_exc in (None, AttributeError)
    with pytest.raises(InvalidInput, match=r"^line \d+: missing term"):
        parse_presentation(text)


def _quiver_algebras():
    """(text, algebra) for the finite-dimensional corpus presentations and the catalog grid."""
    out = []
    for text in PRESENTATIONS:
        parsed, exc = _outcome(parse_presentation, text)
        if exc is None:
            try:
                out.append(algebra_from_quiver(parsed[1], parsed[0]))
            except NotFiniteDimensional:
                pass
    for field in ("GF(101)", "Q"):
        for entry, params in SELF_TEST_GRID:
            obj = catalog.build(entry, field=field, **params)
            algebras = [obj.a, obj.b] if isinstance(obj, JWitnessPair) else [getattr(obj, "algebra", obj)]
            out += [a for a in algebras if a.provenance is not None and a.provenance.kind == "quiver"]
    return out


def test_writer_reads_back_like_the_old_writer():
    algebras = _quiver_algebras()
    assert any(a.field == QQ for a in algebras) and any(
        any(c != a.field.one for rel in a.provenance.data["presentation"].relations for c, _ in rel)
        for a in algebras
    )
    for alg in algebras:
        field, pres = alg.field, alg.provenance.data["presentation"]
        text, old_text = serialize.presentation_text(alg), emit_presentation(field, pres)
        _same_presentation(parse_presentation(text), (field, pres))
        _same_presentation(parse_presentation(old_text), (field, pres))
        if field == QQ:
            assert text == old_text  # the conventions differ only in GF(p) residues


# ---- action files ------------------------------------------------------------------


def _action_corpus():
    """(algebra, text, order cap) for the action files of test_groups.py."""
    zig, dual = qa(ZIGZAG.format(f="GF(7)")), qa(DUAL.format(f="GF(7)"))
    lam22, lam32 = qa(truncated_cycle_text("GF(7)", 2, 2)), qa(truncated_cycle_text("GF(7)", 3, 2))
    rot = "auto r: e_1 -> e_2, e_2 -> e_3, e_3 -> e_1, a1 -> a2, a2 -> a3, a3 -> a1\n"
    swap = "auto r: e_1 -> e_2, e_2 -> e_1, a1 -> a2, a2 -> a1\n"
    return [
        (lam32, "# rotation\nalgebra catalog:lambda(3,2)\n" + rot, _ORDER_CAP),
        (lam32, "auto r: e_1 -> e_2\n", _ORDER_CAP),
        (zig, "algebra zigzag\nauto c: e_1 -> e_2, e_2 -> e_1, a -> b, b -> a\n", _ORDER_CAP),
        (dual, "algebra dual\nauto c: x -> -x\n", _ORDER_CAP),
        (dual, "algebra dual\nauto c: x -> 3 x\n", _ORDER_CAP),
        (lam22, "algebra lam22\n" + swap + "auto s: a1 -> -a1, a2 -> -a2\n", _ORDER_CAP),
        (lam22, "algebra lam22\n" + swap + "auto s: a1 -> -a1, a2 -> a2\n", _ORDER_CAP),
        (dual, "auto c: x -> -x\n", _ORDER_CAP),
        (dual, "algebra d\nauto c: y -> x\n", _ORDER_CAP),
        (dual, "algebra d\nauto c: x -> -x, x -> x\n", _ORDER_CAP),
        (dual, "algebra d\n", _ORDER_CAP),
        (qa(DUAL.format(f="QQ")), "algebra d\nauto c: x -> 2 x\n", 8),
    ]


def _same_action(got, want):
    field = want.algebra.field
    assert got.algebra is want.algebra
    assert (got.group.order, got.group.labels, got.group.label) == (
        want.group.order, want.group.labels, want.group.label
    )
    assert (got.group.multiplication_table == want.group.multiplication_table).all()
    assert got.matrices.dtype == want.matrices.dtype and field.eq(got.matrices, want.matrices)


@pytest.mark.parametrize("case", range(len(_action_corpus())))
def test_action_files_match_the_old_reader(case):
    algebra, text, cap = _action_corpus()[case]
    old, old_exc = _outcome(parse_action, text, algebra, order_cap=cap)
    new, new_exc = _outcome(serialize.parse_action_text, text, lambda ref: algebra, order_cap=cap)
    assert new_exc == old_exc
    if old_exc is None:
        _same_action(new, old)


def _joined(text):
    """The same action file with each generator's clauses on one line."""
    lines, clauses = [], {}
    for line in text.splitlines():
        if line.startswith("auto "):
            name, _, clause = line[len("auto "):].partition(":")
            clauses.setdefault(name, []).append(clause.strip())
        else:
            lines.append(line)
    return "\n".join(lines + [f"auto {name}: {', '.join(c)}" for name, c in clauses.items()]) + "\n"


@pytest.mark.parametrize(
    "entry, params",
    [("zigzag_c2", {}), ("lambda_rot", {"n": 3, "k": 2}), ("lambda_rot", {"n": 2, "k": 2})],
)
def test_written_action_files(entry, params):
    act = catalog.build(entry, **params)
    text = serialize.action_text(act, "ref")
    resolver = lambda ref: act.algebra  # noqa: E731
    _, old_exc = _outcome(parse_action, text, act.algebra)
    # each line was one generator, a partial map: their closure is no group
    # (zigzag, lambda(2,2)) or passes the order cap (lambda(3,2))
    assert old_exc in (ValueError, InvalidInput)
    back = serialize.parse_action_text(text, resolver)
    _same_action(back, parse_action(_joined(text), act.algebra))
    _same_action(serialize.parse_action_text(_joined(text), resolver), back)
    key = lambda m: tuple(serialize.scalar_out(act.algebra.field, x) for x in m.flat)  # noqa: E731
    assert sorted(map(key, back.matrices)) == sorted(map(key, act.matrices))


def test_rational_action_round_trip():
    """x -> -x + x*x on Q[x]/x^3 is an involution; its file reads back."""
    tp = catalog.build("trunc_poly", k=3, field="Q")
    f = tp.field
    m = f.eye(3)
    m[1, 1], m[2, 1] = f.scalar(-1), f.one
    act = AlgebraAction(FiniteGroup.cyclic(2), tp, [f.eye(3), m])
    text = serialize.action_text(act, "tp")
    assert "auto g1: x -> -x + x*x" in text
    back = serialize.parse_action_text(text, lambda ref: tp)
    assert back.group.order == 2 and f.eq(back.matrices, act.matrices)
