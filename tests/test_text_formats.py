"""The lexer, reader and writer of presentation text against the code they replaced.

The oracles below are the replaced code, kept verbatim: the relation parser
and the presentation writer. Every input an oracle accepts must give the
same coefficients and paths from the survivors. The only inputs on which
they differ are the malformed combinations in MALFORMED, which the old
relation parser misreads and the lexer rejects.

The corpus is every presentation text in test_quivers.py and test_groups.py,
the truncated cycle algebras and k[x]/x^3 over GF(2).
"""

import ast
import re
from pathlib import Path

import pytest

from jorder import catalog, quivers, serialize
from jorder.algebras import algebra_from_quiver
from jorder.catalog import SELF_TEST_GRID
from jorder.errors import InvalidInput, NotFiniteDimensional
from jorder.fields import QQ
from jorder.quivers import parse_presentation, path_from_arrow_labels
from jorder.witnesses import JWitnessPair

from test_groups import truncated_cycle_text

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
    texts.append("field GF(2)\nvertex 1\narrow x: 1 -> 1\nrelation x*x*x\n")  # k[x]/x^3 in characteristic 2
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
