"""Quivers, paths, presentations, and the lexer of the presentation text format.

Paths are stored in traversal order: the first arrow of the tuple is walked
first. The algebra product composes the other way around (right factor acts
first), so the path written `a*b` in the text format denotes the product
mul(b, a). Relations must be homogeneous: every term a path of one common
length >= 2 with one common source and target; that is the shape the
degree-by-degree basis algorithm relies on, and every relation appearing in
practice (monomial or commutativity style) has it.

Presentation text is a list of directive lines, read by `directive_lines`:
`#` starts a comment, blank lines are skipped, and the first word is the
keyword. A linear combination, as in `relation a*b - 2 c*d`, is read by
`signed_terms` with the one grammar

    combination := term (sign term)*
    term        := [sign] [coefficient [*]] body
    sign        := + | -
    coefficient := digits [/ digits], followed by whitespace or `*`

A sign starts each term after the first and may start the first. Every
character belongs to exactly one term: a dangling sign, two signs in a row
and an empty combination are InvalidInput naming the line. The body is the
text up to the next sign, a path of arrow labels joined by `*`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .errors import InvalidInput, NotAdmissible
from .fields import field_from_name

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str


class Quiver:
    """Finite quiver with labelled vertices and arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = [str(v) for v in vertices]
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInput("duplicate vertex labels")
        self.arrows = []
        seen = set()
        for a in arrows:
            if isinstance(a, Arrow):
                arrow = a
            else:
                label, source, target = a
                arrow = Arrow(str(label), str(source), str(target))
            if not _LABEL_RE.match(arrow.label):
                raise InvalidInput(f"arrow label {arrow.label!r} must look like an identifier")
            if arrow.label in seen:
                raise InvalidInput(f"duplicate arrow label {arrow.label!r}")
            if arrow.source not in self.vertices or arrow.target not in self.vertices:
                raise InvalidInput(f"arrow {arrow.label!r} references unknown vertex")
            seen.add(arrow.label)
            self.arrows.append(arrow)
        self.arrow_index = {a.label: i for i, a in enumerate(self.arrows)}

    def arrows_from(self, v):
        return [i for i, a in enumerate(self.arrows) if a.source == v]

    def is_acyclic(self):
        # DFS over the arrow graph
        color = {v: 0 for v in self.vertices}
        adjacency = {v: [] for v in self.vertices}
        for a in self.arrows:
            adjacency[a.source].append(a.target)

        def visit(v):
            color[v] = 1
            for w in adjacency[v]:
                if color[w] == 1:
                    return False
                if color[w] == 0 and not visit(w):
                    return False
            color[v] = 2
            return True

        return all(visit(v) for v in self.vertices if color[v] == 0)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class Path:
    """A path in traversal order; trivial paths carry their vertex."""

    source: str
    target: str
    arrows: tuple  # arrow indices, first-walked first

    @property
    def length(self):
        return len(self.arrows)

    def label(self, quiver):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(quiver.arrows[i].label for i in self.arrows)


def trivial_path(v):
    v = str(v)
    return Path(v, v, ())


def path_from_arrow_labels(quiver, labels):
    idxs = []
    for lab in labels:
        if lab not in quiver.arrow_index:
            raise InvalidInput(f"unknown arrow {lab!r} in path")
        idxs.append(quiver.arrow_index[lab])
    for prev, nxt in zip(idxs, idxs[1:]):
        if quiver.arrows[prev].target != quiver.arrows[nxt].source:
            raise InvalidInput(
                f"path {'*'.join(labels)} breaks at {quiver.arrows[prev].label!r}: "
                f"target {quiver.arrows[prev].target!r} is not the next source"
            )
    return Path(quiver.arrows[idxs[0]].source, quiver.arrows[idxs[-1]].target, tuple(idxs))


def concat_paths(quiver, p, q):
    """Traversal concatenation: walk p, then q. None when endpoints differ."""
    if p.target != q.source:
        return None
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return Path(p.source, q.target, p.arrows + q.arrows)


@dataclass
class QuiverPresentation:
    """A quiver with homogeneous relations presenting a path algebra quotient."""

    quiver: Quiver
    relations: list = dc_field(default_factory=list)  # each: list of (coeff, Path)
    max_path_length: int = 30

    def __post_init__(self):
        for rel in self.relations:
            if not rel:
                raise NotAdmissible("empty relation")
            lengths = {p.length for _, p in rel}
            if len(lengths) != 1:
                raise NotAdmissible(
                    "mixed-length relation: the supported admissible ideals are "
                    "generated by length-homogeneous combinations"
                )
            (length,) = lengths
            if length < 2:
                raise NotAdmissible("relation terms must be paths of length >= 2")
            if len({(p.source, p.target) for _, p in rel}) != 1:
                raise NotAdmissible("relation terms must share source and target")


def directive_lines(text):
    """(line number, keyword, rest) of each line that is not blank after its comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            keyword, _, rest = line.partition(" ")
            yield lineno, keyword, rest.strip()


_SIGNED_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)(?:\s*\*\s*|\s+))?([^+-]*)")


def signed_terms(field, text, where):
    """[(coefficient, body)] of a signed combination; see the module docstring."""
    terms, pos = [], 0
    while pos < len(text) or not terms:
        m = _SIGNED_TERM.match(text, pos)
        sign, coeff_txt, body = m.groups()
        pos, body = m.end(), body.strip()
        if not body:
            raise InvalidInput(f"{where}: missing term in {text.strip()!r}")
        try:
            coeff = field.scalar_from_str(coeff_txt) if coeff_txt else field.one
        except ZeroDivisionError as exc:
            raise InvalidInput(f"{where}: coefficient {coeff_txt} has no value in {field}") from exc
        terms.append((field.scalar(-coeff) if sign == "-" else coeff, body))
    return terms


def parse_presentation(text):
    """Parse the text format; returns (field, QuiverPresentation).

    Lines: `field GF(7)`, `vertex 1`, `arrow a: 1 -> 2`, `relation a*b - 2 b*c`.
    """
    field = None
    vertices, arrow_specs, relation_specs = [], [], []
    for lineno, keyword, rest in directive_lines(text):
        if keyword == "field":
            field = field_from_name(rest)
        elif keyword == "vertex":
            if not rest:
                raise InvalidInput(f"line {lineno}: vertex needs a label")
            vertices.extend(rest.split())
        elif keyword == "arrow":
            m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", rest)
            if not m:
                raise InvalidInput(f"line {lineno}: expected `arrow a: 1 -> 2`")
            arrow_specs.append((m.group(1), m.group(2), m.group(3)))
        elif keyword == "relation":
            relation_specs.append((lineno, rest))
        else:
            raise InvalidInput(f"line {lineno}: unknown keyword {keyword!r}")
    if field is None:
        raise InvalidInput("missing `field` line")
    quiver = Quiver(vertices, arrow_specs)
    relations = [_parse_relation(quiver, field, rest, lineno) for lineno, rest in relation_specs]
    return field, QuiverPresentation(quiver, relations)


def _parse_relation(quiver, field, text, lineno):
    return [
        (coeff, path_from_arrow_labels(quiver, [t.strip() for t in body.split("*")]))
        for coeff, body in signed_terms(field, text, f"line {lineno}")
    ]
