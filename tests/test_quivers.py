"""Quiver, path, and presentation text-format behavior."""

import pytest

from jorder.algebras import algebra_from_quiver
from jorder.errors import InvalidInput, NotAdmissible
from jorder.fields import GF
from jorder.quivers import (
    Path,
    Quiver,
    QuiverPresentation,
    concat_paths,
    parse_presentation,
    path_from_arrow_labels,
    trivial_path,
)
from jorder.serialize import presentation_text


def emitted(text):
    """presentation_text of the algebra the text presents."""
    field, pres = parse_presentation(text)
    return presentation_text(algebra_from_quiver(pres, field))


def linear_quiver(n):
    return Quiver([str(i) for i in range(1, n + 1)], [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)])


def cyclic_quiver(n):
    return Quiver(
        [str(i) for i in range(1, n + 1)],
        [(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)],
    )


class TestQuiver:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(InvalidInput):
            Quiver(["1", "1"], [])

    def test_duplicate_arrow_label_rejected(self):
        with pytest.raises(InvalidInput):
            Quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InvalidInput):
            Quiver(["1", "2"], [("a", "1", "3")])

    def test_linear_is_acyclic_cyclic_is_not(self):
        assert linear_quiver(4).is_acyclic()
        assert not cyclic_quiver(3).is_acyclic()
        # a loop arrow is a cycle
        assert not Quiver(["1"], [("a", "1", "1")]).is_acyclic()

    def test_arrows_from(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "1")])
        assert q.arrows_from("1") == [0, 1]
        assert q.arrows_from("2") == [2]


class TestPaths:
    def test_path_from_labels_checks_composability(self):
        q = linear_quiver(3)
        p = path_from_arrow_labels(q, ["a1", "a2"])
        assert (p.source, p.target, p.length) == ("1", "3", 2)
        with pytest.raises(InvalidInput):
            path_from_arrow_labels(q, ["a2", "a1"])
        with pytest.raises(InvalidInput):
            path_from_arrow_labels(q, ["a1", "zz"])

    def test_concat_walks_left_then_right(self):
        q = linear_quiver(4)
        p = path_from_arrow_labels(q, ["a1"])
        r = path_from_arrow_labels(q, ["a2", "a3"])
        whole = concat_paths(q, p, r)
        assert whole.label(q) == "a1*a2*a3"
        assert concat_paths(q, r, p) is None

    def test_trivial_path_units(self):
        q = linear_quiver(3)
        p = path_from_arrow_labels(q, ["a1"])
        assert concat_paths(q, trivial_path("1"), p) == p
        assert concat_paths(q, p, trivial_path("2")) == p
        assert concat_paths(q, p, trivial_path("3")) is None
        assert trivial_path("2").label(q) == "e_2"


class TestPresentation:
    def test_mixed_length_relation_rejected(self):
        q = Quiver(["1"], [("a", "1", "1")])
        f = GF(5)
        two = path_from_arrow_labels(q, ["a", "a"])
        three = path_from_arrow_labels(q, ["a", "a", "a"])
        with pytest.raises(NotAdmissible):
            QuiverPresentation(q, [[(f.one, two), (f.one, three)]])

    def test_short_relation_rejected(self):
        q = Quiver(["1"], [("a", "1", "1")])
        f = GF(5)
        one = path_from_arrow_labels(q, ["a"])
        with pytest.raises(NotAdmissible):
            QuiverPresentation(q, [[(f.one, one)]])

    def test_mismatched_endpoints_rejected(self):
        q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2"), ("d", "2", "2")])
        f = GF(5)
        ab = path_from_arrow_labels(q, ["a", "b"])
        cd = path_from_arrow_labels(q, ["c", "d"])
        with pytest.raises(NotAdmissible):
            QuiverPresentation(q, [[(f.one, ab), (f.scalar(-1), cd)]])


class TestTextFormat:
    TEXT = """
# commutative square with one diagonal relation
field GF(7)
vertex 1
vertex 2
vertex 3
vertex 4
arrow a: 1 -> 2
arrow b: 2 -> 4
arrow c: 1 -> 3
arrow d: 3 -> 4
relation a*b - c*d
"""

    def test_parse_fields_and_shapes(self):
        field, pres = parse_presentation(self.TEXT)
        assert field == GF(7)
        assert pres.quiver.vertices == ["1", "2", "3", "4"]
        assert [a.label for a in pres.quiver.arrows] == ["a", "b", "c", "d"]
        assert len(pres.relations) == 1
        (c1, p1), (c2, p2) = pres.relations[0]
        assert p1.label(pres.quiver) == "a*b"
        assert p2.label(pres.quiver) == "c*d"
        assert c1 == 1 and c2 == 6  # -1 mod 7

    def test_roundtrip_through_emit(self):
        text2 = emitted(self.TEXT)
        field2, _ = parse_presentation(text2)
        assert field2 == GF(7)
        assert emitted(text2) == text2
        assert "relation a*b + 6 c*d" in text2

    def test_coefficient_parsing(self):
        field, pres = parse_presentation(
            "field GF(7)\nvertex 1\narrow x: 1 -> 1\narrow y: 1 -> 1\n"
            "relation x*x + 2 x*y - 3 y*x + y*y\n"
        )
        assert field == GF(7)
        coeffs = [c for c, _ in pres.relations[0]]
        labels = [p.label(pres.quiver) for _, p in pres.relations[0]]
        assert coeffs == [1, 2, 4, 1]  # -3 mod 7
        assert labels == ["x*x", "x*y", "y*x", "y*y"]

    def test_mixed_length_text_relation_raises(self):
        with pytest.raises(NotAdmissible):
            parse_presentation("field Q\nvertex 1\narrow x: 1 -> 1\nrelation x*x - 1/2 x*x*x\n")

    def test_rational_coefficients_roundtrip(self):
        text = (
            "field Q\nvertex 1\narrow x: 1 -> 1\narrow y: 1 -> 1\n"
            "relation x*y - 1/2 y*x\nrelation x*x\nrelation y*y\n"
        )
        field, pres = parse_presentation(text)
        (c1, _), (c2, _) = pres.relations[0]
        assert c1 == 1 and c2 == field.scalar("-1/2")
        text2 = emitted(text)
        assert "relation x*y - 1/2 y*x" in text2
        assert emitted(text2) == text2

    def test_unknown_keyword_rejected(self):
        with pytest.raises(InvalidInput):
            parse_presentation("field Q\nvortex 1\n")

    def test_missing_field_rejected(self):
        with pytest.raises(InvalidInput):
            parse_presentation("vertex 1\n")

    def test_broken_path_in_relation_rejected(self):
        with pytest.raises(InvalidInput):
            parse_presentation("field GF(3)\nvertex 1\nvertex 2\narrow a: 1 -> 2\nrelation a*a\n")
