"""Algebra construction, radicals, quotients, tensors, and quiver quotients.

The radical oracle used here is independent of the production criteria: over
a small finite field and small dimension, x lies in the radical iff 1 - a*x
is invertible for every algebra element a, checked by exhaustive enumeration.
"""

import itertools

import numpy as np
import pytest

from jorder import catalog, fields, linalg
from jorder.algebras import (
    Algebra,
    _chain_gram,
    algebra_from_quiver,
    criterion_radical_rows,
    matrix_algebra_radical,
    quotient_algebra,
    subalgebra_from_rows,
    tensor_algebra,
)
from jorder.decomp import endomorphism_algebra
from jorder.errors import IdealIsWholeAlgebra, NotFiniteDimensional
from jorder.fields import GF, QQ
from jorder.groups import skew_group_algebra
from jorder.modules import random_left_module
from jorder.polynomials import charpoly_coefficient
from jorder.quivers import parse_presentation

from oracles import basis_vector, center, end_algebra, is_commutative, linear_quiver_algebra, mat


def qa(text):
    field, pres = parse_presentation(text)
    return algebra_from_quiver(pres, field)


def dual_numbers(field_name):
    return qa(f"field {field_name}\nvertex 1\narrow x: 1 -> 1\nrelation x*x\n")


def truncated_poly(field_name, k):
    rel = "*".join(["x"] * k)
    return qa(f"field {field_name}\nvertex 1\narrow x: 1 -> 1\nrelation {rel}\n")


def zigzag(field_name):
    return qa(
        f"field {field_name}\nvertex 1\nvertex 2\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 1\nrelation a*b\nrelation b*a\n"
    )


def truncated_cycle(field_name, n, k):
    """Cyclic quiver on n vertices modulo all paths of length k."""
    lines = [f"field {field_name}"]
    lines += [f"vertex {i}" for i in range(1, n + 1)]
    lines += [f"arrow a{i}: {i} -> {i % n + 1}" for i in range(1, n + 1)]
    for v in range(1, n + 1):
        arrows = [f"a{(v - 1 + t) % n + 1}" for t in range(k)]
        lines.append("relation " + "*".join(arrows))
    return qa("\n".join(lines))


def group_algebra_cyclic(field, n):
    table = field.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            table[i, j, (i + j) % n] = field.one
    unit = field.zeros((n,))
    unit[0] = field.one
    gen = field.zeros((n,))
    gen[1 % n] = field.one
    return Algebra(field, table, unit, [f"g{i}" for i in range(n)], generators=[gen], label=f"k[C{n}]")


def exhaustive_radical_rows(algebra):
    """x in rad(A) iff 1 - a*x is invertible for all a; brute force over GF(p)."""
    field = algebra.field
    p, n = field.p, algebra.dim
    elems = [field.vec(t) for t in itertools.product(range(p), repeat=n)]
    members = []
    for x in elems:
        ok = True
        for a in elems:
            u = field.sub(algebra.unit, algebra.mul(a, x))
            if linalg.rank(field, algebra.left_mult_matrix(u)) != n:
                ok = False
                break
        if ok:
            members.append(x)
    return linalg.row_basis(field, np.array(members))


class TestDualNumbers:
    def test_table_is_the_expected_one(self):
        a = dual_numbers("GF(3)")
        assert a.dim == 2
        assert a.labels == ["e_1", "x"]
        expected = np.array([[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
        assert a.field.eq(a.table, expected)

    def test_loewy_structure(self):
        a = dual_numbers("GF(3)")
        assert a.loewy_length() == 2
        assert a.loewy_layer_dims() == [2, 1, 0]
        assert is_commutative(a)

    def test_radical_matches_exhaustive_oracle(self):
        a = dual_numbers("GF(3)")
        assert a.field.eq(a.radical_rows(), exhaustive_radical_rows(a))

    def test_radical_powers_stop_on_non_nilpotent_rows(self):
        # the unit is idempotent, so its powers never vanish: the loop must raise, not hang
        a = dual_numbers("GF(3)")
        bad = Algebra(a.field, a.table, a.unit, radical_rows=a.unit.reshape(1, -1), check=False)
        with pytest.raises(AssertionError, match="not nilpotent"):
            bad.radical_powers()


class TestLinearQuiver:
    def test_dimension_is_path_count(self):
        for n in range(1, 6):
            a = linear_quiver_algebra(GF(5), n)
            assert a.dim == n * (n + 1) // 2

    def test_loewy_layers_count_paths_by_length(self):
        a = linear_quiver_algebra(GF(5), 4)
        # paths of length >= l in the linear quiver on 4 vertices
        assert a.loewy_layer_dims() == [10, 6, 3, 1, 0]

    def test_radical_matches_exhaustive_oracle(self):
        a = qa("field GF(2)\nvertex 1\nvertex 2\nvertex 3\narrow a: 1 -> 2\narrow b: 2 -> 3\nrelation a*b\n")
        assert a.dim == 5
        assert a.field.eq(a.radical_rows(), exhaustive_radical_rows(a))

    def test_product_convention_matches_path_labels(self):
        a = linear_quiver_algebra(GF(5), 3)
        i_a1 = a.labels.index("a1")
        i_a2 = a.labels.index("a2")
        i_a12 = a.labels.index("a1*a2")
        prod = a.mul(basis_vector(a, i_a2), basis_vector(a, i_a1))
        assert a.field.eq(prod, basis_vector(a, i_a12))
        # the other order walks a2 first and breaks
        assert a.field.is_zero(a.mul(basis_vector(a, i_a1), basis_vector(a, i_a2)))


class TestTruncatedCycle:
    def test_dimensions(self):
        for n, k in [(2, 2), (3, 2), (3, 3)]:
            a = truncated_cycle("GF(7)", n, k)
            assert a.dim == n * k

    def test_loewy_layers(self):
        a = truncated_cycle("GF(7)", 3, 2)
        assert a.loewy_layer_dims() == [6, 3, 0]
        b = truncated_cycle("GF(7)", 3, 3)
        assert b.loewy_layer_dims() == [9, 6, 3, 0]

    def test_radical_agrees_with_criterion_both_characteristics(self):
        for name in ["GF(2)", "GF(7)"]:
            a = truncated_cycle(name, 3, 2)
            twin = Algebra(a.field, a.table, a.unit, a.labels, label="twin")
            assert a.field.eq(a.radical_rows(), twin.radical_rows())

    def test_radical_matches_exhaustive_oracle_gf2(self):
        a = truncated_cycle("GF(2)", 2, 2)
        assert a.field.eq(a.radical_rows(), exhaustive_radical_rows(a))

    def test_cycle_without_relations_is_infinite_dimensional(self):
        with pytest.raises(NotFiniteDimensional):
            qa("field GF(2)\nvertex 1\narrow x: 1 -> 1\n")
        with pytest.raises(NotFiniteDimensional):
            qa("field GF(2)\nvertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n")


class TestZigzag:
    def test_basics(self):
        a = zigzag("GF(2)")
        assert a.dim == 4
        assert a.loewy_layer_dims() == [4, 2, 0]
        assert not is_commutative(a)

    def test_radical_matches_exhaustive_oracle(self):
        a = zigzag("GF(2)")
        assert a.field.eq(a.radical_rows(), exhaustive_radical_rows(a))

    def test_center_is_scalars_only(self):
        z = center(zigzag("GF(5)"))
        assert z.dim == 1

    def test_criterion_agrees_with_structural(self):
        a = zigzag("GF(2)")
        twin = Algebra(a.field, a.table, a.unit, a.labels, label="twin")
        assert a.field.eq(twin.radical_rows(), a.radical_rows())


class TestRelationWithTwoTerms:
    TEXT = (
        "field GF(7)\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
        "relation a*b - c*d\n"
    )

    def test_commutative_square(self):
        alg = qa(self.TEXT)
        assert alg.dim == 9
        i_a = alg.labels.index("a")
        i_b = alg.labels.index("b")
        i_c = alg.labels.index("c")
        i_d = alg.labels.index("d")
        i_cd = alg.labels.index("c*d")
        assert "a*b" not in alg.labels
        lhs = alg.mul(basis_vector(alg, i_b), basis_vector(alg, i_a))
        rhs = alg.mul(basis_vector(alg, i_d), basis_vector(alg, i_c))
        assert alg.field.eq(lhs, basis_vector(alg, i_cd))
        assert alg.field.eq(lhs, rhs)


class TestPathMod24:
    """Linear quiver on 4 vertices modulo the path from 2 to 4."""

    TEXT = (
        "field GF(101)\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 3 -> 4\nrelation b*c\n"
    )

    def test_dimension_and_layers(self):
        alg = qa(self.TEXT)
        assert alg.dim == 8
        assert alg.loewy_layer_dims() == [8, 4, 1, 0]
        assert "a*b" in alg.labels
        assert "b*c" not in alg.labels
        assert "a*b*c" not in alg.labels


class TestGroupAlgebras:
    def test_c3_semisimple_away_from_char_3(self):
        a = group_algebra_cyclic(GF(2), 3)
        assert a.radical_rows().shape[0] == 0
        assert a.loewy_length() == 1

    def test_c3_modular_radical_from_chain_and_oracle(self):
        a = group_algebra_cyclic(GF(3), 3)
        assert a.radical_rows().shape[0] == 2
        assert a.field.eq(a.radical_rows(), exhaustive_radical_rows(a))
        assert a.loewy_layer_dims() == [3, 2, 1, 0]

    def test_c4_modular(self):
        a = group_algebra_cyclic(GF(2), 4)
        assert a.field.eq(a.radical_rows(), exhaustive_radical_rows(a))
        assert a.loewy_layer_dims() == [4, 3, 2, 1, 0]


def _full_sweep_associative(field, t):
    """(x_i x_j) x_k == x_i (x_j x_k) for every basis triple, from two products of the table with itself."""
    left = field.tensordot(t, t, axes=([2], [0]))  # (i, j, k, l)
    right = field.tensordot(t, t, axes=([2], [1])).transpose(2, 0, 1, 3)
    return field.eq(left, right)


class TestValidation:
    @pytest.mark.parametrize("field", ["GF(2)", "GF(101)", "Q"])
    def test_zero_dimensional_table_rejected_before_any_other_check(self, field):
        """An empty table is refused with the library's message, even with a
        unit, labels and generators that every later check would also refuse."""
        f = fields.field_from_name(field)
        message = "an algebra has dimension at least 1; the table is empty"
        with pytest.raises(ValueError, match=message):
            Algebra(f, f.zeros((0, 0, 0)), [])
        with pytest.raises(ValueError, match=message):
            Algebra(f, f.zeros((0, 0, 0)), [1], labels=["x"], generators=[[1]])

    def test_broken_unit_rejected(self):
        f = GF(5)
        table = f.zeros((2, 2, 2))
        table[0, 0, 0] = 1
        with pytest.raises(ValueError, match="unit"):
            Algebra(f, table, [1, 0])

    def test_broken_associativity_rejected(self):
        # basis 1, x with x*x = x but 1 as unit: (x*x)*x = x yet x*(x*x) must
        # match; instead corrupt a three-dimensional table so only
        # associativity fails while the unit laws survive
        f = GF(5)
        a = linear_quiver_algebra(GF(5), 2)
        table = f.copy(a.table)
        i_a1 = a.labels.index("a1")
        table[i_a1, i_a1, i_a1] = 1  # a1*a1 = a1 with a1 not idempotent-compatible
        with pytest.raises(ValueError, match="associative"):
            Algebra(f, table, a.unit)

    @staticmethod
    def _skew_rot_q():
        """The dim-18 skew algebra of lambda_rot (3,2) over Q, with 9 declared generators."""
        return skew_group_algebra(catalog.build("lambda_rot", field="Q", n=3, k=2))[0]

    def test_q_associativity_check_converts_the_table_per_generator(self, monkeypatch):
        # the products of one generator with every basis element are two batched
        # products; one mul per product converted the table once per product
        checks = []  # [algebra, operand conversions] per associativity check
        numerators = fields._numerators
        check = Algebra._check_associativity

        def counted_numerators(a):
            checks[-1][1] += 1
            return numerators(a)

        def counted_check(self):
            checks.append([self, 0])
            monkeypatch.setattr(fields, "_numerators", counted_numerators)
            try:
                check(self)
            finally:
                monkeypatch.setattr(fields, "_numerators", numerators)

        monkeypatch.setattr(Algebra, "_check_associativity", counted_check)
        skew = self._skew_rot_q()
        assert skew.dim == 18 and skew.field == QQ and len(skew.generators) == 9
        assert checks[-1] == [skew, 2 + 4 * 9]
        assert all(c <= 2 + 4 * len(a.generators) for a, c in checks), checks

    def test_q_generator_check_converts_the_table_once_per_side(self, monkeypatch):
        # each generator's left and right multiplication matrices are built once,
        # by one stacked tensordot per side; building them in every closure round
        # converted the whole table twice per generator per round
        checks = []  # [algebra, conversions of its table] per generator check
        numerators = fields._numerators
        check = Algebra._check_generators

        def counted_numerators(a):
            checks[-1][1] += a is checks[-1][0].table
            return numerators(a)

        def counted_check(self):
            checks.append([self, 0])
            monkeypatch.setattr(fields, "_numerators", counted_numerators)
            try:
                check(self)
            finally:
                monkeypatch.setattr(fields, "_numerators", numerators)

        monkeypatch.setattr(Algebra, "_check_generators", counted_check)
        skew = self._skew_rot_q()
        assert skew.dim == 18 and skew.field == QQ
        assert checks[-1][0] is skew and all(c <= 2 for _, c in checks), checks

    def test_q_associativity_check_rejects_one_perturbed_entry(self):
        skew = self._skew_rot_q()
        f = skew.field
        table = f.copy(skew.table)
        # an entry outside the unit's rows and columns keeps the unit laws
        off_unit = [i for i in range(skew.dim) if skew.unit[i] == 0]
        i, j = off_unit[0], off_unit[-1]
        table[i, j, 0] = table[i, j, 0] + 1
        Algebra(f, skew.table, skew.unit)  # the unperturbed table passes
        with pytest.raises(ValueError, match="associative"):
            Algebra(f, table, skew.unit)

    def test_gf_associativity_check_rejects_one_perturbed_entry(self):
        """The dim-42 table of k[x]/x^42 over GF(101), taken with every basis
        element as a generator, is rejected with one entry changed outside the
        unit's rows and columns."""
        big = catalog.build("trunc_poly", field="GF(101)", k=42)
        f = big.field
        table = f.copy(big.table)
        table[1, big.dim - 1, 0] = 1  # x * x^41 = 1, while x^41 * x stays 0
        with pytest.raises(ValueError, match="associative"):
            Algebra(f, table, big.unit)

    @pytest.mark.parametrize("field", ["GF(2)", "GF(3)", "GF(101)", "GF(1048573)", "Q"])
    def test_associativity_check_rejects_what_the_full_sweep_rejects(self, field):
        """Single-entry perturbations outside the unit's rows and columns of
        catalog algebras with declared generators are rejected exactly when
        (x y) z = x (y z) fails somewhere. In k[x]/x^3 some keep it: x * x
        changed to x + x^2, say."""
        skew = "skew?of=lambda_rot&n=3&k=2" if field == "GF(2)" else "skew?of=zigzag_c2"
        refs = ("kronecker", "A_n?n=3", "trunc_poly?k=3", skew)
        algebras = [catalog.resolve(f"catalog:{ref}", field=field) for ref in refs]
        algebras.append(zigzag(field))
        outcomes = set()
        for a in algebras:
            f = a.field
            off_unit = [i for i in range(a.dim) if a.unit[i] == 0]
            cells = [(i, j, k) for i in off_unit for j in off_unit for k in range(a.dim)]
            for i, j, k in cells[:: max(1, len(cells) // 120)]:  # about 120 cells an algebra at most
                table = f.copy(a.table)
                table[i, j, k] = table[i, j, k] + 1
                associative = _full_sweep_associative(f, f.canon(table))
                try:
                    Algebra(f, table, a.unit, generators=a.generators)
                    rejected = None
                except ValueError as exc:
                    rejected = str(exc)
                if associative:  # x * x = 2 x^2 over GF(2) is associative, but 1 and x no longer generate
                    assert rejected is None or "generate" in rejected, (a.label, i, j, k, rejected)
                else:
                    assert rejected is not None, (a.label, i, j, k)
                outcomes.add(associative)
        assert outcomes == {True, False}

    def test_a_product_of_two_non_generators_is_checked(self):
        """k[x]/x^42 over GF(101) declares the generators 1 and x; changing
        x^20 * x^21 alone, a product of two non-generators, is rejected."""
        a = catalog.build("trunc_poly", field="GF(101)", k=42)
        f = a.field
        assert f.eq(np.array(a.generators), f.eye(a.dim)[:2])
        table = f.copy(a.table)
        table[20, 21, 0] = 1  # x^20 * x^21 = x^41 + 1
        assert not _full_sweep_associative(f, table)
        Algebra(f, a.table, a.unit, generators=a.generators)  # the unperturbed table passes
        with pytest.raises(ValueError, match="associative"):
            Algebra(f, table, a.unit, generators=a.generators)

    def test_insufficient_generators_rejected(self):
        a = dual_numbers("GF(5)")
        with pytest.raises(ValueError, match="generate"):
            Algebra(a.field, a.table, a.unit, generators=[a.unit])

    def test_wrong_radical_claim_rejected(self):
        a = dual_numbers("GF(5)")
        with pytest.raises(ValueError, match="semisimple"):
            Algebra(a.field, a.table, a.unit, radical_rows=a.field.zeros((0, 2)))
        e1 = a.field.vec([1, 0])
        with pytest.raises(ValueError):
            Algebra(a.field, a.table, a.unit, radical_rows=e1.reshape(1, -1))

    def test_bad_idempotent_family_rejected(self):
        a = zigzag("GF(3)")
        e1 = a.field.vec([1, 0, 0, 0])
        with pytest.raises(ValueError, match="sum"):
            Algebra(a.field, a.table, a.unit, idempotents=[e1])

    @pytest.mark.parametrize("field_name", ["GF(3)", "Q"])
    def test_idempotent_family_failures_in_order(self, field_name):
        """Element i's idempotence, then its orthogonality to the others, for
        i in turn, and the sum last: the first failure in that order is named."""
        a = zigzag(field_name)
        f = a.field
        e1, e2 = f.vec([1, 0, 0, 0]), f.vec([0, 1, 0, 0])
        two_e2 = f.canon(f.smul(2, e2))
        Algebra(f, a.table, a.unit, idempotents=[e1, e2])
        cases = [
            ([two_e2, e1], "family element 0 is not idempotent"),
            ([e1, two_e2], "family element 1 is not idempotent"),
            ([e1, two_e2, e1], "idempotent family is not orthogonal"),  # row 0 fails before element 1
            ([e2, e1, e1], "idempotent family is not orthogonal"),
            ([e1], "idempotent family does not sum to the unit"),
        ]
        for family, message in cases:
            with pytest.raises(ValueError, match=message):
                Algebra(f, a.table, a.unit, idempotents=family)


class TestQuotients:
    def test_truncation_quotient_matches_direct_construction(self):
        big = truncated_cycle("GF(7)", 3, 3)
        small = truncated_cycle("GF(7)", 3, 2)
        degree2 = [i for i, lab in enumerate(big.labels) if lab.count("*") == 1]
        rows = np.stack([np.asarray(basis_vector(big, i)) for i in degree2])
        quo = quotient_algebra(big, big.field.canon(rows))
        assert quo.dim == small.dim
        assert quo.labels == small.labels
        assert quo.field.eq(quo.table, small.table)

    def test_truncated_poly_tower(self):
        x3 = truncated_poly("GF(5)", 3)
        i_xx = x3.labels.index("x*x")
        quo = quotient_algebra(x3, np.asarray(basis_vector(x3, i_xx)).reshape(1, -1))
        d = dual_numbers("GF(5)")
        assert quo.field.eq(quo.table, d.table)

    def test_quotient_by_everything_rejected(self):
        a = dual_numbers("GF(5)")
        with pytest.raises(IdealIsWholeAlgebra):
            quotient_algebra(a, a.field.eye(2))

    def test_non_ideal_rejected(self):
        a = zigzag("GF(5)")
        with pytest.raises(ValueError, match="ideal"):
            quotient_algebra(a, np.asarray(basis_vector(a, 0)).reshape(1, -1))


class TestOppositeAndTensor:
    def test_opposite_swaps_products(self):
        a = linear_quiver_algebra(GF(7), 3)
        op = a.opposite()
        gen = np.random.Generator(np.random.PCG64(7))
        for _ in range(10):
            x = a.field.rand_mat(gen, 1, a.dim).reshape(-1)
            y = a.field.rand_mat(gen, 1, a.dim).reshape(-1)
            assert a.field.eq(op.mul(x, y), a.mul(y, x))
        assert a.opposite().opposite() is a

    def test_opposite_preserves_loewy(self):
        a = linear_quiver_algebra(GF(7), 4)
        assert a.opposite().loewy_layer_dims() == a.loewy_layer_dims()

    def test_tensor_with_opposite_enveloping(self):
        a = linear_quiver_algebra(GF(7), 2)
        env = tensor_algebra(a, a.opposite())
        assert env.dim == 9
        assert env.loewy_layer_dims() == [9, 5, 1, 0]
        assert len(env.idempotents) == 4
        assert env.idempotents_primitive

    def test_tensor_requires_same_field(self):
        with pytest.raises(ValueError, match="field"):
            tensor_algebra(dual_numbers("GF(5)"), dual_numbers("GF(7)"))

    def test_tensor_center_dim_multiplies(self):
        a = linear_quiver_algebra(GF(7), 2)
        env = tensor_algebra(a, a.opposite())
        assert center(env).dim == 1
        d = dual_numbers("GF(7)")
        assert center(tensor_algebra(d, d)).dim == 4


def triangular_matrix_algebra(a, n):
    """Upper-triangular n x n matrices over a, realized as a (x) the linear path algebra."""
    return tensor_algebra(a, linear_quiver_algebra(a.field, n), label=f"T{n}({a.label})")


class TestTriangular:
    def build_matrix_oracle(self):
        """Upper triangular 2x2 over GF(5)[x]/(x^2) as explicit 4x4 matrices."""
        f = GF(5)
        eye2 = np.eye(2, dtype=np.int64)
        nil = np.array([[0, 1], [0, 0]], dtype=np.int64)
        zero = np.zeros((2, 2), dtype=np.int64)

        def block(a, b, d):
            return np.block([[a, b], [zero, d]])

        basis = [
            block(eye2, zero, zero),
            block(nil, zero, zero),
            block(zero, eye2, zero),
            block(zero, nil, zero),
            block(zero, zero, eye2),
            block(zero, zero, nil),
        ]
        rows = f.canon(np.stack([m.reshape(-1) for m in basis]))
        prods = []
        for mi in basis:
            for mj in basis:
                prods.append((mi @ mj).reshape(-1))
        coords = linalg.coords_in_row_basis(f, rows, f.canon(np.stack(prods)))
        table = f.canon(coords.reshape(6, 6, 6))
        unit = linalg.coords_in_row_basis(f, rows, f.canon(np.eye(4).reshape(1, -1)))[0]
        return Algebra(f, table, unit, label="T2(dual) via matrices")

    def test_triangular_matches_matrix_oracle(self):
        t = triangular_matrix_algebra(dual_numbers("GF(5)"), 2)
        oracle = self.build_matrix_oracle()
        assert t.dim == oracle.dim == 6
        assert t.loewy_layer_dims() == oracle.loewy_layer_dims() == [6, 4, 1, 0]
        assert center(t).dim == center(oracle).dim
        assert is_commutative(t) == is_commutative(oracle) == False

    def test_loewy_length_additivity(self):
        d = dual_numbers("GF(5)")
        assert triangular_matrix_algebra(d, 2).loewy_length() == 3
        assert triangular_matrix_algebra(d, 3).loewy_length() == 4
        x3 = truncated_poly("GF(5)", 3)
        assert triangular_matrix_algebra(x3, 2).loewy_length() == 4


class TestSubalgebras:
    def test_unit_and_nilpotent_span_is_dual_numbers(self):
        a = linear_quiver_algebra(GF(7), 2)
        i_a1 = a.labels.index("a1")
        rows = np.stack([np.asarray(a.unit), np.asarray(basis_vector(a, i_a1))])
        sub = subalgebra_from_rows(a, a.field.canon(rows))
        assert sub.dim == 2
        assert sub.loewy_layer_dims() == [2, 1, 0]
        assert is_commutative(sub)

    def test_unclosed_rows_rejected(self):
        a = linear_quiver_algebra(GF(7), 3)
        i_a1 = a.labels.index("a1")
        i_a2 = a.labels.index("a2")
        rows = np.stack(
            [np.asarray(a.unit), np.asarray(basis_vector(a, i_a1)), np.asarray(basis_vector(a, i_a2))]
        )
        with pytest.raises(ValueError, match="closed"):
            subalgebra_from_rows(a, a.field.canon(rows))

    def test_center_of_commutative_algebra_is_everything(self):
        d = dual_numbers("GF(7)")
        assert center(d).dim == 2


class TestRationalField:
    def test_quiver_algebra_over_q(self):
        a = qa("field Q\nvertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 1 -> 2\n")
        assert a.dim == 4
        assert a.loewy_layer_dims() == [4, 2, 0]
        assert a.radical_rows().shape[0] == 2

    def test_rational_coefficients_in_relations(self):
        a = qa(
            "field Q\nvertex 1\nvertex 2\nvertex 3\nvertex 4\n"
            "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
            "relation a*b - 1/2 c*d\n"
        )
        assert a.dim == 9
        i_a, i_b = a.labels.index("a"), a.labels.index("b")
        i_cd = a.labels.index("c*d")
        prod = a.mul(basis_vector(a, i_b), basis_vector(a, i_a))
        expect = a.field.smul(a.field.scalar("1/2"), basis_vector(a, i_cd))
        assert a.field.eq(prod, a.field.canon(expect))

    def test_dickson_radical_over_q(self):
        a = zigzag("Q")
        twin = Algebra(a.field, a.table, a.unit, a.labels, label="twin")
        assert a.field.eq(twin.radical_rows(), a.radical_rows())


class TestDeterminism:
    def test_same_input_same_arrays(self):
        a1 = truncated_cycle("GF(7)", 3, 2)
        a2 = truncated_cycle("GF(7)", 3, 2)
        assert a1.field.eq(a1.table, a2.table)
        assert a1.labels == a2.labels
        assert a1.field.eq(a1.radical_rows(), a2.radical_rows())
        assert criterion_radical_rows(a1).shape == criterion_radical_rows(a2).shape


class TestCoefficientChainGF2:
    """The p = 2 chain takes the x^(n-2) coefficient through exact traces."""

    X = np.array([[0, 1, 1], [1, 1, 0], [1, 0, 1]])

    def test_power_algebra_reproducer(self):
        # span of 1, X, X^2 over GF(2); X + X^2 squares to zero and spans the radical
        field = GF(2)
        mats = np.stack([np.eye(3, dtype=np.int64), self.X, self.X @ self.X % 2])
        rad = matrix_algebra_radical(field, mats)
        assert field.eq(rad, mat(field, [[0, 1, 1]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_j2_gram_matches_charpoly_coefficient(self, seed):
        field = GF(2)
        gen = np.random.default_rng(8000 + seed)
        for n in range(1, 7):
            prods = gen.integers(0, 2, size=(5, 5, n, n), dtype=np.int64)
            gram = _chain_gram(field, prods, 2)
            want = [[charpoly_coefficient(field, prods[s, t], 2) for t in range(5)] for s in range(5)]
            assert field.eq(gram, mat(field, want))

    @pytest.mark.parametrize("p", [2, 3])
    def test_polynomial_algebras_match_nilpotent_elements(self, p):
        # k[X] is commutative, so its radical is the set of its nilpotent elements
        field = GF(p)
        gen = np.random.default_rng(8100 + p)
        for _ in range(40):
            n = int(gen.integers(2, 5))
            x = gen.integers(0, p, size=(n, n), dtype=np.int64)
            powers = [np.eye(n, dtype=np.int64)]
            for _ in range(n - 1):
                powers.append(powers[-1] @ x % p)
            basis = linalg.row_basis(field, np.stack(powers).reshape(n, -1)).reshape(-1, n, n)
            nilpotent = []
            for coeffs in itertools.product(range(p), repeat=basis.shape[0]):
                power = elt = np.tensordot(np.array(coeffs), basis, axes=1) % p
                for _ in range(n - 1):
                    power = power @ elt % p
                if not power.any():
                    nilpotent.append(coeffs)
            rad = matrix_algebra_radical(field, basis)
            assert field.eq(rad, linalg.row_basis(field, mat(field, nilpotent)))


def conjugated_basis(a, gen):
    """a in the basis given by the columns of a random invertible g.

    T'[i, j] = g^-1 T(g e_i, g e_j); unit, family and generators move by g^-1.
    An algebra without a family stays without one.
    """
    field = a.field
    g = linalg.random_invertible(field, gen, a.dim)
    g_inv = linalg.invert(field, g)
    half = field.canon(np.tensordot(g, a.table, axes=([0], [0])))
    prods = field.canon(np.tensordot(g, half, axes=([0], [1]))).transpose(1, 0, 2)
    table = field.canon(np.tensordot(prods, g_inv, axes=([2], [1])))

    def move(v):
        return field.canon(field.matmul(g_inv, v))

    return Algebra(
        field, table, move(a.unit),
        idempotents=[move(e) for e in a.idempotents or []], idempotents_primitive=True,
        generators=[move(x) for x in a.generators], label=f"{a.label}^g",
    )


class TestRadicalOfEndomorphismStacks:
    """matrix_algebra_radical on the hom stacks endomorphism_algebra passes it.

    End of random modules over zigzag, kA_n / rad^k and their conjugated-basis
    twins are mostly non-commutative, and the chain runs for every p <= dim M.
    """

    @pytest.mark.parametrize("p, max_dim", [(2, 6), (3, 4)])
    def test_matches_exhaustive_radical(self, p, max_dim):
        name = f"GF({p})"
        gen = np.random.default_rng(9000 + p)
        algs = [zigzag(name)] + [
            catalog.build("kA_n_mod_Rk", n=n, k=k, field=name) for n, k in ((2, 2), (3, 2), (3, 3))
        ]
        algs += [conjugated_basis(a, gen) for a in algs]
        checked = non_commutative = 0
        for trial in range(240):
            m = random_left_module(algs[trial % len(algs)], gen)
            view, homs = endomorphism_algebra(m)
            if not 2 <= view.dim <= max_dim:
                continue
            e_alg = end_algebra(view)
            rad = matrix_algebra_radical(e_alg.field, np.stack(homs))
            want = exhaustive_radical_rows(e_alg)
            assert rad.shape == want.shape and e_alg.field.eq(rad, want)
            checked += 1
            non_commutative += not is_commutative(e_alg)
        assert checked >= 80 and non_commutative >= 60


class TestProductsNearThePrimeCap:
    """Over GF(p) near the 2^20 cap a second contraction of an unreduced
    product overflows int64 once the table is dense; every product reduces
    in between."""

    P = 1048573  # the largest prime below 2^20

    def test_mul_matches_python_ints(self):
        p = self.P
        a = conjugated_basis(zigzag(f"GF({p})"), np.random.default_rng(1))
        table = [[[int(v) for v in row] for row in plane] for plane in a.table]
        gen = np.random.default_rng(2)
        cases = [([p - 1, p - 3, p - 5, p - 7], [p - 2, p - 4, p - 6, p - 8])]
        cases += [(gen.integers(0, p, 4).tolist(), gen.integers(0, p, 4).tolist()) for _ in range(20)]
        for x, y in cases:
            want = [
                sum(x[i] * y[j] * table[i][j][k] for i in range(4) for j in range(4)) % p
                for k in range(4)
            ]
            assert a.mul(np.array(x), np.array(y)).tolist() == want

    @pytest.mark.parametrize("n, layers", [(3, [6, 3, 1, 0]), (4, [10, 6, 3, 1, 0])])
    def test_conjugated_truncated_paths_validate(self, n, layers):
        a = catalog.build("kA_n_mod_Rk", n=n, k=n, field=f"GF({self.P})")
        for seed in range(1, 11):
            b = conjugated_basis(a, np.random.default_rng(seed))
            assert b.loewy_layer_dims() == layers
