"""Elimination kernels checked against independent brute-force oracles.

The rank oracle enumerates square minors and computes their determinants by
cofactor expansion in exact integer arithmetic; the solver is checked by
substitution. Both oracles are written from scratch here so they share no
code with the implementation under test.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from jorder.errors import SingularMatrix, UnsupportedField
from jorder.fields import GF, QQ, field_from_name
from jorder import linalg


def _det_int(rows):
    """Cofactor-expansion determinant of a list-of-lists of exact scalars."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det_int(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _rank_by_minors(mat, p=None):
    """Largest k such that some k x k minor is nonzero (mod p if given)."""
    m = [[int(x) if p is not None else x for x in row] for row in mat]
    nr, nc = len(m), len(m[0])
    best = 0
    for k in range(min(nr, nc), 0, -1):
        for rows_idx in combinations(range(nr), k):
            for cols_idx in combinations(range(nc), k):
                sub = [[m[i][j] for j in cols_idx] for i in rows_idx]
                d = _det_int(sub)
                if (d % p if p is not None else d) != 0:
                    return k
    return best


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_minor_oracle_gf7(seed):
    field = GF(7)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    a = field.rand_mat(gen, 5, 5)
    assert linalg.rank(field, a) == _rank_by_minors(a.tolist(), p=7)


@pytest.mark.parametrize("seed", range(4))
def test_rank_matches_minor_oracle_rationals(seed):
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1000 + seed)))
    a = QQ.rand_mat(gen, 4, 5)
    assert linalg.rank(QQ, a) == _rank_by_minors(a.tolist())


@pytest.mark.parametrize("seed", range(8))
def test_solve_by_substitution_gf5(seed):
    field = GF(5)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2000 + seed)))
    a = field.rand_mat(gen, 4, 6)
    x0 = field.rand_mat(gen, 6, 1).reshape(-1)
    b = field.matmul(a, x0)
    x = linalg.solve(field, a, b)
    assert x is not None
    assert field.eq(field.matmul(a, x), b)


def test_solve_reports_inconsistency():
    field = GF(5)
    a = field.mat([[1, 2], [2, 4]])
    assert linalg.solve(field, a, field.vec([1, 3])) is None
    # and stays consistent when the rhs lies in the column space
    assert linalg.solve(field, a, field.vec([1, 2])) is not None


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_annihilates_and_has_complementary_dimension(seed):
    field = GF(7)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3000 + seed)))
    a = field.rand_mat(gen, 4, 7)
    r, ns = linalg.rank_nullspace(field, a)
    assert r + ns.shape[1] == 7
    assert field.is_zero(field.matmul(a, ns))
    assert linalg.rank(field, ns.T) == ns.shape[1]


def test_nullspace_is_canonical_and_deterministic():
    field = GF(7)
    a = field.mat([[1, 2, 3, 4], [2, 4, 6, 1], [1, 2, 3, 0]])
    r1, n1 = linalg.rank_nullspace(field, a)
    r2, n2 = linalg.rank_nullspace(field, field.copy(a))
    assert r1 == r2 and field.eq(n1, n2)
    # echelon shape: each basis column has a unit at its own free coordinate
    _, pivots = linalg.rref(field, a)
    free = [c for c in range(4) if c not in pivots]
    for k, f in enumerate(free):
        assert n1[f, k] == 1


def test_rational_arithmetic_is_exact():
    # a matrix float arithmetic cannot invert exactly
    a = QQ.mat([[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)])
    inv = linalg.invert(QQ, a)
    assert QQ.eq(linalg.solve(QQ, a, QQ.eye(5)), inv)
    assert QQ.eq(QQ.matmul(a, inv), QQ.eye(5))


def test_invert_rejects_singular():
    field = GF(3)
    with pytest.raises(SingularMatrix):
        linalg.invert(field, field.mat([[1, 2], [2, 1 + 3]]))


@pytest.mark.parametrize("seed", range(4))
def test_kronecker_mixed_product_property(seed):
    field = GF(11)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(4000 + seed)))
    a, c = field.rand_mat(gen, 2, 3), field.rand_mat(gen, 3, 2)
    b, d = field.rand_mat(gen, 3, 2), field.rand_mat(gen, 2, 3)
    lhs = field.kron(field.matmul(a, c), field.matmul(b, d))
    rhs = field.matmul(field.kron(a, b), field.kron(c, d))
    assert field.eq(lhs, rhs)


def test_kronecker_rationals():
    a = QQ.mat([[Fraction(1, 2), 1], [0, 2]])
    b = QQ.mat([[Fraction(1, 3)]])
    k = QQ.kron(a, b)
    assert k[0, 0] == Fraction(1, 6) and k[0, 1] == Fraction(1, 3)


def test_intersect_row_spaces():
    field = GF(5)
    a = field.mat([[1, 0, 0], [0, 1, 0]])
    b = field.mat([[0, 1, 0], [0, 0, 1]])
    inter = linalg.intersect_row_spaces(field, a, b)
    assert inter.shape[0] == 1
    assert linalg.coords_in_row_basis(field, a, inter[0]) is not None
    assert linalg.coords_in_row_basis(field, b, inter[0]) is not None


def test_row_basis_is_canonical():
    field = GF(7)
    a = field.mat([[2, 4, 6], [1, 2, 3], [0, 0, 1]])
    rb = linalg.row_basis(field, a)
    assert rb.shape == (2, 3) and rb[0, 0] == 1


def test_coords_in_row_basis_roundtrip():
    field = GF(7)
    basis = field.mat([[1, 0, 5], [0, 1, 1]])  # reduced echelon form of [[1, 2, 0], [0, 1, 1]]
    v = field.matmul(field.mat([[3, 4]]), basis)
    coords = linalg.coords_in_row_basis(field, basis, v)
    assert field.eq(coords, field.mat([[3, 4]]))
    assert linalg.coords_in_row_basis(field, basis, field.mat([[0, 0, 1]])) is None
    # coordinates are read off the pivot columns, so a basis not in reduced echelon form raises
    with pytest.raises(AssertionError):
        linalg.coords_in_row_basis(field, field.mat([[1, 2, 0], [0, 1, 1]]), v)


def test_field_parsing_and_guards():
    assert field_from_name("GF(7)") is GF(7)
    assert field_from_name("Q") is QQ
    with pytest.raises(UnsupportedField):
        field_from_name("GF(4)")  # prime powers unsupported
    with pytest.raises(UnsupportedField):
        field_from_name("R")


def test_gf_scalar_embeds_rationals_when_denominator_invertible():
    field = GF(7)
    assert field.scalar(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        field.scalar(Fraction(1, 7))


# ---- differential test of the elimination kernel ----------------------------
#
# The oracle is the original per-pivot full-matrix Gauss-Jordan elimination,
# kept verbatim: it subtracts from and re-canonicalises the whole matrix at
# every pivot. Reduced row echelon form is unique, so the row-restricted
# kernel must agree with it bit for bit, and so must everything read off it.


def _oracle_rref(field, a):
    r = field.copy(field.canon(np.atleast_2d(a)))
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        pivot_row = None
        for i in range(row, nrows):
            if r[i, col] != field.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != row:
            r[[row, pivot_row]] = r[[pivot_row, row]]
        r[row] = field.canon(field.smul(field.inv_scalar(r[row, col]), r[row]))
        col_vals = field.copy(r[:, col].reshape(-1, 1))
        col_vals[row, 0] = field.zero
        r = field.canon(field.sub(r, col_vals * r[row].reshape(1, -1)))
        pivots.append(col)
        row += 1
    return r, pivots


def _oracle_rank_nullspace(field, a):
    a = np.atleast_2d(a)
    r, pivots = _oracle_rref(field, a)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    ns = field.zeros((ncols, len(free)))
    for k, f in enumerate(free):
        ns[f, k] = field.one
        for i, p in enumerate(pivots):
            ns[p, k] = field.neg(r[i, f])
    return len(pivots), field.canon(ns)


def _oracle_solve(field, a, b):
    a = np.atleast_2d(a)
    vector_rhs = np.asarray(b).ndim == 1
    bm = np.asarray(b).reshape(-1, 1) if vector_rhs else np.asarray(b)
    ncols = a.shape[1]
    aug = np.concatenate([field.canon(a), field.canon(bm)], axis=1)
    r, pivots = _oracle_rref(field, aug)
    if any(p >= ncols for p in pivots):
        return None
    x = field.zeros((ncols, bm.shape[1]))
    for i, p in enumerate(pivots):
        x[p] = r[i, ncols:]
    x = field.canon(x)
    return x.reshape(-1) if vector_rhs else x


def _oracle_complement_projection(field, rows, dim):
    if rows.shape[0]:
        reduced, pivots = _oracle_rref(field, rows)
    else:
        reduced, pivots = rows, []
    free = [c for c in range(dim) if c not in pivots]
    proj = field.zeros((len(free), dim))
    sect = field.zeros((dim, len(free)))
    for k, c in enumerate(free):
        proj[k, c] = field.one
        sect[c, k] = field.one
    for i, p in enumerate(pivots):
        for k, c in enumerate(free):
            proj[k, p] = field.scalar(-reduced[i, c])
    return field.canon(proj), sect


def _random_entries(field, gen, rows, cols):
    """Canonical random entries, with about half the cells zero."""
    m = field.rand_mat(gen, rows, cols)
    keep = gen.random((rows, cols)) < 0.5
    if field.char == 0:
        m[~keep] = field.zero
        return m
    return m * keep


def _kernel_inputs(field, gen, count, max_side):
    """Seeded inputs: the edge shapes first, then random shapes and kinds."""
    for shape in [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1)]:
        yield _random_entries(field, gen, *shape)
    yield field.zeros((2, 2))
    for _ in range(count):
        rows, cols = (int(x) for x in gen.integers(1, max_side + 1, size=2))
        kind = int(gen.integers(0, 6))
        if kind == 0:  # dense, tall or wide as drawn
            yield field.rand_mat(gen, rows, cols)
        elif kind == 1:  # rank-deficient: a product through a narrow middle
            k = int(gen.integers(0, min(rows, cols) + 1))
            left = _random_entries(field, gen, rows, k)
            right = _random_entries(field, gen, k, cols)
            yield field.matmul(left, right) if k else field.zeros((rows, cols))
        elif kind == 2:  # most columns zero
            m = _random_entries(field, gen, rows, cols)
            m[:, gen.random(cols) < 0.7] = field.zero
            yield m
        elif kind == 3:  # repeated rows
            m = _random_entries(field, gen, rows, cols)
            yield np.concatenate([m, m[::-1]], axis=0)
        elif field.char == 0:
            # non-canonical: python ints, negative ones included
            yield gen.integers(-4, 5, size=(rows, cols)).tolist()
        elif kind == 4:
            # non-canonical: negative representatives and values >= p, int64
            m = _random_entries(field, gen, rows, cols)
            yield m + field.p * gen.integers(-3, 4, size=(rows, cols))
        else:
            # non-canonical python ints in an object array
            m = _random_entries(field, gen, rows, cols)
            shifted = m + field.p * gen.integers(-3, 4, size=(rows, cols))
            yield np.array(shifted.tolist(), dtype=object)


def _assert_same(field, got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    if field.char == 0:
        assert all(type(x) is Fraction for x in got.flat)
    else:
        assert ((got >= 0) & (got < field.p)).all()


def _snapshot(a):
    return np.array(a, dtype=object, copy=True)


@pytest.mark.parametrize(
    "field, count, max_side",
    [(GF(2), 700, 9), (GF(3), 700, 9), (GF(101), 700, 9), (QQ, 250, 6)],
    ids=["GF2", "GF3", "GF101", "Q"],
)
def test_kernel_matches_full_matrix_oracle(field, count, max_side):
    gen = np.random.default_rng(7000 + field.char)
    cases = 0
    for a in _kernel_inputs(field, gen, count, max_side):
        before = _snapshot(a)
        arr = np.atleast_2d(np.asarray(a))
        ncols = arr.shape[1]

        r, pivots = linalg.rref(field, a)
        r0, pivots0 = _oracle_rref(field, a)
        assert pivots == pivots0
        _assert_same(field, r, r0)

        rk, ns = linalg.rank_nullspace(field, a)
        rk0, ns0 = _oracle_rank_nullspace(field, a)
        assert rk == rk0 == len(pivots0)
        _assert_same(field, ns, ns0)

        # one consistent and one random right-hand side, as vector and matrix
        x_true = _random_entries(field, gen, ncols, 2)
        rhs = [field.matmul(field.canon(arr), x_true), _random_entries(field, gen, arr.shape[0], 2)]
        for b in rhs + [b[:, 0] for b in rhs]:
            b_before = _snapshot(b)
            x, x0 = linalg.solve(field, a, b), _oracle_solve(field, a, b)
            assert (x is None) == (x0 is None)
            if x0 is not None:
                _assert_same(field, x, x0)
            assert np.array_equal(_snapshot(b), b_before)

        echelon = r0[: len(pivots0)]
        rows_before = _snapshot(echelon)
        proj, sect = linalg.complement_projection(field, echelon, ncols)
        proj0, sect0 = _oracle_complement_projection(field, echelon, ncols)
        _assert_same(field, proj, proj0)
        _assert_same(field, sect, sect0)
        assert np.array_equal(_snapshot(echelon), rows_before)
        # the raw matrix is accepted only when it is already its own reduced echelon form
        raw = field.canon(arr)
        if raw.shape != echelon.shape or not np.array_equal(raw, echelon):
            with pytest.raises(AssertionError):
                linalg.complement_projection(field, raw, ncols)

        assert np.array_equal(_snapshot(a), before)
        cases += 1
    assert cases == count + 7


# ---- both elimination loops against the oracle --------------------------------
#
# rref runs one of three loops, chosen by the canonical input: dict rows of
# the nonzeros for inputs with at most two nonzeros a row (or column) and at
# most one cell in eight nonzero, then Python list rows over Q and for GF(p)
# inputs with few nonzeros, numpy row blocks otherwise. Each loop must give
# the oracle's reduced form on every input, on both sides of each boundary,
# so none can hide behind the selection.


def _with_nonzeros(field, gen, rows, cols, count):
    """A rows x cols matrix with exactly count canonical nonzero entries."""
    m = field.zeros((rows, cols))
    cells = gen.choice(rows * cols, size=count, replace=False)
    if field.char == 0:
        for k in cells.tolist():
            m.flat[k] = Fraction(int(gen.choice([-1, 1]) * gen.integers(1, 10)), int(gen.integers(1, 8)))
    else:
        m.flat[cells] = gen.integers(1, field.p, size=count)
    return m


def _unreduced(field, gen, m):
    """m with other representatives: multiples of p added (negative ones too), or python ints over Q."""
    if field.char == 0:
        return [[x if x.denominator != 1 else int(x) for x in row] for row in m.tolist()]
    return m + field.p * gen.integers(-3, 4, size=m.shape)


def _loop_inputs(field, gen):
    """Inputs on both sides of the row-loop threshold, and shaped like the library's systems."""
    n = linalg._ROW_KERNEL_NNZ
    for count in (n - 1, n, n + 1):
        for rows, cols in ((12, 12), (9, 40), (60, 30)):
            m = _with_nonzeros(field, gen, rows, cols, count)
            yield m
            yield _unreduced(field, gen, m)
    # over Q the large shapes are smaller: the oracle re-canonicalises the
    # whole Fraction matrix at every pivot, and dense entries grow
    large = field.char != 0
    # tall and sparse like hom_space's systems: one or two nonzeros a row
    for rows, cols in ((200, 60) if large else (80, 30), (90, 30)):
        m = field.zeros((rows, cols))
        for i in range(rows):
            m[i] = _with_nonzeros(field, gen, 1, cols, int(gen.integers(1, 3)))[0]
        yield m
        yield _unreduced(field, gen, m)
    dense = field.rand_mat(gen, *((40, 60) if large else (16, 24)))
    yield dense
    yield dense.T
    yield _unreduced(field, gen, dense)
    # zero rows and columns, and a rank-deficient dense product
    m = field.rand_mat(gen, 30, 24)
    m[::3] = field.zero
    m[:, 1::4] = field.zero
    yield m
    yield field.matmul(field.rand_mat(gen, 36, 5), field.rand_mat(gen, 5, 36))
    # the sparse rule's edges: nnz = 2 max(rows, cols) and one more (40 x 40),
    # and 8 nnz = rows * cols and one more (16 x 12)
    for rows, cols, count in ((40, 40, 80), (40, 40, 81), (16, 12, 24), (16, 12, 25)):
        m = _with_nonzeros(field, gen, rows, cols, count)
        yield m
        yield _unreduced(field, gen, m)
    # shapes of the library's sparse systems: a radical stack, a commutation
    # system, and a Hom system with 1.5 nonzeros a row (smaller over Q)
    yield _with_nonzeros(field, gen, 384, 16, 40)
    yield _with_nonzeros(field, gen, 12, 324, 27)
    rows, cols = (576, 324) if large else (96, 54)
    m = field.zeros((rows, cols))
    for i in range(rows):
        m[i] = _with_nonzeros(field, gen, 1, cols, 1 + i % 2)[0]
    yield m
    # a bidiagonal block leaves each pivot row with the next pivot column
    # filled, so only the back-substitution reduces it; plus one dense row
    m = field.zeros((31, 60))
    for i in range(30):
        m[i, i:i + 2] = _with_nonzeros(field, gen, 1, 2, 2)[0]
    m[30, :31] = _with_nonzeros(field, gen, 1, 31, 31)[0]
    yield m
    yield m[::-1]
    yield field.zeros((30, 24))
    yield field.zeros((0, 40))
    yield field.zeros((40, 0))


_LOOP_FIELDS = [GF(2), GF(3), GF(101), GF(1048573), QQ]


@pytest.mark.parametrize("field", _LOOP_FIELDS, ids=lambda f: f.name)
def test_both_loops_match_the_full_matrix_oracle(field):
    gen = np.random.default_rng(9000 + field.char)
    loops = {
        "rref": linalg.rref,
        "rows": lambda f, a: linalg._rref_rows(f, f.canon(np.atleast_2d(a))),
        "array": lambda f, a: linalg._rref_array(f, f.canon(np.atleast_2d(a))),
        "sparse": lambda f, a: linalg._rref_sparse(f, f.canon(np.atleast_2d(a))),
    }
    cases = 0
    for a in [*_kernel_inputs(field, gen, 60, 9), *_loop_inputs(field, gen)]:
        before = _snapshot(a)
        r0, pivots0 = _oracle_rref(field, a)
        for name, loop in loops.items():
            r, pivots = loop(field, a)
            assert pivots == pivots0, name
            _assert_same(field, r, r0)
        assert np.array_equal(_snapshot(a), before)
        cases += 1
    assert cases == 67 + 18 + 4 + 3 + 2 + 8 + 3 + 2 + 3


@pytest.mark.parametrize("field", _LOOP_FIELDS, ids=lambda f: f.name)
def test_rref_takes_the_row_loop_over_q_and_for_sparse_prime_field_inputs(field, monkeypatch):
    """The loop is chosen by the canonical input alone, its nonzeros counted
    after reduction mod p: the dict-row loop when nnz <= 2 max(rows, cols)
    and 8 nnz <= rows * cols, over GF(p) and Q alike; otherwise over Q the
    list-row loop, and over GF(p) the list-row loop up to _ROW_KERNEL_NNZ
    nonzeros and the array loop beyond. A matrix with no nonzero entry after
    reduction takes no loop. Each boundary is tried on both sides."""
    taken = []
    for name in ("_rref_sparse", "_rref_rows", "_rref_array"):
        monkeypatch.setattr(linalg, name, lambda f, r, loop=getattr(linalg, name), name=name: taken.append(name) or loop(f, r))
    gen = np.random.default_rng(9500 + field.char)
    n = linalg._ROW_KERNEL_NNZ
    sparse, rows, array = "_rref_sparse", "_rref_rows", "_rref_array"
    for shape, count, prime_loop in (
        ((20, 24), 0, None), ((20, 24), 1, sparse),
        ((40, 40), 80, sparse), ((40, 40), 81, rows),  # nnz = 2 max(rows, cols), below 128
        ((100, 100), 200, sparse), ((100, 100), 201, array),  # nnz = 2 max(rows, cols), above 128
        ((8, 8), 8, sparse), ((8, 8), 9, rows),  # 8 nnz = rows * cols, below 128
        ((8, 144), 144, sparse), ((8, 144), 145, array),  # 8 nnz = rows * cols, above 128
        ((20, 24), n, rows), ((20, 24), n + 1, array), ((20, 24), 20 * 24, array),
    ):
        m = _with_nonzeros(field, gen, *shape, count)
        for a in (m, _unreduced(field, gen, m)):
            taken.clear()
            linalg.rref(field, a)
            expected = [] if prime_loop is None else [rows if field.char == 0 and prime_loop == array else prime_loop]
            assert taken == expected, (shape, count)


@pytest.mark.parametrize("field", _LOOP_FIELDS, ids=lambda f: f.name)
def test_zero_systems_take_no_loop_and_match_the_oracle(field, monkeypatch):
    """A matrix with no nonzero entry after canon, empty or zero, is its own
    reduced form: rref returns it with no pivots, as the oracle does, in a
    fresh array, without entering an elimination loop."""
    for name in ("_rref_sparse", "_rref_rows", "_rref_array"):
        monkeypatch.setattr(linalg, name, lambda f, r, name=name: pytest.fail(f"{name} ran on a zero system"))
    gen = np.random.default_rng(9600 + field.char)
    zeros = [field.zeros(shape) for shape in [(0, 4), (4, 0), (0, 0), (1, 1), (3, 5), (6, 2)]]
    for a in [*zeros, *(_unreduced(field, gen, z) for z in zeros[3:])]:
        before = _snapshot(a)
        r, pivots = linalg.rref(field, a)
        r0, pivots0 = _oracle_rref(field, a)
        assert pivots == pivots0 == []
        _assert_same(field, r, r0)
        assert not isinstance(a, np.ndarray) or not np.shares_memory(r, a)
        r[...] = field.one
        assert np.array_equal(_snapshot(a), before)
    if field.char:  # every entry a nonzero multiple of p before canon
        a = field.p * gen.integers(1, 4, size=(3, 4)) * gen.choice([-1, 1], size=(3, 4))
        r, pivots = linalg.rref(field, a)
        assert pivots == [] and not r.any() and np.count_nonzero(a) == 12


# ---- differential test of the echelon read ----------------------------------
#
# The oracle is the solve-based coordinate routine, kept verbatim: it runs a
# fresh elimination of the augmented system [basis^T | vectors^T]. Reduced
# echelon rows are independent, so the coordinates are unique and the
# pivot-column read must agree with it exactly, None included.


def _oracle_coords_in_row_basis(field, basis_rows, vectors):
    """Coordinates of the given row vectors in a row basis; None if outside."""
    basis_rows = np.atleast_2d(basis_rows)
    vm = np.atleast_2d(vectors)
    sol = linalg.solve(field, basis_rows.T, vm.T)
    return None if sol is None else sol.T


def _echelon_read_cases(field, gen, count, max_side):
    """(basis, vectors) pairs: vectors inside the span (also unreduced), outside it, zero, or none."""
    for ncols in (0, 3):
        basis = field.zeros((0, ncols))
        yield basis, field.zeros((2, ncols))
        yield basis, field.zeros((0, ncols))
        if ncols:
            yield basis, _random_entries(field, gen, 2, ncols)
    for a in _kernel_inputs(field, gen, count, max_side):
        basis = linalg.row_basis(field, a)
        r, ncols = basis.shape
        k = int(gen.integers(1, 4))
        inside = field.matmul(_random_entries(field, gen, k, r), basis) if r else field.zeros((k, ncols))
        yield basis, inside
        if field.char:  # unreduced representatives, as raw int64 products give
            yield basis, inside + field.p * gen.integers(-3, 4, size=inside.shape)
        yield basis, field.zeros((k, ncols))
        # mostly outside the span unless the basis is full rank
        yield basis, _random_entries(field, gen, k, ncols)
        yield basis, np.concatenate([inside, _random_entries(field, gen, 1, ncols)])


@pytest.mark.parametrize(
    "field, count, max_side",
    [(GF(2), 300, 9), (GF(3), 300, 9), (GF(101), 300, 9), (QQ, 120, 6)],
    ids=["GF2", "GF3", "GF101", "Q"],
)
def test_echelon_read_matches_solve_oracle(field, count, max_side):
    gen = np.random.default_rng(9000 + field.char)
    outcomes = set()
    for basis, vectors in _echelon_read_cases(field, gen, count, max_side):
        before = _snapshot(vectors)
        got = linalg.coords_in_row_basis(field, basis, vectors)
        want = _oracle_coords_in_row_basis(field, basis, vectors)
        assert (got is None) == (want is None)
        if want is not None:
            _assert_same(field, got, want)
        assert np.array_equal(_snapshot(vectors), before)
        outcomes.add(want is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("field", [GF(2), GF(7), QQ], ids=["GF2", "GF7", "Q"])
@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1, 0], [0, 1, 1]],  # pivot column 1 not cleared in row 0
        [[0, 1, 0], [1, 0, 0]],  # pivots out of order
        [[1, 0, 0], [1, 0, 0]],  # repeated pivot
        [[1, 0, 0], [0, 0, 0]],  # zero row
        [[0, 0, 0]],  # lone zero row
        [[1, 0, 1], [0, 0, 2]],  # pivot entry not one (over GF(2) a zero row)
        [[], []],  # zero rows of width zero
    ],
)
def test_echelon_read_rejects_non_echelon_basis(field, rows):
    basis = field.mat(rows)
    with pytest.raises(AssertionError):
        linalg.echelon_pivots(field, basis)
    with pytest.raises(AssertionError):
        linalg.coords_in_row_basis(field, basis, field.zeros((1, 3)))
    with pytest.raises(AssertionError):
        linalg.complement_projection(field, basis, 3)


# ---- differential test of the field products ----------------------------------
#
# The oracles are the products the library took before every product went
# through the field, kept verbatim: np.dot, np.tensordot and np.matmul on
# object arrays, where Fraction does the arithmetic. Over Q the field
# multiplies integer numerators instead; Fraction normalises, so every entry
# must equal the oracle's, and every entry must be a Fraction.

_LARGE_PRIMES = [1000003, 1000033, 1000037, 1000039, 998244353, 2147483647]
_KINDS = ["small", "coprime", "huge", "signed", "mixed"]


def _entry(gen, kind):
    if kind == "small":
        return Fraction(int(gen.choice([0, 0, 0, 1, -1, 2])))
    if kind == "coprime":  # the lcm of the denominators grows past int64
        return Fraction(int(gen.integers(-50, 51)), int(gen.choice(_LARGE_PRIMES)))
    if kind == "huge":  # numerators past the int64 switch
        return Fraction(int(gen.integers(-(1 << 40), 1 << 40)) << int(gen.integers(0, 30)))
    if kind == "signed":
        return Fraction(int(gen.integers(-9, 10)), int(gen.integers(1, 6)))
    value = int(gen.integers(-9, 10))  # mixed: the types raw products and literals leave
    return [value, np.int64(value), Fraction(value, int(gen.integers(1, 4)))][int(gen.integers(0, 3))]


def _rational_operand(gen, shape, kind):
    out = np.empty(shape, dtype=object)
    for index in np.ndindex(*shape):
        out[index] = _entry(gen, kind)
    return out


def _assert_rational(got, want):
    got = np.asarray(got)  # a full contraction gives a Fraction, not an array
    assert got.dtype == object and got.shape == np.shape(want)
    assert all(type(x) is Fraction for x in got.flat)
    assert (got == want).all()


# (shape of a, shape of b, axes): axes None is matmul against np.dot
_PRODUCT_SHAPES = [
    ((4,), (4,), None),
    ((3, 4), (4,), None),
    ((4,), (4, 2), None),
    ((3, 4), (4, 2), None),
    ((2, 3, 4), (4, 5), None),
    ((3, 4), (2, 4, 5), None),
    ((2, 3, 4), (2, 4, 3), None),
    ((2, 3, 4), (4,), None),
    ((2, 0), (0, 3), None),
    ((0, 3), (3, 2), None),
    ((2, 3), (3, 0), None),
    ((0,), (0,), None),
    ((3, 2, 0), (0, 4), None),
    ((3, 4), (3, 2), (0, 0)),
    ((3, 4), (4, 2), 1),
    ((2, 3, 4), (5, 4, 3), ([1, 2], [2, 1])),
    ((2, 3, 4), (3, 4), 2),
    ((3, 3), (3, 3), ([0, 1], [1, 0])),
    ((2, 0, 4), (5, 4, 0), ([1, 2], [2, 1])),
    ((4, 2), (4, 0), ([0], [0])),
]


@pytest.mark.parametrize("kind", _KINDS)
def test_rational_products_match_object_dtype_oracle(kind):
    gen = np.random.default_rng(7100 + _KINDS.index(kind))
    for _ in range(3):
        for shape_a, shape_b, axes in _PRODUCT_SHAPES:
            a, b = _rational_operand(gen, shape_a, kind), _rational_operand(gen, shape_b, kind)
            if axes is None:
                _assert_rational(QQ.matmul(a, b), np.dot(a, b))
            else:
                _assert_rational(QQ.tensordot(a, b, axes), np.tensordot(a, b, axes))


@pytest.mark.parametrize("kind", _KINDS)
def test_stacked_rational_products_match_np_matmul(kind):
    """The stacked np.matmul sites read as matmul against a stack."""
    gen = np.random.default_rng(7200 + _KINDS.index(kind))
    for k, n in [(3, 4), (2, 0), (0, 3)]:
        f, mats = _rational_operand(gen, (n, n), kind), _rational_operand(gen, (k, n, n), kind)
        _assert_rational(QQ.matmul(f, mats).transpose(1, 0, 2), np.matmul(f, mats))
        _assert_rational(QQ.matmul(mats, f), np.matmul(mats, f))


def test_rational_products_over_empty_axes_are_fractions():
    empty = [
        QQ.matmul(QQ.zeros((2, 0)), QQ.zeros((0, 3))),
        QQ.matmul(QQ.zeros((4, 2, 0)), QQ.zeros((0, 3))),
        QQ.matmul(QQ.zeros((2, 0)), QQ.zeros((4, 0, 3))).transpose(1, 0, 2),
        QQ.tensordot(QQ.zeros((2, 0)), QQ.zeros((0, 3)), axes=1),
    ]
    for got in empty:
        _assert_rational(got, np.zeros(got.shape, dtype=np.int64))


def test_rational_canon_keeps_fractions_in_a_fresh_array():
    a = np.array([Fraction(1, 3), 2, np.int64(-4)], dtype=object)
    c = QQ.canon(a)
    assert c[0] is a[0]  # Fraction is immutable, so it is kept, not rebuilt
    assert all(type(x) is Fraction for x in c) and list(c) == [Fraction(1, 3), 2, -4]
    assert not np.shares_memory(c, a)
    c[0] = Fraction(5)
    assert a[0] == Fraction(1, 3)


_INT64_MAX = (1 << 63) - 1  # 7^2 * 73 * 127 * 337 * 92737 * 649657


@pytest.mark.parametrize(
    "a, b, axes, exact",
    [
        ([[21870289]], [[421730688463]], None, _INT64_MAX),  # the int64 path, at its edge
        ([[-21870289]], [[421730688463]], None, -_INT64_MAX),
        ([[1 << 32]], [[1 << 31]], None, 1 << 63),  # one past it: Python ints
        ([[-(1 << 32)]], [[1 << 31]], None, -(1 << 63)),
        ([[1 << 31, 1 << 31]], [[1 << 31], [1 << 31]], None, 1 << 63),  # the sum reaches 2^63
        ([[1 << 31, -(1 << 31)]], [[1 << 31], [1 << 31]], None, 0),
        # two contracted axes: the extent is 4, not the last axis's 2
        (np.full((1, 2, 2), 1 << 31).tolist(), np.full((1, 2, 2), 1 << 30).tolist(), ([1, 2], [2, 1]), 1 << 63),
        (np.full((2, 2, 1), 1 << 31).tolist(), np.full((2, 2, 1), 1 << 30).tolist(), ([0, 1], [1, 0]), 1 << 63),
    ],
)
def test_rational_products_at_the_int64_switch(a, b, axes, exact):
    a, b = QQ.canon(np.array(a, dtype=object)), QQ.canon(np.array(b, dtype=object))
    want = np.dot(a, b) if axes is None else np.tensordot(a, b, axes)
    got = QQ.matmul(a, b) if axes is None else QQ.tensordot(a, b, axes)
    _assert_rational(got, want)
    assert [int(x) for x in np.asarray(got).flat] == [exact]


def test_rational_products_of_numpy_integer_fractions_are_exact():
    """A Fraction built from np.int64 values holds numpy integers, whose products wrap at 2^63."""
    a = np.array([[Fraction(np.int64(1 << 40)), Fraction(np.int64(3), np.int64(2))]], dtype=object)
    _assert_rational(QQ.matmul(a, a.T), np.array([[Fraction((1 << 80) * 4 + 9, 4)]], dtype=object))


@pytest.mark.parametrize("field", [GF(2), GF(101), GF(1048573)], ids=["GF2", "GF101", "GF1048573"])
def test_prime_field_products_reduce_the_integer_products(field):
    gen = np.random.default_rng(7300 + field.p % 1000)
    for shape_a, shape_b, axes in _PRODUCT_SHAPES:
        a = gen.integers(0, field.p, size=shape_a, dtype=np.int64)
        b = gen.integers(0, field.p, size=shape_b, dtype=np.int64)
        if axes is None:
            got, want = field.matmul(a, b), field.canon(np.dot(a, b))
        else:
            got, want = field.tensordot(a, b, axes), field.canon(np.tensordot(a, b, axes))
        assert got.dtype == np.int64 and got.shape == want.shape and (got == want).all()


def _numpy_entry(gen):
    """Entries whose parts are numpy integers: np.int64, and Fractions built from np.int64."""
    value, den = np.int64(gen.integers(-9, 10)), np.int64(gen.integers(1, 4))
    return [value, Fraction(value), Fraction(value, den), Fraction(int(value), int(den))][int(gen.integers(0, 4))]


def _python_fraction(x):
    x = Fraction(x)
    return Fraction(int(x.numerator), int(x.denominator))


@pytest.mark.parametrize("kind", _KINDS + ["numpy"])
def test_rational_product_entries_are_fractions_of_python_ints(kind):
    """Every entry of a product over Q is a Fraction whose parts are Python
    ints, numpy-integer inputs included, and equals the entrywise Fraction
    sum; a full contraction gives a Fraction, as np.dot gives a scalar."""
    gen = np.random.default_rng(7400 + (_KINDS + ["numpy"]).index(kind))
    exact = np.frompyfunc(_python_fraction, 1, 1)
    for _ in range(3):
        for shape_a, shape_b, axes in _PRODUCT_SHAPES:
            a, b = np.empty(shape_a, dtype=object), np.empty(shape_b, dtype=object)
            for out in (a, b):
                for index in np.ndindex(*out.shape):
                    out[index] = _numpy_entry(gen) if kind == "numpy" else _entry(gen, kind)
            ea, eb = np.asarray(exact(a), dtype=object), np.asarray(exact(b), dtype=object)
            if axes is None:
                got, want = QQ.matmul(a, b), np.dot(ea, eb)
            else:
                got, want = QQ.tensordot(a, b, axes), np.tensordot(ea, eb, axes)
            if np.ndim(want) == 0:
                assert type(got) is Fraction
            _assert_rational(got, want)
            assert all(type(x.numerator) is int and type(x.denominator) is int for x in np.asarray(got).flat)


# ---- the numpy helpers against the expressions they replaced --------------------


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(101), GF(1048573)], ids=lambda f: f.name)
def test_prime_field_identity_is_np_eye_reduced(field):
    for n in range(6):
        got = field.eye(n)
        assert got.dtype == np.int64 and np.array_equal(got, np.eye(n, dtype=np.int64) % field.p)
        again = field.eye(n)
        assert not np.shares_memory(got, again)
        got[...] = 5  # a fresh array: the next identity is unchanged
        assert np.array_equal(field.eye(n), again)


def _old_echelon_pivots(field, rows):
    """echelon_pivots with np.diff, as it was."""
    rows = np.atleast_2d(rows)
    nonzero = rows.astype(bool)
    r, ncols = rows.shape
    pivots = nonzero.argmax(axis=1) if ncols else np.full(r, ncols)
    if not ((pivots < ncols).all() and (np.diff(pivots) > 0).all()
            and (rows[np.arange(r), pivots] == field.one).all()
            and np.count_nonzero(nonzero[:, pivots]) == r):
        raise AssertionError("basis rows are not in reduced echelon form")
    return pivots


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(101), QQ], ids=lambda f: f.name)
def test_echelon_pivots_match_the_np_diff_expression(field):
    gen = np.random.default_rng(7500 + field.char)
    cases = [field.zeros((0, 0)), field.zeros((0, 3)), field.zeros((2, 0)), field.zeros((1, 3)),
             field.mat([[1, 0, 2]]), field.mat([[0, 1, 1]]), field.mat([[1, 0], [1, 0]]), field.mat([[0, 1], [1, 0]])]
    for a in _kernel_inputs(field, gen, 200, 7):
        basis = linalg.row_basis(field, a)
        cases += [basis, basis[::-1], basis[:1]]
        if basis.shape[0]:
            swapped = basis.copy()
            swapped[0] = field.add(swapped[0], swapped[-1])
            cases.append(swapped)
    outcomes = set()
    for rows in cases:
        try:
            want = _old_echelon_pivots(field, rows)
        except AssertionError:
            with pytest.raises(AssertionError):
                linalg.echelon_pivots(field, rows)
            outcomes.add(False)
            continue
        got = linalg.echelon_pivots(field, rows)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        outcomes.add(True)
    assert outcomes == {True, False}


# ---- the projection onto a quotient, from one reversed elimination ----------------


def _row_set_kind(field, h):
    rows, cols = h.shape
    if not rows:
        return "no rows"
    if not cols:
        return "no columns"
    rank = linalg.rank(field, h)
    return "zero" if rank == 0 else "full rank" if rank == rows else "rank-deficient"


@pytest.mark.parametrize(
    "field, count, max_side",
    [(GF(2), 400, 9), (GF(3), 400, 9), (GF(101), 400, 9), (QQ, 150, 6)],
    ids=["GF2", "GF3", "GF101", "Q"],
)
def test_quotient_projection_is_the_complement_of_the_common_kernel(field, count, max_side):
    """The lemma in quotient_projection's docstring: the projection and
    section equal complement_projection of the canonical basis of the common
    kernel W of the rows, which takes a nullspace and a second elimination."""
    gen = np.random.default_rng(7600 + field.char)
    inputs = list(_kernel_inputs(field, gen, count, max_side))
    inputs += [field.eye(k) for k in (1, 4)] + [field.zeros((3, 5)), field.zeros((0, 4)), field.zeros((4, 0))]
    kinds = set()
    for h in inputs:
        h = field.canon(np.atleast_2d(h))
        before = _snapshot(h)
        proj, sect = linalg.quotient_projection(field, h)
        n = h.shape[1]
        want = linalg.complement_projection(field, linalg.row_basis(field, linalg.nullspace(field, h).T), n)
        _assert_same(field, proj, want[0])
        _assert_same(field, sect, want[1])
        assert np.array_equal(_snapshot(h), before)
        kinds.add(_row_set_kind(field, h))
    assert kinds == {"no rows", "no columns", "zero", "full rank", "rank-deficient"}
