"""Polynomial kernels checked against sympy as an independent oracle.

sympy is a test dependency only: the library factors on its own, and these
tests compare every factorization with sympy's.
"""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy

from jorder.fields import GF, QQ
from jorder import linalg
from jorder import polynomials as P


def poly_eval_matrix(field, coeffs, m):
    """coeffs(m) by Horner; m is a square matrix. The oracle for polynomial identities on matrices."""
    n = m.shape[0]
    out = field.zeros((n, n))
    for c in reversed(P.poly_trim(field, list(coeffs))):
        out = field.matmul(out, m)
        if c != field.zero:
            out = field.canon(field.add(out, field.smul(c, field.eye(n))))
    return field.canon(out)


def _sympy_charpoly_mod(mat_int, p):
    m = sympy.Matrix(mat_int.tolist())
    coeffs = m.charpoly().all_coeffs()  # over ZZ, highest first
    return [int(c) % p for c in reversed(coeffs)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [2, 3, 7])
def test_charpoly_matches_sympy_mod_p(seed, p):
    field = GF(p)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, p))))
    m = field.rand_mat(gen, 6, 6)
    assert P.charpoly(field, m) == _sympy_charpoly_mod(m, p)


@pytest.mark.parametrize("seed", range(4))
def test_charpoly_matches_sympy_rationals(seed):
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(50 + seed)))
    m = QQ.rand_mat(gen, 5, 5)
    sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.tolist()])
    expected = [Fraction(int(c.p), int(c.q)) for c in reversed(sm.charpoly().all_coeffs())]
    assert P.charpoly(QQ, m) == expected


def test_charpoly_of_companion_matrix_recovers_polynomial():
    field = GF(11)
    # companion of t^4 + 3t^2 + 5t + 2
    target = [2, 5, 3, 0, 1]
    n = 4
    c = field.zeros((n, n))
    for i in range(1, n):
        c[i, i - 1] = 1
    for i in range(n):
        c[i, n - 1] = field.scalar(-target[i])
    assert P.charpoly(field, c) == [field.scalar(x) for x in target]


@pytest.mark.parametrize("p,j", [(2, 1), (2, 2), (3, 1), (3, 2), (7, 2), (2, 4)])
def test_single_coefficient_agrees_with_full_charpoly(p, j):
    field = GF(p)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((p, j, 9))))
    m = field.rand_mat(gen, 6, 6)
    full = P.charpoly(field, m)
    assert P.charpoly_coefficient(field, m, j) == full[6 - j]


def test_minpoly_of_nilpotent_jordan_block():
    field = GF(5)
    n = 4
    j = field.zeros((n, n))
    for i in range(n - 1):
        j[i, i + 1] = 1
    assert P.minpoly_matrix(field, j) == [0, 0, 0, 0, 1]  # t^4
    assert P.minpoly_matrix(field, field.zeros((3, 3))) == [0, 1]  # t
    assert P.minpoly_matrix(field, field.eye(3)) == [field.scalar(-1), 1]  # t - 1


@pytest.mark.parametrize("seed", range(5))
def test_minpoly_divides_charpoly_and_annihilates(seed):
    field = GF(3)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(70 + seed)))
    m = field.rand_mat(gen, 5, 5)
    mp = P.minpoly_matrix(field, m)
    cp = P.charpoly(field, m)
    assert field.is_zero(poly_eval_matrix(field, mp, m))
    _, rem = P.poly_divmod(field, cp, mp)
    assert rem == []


@pytest.mark.parametrize("seed", range(5))
def test_xgcd_bezout_identity(seed):
    field = GF(7)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(90 + seed)))
    a = [int(x) for x in gen.integers(0, 7, size=5)] + [1]
    b = [int(x) for x in gen.integers(0, 7, size=3)] + [1]
    g, u, v = P.poly_xgcd(field, a, b)
    lhs = P.poly_add(field, P.poly_mul(field, u, a), P.poly_mul(field, v, b))
    assert lhs == g
    assert P.poly_mod(field, a, g) == [] and P.poly_mod(field, b, g) == []


@pytest.mark.parametrize("p", [2, 5])
def test_factorization_multiplies_back(p):
    field = GF(p)
    # (t^2 + 1)(t + 1)^2 expanded via the library's own multiplication
    f = P.poly_mul(field, [1, 0, 1], P.poly_mul(field, [1, 1], [1, 1]))
    factors = P.factor_poly(field, f)
    prod = [field.one]
    for fac, mult in factors:
        for _ in range(mult):
            prod = P.poly_mul(field, prod, fac)
    assert prod == P.poly_monic(field, f)


def test_factorization_rationals():
    f = [Fraction(-1), Fraction(0), Fraction(1)]  # t^2 - 1
    factors = P.factor_poly(QQ, f)
    assert len(factors) == 2
    assert all(mult == 1 and P.poly_deg(fac) == 1 for fac, mult in factors)


def test_crt_split_gives_exact_nontrivial_idempotent():
    field = GF(7)
    # z = companion matrix of t(t-1)(t-2): three coprime blocks
    f = P.poly_mul(field, [0, 1], P.poly_mul(field, [field.scalar(-1), 1], [field.scalar(-2), 1]))
    n = 3
    z = field.zeros((n, n))
    for i in range(1, n):
        z[i, i - 1] = 1
    for i in range(n):
        z[i, n - 1] = field.scalar(-f[i])
    e_poly = P.crt_split_poly(field, f, P.factor_poly(field, f))
    assert e_poly is not None
    e = poly_eval_matrix(field, e_poly, z)
    assert field.eq(field.matmul(e, e), e)
    assert not field.is_zero(e)
    assert not field.eq(e, field.eye(n))


def test_crt_split_refuses_primary_polynomials():
    field = GF(5)
    for f in ([1, 2, 1], [2, 0, 1]):  # (t+1)^2; t^2 + 2 irreducible mod 5
        assert P.crt_split_poly(field, f, P.factor_poly(field, f)) is None


@pytest.mark.parametrize("seed", range(3))
def test_poly_eval_matrix_horner_matches_naive(seed):
    field = GF(5)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(130 + seed)))
    m = field.rand_mat(gen, 4, 4)
    coeffs = [int(x) for x in gen.integers(0, 5, size=5)]
    naive = field.zeros((4, 4))
    power = field.eye(4)
    for c in coeffs:
        naive = field.add(naive, field.smul(c, power))
        power = field.matmul(power, m)
    assert field.eq(poly_eval_matrix(field, coeffs, m), field.canon(naive))


_t = sympy.Symbol("t")


def _sympy_factors(field, coeffs):
    """sympy's factorization of coeffs, in factor_poly's monic form and order."""
    if field == QQ:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], _t, domain="QQ")
        to_scalar = lambda c: Fraction(int(c.p), int(c.q))  # noqa: E731
    else:
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], _t, modulus=field.p, symmetric=False)
        to_scalar = lambda c: int(c) % field.p  # noqa: E731
    out = [
        (P.poly_monic(field, [to_scalar(c) for c in reversed(f.all_coeffs())]), int(mult))
        for f, mult in poly.factor_list()[1]
    ]
    return sorted(out, key=lambda fm: (P.poly_deg(fm[0]), [str(c) for c in fm[0]]))


def _product(field, *factors):
    out = [field.one]
    for f in factors:
        out = P.poly_mul(field, out, [field.scalar(c) for c in f])
    return out


def _power(field, f, k):
    return _product(field, *([f] * k))


def _assert_matches_sympy(field, f):
    got = P.factor_poly(field, f)
    assert got == _sympy_factors(field, f)
    assert all(type(c) is (Fraction if field == QQ else int) for g, _ in got for c in g)


PRIMES = [2, 3, 101, 1048573]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(12))
def test_factor_random_polynomials_mod_p(p, seed):
    field = GF(p)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((p, seed, 19))))
    degree = 1 + seed % 8
    f = [int(x) for x in gen.integers(0, p, size=degree)] + [int(gen.integers(1, p))]
    _assert_matches_sympy(field, f)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(8))
def test_factor_products_with_repeated_factors_mod_p(p, seed):
    field = GF(p)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((p, seed, 23))))
    pieces = []
    for _ in range(int(gen.integers(2, 4))):
        piece = [int(x) for x in gen.integers(0, p, size=int(gen.integers(1, 4)))] + [1]
        pieces += [piece] * int(gen.integers(1, 4))
    _assert_matches_sympy(field, _product(field, *pieces))


@pytest.mark.parametrize(
    "p, pieces",
    [
        (2, [([1, 1], 2)]),  # x^2 + 1: derivative zero
        (2, [([1, 1, 1], 2), ([1, 1], 3)]),
        (2, [([1, 1, 0, 1], 4), ([0, 1], 1)]),  # multiplicity p^2
        (2, [([1, 1, 1], 6), ([1, 0, 1, 1], 2), ([1, 1], 5)]),
        (3, [([1, 0, 1], 3), ([2, 1], 4)]),
        (3, [([1, 2, 0, 1], 3)]),  # (x^3 + 2x + 1)^3 = x^9 + 2x^3 + 1
        (3, [([1, 1], 9), ([2, 1], 3), ([0, 1], 1)]),
        (3, [([2, 0, 1], 6)]),  # multiplicity 2 p
        (101, [([5, 1], 101)]),  # (x + 5)^101
        (101, [([1, 0, 1], 101), ([3, 1], 2)]),
    ],
)
def test_factor_pth_powers_in_characteristic_p(p, pieces):
    field = GF(p)
    f = _product(field, *[_power(field, g, k) for g, k in pieces])
    _assert_matches_sympy(field, f)


@pytest.mark.parametrize("p", PRIMES)
def test_x4_plus_1_splits_mod_every_prime(p):
    field = GF(p)
    got = P.factor_poly(field, [1, 0, 0, 0, 1])
    assert got == _sympy_factors(field, [1, 0, 0, 0, 1])
    assert len(got) > 1 or got[0][1] > 1


def test_gf2_equal_degree_splitting_uses_the_trace():
    """Over GF(2) the (p - 1)/2 power is 0; a product of distinct
    irreducibles of one degree still splits completely."""
    field = GF(2)
    cubics = [[1, 1, 0, 1], [1, 0, 1, 1]]  # both irreducible cubics
    quartics = [[1, 1, 0, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 1, 1]]  # all irreducible quartics
    for pieces in (cubics, quartics, cubics + quartics):
        f = _product(field, *pieces)
        assert P.factor_poly(field, f) == _sympy_factors(field, f)
        assert len(P.factor_poly(field, f)) == len(pieces)


def _q(coeffs):
    return [Fraction(c) for c in coeffs]


def _cyclotomic(n):
    return [Fraction(int(c)) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(n, _t), _t).all_coeffs())]


def test_x4_plus_1_is_irreducible_over_q():
    assert P.factor_poly(QQ, _q([1, 0, 0, 0, 1])) == [(_q([1, 0, 0, 0, 1]), 1)]


@pytest.mark.parametrize(
    "coeffs",
    [
        [-10, 0, 1],  # x^2 - 10: irreducible, split mod many primes
        [1, 0, -10, 0, 1],  # Swinnerton-Dyer S_2: four modular factors or two, never one
        [576, 0, -960, 0, 352, 0, -40, 0, 1],  # Swinnerton-Dyer S_3, irreducible of degree 8
        [2, 0, 0, 0, 0, 0, 0, 0, 3],
        [0, 0, 1],
        [0, 0, 0, 5, 0, 7],
        [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],  # x^12 - 1
    ],
)
def test_factor_special_polynomials_over_q(coeffs):
    _assert_matches_sympy(QQ, _q(coeffs))


@pytest.mark.parametrize("orders", [(1, 2, 3, 4, 6, 12), (5, 10), (8, 3, 3), (7, 9), (15, 1, 1), (12, 12, 5)])
def test_factor_products_of_cyclotomics_over_q(orders):
    f = _product(QQ, *[_cyclotomic(n) for n in orders])
    _assert_matches_sympy(QQ, f)


@pytest.mark.parametrize("seed", range(12))
def test_factor_large_coefficients_over_q(seed):
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 29))))
    size = 10 ** int(gen.integers(3, 13))
    pieces = [
        [int(x) for x in gen.integers(-size, size, size=int(gen.integers(1, 4)))] + [int(gen.integers(1, 40))]
        for _ in range(int(gen.integers(2, 4)))
    ]
    _assert_matches_sympy(QQ, _product(QQ, *pieces))


@pytest.mark.parametrize("size", [10**3, 10**6, 10**9, 10**15, 10**30])
@pytest.mark.parametrize("small", [[1, 1], [1, 0, 1], [1, 1, 0, 1], [-2, 0, 0, 5]])
def test_factor_large_factor_beside_small_ones_over_q(size, small):
    """A factor with coefficients near the size of the whole product: the
    lifting must reach past the bound, or its residue is not the factor."""
    for big in ([size + 7, 1], [-(size - 3), 0, 3], [size, size + 1, 2]):
        _assert_matches_sympy(QQ, _product(QQ, big, small, [5, 1]))


@pytest.mark.parametrize("seed", range(12))
def test_factor_random_polynomials_over_q(seed):
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 31))))
    degree = 1 + seed % 8
    num = gen.integers(-30, 31, size=degree + 1)
    den = gen.integers(1, 12, size=degree + 1)
    f = [Fraction(int(a), int(b)) for a, b in zip(num, den)]
    f[-1] = f[-1] or Fraction(1)
    _assert_matches_sympy(QQ, f)


@pytest.mark.parametrize("seed", range(10))
def test_factor_rational_products_with_repeated_factors(seed):
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 37))))
    pieces = []
    for _ in range(int(gen.integers(2, 4))):
        piece = [Fraction(int(gen.integers(-9, 10)), int(gen.integers(1, 6))) for _ in range(int(gen.integers(1, 4)))]
        pieces += [piece + [Fraction(int(gen.integers(1, 5)), int(gen.integers(1, 5)))]] * int(gen.integers(1, 4))
    _assert_matches_sympy(QQ, _product(QQ, *pieces))


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)])
def test_factor_every_small_polynomial(field):
    """Every monic polynomial of degree 1-4 over a small field, against sympy."""
    p = field.p
    for degree in range(1, 5 if p < 5 else 4):
        for low in product(range(p), repeat=degree):
            _assert_matches_sympy(field, list(low) + [1])


def test_factor_is_deterministic_and_draws_from_no_shared_stream():
    """The equal-degree splits come from a fixed local seed: no global
    random state is read or advanced, so the search's streams are untouched."""
    field = GF(101)
    f = _product(field, [1, 0, 1], [3, 0, 1], [7, 0, 1], [2, 1, 1])
    py_state, np_state = random.getstate(), np.random.get_state()[1].copy()
    first = P.factor_poly(field, f)
    assert all(P.factor_poly(field, f) == first for _ in range(3))
    assert random.getstate() == py_state
    assert (np.random.get_state()[1] == np_state).all()


# ---- crt_split_poly on the int-list helpers ------------------------------------


def poly_crt_split(field, f, factors):
    """crt_split_poly on the poly_* helpers for every field, as it ran over GF(p) before the int-list port."""
    f = P.poly_monic(field, f)
    if len(factors) < 2:
        return None
    f1, m1 = factors[0]
    big_f = f1
    for _ in range(m1 - 1):
        big_f = P.poly_mul(field, big_f, f1)
    big_g, rem = P.poly_divmod(field, f, big_f)
    assert not rem
    g, _, v = P.poly_xgcd(field, big_f, big_g)
    assert g == [field.one]
    return P.poly_mod(field, P.poly_mul(field, v, big_g), f)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(10))
def test_crt_split_over_gf_p_matches_the_poly_helpers(p, seed):
    """The int-list projector equals the poly_* one on products of repeated random factors,
    scaled by a unit, and is an int list; over GF(p) the factors come from factor_poly."""
    field = GF(p)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((p, seed, 29))))
    pieces = []
    for _ in range(int(gen.integers(1, 4))):
        piece = [int(x) for x in gen.integers(0, p, size=int(gen.integers(1, 4)))] + [1]
        pieces += [piece] * int(gen.integers(1, 4))
    f = P.poly_scale(field, int(gen.integers(1, p)), _product(field, *pieces))
    factors = P.factor_poly(field, f)
    got, want = P.crt_split_poly(field, f, factors), poly_crt_split(field, f, factors)
    assert got == want
    if got is not None:
        assert all(type(c) is int for c in got)
        f1, m1 = factors[0]
        monic = P.poly_monic(field, f)
        # e = 1 mod F and e = 0 mod G
        big_f = _power(field, f1, m1)
        assert P.poly_mod(field, P.poly_sub(field, got, [field.one]), big_f) == []
        assert P.poly_mod(field, got, P.poly_divmod(field, monic, big_f)[0]) == []


def test_crt_split_over_q_keeps_the_poly_helpers():
    f = _product(QQ, [Fraction(-1), Fraction(1)], [Fraction(1, 2), Fraction(1)], [Fraction(1, 2), Fraction(1)])
    f = P.poly_scale(QQ, Fraction(3, 7), f)
    factors = P.factor_poly(QQ, f)
    got = P.crt_split_poly(QQ, f, factors)
    assert got == poly_crt_split(QQ, f, factors)
    assert got and all(type(c) is Fraction for c in got)
