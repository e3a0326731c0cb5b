"""Polynomial kernels checked against sympy as an independent oracle.

sympy is a test dependency only: the library factors on its own, and these
tests compare every factorization, projector and coefficient-list helper
with sympy's, over GF(p) and over Q.
"""

import functools
import itertools
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy

from jorder.fields import GF, QQ
from jorder import linalg
from jorder import polynomials as P

from oracles import minpoly_matrix


_t = sympy.Symbol("t")


def _sym(field, coeffs):
    """coeffs, lowest degree first, as a sympy Poly over GF(p) or QQ."""
    if field == QQ:
        high_first = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in reversed(coeffs)]
        return sympy.Poly(high_first or [0], _t, domain="QQ")
    return sympy.Poly([int(c) for c in reversed(coeffs)] or [0], _t, modulus=field.p, symmetric=False)


def _unsym(field, poly):
    """A sympy Poly back to a trimmed coefficient list of field scalars, lowest degree first."""
    if poly.is_zero:
        return []
    if field == QQ:
        return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return [int(c) % field.p for c in reversed(poly.all_coeffs())]


def poly_eval_matrix(field, coeffs, m):
    """coeffs(m) by Horner; m is a square matrix. The oracle for polynomial identities on matrices."""
    n = m.shape[0]
    out = field.zeros((n, n))
    for c in reversed(coeffs):
        out = field.matmul(out, m)
        if c != field.zero:
            out = field.canon(field.add(out, field.smul(c, field.eye(n))))
    return field.canon(out)


def _sympy_charpoly_mod(mat_int, p):
    m = sympy.Matrix(mat_int.tolist())
    coeffs = m.charpoly().all_coeffs()  # over ZZ, highest first
    return [int(c) % p for c in reversed(coeffs)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [2, 3, 7, 101, 1048573])
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
    assert minpoly_matrix(field, j) == [0, 0, 0, 0, 1]  # t^4
    assert minpoly_matrix(field, field.zeros((3, 3))) == [0, 1]  # t
    assert minpoly_matrix(field, field.eye(3)) == [field.scalar(-1), 1]  # t - 1


@pytest.mark.parametrize("seed", range(5))
def test_minpoly_divides_charpoly_and_annihilates(seed):
    field = GF(3)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(70 + seed)))
    m = field.rand_mat(gen, 5, 5)
    mp = minpoly_matrix(field, m)
    cp = P.charpoly(field, m)
    assert field.is_zero(poly_eval_matrix(field, mp, m))
    assert _sym(field, cp).rem(_sym(field, mp)).is_zero


@pytest.mark.parametrize("field", [GF(7), QQ], ids=str)
@pytest.mark.parametrize("seed", range(5))
def test_cofactors_bezout_identity(field, seed):
    """s a + t b = 1 with deg s < deg b and deg t < deg a, for a and b made coprime by their gcd."""
    m = field.char or None
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(90 + seed)))
    a = [field.scalar(Fraction(int(x), int(y))) for x, y in zip(gen.integers(-6, 7, 5), gen.integers(1, 6, 5))] + [1]
    b = [field.scalar(Fraction(int(x), int(y))) for x, y in zip(gen.integers(-6, 7, 3), gen.integers(1, 6, 3))] + [1]
    g = _unsym(field, _sym(field, a).gcd(_sym(field, b)))
    a, b = _unsym(field, _sym(field, a).quo(_sym(field, g))), _unsym(field, _sym(field, b).quo(_sym(field, g)))
    s, t = P._cofactors(a, b, m)
    assert _unsym(field, _sym(field, s) * _sym(field, a) + _sym(field, t) * _sym(field, b)) == [1]
    assert len(s) < len(b) and len(t) < len(a)


@pytest.mark.parametrize("p", [2, 5])
def test_factorization_multiplies_back(p):
    field = GF(p)
    # (t^2 + 1)(t + 1)^2 expanded via the library's own multiplication
    f = P._mul([1, 0, 1], P._mul([1, 1], [1, 1], p), p)
    factors = P.factor_poly(field, f)
    prod = [field.one]
    for fac, mult in factors:
        for _ in range(mult):
            prod = P._mul(prod, fac, p)
    assert prod == P._monic(f, p)


def test_factorization_rationals():
    f = [Fraction(-1), Fraction(0), Fraction(1)]  # t^2 - 1
    factors = P.factor_poly(QQ, f)
    assert len(factors) == 2
    assert all(mult == 1 and len(fac) == 2 for fac, mult in factors)


def test_crt_split_gives_exact_nontrivial_idempotent():
    field = GF(7)
    # z = companion matrix of t(t-1)(t-2): three coprime blocks
    f = P._mul([0, 1], P._mul([6, 1], [5, 1], 7), 7)
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


def _sympy_factors(field, coeffs):
    """sympy's factorization of coeffs, in factor_poly's monic form and order."""
    out = [(_unsym(field, f.monic()), int(mult)) for f, mult in _sym(field, coeffs).factor_list()[1]]
    return sorted(out, key=lambda fm: (len(fm[0]), [str(c) for c in fm[0]]))


def _product(field, *factors):
    out = [field.one]
    for f in factors:
        out = P._mul(out, [field.scalar(c) for c in f], field.char or None)
    return [field.scalar(c) for c in out]


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


# ---- crt_split_poly against sympy's extended gcd ---------------------------------


def sympy_crt_split(field, f, factors):
    """The projector t G mod f, with s F + t G = 1 from sympy's gcdex, F the first factor's power and G = f / F."""
    if len(factors) < 2:
        return None
    f1, m1 = factors[0]
    monic = _sym(field, f).monic()
    big_f = _sym(field, f1) ** m1
    big_g, rem = monic.div(big_f)
    assert rem.is_zero
    _, t, g = big_f.gcdex(big_g)
    assert _unsym(field, g) == [1]
    return _unsym(field, (t * big_g).rem(monic))


def _assert_crt_split_matches_sympy(field, f):
    """crt_split_poly equals the sympy projector, has field-scalar coefficients, and is 1 mod F and 0 mod G."""
    factors = P.factor_poly(field, f)
    got = P.crt_split_poly(field, f, factors)
    assert got == sympy_crt_split(field, f, factors)
    if got is not None:
        assert all(type(c) is (Fraction if field == QQ else int) for c in got)
        f1, m1 = factors[0]
        big_f = _sym(field, f1) ** m1
        e = _sym(field, got)
        assert (e - 1).rem(big_f).is_zero
        assert e.rem(_sym(field, f).monic().quo(big_f)).is_zero
    return got


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(10))
def test_crt_split_over_gf_p_matches_sympy(p, seed):
    """Products of repeated random factors, scaled by a unit; the factors come from factor_poly."""
    field = GF(p)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((p, seed, 29))))
    pieces = []
    for _ in range(int(gen.integers(1, 4))):
        piece = [int(x) for x in gen.integers(0, p, size=int(gen.integers(1, 4)))] + [1]
        pieces += [piece] * int(gen.integers(1, 4))
    unit = int(gen.integers(1, p))
    _assert_crt_split_matches_sympy(field, [c * unit % p for c in _product(field, *pieces)])


def test_crt_split_over_q_matches_sympy():
    f = _product(QQ, [Fraction(-1), Fraction(1)], [Fraction(1, 2), Fraction(1)], [Fraction(1, 2), Fraction(1)])
    assert _assert_crt_split_matches_sympy(QQ, [Fraction(3, 7) * c for c in f])


@pytest.mark.parametrize("seed", range(10))
def test_crt_split_over_q_random_products_match_sympy(seed):
    """Two or three distinct random rational pieces, repeated and scaled by a rational unit."""
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 41))))
    pieces = []
    for _ in range(int(gen.integers(2, 4))):
        size = 10 ** int(gen.integers(1, 7))
        piece = [Fraction(int(gen.integers(-size, size)), int(gen.integers(1, size))) for _ in range(int(gen.integers(1, 4)))]
        pieces += [piece + [Fraction(int(gen.integers(1, 9)), int(gen.integers(1, 9)))]] * int(gen.integers(1, 3))
    unit = Fraction(int(gen.integers(-50, 50)) or 1, int(gen.integers(1, 50)))
    assert _assert_crt_split_matches_sympy(QQ, [unit * c for c in _product(QQ, *pieces)]) is not None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
@pytest.mark.parametrize("coeffs", [[1, 5], [-1, 1], [3, 0, 10]])
def test_factor_reduces_unreduced_and_negative_representatives_mod_p(p, coeffs):
    """Coefficients are reduced before the trim: 1 + 5x and 3 + 10x^2 are constants over GF(5), with no factors."""
    _assert_matches_sympy(GF(p), coeffs)


# ---- the coefficient-list helpers, mod p and over Q (m = None) ---------------------


def _helper_cases(field):
    """The zero polynomial, constants, and polynomials of degree 1-5, plus
    products sharing factors. Over Q the coefficients have large numerators and
    denominators of both signs; mod p they are reduced ints."""
    rng = random.Random(43)
    if field == QQ:
        draw = lambda: Fraction(rng.randrange(-10**25, 10**25), rng.randrange(1, 10**30))  # noqa: E731
        lead = lambda: Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10**12), rng.randrange(1, 10**20))  # noqa: E731
        cases = [[], [Fraction(-3, 10**20 + 39)], [Fraction(5)]]
    else:
        draw, lead = (lambda: rng.randrange(field.p)), (lambda: rng.randrange(1, field.p))
        cases = [[], [field.p - 3], [5]]
    cases += [[draw() for _ in range(degree)] + [lead()] for degree in range(1, 6)]
    cases += [_unsym(field, _sym(field, cases[i]) * _sym(field, cases[j])) for i, j in ((3, 4), (3, 5), (4, 7))]
    return cases


HELPER_FIELDS = [GF(101), QQ]


@pytest.mark.parametrize("field", HELPER_FIELDS, ids=str)
def test_mul_matches_sympy(field):
    cases = _helper_cases(field)
    for a, b in product(cases, repeat=2):
        assert P._mul(a, b, field.char or None) == _unsym(field, _sym(field, a) * _sym(field, b))


@pytest.mark.parametrize("field", HELPER_FIELDS, ids=str)
def test_divmod_matches_sympy(field):
    cases = _helper_cases(field)
    for a, b in product(cases, [b for b in cases if b]):
        q, r = _sym(field, a).div(_sym(field, b))
        assert P._divmod(a, b, field.char or None) == (_unsym(field, q), _unsym(field, r))


@pytest.mark.parametrize("field", HELPER_FIELDS, ids=str)
def test_gcd_and_monic_match_sympy(field):
    cases = _helper_cases(field)
    for a, b in product(cases, repeat=2):
        assert P._gcd(a, b, field.char or None) == _unsym(field, _sym(field, a).gcd(_sym(field, b)))
    for a in cases[1:]:
        assert P._monic(a, field.char or None) == _unsym(field, _sym(field, a).monic())


@pytest.mark.parametrize("field", HELPER_FIELDS, ids=str)
def test_cofactors_match_sympy(field):
    """For coprime a and b, not both constant, the cofactors with deg s < deg b
    and deg t < deg a are unique, so they equal sympy's gcdex."""
    pairs = 0
    for a, b in product(_helper_cases(field), repeat=2):
        if not a or not b or _unsym(field, _sym(field, a).gcd(_sym(field, b))) != [1]:
            continue
        pairs += 1
        s, t = P._cofactors(a, b, field.char or None)
        want_s, want_t, _ = _sym(field, a).gcdex(_sym(field, b))
        assert (s, t) == (_unsym(field, want_s), _unsym(field, want_t))
        assert _unsym(field, _sym(field, s) * _sym(field, a) + _sym(field, t) * _sym(field, b)) == [1]
        if len(a) > 1 or len(b) > 1:  # two constants admit no cofactors within the bounds
            assert len(s) < len(b) and len(t) < len(a)
    assert pairs > 60


# ---- GF(p) factoring on both sides of the root scan -------------------------------

SCAN_PRIMES = [2, 3, 5, 101, 4093]  # at most polynomials._ROOT_SCAN_P: roots by a scan of every residue
CZ_PRIMES = [4099, 1048573]  # above it: distinct-degree and Cantor-Zassenhaus splitting only


def _irreducibles(p, degree, rng, count=2):
    """Up to count distinct monic irreducibles of the degree over GF(p), drawn at random and checked by sympy."""
    out = []
    for _ in range(400):
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        if f not in out and _sym(GF(p), f).is_irreducible:
            out.append(f)
            if len(out) == count:
                break
    return out


def _quadratic_pair(p):
    """Two distinct irreducible quadratics over odd GF(p): x^2 + a and x^2 + b with
    -a and -b non-squares, or over GF(3), which has one such a, x^2 + 1 and x^2 + x + 2."""
    if p == 3:
        return [1, 0, 1], [2, 1, 1]
    a, b = itertools.islice((c for c in range(1, p) if pow(-c % p, (p - 1) // 2, p) == p - 1), 2)
    return [a, 0, 1], [b, 0, 1]


@functools.cache
def _scan_cases(p):
    """Products of linear, quadratic, cubic and quartic irreducibles, with
    multiplicities: split ones, rootless remainders of degree 2 and 3, an
    irreducible quartic, and rootless quartics (or a quintic over GF(2)) that
    still split."""
    rng = random.Random(p)
    lin, quad, cub, quart = (_irreducibles(p, d, rng) for d in (1, 2, 3, 4))
    pair = list(_quadratic_pair(p)) if p > 2 else [quad[0], cub[0]]
    return [
        [(lin[0], 1)],
        [(u, k + 1) for k, u in enumerate(lin)],
        [(quad[0], 1)],
        [(cub[0], 1)],
        [(lin[0], 1), (quad[0], 1)],
        [(lin[-1], 2), (cub[0], 1)],
        [(quart[0], 1)],
        [(lin[0], 1), (quart[0], 1)],
        [(pair[0], 1), (pair[1], 1)],
        [(lin[0], 1), (pair[0], 1), (pair[1], 2)],
        [(lin[0], 2), (quad[0], 1), (cub[-1], 2), (quart[-1], 1)],
        [(quad[-1], 1), (cub[0], 1), (cub[-1], 1)],
    ]


def _unreduced(p, f, rng):
    """f times a unit, each coefficient moved by a random multiple of p, some negative."""
    unit = rng.randrange(1, p)
    return [c * unit + p * rng.randrange(-3, 4) for c in f]


@pytest.mark.parametrize("p", SCAN_PRIMES + CZ_PRIMES)
@pytest.mark.parametrize("case", range(12))
def test_factor_products_of_small_irreducibles_match_sympy(p, case):
    field = GF(p)
    pieces = _scan_cases(p)[case]
    f = _unreduced(p, _product(field, *[_power(field, g, k) for g, k in pieces]), random.Random(case))
    got = P.factor_poly(field, f)
    assert got == _sympy_factors(field, f)
    assert sorted(k for _, k in got) == sorted(k for _, k in pieces)


@pytest.mark.parametrize("p", SCAN_PRIMES[1:] + CZ_PRIMES)
def test_two_irreducible_quadratics_split(p):
    """(x^2 + a)(x^2 + b) has no root, yet two factors."""
    g, h = _quadratic_pair(p)
    assert P.factor_poly(GF(p), _product(GF(p), g, h)) == sorted([(g, 1), (h, 1)], key=lambda fm: [str(c) for c in fm[0]])


def _distinct_degree_calls(monkeypatch):
    calls = []
    real = P._gf_distinct_degree
    monkeypatch.setattr(P, "_gf_distinct_degree", lambda f, p: calls.append(p) or real(f, p))
    return calls


@pytest.mark.parametrize("p", SCAN_PRIMES + CZ_PRIMES)
def test_the_root_scan_runs_up_to_its_constant(p, monkeypatch):
    """A split quadratic needs no distinct-degree step where the scan runs."""
    calls = _distinct_degree_calls(monkeypatch)
    assert len(P.factor_poly(GF(p), [2, 3, 1])) == 2  # (x + 1)(x + 2)
    assert calls == ([] if p <= P._ROOT_SCAN_P else [p])


def test_a_prime_at_the_constant_takes_the_scan(monkeypatch):
    """With the constant set to the prime 101, GF(101) takes the scan and GF(103) does not."""
    monkeypatch.setattr(P, "_ROOT_SCAN_P", 101)
    calls = _distinct_degree_calls(monkeypatch)
    for p in (101, 103):
        assert P.factor_poly(GF(p), [2, 3, 1]) == [([1, 1], 1), ([2, 1], 1)]
    assert calls == [103]
