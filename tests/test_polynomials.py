"""Polynomial kernels checked against sympy as an independent oracle."""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from jorder.fields import GF, QQ
from jorder import linalg
from jorder import polynomials as P


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
    assert field.is_zero(P.poly_eval_matrix(field, mp, m))
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
    e = P.poly_eval_matrix(field, e_poly, z)
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
    assert field.eq(P.poly_eval_matrix(field, coeffs, m), field.canon(naive))
