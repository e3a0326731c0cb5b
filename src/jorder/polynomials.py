"""Exact univariate polynomial helpers over the library fields.

Polynomials are python lists of field scalars, lowest degree first, with no
trailing zeros (the zero polynomial is the empty list). Characteristic
polynomials go through an exact Hessenberg reduction, which is valid over any
field because pivoting is by exact nonzero tests, not magnitude.
Factorization is delegated to sympy and converted back to canonical scalars.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import sympy

from .fields import GFField


def poly_trim(field, c):
    c = list(c)
    while c and c[-1] == field.zero:
        c.pop()
    return c


def poly_deg(c):
    return len(c) - 1


def poly_add(field, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.scalar(x + y))
    return poly_trim(field, out)


def poly_sub(field, a, b):
    return poly_add(field, a, [field.scalar(-x) for x in b])


def poly_scale(field, c, a):
    c = field.scalar(c)
    return poly_trim(field, [field.scalar(c * x) for x in a])


def poly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = field.scalar(out[i + j] + x * y)
    return poly_trim(field, out)


def poly_divmod(field, a, b):
    b = poly_trim(field, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = poly_trim(field, list(a))
    lead_inv = field.inv_scalar(b[-1])
    q = [field.zero] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and r:
        c = field.scalar(r[-1] * lead_inv)
        k = len(r) - len(b)
        q[k] = c
        for i in range(len(b)):
            r[k + i] = field.scalar(r[k + i] - c * b[i])
        r = poly_trim(field, r)
    return poly_trim(field, q), r


def poly_mod(field, a, b):
    return poly_divmod(field, a, b)[1]


def poly_monic(field, a):
    a = poly_trim(field, a)
    if not a:
        return a
    return poly_scale(field, field.inv_scalar(a[-1]), a)


def poly_xgcd(field, a, b):
    """Monic g with u a + v b = g."""
    r0, r1 = poly_trim(field, a), poly_trim(field, b)
    u0, u1 = [field.one], []
    v0, v1 = [], [field.one]
    while r1:
        q, r = poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(field, u0, poly_mul(field, q, u1))
        v0, v1 = v1, poly_sub(field, v0, poly_mul(field, q, v1))
    if not r0:
        return [], [], []
    c = field.inv_scalar(r0[-1])
    return poly_scale(field, c, r0), poly_scale(field, c, u0), poly_scale(field, c, v0)


def poly_eval_matrix(field, coeffs, m):
    """coeffs(m) by Horner; m is a square matrix."""
    n = m.shape[0]
    out = field.zeros((n, n))
    for c in reversed(poly_trim(field, list(coeffs))):
        out = field.matmul(out, m)
        if c != field.zero:
            out = field.canon(field.add(out, field.smul(c, field.eye(n))))
    return field.canon(out)


def _hessenberg(field, m):
    """Similarity reduction to upper Hessenberg by exact eliminations."""
    h = field.copy(m)
    n = h.shape[0]
    for col in range(n - 2):
        piv = None
        for i in range(col + 1, n):
            if h[i, col] != field.zero:
                piv = i
                break
        if piv is None:
            continue
        if piv != col + 1:
            h[[col + 1, piv]] = h[[piv, col + 1]]
            h[:, [col + 1, piv]] = h[:, [piv, col + 1]]
        inv = field.inv_scalar(h[col + 1, col])
        for i in range(col + 2, n):
            if h[i, col] == field.zero:
                continue
            f = field.scalar(h[i, col] * inv)
            h[i] = field.canon(field.sub(h[i], field.smul(f, h[col + 1])))
            h[:, col + 1] = field.canon(field.add(h[:, col + 1], field.smul(f, h[:, i])))
    return h


def charpoly(field, m):
    """Monic characteristic polynomial det(t I - m), lowest degree first."""
    m = np.atleast_2d(m)
    n = m.shape[0]
    if n == 0:
        return [field.one]
    h = _hessenberg(field, field.canon(m))
    # p_0 = 1; p_k built from the leading principal k x k Hessenberg block
    polys = [[field.one]]
    for k in range(1, n + 1):
        term = poly_mul(field, [field.scalar(-h[k - 1, k - 1]), field.one], polys[k - 1])
        prod = field.one
        for i in range(k - 2, -1, -1):
            prod = field.scalar(prod * h[i + 1, i])
            if prod == field.zero:
                break
            coeff = field.scalar(-field.scalar(h[i, k - 1] * prod))
            if coeff != field.zero:
                term = poly_add(field, term, poly_scale(field, coeff, polys[i]))
        polys.append(term)
    return polys[n]


def charpoly_coefficient(field, m, j):
    """Coefficient of t^(n-j) in the characteristic polynomial of m."""
    n = np.atleast_2d(m).shape[0]
    return charpoly(field, m)[n - j] if j <= n else field.zero


def minpoly_matrix(field, m):
    """Monic minimal polynomial of a square matrix, by power stacking."""
    from . import linalg

    m = np.atleast_2d(m)
    n = m.shape[0]
    power = field.eye(n)
    rows = [power.reshape(-1)]
    while True:
        power = field.matmul(power, m)
        target = power.reshape(-1)
        coeffs = linalg.solve(field, np.stack(rows, axis=1), target)
        if coeffs is not None:
            mono = [field.scalar(-c) for c in coeffs] + [field.one]
            return poly_trim(field, mono)
        rows.append(target)
        if len(rows) > n + 1:
            raise AssertionError("minimal polynomial search exceeded dimension bound")


_t = sympy.Symbol("t")


def factor_poly(field, coeffs):
    """Irreducible factorization [(factor, multiplicity)], factors monic."""
    coeffs = poly_trim(field, list(coeffs))
    if poly_deg(coeffs) < 1:
        return []
    if isinstance(field, GFField):
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], _t, modulus=field.p, symmetric=False)
        _, factors = poly.factor_list()
        out = []
        for f, mult in factors:
            fc = [int(c) % field.p for c in reversed(f.all_coeffs())]
            out.append((poly_monic(field, fc), int(mult)))
    else:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], _t, domain="QQ")
        _, factors = poly.factor_list()
        out = []
        for f, mult in factors:
            fc = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
            out.append((poly_monic(field, fc), int(mult)))
    out.sort(key=lambda fm: (poly_deg(fm[0]), [str(c) for c in fm[0]]))
    return out


def crt_split_poly(field, f, factors):
    """Projector polynomial for a coprime block split of f, or None.

    factors is factor_poly(field, f), which the caller has already taken.
    Writes f = F G with F one irreducible power and G the rest; when both are
    proper, returns e with e = 1 mod F, e = 0 mod G, so e(z) is a nontrivial
    exact idempotent in k[z]/(f(z)).
    """
    f = poly_monic(field, f)
    if len(factors) < 2:
        return None
    f1, m1 = factors[0]
    big_f = f1
    for _ in range(m1 - 1):
        big_f = poly_mul(field, big_f, f1)
    big_g, rem = poly_divmod(field, f, big_f)
    if rem:
        raise AssertionError("irreducible power does not divide f")
    g, u, v = poly_xgcd(field, big_f, big_g)
    if g != [field.one]:
        raise AssertionError("block factors are not coprime")
    e = poly_mod(field, poly_mul(field, v, big_g), f)
    return e
