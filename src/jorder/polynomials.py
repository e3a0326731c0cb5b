"""Exact univariate polynomials: charpoly, minimal polynomials, factoring, CRT projectors.

A polynomial is a Python list of coefficients, lowest degree first, with no
trailing zeros (the zero polynomial is the empty list). There is one
arithmetic on these lists, after von zur Gathen and Gerhard, Modern Computer
Algebra: every helper takes a modulus m and reduces into [0, m), or, with
m = None, computes exactly on Fraction coefficients. The two cases differ
only in the primitives _mod and _inv. A public function takes m =
field.char or None, so GF(p) computes mod p and Q exactly, and converts with
field.scalar only where field scalars enter and leave: its coefficients are
ints in [0, p) over GF(p) and Fractions over Q. Characteristic polynomials go
through an exact Hessenberg reduction on field arrays, which is valid over
any field because pivoting is by exact nonzero tests, not magnitude.

factor_poly is classical and self-contained, and the only function that
picks its algorithm by the field. Over GF(p) it takes the squarefree
decomposition (a chain of gcds with the derivative, as in Yun's algorithm,
with a p-th root for the parts of derivative zero), then distinct-degree
factorization and Cantor-Zassenhaus equal-degree splitting (Math. Comp. 36,
1981). For p <= _ROOT_SCAN_P = 4096 the roots come first, from evaluating
each squarefree part at every residue (Horner's rule on int64 arrays, whose
products stay below 2^24); the linear factors split off, and a rootless
remainder of degree 2 or 3 is irreducible. Only a remainder of degree 4 or
more goes on to the distinct-degree step. The scan costs p evaluations,
Cantor-Zassenhaus about log p products mod f: on split degree-2 and -5
inputs the scan is 4-5x faster at p = 4093, and Cantor-Zassenhaus catches
up on quadratics at about p = 16k.
Over Q it clears denominators and factors each squarefree part over Z by
Zassenhaus (J. Number Theory 1, 1969): factor mod a good prime,
Hensel-lift past the Mignotte bound, and recombine the lifted factors by
exact division. Decomposition certificates rest on its irreducibility
verdicts, so none of them is a guess.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, zip_longest

import numpy as np

from .fields import GFField, _is_prime

_ROOT_SCAN_P = 4096  # up to this p, roots are found by evaluating at every residue


def _mod(x, m):
    """x reduced into [0, m), or x itself over Q (m None)."""
    return x if m is None else x % m


def _inv(x, m):
    """The inverse of x mod m, where x is a unit, or over Q (m None)."""
    return 1 / Fraction(x) if m is None else pow(x, -1, m)


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _reduce(a, m):
    return _trim([_mod(x, m) for x in a])


def _add(a, b, m):
    return _trim([_mod(x + y, m) for x, y in zip_longest(a, b, fillvalue=0)])


def _sub(a, b, m):
    return _trim([_mod(x - y, m) for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, m)


def _divmod(a, b, m):
    """Quotient and remainder; b's leading coefficient must be a unit mod m."""
    inv = _inv(b[-1], m)
    db = len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = _mod(r[k + db] * inv, m)
        q[k] = c
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    return _trim(q), _reduce(r[:db], m)


def _rem(a, b, m):
    return _divmod(a, b, m)[1]


def _monic(a, m):
    inv = _inv(a[-1], m)
    return [_mod(x * inv, m) for x in a]


def _deriv(a):
    return [i * x for i, x in enumerate(a)][1:]


def _gcd(a, b, m):
    """Monic gcd over GF(m) or Q."""
    while b:
        a, b = b, _rem(a, b, m)
    return _monic(a, m) if a else a


def _cofactors(a, b, m):
    """(s, t) over GF(m) or Q with s a + t b = 1, deg s < deg b and deg t < deg a, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, m), m)
        t0, t1 = t1, _sub(t0, _mul(q, t1, m), m)
    inv = _inv(r0[0], m)  # r0 is the nonzero constant gcd
    return [_mod(x * inv, m) for x in s0], [_mod(x * inv, m) for x in t0]


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
    h = _hessenberg(field, field.canon(m)).tolist()
    mod = field.char or None
    # p_0 = 1; p_k built from the leading principal k x k Hessenberg block
    polys = [[1]]
    for k in range(1, n + 1):
        term = _mul([-h[k - 1][k - 1], 1], polys[k - 1], mod)
        prod = 1
        for i in range(k - 2, -1, -1):
            prod = _mod(prod * h[i + 1][i], mod)
            if not prod:
                break
            term = _sub(term, _mul([h[i][k - 1] * prod], polys[i], mod), mod)
        polys.append(term)
    return [field.scalar(c) for c in polys[n]]


def charpoly_coefficient(field, m, j):
    """Coefficient of t^(n-j) in the characteristic polynomial of m."""
    n = np.atleast_2d(m).shape[0]
    return charpoly(field, m)[n - j] if j <= n else field.zero


def minpoly_powers(field, one, times, bound):
    """(mu, [1, x, ..., x^(deg mu - 1)]): mu is the monic minimal polynomial of x,
    the first linear relation among 1 = one, x, x^2, ... with times(v) = v x, of degree at most bound."""
    from . import linalg

    powers = [one]
    while True:
        target = times(powers[-1])
        coeffs = linalg.solve(field, np.stack(powers, axis=1), target)
        if coeffs is not None:
            return [field.scalar(-c) for c in coeffs] + [field.one], powers
        powers.append(target)
        if len(powers) > bound + 1:
            raise AssertionError("minimal polynomial search exceeded dimension bound")


def _powmod(a, e, f, p):
    """a^e mod f over GF(p), by repeated squaring."""
    out = [1]
    a = _rem(a, f, p)
    while e:
        if e & 1:
            out = _rem(_mul(out, a, p), f, p)
        e >>= 1
        if e:
            a = _rem(_mul(a, a, p), f, p)
    return out


def _gf_squarefree(f, p):
    """[(g, k)] with f = prod g^k over GF(p), the g monic, squarefree and coprime; f monic.

    Repeated gcds with the derivative peel off the factors by multiplicity.
    A factor whose multiplicity p divides is invisible to the derivative, so
    it stays in c, which ends as an exact p-th power r(x)^p = r(x^p): its
    p-th root r reads every p-th coefficient, because a^p = a on GF(p).
    """
    out = []
    c = _gcd(f, _reduce(_deriv(f), p), p)
    w = _divmod(f, c, p)[0]
    k = 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        z = _divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, k))
        w, c, k = y, _divmod(c, y, p)[0], k + 1
    if len(c) > 1:
        out += [(g, j * p) for g, j in _gf_squarefree(c[::p], p)]
    return out


def _gf_distinct_degree(f, p):
    """[(g, d)] for a squarefree monic f: g is the product of f's irreducible factors of degree d.

    gcd(f, x^(p^d) - x) collects the irreducible factors whose degree divides d;
    those of smaller degree are already divided out.
    """
    out = []
    h = [0, 1]  # x^(p^d) mod f
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _gf_equal_degree(f, d, p, rng):
    """The monic irreducible factors of f, a squarefree product of irreducibles of degree d.

    Cantor-Zassenhaus: for a random a, each residue field GF(p^d) of f sends
    a^((p^d - 1)/2) to 1 or -1 when p is odd, and the trace
    a + a^2 + ... + a^(2^(d - 1)) to 0 or 1 when p = 2, so the gcd of f with
    that value minus one (or with the trace) is a proper factor about half the
    time.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd(f, a, p)
        if len(g) == 1:
            if p == 2:
                b = t = a
                for _ in range(d - 1):
                    t = _rem(_mul(t, t, 2), f, 2)
                    b = _add(b, t, 2)
            else:
                b = _sub(_powmod(a, (p**d - 1) // 2, f, p), [1], p)
            g = _gcd(f, b, p)
        if 1 < len(g) < len(f):
            return _gf_equal_degree(g, d, p, rng) + _gf_equal_degree(_divmod(f, g, p)[0], d, p, rng)


def _gf_irreducible_factors(f, p):
    """The monic irreducible factors of a squarefree monic f over GF(p)."""
    out = []
    if p <= _ROOT_SCAN_P:  # the roots by Horner's rule at every residue at once, in int64
        vals = np.zeros(p, dtype=np.int64)
        for c in reversed(f):
            vals = (vals * np.arange(p, dtype=np.int64) + c) % p
        for r in np.flatnonzero(vals == 0).tolist():
            out.append([-r % p, 1])
            f = _divmod(f, out[-1], p)[0]
        if len(f) <= 4:  # rootless, so irreducible up to degree 3
            return out + ([f] if len(f) > 1 else [])
    rng = random.Random(0)  # a fixed local seed: the splits found change only the run time
    return out + [u for g, d in _gf_distinct_degree(f, p) for u in _gf_equal_degree(g, d, p, rng)]


def _primitive(a):
    """a over its content, with a positive leading coefficient."""
    if not a:
        return a
    c = math.gcd(*a) * (1 if a[-1] > 0 else -1)
    return [x // c for x in a]


def _z_divide(a, b):
    """a / b over Z, or None when b does not divide a there."""
    db = len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - len(b), -1, -1):
        c, rest = divmod(r[k + db], b[-1])
        if rest:
            return None
        q[k] = c
        for i in range(db + 1):
            r[k + i] -= c * b[i]
    return q if not any(r) else None


def _z_gcd(a, b):
    """The primitive gcd over Z, with a positive leading coefficient, by pseudo-remainders."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r = list(a)
        while len(r) >= len(b):  # r <- lc(b) r - lc(r) x^k b drops deg r
            k, c = len(r) - len(b), r[-1]
            r = [x * b[-1] for x in r]
            for i, y in enumerate(b):
                r[k + i] -= c * y
            _trim(r)
        a, b = b, _primitive(r)
    return a


def _z_squarefree(f):
    """[(g, k)] with f = prod g^k over Z, the g primitive, squarefree and coprime (Yun).

    f is primitive with a positive leading coefficient. Every division is
    exact: a primitive divisor over Q divides over Z (Gauss's lemma).
    """
    out = []
    a = _z_gcd(f, _deriv(f))
    b, c = _z_divide(f, a), _z_divide(_deriv(f), a)
    k = 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _deriv(b), fillvalue=0)])
        a = _z_gcd(b, d)
        if len(a) > 1:
            out.append((a, k))
        b, c, k = _z_divide(b, a), _z_divide(d, a), k + 1
    return out


def _hensel_step(f, g, h, s, t, m):
    """f = g h and s g + t h = 1 mod m, h monic, lifted to mod m^2.

    von zur Gathen and Gerhard, Modern Computer Algebra, Algorithm 15.10.
    """
    m2 = m * m
    e = _sub(_reduce(f, m2), _mul(g, h, m2), m2)
    c, r = _divmod(_mul(s, e, m2), h, m2)
    g = _add(g, _add(_mul(t, e, m2), _mul(c, g, m2), m2), m2)
    h = _add(h, r, m2)
    b = _sub(_add(_mul(s, g, m2), _mul(t, h, m2), m2), [1], m2)
    c, d = _divmod(_mul(s, b, m2), h, m2)
    return g, h, _sub(s, d, m2), _sub(t, _add(_mul(t, b, m2), _mul(c, g, m2), m2), m2)


def _hensel_lift(f, mods, p, q):
    """Monic lifts mod q = p^(2^j) of the monic factors mods of f = lc(f) prod mods mod p."""
    if len(mods) == 1:
        return [_monic(_reduce(f, q), q)]
    k = len(mods) // 2
    g, h = [f[-1] % p], [1]
    for u in mods[:k]:
        g = _mul(g, u, p)
    for u in mods[k:]:
        h = _mul(h, u, p)
    s, t = _cofactors(g, h, p)
    m = p
    while m < q:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, mods[:k], p, q) + _hensel_lift(h, mods[k:], p, q)


def _z_irreducible_factors(f):
    """The irreducible factors over Z of a primitive squarefree f with a positive leading coefficient.

    Zassenhaus: factor f mod a prime p dividing neither lc(f) nor the
    discriminant (f stays squarefree mod p), lift the factors mod q = p^(2^j)
    past 2 lc(f) B, then try products of s = 1, 2, ... lifted factors times
    lc(f) by exact division over Z. For an irreducible factor g of f,
    lc(f)/lc(g) g has coefficients of size at most B = 2^n ||f||_2 (Mignotte),
    so it is the symmetric residue of lc(f) times its lifted factors. A factor
    found divides f exactly, and when no product of at most half the lifted
    factors divides what is left, what is left has no proper factor: f's
    irreducibility is proven, never guessed.
    """
    n = len(f) - 1
    if n == 1:
        return [f]
    p = 2
    while True:
        p += 1
        if _is_prime(p) and f[-1] % p:
            fp = _monic(_reduce(f, p), p)
            if len(_gcd(fp, _reduce(_deriv(fp), p), p)) == 1:
                break
    mods = _gf_irreducible_factors(fp, p)
    if len(mods) == 1:
        return [f]
    bound = 2 * f[-1] * 2**n * (math.isqrt(sum(x * x for x in f)) + 1)
    q = p
    while q <= bound:
        q *= q
    lifted = _hensel_lift(f, mods, p, q)
    out = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], q)
            g = _primitive([x - q if 2 * x > q else x for x in g])
            quotient = _z_divide(f, g)
            if quotient is not None:
                out.append(g)
                f = quotient
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return out + [f]


def factor_poly(field, coeffs):
    """Irreducible factorization [(factor, multiplicity)], factors monic.

    Over GF(p): squarefree decomposition with the p-th-root step, a root scan
    for p <= _ROOT_SCAN_P, then distinct-degree and Cantor-Zassenhaus
    splitting. Over Q: clear denominators, take the squarefree decomposition
    over Z (Yun), and factor each part by Zassenhaus with Hensel lifting. Both find every monic
    irreducible factor and its multiplicity; that factorization is unique, and
    the list is sorted by (degree, coefficient strings), so the output does not
    depend on the algorithm or on its random splits.
    """
    f = _trim([field.scalar(c) for c in coeffs])
    if len(f) < 2:
        return []
    if isinstance(field, GFField):
        p = field.p
        out = [(u, k) for g, k in _gf_squarefree(_monic(f, p), p) for u in _gf_irreducible_factors(g, p)]
    else:
        den = math.lcm(*(c.denominator for c in f))
        f = _primitive([int(c * den) for c in f])
        out = [([Fraction(x, g[-1]) for x in g], k) for a, k in _z_squarefree(f)
               for g in _z_irreducible_factors(a)]
    out.sort(key=lambda fm: (len(fm[0]), [str(c) for c in fm[0]]))
    return out


def crt_split_poly(field, f, factors):
    """Projector polynomial for a coprime block split of f, or None.

    factors is factor_poly(field, f), which the caller has already taken.
    Writes f = F G with F one irreducible power and G the rest; when both are
    proper, returns e with e = 1 mod F, e = 0 mod G, so e(z) is a nontrivial
    exact idempotent in k[z]/(f(z)). Such an e of degree below deg f is
    unique (the Chinese remainder theorem); it is t G for the cofactors
    s F + t G = 1, computed mod p over GF(p) and exactly over Q.
    """
    if len(factors) < 2:
        return None
    m = field.char or None
    f1, m1 = factors[0]
    f = _monic(_trim([field.scalar(c) for c in f]), m)
    big_f = [1]
    for _ in range(m1):
        big_f = _mul(big_f, f1, m)
    big_g, rem = _divmod(f, big_f, m)
    if rem:
        raise AssertionError("irreducible power does not divide f")
    s, t = _cofactors(big_f, big_g, m)
    if _add(_mul(s, big_f, m), _mul(t, big_g, m), m) != [1]:
        raise AssertionError("block factors are not coprime")
    return [field.scalar(c) for c in _mul(t, big_g, m)]  # deg t < deg F, so deg t G < deg f
