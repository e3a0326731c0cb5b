"""Exact scalar arithmetic: prime fields GF(p) and the rational field.

Matrices over GF(p) are int64 arrays kept reduced into [0, p); matrices over
the rationals are object arrays of Fraction. Both expose one small interface
so every elimination kernel in linalg is written once and runs exactly on
either field. Products go through np.dot, or np.matmul for stacks of
matrices; both support object dtype.

canon always returns a fresh array that shares no memory with its argument;
linalg.rref relies on this to eliminate in place without a copy.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import UnsupportedField

# int64 dot products of canonical entries stay exact as long as
# dim * (p-1)^2 < 2^63; the cap keeps that true with a huge margin. A second
# contraction of an unreduced product reaches dim^2 (p-1)^3, which overflows
# near the cap once a table is dense, so every product is reduced by canon
# before it is contracted again.
_PRIME_CAP = 1 << 20

_to_fraction = np.frompyfunc(Fraction, 1, 1)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GFField:
    """Prime field of order p; entries are python ints / int64 in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise UnsupportedField(
                f"GF({p!r}): order must be a prime integer; prime powers are not supported"
            )
        if p > _PRIME_CAP:
            raise UnsupportedField(f"GF({p}): order above supported cap {_PRIME_CAP}")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GFField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    @property
    def name(self):
        return f"GF({self.p})"

    def scalar(self, x):
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
            if den % self.p == 0:
                raise ZeroDivisionError(f"{x} has no image in GF({self.p})")
            return (num * pow(den, -1, self.p)) % self.p
        return int(x) % self.p

    def scalar_from_str(self, s):
        return self.scalar(Fraction(s))

    def scalar_to_str(self, x):
        return str(int(x) % self.p)

    def canon(self, a):
        return np.asarray(a, dtype=np.int64) % self.p

    def mat(self, data):
        m = self.canon(data)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        return m

    def vec(self, data):
        return self.canon(data).reshape(-1)

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n):
        return np.eye(n, dtype=np.int64) % self.p

    def copy(self, a):
        return np.array(a, dtype=np.int64, copy=True)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def smul(self, c, a):
        return (int(c) * a) % self.p

    def matmul(self, a, b):
        return np.dot(a, b) % self.p

    def outer(self, u, v):
        return np.outer(u, v) % self.p

    def kron(self, a, b):
        return np.kron(a, b) % self.p

    def inv_scalar(self, x):
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError(f"0 is not invertible in GF({self.p})")
        return pow(x, -1, self.p)

    def eq(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and bool((self.canon(a) == self.canon(b)).all())

    def is_zero(self, a):
        return bool((self.canon(a) == 0).all())

    def rand_mat(self, gen, rows, cols):
        return gen.integers(0, self.p, size=(rows, cols), dtype=np.int64)

    def iter_scalars(self):
        return range(self.p)


class RationalField:
    """The rationals; entries are Fraction inside object arrays."""

    def __init__(self):
        self.char = 0
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    @property
    def name(self):
        return "Q"

    def scalar(self, x):
        return Fraction(x)

    def scalar_from_str(self, s):
        return Fraction(s)

    def scalar_to_str(self, x):
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def canon(self, a):
        return _to_fraction(np.asarray(a, dtype=object))

    def mat(self, data):
        m = self.canon(data)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        return m

    def vec(self, data):
        return self.canon(data).reshape(-1)

    def zeros(self, shape):
        z = np.empty(shape, dtype=object)
        z[...] = Fraction(0)
        return z

    def eye(self, n):
        m = self.zeros((n, n))
        for i in range(n):
            m[i, i] = Fraction(1)
        return m

    def copy(self, a):
        return np.array(a, dtype=object, copy=True)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def smul(self, c, a):
        return Fraction(c) * a

    def matmul(self, a, b):
        return np.dot(a, b)

    def outer(self, u, v):
        return np.outer(u, v)

    def kron(self, a, b):
        # np.kron flattens through multiply, which object dtype supports
        return np.kron(np.asarray(a, dtype=object), np.asarray(b, dtype=object))

    def inv_scalar(self, x):
        x = Fraction(x)
        if x == 0:
            raise ZeroDivisionError("0 is not invertible")
        return 1 / x

    def eq(self, a, b):
        a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
        return a.shape == b.shape and bool((a == b).all())

    def is_zero(self, a):
        return bool((np.asarray(a, dtype=object) == Fraction(0)).all())

    def rand_mat(self, gen, rows, cols):
        num = gen.integers(-9, 10, size=(rows, cols))
        den = gen.integers(1, 8, size=(rows, cols))
        out = np.empty((rows, cols), dtype=object)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = Fraction(int(num[i, j]), int(den[i, j]))
        return out


QQ = RationalField()

_gf_cache: dict[int, GFField] = {}


def GF(p: int) -> GFField:
    if p not in _gf_cache:
        _gf_cache[p] = GFField(p)
    return _gf_cache[p]


def field_from_name(name: str):
    """Parse 'GF(7)' or 'Q' (aliases QQ, rationals)."""
    s = name.strip()
    if s.upper() in ("Q", "QQ", "RATIONALS"):
        return QQ
    if s.upper().startswith("GF(") and s.endswith(")"):
        inner = s[3:-1].strip()
        if not inner.isdigit():
            raise UnsupportedField(f"cannot parse field {name!r}")
        return GF(int(inner))
    raise UnsupportedField(f"cannot parse field {name!r}")
