"""Exact scalar arithmetic: prime fields GF(p) and the rational field.

Matrices over GF(p) are int64 arrays kept reduced into [0, p); matrices over
the rationals are object arrays of Fraction. Both expose one small interface
so every elimination kernel in linalg is written once and runs exactly on
either field.

Every product of field matrices goes through one of three methods: matmul,
with np.dot's semantics (the last axis of a against the second-to-last axis
of b, or b's only axis), tensordot, with np.tensordot's, and kron, with
np.kron's. Over GF(p) each is the int64 product reduced once mod p.

tensordot and kron keep numpy's semantics but not its code: at the sizes
the library works at (dimension 2 to 16) numpy's argument handling costs
more than the arithmetic. _contract normalises the axes once (an int N, a
pair of ints or of sequences, negative axes) and then does one
transpose-reshape per operand, one np.dot and one reshape; _kron is one
broadcast product of a reshaped to interleaved (d, 1) axes against b
reshaped to (1, d) axes, with leading 1-axes padded when the ndims differ,
as np.kron pads them. Replaying the GF(101) operands of set-up and one
seed-0 pass of jbench (best of 7, three runs, one thread on a shared 2-vCPU
Linux host), np.tensordot took 8.3-13.1 us a call and _contract 5.6-7.2 us,
over 2,642 calls on verify-gf101 and 2,598 on lrproj-gf101; np.kron took
15.3-17.2 us and _kron 4.5-5.2 us, over 376 and 144 calls.

Over Q kron multiplies the Fractions entry by entry; matmul and tensordot
multiply integers: an operand a is N_a / d_a with d_a the lcm of its
denominators and N_a an integer array, so a product is
(N_a . N_b) / (d_a d_b), computed by _contract, and every output
entry is divided once, or not at all when d_a d_b = 1. Fraction normalises,
so each entry equals the sum of Fraction products entry for entry.
Building Fractions, not multiplying, dominates these products, most of
whose entries are zero on the benchmark workloads: _numerators reads each
entry's as_integer_ratio once and calls int only on a part that is not a
Python int (a Fraction built from an np.int64 holds numpy integers), and the
output is built from the integer product's tolist, so its entries hold
Python ints and every zero entry is the one _ZERO, Fraction being immutable. The
integer product runs in int64 when max|N_a| max|N_b| K < 2^63, K the
contracted extent: no term and no partial sum then leaves the int64 range.
Otherwise it runs on Python ints in object arrays. Every entry of a product
is a Fraction, empty contractions included.

canon always returns a fresh array that shares no memory with its argument;
linalg.rref relies on this to eliminate in place without a copy. Over Q it
keeps the entries that already are Fraction: Fraction is immutable, so the
fresh array may share them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import UnsupportedField

# int64 dot products of canonical entries stay exact as long as
# dim * (p-1)^2 < 2^63; the cap keeps that true with a huge margin. A second
# contraction of an unreduced product reaches dim^2 (p-1)^3, which overflows
# near the cap once a table is dense, so matmul and tensordot reduce every
# product before it can be contracted again.
_PRIME_CAP = 1 << 20

_INT64_LIMIT = 1 << 63


def _as_fraction(x):
    return x if type(x) is Fraction else Fraction(x)


_to_fraction = np.frompyfunc(_as_fraction, 1, 1)
_ZERO = Fraction(0)  # every zero entry of a product over Q (see the header)


def _numerators(a):
    """(N, d, top): a == N / d for the lcm d of a's denominators, N a flat list of Python ints, top = max |N|."""
    nums, dens = [], []
    for x in a.ravel().tolist():
        num, den = (x if type(x) is Fraction else Fraction(x)).as_integer_ratio()
        # a Fraction built from an np.int64 holds numpy integers
        nums.append(num if type(num) is int else int(num))
        dens.append(den if type(den) is int else int(den))
    d = math.lcm(*dens)
    if d != 1:
        nums = [num * (d // den) for num, den in zip(nums, dens)]
    return nums, d, max(map(abs, nums), default=0)


def _contract_axes(a, b, axes):
    """np.tensordot's axes, an int N or a pair of ints or of sequences, normalised:
    (contracted axes of a, of b, free axes of a, of b, contracted extent)."""
    try:
        ax_a, ax_b = axes
    except TypeError:  # an int N: the last N axes of a against the first N of b
        ax_a, ax_b = range(-axes, 0), range(axes)
    ax_a = list(ax_a) if hasattr(ax_a, "__len__") else [ax_a]
    ax_b = list(ax_b) if hasattr(ax_b, "__len__") else [ax_b]
    if len(ax_a) != len(ax_b):
        raise ValueError("shape-mismatch for sum")
    free_a, free_b = list(range(a.ndim)), list(range(b.ndim))
    k = 1
    for n, (i, j) in enumerate(zip(ax_a, ax_b)):
        if i < 0:
            ax_a[n] = i = i + a.ndim
        if j < 0:
            ax_b[n] = j = j + b.ndim
        if a.shape[i] != b.shape[j]:
            raise ValueError("shape-mismatch for sum")
        k *= a.shape[i]
        free_a.remove(i)
        free_b.remove(j)
    return ax_a, ax_b, free_a, free_b, k


def _contract(a, b, axes):
    """np.tensordot(a, b, axes): one transpose-reshape per operand and one np.dot (see the header)."""
    a, b = np.asarray(a), np.asarray(b)
    ax_a, ax_b, free_a, free_b, k = _contract_axes(a, b, axes)
    left = a.transpose(free_a + ax_a)
    right = b.transpose(ax_b + free_b)
    out_a, out_b = left.shape[:len(free_a)], right.shape[len(ax_b):]
    return np.dot(left.reshape(math.prod(out_a), k), right.reshape(k, math.prod(out_b))).reshape(out_a + out_b)


def _kron(a, b):
    """np.kron(a, b): one broadcast product over interleaved (d, 1) and (1, d) axes."""
    nd = max(a.ndim, b.ndim)
    sa = (1,) * (nd - a.ndim) + a.shape
    sb = (1,) * (nd - b.ndim) + b.shape
    wide = a.reshape([x for d in sa for x in (d, 1)]) * b.reshape([x for d in sb for x in (1, d)])
    return wide.reshape([x * y for x, y in zip(sa, sb)])


def _rational_product(a, b, axes):
    """np.tensordot(a, b, axes) over Q, through the integer numerators."""
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    ax_a, ax_b, _, _, k = _contract_axes(a, b, axes)
    na, da, top_a = _numerators(a)
    nb, db, top_b = _numerators(b)
    bound = top_a * top_b * k
    if bound == 0:  # nothing is contracted, or an operand is zero
        na, nb = [0] * len(na), [0] * len(nb)
    dtype = np.int64 if bound < _INT64_LIMIT else object
    num = _contract(np.array(na, dtype=dtype).reshape(a.shape), np.array(nb, dtype=dtype).reshape(b.shape), (ax_a, ax_b))
    d = da * db
    flat = num.ravel().tolist()
    out = np.empty(len(flat), dtype=object)
    out[:] = [Fraction(v, d) if v else _ZERO for v in flat] if d != 1 else [Fraction(v) if v else _ZERO for v in flat]
    return out.reshape(num.shape) if num.ndim else out[0]  # a full contraction gives a Fraction, as np.dot does


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

    def vec(self, data):
        return self.canon(data).reshape(-1)

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n):
        # 0 and 1 are canonical for every prime
        return np.eye(n, dtype=np.int64)

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

    def tensordot(self, a, b, axes):
        return _contract(a, b, axes) % self.p

    def kron(self, a, b):
        return _kron(np.asarray(a), np.asarray(b)) % self.p

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
        a, b = np.asarray(a), np.asarray(b)
        return _rational_product(a, b, ([a.ndim - 1], [max(b.ndim - 2, 0)]))

    def tensordot(self, a, b, axes):
        return _rational_product(a, b, axes)

    def kron(self, a, b):
        return _kron(np.asarray(a, dtype=object), np.asarray(b, dtype=object))

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
