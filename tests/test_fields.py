"""Field products against numpy: matmul, tensordot and kron keep numpy's semantics.

The fields write tensordot as one transpose-reshape-dot and kron as one
broadcast product. The oracle is the numpy call itself, np.dot,
np.tensordot or np.kron on the same operands, followed by reduction: mod p
over GF(p), and over Q on object arrays of Fraction, whose entries are then
compared as Fractions. Products over GF(p) are exact in int64 at every
prime up to the cap, so the two must agree entry for entry.
"""

from fractions import Fraction

import numpy as np
import pytest

from jorder.fields import GF, QQ, _numerators

FIELDS = [GF(2), GF(101), GF(1048573), QQ]


def _operand(field, gen, shape, big=False):
    """Canonical random entries; over Q, Fractions with numerators near 2^40 when big."""
    if field.char:
        return gen.integers(0, field.p, size=shape, dtype=np.int64)
    top = 1 << 40 if big else 9
    nums = gen.integers(-top, top + 1, size=shape).ravel().tolist()
    dens = gen.integers(1, 8, size=shape).ravel().tolist()
    return np.array([Fraction(n, d) for n, d in zip(nums, dens)], dtype=object).reshape(shape)


def _expected(field, raw):
    raw = np.asarray(raw)
    return raw % field.p if field.char else np.asarray(raw, dtype=object)


def _assert_same(field, got, want):
    """A product of two vectors is a scalar, as numpy's 0-d result reduced is."""
    got = np.asarray(got, dtype=None if field.char else object)
    assert got.shape == want.shape
    if field.char:
        assert got.dtype == np.int64 and np.array_equal(got, want)
    else:
        assert got.dtype == object and all(type(x) is Fraction for x in got.flat)
        assert got.tolist() == want.tolist()


_TENSORDOT_CASES = [
    ((3, 4), (4, 2), 1),
    ((2, 3, 4), (3, 4, 5), 2),
    ((2, 3), (4, 5), 0),  # no contraction: the outer product
    ((3,), (2, 2), 0),
    ((3,), (3,), 1),
    ((2, 3, 4), (4, 3), (2, 0)),  # a pair of ints
    ((4, 3), (4, 2), (0, 0)),
    ((2, 3, 4), (4, 5), (np.int64(2), np.int64(0))),
    ((2, 3, 4), (5, 4, 3), ([1, 2], [2, 1])),  # a pair of sequences
    ((2, 3, 4), (3, 2), ((0, 1), (1, 0))),
    ((3, 3), (3, 3), ([0, 1], [1, 0])),
    ((2, 3, 4), (4, 3, 5), ((-1, -2), (0, 1))),  # negative axes
    ((3, 4), (2, 4), (-1, -1)),
    ((2, 3, 4), (2, 5), ([-3], [0])),
    ((0, 3), (3, 2), 1),  # zero-size free extents
    ((2, 3), (3, 0), 1),
    ((2, 0, 4), (4, 0), ([2], [0])),
    ((2, 0), (0, 3), 1),  # zero-size contracted extents
    ((0,), (0,), 1),
    ((3, 2, 0), (0, 4), 1),
    ((2, 0, 4), (5, 4, 0), ([1, 2], [2, 1])),
    ((4, 2), (4, 0), ([0], [0])),
    ((0, 3), (2, 0), 0),
]

_MATMUL_CASES = [
    ((4,), (4,)), ((3, 4), (4,)), ((4,), (4, 2)), ((3, 4), (4, 2)), ((2, 3, 4), (4, 5)),
    ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 4, 3)), ((2, 0), (0, 3)), ((0, 3), (3, 2)), ((3, 2, 0), (0, 4)),
]

_KRON_CASES = [
    ((2, 3), (3, 2)), ((3,), (2,)), ((1,), (4,)), ((2,), (3, 2)), ((2, 3), (4,)), ((3,), (2, 2, 2)),
    ((2, 1, 3), (3, 2)), ((2, 2, 2), (1, 3, 2)), ((2, 3, 2), (2, 2, 3)), ((0, 3), (2, 2)), ((2, 3), (0,)),
    ((2, 0, 2), (3, 2)),
]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_tensordot_matches_numpy_in_every_axes_form(field):
    gen = np.random.default_rng(3000 + field.char)
    for shape_a, shape_b, axes in _TENSORDOT_CASES:
        a, b = _operand(field, gen, shape_a), _operand(field, gen, shape_b)
        _assert_same(field, field.tensordot(a, b, axes), _expected(field, np.tensordot(a, b, axes)))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_matmul_matches_np_dot(field):
    gen = np.random.default_rng(3100 + field.char)
    for shape_a, shape_b in _MATMUL_CASES:
        a, b = _operand(field, gen, shape_a), _operand(field, gen, shape_b)
        _assert_same(field, field.matmul(a, b), _expected(field, np.dot(a, b)))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_kron_matches_np_kron_on_mixed_ndims(field):
    gen = np.random.default_rng(3200 + field.char)
    for shape_a, shape_b in _KRON_CASES:
        a, b = _operand(field, gen, shape_a), _operand(field, gen, shape_b)
        _assert_same(field, field.kron(a, b), _expected(field, np.kron(a, b)))
        _assert_same(field, field.kron(b, a), _expected(field, np.kron(b, a)))


def test_rational_products_on_the_object_path():
    """Numerators near 2^40 put the bound max|N_a| max|N_b| K at or above 2^63:
    the integer product runs on Python ints, and still matches numpy's
    Fraction arithmetic."""
    gen = np.random.default_rng(3300)
    for shape_a, shape_b, axes in [((3, 4), (4, 2), 1), ((2, 3, 4), (5, 4, 3), ([1, 2], [2, 1])), ((2, 3), (3,), (-1, 0))]:
        a, b = _operand(QQ, gen, shape_a, big=True), _operand(QQ, gen, shape_b, big=True)
        assert _numerators(a)[2] * _numerators(b)[2] >= 1 << 63
        _assert_same(QQ, QQ.tensordot(a, b, axes), _expected(QQ, np.tensordot(a, b, axes)))
    a, b = _operand(QQ, gen, (2, 3), big=True), _operand(QQ, gen, (3, 2), big=True)
    _assert_same(QQ, QQ.matmul(a, b), _expected(QQ, np.dot(a, b)))
    _assert_same(QQ, QQ.kron(a, b), _expected(QQ, np.kron(a, b)))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_tensordot_refuses_what_numpy_refuses(field):
    a, b = field.zeros((2, 3)), field.zeros((3, 2))
    for axes in [([0], [0]), ([0, 1], [0]), 2, ([0, 1], [1, 0, 0])]:
        with pytest.raises(ValueError):
            np.tensordot(a, b, axes)
        with pytest.raises(ValueError):
            field.tensordot(a, b, axes)
