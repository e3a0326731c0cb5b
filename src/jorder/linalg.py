"""Exact Gaussian elimination kernels shared by every higher layer.

All routines are deterministic: the reduced row echelon form of a matrix is
unique, so reduced forms, nullspace bases, and solutions are canonical for a
given input. No floating point anywhere.

rref is the one elimination entry, written against the field interface. It
canonicalises the matrix once (canon returns a fresh array, so the input is
never written to) and then runs one of three Gauss-Jordan loops, chosen by
the input alone. The reduced echelon form is unique, so all three give the
same output bit for bit; none is an option a caller can pick. An input with
no nonzero entry, zero or empty, is its own reduced form: rref returns the
fresh canonical array with no pivots and runs no loop.

_rref_sparse keeps only the nonzeros: each nonzero row becomes a dict
{column: value} read straight off r.nonzero(), so zero rows and zero
entries never reach Python. Each row is reduced by the pivot row of its
leading column until that column has no pivot yet; the row, normalised, is
then the pivot row there. One back-substitution pass, from the last pivot
up, clears the later pivot columns of each pivot row, and only the pivot
rows are written back into r, every other entry being zero. The cost
follows the nonzeros and their fill-in, not the cells.

_rref_rows eliminates on the matrix's Python rows (tolist). At the pivot in
column col it touches only the rows with a nonzero entry there, and in them
only the columns where the normalised pivot row is nonzero: left of col the
pivot row is zero. Over GF(p) each updated entry is reduced mod p at once;
over Q the Fractions are exact and already canonical. The rows are written
back into the canonical array at the end.

_rref_array updates numpy row blocks. At the pivot in column col it updates
only the rows with a nonzero entry in that column, and only their columns
col onward. The pivot row is among those rows, so the update zeroes it and
the normalised row is written back afterwards. Each update is one field.sub
of the unreduced outer product of the pivot column with the normalised pivot
row. Over GF(p) the entries are canonical, so that product is below
p^2 < 2^40 and exact in int64; sub's single reduction mod p then leaves every
entry canonical again, with no further canon pass.

The choice counts the nonzeros nnz of the canonical input. An input with
nnz <= 2 max(rows, cols) and 8 nnz <= rows * cols, about two nonzeros a row
or column and at most one cell in eight, takes the dict loop, over GF(p)
and Q alike: Hom systems, commutation rows and radical stacks written in a
quiver basis look like this. On a 576x324 GF(101) Hom system with 864
nonzeros it takes 1.8 ms, where the array loop takes 5.9 ms and the list
rows 12 ms; on a 384x16 radical stack with 40, 0.07 ms against 0.21 and
0.40 ms. Dense inputs cost more in dicts than in lists: a dense 10x10
takes 112 us on dicts and 70 us on list rows.

Any other input over Q takes the list-row loop: on object arrays numpy only
wraps the same per-entry Fraction operations, and adds its dispatch per
pivot. Over GF(p) an input with at most _ROW_KERNEL_NNZ = 128 nonzero
entries takes the list-row loop, any other the array loop. Small dense
eliminations pay numpy's dispatch per pivot, not arithmetic: on a dense 6x6
GF(101) matrix the array loop takes 67 us and the row loop 37 us. On dense
systems of more than 512 cells the array loop is 3-4x faster. That constant
came from replaying the exact rref inputs of one seed-0 pass of each jbench
workload under the two loops (best of 5, one thread on a shared 2-vCPU
Linux host); thresholds from 64 to 256 replayed alike, and at 512
lrproj-gf101 was 5-10% slower. The same replay, best of 7-9 per input,
gives the sparse rule's effect, all three loops against the two:
- verify-gf101, 2,309 calls, 1,243 to the dict loop (by time hom_space's
  nullspaces first, then radical_sub_rows and graded pieces): 63-72 ms a
  pass with two loops, 38-46 ms with three;
- lrproj-gf101, 1,414 calls, 260 to the dict loop, all small: 59-65 ms
  and 60-62 ms;
- verify-q, 183 calls, 60 to the dict loop: 6.9-7.3 ms and 6.3-6.5 ms.

Every basis the library builds (row_basis, hom_space, radical_rows) is in
reduced echelon form, and vectors are read against it without a second
elimination. Reduced echelon rows are independent, so coordinates in them
are unique, and the pivot columns of the rows form an identity block: a
vector c . rows has entry c_i at pivot i. So the coordinates of v are
v[pivots], equal to what solve returns, and one product, v[pivots] . rows
== v, decides whether v lies in the span. The complement of the span is
read off the same rows: the free columns are its coordinates. echelon_pivots
checks the form before anything is read, so an arbitrary basis raises
instead of giving wrong coordinates. The complement of a common kernel
{w : H w = 0} needs no basis of the kernel: quotient_projection reads it off
one elimination of H with its columns reversed (the lemma is in its
docstring).
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrix

# GF(p) inputs the sparse rule leaves take _rref_rows up to this many nonzero entries (see the header)
_ROW_KERNEL_NNZ = 128


def _as_2d(a):
    """np.atleast_2d(a), skipping the call on the matrices the elimination path passes."""
    return a if getattr(a, "ndim", 0) >= 2 else np.atleast_2d(a)


def rref(field, a):
    """Reduced row echelon form.

    Returns (r, pivots) where pivots lists the pivot column indices in order.
    """
    # canonicalize first: raw products (e.g. unreduced tensordot output) may
    # hold representatives like 2 over GF(2) that compare nonzero but are not.
    # as _as_2d, written with the names rref may read; canon takes a nested list too
    r = field.canon(a if np.ndim(a) >= 2 else np.atleast_2d(a))
    nrows, ncols = r.shape
    nnz = np.count_nonzero(r)
    if nnz == 0:  # a zero or empty system: r is already its reduced form
        return r, []
    if nnz <= 2 * max(nrows, ncols) and 8 * nnz <= nrows * ncols:
        return _rref_sparse(field, r)
    if field.char == 0 or nnz <= _ROW_KERNEL_NNZ:
        return _rref_rows(field, r)
    return _rref_array(field, r)


def _sub_row(p, row, c, pivot):
    """row -= c * pivot on dict rows {column: value}, dropping the entries that cancel."""
    for j, x in pivot.items():
        v = row.get(j, 0) - c * x
        if p:
            v %= p
        if v:
            row[j] = v
        else:  # c * x is nonzero, so row held column j
            del row[j]


def _rref_sparse(field, r):
    """rref of a sparse canonical matrix on dict rows of its nonzeros, written back into r."""
    p = field.char
    ii, jj = r.nonzero()
    rows = {}
    for i, j, x in zip(ii.tolist(), jj.tolist(), r[ii, jj].tolist()):
        rows.setdefault(i, {})[j] = x
    # forward: each row is reduced by the pivot row of its leading column
    # until its leading column is new; that row, normalised, is the pivot there
    pivot_rows = {}
    for row in rows.values():
        while row:
            lead = min(row)
            pivot = pivot_rows.get(lead)
            if pivot is None:
                if row[lead] != 1:
                    inv = field.inv_scalar(row[lead])
                    row = {j: x * inv % p if p else x * inv for j, x in row.items()}
                pivot_rows[lead] = row
                break
            _sub_row(p, row, row[lead], pivot)
    # back: from the last pivot up, clear the later pivot columns of each row;
    # those rows are already reduced, so no pivot column fills in again
    pivots = sorted(pivot_rows)
    for col in reversed(pivots):
        row = pivot_rows[col]
        for j in [j for j in row if j != col and j in pivot_rows]:
            _sub_row(p, row, row[j], pivot_rows[j])
    r[...] = field.zero
    if pivots:
        ii, jj, vals = zip(*[(i, j, x) for i, col in enumerate(pivots) for j, x in pivot_rows[col].items()])
        r[list(ii), list(jj)] = vals
    return r, pivots


def _rref_rows(field, r):
    """rref of a canonical matrix on Python rows, written back into r."""
    rows = r.tolist()
    nrows, ncols = r.shape
    p = field.char
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        hit = [i for i, x in enumerate(rows) if x[col]]
        pivot_row = next((i for i in hit if i >= row), None)
        if pivot_row is None:
            continue
        rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
        pivot = rows[row]
        inv = field.inv_scalar(pivot[col])
        # left of col the pivot row is zero
        nonzero = [(j, x * inv % p if p else x * inv) for j, x in enumerate(pivot[col:], col) if x]
        for j, x in nonzero:
            pivot[j] = x
        for i in hit:
            if i == pivot_row:  # the pivot row, or the zero row swapped into its place
                continue
            other = rows[i]
            c = other[col]
            if p:
                for j, x in nonzero:
                    other[j] = (other[j] - c * x) % p
            else:
                for j, x in nonzero:
                    other[j] -= c * x
        pivots.append(col)
    if pivots:  # without a pivot r is zero, and may have no rows to assign from
        r[...] = rows
    return r, pivots


def _rref_array(field, r):
    """rref of a canonical matrix by numpy row-block updates, in place."""
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        below = r[row:, col].nonzero()[0]
        if not below.size:
            continue
        pivot_row = row + below[0]
        if pivot_row != row:
            r[[row, pivot_row]] = r[[pivot_row, row]]
        pivot = field.smul(field.inv_scalar(r[row, col]), r[row, col:])
        hit = r[:, col].nonzero()[0]
        block = r[hit, col:]
        r[hit, col:] = field.sub(block, block[:, :1] * pivot)
        r[row, col:] = pivot
        pivots.append(col)
        row += 1
    return r, pivots


def free_columns(ncols, pivots):
    """Indices of the non-pivot columns, in order."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    return free.nonzero()[0]


def rank(field, a):
    return len(rref(field, a)[1])


def row_basis(field, a):
    """Canonical basis (as rows) of the row space of a."""
    r, pivots = rref(field, a)
    return r[: len(pivots)]


def rank_nullspace(field, a):
    """Rank and right nullspace.

    Returns (rank, ns) with ns of shape (ncols, ncols - rank); the columns are
    the canonical echelon basis of {x : a x = 0} read off the reduced form
    (one basis vector per free column, unit coordinate at that column).
    """
    a = _as_2d(a)
    r, pivots = rref(field, a)
    ncols = a.shape[1]
    free = free_columns(ncols, pivots)
    ns = field.zeros((ncols, free.size))
    ns[free, np.arange(free.size)] = field.one
    ns[pivots] = field.neg(r[: len(pivots), free])
    return len(pivots), ns


def nullspace(field, a):
    return rank_nullspace(field, a)[1]


def solve(field, a, b):
    """Exact solution of a x = b, or None when the system is inconsistent.

    b may be a vector or a matrix of stacked right-hand sides. The solution is
    canonical: free variables are set to zero. When b is a vector the result
    is a vector.
    """
    a = _as_2d(a)
    vector_rhs = np.asarray(b).ndim == 1
    bm = np.asarray(b).reshape(-1, 1) if vector_rhs else np.asarray(b)
    if bm.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {bm.shape}")
    ncols = a.shape[1]
    aug = np.concatenate([a, bm], axis=1)
    r, pivots = rref(field, aug)
    if any(p >= ncols for p in pivots):
        return None
    x = field.zeros((ncols, bm.shape[1]))
    x[pivots] = r[: len(pivots), ncols:]
    return x.reshape(-1) if vector_rhs else x


def invert(field, a):
    a = _as_2d(a)
    n, m = a.shape
    if n != m:
        raise SingularMatrix(f"cannot invert a {n}x{m} matrix")
    # a consistent a x = I proves a square a invertible
    x = solve(field, a, field.eye(n))
    if x is None:
        raise SingularMatrix("matrix is singular")
    return x


def echelon_pivots(field, rows):
    """Pivot column of each row of a reduced echelon basis.

    A row's pivot is its first nonzero column. Raises AssertionError unless
    every row is nonzero, the pivots increase and rows[:, pivots] is the
    identity: its diagonal is one and it has no other nonzero entry.
    """
    rows = _as_2d(rows)
    nonzero = rows.astype(bool)
    r, ncols = rows.shape
    # with no columns every row is zero, and no pivot is in range
    pivots = nonzero.argmax(axis=1) if ncols else np.full(r, ncols)
    if not ((pivots < ncols).all() and (pivots[1:] > pivots[:-1]).all()
            and (rows[np.arange(r), pivots] == field.one).all()
            and np.count_nonzero(nonzero[:, pivots]) == r):
        raise AssertionError("basis rows are not in reduced echelon form")
    return pivots


def coords_in_row_basis(field, rows, vectors, pivots=None):
    """Coordinates of the row vectors in a reduced echelon row basis; None if outside.

    The coordinates are the vectors' entries at the pivot columns; they are
    correct exactly when they reproduce the vectors. Only the basis rows
    with a nonzero coordinate enter that product. A caller that reads many
    blocks against one basis checks it once and passes its echelon_pivots.
    """
    rows = _as_2d(rows)
    vectors = field.canon(_as_2d(vectors))
    coords = vectors[:, echelon_pivots(field, rows) if pivots is None else pivots]
    used = coords.astype(bool).any(axis=0)
    if not (field.matmul(coords[:, used], rows[used]) == vectors).all():
        return None
    return coords


def stack_product(field, f, mats):
    """The stack of products f mats[i], as one field.matmul."""
    return field.matmul(f, mats).transpose(1, 0, 2)


def complement_projection(field, rows, dim):
    """Projection onto the complement of a reduced echelon row span, plus its section.

    Returns (proj t x dim, section dim x t) with proj @ section = identity
    and proj vanishing on the row span: the free columns are the
    coordinates, and a pivot column carries minus the free entries of its row.
    """
    rows = _as_2d(rows)
    pivots = echelon_pivots(field, rows)
    free = free_columns(dim, pivots)
    proj = field.zeros((free.size, dim))
    sect = field.zeros((dim, free.size))
    proj[np.arange(free.size), free] = field.one
    sect[free, np.arange(free.size)] = field.one
    proj[:, pivots] = field.neg(rows[:, free]).T
    return proj, sect


def quotient_projection(field, rows):
    """complement_projection of the common kernel of the rows, from one elimination.

    Returns (proj t x n, section n x t), equal to
    complement_projection(field, row_basis(field, nullspace(field, rows).T), n).

    Lemma. Let H be the rows, W = {w : H w = 0}, t = rank H, J the reversal
    of the n columns and R = rref(H J) with pivots p_1 < ... < p_t. Then the
    free columns of rref(W) are the n-1-p_i, and the projection is R[:t]
    with its rows and columns reversed.

    Proof. R is reduced, so R[i, f] != 0 only when p_i < f. The canonical
    nullspace vector of H J for a free column f is 1 at f, with its other
    nonzeros at pivots p_i < f. Reversed, these n - t vectors lie in W; each
    has a leading 1 at n-1-f and is zero at the others' leading columns, so
    they are rref(W), and W's free columns are the n-1-p_i. The projection's
    rows vanish on W and have rank t, so they span the annihilator of W, the
    row space of H. They hold the identity at the free columns, and only one
    basis of that row space does; the reversed rows of R lie in it and hold
    exactly that identity.
    """
    rows = _as_2d(rows)
    n = rows.shape[1]
    r, pivots = rref(field, rows[:, ::-1])
    t = len(pivots)
    free = n - 1 - np.array(pivots[::-1], dtype=int)
    sect = field.zeros((n, t))
    sect[free, np.arange(t)] = field.one
    return np.ascontiguousarray(r[:t][::-1, ::-1]), sect


def intersect_row_spaces(field, rows_a, rows_b):
    """Canonical row basis of the intersection of two row spaces."""
    rows_a, rows_b = _as_2d(rows_a), _as_2d(rows_b)
    if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
        return field.zeros((0, rows_a.shape[1]))
    # x = c_a . rows_a = c_b . rows_b; solve [rows_a^T | -rows_b^T] kernel
    stacked = np.concatenate([rows_a.T, field.canon(field.neg(rows_b.T))], axis=1)
    _, ns = rank_nullspace(field, stacked)
    if ns.shape[1] == 0:
        return field.zeros((0, rows_a.shape[1]))
    coeff_a = ns[: rows_a.shape[0]].T
    return row_basis(field, field.matmul(coeff_a, rows_a))


def random_invertible(field, gen, n):
    """Seeded invertible matrix: retry until full rank (fast at desk sizes)."""
    while True:
        m = field.rand_mat(gen, n, n)
        if rank(field, m) == n:
            return m
