"""Exact linear algebra over a prime field GF(p).

Matrices are numpy integer arrays, and results have entries in [0, p).
Inputs may be any integer arrays that int64 holds.  An input whose entries
already lie in [0, p) is read as it is; only one with an entry outside that
range is reduced, into an int64 copy.  Elimination runs exactly in int64;
only `matmul_gfp` uses float64, for BLAS, which is exact while p**2 < 2**53
(the default modulus 65521 leaves ample headroom); near that bound it
splits its right factor into 14-bit limbs, so that each BLAS call still
takes thousands of inner indices.

`rank_gfp` first peels singletons off the nonzero pattern (structured
Gaussian elimination, LaMacchia-Odlyzko 1990): the nonzero of a row or
column with one nonzero is a unit that clears the rest of its column or
row by elementary operations, so it adds 1 to the rank, and its row and
column can be deleted.  While the core left is sparse, a round of
conflict-free pivots follows (Bouillaguet-Delaplace 2016, after
Faugere-Lachartre 2010): each row proposes its nonzero of least Markowitz
cost, each column keeps one proposal, and of two proposals where one's row
meets the other's column the costlier (at equal cost, the later) goes.
The pivots left form a diagonal block; they add their number to the rank,
and the rest of the matrix becomes its Schur complement, formed from the
nonzeros alone, with fill that cancels mod p dropped.  Below p = 2**17 the
pivots' inverses are read off a cached int32 table of every unit's
inverse, else computed by Fermat's a**(p-2); the Markowitz costs and the
pivot indices are sorted in the narrowest unsigned dtype that holds them,
where numpy radix-sorts keys of 16 bits or fewer.  Peeling and rounds
alternate until the core is dense (fewer than 20 cells per nonzero), a
round would form more than cells / 20 products, or a round takes fewer
than 1/16 of the pivots the core could hold; only then is the core
scattered into a dense array and eliminated.  The pattern is built only
when its index pairs weigh no more than the int64 copy that dense
elimination makes, so denser input is eliminated directly.
`rank_of_nonzeros` ranks a matrix given only as its nonzeros (row, col,
value) the same way, so a caller that assembles sparse rows never builds
them dense; it reduces the values mod p and drops the zeros first, so
that a stored multiple of p is not peeled as a unit.

Each pivot of dense elimination (`_echelon`) updates only the nonzero
columns of its row, or the contiguous slice from its column on when they
are at least half of that slice, so the cost follows the fill-in, not the
shape; one scan of each pivot column both finds the pivot and names the
rows it updates.  A rank counts pivots only: it neither swaps nor scales
rows, and leaves its int64 copy as scratch.  `kernel_of_rref` reads the
right kernel off an RREF, one vector per free column, so the kernel of M,
`kernel_of_rref(*rref_gfp(M, p), p)`, costs the RREF of M and one RREF of
those vectors.  All public routines are pure functions.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

DEFAULT_PRIME = 65521
DEFAULT_CELL_BUDGET = 50_000_000

_F64_EXACT = 2**53


class SizeBudgetError(RuntimeError):
    """A requested matrix would exceed the configured cell budget."""


def _env_int(name: str, default: int) -> int:
    """Integer value of environment variable `name`, or `default` if unset."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def cell_budget() -> int:
    return _env_int("JACRING_CELL_BUDGET", DEFAULT_CELL_BUDGET)


def check_budget(rows: int, cols: int) -> None:
    """The one size limit: $JACRING_CELL_BUDGET cells, with no per-call override."""
    limit = cell_budget()
    if rows * cols > limit:
        raise SizeBudgetError(
            f"matrix of shape {rows}x{cols} exceeds cell budget {limit}"
        )


@lru_cache(maxsize=32)  # every Polynomial and GradedSubspace re-checks its modulus
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def validate_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p * p >= _F64_EXACT:
        raise ValueError(f"modulus {p} too large for exact float64 products")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(p)")
    return pow(a, -1, p)


def _residues(M: np.ndarray, p: int) -> np.ndarray:
    """M with its entries in [0, p): M itself when they already are, else a
    reduced int64 copy.  Refuses input that int64 may not hold, as uint64
    or float."""
    A = np.asarray(M)
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.can_cast(A.dtype, np.int64, "safe"):
        raise TypeError(f"cannot hold {A.dtype} entries exactly in int64")
    if A.size and (A.min() < 0 or A.max() >= p):
        A = A.astype(np.int64)
        np.remainder(A, p, out=A)
    return A


def _as_int64(M: np.ndarray, p: int) -> np.ndarray:
    """A fresh C-ordered int64 copy of M with entries in [0, p), for
    elimination in place."""
    M = np.asarray(M)
    A = _residues(M, p)
    return A.astype(np.int64, order="C", copy=A is M)


def _first_of_each(ids: np.ndarray, size: int) -> np.ndarray:
    """Mask of the first occurrence of each id in `ids`, integers in
    [0, size): np.unique's return_index as a mask, in linear time."""
    first = np.full(size, ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))
    keep = np.zeros(ids.size + 1, dtype=bool)
    keep[first] = True
    return keep[:-1]


def _renumber(ids: np.ndarray) -> tuple[np.ndarray, int]:
    """Each of the integer `ids` (at least one) as its rank among the
    distinct ids, and their number: np.unique's return_inverse in linear
    time, by a mask over the range of the ids."""
    ids = ids - ids.min()
    seen = np.zeros(ids.max() + 1, dtype=bool)
    seen[ids] = True
    number = np.cumsum(seen)
    return number[ids] - 1, int(number[-1])


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[t] .. starts[t] + counts[t] - 1."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _peel(rows: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Singleton peeling of the nonzero pattern (rows[i], cols[i]) of a
    matrix whose nonzeros are units: a row or column with one nonzero adds 1
    to the rank, and goes together with that nonzero's column or row.
    Returns the number of such pairs and the mask of the nonzeros left."""
    left = np.ones(len(rows), dtype=bool)
    pairs = 0
    while True:
        r, c = rows[left], cols[left]
        single = np.flatnonzero((np.bincount(r) == 1)[r] | (np.bincount(c) == 1)[c])
        if not single.size:
            return pairs, left
        dead_rows = np.zeros(rows.max() + 1, dtype=bool)
        dead_cols = np.zeros(cols.max() + 1, dtype=bool)
        # one pair per row and per column; a singleton row and a singleton
        # column share a line only at the same nonzero, and of the
        # singletons on one line any will do: each is alone on its other
        # line, so what is left is the same
        single = single[_first_of_each(r[single], dead_rows.size)]
        single = single[_first_of_each(c[single], dead_cols.size)]
        pairs += single.size
        dead_rows[r[single]] = dead_cols[c[single]] = True
        left &= ~(dead_rows[rows] | dead_cols[cols])


def _echelon(A: np.ndarray, p: int, reduced: bool) -> list[int]:
    """Pivot columns of the int64 matrix A with entries in [0, p), found by
    elimination in place.  With `reduced`, A is left in RREF, its zero rows
    last.  Without, only the pivots count, and A is left as scratch: a
    pivot row found below row r is not swapped up but read where it is,
    and row r is copied over it.

    Each pivot scans its column once, for the pivot and the rows it
    updates, and gathers their block once, with the pivot column first, so
    the factors are the block's first column.  The block is the pivot
    row's nonzero columns, or, when they are at least half of the columns
    from the pivot on, that whole contiguous slice, which is cheaper to
    gather; on wide rows with few nonzeros the slice would touch many
    times the cells, so they keep the gather of their support."""
    rows, cols = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if reduced and i != r:
            # rows r and below are zero left of c
            A[r, c:], A[i, c:] = A[i, c:].copy(), A[r, c:].copy()
            i = r
        # rows r to i - 1 are zero in column c, so the scan that found the
        # pivot also names every row below r to update
        others = r + nz[1:]
        if reduced:
            # on small RREFs an empty concatenation would cost more than a
            # second scan of the whole column
            above = A[:r, c].nonzero()[0]
            if above.size:
                others = np.concatenate((above, others))
        support = A[i, c:].nonzero()[0]
        if 2 * support.size >= cols - c:
            at, cut = others, slice(c, None)
        else:
            at, cut = others[:, None], c + support
        inv = pow(int(A[i, c]), -1, p)
        pivot_row = A[i, cut] * inv % p
        if reduced:
            A[i, cut] = pivot_row
        if others.size:
            block = A[at, cut]
            block -= block[:, :1] * pivot_row
            block %= p
            A[at, cut] = block
        if i != r:
            A[i, c:] = A[r, c:]
        pivots.append(c)
        r += 1
    return pivots


# Below this modulus `_inverses` reads a table of every unit's inverse: at
# most 512 KB of int32; at 65521, 256 KB built in about 1.2 ms (2-core
# x86-64 VM)
_TABLE_PRIMES = 2**17


@lru_cache(maxsize=4)
def _inverse_table(p: int) -> np.ndarray:
    """int32 inverses mod p of 0 .. p-1 (0 at 0), by the recurrence
    inv(i) = -(p // i) * inv(p % i).  On a run of i with one quotient k,
    p % i = p - k*i lies below the run and steps down by k, so each run is
    one strided gather; below sqrt(p) the runs are about one i long, and
    a Python step is cheaper than numpy calls."""
    m = math.isqrt(p)
    small = [0, 1]
    for i in range(2, m + 1):
        small.append((p - p // i) * small[p % i] % p)
    table = np.zeros(p, dtype=np.int32)
    table[:m + 1] = small
    i = m + 1
    while i < p:
        k = p // i
        last = min(p // k, p - 1)
        # p - k*last = p % last >= 1, so the slice stops at index 0 or above
        x = table[p - k * i:p - k * last - 1:-k].astype(np.int64)
        x *= p - k
        x %= p
        table[i:last + 1] = x
        i = last + 1
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _inverses(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses of units a in [1, p): read off the table of
    every unit's inverse below _TABLE_PRIMES, else by Fermat's a**(p-2),
    each product staying below p**2 < 2**53."""
    if p < _TABLE_PRIMES:
        return _inverse_table(p)[a]
    out = np.ones_like(a)
    e = p - 2
    while e:
        if e & 1:
            out = out * a % p
        a = a * a % p
        e >>= 1
    return out


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of nonnegative integer keys, sorted in the narrowest
    unsigned dtype that holds them: a stable order is the same in any
    dtype, and numpy radix-sorts keys of 16 bits or fewer."""
    return np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))), kind="stable")


# A core is sparse while it has at least this many cells per nonzero; a
# round may form at most cells / _CELLS_PER_NONZERO products.
_CELLS_PER_NONZERO = 20
# A round that takes fewer than 1/_MIN_ROUND_SHARE of the core's possible
# pivots is the last: chains of equal-cost candidates can kill each other
# round after round, one pivot at a time.
_MIN_ROUND_SHARE = 16


def _pivot_round(r, c, v, shape, p, max_products):
    """One round of conflict-free pivots on the nonzeros v[i] in [1, p) at
    distinct positions (r[i], c[i]) of a matrix of `shape` whose rows and
    columns all hold two nonzeros or more, as a peel leaves them.

    Each row proposes its nonzero of least Markowitz cost (row count - 1) *
    (column count - 1); each column keeps its best proposal; and of two
    proposals where one's row meets the other's column, the costlier one
    (at equal cost, the later) goes.  The pivots left form a diagonal
    block, whose Schur complement has rank = rank - pivots.  Returns
    (pivots, rows, cols, vals) of that complement, or None when it would
    form more than `max_products` products."""
    row_count = np.bincount(r, minlength=shape[0])
    col_count = np.bincount(c, minlength=shape[1])
    cost = (row_count[r] - 1) * (col_count[c] - 1)
    order = _stable_argsort(cost)
    # the first nonzero of each row, then of each column, in priority order
    cand = order[_first_of_each(r[order], shape[0])]
    cand = cand[_first_of_each(c[cand], shape[1])]
    at_row = np.full(shape[0], -1)
    at_col = np.full(shape[1], -1)
    at_row[r[cand]] = at_col[c[cand]] = np.arange(cand.size)
    a, b = at_row[r], at_col[c]
    meet = (a >= 0) & (b >= 0) & (a != b)
    dropped = np.zeros(cand.size, dtype=bool)
    dropped[np.maximum(a[meet], b[meet])] = True
    piv = cand[~dropped]
    # a pivot's column meets no other pivot row, so it forms one product
    # per pair of its other column and row nonzeros: its Markowitz cost
    if cost[piv].sum() > max_products:
        return None

    at_row[:] = at_col[:] = -1
    at_row[r[piv]] = at_col[c[piv]] = np.arange(piv.size)
    a, b = at_row[r], at_col[c]
    # the nonzeros of the pivot rows outside the pivot columns, by pivot
    across = np.flatnonzero((a >= 0) & (b < 0))
    across = across[_stable_argsort(a[across])]
    counts = np.bincount(a[across], minlength=piv.size)
    starts = np.cumsum(counts) - counts
    # each nonzero below a pivot, times the pivot's inverse, meets its row
    down = np.flatnonzero((b >= 0) & (a < 0))
    k = b[down]
    factors = v[down] * _inverses(v[piv], p)[k] % p
    each = counts[k]
    src = np.repeat(np.arange(down.size), each)
    at = across[_runs(starts[k], each)]
    rest = np.flatnonzero((a < 0) & (b < 0))
    keys = np.concatenate((r[rest] * shape[1] + c[rest],
                           r[down][src] * shape[1] + c[at]))
    vals = np.concatenate((v[rest], p - factors[src] * v[at] % p))
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    head = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    head = np.flatnonzero(head)
    vals = np.add.reduceat(vals, head) % p
    nonzero = vals != 0  # fill that cancels mod p
    keys, vals = keys[head][nonzero], vals[nonzero]
    return piv.size, keys // shape[1], keys % shape[1], vals


def _sparse_rank(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, p: int) -> int:
    """Rank of the matrix with int64 nonzeros vals[i] in [1, p) at distinct
    positions (rows[i], cols[i]): singleton pairs peeled off the pattern
    and rounds of conflict-free pivots taken while the core is sparse,
    plus the rank of the dense core they leave."""
    rank, rounds = 0, True
    while True:
        pairs, left = _peel(rows, cols)
        rank += pairs
        if not left.any():
            return rank
        rows, height = _renumber(rows[left])
        cols, width = _renumber(cols[left])
        vals = vals[left]
        shape = (height, width)
        cells = shape[0] * shape[1]
        if not rounds or cells < _CELLS_PER_NONZERO * vals.size:
            break
        step = _pivot_round(rows, cols, vals, shape, p, cells // _CELLS_PER_NONZERO)
        if step is None:
            break
        taken, rows, cols, vals = step
        rank += taken
        rounds = _MIN_ROUND_SHARE * taken >= min(shape)
    r, c = rows, cols
    if shape[0] > shape[1]:
        # the transpose has the same rank, and each of its pivots updates
        # at most the shorter side's rows
        r, c, shape = c, r, shape[::-1]
    core = np.zeros(shape, dtype=np.int64)
    core[r, c] = vals
    return rank + len(_echelon(core, p, reduced=False))


def rank_gfp(M: np.ndarray, p: int) -> int:
    """Rank over GF(p): singleton pairs peeled off the nonzero pattern, plus
    the rank of the dense core they leave (see the module docstring)."""
    M = np.asarray(M)
    A = _residues(M, p)
    if 2 * np.count_nonzero(A) > A.size:
        # the index pairs would outweigh the int64 copy
        return len(_echelon(A.astype(np.int64, copy=A is M), p, reduced=False))
    # one flat scan of a boolean mask: numpy's 2-d nonzero is far slower,
    # and a flat scan cannot name a position twice
    rows, cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])
    # the rounds multiply residues, which a narrow dtype cannot hold
    return _sparse_rank(rows, cols, A[rows, cols].astype(np.int64, copy=False), p)


def rank_of_nonzeros(rows, cols, vals, p: int) -> int:
    """Rank over GF(p) of the matrix whose entry at (rows[i], cols[i]) is
    vals[i] and every other entry is zero.  The values are reduced mod p
    and zeros dropped before peeling; a repeated position raises
    `ValueError`, since its entries would have to be summed."""
    rows, cols, vals = (np.asarray(x) for x in (rows, cols, vals))
    if rows.ndim != 1 or not rows.shape == cols.shape == vals.shape:
        raise ValueError("rows, cols and vals must be 1-d of one length")
    for x in (rows, cols, vals):
        if x.size and not np.can_cast(x.dtype, np.int64, "safe"):
            raise TypeError(f"cannot hold {x.dtype} entries exactly in int64")
    rows, cols = rows.astype(np.int64), cols.astype(np.int64)
    if rows.size and min(rows.min(), cols.min()) < 0:
        raise ValueError("negative row or column index")
    keys = np.sort(rows * (int(cols.max(initial=0)) + 1) + cols)
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("repeated (row, col) position")
    vals = vals.astype(np.int64) % p
    keep = vals != 0
    return _sparse_rank(rows[keep], cols[keep], vals[keep], p)


def rref_gfp(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; zero rows are dropped."""
    E = _as_int64(M, p)
    pivots = _echelon(E, p, reduced=True)
    # no view of E outlives the elimination, so it shrinks to its rank rows
    # in place: a view would keep every row alive, a copy add to the peak
    E.resize((len(pivots), E.shape[1]), refcheck=False)
    return E, pivots


def _kernel_rows(R: np.ndarray, pivots, p: int) -> tuple[np.ndarray, np.ndarray]:
    """A basis of the right kernel {x : R x = 0} of a matrix R in RREF with
    pivot columns `pivots`, and the free columns it is indexed by: for
    each free column f, in increasing order, the vector
    e_f - sum_i R[i, f] e_(pivots[i]).  These lie in the kernel and are
    independent, one per free column, so they span it."""
    pivots = list(pivots)
    free = np.ones(R.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    V = np.zeros((free.size, R.shape[1]), dtype=np.int64)
    V[np.arange(free.size), free] = 1
    V[:, pivots] = (p - R[:, free].T) % p
    return V, free


def kernel_of_rref(R: np.ndarray, pivots, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF and pivot columns of the right kernel {x : R x = 0} of a matrix
    R in RREF with pivot columns `pivots`: the RREF of `_kernel_rows`."""
    return rref_gfp(_kernel_rows(R, pivots, p)[0], p)


def _chunked_matmul(Af: np.ndarray, Bf: np.ndarray, p: int, top: int) -> np.ndarray:
    """Exact Af @ Bf mod p for float64 Af with entries below p and Bf with
    entries at most `top`: the inner dimension is cut into chunks whose
    sums of products stay below 2**53."""
    chunk = max(1, (_F64_EXACT - 1) // ((p - 1) * max(top, 1)))
    out = np.zeros((Af.shape[0], Bf.shape[1]), dtype=np.int64)
    for lo in range(0, Af.shape[1], chunk):
        out = (out + (Af[:, lo:lo + chunk] @ Bf[lo:lo + chunk]).astype(np.int64)) % p
    return out


# B's limbs, when p**2 is too close to 2**53 for a useful chunk
_LIMB = 2**14


def matmul_gfp(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact A @ B mod p via float64 BLAS, chunking the inner dimension.

    Near p**2 = 2**53 a chunk would hold a single inner index, one BLAS
    call per index; there B is split into limbs, B = hi * 2**14 + lo, and
    the two products, whose entries are far smaller, take long chunks."""
    Af = _residues(A, p).astype(np.float64)
    B = _residues(B, p)
    if Af.shape[1] != B.shape[0]:
        raise ValueError("shape mismatch")
    if (_F64_EXACT - 1) // ((p - 1) ** 2) >= _LIMB:
        return _chunked_matmul(Af, B.astype(np.float64), p, p - 1)
    hi, lo = (x.astype(np.float64) for x in np.divmod(B, _LIMB))
    out = _chunked_matmul(Af, hi, p, (p - 1) // _LIMB) * _LIMB
    out += _chunked_matmul(Af, lo, p, _LIMB - 1)
    return out % p
