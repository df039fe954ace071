"""Exact dense linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with entries in [0, p); inputs may be any
integer arrays that int64 holds.  Elimination runs exactly in int64; only
`matmul_gfp` uses float64, for BLAS, which is exact while p**2 < 2**53
(the default modulus 65521 leaves ample headroom).  Each pivot touches
only the nonzero columns of its row, so the cost of an elimination follows
its fill-in, not its shape, and one scan of each pivot column both finds
the pivot and names the rows it updates.  All routines are pure functions.
"""

from __future__ import annotations

import bisect
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
    return pow(a, p - 2, p)


def _as_int64(M: np.ndarray, p: int) -> np.ndarray:
    # one fresh copy, reduced in place, for peak memory on large Jacobian
    # pieces; "safe" refuses input that int64 may not hold, as uint64 or float
    A = np.asarray(M).astype(np.int64, casting="safe")
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return np.remainder(A, p, out=A)


def _echelon(M: np.ndarray, p: int, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of a reduced copy of M; returns (matrix, pivot columns)."""
    A = _as_int64(M, p)
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
        if i != r:
            A[[r, i]] = A[[i, r]]
        # row i now holds the old row r, zero in column c, so the scan that
        # found the pivot also names every row below r to update
        others = r + nz[1:]
        if reduced:
            # on small RREFs an empty concatenation would cost more than a
            # second scan of the whole column
            above = A[:r, c].nonzero()[0]
            if above.size:
                others = np.concatenate((above, others))
        support = c + A[r, c:].nonzero()[0]
        inv = inv_mod(int(A[r, c]), p)
        A[r, support] = (A[r, support] * inv) % p
        if others.size:
            at = others[:, None]
            A[at, support] = (A[at, support] - A[at, c] * A[r, support]) % p
        pivots.append(c)
        r += 1
    return A, pivots


def rank_gfp(M: np.ndarray, p: int) -> int:
    _, pivots = _echelon(M, p, reduced=False)
    return len(pivots)


def rref_gfp(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; zero rows are dropped."""
    E, pivots = _echelon(M, p, reduced=True)
    return E[: len(pivots)].copy(), pivots  # a view would keep all rows of E


def nullspace_gfp(M: np.ndarray, p: int) -> np.ndarray:
    """Row basis of the right kernel {x : M x = 0}, in RREF.

    Row operations on [M^T | I] keep each row of the form [(M x)^T | x^T],
    so the rows of its RREF whose pivot lies in the identity half are the
    RREF of the kernel."""
    A = np.asarray(M)
    rows, cols = A.shape
    R, pivots = rref_gfp(np.hstack([A.T, np.eye(cols, dtype=np.int64)]), p)
    rank = bisect.bisect_left(pivots, rows)
    return R[rank:, rows:]


def matmul_gfp(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact A @ B mod p via float64 BLAS, chunking the inner dimension."""
    Af = _as_int64(A, p).astype(np.float64)
    Bf = _as_int64(B, p).astype(np.float64)
    inner = Af.shape[1]
    if inner != Bf.shape[0]:
        raise ValueError("shape mismatch")
    chunk = max(1, _F64_EXACT // (p * p) - 1)
    out = np.zeros((Af.shape[0], Bf.shape[1]), dtype=np.int64)
    for lo in range(0, inner, chunk):
        out = (out + (Af[:, lo:lo + chunk] @ Bf[lo:lo + chunk]).astype(np.int64)) % p
    return out
