"""Linear subspaces of a fixed graded piece S^k, with the operations the
linear-system arguments need: sum, intersection, products, colon by the
linear forms, and a semi-decision for base-point-freeness.

A subspace is kept as the RREF of a basis in graded-lex monomial
coordinates.  No module builds multiplication matrices: the products of
one form with monomials are a gather through the cached
`product_index_table` (`multiple_columns`), the product rows of two
subspaces are one gather of their basis nonzeros through it, and
multiplying by x_i moves a coefficient along one column of it.  A product
span proves fullness by a rank (whose singleton peel takes every row of a
monomial system) and takes an RREF only of rows that fall short;
`bpf_check` needs only the rank.  The annihilator of a subspace is the
kernel of its RREF basis, read off it by `kernel_of_rref`, and the colon
[K : S^1] is a kernel too: that of the annihilator of K moved along each
x_i, read off the RREF of those rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modp import (
    check_budget,
    kernel_of_rref,
    matmul_gfp,
    rank_gfp,
    rref_gfp,
    validate_prime,
)
from .polynomials import Polynomial, dim_graded, product_index_table


class GradedSubspace:
    """Row-reduced basis of a subspace of S^k in monomial coordinates."""

    __slots__ = ("n", "p", "degree", "basis", "pivots")

    def __init__(self, n: int, p: int, degree: int, basis: np.ndarray, pivots: tuple[int, ...]):
        self.n = n
        self.p = validate_prime(p)
        self.degree = degree
        self.basis = basis
        self.pivots = pivots
        if basis.shape != (len(pivots), dim_graded(n, degree)):
            raise ValueError("basis shape inconsistent with ambient piece")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: np.ndarray, n: int, p: int, degree: int) -> "GradedSubspace":
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
        if rows.size == 0:
            rows = rows.reshape(0, dim_graded(n, degree))
        if rows.shape[1] != dim_graded(n, degree):
            raise ValueError("row length does not match dim S^k")
        R, piv = rref_gfp(rows, p)
        return cls(n, p, degree, R, tuple(piv))

    @classmethod
    def from_polynomials(cls, polys: list[Polynomial], degree: int) -> "GradedSubspace":
        if not polys:
            raise ValueError("need at least one polynomial")
        n, p = polys[0].n, polys[0].p
        rows = np.array([f.to_vector(degree) for f in polys], dtype=np.int64)
        return cls.from_rows(rows, n, p, degree)

    @classmethod
    def full(cls, n: int, p: int, degree: int) -> "GradedSubspace":
        D = dim_graded(n, degree)
        return cls(n, p, degree, np.eye(D, dtype=np.int64), tuple(range(D)))

    @classmethod
    def zero(cls, n: int, p: int, degree: int) -> "GradedSubspace":
        D = dim_graded(n, degree)
        return cls(n, p, degree, np.zeros((0, D), dtype=np.int64), ())

    @classmethod
    def span_of_monomials(cls, indices, n: int, p: int, degree: int) -> "GradedSubspace":
        """Subspace spanned by the listed graded-lex basis monomials."""
        D = dim_graded(n, degree)
        idx = sorted(set(int(i) for i in indices))
        if idx and (idx[0] < 0 or idx[-1] >= D):
            raise ValueError(f"monomial indices must lie in range({D}), got {idx}")
        B = np.zeros((len(idx), D), dtype=np.int64)
        B[np.arange(len(idx)), idx] = 1
        return cls(n, p, degree, B, tuple(idx))

    # -- queries -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def is_monomial_spanned(self) -> bool:
        """True when every basis row is a single monomial."""
        return bool((np.count_nonzero(self.basis, axis=1) == 1).all())

    def _check_mate(self, other: "GradedSubspace") -> None:
        if (self.n, self.p, self.degree) != (other.n, other.p, other.degree):
            raise ValueError("ambient graded pieces do not match")

    def contains(self, other: "GradedSubspace") -> bool:
        """other <= self.  The basis of self is in RREF, so a vector v lies in
        self exactly when v = v[pivots] . basis mod p."""
        self._check_mate(other)
        B = other.basis
        return np.array_equal(B, matmul_gfp(B[:, list(self.pivots)], self.basis, self.p))

    def polynomials(self) -> list[Polynomial]:
        return [
            Polynomial.from_vector(row, self.n, self.degree, self.p)
            for row in self.basis
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSubspace)
            and (self.n, self.p, self.degree) == (other.n, other.p, other.degree)
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __repr__(self) -> str:
        return (f"GradedSubspace(n={self.n}, degree={self.degree}, "
                f"dim={self.dim}/{self.ambient_dim})")


def subspace_sum(A: GradedSubspace, B: GradedSubspace) -> GradedSubspace:
    A._check_mate(B)
    rows = np.vstack([A.basis, B.basis])
    return GradedSubspace.from_rows(rows, A.n, A.p, A.degree)


def subspace_intersection(A: GradedSubspace, B: GradedSubspace) -> GradedSubspace:
    """Zassenhaus: row-reduce [[A A],[B 0]]; rows with zero left half carry
    the intersection in their right half."""
    A._check_mate(B)
    D = A.ambient_dim
    top = np.hstack([A.basis, A.basis])
    bot = np.hstack([B.basis, np.zeros_like(B.basis)])
    R, _ = rref_gfp(np.vstack([top, bot]), A.p)
    mask = ~R[:, :D].any(axis=1)
    rows = R[mask, D:]
    return GradedSubspace.from_rows(rows, A.n, A.p, A.degree)


def multiple_columns(g: np.ndarray, n: int, b: int, a: int,
                     which: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of the products of g, a coefficient row of S^b in n
    variables, with the monomials of S^a at indices `which` (all of them by
    default), as (cols, vals): product r holds vals[t] in column cols[r, t]
    of S^(a+b).  No column repeats within a row, because distinct terms of
    g times one monomial are distinct monomials."""
    terms = np.flatnonzero(g)
    T = product_index_table(n, a, b)
    if which is not None:
        T = T[which]
    return T[:, terms], g[terms]


def _product_rows(A: GradedSubspace, B: GradedSubspace) -> np.ndarray:
    """Dense rows, mod p, of all pairwise products of basis elements: a_i b_j
    in row j dim A + i, or for a square (`A is B`) each unordered pair
    i <= j once, in row j (j + 1) / 2 + i.

    The rows are one gather through the product table T: the nonzeros
    a_i[u] and b_j[v] add a_i[u] b_j[v] at column T[u, v] of their row, and
    terms that cancel mod p vanish.  B's nonzeros are taken cells // nnz(A)
    at a time, so that no block holds more products than the rows have
    cells; nnz(A) <= dim A dim S^a is at most the cells, so a block holds
    at least one."""
    if (A.n, A.p) != (B.n, B.p):
        raise ValueError("mixed variable count or modulus")
    n, p = A.n, A.p
    D = dim_graded(n, A.degree + B.degree)
    check_budget(A.dim * B.dim, D)
    square = A is B
    rows = np.zeros((A.dim * (A.dim + 1) // 2 if square else A.dim * B.dim, D),
                    dtype=np.int64)
    if not rows.size:
        return rows
    T = product_index_table(n, A.degree, B.degree)
    i, u = (x[:, None] for x in np.nonzero(A.basis))
    j, v = np.nonzero(B.basis)
    a_vals, b_vals = A.basis[i, u], B.basis[j, v]
    first = j * (j + 1) // 2 if square else j * A.dim  # the row of a_0 b_j
    flat = rows.reshape(-1)
    step = max(1, rows.size // i.size)
    for lo in range(0, j.size, step):
        s = slice(lo, lo + step)
        at = first[s] + i
        at *= D
        at += T[u, v[s]]
        vals = a_vals * b_vals[s]
        vals %= p
        if square:
            keep = i <= j[s]
            at, vals = at[keep], vals[keep]
        np.add.at(flat, at, vals)
        del at, vals  # free this block before the next is built
    return np.remainder(rows, p, out=rows)


def _spans_all(rows: np.ndarray, p: int) -> bool:
    """True when the rows span every column; fewer rows than columns cannot."""
    return len(rows) >= rows.shape[1] and rank_gfp(rows, p) == rows.shape[1]


def product_span(A: GradedSubspace, B: GradedSubspace) -> GradedSubspace:
    """Row-reduced span of all pairwise products of basis elements.

    Squaring a space (`A is B`) forms each unordered pair g_i * g_j once,
    i <= j: dim A (dim A + 1) / 2 rows instead of (dim A)^2.  Rows of full
    rank are proven so by a rank, and their RREF is the identity."""
    rows = _product_rows(A, B)
    n, p, deg = A.n, A.p, A.degree + B.degree
    if _spans_all(rows, p):
        return GradedSubspace.full(n, p, deg)
    return GradedSubspace.from_rows(rows, n, p, deg)


def annihilator(A: GradedSubspace) -> np.ndarray:
    """Row basis, in RREF, of the functionals (standard dot product)
    vanishing on A: the right kernel of its RREF basis."""
    return kernel_of_rref(A.basis, A.pivots, A.p)[0]


def colon_by_linear_forms(K: GradedSubspace) -> GradedSubspace:
    """K' = [K : S^1] = { g in S^(m-1) : x_i * g in K for all i }: the
    kernel of the stacked maps g -> N (x_i g), for N the annihilator of K."""
    if K.degree < 1:
        raise ValueError("colon needs degree >= 1")
    n, p = K.n, K.p
    N = annihilator(K)  # g*x_i in K  <=>  N @ (x_i g) = 0
    # x_i (monomial i of S^1) moves the coefficient of monomial q to T[q, i]
    T = product_index_table(n, K.degree - 1, 1)
    R, pivots = rref_gfp(np.vstack([N[:, T[:, i]] for i in range(n)]), p)
    basis, pivots = kernel_of_rref(R, pivots, p)
    return GradedSubspace(n, p, K.degree - 1, basis, tuple(pivots))


@dataclass(frozen=True)
class BpfResult:
    """Semi-decision: verified=True means the ideal of W contains all of S^m."""

    verified: bool
    degree: int | None = None

    def __bool__(self) -> bool:
        return self.verified


def bpf_default_mmax(n: int, N: int) -> int:
    # a base-point-free system contains a length-n regular sequence of degree
    # N forms, whose ideal contains S^m for m > n(N-1)
    return n * (N - 1) + 1


def bpf_check(W: GradedSubspace, m_max: int | None = None, *,
              m_min: int = 0) -> BpfResult:
    """Verified(m) for the least m <= m_max with S^(m-N) * W = S^m.  A W
    short of S^N is tried from degree N + 1, or from m_min if larger: a
    caller that knows the degrees below m_min fail spares their ranks."""
    N = W.degree
    n, p = W.n, W.p
    if W.dim == 0:
        return BpfResult(False)
    if m_max is None:
        m_max = bpf_default_mmax(n, N)
    if m_max < N:
        raise ValueError("m_max must be at least the degree of W")
    if W.is_full():  # S^0 * W = W
        return BpfResult(True, N)
    for m in range(max(m_min, N + 1), m_max + 1):
        if _spans_all(_product_rows(GradedSubspace.full(n, p, m - N), W), p):
            return BpfResult(True, m)
    return BpfResult(False)
