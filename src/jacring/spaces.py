"""Linear subspaces of a fixed graded piece S^k, with the operations the
linear-system arguments need: sum, intersection, products, colon by the
linear forms, and a semi-decision for base-point-freeness.

A subspace is kept as the RREF of a basis in graded-lex monomial
coordinates.  No module builds multiplication matrices: the products of
one form with monomials are a gather through the cached
`product_index_table` (`multiple_columns`), the product rows of two
subspaces are one gather of their basis nonzeros through it, and
multiplying by x_i moves a coefficient along one column of it.

Whether a product span is all of S^m is decided from leading terms:
graded-lex is a monomial order, so LT(fg) = LT(f) LT(g) (Cox, Little and
O'Shea, Ideals, Varieties, and Algorithms, ch. 2), and the products of two
RREF bases lead at the products of their pivots.  One product per
leading monomial forms an echelon block, and the span is full iff the
Schur complement on the monomials that block misses has full rank
(`_spans_all`).  `product_span` forms every product row, and their RREF,
only for a span that falls short; `bpf_check` never does.  The
annihilator of a subspace is the kernel of its RREF basis, read off it by
`kernel_of_rref`, and the colon [K : S^1] is a kernel too: that of the
annihilator's kernel vectors, unreduced, moved along each x_i, read off
the RREF of those rows
taken with the columns reversed, so that the kernel vectors it gives are
already in RREF."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modp import (
    _kernel_rows,
    _runs,
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


def _product_dim(A: GradedSubspace, B: GradedSubspace) -> int:
    """dim S^(a+b), once A and B are known to share n and p and their
    dim A * dim B product rows to fit the cell budget."""
    if (A.n, A.p) != (B.n, B.p):
        raise ValueError("mixed variable count or modulus")
    D = dim_graded(A.n, A.degree + B.degree)
    check_budget(A.dim * B.dim, D)
    return D


def _product_rows(A: GradedSubspace, B: GradedSubspace,
                  pairs: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Dense rows, mod p, of pairwise products of basis elements: a_i b_j
    in row j dim A + i, or for a square (`A is B`) each unordered pair
    i <= j once, in row j (j + 1) / 2 + i; given `pairs` = (i, j), index
    arrays, the product a_(i[k]) b_(j[k]) in row k.

    The rows are one gather through the product table T: the nonzeros
    a_i[u] and b_j[v] of a listed pair add a_i[u] b_j[v] at column T[u, v]
    of its row, and terms that cancel mod p vanish.  B's nonzeros are taken
    cells // nnz(A) at a time, so that no block holds more products than
    the rows have cells; nnz(A) <= dim A dim S^a is at most the cells, so
    a block holds at least one."""
    n, p, D = A.n, A.p, _product_dim(A, B)
    if pairs is None:
        if A is B:
            j, i = np.tril_indices(A.dim)
        else:
            j, i = np.divmod(np.arange(A.dim * B.dim), A.dim)
        pairs = i, j
    row_of = np.full((A.dim, B.dim), -1)  # the row of each listed pair
    row_of[pairs] = np.arange(len(pairs[0]))
    every = len(pairs[0]) == row_of.size
    rows = np.zeros((len(pairs[0]), D), dtype=np.int64)
    if not rows.size:
        return rows
    T = product_index_table(n, A.degree, B.degree)
    i, u = (x[:, None] for x in np.nonzero(A.basis))
    j, v = np.nonzero(B.basis)
    a_vals, b_vals = A.basis[i, u], B.basis[j, v]
    flat = rows.reshape(-1)
    step = max(1, rows.size // i.size)
    for lo in range(0, j.size, step):
        s = slice(lo, lo + step)
        at = row_of[i, j[s]]
        keep = None if every else at >= 0
        at *= D
        at += T[u, v[s]]
        vals = a_vals * b_vals[s]
        vals %= p
        if keep is not None:
            at, vals = at[keep], vals[keep]
        np.add.at(flat, at, vals)
        del at, vals  # free this block before the next is built
    return np.remainder(rows, p, out=rows)


def _echelon_annihilator(E: np.ndarray, lead: np.ndarray, p: int) -> np.ndarray:
    """The functionals vanishing on the rows of E, where row k is 1 at
    column lead[k] and zero left of it: one row psi_u per column u that no
    row leads at, 1 at u and 0 at the other such columns.

    psi_u(e_k) = 0 gives psi_u[lead[k]] = -sum of e_k[c] psi_u[c] over the
    other nonzeros c of e_k, so row k waits for the rows leading at those
    c.  Back-substitution solves every row once, in levels: a level is the
    rows whose waits are over, solved together, and each solved row
    releases the rows waiting for it."""
    C, D = E.shape
    free = np.ones(D, dtype=bool)
    free[lead] = False
    free = np.flatnonzero(free)
    psi = np.zeros((free.size, D), dtype=np.int64)
    psi[np.arange(free.size), free] = 1
    row_of = np.full(D, -1)
    row_of[lead] = np.arange(C)
    k, c = np.divmod(np.flatnonzero(E), D)
    vals = E[k, c]
    row_start = np.searchsorted(k, np.arange(C + 1))
    waits_for = row_of[c]
    wait = (waits_for >= 0) & (waits_for != k)
    waiter, waits_for = k[wait], waits_for[wait]
    pending = np.bincount(waiter, minlength=C)
    # the waiters grouped by the row they wait for
    order = np.argsort(waits_for, kind="stable")
    waiter = waiter[order]
    starts = np.searchsorted(waits_for[order], np.arange(C + 1))
    level = np.flatnonzero(pending == 0)
    while level.size:
        # psi is still 0 at these rows' leads and solved at their other
        # nonzeros, so the sum over all of a row's nonzeros omits the lead
        counts = row_start[level + 1] - row_start[level]
        at = _runs(row_start[level], counts)
        terms = psi[:, c[at]] * vals[at] % p
        sums = np.add.reduceat(terms, np.cumsum(counts) - counts, axis=1)
        psi[:, lead[level]] = -sums % p
        released = waiter[_runs(starts[level], starts[level + 1] - starts[level])]
        freed = np.bincount(released, minlength=C)
        pending -= freed
        level = np.flatnonzero((pending == 0) & (freed > 0))
    return psi


def _spans_all(A: GradedSubspace, B: GradedSubspace) -> bool:
    """True when the products a_i b_j span all of S^(a+b), decided from
    the leading terms of the two RREF bases.

    Graded-lex is lex within a degree, a monomial order, so LT(fg) =
    LT(f) LT(g): a_i b_j is 1 at T[pivot_i, pivot_j] and zero left of it.
    One product per distinct leading monomial is an echelon block E of
    rank |C|, C its leads, so the span is full iff the functionals psi_u
    vanishing on E, one per monomial u in the rest U, stay independent on
    the products: iff the Schur complement psi_u(a_i b_j) =
    a_i . psi_u[T] . b_j has rank |U|.  Fewer products than monomials
    cannot span."""
    n, p, D = A.n, A.p, _product_dim(A, B)
    if (A.dim * (A.dim + 1) // 2 if A is B else A.dim * B.dim) < D:
        return False
    T = product_index_table(n, A.degree, B.degree)
    lead, first = np.unique(T[np.ix_(A.pivots, B.pivots)], return_index=True)
    if lead.size == D:
        return True
    psi = _echelon_annihilator(_product_rows(A, B, np.divmod(first, B.dim)), lead, p)
    # psi_u(a_i b_j) over the columns where A and B have nonzeros, a block
    # of functionals at a time: its gather of psi, and the float copy that
    # matmul_gfp makes of it, each hold at most a quarter of the product
    # rows' cells
    at, bt = (np.flatnonzero(X.basis.any(axis=0)) for X in (A, B))
    Ta = T[np.ix_(at, bt)]
    step = max(1, A.dim * B.dim * D // (4 * Ta.size))
    blocks = []
    for lo in range(0, len(psi), step):
        X = psi[lo:lo + step, Ta]  # (functional, column of A, column of B)
        Y = matmul_gfp(X.reshape(-1, bt.size), B.basis[:, bt].T, p)
        Y = Y.reshape(len(X), at.size, B.dim).transpose(1, 0, 2)
        blocks.append(matmul_gfp(A.basis[:, at], Y.reshape(at.size, -1), p)
                      .reshape(A.dim, len(X), B.dim))
    schur = np.concatenate(blocks, axis=1).transpose(1, 0, 2).reshape(len(psi), -1)
    return rank_gfp(schur, p) == len(psi)


def product_span(A: GradedSubspace, B: GradedSubspace) -> GradedSubspace:
    """Row-reduced span of all pairwise products of basis elements.

    A full span is decided by `_spans_all` from the leading terms of A and
    B and a Schur complement on the monomials they miss, without forming
    every product, and its RREF is the identity.  Only a span short of
    S^(a+b) forms all its product rows, each unordered pair g_i * g_j of a
    square (`A is B`) once, and takes their RREF."""
    n, p, deg = A.n, A.p, A.degree + B.degree
    if _spans_all(A, B):
        return GradedSubspace.full(n, p, deg)
    return GradedSubspace.from_rows(_product_rows(A, B), n, p, deg)


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
    # g*x_i in K  <=>  N @ (x_i g) = 0, for rows N spanning the annihilator
    # of K; the RREF below depends on their row space alone, so they need
    # not be in RREF themselves
    N = _kernel_rows(K.basis, K.pivots, p)[0]
    # x_i (monomial i of S^1) moves the coefficient of monomial q to T[q, i]
    T = product_index_table(n, K.degree - 1, 1)
    M = np.vstack([N[:, T[:, i]] for i in range(n)])
    # read off the RREF of M with its columns reversed, each kernel vector,
    # back in normal order, leads with its 1 at its free column and has its
    # other nonzeros at pivot columns right of it: the vectors, last first,
    # are the kernel's RREF, with no second elimination
    R, pivots = rref_gfp(M[:, ::-1], p)
    V, free = _kernel_rows(R, pivots, p)
    pivots = (M.shape[1] - 1 - free[::-1]).tolist()
    return GradedSubspace(n, p, K.degree - 1, V[::-1, ::-1].copy(), tuple(pivots))


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
    """Verified(m) for the least m <= m_max with S^(m-N) * W = S^m, each
    degree decided by `_spans_all` from the leading terms of W (the
    monomials of S^(m-N) lead at themselves) and a Schur complement on the
    monomials they miss.  A W short of S^N is tried from degree N + 1, or
    from m_min if larger: a caller that knows the degrees below m_min fail
    spares their tests."""
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
        if _spans_all(GradedSubspace.full(n, p, m - N), W):
            return BpfResult(True, m)
    return BpfResult(False)
