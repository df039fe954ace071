"""Linear subspaces of a fixed graded piece S^k, with the operations the
linear-system arguments need: sum, intersection, products, colon by the
linear forms, and a semi-decision for base-point-freeness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modp import (
    check_budget,
    matmul_gfp,
    nullspace_gfp,
    rank_gfp,
    rref_gfp,
    validate_prime,
)
from .polynomials import (
    Polynomial,
    dim_graded,
    monomial_index,
    product_index_table,
)


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
        B = np.zeros((len(idx), D), dtype=np.int64)
        for r, c in enumerate(idx):
            B[r, c] = 1
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
        return all(np.count_nonzero(row) == 1 for row in self.basis)

    def _check_mate(self, other: "GradedSubspace") -> None:
        if (self.n, self.p, self.degree) != (other.n, other.p, other.degree):
            raise ValueError("ambient graded pieces do not match")

    def contains(self, other: "GradedSubspace") -> bool:
        self._check_mate(other)
        stacked = np.vstack([self.basis, other.basis])
        return rank_gfp(stacked, self.p) == self.dim

    def contains_vector(self, v: np.ndarray) -> bool:
        return rank_gfp(np.vstack([self.basis, np.asarray(v, dtype=np.int64)[None, :]]),
                        self.p) == self.dim

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


def multiplication_matrix(g: Polynomial, a: int) -> np.ndarray:
    """Matrix of multiplication by homogeneous g as a map S^a -> S^(a+deg g),
    columns indexed by the basis of S^a.  It is the transpose of a C-ordered
    array whose row i is g times monomial i of S^a, so `.T` gives product
    rows ready for elimination."""
    if not g.is_homogeneous() or g.is_zero():
        raise ValueError("need a nonzero homogeneous polynomial")
    b = g.degree()
    n = g.n
    T = product_index_table(n, a, b)
    idx_b = monomial_index(n, b)
    terms = [idx_b[m] for m in g.terms]
    rows = np.zeros((dim_graded(n, a), dim_graded(n, a + b)), dtype=np.int64)
    # distinct terms of g times one monomial are distinct monomials, so no
    # cell is written twice
    rows[np.arange(len(T))[:, None], T[:, terms]] = list(g.terms.values())
    return rows.T


def product_span(A: GradedSubspace, B: GradedSubspace) -> GradedSubspace:
    """Row-reduced span of all pairwise products of basis elements."""
    if (A.n, A.p) != (B.n, B.p):
        raise ValueError("mixed variable count or modulus")
    n, p = A.n, A.p
    deg = A.degree + B.degree
    check_budget(A.dim * B.dim, dim_graded(n, deg))
    if A.dim == 0 or B.dim == 0:
        return GradedSubspace.zero(n, p, deg)
    rows = np.vstack([matmul_gfp(A.basis, multiplication_matrix(g, A.degree).T, p)
                      for g in B.polynomials()])
    return GradedSubspace.from_rows(rows, n, p, deg)


def annihilator(A: GradedSubspace) -> np.ndarray:
    """Row basis of the functionals (standard dot product) vanishing on A."""
    return nullspace_gfp(A.basis, A.p)


def colon_by_linear_forms(K: GradedSubspace) -> GradedSubspace:
    """K' = [K : S^1] = { g in S^(m-1) : x_i * g in K for all i }."""
    if K.degree < 1:
        raise ValueError("colon needs degree >= 1")
    n, p = K.n, K.p
    N = annihilator(K)  # g*x_i in K  <=>  N @ (M_i g) = 0
    blocks = []
    for i in range(n):
        Mi = multiplication_matrix(Polynomial.variable(i, n, p), K.degree - 1)
        blocks.append(matmul_gfp(N, Mi, p))
    rows = nullspace_gfp(np.vstack(blocks), p)
    return GradedSubspace.from_rows(rows, n, p, K.degree - 1)


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


def bpf_check(W: GradedSubspace, m_max: int | None = None) -> BpfResult:
    """Verified(m) for the least m <= m_max with S^(m-N) * W = S^m."""
    N = W.degree
    n, p = W.n, W.p
    if W.dim == 0:
        return BpfResult(False)
    if m_max is None:
        m_max = bpf_default_mmax(n, N)
    if m_max < N:
        raise ValueError("m_max must be at least the degree of W")
    for m in range(N, m_max + 1):
        S = GradedSubspace.full(n, p, m - N)
        if product_span(S, W).is_full():
            return BpfResult(True, m)
    return BpfResult(False)
