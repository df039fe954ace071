"""Monomials and homogeneous polynomials in n variables over GF(p).

Graded pieces S^k carry a fixed graded-lex basis (x0 > x1 > ...), so that
every subspace and matrix in the package is indexed reproducibly: coordinates
are indexed by graded-lex rank, which `monomial_array` maps to exponent rows
and `monomial_rank` maps back.  Exponent tuples are `Polynomial`'s dictionary
keys.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from .modp import validate_prime


class PolynomialParseError(ValueError):
    pass


def dim_graded(n: int, k: int) -> int:
    """Dimension of the degree-k piece of a polynomial ring in n variables."""
    if n < 1:
        raise ValueError("need at least one variable")
    if k < 0:
        return 0
    return math.comb(k + n - 1, n - 1)


@lru_cache(maxsize=None)
def monomial_exponents(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All degree-k exponent tuples in graded-lex order (x0 dominant)."""
    if n < 1:
        raise ValueError("need at least one variable")
    if k < 0:
        return ()
    if n == 1:
        return ((k,),)
    out = []
    for e0 in range(k, -1, -1):
        for rest in monomial_exponents(n - 1, k - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomial_exponents(n, k))}


@lru_cache(maxsize=None)
def _block_starts(n: int, k: int) -> np.ndarray:
    """starts[i, j] = dim_graded(n-i, j-1), for degrees j = 0..k.

    The degree-r monomials in x_i..x_(n-1) come in blocks j = 0..r with
    x_i^(r-j), and block j starts at starts[i, j] whatever r is."""
    return np.array([[dim_graded(n - i, j - 1) for j in range(k + 1)]
                     for i in range(n)], dtype=np.int64)


@lru_cache(maxsize=None)
def monomial_array(n: int, k: int) -> np.ndarray:
    """The rows of `monomial_exponents(n, k)`, computed without its tuples:
    one search of `_block_starts` per variable reads the exponent of x_i
    off each row's rank."""
    D = dim_graded(n, k)
    E = np.empty((D, n), dtype=np.int64)
    starts = _block_starts(n, k)
    rest = np.full(D, k, dtype=np.int64)   # degree left for x_i..x_(n-1)
    rank = np.arange(D, dtype=np.int64)    # rank among rows agreeing on x_0..x_(i-1)
    for i in range(n - 1):
        j = np.searchsorted(starts[i], rank, side="right") - 1
        E[:, i] = rest - j
        rank -= starts[i, j]
        rest = j
    E[:, -1] = rest
    return E


def monomial_rank(*parts) -> np.ndarray:
    """The inverse of `monomial_array`: the rank of each exponent row (the
    last axis) of the sum of the broadcastable `parts`, in the graded-lex
    basis of its degree, over any leading shape.  Each variable adds the
    start of the block its exponent picks.  The parts are summed one
    variable at a time, so their sum is never built with its last axis."""
    parts = [np.asarray(E, dtype=np.int64) for E in parts]
    rest = sum(E.sum(axis=-1) for E in parts)
    n = parts[0].shape[-1]
    starts = _block_starts(n, int(np.max(rest, initial=0)))
    rank = np.zeros(np.shape(rest), dtype=np.int64)
    for i in range(n - 1):
        for E in parts:
            rest -= E[..., i]
        rank += starts[i, rest]
    return rank


@lru_cache(maxsize=None)
def product_index_table(n: int, a: int, b: int) -> np.ndarray:
    """table[i, j] = index in S^(a+b) of the product of monomial i of S^a
    with monomial j of S^b."""
    return monomial_rank(monomial_array(n, a)[:, None, :], monomial_array(n, b)[None, :, :])


class Polynomial:
    """Sparse polynomial with coefficients in GF(p); zero terms are dropped."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, n: int, p: int, terms: dict[tuple[int, ...], int] | None = None):
        self.n = n
        self.p = validate_prime(p)
        clean: dict[tuple[int, ...], int] = {}
        for m, c in (terms or {}).items():
            c %= p
            if c:
                if len(m) != n or any(e < 0 for e in m):
                    raise ValueError(f"bad exponent tuple {m} for n={n}")
                clean[tuple(m)] = c
        self.terms = clean

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, n: int, p: int) -> "Polynomial":
        return cls(n, p, {})

    @classmethod
    def variable(cls, i: int, n: int, p: int) -> "Polynomial":
        e = [0] * n
        e[i] = 1
        return cls(n, p, {tuple(e): 1})

    @classmethod
    def monomial(cls, exponents: tuple[int, ...], p: int, coeff: int = 1) -> "Polynomial":
        return cls(len(exponents), p, {tuple(exponents): coeff})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.n != other.n or self.p != other.p:
            raise ValueError("mixed variable count or modulus")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = (terms.get(m, 0) + c) % self.p
        return Polynomial(self.n, self.p, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * (-1))

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.n, self.p, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                terms[m] = (terms.get(m, 0) + ca * cb) % self.p
        return Polynomial(self.n, self.p, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.p == other.p
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.p, tuple(sorted(self.terms.items()))))

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to x_i."""
        terms: dict[tuple[int, ...], int] = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            e = list(m)
            coeff = (c * e[i]) % self.p
            e[i] -= 1
            if coeff:
                terms[tuple(e)] = (terms.get(tuple(e), 0) + coeff) % self.p
        return Polynomial(self.n, self.p, terms)

    # -- coordinates ---------------------------------------------------------

    def to_vector(self, k: int) -> np.ndarray:
        """Coefficient vector on the graded-lex basis of S^k."""
        if self.terms and (not self.is_homogeneous() or self.degree() != k):
            raise ValueError(f"polynomial is not homogeneous of degree {k}")
        E = np.array(list(self.terms), dtype=np.int64).reshape(-1, self.n)
        v = np.zeros(dim_graded(self.n, k), dtype=np.int64)
        v[monomial_rank(E)] = list(self.terms.values())
        return v

    @classmethod
    def from_vector(cls, v: np.ndarray, n: int, k: int, p: int) -> "Polynomial":
        basis = monomial_exponents(n, k)
        if len(v) != len(basis):
            raise ValueError("vector length does not match dim S^k")
        return cls(n, p, {basis[i]: int(v[i]) for i in range(len(v)) if v[i] % p})

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (-sum(m), tuple(-e for e in m))):
            c = self.terms[m]
            factors = []
            if c != 1 or not any(m):
                factors.append(str(c))
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_TERM_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, n: int, p: int) -> Polynomial:
    """Parse the interchange grammar: sums of `c*x0^a0*x1^a1*...` terms.

    The coefficient, `^1` and `*1` are all omissible; whitespace is ignored.
    """
    s = "".join(text.split())
    if not s:
        raise PolynomialParseError("empty polynomial text")
    # normalize leading sign and split into signed terms
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    terms: dict[tuple[int, ...], int] = {}
    for raw in s.split("+"):
        if not raw:
            raise PolynomialParseError(f"dangling sign in {text!r}")
        sign = 1
        if raw.startswith("-"):
            sign = -1
            raw = raw[1:]
        coeff = sign
        exps = [0] * n
        for factor in raw.split("*"):
            if not factor:
                raise PolynomialParseError(f"empty factor in term {raw!r}")
            if factor.lstrip("-").isdigit():
                coeff *= int(factor)
                continue
            m = _TERM_FACTOR.match(factor)
            if not m:
                raise PolynomialParseError(f"bad factor {factor!r}")
            i = int(m.group(1))
            if i >= n:
                raise PolynomialParseError(f"variable x{i} out of range for n={n}")
            exps[i] += int(m.group(2) or 1)
        key = tuple(exps)
        terms[key] = (terms.get(key, 0) + coeff) % p
    return Polynomial(n, p, terms)
