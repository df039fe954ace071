"""Jacobian ideals and rings of degree-N forms in n = d+2 variables,
smoothness certification on Macaulay's square rows of J^(sigma+1), and
primitive Hodge numbers via the residue identification.

A form is certified smooth when J^(sigma+1) = S^(sigma+1).  The Jacobian
ideal is then Artinian, its n partials form a regular sequence, and R has
the complete-intersection Hilbert series ((1 - t^(N-1)) / (1 - t))^n, so
dim R^sigma = 1 follows and a certified ring's dimensions are read off
that series (`ci_hilbert`).  The certificate ranks the square Macaulay rows
first and all rows of J^(sigma+1) only if they are singular: the square
rows are rows of J^(sigma+1), so their full rank proves the equality, but
their determinant carries an extraneous factor that may vanish on a smooth
form, so a short rank proves nothing.

The rows of J^k are assembled once, as their nonzeros (row, col, value)
read off the monomial product table (`_jacobian_nonzeros`).  The
certificate ranks those nonzeros and builds no dense matrix; only the
degree pieces, which need an RREF, scatter them into dense rows.

Forms whose partial derivatives are all monomials (Fermat, notably) take a
combinatorial path: the degree-k piece of the ideal is a span of monomials,
namely the monomials some partial divides, so no elimination is needed.
Both paths store each degree in the same reduced form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modp import check_budget, matmul_gfp, rank_of_nonzeros, rref_gfp
from .polynomials import Polynomial, dim_graded, monomial_array, monomial_exponents
from .spaces import GradedSubspace, multiple_columns


RANDOM_SMOOTH_TRIES = 60


class NotSmoothError(ValueError):
    """Operation requires a smooth-certified hypersurface."""


@dataclass(frozen=True)
class Hypersurface:
    """A degree-N form in d+2 variables, cutting out a fiber of dimension d."""

    f: Polynomial
    d: int
    N: int

    def __post_init__(self):
        if self.d < 0 or self.N < 1:
            raise ValueError("need d >= 0 and N >= 1")
        if self.f.n != self.d + 2:
            raise ValueError(f"f must live in {self.d + 2} variables")
        if self.f.is_zero() or not self.f.is_homogeneous() or self.f.degree() != self.N:
            raise ValueError(f"f must be nonzero homogeneous of degree {self.N}")
        p = self.f.p
        if self.N % p == 0 or (self.N - 1) % p == 0:
            raise ValueError(
                f"modulus {p} divides N or N-1; differentiation degenerates"
            )

    @property
    def n(self) -> int:
        return self.d + 2

    @property
    def p(self) -> int:
        return self.f.p

    @property
    def socle_degree(self) -> int:
        return (self.d + 2) * (self.N - 2)


def fermat(d: int, N: int, p: int) -> Hypersurface:
    n = d + 2
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = N
        terms[tuple(e)] = 1
    return Hypersurface(Polynomial(n, p, terms), d, N)


def random_smooth(
    d: int,
    N: int,
    p: int,
    rng: np.random.Generator,
) -> JacobianRing:
    """Fermat plus four random terms, retried until the smoothness
    certificate passes.  Returns the certified ring; the form is `ring.X`."""
    if N < 2:
        raise ValueError(f"need N >= 2 for a smooth form, got N={N}")
    base = fermat(d, N, p)  # rejects d < 0 and a modulus dividing N(N-1)
    n = base.n
    monos = monomial_exponents(n, N)
    for _ in range(RANDOM_SMOOTH_TRIES):
        terms = dict(base.f.terms)
        for _ in range(4):
            m = monos[int(rng.integers(len(monos)))]
            terms[m] = (terms.get(m, 0) + int(rng.integers(1, p))) % p
        try:
            X = Hypersurface(Polynomial(n, p, terms), d, N)
        except ValueError:
            continue
        ring = JacobianRing(X)
        if ring.smoothness_certificate().smooth:
            return ring
    raise NotSmoothError(
        f"no smooth form found in {RANDOM_SMOOTH_TRIES} tries at (d={d}, N={N})")


def ci_hilbert(n: int, N: int, k: int) -> int:
    """Coefficient of t^k in ((1 - t^(N-1)) / (1 - t))^n: dim R^k for the
    Jacobian ring of a certified smooth degree-N form in n variables."""
    return sum((-1) ** j * math.comb(n, j) * dim_graded(n, k - j * (N - 1))
               for j in range(n + 1))


def jacobian_generators(X: Hypersurface) -> list[Polynomial]:
    """The d+2 partial derivatives of f, homogeneous of degree N-1 (or zero)."""
    return [X.f.partial(i) for i in range(X.n)]


@dataclass(frozen=True)
class SmoothnessCertificate:
    smooth: bool
    reason: str | None = None


@dataclass(frozen=True)
class HodgeVector:
    """Entries (p, q, h) of a weight-w Hodge decomposition; p+q = weight."""

    weight: int
    entries: tuple[tuple[int, int, int], ...]

    def numbers(self) -> list[int]:
        """h^(w,0), h^(w-1,1), ..., h^(0,w) in order of decreasing p."""
        by_p = {p: h for p, q, h in self.entries}
        return [by_p.get(p, 0) for p in range(self.weight, -1, -1)]


def hodge_level(H: HodgeVector) -> int:
    nonzero = [(p, q) for p, q, h in H.entries if h != 0]
    if not nonzero:
        raise ValueError("Hodge level of the zero vector is undefined")
    return max(p - q for p, q in nonzero)


class _DegreeData:
    """Per-degree reduction data: the pivot monomials of the RREF of J^k, the
    complement monomials representing the quotient piece, and `tail`, the
    RREF rows `live` (positions in `pivots`) restricted to the complement
    columns.  The other rows restrict to zero there, and every row is the
    identity on the pivots and zero elsewhere, so the tail loses nothing."""

    __slots__ = ("pivots", "complement", "live", "tail")

    def __init__(self, pivots: np.ndarray, complement: np.ndarray,
                 live: np.ndarray, tail: np.ndarray):
        self.pivots = pivots          # sorted monomial indices spanning J^k leads
        self.complement = complement  # sorted monomial indices of the quotient basis
        self.live = live              # rows of the RREF with a nonzero tail; none on the monomial path
        self.tail = tail              # len(live) x len(complement)


class JacobianRing:
    """Cached Hilbert data and quotient bases of R = S/J for one form."""

    def __init__(self, X: Hypersurface):
        self.X = X
        # never empty: N f = sum x_i d_i f (Euler) and p does not divide N
        self.partials = [g for g in jacobian_generators(X) if not g.is_zero()]
        self.monomial_path = all(g.is_monomial() for g in self.partials)
        self._cache: dict[int, _DegreeData] = {}
        self._certificate: SmoothnessCertificate | None = None

    # -- degree pieces -------------------------------------------------------

    def _jacobian_nonzeros(self, k: int, square: bool = False
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzeros (row, col, value) of the rows spanning J^k in S^k: each
        partial times each monomial q of degree k - (N-1), partial-major,
        the q in graded-lex order, gathered by `spaces.multiple_columns`.

        With `square`, only Macaulay's square subset, numbered in that order,
        for k > n(N-2) and no zero partial: monomial m of S^k takes the row
        (m / x_i^(N-1)) d_i f for the least i with x_i^(N-1) | m, which
        exists by pigeonhole.  So partial i keeps its multiples q with
        q_j < N-1 for all j < i.

        The budget counts the cells of the matrix the nonzeros describe,
        because the core a rank leaves after peeling can be that large; it
        depends only on dimensions, so it is checked before any table is
        built."""
        n, b = self.X.n, self.X.N - 1
        a, D = k - b, dim_graded(n, k)
        check_budget(D if square else dim_graded(n, a) * len(self.partials), D)
        low = monomial_array(n, a) < b if square else None
        rows, cols, vals = [], [], []
        start = 0
        for i, g in enumerate(self.partials):
            q = np.flatnonzero(low[:, :i].all(axis=1)) if square else None
            c, v = multiple_columns(g.to_vector(b), n, b, a, q)
            rows.append(np.repeat(np.arange(start, start + len(c)), len(v)))
            cols.append(c.ravel())
            vals.append(np.tile(v, len(c)))
            start += len(c)
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    def _jacobian_rows(self, k: int) -> np.ndarray:
        """The rows of `_jacobian_nonzeros(k)`, dense, in the smallest
        unsigned type holding [0, p), since elimination works on its own
        int64 copy."""
        rows, cols, vals = self._jacobian_nonzeros(k)
        n, b = self.X.n, self.X.N - 1
        M = np.zeros((dim_graded(n, k - b) * len(self.partials), dim_graded(n, k)),
                     dtype=np.min_scalar_type(self.X.p - 1))
        M[rows, cols] = vals
        return M

    def _degree_data(self, k: int) -> _DegreeData:
        if k in self._cache:
            return self._cache[k]
        n, p = self.X.n, self.X.p
        D = dim_graded(n, k)
        if self.monomial_path:
            # J^k is spanned by the monomials that some partial's monomial divides
            check_budget(D, n)
            E = monomial_array(n, k)
            lead = np.zeros(D, dtype=bool)
            for g in self.partials:
                (m,) = g.terms
                lead |= (E >= np.array(m)).all(axis=1)
            R = np.zeros((0, D), dtype=np.int64)
        else:
            R, piv = rref_gfp(self._jacobian_rows(k), p)
            lead = np.zeros(D, dtype=bool)
            lead[piv] = True
        pivots, complement = np.flatnonzero(lead), np.flatnonzero(~lead)
        tail = R[:, complement]
        live = np.flatnonzero(tail.any(axis=1))
        data = _DegreeData(pivots, complement, live, tail[live])
        self._cache[k] = data
        return data

    def jacobian_piece(self, k: int) -> GradedSubspace:
        """Row-reduced basis of J^k inside S^k."""
        if k < 0:
            raise ValueError("k must be >= 0")
        data = self._degree_data(k)
        n, p = self.X.n, self.X.p
        D = dim_graded(n, k)
        check_budget(len(data.pivots), D)
        basis = np.zeros((len(data.pivots), D), dtype=np.int64)
        basis[np.arange(len(data.pivots)), data.pivots] = 1
        basis[np.ix_(data.live, data.complement)] = data.tail
        return GradedSubspace(n, p, k, basis, tuple(int(c) for c in data.pivots))

    def hilbert(self, k: int) -> int:
        """dim R^k = dim S^k - dim J^k."""
        return len(self._degree_data(k).complement)

    def quotient_basis(self, k: int) -> np.ndarray:
        """Monomial indices of the canonical complement basis of R^k."""
        return self._degree_data(k).complement

    def reduce(self, V: np.ndarray, k: int) -> np.ndarray:
        """Coordinates of row vectors of S^k on the R^k complement basis:
        v[complement] - v[pivots[live]] . tail."""
        V = np.atleast_2d(np.asarray(V, dtype=np.int64))
        data = self._degree_data(k)
        red = matmul_gfp(V[:, data.pivots[data.live]], data.tail, self.X.p)
        return (V[:, data.complement] - red) % self.X.p

    # -- certification and Hodge data ---------------------------------------

    def smoothness_certificate(self) -> SmoothnessCertificate:
        """Smooth iff J^(sigma+1) = S^(sigma+1), decided by rank (or, on
        the monomial path, by counting) and kept on the ring."""
        if self._certificate is None:
            self._certificate = self._certify()
        return self._certificate

    def _certify(self) -> SmoothnessCertificate:
        """Square Macaulay rows first, all rows only if they are singular.
        The square rows are J^(sigma+1) rows, so their full rank proves
        J^(sigma+1) = S^(sigma+1).  The argument is one-sided: a zero
        partial breaks the construction, and the square determinant is the
        resultant times an extraneous minor that can vanish on a smooth form,
        so either case ranks all rows of J^(sigma+1).  Both ranks read the
        rows' nonzeros; no dense matrix is built."""
        n, p, sigma = self.X.n, self.X.p, self.X.socle_degree
        D = dim_graded(n, sigma + 1)
        if self.monomial_path:
            above = self.hilbert(sigma + 1)
        elif (len(self.partials) == n and
              rank_of_nonzeros(*self._jacobian_nonzeros(sigma + 1, square=True), p) == D):
            above = 0
        else:
            above = D - rank_of_nonzeros(*self._jacobian_nonzeros(sigma + 1), p)
        if above == 0:
            return SmoothnessCertificate(True)
        # not Artinian: eliminate at sigma only to word the reason
        top = self.hilbert(sigma)
        if top != 1:
            return SmoothnessCertificate(False, f"dim R^sigma = {top}, expected 1")
        return SmoothnessCertificate(False, f"dim R^(sigma+1) = {above}, expected 0")

    def require_smooth(self) -> None:
        """The one smoothness gate of every computation that needs it."""
        cert = self.smoothness_certificate()
        if not cert.smooth:
            raise NotSmoothError(f"hypersurface not certified smooth: {cert.reason}")

    def socle_index(self) -> int:
        """Monomial index of the 1-dimensional socle basis of R^sigma."""
        self.require_smooth()
        return int(self.quotient_basis(self.X.socle_degree)[0])

    def socle_functional(self) -> np.ndarray:
        """Linear functional on S^sigma computing the socle coordinate:
        v[socle] - v[pivots[live]] . tail[:, 0]."""
        sigma = self.X.socle_degree
        idx = self.socle_index()
        data = self._degree_data(sigma)
        u = np.zeros(dim_graded(self.X.n, sigma), dtype=np.int64)
        u[idx] = 1
        u[data.pivots[data.live]] = (-data.tail[:, 0]) % self.X.p
        return u


def hodge_numbers_prim(X: Hypersurface, ring: JacobianRing | None = None) -> HodgeVector:
    """Primitive Hodge numbers h^(d-p,p) = dim R^(N(p+1)-d-2) for p = 0..d,
    read off the complete-intersection series once the form is certified."""
    ring = ring or JacobianRing(X)
    ring.require_smooth()
    entries = []
    for p in range(X.d + 1):
        h = ci_hilbert(X.n, X.N, X.N * (p + 1) - X.d - 2)
        entries.append((X.d - p, p, h))
    return HodgeVector(weight=X.d, entries=tuple(entries))
