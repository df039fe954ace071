"""Jacobian ideals and rings of degree-N forms in n = d+2 variables,
smoothness certification through one rank of J^(sigma+1), and primitive
Hodge numbers via the residue identification.

A form is certified smooth when J^(sigma+1) = S^(sigma+1).  The Jacobian
ideal is then Artinian, its n partials form a regular sequence, and R has
the complete-intersection Hilbert series ((1 - t^(N-1)) / (1 - t))^n, so
dim R^sigma = 1 follows and a certified ring's dimensions are read off
that series (`ci_hilbert`).

Forms whose partial derivatives are all monomials (Fermat, notably) take a
combinatorial path: the degree-k piece of the ideal is a span of monomials,
so dimensions reduce to counting a union of shifted monomial sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modp import check_budget, matmul_gfp, rank_gfp, rref_gfp
from .polynomials import (
    Polynomial,
    dim_graded,
    monomial_exponents,
    monomial_index,
    product_index_table,
)
from .spaces import GradedSubspace, multiplication_matrix


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
    """Per-degree reduction data: pivot monomials of J^k and the complement
    monomials representing the quotient piece."""

    __slots__ = ("pivots", "complement", "rref")

    def __init__(self, pivots: np.ndarray, complement: np.ndarray, rref: np.ndarray | None):
        self.pivots = pivots          # sorted monomial indices spanning J^k leads
        self.complement = complement  # sorted monomial indices of the quotient basis
        self.rref = rref              # RREF rows of J^k; None on the monomial path


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

    def _jacobian_rows(self, k: int) -> np.ndarray:
        """Rows spanning J^k in S^k: each partial times each monomial of
        degree k - (N-1).  Stored in the smallest unsigned type holding
        [0, p), since elimination works on its own float64 copy."""
        n, a = self.X.n, k - (self.X.N - 1)
        check_budget(dim_graded(n, a) * len(self.partials), dim_graded(n, k))
        dtype = np.min_scalar_type(self.X.p - 1)
        return np.vstack([multiplication_matrix(g, a).T.astype(dtype)
                          for g in self.partials])

    def _degree_data(self, k: int) -> _DegreeData:
        if k in self._cache:
            return self._cache[k]
        X = self.X
        n, N = X.n, X.N
        D = dim_graded(n, k)
        if self.monomial_path:
            idx = monomial_index(n, N - 1)
            leads = [idx[m] for g in self.partials for m in g.terms]
            piv = np.unique(product_index_table(n, k - (N - 1), N - 1)[:, leads])
            mask = np.ones(D, dtype=bool)
            mask[piv] = False
            data = _DegreeData(piv, np.nonzero(mask)[0].astype(np.int64), None)
        else:
            R, piv = rref_gfp(self._jacobian_rows(k), X.p)
            piv = np.array(piv, dtype=np.int64)
            mask = np.ones(D, dtype=bool)
            mask[piv] = False
            data = _DegreeData(piv, np.nonzero(mask)[0].astype(np.int64), R)
        self._cache[k] = data
        return data

    def jacobian_piece(self, k: int) -> GradedSubspace:
        """Row-reduced basis of J^k inside S^k."""
        if k < 0:
            raise ValueError("k must be >= 0")
        data = self._degree_data(k)
        n, p = self.X.n, self.X.p
        if data.rref is not None:
            return GradedSubspace(n, p, k, data.rref, tuple(int(c) for c in data.pivots))
        check_budget(len(data.pivots), dim_graded(n, k))
        return GradedSubspace.span_of_monomials(data.pivots, n, p, k)

    def hilbert(self, k: int) -> int:
        """dim R^k = dim S^k - dim J^k."""
        return len(self._degree_data(k).complement)

    def quotient_basis(self, k: int) -> np.ndarray:
        """Monomial indices of the canonical complement basis of R^k."""
        return self._degree_data(k).complement

    def reduce(self, V: np.ndarray, k: int) -> np.ndarray:
        """Coordinates of row vectors of S^k on the R^k complement basis."""
        V = np.atleast_2d(np.asarray(V, dtype=np.int64))
        data = self._degree_data(k)
        p = self.X.p
        if data.rref is None:
            return V[:, data.complement] % p
        red = (V - matmul_gfp(V[:, data.pivots], data.rref, p)) % p
        return red[:, data.complement]

    # -- certification and Hodge data ---------------------------------------

    def smoothness_certificate(self) -> SmoothnessCertificate:
        """Smooth iff J^(sigma+1) = S^(sigma+1), decided by one rank (or, on
        the monomial path, by counting) and kept on the ring."""
        if self._certificate is None:
            self._certificate = self._certify()
        return self._certificate

    def _certify(self) -> SmoothnessCertificate:
        sigma = self.X.socle_degree
        if self.monomial_path:
            above = self.hilbert(sigma + 1)
        else:
            rows = self._jacobian_rows(sigma + 1)
            above = rows.shape[1] - rank_gfp(rows, self.X.p)
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
        """Linear functional on S^sigma computing the socle coordinate."""
        sigma = self.X.socle_degree
        idx = self.socle_index()
        data = self._degree_data(sigma)
        u = np.zeros(dim_graded(self.X.n, sigma), dtype=np.int64)
        u[idx] = 1
        if data.rref is not None:
            # coordinate after reduction: v[idx] - v[pivots] . rref[:, idx]
            u[data.pivots] = (-data.rref[:, idx]) % self.X.p
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
