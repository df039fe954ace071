"""Multiplication into the socle: the coupling pairing, the non-vanishing
of d-fold products modulo the Jacobian ideal, and the step-by-step
hyperplane chain (colon system, base-point-freeness, product spans,
socle image) for Calabi-Yau degree N = d+2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jacobian import JacobianRing
from .modp import inv_mod, matmul_gfp, rank_gfp
from .polynomials import dim_graded, product_index_table
from .spaces import (
    GradedSubspace,
    annihilator,
    bpf_check,
    colon_by_linear_forms,
    product_span,
)


def socle_pairing_rank(ring: JacobianRing, A: GradedSubspace, B: GradedSubspace) -> int:
    """Rank of the pairing A x B -> R^sigma induced by multiplication and
    projection to the one-dimensional socle."""
    ring.require_smooth()
    X = ring.X
    if A.degree + B.degree != X.socle_degree:
        raise ValueError("degrees must sum to the socle degree")
    u = ring.socle_functional()
    T = product_index_table(X.n, A.degree, B.degree)
    # P[i, j] = sum_{mu,nu} A[i,mu] B[j,nu] u[mu*nu]
    U = u[T]  # (dim S^a, dim S^(sigma-a))
    P = matmul_gfp(matmul_gfp(A.basis, U, X.p), B.basis.T, X.p)
    return rank_gfp(P, X.p)


def power_span(K: GradedSubspace, d: int) -> GradedSubspace:
    """Row-reduced span of d-fold products K^d, built iteratively."""
    if d < 1:
        raise ValueError("need d >= 1")
    out = K
    for _ in range(d - 1):
        out = product_span(out, K)
    return out


def _check_system(ring: JacobianRing, K: GradedSubspace) -> None:
    """Calabi-Yau degree N = d+2, a smooth-certified form, and K in S^N
    containing J^N."""
    X = ring.X
    if X.N != X.d + 2:
        raise ValueError(f"needs Calabi-Yau degree N = d+2, got d={X.d}, N={X.N}")
    if K.degree != X.N:
        raise ValueError("K must sit in degree d+2")
    ring.require_smooth()
    if not K.contains(ring.jacobian_piece(X.N)):
        raise ValueError("K must contain the degree-N piece of the Jacobian ideal")


def _socle_image_nonzero(ring: JacobianRing, Kd: GradedSubspace) -> bool:
    return bool(ring.reduce(Kd.basis, ring.X.socle_degree).any())


def yukawa_nonvanishing(ring: JacobianRing, K: GradedSubspace) -> bool:
    """True iff the image of K^d in R^(d(d+2)) is nonzero, for N = d+2."""
    _check_system(ring, K)
    return _socle_image_nonzero(ring, power_span(K, ring.X.d))


@dataclass(frozen=True)
class ChainStep:
    step: str
    expected: str
    got: int | str
    ok: bool

    def as_dict(self) -> dict:
        return {"step": self.step, "expected": self.expected,
                "got": self.got, "ok": self.ok}


@dataclass(frozen=True)
class YukawaChainReport:
    d: int
    N: int
    steps: tuple[ChainStep, ...]

    @property
    def all_ok(self) -> bool:
        return all(s.ok for s in self.steps)


def random_hyperplane_over_jacobian(ring: JacobianRing,
                                    rng: np.random.Generator) -> GradedSubspace:
    """Random codimension-1 subspace of S^(d+2) containing J^(d+2): the
    kernel of a random nonzero functional vanishing on the ideal piece."""
    X = ring.X
    J = ring.jacobian_piece(X.N)
    ann = annihilator(J)
    if ann.shape[0] == 0:
        raise ValueError("Jacobian piece is full; no hyperplane contains it")
    while True:
        coeffs = rng.integers(0, X.p, size=ann.shape[0], dtype=np.int64)
        u = matmul_gfp(coeffs[None, :], ann, X.p)
        if u.any():
            break
    return _kernel_of_functional(u[0], X.n, X.p, X.N)


def _kernel_of_functional(u: np.ndarray, n: int, p: int, degree: int) -> GradedSubspace:
    """Kernel of the nonzero functional u on S^degree.  With c the last
    nonzero column of u, the rows e_j - (u_j / u_c) e_c for j != c are
    already its RREF, with a pivot at every j != c."""
    c = int(np.flatnonzero(u)[-1])
    pivots = np.delete(np.arange(u.size), c)
    basis = np.zeros((pivots.size, u.size), dtype=np.int64)
    basis[np.arange(pivots.size), pivots] = 1
    basis[:, c] = -u[pivots] * inv_mod(int(u[c]), p) % p
    return GradedSubspace(n, p, degree, basis, tuple(pivots.tolist()))


def yukawa_chain(ring: JacobianRing, K: GradedSubspace) -> YukawaChainReport:
    """Evaluate every step of the hyperplane chain with exact dimensions.

    Two steps are derived from earlier ones when those imply them, and
    computed otherwise: `span_full_times_colon` from `colon_bpf` verified at
    a degree m <= 2d+4 (then S^(d+3) K' = S^(2d+4)), and
    `socle_image_nonzero` from `power_full` (a certified ring has
    dim R^sigma = 1, onto which S^sigma maps).  Failing steps are reported,
    not fatal."""
    _check_system(ring, K)
    X = ring.X
    d, N, n, p = X.d, X.N, X.n, X.p
    if d < 2:
        raise ValueError(f"chain needs d >= 2, got d={d}: at d = 1 the socle "
                         "degree is N, so the only hyperplane K containing J^N "
                         "is J^N itself and its socle image is zero")
    if K.codim != 1:
        raise ValueError("K must be a hyperplane of S^(d+2)")

    steps: list[ChainStep] = []

    Kp = colon_by_linear_forms(K)
    steps.append(ChainStep("colon_codim", f"<= {d + 2}", Kp.codim,
                           Kp.codim <= d + 2))

    # x_i K' lies in K, of codimension 1 in S^N, so S^1 K' = S^N cannot hold
    bpf = bpf_check(Kp, m_min=N + 1)
    steps.append(ChainStep("colon_bpf", "verified",
                           f"verified at degree {bpf.degree}" if bpf else "unknown",
                           bool(bpf)))

    full_2d4 = dim_graded(n, 2 * d + 4)
    if bpf and bpf.degree <= 2 * d + 4:
        # S^(m-d-1) K' = S^m, so S^(d+3) K' = S^(2d+4-m) S^m = S^(2d+4)
        got = full_2d4
    else:
        got = product_span(GradedSubspace.full(n, p, d + 3), Kp).dim
    steps.append(ChainStep("span_full_times_colon", f"dim {full_2d4}", got,
                           got == full_2d4))

    K2 = product_span(K, K)
    steps.append(ChainStep("square_full", f"dim {full_2d4}", K2.dim,
                           K2.dim == full_2d4))

    Kd = K2  # K^d from K^2, so that no product span runs twice
    for _ in range(d - 2):
        Kd = product_span(Kd, K)
    full_top = dim_graded(n, d * (d + 2))
    steps.append(ChainStep("power_full", f"dim {full_top}", Kd.dim,
                           Kd.dim == full_top))

    # dim R^sigma = 1 on a certified ring, so S^sigma maps onto it
    nonzero = Kd.is_full() or _socle_image_nonzero(ring, Kd)
    steps.append(ChainStep("socle_image_nonzero", "nonzero",
                           "nonzero" if nonzero else "zero", nonzero))

    return YukawaChainReport(d=d, N=N, steps=tuple(steps))
