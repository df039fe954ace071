"""Koszul complexes of a linear system W in S^N acting on the polynomial
ring or on a Jacobian ring, middle-exactness reports, and the exactness
scan over (a, s) grids of certified base-point-free subsystems.

Two evaluation paths compute the same defect:

* generic: materialize the two differentials as dense matrices and take
  exact ranks over GF(p);
* monomial: when W is spanned by monomials with exponent rows e_j, the
  differentials preserve the ZZ^n multidegree, and the strand of
  multidegree alpha is the augmented chain complex of the simplicial
  complex Delta_alpha = {T : sum_{j in T} e_j <= alpha} on the generators
  of W (Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 1).  The
  defect is then a sum of ranks of small simplicial boundary matrices.
  This is what makes the larger scan grids tractable.

Both paths take their signs from one simplex boundary, `_simplex_boundary`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jacobian import JacobianRing
from .modp import check_budget, rank_gfp
from .polynomials import dim_graded, monomial_array, monomial_index
from .spaces import GradedSubspace, bpf_check, multiplication_matrix


BPF_SAMPLE_TRIES = 50


class BpfSamplingError(RuntimeError):
    """No certified base-point-free subsystem found within the retry bound."""


@dataclass(frozen=True)
class KoszulReport:
    rank_in: int
    kernel_out: int
    defect: int
    exact: bool
    shape_in: tuple[int, int]
    shape_out: tuple[int, int]


@dataclass(frozen=True)
class KoszulSlice:
    """Explicit differentials around the middle term M^(a+N) (x) Lambda^s W."""

    module_kind: str          # "S" or "R"
    a: int
    s: int
    N: int
    w: int
    delta_in: np.ndarray      # M^a (x) Λ^(s+1) W  ->  M^(a+N) (x) Λ^s W
    delta_out: np.ndarray     # M^(a+N) (x) Λ^s W  ->  M^(a+2N) (x) Λ^(s-1) W
    p: int


def _comb_count(w: int, t: int) -> int:
    if t < 0 or t > w:
        return 0
    return math.comb(w, t)


def _mult_mats(W: GradedSubspace, k: int, ring: JacobianRing | None) -> list[np.ndarray]:
    """Multiplication by each W basis element as a matrix M^k -> M^(k+N)."""
    n, N = W.n, W.degree
    check_budget(dim_graded(n, k + N), dim_graded(n, k))
    mats = []
    for poly in W.polynomials():
        M = multiplication_matrix(poly, k)
        if ring is not None:
            M = ring.reduce(M[:, ring.quotient_basis(k)].T, k + N).T
        mats.append(M)
    return mats


def _faces(w: int, t: int) -> np.ndarray:
    """The t-subsets of range(w) in lexicographic order, one per row."""
    return np.array(list(itertools.combinations(range(w), t)),
                    dtype=np.int64).reshape(_comb_count(w, t), t)


@lru_cache(maxsize=None)
def _simplex_boundary(w: int, t: int) -> tuple[np.ndarray, ...]:
    """Nonzeros (target face, source face, dropped vertex, sign) of the
    boundary from t-subsets to (t-1)-subsets of range(w), faces numbered as
    in `_faces`: d(T) = sum_pos (-1)^pos (T without T[pos]).  This is the
    Koszul sign convention of both evaluation paths."""
    targets = itertools.combinations(range(w), t - 1) if t else ()
    index = {T: i for i, T in enumerate(targets)}
    nonzeros = [(index[T[:pos] + T[pos + 1:]], src, j, (-1) ** pos)
                for src, T in enumerate(itertools.combinations(range(w), t))
                for pos, j in enumerate(T)]
    cols = tuple(np.array(c, dtype=np.int64) for c in zip(*nonzeros))
    for c in cols:
        c.setflags(write=False)
    return cols or (np.zeros(0, dtype=np.int64),) * 4


def _koszul_delta(mats: list[np.ndarray], w: int, t: int, p: int) -> np.ndarray:
    """Differential M^k (x) Λ^t W -> M^(k+N) (x) Λ^(t-1) W: the simplex
    boundary on Λ W, with dropping vertex j acting as multiplication by w_j."""
    dim_tgt, dim_src = mats[0].shape
    rows, cols = dim_tgt * _comb_count(w, t - 1), dim_src * _comb_count(w, t)
    check_budget(max(rows, 1), max(cols, 1))
    D = np.zeros((dim_tgt, _comb_count(w, t - 1), dim_src, _comb_count(w, t)),
                 dtype=np.int64)
    tgt, src, j, sign = _simplex_boundary(w, t)
    D[:, tgt, :, src] = sign[:, None, None] * np.stack(mats)[j] % p
    return D.reshape(rows, cols)


def koszul_slice(W: GradedSubspace, a: int, s: int,
                 ring: JacobianRing | None = None) -> KoszulSlice:
    """Explicit Koszul differentials around left degree a and exterior index s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if W.dim == 0:
        raise ValueError("W must be nonzero")
    p, N, w = W.p, W.degree, W.dim
    mats_in = _mult_mats(W, a, ring)
    mats_out = _mult_mats(W, a + N, ring)
    delta_in = _koszul_delta(mats_in, w, s + 1, p)
    delta_out = _koszul_delta(mats_out, w, s, p)
    return KoszulSlice(
        module_kind="R" if ring is not None else "S",
        a=a, s=s, N=N, w=w, delta_in=delta_in, delta_out=delta_out, p=p,
    )


def report_from_slice(sl: KoszulSlice) -> KoszulReport:
    rank_in = rank_gfp(sl.delta_in, sl.p)
    mid = sl.delta_in.shape[0]
    rank_out = rank_gfp(sl.delta_out, sl.p)
    kernel_out = mid - rank_out
    defect = kernel_out - rank_in
    return KoszulReport(
        rank_in=rank_in,
        kernel_out=kernel_out,
        defect=defect,
        exact=defect == 0,
        shape_in=sl.delta_in.shape,
        shape_out=sl.delta_out.shape,
    )


# -- multidegree fast path ---------------------------------------------------


def _boundary_matrix(w: int, t: int, p: int) -> np.ndarray:
    """Dense simplex boundary from t-subsets to (t-1)-subsets of range(w)."""
    tgt, src, _, sign = _simplex_boundary(w, t)
    B = np.zeros((_comb_count(w, t - 1), _comb_count(w, t)), dtype=np.int64)
    B[tgt, src] = sign % p
    return B


def _middle_exactness_monomial(W: GradedSubspace, a: int, s: int) -> KoszulReport:
    """Middle defect as a sum over the multidegrees alpha of the middle term
    of the simplicial strands Delta_alpha (see the module docstring)."""
    n, p, N = W.n, W.p, W.degree
    w = W.dim
    E = monomial_array(n, N)[list(W.pivots)]
    alphas = monomial_array(n, a + (s + 1) * N)

    def strand_ranks(t: int) -> int:
        """Sum over alpha of the rank of the boundary on the t-faces of Delta_alpha."""
        B = _boundary_matrix(w, t, p)
        fits = (E[_faces(w, t)].sum(1) <= alphas[:, None, :]).all(-1)
        return sum(rank_gfp(B[:, fit], p) for fit in fits if fit.any() and len(B))

    dim_mid = dim_graded(n, a + N) * _comb_count(w, s)
    shape_in = (dim_mid, dim_graded(n, a) * _comb_count(w, s + 1))
    shape_out = (dim_graded(n, a + 2 * N) * _comb_count(w, s - 1), dim_mid)
    rank_in = strand_ranks(s + 1)
    kernel_out = dim_mid - strand_ranks(s)
    defect = kernel_out - rank_in
    return KoszulReport(rank_in, kernel_out, defect, defect == 0,
                        shape_in, shape_out)


def middle_exactness(W: GradedSubspace, a: int, s: int,
                     ring: JacobianRing | None = None) -> KoszulReport:
    """Exact rank of the incoming differential, exact kernel of the outgoing
    one, and their difference (the middle defect)."""
    if ring is None and W.is_monomial_spanned():
        return _middle_exactness_monomial(W, a, s)
    return report_from_slice(koszul_slice(W, a, s, ring=ring))


# -- subsystem sampling and the scan ----------------------------------------


def sample_bpf_subsystem(n: int, N: int, codim: int, p: int,
                         rng: np.random.Generator,
                         style: str = "dense") -> GradedSubspace:
    """Random codimension-c subsystem of S^N, certified base-point-free.

    style="dense" draws a random row space; style="monomial" keeps all
    monomials except c random non-power ones (the pure powers guarantee an
    empty base locus, and the resulting complex splits by multidegree).
    """
    D = dim_graded(n, N)
    if codim < 0 or codim >= D:
        raise ValueError(f"codimension {codim} impossible in dim {D}")
    idx = monomial_index(n, N)
    pure = {idx[m] for m in ((0,) * i + (N,) + (0,) * (n - i - 1) for i in range(n))}
    for _ in range(BPF_SAMPLE_TRIES):
        if style == "monomial":
            others = sorted(set(range(D)) - pure)
            if len(others) < codim:
                raise BpfSamplingError(
                    f"cannot exclude {codim} non-power monomials at (n={n}, N={N})"
                )
            drop = set(int(others[i]) for i in
                       rng.choice(len(others), size=codim, replace=False))
            W = GradedSubspace.span_of_monomials(
                sorted(set(range(D)) - drop), n, p, N
            )
        else:
            rows = rng.integers(0, p, size=(D - codim, D), dtype=np.int64)
            W = GradedSubspace.from_rows(rows, n, p, N)
            if W.dim != D - codim:
                continue
        if bpf_check(W):
            return W
    raise BpfSamplingError(
        f"no certified base-point-free W after {BPF_SAMPLE_TRIES} tries "
        f"(n={n}, N={N}, codim={codim})"
    )


@dataclass(frozen=True)
class GreenCell:
    n: int
    N: int
    codim: int
    trial: int
    a: int
    s: int
    rank_in: int
    kernel_out: int
    defect: int
    bound_holds: bool
    exact: bool


GREEN_CSV_COLUMNS = ("n", "N", "codim", "trial", "a", "s", "rank_in",
                     "kernel_out", "defect", "bound_holds", "exact")


def _grid_cost(n: int, N: int, codim: int, a_max: int, s_max: int) -> float:
    """Worst elimination cost over the grid for the generic dense path."""
    worst = 0.0
    D = dim_graded(n, N) - codim
    for a in range(a_max + 1):
        for s in range(s_max + 1):
            rows = dim_graded(n, a + N) * _comb_count(D, s)
            cols = dim_graded(n, a) * _comb_count(D, s + 1)
            worst = max(worst, rows * cols * min(rows, cols))
    return worst


DENSE_COST_LIMIT = 2e9


def green_scan(n: int, N: int, codims, a_max: int, s_max: int, trials: int,
               p: int, rng: np.random.Generator,
               style: str = "auto") -> list[GreenCell]:
    """Evaluate middle exactness over the (a, s) grid for `trials` certified
    base-point-free subsystems of each listed codimension."""
    if trials < 1 or a_max < 0 or s_max < 0:
        raise ValueError(f"need trials >= 1, a_max >= 0 and s_max >= 0, got "
                         f"{trials}, {a_max} and {s_max}")
    cells = []
    for c in codims:
        if style == "auto":
            c_style = "dense" if _grid_cost(n, N, c, a_max, s_max) <= DENSE_COST_LIMIT \
                else "monomial"
        else:
            c_style = style
        for trial in range(trials):
            W = sample_bpf_subsystem(n, N, c, p, rng, style=c_style)
            for a in range(a_max + 1):
                for s in range(s_max + 1):
                    rep = middle_exactness(W, a, s)
                    cells.append(GreenCell(
                        n=n, N=N, codim=c, trial=trial, a=a, s=s,
                        rank_in=rep.rank_in, kernel_out=rep.kernel_out,
                        defect=rep.defect, bound_holds=a >= s + c,
                        exact=rep.exact,
                    ))
    return cells


# -- Jacobian-ring instance of the complex -----------------------------------


@dataclass(frozen=True)
class JacobianKoszulReport:
    report: KoszulReport
    a: int                      # left degree -d-2+Np
    s: int
    codim_W: int
    green_bound_holds: bool     # a >= s + codim W
    transfer_condition: bool    # -d-2+N(p+1) >= N-1


def jacobian_koszul_check(ring: JacobianRing, W: GradedSubspace, p_index: int,
                          s: int) -> JacobianKoszulReport:
    """Middle exactness of the Jacobian-ring Koszul slice at left degree
    a = -d-2+N*p_index, for a system W between J^N and S^N."""
    X = ring.X
    if W.degree != X.N or W.n != X.n or W.p != X.p:
        raise ValueError("W must be a subspace of S^N for this hypersurface")
    ring.require_smooth()
    if not W.contains(ring.jacobian_piece(X.N)):
        raise ValueError("W must contain the degree-N piece of the Jacobian ideal")
    a = -X.d - 2 + X.N * p_index
    rep = middle_exactness(W, a, s, ring=ring)
    return JacobianKoszulReport(
        report=rep,
        a=a,
        s=s,
        codim_W=W.codim,
        green_bound_holds=a >= s + W.codim,
        transfer_condition=(a + X.N) >= X.N - 1,
    )
