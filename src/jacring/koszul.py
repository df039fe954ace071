"""Koszul complexes of a linear system W in S^N acting on the polynomial
ring or on a Jacobian ring, middle-exactness reports, and the exactness
scan over (a, s) grids of sampled base-point-free subsystems.

Two evaluation paths compute the same defect:

* generic: materialize the two differentials as dense matrices, each from
  only the maps it uses (at s = 0, none into degree a+2N), and take exact
  ranks over GF(p);
* monomial: when W is spanned by monomials with exponent rows e_j, the
  differentials preserve the ZZ^n multidegree, and the strand of
  multidegree alpha is the augmented chain complex of the simplicial
  complex Delta_alpha = {T : sum_{j in T} e_j <= alpha} on the generators
  of W (Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 1).  The
  defect is then a sum of ranks of small simplicial boundary matrices.
  This is what makes the larger scan grids tractable.

  Almost no strand needs elimination.  If a vertex v is a cone point of
  Delta_alpha through faces of size t-1 (T | {v} fits for every fitting
  T of size < t without v), then T -> +-(T | {v}) is a contracting
  homotopy of the augmented chain complex at C_(t-1)..C_0.  Exactness
  there gives rank d_t = f_(t-1) - f_(t-2) + ... +- f_0, with f_k the
  number of fitting k-faces and f_0 = 1.  The identity is one-sided: a
  strand without a cone point may still be exact.

  Both filters that run before any strand is reduced are gathers over all
  alpha at once.  A k-face's exponents sum to a monomial of S^(kN), ranked
  from its (k-1)-face's by one product table where that table is small,
  so whether it fits in Delta_alpha is read off a table of divisibility
  between S^(a+(s+1)N) and S^(kN), cached by degrees alone, where that
  table is no wider than the k-faces; otherwise alpha is compared with
  each distinct face sum.  The cone test groups the boundary nonzeros
  (T, T | {v}) by v and gathers them for a block of vertices at a time.

  The other strands are reduced by matchings that keep the rank exactly
  (structured Gaussian elimination, LaMacchia-Odlyzko 1990; as acyclic
  matchings of discrete Morse theory, Forman 1998).  The cone filter is
  the matching that empties a strand.  Each strand is assembled sparsely,
  from the nonzeros of `_simplex_boundary` on its fitting t-faces.
  - t = 2: d_2 is the signed incidence matrix of the graph of fitting
    vertices and edges, so its rank is f_1 minus the number of components,
    the number of edges in a spanning forest.
  - t = 3, forest rows: im d_3 lies in ker d_2, and a 1-cycle supported on
    a forest is zero, so no nonzero element of im d_3 vanishes outside a
    spanning forest's edges.  Deleting those rows of d_3 keeps its rank.
  - singleton peeling, as every `modp.rank_gfp` applies it: the nonzero
    of a row or column with one nonzero adds 1 to the rank, and its row and
    column can be deleted.  Here it runs on a batch of strands at once.
    Once the forest rows are gone most triangles keep one edge, and
    peeling usually empties the strand.  It cannot empty the triangles
    of an acyclic 2-complex that is not collapsible, such as the dunce hat,
    since a full matching would be a discrete gradient with one critical
    vertex.  Only what is left, the core, is eliminated.  It is block
    diagonal, one block per strand, so its rank is the sum of theirs.
    Consecutive blocks are ranked in one call while, scattered whole, they
    are no larger than one strand's boundary, the most that ranking a
    strand alone could scatter.  At t = 3 a batch's core mostly takes one
    or two calls; above t = 3 no rows are deleted yet, so a block is
    nearly its whole strand and shares a call with few others.

Both paths take their signs from one simplex boundary, `_simplex_boundary`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jacobian import JacobianRing
from .modp import _peel, check_budget, rank_gfp, rank_of_nonzeros
from .polynomials import dim_graded, monomial_array, monomial_rank, product_index_table
from .spaces import GradedSubspace, bpf_check, multiple_columns


BPF_SAMPLE_TRIES = 50


class BpfSamplingError(RuntimeError):
    """No base-point-free subsystem of the requested codimension was sampled."""


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


@lru_cache(maxsize=None)
def _faces(w: int, t: int) -> np.ndarray:
    """The t-subsets of range(w) in lexicographic order, one per row."""
    F = np.array(list(itertools.combinations(range(w), t)),
                 dtype=np.int64).reshape(_comb_count(w, t), t)
    F.setflags(write=False)
    return F


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


def _koszul_delta(W: GradedSubspace, k: int, t: int,
                  ring: JacobianRing | None) -> np.ndarray:
    """Differential M^k (x) Λ^t W -> M^(k+N) (x) Λ^(t-1) W: the simplex
    boundary on Λ W, with dropping vertex j acting as multiplication by w_j,
    one gather of its products (`multiple_columns`), reduced into R on a
    ring.

    A zero exterior power leaves its degree unread: at t = 0 the target is
    Λ^(-1) W = 0, and at t > dim W the source is.  The budget is checked on
    the shape before any product is gathered, and a differential with no
    entries builds no map."""
    n, N, p, w = W.n, W.degree, W.p, W.dim
    faces_tgt, faces_src = _comb_count(w, t - 1), _comb_count(w, t)

    def basis(m: int) -> np.ndarray:
        return np.arange(dim_graded(n, m)) if ring is None else ring.quotient_basis(m)

    src = basis(k) if faces_src else np.zeros(0, dtype=np.int64)
    dim_tgt = len(basis(k + N)) if faces_tgt else 0
    rows, cols = dim_tgt * faces_tgt, len(src) * faces_src
    check_budget(max(rows, 1), max(cols, 1))
    D = np.zeros((dim_tgt, faces_tgt, len(src), faces_src), dtype=np.int64)
    if D.size:
        tgt, face, j, sign = _simplex_boundary(w, t)
        for v, g in enumerate(W.basis):
            at, vals = multiple_columns(g, n, N, k, which=src)
            M = np.zeros((len(src), dim_graded(n, k + N)), dtype=np.int64)
            M[np.arange(len(src))[:, None], at] = vals
            if ring is not None:
                M = ring.reduce(M, k + N)
            drops = j == v
            D[:, tgt[drops], :, face[drops]] = sign[drops, None, None] * M.T % p
    return D.reshape(rows, cols)


def koszul_slice(W: GradedSubspace, a: int, s: int,
                 ring: JacobianRing | None = None) -> KoszulSlice:
    """Explicit Koszul differentials around left degree a and exterior index s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if W.dim == 0:
        raise ValueError("W must be nonzero")
    p, N, w = W.p, W.degree, W.dim
    delta_in = _koszul_delta(W, a, s + 1, ring)
    delta_out = _koszul_delta(W, a + N, s, ring)
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


@lru_cache(maxsize=None)
def _divides(n: int, A: int, B: int) -> np.ndarray:
    """table[alpha, beta]: the beta-th monomial of S^B divides the alpha-th
    of S^A, one compare of exponents per variable, with its bits packed
    along alpha (`np.packbits`), so a column gather moves an eighth of the
    bytes."""
    alphas, betas = monomial_array(n, A), monomial_array(n, B)
    check_budget(len(alphas), len(betas))
    table = np.ones((len(alphas), len(betas)), dtype=bool)
    for i in range(n):
        table &= betas[:, i] <= alphas[:, i, None]
    table = np.packbits(table, axis=0)
    table.setflags(write=False)
    return table


def _face_fits(E: np.ndarray, A: int, top: int) -> list[np.ndarray]:
    """fits[k][alpha, i] for k = 0..top and alpha in S^A: the i-th k-face
    (as in `_faces`) of the generators with exponent rows E, all of one
    degree N, fits, i.e. its exponents sum to at most alpha.

    That sum is a monomial of S^(kN).  Where `product_index_table(n,
    (k-1)N, N)` is no larger than fits[k], nor than the exponent rows of
    the k-faces, it ranks the sum in one gather: the sum of the (k-1)-face
    without the last vertex (the boundary entry that drops it) times that
    vertex.  Otherwise the face sums are built and ranked.  Where S^(kN)
    has no more monomials than there are k-faces, fits[k] is a column
    gather from `_divides`, which is then no larger than fits[k] and is
    cached by degrees alone.  Otherwise alpha is compared, one variable at
    a time, with each distinct face sum once.  The empty face always fits."""
    (w, n), N = E.shape, int(E[0].sum())
    alphas = monomial_array(n, A)
    vertex = monomial_rank(E)
    fits = []
    for k in range(top + 1):
        faces = _comb_count(w, k)
        check_budget(len(alphas), faces)
        shape = dim_graded(n, (k - 1) * N), dim_graded(n, N)
        if k and shape[0] * shape[1] <= faces * min(len(alphas), k * n):
            check_budget(*shape)
            tgt, _, j, _ = _simplex_boundary(w, k)
            at = product_index_table(n, (k - 1) * N, N)[at[tgt[k - 1::k]], vertex[j[k - 1::k]]]
        else:
            at = monomial_rank(E[_faces(w, k)].sum(1))
        if k * N <= A and dim_graded(n, k * N) <= faces:
            bits = _divides(n, A, k * N)[:, at]
            fits.append(np.unpackbits(bits, axis=0, count=len(alphas)).view(bool))
            continue
        _, first, inverse = np.unique(at, return_index=True, return_inverse=True)
        fit = np.ones((len(alphas), len(first)), dtype=bool)
        for i, x in enumerate(E[_faces(w, k)[first]].sum(1).T):
            fit &= x <= alphas[:, i, None]
        fits.append(fit[:, inverse])
    return fits


@lru_cache(maxsize=None)
def _by_vertex(w: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(tgt, src) of the nonzeros of `_simplex_boundary(w, t)`, stably
    sorted by dropped vertex: vertex v owns entries v*C(w-1, t-1) onwards."""
    tgt, src, j, _ = _simplex_boundary(w, t)
    order = np.argsort(j, kind="stable")
    pairs = tgt[order], src[order]
    for x in pairs:
        x.setflags(write=False)
    return pairs


def _cones(fits: list[np.ndarray], w: int) -> list[np.ndarray]:
    """cones[t][alpha]: Delta_alpha has a cone point v through faces of size
    t-1, i.e. T | {v} fits for every fitting face T of size < t without v.

    The pairs (T, T | {v}) are the nonzeros (tgt, src, v) of the boundary.
    They are gathered for a block of vertices at a time, so that the two
    gathers together are no wider than fits[k+1]."""
    m = len(fits[0])
    ok = np.ones((m, w), dtype=bool)
    cones = [ok.any(1)]
    for k in range(len(fits) - 1):
        tgt, src = _by_vertex(w, k + 1)
        own = _comb_count(w - 1, k)  # the (k+1)-faces through a vertex
        if own:
            step = max(1, fits[k + 1].shape[1] // (2 * own))
            for v in range(0, w, step):
                u = min(v + step, w)
                # a fitting T whose T | {v} does not fit: fits[k] > fits[k+1]
                gap = fits[k + 1][:, src[v * own:u * own]]
                np.less(gap, fits[k][:, tgt[v * own:u * own]], out=gap)
                ok[:, v:u] &= ~gap.reshape(m, u - v, own).any(2)
        cones.append(ok.any(1))
    return cones


def _cone_ranks(fits: list[np.ndarray], t: int) -> np.ndarray:
    """Rank of the boundary on the t-faces of each Delta_alpha, valid where
    `_cones(fits, w)[t]` holds: f_(t-1) - f_(t-2) + ... +- f_0, where f_k
    counts the fitting k-faces (see the module docstring)."""
    ranks = np.zeros(len(fits[0]), dtype=np.int64)
    for k in range(t):
        ranks = fits[k].sum(1) - ranks  # exact at C_k: rank d_(k+1) = f_k - rank d_k
    return ranks


def _forest(edge_fits: np.ndarray, w: int) -> np.ndarray:
    """forest[alpha, e]: the e-th edge (as in `_faces(w, 2)`) lies in one
    spanning forest of the fitting edges of Delta_alpha.

    Every vertex starts with its own label.  Each round, every fitting edge
    e offers the label of each end to the other as the key label*E + e,
    for E edges in all, and a vertex takes the least key offered, so the
    least label and the least edge carrying it, until no label falls; each
    component ends on its least vertex.  A vertex keeps the edge it last
    took its label through.  The other end held the label a round earlier,
    so following the kept edges strictly lowers the round in which a vertex
    reached its final label: they close no cycle, and every vertex but the
    least of each component keeps one.  Only the fitting edges are read."""
    m, E = edge_fits.shape
    strand, edge = np.nonzero(edge_fits)
    ends = _faces(w, 2)[edge] + strand[:, None] * w  # vertex v of strand i is i*w + v
    giver, taker, edge = ends.ravel(), ends[:, ::-1].ravel(), np.repeat(edge, 2)
    label = np.tile(np.arange(w), m)
    kept = np.full(m * w, -1)
    while True:
        key = label * E
        np.minimum.at(key, taker, label[giver] * E + edge)
        falls = key < label * E
        if not falls.any():
            break
        label = np.where(falls, key // E, label)
        kept = np.where(falls, key % E, kept)
    forest = np.zeros(edge_fits.shape, dtype=bool)
    v = np.flatnonzero(kept >= 0)
    forest[v // w, kept[v]] = True
    return forest


def _strand_nonzeros(fits: list[np.ndarray], t: int) -> tuple[np.ndarray, ...]:
    """(rows, cols, signs) of the boundaries on the t-faces of the strands
    in the rows i of `fits`: the (t-1)-face f of strand i is row
    i*C(w, t-1) + f, the fitting t-faces are the columns in order, and at
    t = 3 the rows of a spanning forest are left out."""
    w = fits[1].shape[1]
    tgt, _, _, sign = _simplex_boundary(w, t)
    strand, col = np.nonzero(fits[t])
    rows = tgt.reshape(-1, t)[col]
    keep = np.ones(rows.shape, dtype=bool)
    if t == 3:
        keep = ~_forest(fits[2], w)[strand[:, None], rows]
    rows += strand[:, None] * _comb_count(w, t - 1)
    cols = np.broadcast_to(np.arange(len(col))[:, None], rows.shape)
    signs = np.broadcast_to(sign[:t].astype(np.int8), rows.shape)
    return rows[keep], cols[keep], signs[keep]


def _reduced_rank(fits: list[np.ndarray], t: int, p: int) -> int:
    """Sum over the rows alpha of `fits` (the face fits for k = 0..t) of the
    rank of the boundary on the t-faces of Delta_alpha, by the forest and
    peeling identities of the module docstring.  What peeling leaves is
    block diagonal, one block per strand, and its rank is the sum of the
    blocks' ranks.  Consecutive blocks share a `rank_of_nonzeros` call
    while their rows times their columns stay within C(w, t-1) x C(w, t),
    so no call can scatter a dense core larger than one strand's boundary:
    one call for a whole batch held far more memory above t = 3."""
    if t == 2:
        return int(_forest(fits[2], fits[1].shape[1]).sum())
    rows, cols, signs = _strand_nonzeros(fits, t)
    rank, core = _peel(rows, cols)
    if not core.any():
        return rank
    rows, cols, signs = rows[core], cols[core], signs[core]
    w, height = fits[1].shape[1], _comb_count(fits[1].shape[1], t - 1)
    # the nonzeros come grouped by strand, and peeling keeps their order
    strand = rows // height
    tall = np.bincount(np.unique(rows) // height, minlength=len(fits[t]))
    wide = np.bincount(strand[np.unique(cols, return_index=True)[1]], minlength=len(fits[t]))
    # consecutive blocks are ranked in one call while, scattered whole,
    # they would be no larger than one strand's boundary: the most that
    # ranking a strand alone could scatter
    firsts, h, v = [], 0, 0
    for i in np.flatnonzero(tall):
        if h and (h + tall[i]) * (v + wide[i]) > height * _comb_count(w, t):
            firsts.append(i)
            h = v = 0
        h, v = h + tall[i], v + wide[i]
    cuts = np.searchsorted(strand, firsts)
    for r, c, g in zip(*(np.split(x, cuts) for x in (rows, cols, signs))):
        rank += rank_of_nonzeros(r, c, g, p)
    return rank


# strands reduced together: enough to amortize the numpy calls, few enough
# that their sparse arrays stay smaller than the face-fit arrays
_STRAND_BATCH = 64


def _middle_exactness_monomial(W: GradedSubspace, a: int, s: int) -> KoszulReport:
    """Middle defect as a sum over the multidegrees alpha of the middle term
    of the simplicial strands Delta_alpha (see the module docstring)."""
    n, p, N = W.n, W.p, W.degree
    w = W.dim
    E = monomial_array(n, N)[list(W.pivots)]
    fits = _face_fits(E, a + (s + 1) * N, s + 1)
    cones = _cones(fits, w)

    def strand_ranks(t: int) -> int:
        """Sum over alpha of the rank of the boundary on the t-faces of
        Delta_alpha: counted for the cones, reduced for the others."""
        derived = int(_cone_ranks(fits, t)[cones[t]].sum())
        rest = np.flatnonzero(~cones[t] & fits[t].any(1))
        return derived + sum(
            _reduced_rank([f[rest[i:i + _STRAND_BATCH]] for f in fits[:t + 1]], t, p)
            for i in range(0, len(rest), _STRAND_BATCH))

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
    # checked before the dispatch: the monomial path would crash or misreport on both
    if s < 0:
        raise ValueError("s must be >= 0")
    if W.dim == 0:
        raise ValueError("W must be nonzero")
    if ring is None and W.is_monomial_spanned():
        return _middle_exactness_monomial(W, a, s)
    return report_from_slice(koszul_slice(W, a, s, ring=ring))


# -- subsystem sampling and the scan ----------------------------------------


def sample_bpf_subsystem(n: int, N: int, codim: int, p: int,
                         rng: np.random.Generator,
                         style: str = "dense") -> GradedSubspace:
    """Random codimension-c base-point-free subsystem of S^N.

    style="monomial" keeps all monomials except c random non-power ones: it is
    base-point-free by construction, and its complex splits by multidegree.
    style="dense" draws random row spaces until `bpf_check` certifies one.
    """
    D = dim_graded(n, N)
    if codim < 0 or codim >= D:
        raise ValueError(f"codimension {codim} impossible in dim {D}")
    if style == "monomial":
        power = np.zeros(D, dtype=bool)
        power[monomial_rank(N * np.eye(n, dtype=np.int64))] = True
        others = np.flatnonzero(~power)
        if len(others) < codim:
            raise BpfSamplingError(
                f"cannot exclude {codim} non-power monomials at (n={n}, N={N})"
            )
        drop = others[rng.choice(len(others), size=codim, replace=False)]
        # pigeonhole: a monomial of degree m > n(N-1) has an exponent >= N, so
        # the pure powers give S^(m-N) * W = S^m at m = bpf_default_mmax(n, N)
        kept = np.ones(D, dtype=bool)
        kept[drop] = False
        return GradedSubspace.span_of_monomials(np.flatnonzero(kept), n, p, N)
    if style != "dense":
        raise ValueError(f"style must be 'dense' or 'monomial', got {style!r}")
    for _ in range(BPF_SAMPLE_TRIES):
        rows = rng.integers(0, p, size=(D - codim, D), dtype=np.int64)
        W = GradedSubspace.from_rows(rows, n, p, N)
        if W.dim == D - codim and bpf_check(W):
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
    """Evaluate middle exactness over the (a, s) grid for `trials` sampled
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
