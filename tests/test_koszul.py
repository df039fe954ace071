import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import P, P2, P_MAX, random_subspace
from jacring import koszul
from jacring.jacobian import JacobianRing, NotSmoothError, fermat, random_smooth
from jacring.koszul import (
    BpfSamplingError,
    green_scan,
    jacobian_koszul_check,
    koszul_slice,
    middle_exactness,
    report_from_slice,
    sample_bpf_subsystem,
)
from jacring.modp import SizeBudgetError, matmul_gfp, rank_gfp, rank_of_nonzeros
from jacring.polynomials import Polynomial, dim_graded, monomial_array, monomial_exponents
from jacring.spaces import GradedSubspace, bpf_check, bpf_default_mmax, product_span
from jacring.yukawa import power_span


def test_slice_shapes():
    # n=3, W = S^2 (w=6), a=1, s=1
    W = GradedSubspace.full(3, P, 2)
    sl = koszul_slice(W, 1, 1)
    w = 6
    assert sl.delta_in.shape == (dim_graded(3, 3) * math.comb(w, 1),
                                 dim_graded(3, 1) * math.comb(w, 2))
    assert sl.delta_out.shape == (dim_graded(3, 5) * math.comb(w, 0),
                                  dim_graded(3, 3) * math.comb(w, 1))


def test_delta_squared_zero_small():
    W = GradedSubspace.full(2, P, 1)
    sl = koszul_slice(W, 0, 1)
    assert not matmul_gfp(sl.delta_out, sl.delta_in, P).any()


def test_rank_one_system_truncates():
    W = GradedSubspace.span_of_monomials([0], 2, P, 2)  # w = 1
    sl = koszul_slice(W, 1, 1)
    assert sl.delta_in.shape[1] == 0  # Lambda^2 of a line is zero


def test_s0_matches_product_span_surjectivity():
    rng = np.random.default_rng(22)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        N = int(rng.integers(1, 4))
        a = int(rng.integers(0, 4))
        dim = int(rng.integers(1, dim_graded(n, N) + 1))
        W = random_subspace(n, P, N, dim, rng)
        rep = middle_exactness(W, a, 0)
        span = product_span(GradedSubspace.full(n, P, a), W)
        assert rep.defect == dim_graded(n, a + N) - span.dim
        assert rep.exact == span.is_full()


def test_negative_left_degree():
    # left module piece is zero: exactness reduces to injectivity of delta_out
    W = GradedSubspace.full(2, P, 2)
    sl = koszul_slice(W, -1, 1)
    assert sl.delta_in.shape[1] == 0
    rep = report_from_slice(sl)
    mid = sl.delta_out.shape[1]
    assert rep.kernel_out == mid - rank_gfp(sl.delta_out, P)
    assert rep.exact == (rep.kernel_out == 0)


def test_full_system_exact_in_range():
    # classical Koszul exactness over the full system, a >= s
    W = GradedSubspace.full(3, P, 2)
    for a in range(3):
        for s in range(3):
            if a >= s:
                assert report_from_slice(koszul_slice(W, a, s)).exact


def test_monomial_path_matches_generic():
    rng = np.random.default_rng(23)
    for p in (P, P2, 94906249):  # the last is the largest prime with p^2 < 2^53
        for _ in range(10):
            n = int(rng.integers(2, 4))
            N = int(rng.integers(2, 4))
            D = dim_graded(n, N)
            keep = sorted(int(k) for k in
                          rng.choice(D, size=int(rng.integers(2, D + 1)), replace=False))
            W = GradedSubspace.span_of_monomials(keep, n, p, N)
            a = int(rng.integers(-2, 3))
            s = int(rng.integers(0, 4))
            fast = middle_exactness(W, a, s)
            slow = report_from_slice(koszul_slice(W, a, s))
            case = (n, N, keep, a, s, p)
            assert (fast.rank_in, fast.kernel_out, fast.defect) == \
                   (slow.rank_in, slow.kernel_out, slow.defect), case
            assert fast.shape_in == slow.shape_in, case
            assert fast.shape_out == slow.shape_out, case


def _reference_delta(W, k, t, ring):
    """M^k (x) Λ^t W -> M^(k+N) (x) Λ^(t-1) W from Polynomial products: the
    source (q, T) goes to sum_pos (-1)^pos (w_(T[pos]) q) (x) (T without
    T[pos]), reduced into R on a ring.  Row c C(w, t-1) + (target face),
    column (source monomial) C(w, t) + (source face), faces in
    lexicographic order."""
    n, N, p, w = W.n, W.degree, W.p, W.dim
    gens = W.polynomials()
    monomials = monomial_exponents(n, k)
    if ring is None:
        src, dim_tgt = range(len(monomials)), dim_graded(n, k + N)
    else:
        src, dim_tgt = ring.quotient_basis(k), ring.hilbert(k + N)
    targets = {T: i for i, T in enumerate(itertools.combinations(range(w), t - 1))} if t else {}
    faces = list(itertools.combinations(range(w), t))
    D = np.zeros((dim_tgt * len(targets), len(src) * len(faces)), dtype=np.int64)
    for c, q in enumerate(src):
        products = []
        for g in gens:
            v = (g * Polynomial(n, p, {monomials[q]: 1})).to_vector(k + N)
            products.append(v if ring is None else ring.reduce(v, k + N)[0])
        for f, T in enumerate(faces):
            for pos, j in enumerate(T):
                row = targets[T[:pos] + T[pos + 1:]]
                D[row::len(targets), c * len(faces) + f] += (-1) ** pos * products[j]
    return D % p


def _slice_cases(p, rng):
    """(W, ring, a) with no ring and with certified rings (a dense form and
    Fermat), W of one or two generators (so t runs past dim W), dense, a
    monomial system, and W = J^N; a from -2 up."""
    for n, N in ((2, 1), (2, 3), (3, 2)):
        D = dim_graded(n, N)
        Ws = [random_subspace(n, p, N, dim, rng) for dim in {1, 2, min(4, D)}]
        Ws.append(GradedSubspace.span_of_monomials(range(0, D, 2), n, p, N))
        for W in Ws:
            for a in (-2, -1, 0, 2):
                yield W, None, a
    for ring in (random_smooth(1, 3, p, rng), JacobianRing(fermat(1, 4, p))):
        ring.require_smooth()
        X = ring.X
        Ws = [random_subspace(X.n, p, X.N, dim, rng) for dim in (1, 2)]
        Ws.append(ring.jacobian_piece(X.N))
        for W in Ws:
            for a in (-2, 0, 1, X.socle_degree - X.N):
                yield W, ring, a


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_slice_matches_polynomial_products(p):
    rng = np.random.default_rng(42)
    past_w = 0
    for W, ring, a in _slice_cases(p, rng):
        for s in range(3):
            sl = koszul_slice(W, a, s, ring)
            case = (p, W, ring is not None, a, s)
            assert sl.module_kind == ("S" if ring is None else "R"), case
            for got, k, t in ((sl.delta_in, a, s + 1), (sl.delta_out, a + W.degree, s)):
                ref = _reference_delta(W, k, t, ring)
                assert got.dtype == np.int64 and got.shape == ref.shape, case + (t,)
                assert np.array_equal(got, ref), case + (t,)
                past_w += t > W.dim
    assert past_w, p


def test_slice_reads_only_the_degrees_it_uses(monkeypatch):
    # at s = 0 the outgoing differential maps into Λ^(-1) W = 0, so no
    # degree a+2N is eliminated
    ring = random_smooth(1, 4, P, np.random.default_rng(32))
    N = ring.X.N
    W = GradedSubspace.full(ring.X.n, P, N)
    for a in range(-1, 3):
        sl = koszul_slice(W, a, 0, ring)
        assert a + 2 * N not in ring._cache, (a, sorted(ring._cache))
        assert sl.delta_out.shape == (0, ring.hilbert(a + N)), a
    # the budget binds on the shape of the differential before any product
    # is reduced; the degree data is read under the default budget first
    a, s = 0, 1
    cells = (ring.hilbert(a + N) * math.comb(W.dim, s)) * (ring.hilbert(a) * math.comb(W.dim, s + 1))
    reduced = []
    reduce = ring.reduce
    monkeypatch.setattr(ring, "reduce", lambda V, k: reduced.append(k) or reduce(V, k))
    monkeypatch.setenv("JACRING_CELL_BUDGET", str(cells - 1))
    with pytest.raises(SizeBudgetError):
        koszul_slice(W, a, s, ring)
    assert reduced == []
    monkeypatch.setenv("JACRING_CELL_BUDGET", str(cells))
    assert koszul_slice(W, a, s, ring).delta_in.size == cells
    assert reduced


def _boundary_matrix(w, t):
    """Dense simplex boundary from t-subsets to (t-1)-subsets of range(w),
    entries 0 and +-1 (the elimination reduces them mod p): the reference
    the strand reductions are tested against."""
    tgt, src, _, sign = koszul._simplex_boundary(w, t)
    B = np.zeros((koszul._comb_count(w, t - 1), koszul._comb_count(w, t)), dtype=np.int8)
    B[tgt, src] = sign
    return B


def _cone_cases(rng):
    """Random monomial systems (n, N, keep, a, s) with a <= 4 and s <= 3,
    then systems of one and two generators, where t runs past w."""
    for _ in range(12):
        n = int(rng.integers(2, 4))
        N = int(rng.integers(1, 4))
        D = dim_graded(n, N)
        keep = sorted(int(k) for k in
                      rng.choice(D, size=int(rng.integers(1, min(D, 7) + 1)), replace=False))
        yield n, N, keep, int(rng.integers(-1, 5)), int(rng.integers(0, 4))
    yield 2, 2, [1], 2, 3
    yield 3, 2, [0, 4], 3, 3


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_cone_ranks_match_elimination(p):
    seed = 41
    coned = unconed = 0
    for n, N, keep, a, s in _cone_cases(np.random.default_rng(seed)):
        W = GradedSubspace.span_of_monomials(keep, n, p, N)
        E = monomial_array(n, N)[list(W.pivots)]
        fits = koszul._face_fits(E, a + (s + 1) * N, s + 1)
        cones, _ = koszul._cones(fits, W.dim)
        for t in range(s + 2):
            B = _boundary_matrix(W.dim, t)
            derived = koszul._cone_ranks(fits, t)
            for i in np.flatnonzero(cones[t]):
                case = f"seed {seed}, p {p}, n {n}, N {N}, keep {keep}, a {a}, s {s}, t {t}, alpha {i}"
                assert derived[i] == rank_gfp(B[:, fits[t][i]], p), case
            coned += int(cones[t].sum())
            unconed += int((~cones[t] & fits[t].any(1)).sum())
    assert coned and unconed, f"seed {seed}, p {p}: {coned} coned, {unconed} not"


def _complex_fits(w, facets):
    """Face fits, as one strand, of the simplicial complex on range(w)
    spanned by `facets`."""
    top = max(map(len, facets))
    return [np.array([[any(set(T) <= set(F) for F in facets) for T in koszul._faces(w, k)]])
            for k in range(top + 1)]


COMPLEXES = {
    # an isolated vertex, a path and a solid triangle: three components
    "components": (7, [(0,), (1, 2), (2, 3), (4, 5, 6)]),
    # inner cycle 0-1-2, outer cycle 3-4-5: H_1 != 0
    "annulus": (6, [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)]),
    # H_2 != 0: the four triangles have rank 3
    "hollow tetrahedron": (4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    # the dunce hat, 8 vertices and 17 triangles: contractible, but every
    # edge lies on two or three triangles, so it is not collapsible and
    # peeling cannot empty its triangle strand
    "dunce hat": (8, [(0, 1, 3), (1, 2, 3), (0, 2, 4), (0, 1, 4), (1, 2, 5), (0, 2, 5),
                      (0, 2, 6), (1, 2, 6), (0, 1, 7), (2, 3, 4), (1, 4, 5), (0, 5, 6),
                      (1, 6, 7), (0, 3, 7), (3, 4, 5), (3, 5, 6), (3, 6, 7)]),
}


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_reduced_strand_ranks_match_elimination(monkeypatch, p):
    cores = []
    monkeypatch.setattr(koszul, "rank_of_nonzeros",
                        lambda r, c, v, q: cores.append(len(v)) or rank_of_nonzeros(r, c, v, q))

    def check(fits, w, t, case):
        """Each strand alone, then all of them at once, against the dense
        boundary restricted to the fitting t-faces."""
        B = _boundary_matrix(w, t)
        dense = [rank_gfp(B[:, fit], p) for fit in fits[t]]
        for i, expect in enumerate(dense):
            got = koszul._reduced_rank([f[[i]] for f in fits[:t + 1]], t, p)
            assert got == expect, f"{case}, t {t}, strand {i}: {got} != {expect}"
        got = koszul._reduced_rank(fits[:t + 1], t, p)
        assert got == sum(dense), f"{case}, t {t}, all strands: {got} != {sum(dense)}"

    seed = 41
    for n, N, keep, a, s in _cone_cases(np.random.default_rng(seed)):
        W = GradedSubspace.span_of_monomials(keep, n, p, N)
        E = monomial_array(n, N)[list(W.pivots)]
        fits = koszul._face_fits(E, a + (s + 1) * N, s + 1)
        cones, _ = koszul._cones(fits, W.dim)
        for t in range(2, s + 2):
            rest = ~cones[t] & fits[t].any(1)
            if rest.any():
                check([f[rest] for f in fits], W.dim, t,
                      f"seed {seed}, p {p}, n {n}, N {N}, keep {keep}, a {a}, s {s}")
    for name, (w, facets) in COMPLEXES.items():
        fits = _complex_fits(w, facets)
        for t in range(2, len(fits)):
            check(fits, w, t, f"p {p}, {name}")
    assert cores, f"seed {seed}, p {p}: peeling left no core to eliminate"


def _face_fits_by_variable(E, alphas, top):
    """Reference face fits: one compare of face sums with alpha per
    variable, over every (alpha, face) pair."""
    w = len(E)
    fits = []
    for k in range(top + 1):
        sums = E[koszul._faces(w, k)].sum(1)
        fit = np.ones((len(alphas), len(sums)), dtype=bool)
        for i in range(E.shape[1]):
            fit &= sums[:, i] <= alphas[:, i, None]
        fits.append(fit)
    return fits


def _cones_by_vertex(fits, w):
    """Reference cone test: one pass over the boundary per vertex."""
    ok = np.ones((len(fits[0]), w), dtype=bool)
    cones = [ok.any(1)]
    for k in range(len(fits) - 1):
        tgt, src, j, _ = koszul._simplex_boundary(w, k + 1)
        for v in range(w):
            at = j == v
            ok[:, v] &= (fits[k + 1][:, src[at]] | ~fits[k][:, tgt[at]]).all(1)
        cones.append(ok.any(1))
    return cones


# (n, N, codim) of the green-monomial benchmark, sampled from seed 1000n+10N+c
GREEN_SYSTEMS = ((3, 4, 0), (3, 4, 1), (3, 4, 2), (4, 2, 0), (4, 2, 1), (4, 2, 2), (4, 3, 2))


def _filter_cases():
    """(n, N, keep, a, s): the cone cases; the 105 cells of the
    green-monomial benchmark (a <= 4, s <= 2); and edge cases: t past w,
    where a vertex lies on no face of the size tested, degrees A = a+(s+1)N
    below the face degrees kN (A < 0 included), a = -1 and N = 1."""
    yield from _cone_cases(np.random.default_rng(41))
    for n, N, c in GREEN_SYSTEMS:
        W = sample_bpf_subsystem(n, N, c, P, np.random.default_rng(1000 * n + 10 * N + c),
                                 style="monomial")
        for a in range(5):
            for s in range(3):
                yield n, N, list(W.pivots), a, s
    yield 2, 2, [1], 1, 3                  # w = 1: no vertex lies on an edge
    yield 3, 1, [0, 2], -1, 3              # w = 2, N = 1: A = 3 < 4N
    yield 3, 1, [0, 1, 2], -1, 0           # N = 1, A = 0: only the empty face
    yield 2, 1, [0, 1], -2, 0              # A = -1: no alpha at all
    yield 3, 2, [0, 3, 5], -1, 2           # A = 5 < 3N: no 3-face fits
    yield 4, 1, [0, 1, 2, 3], 1, 2         # N = 1 with a cone at every size


def test_filters_match_per_variable_and_per_vertex_references(monkeypatch):
    # a divisibility table is read only where it is no wider than the faces
    tables = []
    divides = koszul._divides
    monkeypatch.setattr(koszul, "_divides", lambda n, A, B: tables.append(B) or divides(n, A, B))
    edges = {"past w": 0, "no alpha": 0, "no face": 0, "table": 0, "compare": 0}
    for n, N, keep, a, s in _filter_cases():
        E = monomial_array(n, N)[keep]
        A, w = a + (s + 1) * N, len(keep)
        fits = koszul._face_fits(E, A, s + 1)
        ref = _face_fits_by_variable(E, monomial_array(n, A), s + 1)
        case = (n, N, keep, a, s)
        assert len(fits) == len(ref) == s + 2, case
        for k, (got, expect) in enumerate(zip(fits, ref)):
            assert got.dtype == bool and got.shape == expect.shape, case + (k,)
            assert np.array_equal(got, expect), case + (k,)
        for t, (got, expect) in enumerate(zip(koszul._cones(fits, w)[0], _cones_by_vertex(ref, w))):
            assert got.shape == expect.shape and np.array_equal(got, expect), case + (t,)
        edges["past w"] += s + 1 > w
        edges["no alpha"] += A < 0
        edges["no face"] += 0 <= A < (s + 1) * N and not fits[-1].any()
        for B in tables:
            k = B // N
            assert B <= A and dim_graded(n, B) <= math.comb(w, k), case + (k,)
        edges["table"] += len(tables)
        edges["compare"] += s + 2 - len(tables)
        tables.clear()
    assert all(edges.values()), edges


def test_few_generators_of_high_face_degree_fit_the_default_budget():
    # the pure powers x_i^3 of n = 5 variables at a = 20, s = 3: alpha runs
    # over 58905 monomials of S^29 and the 4-faces reach degree 12, whose
    # 1820 monomials would pass the budget as columns, but alpha is compared
    # only with the C(5, k) face sums; the powers are a regular sequence, so
    # the middle is exact
    n, N, a, s = 5, 3, 20, 3
    keep = np.flatnonzero(monomial_array(n, N).max(1) == N)
    W = GradedSubspace.span_of_monomials(list(keep), n, P, N)
    rep = middle_exactness(W, a, s)
    assert rep.exact and rep.rank_in == rep.kernel_out == 47145, rep


def test_a_budget_that_holds_the_face_fits_holds_the_cell(monkeypatch):
    # the pure powers x_i^4 of n = 6 variables at a = 0, s = 3: alpha runs
    # over the 20349 monomials of S^16, and the largest face fits are the
    # 20 triangles; a product table S^12 x S^4 (6188 x 126) for the 15
    # 4-faces would be larger, so the face sums are ranked without it
    n, N, a, s = 6, 4, 0, 3
    keep = np.flatnonzero(monomial_array(n, N).max(1) == N)
    W = GradedSubspace.span_of_monomials(list(keep), n, P, N)
    alphas = dim_graded(n, a + (s + 1) * N)
    budget = max(alphas * math.comb(n, k) for k in range(s + 2))
    monkeypatch.setenv("JACRING_CELL_BUDGET", str(budget))
    assert middle_exactness(W, a, s).exact
    monkeypatch.setenv("JACRING_CELL_BUDGET", str(budget - 1))
    with pytest.raises(SizeBudgetError):
        middle_exactness(W, a, s)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_strand_cores_carry_the_boundary_signs(monkeypatch, p):
    # the scattered strand nonzeros are the boundary on each strand's fitting
    # t-faces, less the spanning-forest rows at t = 3, and every core that
    # `_reduced_rank` eliminates is a part of them, signs included
    cores = []
    monkeypatch.setattr(koszul, "rank_of_nonzeros",
                        lambda r, c, v, q: cores.append((r, c, v)) or rank_of_nonzeros(r, c, v, q))

    def check(fits, w, t, case):
        kept = ~koszul._forest(fits[2], w) if t == 3 else None
        rows, cols, signs = koszul._strand_nonzeros(fits[t], w, t, kept)
        height, strands = koszul._comb_count(w, t - 1), len(fits[t])
        D = np.zeros((strands * height, int(fits[t].sum())), dtype=np.int8)
        D[rows, cols] = signs
        B = _boundary_matrix(w, t)
        first = 0
        for i, fit in enumerate(fits[t]):
            expect = np.zeros((strands * height, int(fit.sum())), dtype=np.int8)
            expect[i * height:(i + 1) * height] = B[:, fit]
            if t == 3:
                forest = koszul._forest(fits[2][[i]], w)[0]
                # a spanning forest of the fitting edges: independent
                # fitting edges, as many as the rank of the incidence
                # matrix on all of them
                d2 = _boundary_matrix(w, 2)
                assert not (forest & ~fits[2][i]).any(), f"{case}, strand {i}"
                assert rank_gfp(d2[:, forest], p) == forest.sum(), f"{case}, strand {i}"
                assert forest.sum() == rank_gfp(d2[:, fits[2][i]], p)
                expect[i * height + np.flatnonzero(forest)] = 0
            got = D[:, first:first + expect.shape[1]]
            assert np.array_equal(got, expect), f"{case}, t {t}, strand {i}"
            first += expect.shape[1]
        cores.clear()
        koszul._reduced_rank(fits[:t + 1], t, p)
        for r, c, v in cores:
            assert v.size and np.array_equal(D[r, c], v), f"{case}, t {t}: core signs"
        return len(cores)

    seed = 41
    eliminated = 0
    for n, N, keep, a, s in _cone_cases(np.random.default_rng(seed)):
        W = GradedSubspace.span_of_monomials(keep, n, p, N)
        E = monomial_array(n, N)[list(W.pivots)]
        fits = koszul._face_fits(E, a + (s + 1) * N, s + 1)
        cones, _ = koszul._cones(fits, W.dim)
        for t in range(2, s + 2):
            rest = ~cones[t] & fits[t].any(1)
            if rest.any():
                eliminated += check([f[rest] for f in fits], W.dim, t,
                                    f"seed {seed}, p {p}, n {n}, N {N}, keep {keep}, a {a}, s {s}")
    for name, (w, facets) in COMPLEXES.items():
        fits = _complex_fits(w, facets)
        for t in range(2, len(fits)):
            eliminated += check(fits, w, t, f"p {p}, {name}")
    assert eliminated, f"seed {seed}, p {p}: no core was eliminated"


def _apex_cases():
    """(n, N, keep, a, s): the filter cases (the cone cases, the 105
    green-monomial cells and the edge cases), then systems at s = 4 whose
    strands are coned one level down at t = 4 and t = 5."""
    yield from _filter_cases()
    yield 4, 2, [0, 2, 3, 5, 7, 8, 9], 0, 4
    yield 4, 2, list(range(10)), 0, 4
    yield 3, 3, [0, 2, 4, 5, 6, 8, 9], 1, 4


def _is_cone_point(fit, v, w, size):
    """T | {v} fits for every fitting face T without v of size <= size, for
    the face fits `fit` of one strand."""
    for k in range(size + 1):
        tgt, src, j, _ = koszul._simplex_boundary(w, k + 1)
        at = j == v
        if (fit[k][tgt[at]] & ~fit[k + 1][src[at]]).any():
            return False
    return True


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_coned_ranks_match_elimination(p):
    # a t-strand with a cone point through faces of size t-2 but none
    # through faces of size t-1 is matched through that point, its apex:
    # the fitting t-faces through it, plus the rank of what is left.  The
    # identity holds for any vertex, so the strands with no such point try
    # their first fitting vertex, and the complexes every vertex
    coned = {3: 0, 4: 0, 5: 0}

    def check(fits, apex, w, t, case):
        """Each strand alone, then all of them at once, against the dense
        boundary restricted to the fitting t-faces."""
        B = _boundary_matrix(w, t)
        dense = [rank_gfp(B[:, fit], p) for fit in fits[t]]
        for i, expect in enumerate(dense):
            got = koszul._coned_rank([f[[i]] for f in fits[:t + 1]], apex[[i]], t, p)
            assert got == expect, f"{case}, t {t}, strand {i}, apex {apex[i]}: {got} != {expect}"
        got = koszul._coned_rank(fits[:t + 1], apex, t, p)
        assert got == sum(dense), f"{case}, t {t}, all strands: {got} != {sum(dense)}"

    for n, N, keep, a, s in _apex_cases():
        W = GradedSubspace.span_of_monomials(keep, n, p, N)
        w = W.dim
        fits = koszul._face_fits(monomial_array(n, N)[list(W.pivots)], a + (s + 1) * N, s + 1)
        cones, apex = koszul._cones(fits, w)
        case = f"p {p}, n {n}, N {N}, keep {keep}, a {a}, s {s}"
        for t in range(3, s + 2):
            at = cones[t - 1] & ~cones[t] & fits[t].any(1)
            for i in np.flatnonzero(at):
                assert _is_cone_point([f[i] for f in fits], apex[i], w, t - 2), (case, t, i)
            if at.any():
                check([f[at] for f in fits], apex[at], w, t, case)
                coned[t] += int(at.sum())
            at = ~cones[t - 1] & fits[t].any(1)
            if at.any():
                check([f[at] for f in fits], fits[1][at].argmax(1), w, t, case + ", unconed")
    for name, (w, facets) in COMPLEXES.items():
        fits = _complex_fits(w, facets)
        for t in range(3, len(fits)):
            for v in range(w):
                check(fits, np.array([v]), w, t, f"p {p}, {name}")
    assert all(coned.values()), coned


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_coned_dunce_hat_leaves_its_triangles_to_eliminate(monkeypatch, p):
    # vertex 0 joined by edges to a dunce hat on vertices 1..8, with no
    # triangle through 0: 0 is a cone point through vertices but not
    # through edges.  No fitting triangle goes through it and no dunce-hat
    # edge is matched, so what is left is the dunce hat's triangle
    # boundary, signs included, which peeling cannot empty: 17 triangles,
    # 51 nonzeros, rank 17 (the dunce hat is acyclic)
    w, hat = COMPLEXES["dunce hat"]
    w += 1
    fits = _complex_fits(w, [(0, v) for v in range(1, w)] + [tuple(v + 1 for v in T) for T in hat])
    cones, apex = koszul._cones(fits, w)
    assert cones[2][0] and not cones[3][0] and apex[0] == 0
    cores = []
    monkeypatch.setattr(koszul, "rank_of_nonzeros",
                        lambda r, c, v, q: cores.append((r, c, v)) or rank_of_nonzeros(r, c, v, q))
    B = _boundary_matrix(w, 3)[:, fits[3][0]]
    assert koszul._coned_rank(fits, apex, 3, p) == rank_gfp(B, p) == 17
    assert len(cores) == 1, cores
    rows, cols, signs = cores[0]
    assert len(signs) == 51 and np.array_equal(B[rows, cols], signs)
    assert np.count_nonzero(B[np.unique(rows)]) == 51


def test_monomial_path_matches_generic_through_the_apex(monkeypatch):
    # 210 random monomial systems with s from 2 to 4, a third at each of
    # P, P2 and P_MAX, against the dense generic path; the apex matching
    # must serve t = 3, 4 and 5
    ts = set()
    coned_rank = koszul._coned_rank
    monkeypatch.setattr(koszul, "_coned_rank",
                        lambda fits, apex, t, p: ts.add(t) or coned_rank(fits, apex, t, p))
    rng = np.random.default_rng(44)
    for i in range(210):
        p = (P, P2, P_MAX)[i % 3]
        n = int(rng.integers(2, 5))
        N = 2 if n == 4 else int(rng.integers(2, 4))
        D = dim_graded(n, N)
        keep = sorted(int(k) for k in
                      rng.choice(D, size=int(rng.integers(3, min(D, 8) + 1)), replace=False))
        a, s = int(rng.integers(-1, 4 if n < 4 else 2)), int(rng.integers(2, 5))
        W = GradedSubspace.span_of_monomials(keep, n, p, N)
        fast = middle_exactness(W, a, s)
        slow = report_from_slice(koszul_slice(W, a, s))
        case = (n, N, keep, a, s, p)
        assert (fast.rank_in, fast.kernel_out, fast.defect) == \
               (slow.rank_in, slow.kernel_out, slow.defect), case
    assert ts == {3, 4, 5}, ts


def test_each_strand_is_forested_once_per_cell(monkeypatch):
    # over the 105 green-monomial cells: a strand with no cone point through
    # vertices gets one spanning forest, read for both its t = 2 rank and
    # its t = 3 forest rows, and a strand with one gets none, since its
    # triangles are matched through the apex
    forested = []
    forest = koszul._forest
    monkeypatch.setattr(koszul, "_forest",
                        lambda edge_fits, w: forested.append(edge_fits.copy()) or forest(edge_fits, w))
    total = 0
    for n, N, c in GREEN_SYSTEMS:
        W = sample_bpf_subsystem(n, N, c, P, np.random.default_rng(1000 * n + 10 * N + c),
                                 style="monomial")
        for a in range(5):
            for s in range(1, 3):
                forested.clear()
                middle_exactness(W, a, s)
                fits = koszul._face_fits(monomial_array(n, N)[list(W.pivots)], a + (s + 1) * N, s + 1)
                cones = _cones_by_vertex(fits, W.dim)
                expect = fits[2][~cones[2] & fits[2].any(1)]
                got = np.concatenate(forested or [expect[:0]])
                case = (n, N, c, a, s)
                assert sorted(r.tobytes() for r in got) == sorted(r.tobytes() for r in expect), case
                total += len(got)
    assert total == 1483, total


def test_coned_rank_peaks_below_twice_the_largest_fits():
    # the largest green-monomial cell, (n, N, codim) = (4, 3, 2), a = 4,
    # s = 2: each part of a batch that the apex matches assembles only what
    # is left of its triangles, so no part holds as much as two fits arrays
    n, N, a, s = 4, 3, 4, 2
    W = sample_bpf_subsystem(n, N, 2, P, np.random.default_rng(1000 * n + 10 * N + 2),
                             style="monomial")
    fits = koszul._face_fits(monomial_array(n, N)[list(W.pivots)], a + (s + 1) * N, s + 1)
    cones, apex = koszul._cones(fits, W.dim)
    parts = [b[cones[2][b]] for b in koszul._batches(np.flatnonzero(~cones[3] & fits[3].any(1)))]
    parts = [([f[c] for f in fits], apex[c]) for c in parts if len(c)]
    expect = [koszul._coned_rank(f, v, 3, P) for f, v in parts]  # fills the boundary caches
    peaks = []
    for (f, v), rank in zip(parts, expect):
        tracemalloc.start()
        try:
            assert koszul._coned_rank(f, v, 3, P) == rank
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    largest = max(f.nbytes for f in fits)
    assert largest == fits[-1].nbytes == 560 * 816 and len(peaks) >= 2
    assert max(peaks) < 2 * largest, (peaks, largest)


def test_strand_ranks_leave_numpy_ma_unimported():
    # np.unique without indices imports numpy.ma on first use (numpy 2.4),
    # a megabyte of resident memory: in a fresh interpreter, a green-monomial
    # cell whose strand cores reach the block bookkeeping must not load it
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "from jacring import koszul",
        "W = koszul.sample_bpf_subsystem(3, 4, 0, 65521, np.random.default_rng(3040),",
        "                                style='monomial')",
        "before = 'numpy.ma' in sys.modules",
        "koszul.middle_exactness(W, 1, 2)",
        "print(before, 'numpy.ma' in sys.modules)",
    ])
    src = str(Path(koszul.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["False", "False"], out


def test_strand_blocks_are_ranked_together_within_one_strand_boundary(monkeypatch):
    # the core a batch of strands leaves is block diagonal, one block per
    # strand, so consecutive blocks may share a call; a call takes blocks
    # while, scattered whole, they stay within one strand's boundary
    # C(w, t-1) x C(w, t), and the next block would break that bound.  This
    # holds for the reduced strands and for the rest the apex leaves of the
    # coned ones.  Every rank is checked against the dense boundary of each
    # strand
    calls, shared = [], []
    reduced_rank, coned_rank, rank = koszul._reduced_rank, koszul._coned_rank, koszul.rank_of_nonzeros
    monkeypatch.setattr(koszul, "rank_of_nonzeros",
                        lambda r, c, *args: calls.append((r, c)) or rank(r, c, *args))

    def check_calls(fits, t):
        w = fits[1].shape[1]
        height = koszul._comb_count(w, t - 1)
        limit = height * koszul._comb_count(w, t)
        size = [(np.unique(r).size, np.unique(c).size) for r, c in calls]
        assert all(h * v <= limit for h, v in size), (t, w, size)
        strands = [np.unique(r // height) for r, _ in calls]
        # each call takes the next blocks in strand order
        assert (np.diff(np.concatenate(strands or [[]])) > 0).all(), strands
        # the first block of each call would not fit in the call before
        for i in range(1, len(calls)):
            first = calls[i][0] // height == strands[i][0]
            h = size[i - 1][0] + np.unique(calls[i][0][first]).size
            v = size[i - 1][1] + np.unique(calls[i][1][first]).size
            assert h * v > limit, (t, w, i, size)
        shared.extend(s.size > 1 for s in strands)

    def grouped(fits, t, p, forest=None):
        calls.clear()
        out = reduced_rank(fits, t, p, forest)
        check_calls(fits, t)
        return out

    def grouped_coned(fits, apex, t, p):
        calls.clear()
        out = coned_rank(fits, apex, t, p)
        check_calls(fits, t)
        coned_calls.append(len(calls))
        return out

    coned_calls = []
    monkeypatch.setattr(koszul, "_coned_rank", grouped_coned)
    monkeypatch.setattr(koszul, "_reduced_rank", grouped)
    cases = [(n, N, keep, a, s2) for n, N, keep, a, s in _cone_cases(np.random.default_rng(41))
             for s2 in sorted({s, 2})]
    for n, N, c in GREEN_SYSTEMS:
        W = sample_bpf_subsystem(n, N, c, P, np.random.default_rng(1000 * n + 10 * N + c),
                                 style="monomial")
        cases += [(n, N, list(W.pivots), a, s) for a in range(5) for s in range(3)]
    for n, N, keep, a, s in cases:
        W = GradedSubspace.span_of_monomials(keep, n, P, N)
        fits = koszul._face_fits(monomial_array(n, N)[list(W.pivots)], a + (s + 1) * N, s + 1)
        cones, _ = koszul._cones(fits, W.dim)
        reduced = {t: ~cones[t] & fits[t].any(1) for t in (s, s + 1)}
        ranks = {t: int(koszul._cone_ranks(fits, t)[cones[t]].sum())
                 + sum(rank_gfp(_boundary_matrix(W.dim, t)[:, fits[t][i]], P)
                       for i in np.flatnonzero(reduced[t])) for t in reduced}
        rep = middle_exactness(W, a, s)
        got = (rep.rank_in, rep.shape_in[0] - rep.kernel_out)
        assert got == (ranks[s + 1], ranks[s]), (n, N, keep, a, s)
    assert any(shared), "no call ranks several strands"
    assert any(coned_calls), "no coned strand left a core to rank"


def test_forest_reads_only_the_fitting_edges():
    # 64 strands, each a Hamiltonian path on w = 60 vertices: a path is its
    # own spanning forest, and in strand 0, whose path runs 0, 1, ..., 59,
    # the least label takes 59 rounds to reach the far end.  The scratch is
    # linear in the 3776 fitting edges, well below one int64 per vertex pair
    m, w = 64, 60
    rng = np.random.default_rng(29)
    index = {T: e for e, T in enumerate(itertools.combinations(range(w), 2))}
    edge_fits = np.zeros((m, len(index)), dtype=bool)
    for i in range(m):
        path = np.arange(w) if i == 0 else rng.permutation(w)
        edge_fits[i, [index[tuple(sorted(e))] for e in zip(path[:-1], path[1:])]] = True
    assert edge_fits.sum() == m * (w - 1) == 3776
    koszul._forest(edge_fits[:1], w)  # fills the face cache
    tracemalloc.start()
    try:
        forest = koszul._forest(edge_fits, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(forest, edge_fits)
    assert peak < m * w * w * 8, peak


def test_cones_peak_below_twice_the_largest_fits():
    # the largest green-monomial cell, (n, N, codim) = (4, 3, 2), a = 4,
    # s = 2: the boundary pairs are gathered a block of vertices at a time,
    # so the cone test holds no temporary as large as two fits arrays
    n, N, a, s = 4, 3, 4, 2
    W = sample_bpf_subsystem(n, N, 2, P, np.random.default_rng(1000 * n + 10 * N + 2),
                             style="monomial")
    fits = koszul._face_fits(monomial_array(n, N)[list(W.pivots)], a + (s + 1) * N, s + 1)
    expect = koszul._cones(fits, W.dim)  # fills the boundary caches
    tracemalloc.start()
    try:
        cones = koszul._cones(fits, W.dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(c, e) for c, e in zip(cones, expect))
    largest = max(f.nbytes for f in fits)
    assert largest == fits[-1].nbytes == 560 * 816
    assert peak < 2 * largest, (peak, largest)


def test_defect_nonnegative():
    rng = np.random.default_rng(24)
    for _ in range(10):
        W = random_subspace(2, P, 3, int(rng.integers(1, 5)), rng)
        rep = middle_exactness(W, int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        assert rep.defect >= 0


def test_sample_bpf_subsystem(monkeypatch):
    rng = np.random.default_rng(25)
    W = sample_bpf_subsystem(3, 3, 2, P, rng)
    assert W.codim == 2 and bpf_check(W).verified
    M = sample_bpf_subsystem(3, 3, 2, P, rng, style="monomial")
    assert M.codim == 2 and M.is_monomial_spanned() and bpf_check(M).verified
    monkeypatch.setattr(koszul, "BPF_SAMPLE_TRIES", 10)
    with pytest.raises(BpfSamplingError):
        # a codim-2 system in S^2 over 2 variables always has a base point
        sample_bpf_subsystem(2, 2, 2, P, rng)
    for style in ("monomials", "auto"):
        with pytest.raises(ValueError, match="'dense' or 'monomial'"):
            sample_bpf_subsystem(3, 3, 2, P, rng, style=style)
    with pytest.raises(ValueError, match="'dense' or 'monomial'"):
        green_scan(2, 2, [1], 1, 1, 1, P, rng, style="monomials")


def test_sample_bpf_monomial_keeps_pure_powers(monkeypatch):
    # at the largest codimension only the pure powers x_i^N are left; a
    # wrong index for them would drop one and leave a base point.  The
    # monomial sampler certifies nothing (the pure powers have no common
    # zero), so a call to bpf_check fails the test; at (n, N) = (5, 4) it
    # alone would take 10 s.
    def no_check(W):
        raise AssertionError("the monomial sampler called bpf_check")

    monkeypatch.setattr(koszul, "bpf_check", no_check)
    for n in range(1, 6):
        for N in range(1, 5):
            W = sample_bpf_subsystem(n, N, dim_graded(n, N) - n, P,
                                     np.random.default_rng(n * N), style="monomial")
            E = monomial_array(n, N)[list(W.pivots)]
            assert np.array_equal(E, N * np.eye(n, dtype=np.int64)), (n, N)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_sample_bpf_monomial_is_verified_within_default_mmax(p):
    # the sampler skips bpf_check because the pure powers give S^m at
    # m = bpf_default_mmax(n, N); the real check must agree at every codim
    for n in range(1, 5):
        for N in range(1, 4):
            for codim in range(dim_graded(n, N) - n + 1):
                W = sample_bpf_subsystem(n, N, codim, p, np.random.default_rng(codim),
                                         style="monomial")
                res = bpf_check(W)
                assert W.codim == codim and res.verified, (n, N, codim)
                assert res.degree <= bpf_default_mmax(n, N), (n, N, codim)


def test_green_scan_small():
    rng = np.random.default_rng(26)
    cells = green_scan(2, 3, [0, 1, 2], 4, 2, 2, P, rng)
    assert len(cells) == 3 * 2 * 5 * 3
    for cell in cells:
        assert cell.bound_holds == (cell.a >= cell.s + cell.codim)
        if cell.bound_holds:
            assert cell.exact, cell
    # codim 0 reproduces classical full-system exactness a >= s
    assert all(c.exact for c in cells if c.codim == 0 and c.a >= c.s)


def test_jacobian_koszul_check():
    ring = JacobianRing(fermat(2, 4, P))
    W = GradedSubspace.full(4, P, 4)
    rep = jacobian_koszul_check(ring, W, p_index=2, s=0)
    assert rep.a == 4 and rep.green_bound_holds and rep.transfer_condition
    assert rep.report.exact
    # left degree negative: p_index = 0 gives a = -4
    rep0 = jacobian_koszul_check(ring, W, p_index=0, s=1)
    assert rep0.a == -4 and rep0.report.defect >= 0


def test_jacobian_koszul_requires_containment():
    rng = np.random.default_rng(27)
    ring = JacobianRing(fermat(2, 4, P))
    W = random_subspace(4, P, 4, 4, rng)  # almost surely misses J^4
    with pytest.raises(ValueError):
        jacobian_koszul_check(ring, W, p_index=2, s=0)


def test_jacobian_koszul_rejects_singular():
    from jacring.jacobian import Hypersurface
    from jacring.polynomials import parse_polynomial

    cone = Hypersurface(parse_polynomial("x0^3", 3, P), 1, 3)
    ring = JacobianRing(cone)
    with pytest.raises(NotSmoothError):
        jacobian_koszul_check(ring, GradedSubspace.full(3, P, 3), 1, 0)


def _budget_sites() -> dict:
    """One call per construction that checks $JACRING_CELL_BUDGET, each
    needing more than 10 cells."""
    rng = np.random.default_rng(31)
    S2 = GradedSubspace.full(3, P, 2)
    dense = random_subspace(3, P, 2, 4, rng)
    assert not dense.is_monomial_spanned()
    generic = JacobianRing(random_smooth(1, 3, P, rng).X)
    assert not generic.monomial_path
    return {
        "product_span": lambda: product_span(S2, S2),
        # a full W is verified at degree N with no span, so drop one monomial
        "bpf_check": lambda: bpf_check(GradedSubspace.span_of_monomials(range(1, 6), 3, P, 2)),
        "koszul_slice": lambda: koszul_slice(S2, 1, 1),
        "middle_exactness_dense": lambda: middle_exactness(dense, 1, 1),
        "middle_exactness_monomial": lambda: middle_exactness(S2, 2, 2),
        "jacobian_piece_monomial": lambda: JacobianRing(fermat(1, 3, P)).jacobian_piece(2),
        "jacobian_piece_generic": lambda: generic.jacobian_piece(2),
        "certificate_generic": lambda: JacobianRing(generic.X).smoothness_certificate(),
        "power_span": lambda: power_span(S2, 2),
    }


@pytest.mark.parametrize("site", list(_budget_sites()))
def test_cell_budget_guards_construction(monkeypatch, site):
    call = _budget_sites()[site]
    monkeypatch.setenv("JACRING_CELL_BUDGET", "10")
    with pytest.raises(SizeBudgetError):
        call()
