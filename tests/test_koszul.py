import itertools
import math
import tracemalloc

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
        cones = koszul._cones(fits, W.dim)
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
        cones = koszul._cones(fits, W.dim)
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
        for t, (got, expect) in enumerate(zip(koszul._cones(fits, w), _cones_by_vertex(ref, w))):
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


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_strand_cores_carry_the_boundary_signs(monkeypatch, p):
    # the scattered strand nonzeros are the boundary on each strand's fitting
    # t-faces, less the spanning-forest rows at t = 3, and every core that
    # `_reduced_rank` eliminates is a part of them, signs included
    cores = []
    monkeypatch.setattr(koszul, "rank_of_nonzeros",
                        lambda r, c, v, q: cores.append((r, c, v)) or rank_of_nonzeros(r, c, v, q))

    def check(fits, w, t, case):
        rows, cols, signs = koszul._strand_nonzeros(fits, t)
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
        cones = koszul._cones(fits, W.dim)
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
