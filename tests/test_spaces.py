import tracemalloc

import numpy as np
import pytest

from conftest import P, P2, P_MAX, random_subspace
from jacring import spaces
from jacring.jacobian import JacobianRing, fermat, random_smooth
from jacring.modp import kernel_of_rref, matmul_gfp, rank_gfp, rref_gfp
from jacring.polynomials import (
    Polynomial,
    dim_graded,
    monomial_rank,
    parse_polynomial,
    product_index_table,
)
from jacring.spaces import (
    BpfResult,
    GradedSubspace,
    _product_rows,
    annihilator,
    bpf_check,
    bpf_default_mmax,
    colon_by_linear_forms,
    multiple_columns,
    product_span,
    subspace_intersection,
    subspace_sum,
)


def test_constructors():
    F = GradedSubspace.full(2, P, 3)
    assert F.dim == F.ambient_dim == 4 and F.is_full()
    Z = GradedSubspace.zero(2, P, 3)
    assert Z.dim == 0 and F.contains(Z)
    M = GradedSubspace.span_of_monomials([0, 2], 2, P, 3)
    assert M.dim == 2 and M.is_monomial_spanned()
    assert GradedSubspace.span_of_monomials([2, 0, 2], 2, P, 3) == M
    assert M.pivots == (0, 2) and M.basis.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert not GradedSubspace.from_rows([[1, 1, 0, 0]], 2, P, 3).is_monomial_spanned()
    for bad in ([-1], [0, 4]):  # dim S^3 = 4 in two variables
        with pytest.raises(ValueError, match="range"):
            GradedSubspace.span_of_monomials(bad, 2, P, 3)
    assert not F.basis[0].any() or F.is_monomial_spanned()


def test_from_rows_is_canonical():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, P, size=(3, dim_graded(3, 2)), dtype=np.int64)
    A = GradedSubspace.from_rows(rows, 3, P, 2)
    scales = rng.integers(1, P, size=(3, 1))
    B = GradedSubspace.from_rows((rows[::-1] * scales) % P, 3, P, 2)
    assert A == B  # same row space, same reduced basis


def test_sum_intersection_examples():
    A = GradedSubspace.from_polynomials([parse_polynomial("x0^2", 2, P)], 2)
    B = GradedSubspace.from_polynomials([parse_polynomial("x1^2", 2, P)], 2)
    assert subspace_sum(A, B).dim == 2
    assert subspace_intersection(A, B).dim == 0
    assert subspace_sum(A, A) == A
    assert subspace_intersection(A, A) == A


def test_dimension_formula_random():
    rng = np.random.default_rng(12)
    for _ in range(15):
        dA, dB = rng.integers(0, 8, size=2)
        A = random_subspace(3, P, 3, int(dA), rng) if dA else GradedSubspace.zero(3, P, 3)
        B = random_subspace(3, P, 3, int(dB), rng) if dB else GradedSubspace.zero(3, P, 3)
        s = subspace_sum(A, B)
        i = subspace_intersection(A, B)
        assert s.dim + i.dim == A.dim + B.dim
        assert A.contains(i) and B.contains(i)
        assert s.contains(A) and s.contains(B)


def _containment_cases(p):
    """(name, A, B) pairs in S^k of a few (n, k): random subspaces, subspaces
    of A, A plus one vector, and the zero and full subspaces."""
    rng = np.random.default_rng(17)
    for n, k in ((2, 3), (3, 2), (3, 3)):
        D = dim_graded(n, k)
        zero, full = GradedSubspace.zero(n, p, k), GradedSubspace.full(n, p, k)
        for dim in (0, 1, D // 2, D - 1, D):
            A = random_subspace(n, p, k, dim, rng)
            inside = GradedSubspace.from_rows(
                matmul_gfp(rng.integers(0, p, size=(max(dim - 1, 1), dim)), A.basis, p), n, p, k)
            outside = GradedSubspace.from_rows(
                np.vstack([A.basis, rng.integers(0, p, size=(1, D))]), n, p, k)
            for name, B in (("random", random_subspace(n, p, k, int(rng.integers(0, D + 1)), rng)),
                            ("inside", inside), ("plus a vector", outside),
                            ("zero", zero), ("full", full), ("itself", A)):
                yield f"n {n}, k {k}, dim A {dim}, B {name}", A, B
                yield f"n {n}, k {k}, dim A {dim}, B {name}, swapped", B, A
    # e0 + e2 is not in the span of e0 and e1
    A = GradedSubspace.span_of_monomials([0, 1], 2, p, 3)
    yield "monomials", A, GradedSubspace.from_rows([[1, 0, 1, 0]], 2, p, 3)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_contains_by_reduction_matches_rank(p):
    outcomes = set()
    for name, A, B in _containment_cases(p):
        expect = rank_gfp(np.vstack([A.basis, B.basis]), p) == A.dim
        assert A.contains(B) == expect, f"{name}, p {p}"
        outcomes.add(expect)
    assert outcomes == {True, False}


def test_multiple_columns_of_chosen_monomials():
    from jacring.polynomials import monomial_exponents

    rng = np.random.default_rng(26)
    n, a, b = 3, 3, 2
    ms = monomial_exponents(n, a)
    g = Polynomial(n, P, {m: int(rng.integers(1, P)) for m in monomial_exponents(n, b)[::2]})
    which = np.array([7, 0, 4, 9])
    cols, vals = multiple_columns(g.to_vector(b), n, b, a, which)
    assert cols.shape == (len(which), len(g.terms)) and len(vals) == len(g.terms)
    for r, i in enumerate(which):
        assert len(set(cols[r].tolist())) == len(vals)
        got = np.zeros(dim_graded(n, a + b), dtype=np.int64)
        got[cols[r]] = vals
        assert np.array_equal(got, (g * Polynomial(n, P, {ms[i]: 1})).to_vector(a + b))
    cols, _ = multiple_columns(g.to_vector(b), n, b, a, np.zeros(0, dtype=np.int64))
    assert cols.shape == (0, len(g.terms))


def test_multiple_columns_agree_with_product():
    # every monomial of S^a by default, against Polynomial products: random
    # forms, a monomial, and the x_i that colon_by_linear_forms moves along
    from jacring.polynomials import monomial_exponents

    rng = np.random.default_rng(13)
    n, a = 3, 2
    ms = monomial_exponents(n, a)

    def check(g, b):
        cols, vals = multiple_columns(g.to_vector(b), n, b, a)
        assert cols.shape == (len(ms), len(g.terms)), g
        for m, row in zip(ms, cols):
            got = np.zeros(dim_graded(n, a + b), dtype=np.int64)
            got[row] = vals
            assert np.array_equal(got, (g * Polynomial(n, P, {m: 1})).to_vector(a + b)), (g, m)

    for _ in range(10):
        picks = rng.choice(len(ms), size=3, replace=False)
        check(Polynomial(n, P, {ms[int(i)]: int(rng.integers(1, P)) for i in picks}), 2)
    check(Polynomial(n, P, {ms[4]: 5}), 2)
    for i in range(n):
        check(Polynomial.variable(i, n, P), 1)


def test_product_span_examples():
    S1 = GradedSubspace.full(2, P, 1)
    assert product_span(S1, S1).is_full()
    A = GradedSubspace.from_polynomials([parse_polynomial("x0", 2, P)], 1)
    B = GradedSubspace.from_polynomials([parse_polynomial("x1", 2, P)], 1)
    AB = product_span(A, B)
    assert AB.dim == 1
    assert AB.polynomials()[0] == parse_polynomial("x0*x1", 2, P)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_product_span_matches_polynomial_products(p):
    # reference: the dict product Polynomial.__mul__ of every basis pair
    def reference(A, B):
        prods = [a * b for a in A.polynomials() for b in B.polynomials()]
        if not prods:
            return GradedSubspace.zero(A.n, p, A.degree + B.degree)
        return GradedSubspace.from_polynomials(prods, A.degree + B.degree)

    def monomial(n, deg, count, rng):
        picks = rng.choice(dim_graded(n, deg), size=count, replace=False)
        return GradedSubspace.span_of_monomials(picks, n, p, deg)

    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        da, db = (int(x) for x in rng.integers(0, 4, size=2))
        cases = [
            (random_subspace(n, p, da, int(rng.integers(1, dim_graded(n, da) + 1)), rng),
             random_subspace(n, p, db, int(rng.integers(1, dim_graded(n, db) + 1)), rng)),
            (monomial(n, da, int(rng.integers(1, dim_graded(n, da) + 1)), rng),
             monomial(n, db, int(rng.integers(1, dim_graded(n, db) + 1)), rng)),
            (GradedSubspace.full(n, p, da), random_subspace(n, p, db, 1, rng)),
            (random_subspace(n, p, da, 1, rng), GradedSubspace.zero(n, p, db)),
        ]
        for A, B in cases:
            assert product_span(A, B) == reference(A, B), (seed, p, A, B)
    # terms that cancel mod p: x0 x1 in (x0 + x1)(x0 - x1), and x2 x3 in
    # g1 g2 of the square of g1 = x0 + x2 + x3, g2 = x1 + 5 x2 + (p - 5) x3
    A = GradedSubspace.from_rows([[1, 1, 0, 0]], 4, p, 1)
    B = GradedSubspace.from_rows([[1, p - 1, 0, 0]], 4, p, 1)
    K = GradedSubspace.from_rows([[1, 0, 1, 1], [0, 1, 5, p - 5]], 4, p, 1)
    # 15 rows for the 10 columns of S^3, short of x0^3: ranked, then reduced
    S1, W = GradedSubspace.full(3, p, 1), GradedSubspace.span_of_monomials(range(1, 6), 3, p, 2)
    for A, B in ((A, B), (K, K), (S1, W)):
        assert product_span(A, B) == reference(A, B), (p, A, B)
    # a short square: J^N J^N lies in J^(2N) = J^sigma, short of S^sigma
    J = random_smooth(2, 4, p, np.random.default_rng(7)).jacobian_piece(4)
    JJ = product_span(J, J)
    assert not JJ.is_full() and JJ == reference(J, J), p


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_product_rows_are_the_pairwise_products(p):
    # row j dim A + i holds a_i b_j, and row j (j + 1) / 2 + i of a square
    # holds a_i a_j for i <= j; zero coefficients are reduced away
    rng = np.random.default_rng(18)
    K = GradedSubspace.from_rows([[1, 0, 1, 1], [0, 1, 5, p - 5]], 4, p, 1)
    cases = [(K, K), (random_subspace(3, p, 2, 4, rng), random_subspace(3, p, 3, 3, rng))]
    cases += [(A, A) for A in (random_subspace(3, p, 2, 5, rng), GradedSubspace.full(2, p, 3))]
    cases.append((GradedSubspace.zero(3, p, 2), random_subspace(3, p, 1, 2, rng)))
    for A, B in cases:
        a, b = A.polynomials(), B.polynomials()
        pairs = ([(i, j) for j in range(A.dim) for i in range(j + 1)] if A is B
                 else [(i, j) for j in range(B.dim) for i in range(A.dim)])
        deg = A.degree + B.degree
        want = np.array([(a[i] * b[j]).to_vector(deg) for i, j in pairs],
                        dtype=np.int64).reshape(len(pairs), dim_graded(A.n, deg))
        assert np.array_equal(_product_rows(A, B), want), (p, A, B)


def test_product_rows_memory_is_bounded_by_the_rows():
    # half-dimensional dense spaces of S^8 in three variables: the pairs of
    # basis nonzeros are 3.8 products per cell of the rows (3.6 for the
    # square), and gathered at once their temporaries peak at 9 (24) times
    # the rows; B's nonzeros are taken in blocks of no more products than
    # cells
    rng = np.random.default_rng(19)
    A, B = (random_subspace(3, P, 8, 22, rng) for _ in range(2))
    product_index_table(3, 8, 8)  # cached for the life of the process
    for A, B in ((A, B), (A, A)):
        tracemalloc.start()
        try:
            rows = _product_rows(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * rows.nbytes, (A is B, peak / rows.nbytes)


def _leads(A, B):
    """The distinct leading monomials T[pivot_i, pivot_j] of the products."""
    T = product_index_table(A.n, A.degree, B.degree)
    return np.unique(T[np.ix_(A.pivots, B.pivots)])


def _span_cases(p, rng):
    """Pairs (A, B) whose product span is decided both ways, most of them
    with monomials that no leading term covers."""
    from jacring.yukawa import random_hyperplane_over_jacobian

    cases = []
    for _ in range(6):  # random pairs, square and not
        n = int(rng.integers(2, 5))
        da, db = (int(x) for x in rng.integers(1, 4, size=2))
        A = random_subspace(n, p, da, int(rng.integers(1, dim_graded(n, da) + 1)), rng)
        B = random_subspace(n, p, db, int(rng.integers(1, dim_graded(n, db) + 1)), rng)
        cases += [(A, B), (A, A)]
    for n, N in ((3, 2), (4, 3), (2, 4)):  # S^j x W, W short of S^N
        W = random_subspace(n, p, N, dim_graded(n, N) - int(rng.integers(1, 3)), rng)
        cases += [(GradedSubspace.full(n, p, j), W) for j in range(4)]
    for seed in range(2):  # the chain's hyperplanes K containing J^N, N = 4
        ring = random_smooth(2, 4, p, np.random.default_rng(seed))
        K = random_hyperplane_over_jacobian(ring, np.random.default_rng(seed))
        Kp = colon_by_linear_forms(K)
        cases += [(K, K), (GradedSubspace.full(4, p, 1), Kp),
                  (GradedSubspace.full(4, p, 2), Kp)]
    for d, N in ((1, 3), (2, 4)):  # J^N at every degree up to sigma + 1
        ring = random_smooth(d, N, p, np.random.default_rng(d))
        J = ring.jacobian_piece(N)
        sigma = ring.X.socle_degree
        cases += [(GradedSubspace.full(J.n, p, m - N), J) for m in range(N, sigma + 2)]
        cases.append((J, J))
    for n, deg, count in ((3, 2, 4), (4, 2, 7), (3, 3, 6)):  # monomial spans
        picks = rng.choice(dim_graded(n, deg), size=count, replace=False)
        M = GradedSubspace.span_of_monomials(picks, n, p, deg)
        cases += [(M, M), (GradedSubspace.full(n, p, 2), M)]
    S2 = GradedSubspace.full(3, p, 2)
    cases += [
        (GradedSubspace.zero(3, p, 2), S2), (S2, GradedSubspace.zero(3, p, 1)),
        (random_subspace(3, p, 2, 2, rng), random_subspace(3, p, 2, 3, rng)),  # 6 < 15 pairs
        (S2, S2), (GradedSubspace.full(4, p, 1), GradedSubspace.full(4, p, 3)),  # no U
    ]
    return cases


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_spans_all_matches_product_row_rank(p):
    # the leading-term test against the rank of every product row
    seen = set()
    for A, B in _span_cases(p, np.random.default_rng(26)):
        D = dim_graded(A.n, A.degree + B.degree)
        want = rank_gfp(_product_rows(A, B), p) == D
        assert spaces._spans_all(A, B) == want, (p, A, B)
        pairs = A.dim * (A.dim + 1) // 2 if A is B else A.dim * B.dim
        seen.add((want, "few pairs" if pairs < D
                  else "no U" if len(_leads(A, B)) == D else "U"))
    assert seen == {(False, "few pairs"), (True, "no U"), (True, "U"), (False, "U")}, seen


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_echelon_annihilator_vanishes_on_the_block(p):
    # psi is the identity on the monomials no product leads at and kills
    # every row of the echelon block, whatever the chain of waits
    levels = []
    for A, B in _span_cases(p, np.random.default_rng(27)):
        lead, first = np.unique(
            product_index_table(A.n, A.degree, B.degree)[np.ix_(A.pivots, B.pivots)],
            return_index=True)
        if not lead.size:
            continue
        E = _product_rows(A, B, np.divmod(first, B.dim))
        assert (E[np.arange(lead.size), lead] == 1).all()
        assert not (np.arange(E.shape[1]) < lead[:, None])[E != 0].any()
        psi = spaces._echelon_annihilator(E, lead, p)
        free = np.setdiff1d(np.arange(E.shape[1]), lead)
        assert np.array_equal(psi[:, free], np.eye(free.size, dtype=np.int64)), (p, A, B)
        assert not matmul_gfp(psi, E.T, p).any(), (p, A, B)
        # the longest chain of waits: row k waits for the rows leading at
        # its other nonzeros, all of which lead further right
        depth = np.zeros(E.shape[1], dtype=int)
        for k in np.argsort(-lead):
            waits = np.intersect1d(np.flatnonzero(E[k]), lead)
            depth[lead[k]] = 1 + max((depth[c] for c in waits if c != lead[k]), default=0)
        levels.append(depth.max())
    assert max(levels) >= 4, levels


def _assert_rref(S):
    piv = np.asarray(S.pivots, dtype=int)
    assert (np.diff(piv) > 0).all(), S
    assert (S.basis[np.arange(S.dim), piv] == 1).all(), S
    assert not S.basis[np.arange(S.basis.shape[1]) < piv[:, None]].any(), S


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_every_producer_returns_rref_pivots(p):
    # the leading-term test of a product span reads a_i's leading monomial
    # off its pivot: strictly increasing pivots, a 1 there, zeros left of it
    from jacring.yukawa import _kernel_of_functional, random_hyperplane_over_jacobian

    rng = np.random.default_rng(28)
    A, B = random_subspace(3, p, 2, 3, rng), random_subspace(3, p, 2, 4, rng)
    ring = random_smooth(2, 4, p, np.random.default_rng(3))
    K = random_hyperplane_over_jacobian(ring, rng)
    u = rng.integers(0, p, size=dim_graded(3, 3))
    u[-2:] = 0, 1
    made = [
        GradedSubspace.from_rows(rng.integers(0, p, size=(5, 10)), 3, p, 3),
        GradedSubspace.from_rows(np.zeros((2, 10), dtype=np.int64), 3, p, 3),
        GradedSubspace.full(3, p, 2), GradedSubspace.zero(3, p, 2),
        GradedSubspace.span_of_monomials([5, 0, 3], 3, p, 2),
        subspace_sum(A, B), subspace_intersection(A, B),
        ring.jacobian_piece(4), JacobianRing(fermat(1, 3, p)).jacobian_piece(3),
        colon_by_linear_forms(K), K, _kernel_of_functional(u, 3, p, 3),
        product_span(A, B), product_span(K, K), product_span(A, A),
    ]
    for S in made:
        _assert_rref(S)


def test_product_span_symmetric_and_monotone():
    rng = np.random.default_rng(14)
    A = random_subspace(3, P, 2, 3, rng)
    B = random_subspace(3, P, 2, 2, rng)
    assert product_span(A, B) == product_span(B, A)
    A2 = subspace_sum(A, random_subspace(3, P, 2, 1, rng))
    assert product_span(A2, B).contains(product_span(A, B))


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_symmetric_square_matches_distinct_copy(p):
    # product_span(K, K) forms each unordered pair once; an equal but
    # distinct K2 takes the path that forms every ordered pair
    from jacring.yukawa import power_span

    def twin(K):
        K2 = GradedSubspace(K.n, K.p, K.degree, K.basis.copy(), K.pivots)
        assert K2 == K and K2 is not K
        return K2

    rng = np.random.default_rng(17)
    cases = [random_subspace(3, p, 2, k, rng) for k in (2, 4, 6)]
    cases += [
        GradedSubspace.from_polynomials(
            [parse_polynomial("x0^2", 2, p), parse_polynomial("x0*x1", 2, p)], 2),
        random_subspace(3, p, 2, 1, rng),
        GradedSubspace.span_of_monomials([3], 3, p, 2),
    ]
    for K in cases:
        assert product_span(K, K) == product_span(K, twin(K)), (p, K)
    assert product_span(cases[3], cases[3]).dim == 3  # x0^4, x0^3 x1, x0^2 x1^2
    assert not product_span(cases[1], cases[1]).is_full()
    assert product_span(cases[2], cases[2]).is_full()
    for K in (random_subspace(3, p, 1, 2, rng), random_subspace(3, p, 2, 3, rng)):
        K2 = twin(K)
        assert power_span(K, 3) == product_span(product_span(K, K2), K2), (p, K)


def test_colon_examples():
    F = GradedSubspace.full(3, P, 4)
    assert colon_by_linear_forms(F).is_full()
    K = GradedSubspace.from_polynomials(
        [parse_polynomial("x0^2", 2, P), parse_polynomial("x0*x1", 2, P)], 2)
    Kp = colon_by_linear_forms(K)
    assert Kp.dim == 1
    assert Kp.polynomials()[0] == parse_polynomial("x0", 2, P)


def test_colon_brute_force_and_monotone():
    rng = np.random.default_rng(15)
    n, m = 2, 3
    for _ in range(10):
        K1 = random_subspace(n, P, m, 2, rng)
        K2 = subspace_sum(K1, random_subspace(n, P, m, 1, rng))
        C1, C2 = colon_by_linear_forms(K1), colon_by_linear_forms(K2)
        assert C2.contains(C1)
        # brute-force membership: g in K' iff x_i*g in K for all i
        for g in C1.polynomials():
            for i in range(n):
                prod = Polynomial.variable(i, n, P) * g
                assert K1.contains(GradedSubspace.from_rows(prod.to_vector(m), n, P, m))


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_colon_matches_brute_force_kernel(p):
    # [K : S^1] is the kernel of the stacked maps g -> ann(K) (x_i g), here
    # with x_i g formed as a Polynomial product of each monomial g of
    # S^(m-1); the colon must lie in that kernel and have its dimension
    from jacring.polynomials import monomial_exponents
    from jacring.yukawa import random_hyperplane_over_jacobian

    rng = np.random.default_rng(18)
    cases = []
    for n in range(2, 5):
        for m in range(1, 5):
            D = dim_graded(n, m)
            cases += [GradedSubspace.zero(n, p, m), GradedSubspace.full(n, p, m)]
            cases += [random_subspace(n, p, m, D - c, rng) for c in range(1, D)]
    ring = random_smooth(2, 4, p, np.random.default_rng(5))
    cases.append(random_hyperplane_over_jacobian(ring, rng))  # K contains J^4
    for K in cases:
        n, m = K.n, K.degree
        ann = annihilator(K)
        assert ann.shape[0] == K.codim and not matmul_gfp(ann, K.basis.T, p).any()
        gs = [Polynomial.monomial(e, p) for e in monomial_exponents(n, m - 1)]
        maps = np.vstack([
            matmul_gfp(ann, np.array([(Polynomial.variable(i, n, p) * g).to_vector(m)
                                      for g in gs]).T, p)
            for i in range(n)])
        C = colon_by_linear_forms(K)
        case = (p, n, m, K.dim)
        assert C.degree == m - 1 and not matmul_gfp(maps, C.basis.T, p).any(), case
        assert C.dim == len(gs) - rank_gfp(maps, p), case


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_colon_is_the_rref_of_the_kernel_of_the_stacked_rows(p):
    # the colon reads its RREF off one elimination of the stacked rows with
    # the columns reversed; it must be, bit for bit, the RREF of the kernel
    # vectors read off their elimination in normal order
    from jacring.yukawa import random_hyperplane_over_jacobian

    rng = np.random.default_rng(19)
    cases = []
    for n in range(2, 5):
        for m in range(1, 5):
            D = dim_graded(n, m)
            cases += [GradedSubspace.zero(n, p, m), GradedSubspace.full(n, p, m)]
            cases += [random_subspace(n, p, m, D - c, rng) for c in range(1, D)]
    for seed in range(3):  # the chain's hyperplanes K containing J^4
        ring = random_smooth(2, 4, p, np.random.default_rng(seed))
        cases.append(random_hyperplane_over_jacobian(ring, np.random.default_rng(seed)))
    for K in cases:
        N, T = annihilator(K), product_index_table(K.n, K.degree - 1, 1)
        R, pivots = rref_gfp(np.vstack([N[:, T[:, i]] for i in range(K.n)]), p)
        basis, pivots = kernel_of_rref(R, pivots, p)
        C = colon_by_linear_forms(K)
        case = (p, K.n, K.degree, K.dim)
        assert C.basis.dtype == basis.dtype and np.array_equal(C.basis, basis), case
        assert C.pivots == tuple(pivots), case
        assert all(type(c) is int for c in C.pivots), case


def test_colon_takes_one_rref(monkeypatch):
    # the colon needs only the row space of the annihilator, so the kernel
    # vectors of K's basis are moved along each x_i as they are: one
    # elimination per colon, that of the stacked rows
    from jacring import modp

    calls = []
    for module in (modp, spaces):
        monkeypatch.setattr(module, "rref_gfp", lambda M, p, rref=module.rref_gfp:
                            calls.append(M.shape) or rref(M, p))
    rng = np.random.default_rng(17)
    for n, m in ((2, 3), (3, 2), (4, 4)):
        for dim in (1, dim_graded(n, m) - 2):
            K = random_subspace(n, P, m, dim, rng)
            calls.clear()
            C = colon_by_linear_forms(K)
            assert len(calls) == 1, (n, m, dim, calls)
            assert C.degree == m - 1, (n, m, dim)


def test_annihilator():
    rng = np.random.default_rng(16)
    A = random_subspace(3, P, 2, 2, rng)
    ann = annihilator(A)
    assert ann.shape[0] == A.codim
    assert not ((ann.astype(object) @ A.basis.T.astype(object)) % P).any()


def test_annihilator_of_zero_is_identity():
    ann = annihilator(GradedSubspace.zero(3, P, 2))
    assert np.array_equal(ann, np.eye(dim_graded(3, 2), dtype=np.int64))


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_annihilator_matches_nullspace(p):
    rng = np.random.default_rng(20)
    cases = [random_subspace(n, p, k, dim, rng)
             for n, k, dim in ((3, 2, 1), (3, 2, 4), (4, 3, 11), (2, 5, 5))]
    cases += [GradedSubspace.span_of_monomials([1, 4, 5], 3, p, 2)]
    cases += [make(n, p, k) for make in (GradedSubspace.zero, GradedSubspace.full)
              for n, k in ((3, 2), (1, 4))]
    for A in cases:
        ann = annihilator(A)
        assert ann.shape == (A.codim, A.ambient_dim), (p, A)
        assert np.array_equal(ann, kernel_of_rref(*rref_gfp(A.basis, p), p)[0]), (p, A)


def test_bpf_check():
    F = GradedSubspace.full(3, P, 2)
    res = bpf_check(F)
    assert res.verified and res.degree == 2
    W = GradedSubspace.from_polynomials([parse_polynomial("x0^2", 2, P)], 2)
    assert not bpf_check(W, m_max=10).verified
    # ideals containing a smooth Jacobian piece are base-point free by sigma+1
    ring = JacobianRing(fermat(1, 3, P))
    J = ring.jacobian_piece(3)
    res = bpf_check(J, m_max=ring.X.socle_degree + 1)
    assert res.verified and res.degree <= ring.X.socle_degree + 1


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_bpf_check_from_m_min(monkeypatch, p):
    # S^(m-N) W = S^m implies the same one degree up, so a check from
    # m_min reports the later of m_min and the least degree, and decides no
    # span below m_min
    rng = np.random.default_rng(22)
    short = GradedSubspace.from_polynomials([parse_polynomial("x0^2", 3, p)], 2)
    cases = [random_subspace(n, p, N, dim_graded(n, N) - 1, rng)
             for n, N in ((3, 2), (4, 3), (2, 3))] + [short]
    degrees = []
    spans_all = spaces._spans_all

    def spy(A, B):
        degrees.append(A.degree + B.degree)
        return spans_all(A, B)

    monkeypatch.setattr(spaces, "_spans_all", spy)
    verified = []
    for W in cases:
        N, m_max = W.degree, bpf_default_mmax(W.n, W.degree)
        least = bpf_check(W, m_max)
        verified.append(least.verified)
        for m_min in range(N + 1, m_max + 2):
            degrees.clear()
            res = bpf_check(W, m_max, m_min=m_min)
            assert min(degrees, default=m_min) >= m_min, (p, W, m_min)
            if least and m_min <= m_max:
                assert res == BpfResult(True, max(least.degree, m_min)), (p, W, m_min)
            else:
                assert res == BpfResult(False), (p, W, m_min)
    assert verified == [True, True, True, False]


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_bpf_check_of_monomial_w_is_index_set_fullness(p):
    # each product of a monomial of S^(m-N) with a monomial of W is one
    # monomial, so S^(m-N) W = S^m exactly when those monomials cover S^m;
    # half the draws add every pure power x_i^N, and a W without all of
    # them is never verified
    rng = np.random.default_rng(21)
    outcomes = set()
    for t in range(24):
        n, N = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        D = dim_graded(n, N)
        picks = rng.choice(D, size=int(rng.integers(1, D + 1)), replace=False).tolist()
        if t % 2:
            picks += monomial_rank(N * np.eye(n, dtype=np.int64)).tolist()
        W = GradedSubspace.span_of_monomials(picks, n, p, N)
        m_max = bpf_default_mmax(n, N) + int(rng.integers(0, 2))
        covered = [m for m in range(N, m_max + 1)
                   if np.unique(product_index_table(n, m - N, N)[:, list(W.pivots)]).size
                   == dim_graded(n, m)]
        res = bpf_check(W, m_max)
        assert res == BpfResult(bool(covered), covered[0] if covered else None), (n, N, W.pivots)
        outcomes.add((res.verified, W.is_full()))
    assert outcomes == {(True, True), (True, False), (False, False)}
