import tracemalloc

import numpy as np
import pytest

from conftest import P2, P_MAX
from jacring import modp
from jacring.jacobian import Hypersurface, JacobianRing, random_smooth
from jacring.modp import (
    DEFAULT_PRIME,
    SizeBudgetError,
    check_budget,
    inv_mod,
    is_prime,
    kernel_of_rref,
    matmul_gfp,
    rank_gfp,
    rank_of_nonzeros,
    rref_gfp,
    validate_prime,
)
from jacring.polynomials import Polynomial, dim_graded, monomial_exponents
from jacring.spaces import GradedSubspace

P = DEFAULT_PRIME


def _kernel(M, p):
    """Row basis of the right kernel of M, in RREF."""
    return kernel_of_rref(*rref_gfp(M, p), p)[0]


def test_is_prime_small():
    assert [k for k in range(20) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(65521)
    assert is_prime(32003)
    assert not is_prime(65520)


def test_validate_prime_rejects():
    with pytest.raises(ValueError):
        validate_prime(65520)
    with pytest.raises(ValueError):
        validate_prime(2**33 + 17)  # square exceeds the float64 exact range


def test_inv_mod():
    rng = np.random.default_rng(0)
    for a in rng.integers(1, P, size=50):
        assert (int(a) * inv_mod(int(a), P)) % P == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, P)


def test_rank_trivial():
    assert rank_gfp(np.zeros((3, 4), dtype=np.int64), P) == 0
    assert rank_gfp(np.eye(5, dtype=np.int64), P) == 5


def test_rank_invariant_under_row_operations():
    rng = np.random.default_rng(1)
    M = rng.integers(0, P, size=(50, 80), dtype=np.int64)
    r = rank_gfp(M, P)
    for seed in range(3):
        rng2 = np.random.default_rng(seed)
        perm = rng2.permutation(50)
        scales = rng2.integers(1, P, size=(50, 1))
        shuffled = (M[perm] * scales) % P
        assert rank_gfp(shuffled, P) == r


def test_rank_nullity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rows, cols = rng.integers(1, 30, size=2)
        M = rng.integers(0, P, size=(rows, cols), dtype=np.int64)
        r = rank_gfp(M, P)
        assert r + _kernel(M, P).shape[0] == cols
        assert r <= min(rows, cols)


def test_rref_idempotent_and_canonical():
    rng = np.random.default_rng(3)
    M = rng.integers(0, P, size=(12, 20), dtype=np.int64)
    R, piv = rref_gfp(M, P)
    assert R.shape[0] == len(piv)
    # pivot columns are unit columns
    for i, c in enumerate(piv):
        col = np.zeros(R.shape[0], dtype=np.int64)
        col[i] = 1
        assert np.array_equal(R[:, c], col)
    R2, piv2 = rref_gfp(R, P)
    assert np.array_equal(R, R2) and piv == piv2


def test_nullspace():
    rng = np.random.default_rng(4)
    for _ in range(10):
        M = rng.integers(0, P, size=(8, 15), dtype=np.int64)
        Nsp = _kernel(M, P)
        assert Nsp.shape[0] == 15 - rank_gfp(M, P)
        assert not (matmul_gfp(M, Nsp.T, P) % P).any()
        assert rank_gfp(Nsp, P) == Nsp.shape[0]


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_nullspace_is_canonical_kernel(p):
    rng = np.random.default_rng(7)
    full_col = rng.integers(0, p, size=(9, 4), dtype=np.int64)
    low = matmul_gfp(rng.integers(0, p, size=(10, 3), dtype=np.int64),
                     rng.integers(0, p, size=(3, 8), dtype=np.int64), p)
    shapes = [
        ("0xc", np.zeros((0, 5), dtype=np.int64)),
        ("zero", np.zeros((3, 6), dtype=np.int64)),
        ("full column rank", full_col),
        ("wide", rng.integers(0, p, size=(4, 11), dtype=np.int64)),
        ("tall", rng.integers(0, p, size=(12, 7), dtype=np.int64)),
        ("tall, rank 3", low),
        ("negative entries", rng.integers(-p, p, size=(5, 9), dtype=np.int64)),
    ]
    for name, M in shapes:
        Nsp = _kernel(M, p)
        cols = M.shape[1]
        assert Nsp.shape == (cols - rank_gfp(M, p), cols), (name, p)
        R, _ = rref_gfp(Nsp, p)
        assert np.array_equal(Nsp, R), (name, p)
        product = (M.astype(object) % p) @ Nsp.T.astype(object)
        assert not (product % p).any(), (name, p)


def _gauss_jordan(rows, p):
    """Reference RREF over GF(p) in Python ints: (nonzero rows, pivots)."""
    M = [[int(x) % p for x in row] for row in rows]
    cols = len(M[0]) if M else 0
    r, pivots = 0, []
    for c in range(cols):
        i = next((i for i in range(r, len(M)) if M[i][c]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [x * inv % p for x in M[r]]
        for j in range(len(M)):
            if j != r and M[j][c]:
                f = M[j][c]
                M[j] = [(x - f * y) % p for x, y in zip(M[j], M[r])]
        pivots.append(c)
        r += 1
    return M[:r], pivots


def _reference_kernel(rows, cols, p):
    """RREF of the right kernel, from the free columns of the reference RREF."""
    R, pivots = _gauss_jordan(rows, p)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        x = [0] * cols
        x[f] = 1
        for row, c in zip(R, pivots):
            x[c] = -row[f] % p
        basis.append(x)
    return _gauss_jordan(basis, p)[0]


def _integer_inputs(p, seed):
    """(name, matrix) pairs of integer inputs that float64 cannot all hold:
    entries beyond +-2**53 congruent to a rank-3 matrix, negative entries,
    and the full ranges of int8, uint16, uint32 and int64."""
    rng = np.random.default_rng(seed)
    low = matmul_gfp(rng.integers(0, p, size=(9, 3)), rng.integers(0, p, size=(3, 12)), p)
    yield "beyond 2**53", low + p * rng.integers(-2**62 // p, 2**62 // p, size=low.shape)
    yield "negative", low - p * rng.integers(1, 4, size=low.shape)
    for dtype in (np.int8, np.uint16, np.uint32, np.int64):
        info = np.iinfo(dtype)
        M = rng.integers(info.min, info.max, size=(8, 11), dtype=dtype, endpoint=True)
        M[5] = M[1]  # a repeated row, so the rank is below min(rows, cols)
        yield np.dtype(dtype).name, M


def _elimination_cases(p):
    """(name, seed, matrix) triples with sparse, structured and Jacobian rows."""
    for seed, density in enumerate((0.02, 0.05, 0.1, 0.2, 0.3)):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(10, 45, size=2))
        M = rng.integers(1, p, size=shape) * (rng.random(shape) < density)
        yield f"sparse {density}", seed, M
        # each row's support ends at its own column, often before the last
        ends = rng.integers(1, shape[1] + 1, size=shape[0])
        yield f"early end {density}", seed, M * (np.arange(shape[1]) < ends[:, None])
    rng = np.random.default_rng(10)
    # rows 0 and 1 miss column 0; the swap brings in row 2, whose support
    # {0, 3, 5} is disjoint from row 0's {1, 2}
    swap = np.array([[0, 1, 2, 0, 0, 0],
                     [0, 0, 3, 4, 0, 0],
                     [5, 0, 0, 6, 0, 7],
                     [0, 8, 0, 0, 9, 0]])
    yield "pivot swap", 10, swap
    M = rng.integers(0, p, size=(20, 15)) * (rng.random((20, 15)) < 0.2)
    M[::3] = 0
    yield "zero rows", 10, M
    yield "zero matrix", 10, np.zeros((4, 7), dtype=np.int64)
    yield "wide", 10, rng.integers(0, p, size=(5, 30))
    yield "tall", 10, rng.integers(0, p, size=(30, 5))
    low = matmul_gfp(rng.integers(0, p, size=(25, 4)), rng.integers(0, p, size=(4, 18)), p)
    yield "rank 4", 10, low
    for name, M in _integer_inputs(p, 11):
        yield name, 11, M
    # stored multiples of p on singleton lines: peeling the unreduced
    # pattern would count rank 5, not 2
    stored = np.array([[p, 0, 0, 0, 0, 0],
                       [0, 3, 0, 0, -p, 0],
                       [0, 0, 2 * p, 0, 0, 0],
                       [0, 4, 0, 5, 0, 0],
                       [0, 0, 0, 0, 0, -p]])
    yield "stored multiples of p", 12, stored
    rng = np.random.default_rng(13)
    lower = np.tril(rng.integers(1, p, size=(30, 30)) * (rng.random((30, 30)) < 0.1))
    lower[np.diag_indices(30)] = rng.integers(1, p, size=30)
    yield "fully peelable triangle", 13, lower[rng.permutation(30)][:, rng.permutation(30)]
    # a rank-2 core with no singleton line, reached only through a chain
    # of singleton columns down a bidiagonal block that also meets the core
    core = matmul_gfp(rng.integers(1, p, size=(4, 2)), rng.integers(1, p, size=(2, 4)), p)
    chain = np.zeros((24, 24), dtype=np.int64)
    chain[:4, :4] = core
    chain[4:, 4:] = np.diag(rng.integers(1, p, size=20)) + np.diag(rng.integers(1, p, size=19), -1)
    chain[4, :4] = rng.integers(1, p, size=4)
    yield "singular core behind chains", 13, chain[rng.permutation(24)][:, rng.permutation(24)]
    for seed, (d, N) in enumerate(((1, 3), (2, 3), (1, 4)), start=20):
        rng = np.random.default_rng(seed)
        ring = random_smooth(d, N, p, rng)
        terms = {m: int(rng.integers(1, p)) for m in monomial_exponents(d + 2, N)}
        dense = JacobianRing(Hypersurface(Polynomial(d + 2, p, terms), d, N))
        for k in range(N - 1, ring.X.socle_degree + 2):
            yield f"J^{k} of random smooth (d={d}, N={N})", seed, ring._jacobian_rows(k)
            yield f"J^{k} of dense form (d={d}, N={N})", seed, dense._jacobian_rows(k)
        k = ring.X.socle_degree + 1
        rows, cols, vals = ring._jacobian_nonzeros(k, square=True)
        square = np.zeros((dim_graded(d + 2, k),) * 2, dtype=np.int64)
        square[rows, cols] = vals
        yield f"square rows of random smooth (d={d}, N={N})", seed, square


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_elimination_matches_exact_reference(p):
    for name, seed, M in _elimination_cases(p):
        msg = f"{name}, seed {seed}, p {p}, shape {M.shape}"
        rows = M.tolist()
        R, pivots = _gauss_jordan(rows, p)
        assert rank_gfp(M, p) == len(pivots), msg
        at = np.nonzero(M)
        assert rank_of_nonzeros(*at, M[at], p) == len(pivots), msg
        E, epivots = rref_gfp(M, p)
        assert epivots == pivots, msg
        assert E.tolist() == R, msg
        K = _kernel(M, p)
        assert K.shape == (M.shape[1] - len(pivots), M.shape[1]), msg
        assert K.tolist() == _reference_kernel(rows, M.shape[1], p), msg


def _pivot_step_cases(p):
    """(name, matrix) pairs for the steps of `_echelon`: pivots found rows
    below r past live rows, and pivot rows both sparse and dense."""
    rng = np.random.default_rng(40)
    # rows 0-2 miss column 0 but are live; the pivot is row 3, and row 0
    # alone reaches the last column, so losing it loses a pivot
    below = rng.integers(1, p, size=(7, 9)) * (rng.random((7, 9)) < 0.6)
    below[:3, 0] = 0
    below[3:, 0] = rng.integers(1, p, size=4)
    below[1:, 8] = 0
    below[0, 8] = rng.integers(1, p)
    below[6] = (below[4] * 5 + below[5]) % p
    yield "pivot rows below r", below
    # sparse rows with the pivots of columns 0-5 and three nonzeros among
    # the last 40 of 60 columns (support columns), then rows dense from
    # column 6 (the contiguous slice), and combinations of both kinds
    wide = np.zeros((16, 60), dtype=np.int64)
    for j in range(6):
        wide[j, j] = rng.integers(1, p)
        wide[j, rng.choice(np.arange(20, 60), size=3, replace=False)] = rng.integers(1, p, size=3)
    wide[6:12, 6:] = rng.integers(0, p, size=(6, 54))
    wide[6:12, :6] = rng.integers(0, p, size=(6, 6)) * (rng.random((6, 6)) < 0.5)
    wide[12:] = matmul_gfp(rng.integers(0, p, size=(4, 12)), wide[:12], p)
    yield "sparse and dense pivot rows", wide[rng.permutation(16)]
    yield "sparse and dense pivot rows, transposed", wide.T.copy()


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_echelon_steps_match_exact_reference(p):
    for name, M in _pivot_step_cases(p):
        R, pivots = _gauss_jordan(M.tolist(), p)
        inputs = [(name, M)]
        if M.max() <= np.iinfo(np.uint16).max:
            inputs.append((f"{name} as uint16", M.astype(np.uint16)))
        for tag, A in inputs:
            msg = (tag, p)
            assert modp._echelon(A.astype(np.int64), p, reduced=False) == pivots, msg
            assert rank_gfp(A, p) == len(pivots), msg
            E, epivots = rref_gfp(A, p)
            assert epivots == pivots and E.tolist() == R, msg


@pytest.fixture
def rounds(monkeypatch):
    """Counts the rounds of conflict-free pivots that `_sparse_rank` takes."""
    taken = []
    pivot_round = modp._pivot_round

    def counted(*args):
        out = pivot_round(*args)
        if out is not None:
            taken.append(out[0])
        return out

    monkeypatch.setattr(modp, "_pivot_round", counted)
    return taken


def _sparse_rows(rng, shape, per_row, p):
    """A matrix of `shape` with `per_row` random nonzeros in each row."""
    M = np.zeros(shape, dtype=np.int64)
    for i in range(shape[0]):
        k = rng.integers(per_row[0], per_row[1] + 1)
        M[i, rng.choice(shape[1], size=k, replace=False)] = rng.integers(1, p, size=k)
    return M


def _round_cases(p):
    """(name, matrix) pairs sparse enough after peeling that rounds run."""
    rng = np.random.default_rng(30)
    tall = _sparse_rows(rng, (150, 120), (2, 3), p)
    yield "150x120", tall
    yield "120x150", _sparse_rows(rng, (150, 120), (2, 3), p).T
    # scaled copies of 40 rows: rank at most 120, with 190 rows
    dup = rng.choice(150, size=40, replace=False)
    scaled = tall[dup] * rng.integers(1, p, size=(40, 1)) % p
    yield "scaled duplicate rows", np.vstack([tall, scaled])[rng.permutation(190)]
    # rank-1 2x2 blocks a b / e eb/a: whichever entry a round pivots on,
    # its fill lands on the block's fourth entry and cancels it mod p
    blocks = np.zeros((60, 60), dtype=np.int64)
    for i in range(0, 60, 2):
        a, b, e = (int(x) for x in rng.integers(1, p, size=3))
        blocks[i:i + 2, i:i + 2] = [[a, b], [e, e * b * pow(a, p - 2, p) % p]]
    M = np.zeros((180, 180), dtype=np.int64)
    M[:120, :120] = _sparse_rows(rng, (120, 120), (2, 3), p)
    M[120:, 120:] = blocks
    yield "fill that cancels", M[rng.permutation(180)][:, rng.permutation(180)]


def _narrow_round_cases(p):
    """The round cases in every narrower dtype that holds them, and their
    0/1 patterns as int8: the rounds' products overflow such dtypes."""
    for name, M in _round_cases(p):
        for dtype in (np.uint16, np.uint32):
            if M.max() <= np.iinfo(dtype).max:
                yield f"{name} as {np.dtype(dtype).name}", M.astype(dtype)
        yield f"pattern of {name} as int8", (M != 0).astype(np.int8)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_pivot_rounds_match_exact_reference(p, rounds):
    for name, M in (*_round_cases(p), *_narrow_round_cases(p)):
        rounds.clear()
        rank = len(_gauss_jordan(M.tolist(), p)[1])
        assert rank_gfp(M, p) == rank, (name, p)
        assert rounds, (name, p)
        at = np.nonzero(M)
        assert rank_of_nonzeros(*at, M[at], p) == rank, (name, p)
    # the two-by-two block alone: its only round leaves nothing
    r, c = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    v = np.array([3, 5, 7, 7 * 5 * pow(3, p - 2, p) % p])
    taken, *rest = modp._pivot_round(r, c, v, (2, 2), p, 4)
    assert taken == 1 and all(x.size == 0 for x in rest)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_round_stops_at_product_budget(p, monkeypatch):
    # an arrowhead: a diagonal with 4 full rows and columns has no singleton
    # line and is sparse, but each diagonal pivot costs 4 * 4 products, more
    # than a round may form on it
    rng = np.random.default_rng(32)
    n, k = 200, 4
    M = np.diag(rng.integers(1, p, size=n))
    M[:k] = rng.integers(1, p, size=(k, n))
    M[:, :k] = rng.integers(1, p, size=(n, k))
    M[-1] = 3 * M[-2] % p  # rank n - 1
    at = np.nonzero(M)
    budget = n * n // modp._CELLS_PER_NONZERO
    assert budget > 0
    assert modp._pivot_round(*at, M[at], M.shape, p, budget) is None
    assert modp._pivot_round(*at, M[at], M.shape, p, n * n) is not None
    stops = []
    pivot_round = modp._pivot_round

    def counted(*args):
        out = pivot_round(*args)
        stops.append(out is None)
        return out

    monkeypatch.setattr(modp, "_pivot_round", counted)
    rank = len(_gauss_jordan(M.tolist(), p)[1])
    assert rank == n - 1
    assert rank_gfp(M, p) == rank
    assert stops == [True]


def _block_kinds(p, rng):
    """(name, block) pairs, one for each way `_sparse_rank` can end."""
    n = 30
    U = np.diag(rng.integers(1, p, size=n)) + np.triu(
        rng.integers(1, p, size=(n, n)) * (rng.random((n, n)) < 0.2), 1)
    yield "peels empty", U[rng.permutation(n)][:, rng.permutation(n)]
    yield "pivot rounds", _sparse_rows(rng, (100, 80), (2, 3), p)
    yield "dense", rng.integers(1, p, size=(14, 17))
    yield "dense, transposed", rng.integers(1, p, size=(23, 9))
    yield "rank-deficient", matmul_gfp(rng.integers(0, p, size=(16, 4)),
                                       rng.integers(0, p, size=(4, 13)), p)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_block_diagonal_rank_is_the_sum_of_block_ranks(p, rounds, monkeypatch):
    # the premise of ranking many strand cores in one call: the rank of a
    # block-diagonal stack is the sum of its blocks' ranks, whichever way
    # each block would end alone, with the nonzeros in any order
    dense = []
    echelon = modp._echelon
    monkeypatch.setattr(modp, "_echelon",
                        lambda A, q, reduced: dense.append(A.shape) or echelon(A, q, reduced))
    rng = np.random.default_rng(33)
    blocks = dict(_block_kinds(p, rng))
    ranks = {}
    for name, B in blocks.items():
        rounds.clear()
        dense.clear()
        ranks[name] = len(_gauss_jordan(B.tolist(), p)[1])
        at = np.nonzero(B)
        assert rank_of_nonzeros(*at, B[at], p) == ranks[name], (name, p)
        ends = {"peels empty": not dense and not rounds,
                "pivot rounds": bool(rounds),
                "dense": dense == [B.shape],
                "dense, transposed": dense == [B.shape[::-1]],
                "rank-deficient": ranks[name] < min(B.shape)}
        assert ends[name], (name, p, rounds, dense)
    assert not modp._peel(*np.nonzero(blocks["peels empty"]))[1].any()
    for trial in range(30):
        names = rng.choice(list(blocks), size=int(rng.integers(1, 7)))
        stack = [blocks[name] if rng.random() < 0.5 else blocks[name].T for name in names]
        height, width = np.cumsum([[0, 0]] + [B.shape for B in stack], axis=0).T
        at = [np.nonzero(B) for B in stack]
        rows = np.concatenate([r + h for (r, _), h in zip(at, height)])
        cols = np.concatenate([c + w for (_, c), w in zip(at, width)])
        vals = np.concatenate([B[r, c] for B, (r, c) in zip(stack, at)])
        order = rng.permutation(rows.size)
        got = rank_of_nonzeros(rows[order], cols[order], vals[order], p)
        assert got == sum(ranks[name] for name in names), (trial, list(names), p)


def _cyclic_band(n, offsets, p):
    rng = np.random.default_rng(31)
    M = np.zeros((n, n), dtype=np.int64)
    for k in offsets:
        M[np.arange(n), (np.arange(n) + k) % n] = rng.integers(1, p, size=n)
    return M


def _torus_laplacian(m, p):
    n = m * m
    x, y = np.divmod(np.arange(n), m)
    L = 4 * np.eye(n, dtype=np.int64)
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        L[np.arange(n), (x + dx) % m * m + (y + dy) % m] = p - 1
    return L


def test_round_stops_when_conflicts_kill_chains(rounds):
    # every candidate of a cyclic band conflicts with its neighbours', so a
    # round takes a few pivots; the next must not run, or ranking an
    # 800x800 band would take hundreds of rounds
    for name, M in (("tridiagonal", _cyclic_band(800, (-1, 0, 1), P)),
                    ("band of width 5", _cyclic_band(800, (-2, -1, 0, 1, 2), P)),
                    ("28x28 torus Laplacian", _torus_laplacian(28, P))):
        rounds.clear()
        assert rank_gfp(M, P) == len(modp._echelon(M.copy(), P, reduced=False)), name
        assert len(rounds) <= 1, (name, rounds)


def test_certificate_rank_stays_sparse():
    # the square rows of J^(sigma+1) of a random quartic threefold leave an
    # 802x802 core after peeling; rounds must rank it without a dense copy
    ring = random_smooth(3, 4, P, np.random.default_rng(0))
    rows, cols, vals = ring._jacobian_nonzeros(ring.X.socle_degree + 1, square=True)
    tracemalloc.start()
    try:
        assert rank_of_nonzeros(rows, cols, vals, P) == dim_graded(5, 11) == 1365
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 802 * 802 * 8 / 4, peak


def _id_cases():
    rng = np.random.default_rng(30)
    yield "all equal", np.full(50, 7)
    yield "all distinct", rng.permutation(60) + 5
    yield "one id", np.array([3])
    for size, top in ((40, 10), (200, 500), (1000, 30)):
        yield f"{size} ids below {top}", rng.integers(0, top, size=size)


def test_index_bookkeeping_matches_unique():
    for name, ids in _id_cases():
        _, index, inverse = np.unique(ids, return_index=True, return_inverse=True)
        first = np.zeros(ids.size, dtype=bool)
        first[index] = True
        assert np.array_equal(modp._first_of_each(ids, ids.max() + 1), first), name
        got, count = modp._renumber(ids)
        assert np.array_equal(got, inverse) and count == index.size, name


def _unique_peel(rows, cols):
    """`_peel` with np.unique's first occurrences, taken in sorted order."""
    left = np.ones(len(rows), dtype=bool)
    pairs = 0
    while True:
        r, c = rows[left], cols[left]
        single = np.flatnonzero((np.bincount(r) == 1)[r] | (np.bincount(c) == 1)[c])
        if not single.size:
            return pairs, left
        single = single[np.unique(r[single], return_index=True)[1]]
        single = single[np.unique(c[single], return_index=True)[1]]
        pairs += single.size
        dead_rows = np.zeros(rows.max() + 1, dtype=bool)
        dead_cols = np.zeros(cols.max() + 1, dtype=bool)
        dead_rows[r[single]] = dead_cols[c[single]] = True
        left &= ~(dead_rows[rows] | dead_cols[cols])


def test_peel_matches_unique_reference():
    rng = np.random.default_rng(31)
    peeled = cored = 0
    for density in (0.01, 0.03, 0.08, 0.2, 0.5):
        for _ in range(4):
            shape = tuple(rng.integers(5, 80, size=2))
            rows, cols = np.nonzero(rng.random(shape) < density)
            # in shuffled order too: the peel must not rely on sorted input
            for order in (np.arange(rows.size), rng.permutation(rows.size)):
                pairs, left = modp._peel(rows[order], cols[order])
                want_pairs, want_left = _unique_peel(rows[order], cols[order])
                assert pairs == want_pairs, (density, shape)
                assert np.array_equal(left, want_left), (density, shape)
                peeled += pairs > 0
                cored += bool(left.any())
    assert peeled and cored


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_rank_of_nonzeros_checks_positions_in_any_order(p):
    rng = np.random.default_rng(32)
    for density in (0.05, 0.2, 0.6):
        M = rng.integers(1, p, size=(25, 30)) * (rng.random((25, 30)) < density)
        rows, cols = np.nonzero(M)
        order = rng.permutation(rows.size)
        rows, cols, vals = rows[order], cols[order], M[rows, cols][order]
        rank = len(_gauss_jordan(M.tolist(), p)[1])
        assert rank_of_nonzeros(rows, cols, vals, p) == rank, (density, p)
        # one position twice, far apart in the list
        for i, j in ((0, -1), (rows.size // 2, 0)):
            with pytest.raises(ValueError, match="repeated"):
                rank_of_nonzeros(np.append(rows, rows[i]), np.append(cols, cols[i]),
                                 np.append(vals, vals[j]), p)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_rank_of_nonzeros_reduces_and_refuses_repeats(p):
    # the stored p, -p and 2p are zero mod p: a peel of the unreduced
    # pattern would count each as a unit, rank 5 instead of 2
    rows = np.array([0, 1, 1, 2, 3, 3, 4])
    cols = np.array([0, 1, 4, 2, 1, 3, 5])
    vals = np.array([p, 3, -p, 2 * p, 4, 5, -p])
    assert rank_of_nonzeros(rows, cols, vals, p) == 2
    empty = np.zeros(0, dtype=np.int64)
    assert rank_of_nonzeros(empty, empty, empty, p) == 0
    assert rank_of_nonzeros([0], [3], [p], p) == 0
    with pytest.raises(ValueError, match="repeated"):
        rank_of_nonzeros([0, 1, 0], [2, 2, 2], [1, 1, p - 1], p)
    with pytest.raises(ValueError, match="negative"):
        rank_of_nonzeros([0, -1], [0, 1], [1, 1], p)
    with pytest.raises(TypeError):
        rank_of_nonzeros([0], [0], [1.5], p)


def test_matmul_exact_vs_python_int():
    rng = np.random.default_rng(5)
    A = rng.integers(0, P, size=(7, 11), dtype=np.int64)
    B = rng.integers(0, P, size=(11, 5), dtype=np.int64)
    expected = (A.astype(object) @ B.astype(object)) % P
    assert np.array_equal(matmul_gfp(A, B, P), expected.astype(np.int64))
    for p in (P, P2, P_MAX):
        for name, M in _integer_inputs(p, 12):
            for A, B in ((M, M.T), (M.T.astype(np.int64), M)):
                expected = (A.astype(object) @ B.astype(object)) % p
                got = matmul_gfp(A, B, p)
                assert got.dtype == np.int64, (name, p)
                assert got.tolist() == expected.tolist(), (name, p)


def test_refuses_input_int64_cannot_hold():
    for M in (np.array([[2**64 - 1, 1]], dtype=np.uint64), np.array([[2.5, 1.0]])):
        for call in (lambda: rank_gfp(M, P), lambda: rref_gfp(M, P),
                     lambda: matmul_gfp(M, M.T, P)):
            with pytest.raises(TypeError):
                call()


def test_dense_rank_makes_one_int64_copy():
    # a full upper triangle is just over half nonzero, so its index pairs
    # would outweigh the int64 copy; its elimination updates no row, so the
    # copy is all the memory a rank needs
    M = np.triu(np.random.default_rng(14).integers(1, P, size=(400, 400)))
    for A in (M, M.astype(np.uint16)):
        tracemalloc.start()
        try:
            assert rank_gfp(A, P) == 400
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * M.size * 8, (A.dtype, peak)


def test_rref_is_compact():
    # the rank rows of a tall matrix, as in yukawa-d2's product spans, must
    # not be a view that keeps every input row alive
    rng = np.random.default_rng(13)
    tall = matmul_gfp(rng.integers(0, P, size=(1156, 120)),
                      rng.integers(0, P, size=(120, 165)), P)
    R, pivots = rref_gfp(tall, P)
    assert R.shape == (len(pivots), 165) == (120, 165)
    assert R.base is None and R.flags.owndata
    basis = GradedSubspace.from_rows(tall, 4, P, 8).basis
    assert basis.shape == (120, 165)
    assert basis.base is None and basis.flags.owndata


def test_rref_makes_one_int64_copy():
    # a permuted diagonal over zero rows: its elimination updates no row, so
    # the int64 copy, cut to its rank rows in place, is all the memory an
    # RREF needs, whatever the input's dtype or order
    rng = np.random.default_rng(15)
    M = np.zeros((1200, 1000), dtype=np.int64)
    M[np.arange(1000), np.arange(1000)] = rng.integers(1, P, size=1000)
    M = M[rng.permutation(1200)]
    for A in (M, M.astype(np.uint16), np.asfortranarray(M)):
        tracemalloc.start()
        try:
            R, pivots = rref_gfp(A, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pivots == list(range(1000)), A.dtype
        assert np.array_equal(R, np.eye(1000, dtype=np.int64)), A.dtype
        assert R.flags.c_contiguous and R.flags.owndata, A.dtype
        assert peak <= 1.1 * M.size * 8, (A.dtype, peak)


def test_matmul_chunked_large_modulus():
    # 2**26 - 5 is prime and big enough that the inner dimension is chunked
    q = 67108859
    assert is_prime(q)
    rng = np.random.default_rng(6)
    A = rng.integers(0, q, size=(4, 9)).astype(np.int64)
    B = rng.integers(0, q, size=(9, 3)).astype(np.int64)
    expected = (A.astype(object) @ B.astype(object)) % q
    assert np.array_equal(matmul_gfp(A, B, q), expected.astype(np.int64))


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_matmul_long_inner_dimension_is_exact(p):
    # 600 inner indices are one chunk at P; at P_MAX B goes in 14-bit
    # limbs, and entries p - 1 are the largest sums either chunk can take
    rng = np.random.default_rng(26)
    A = rng.integers(0, p, size=(5, 600), dtype=np.int64)
    B = rng.integers(0, p, size=(600, 4), dtype=np.int64)
    A[0], B[:, 0] = p - 1, p - 1
    B[:, 1] = 2**14 - 1  # every low limb at its largest
    expected = (A.astype(object) @ B.astype(object)) % p
    assert matmul_gfp(A, B, p).tolist() == expected.tolist(), p


def test_budget_guard(monkeypatch):
    check_budget(100, 100)
    with pytest.raises(SizeBudgetError):
        check_budget(10**6, 10**6)
    monkeypatch.setenv("JACRING_CELL_BUDGET", "50")
    with pytest.raises(SizeBudgetError):
        check_budget(10, 10)
