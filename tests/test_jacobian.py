from fractions import Fraction

import numpy as np
import pytest

from conftest import P, P2, P_MAX
from jacring import jacobian
from jacring.jacobian import (
    HodgeVector,
    Hypersurface,
    JacobianRing,
    NotSmoothError,
    ci_hilbert,
    fermat,
    hodge_level,
    hodge_numbers_prim,
    jacobian_generators,
    random_smooth,
)
from jacring.polynomials import Polynomial, dim_graded, monomial_exponents, parse_polynomial
from jacring.spaces import GradedSubspace


def fermat_series(d, N, kmax):
    """Coefficients of ((1-t^(N-1))/(1-t))^(d+2) up to t^kmax, by exact
    integer power-series multiplication."""
    base = [1] * (N - 1)  # 1 + t + ... + t^(N-2)
    poly = [1]
    for _ in range(d + 2):
        out = [0] * (len(poly) + len(base) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(base):
                out[i + j] += a * b
        poly = out
    return [(poly[k] if k < len(poly) else 0) for k in range(kmax + 1)]


def rank_over_Q(rows):
    """Fraction-based Gaussian elimination, independent of the GF(p) path."""
    M = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(M[0]) if M else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = 1 / M[rank][c]
        M[rank] = [x * inv for x in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def test_constructor_validation():
    with pytest.raises(ValueError):
        Hypersurface(parse_polynomial("x0^2", 3, P), 1, 3)  # wrong degree
    with pytest.raises(ValueError):
        Hypersurface(parse_polynomial("x0^3 + x1", 2, P), 0, 3)  # inhomogeneous
    with pytest.raises(ValueError):
        fermat(1, 3, 3)  # p divides N
    with pytest.raises(ValueError):
        fermat(1, 3, 2)  # p divides N-1


def test_jacobian_generators():
    X = fermat(2, 4, P)
    gens = jacobian_generators(X)
    assert len(gens) == 4
    for i, g in enumerate(gens):
        assert g == 4 * Polynomial.monomial(tuple(3 if j == i else 0 for j in range(4)), P)
    cone = Hypersurface(parse_polynomial("x0^3", 3, P), 1, 3)
    gens = jacobian_generators(cone)
    assert gens[0] == 3 * Polynomial.monomial((2, 0, 0), P)
    assert gens[1].is_zero() and gens[2].is_zero()


def test_jacobian_piece_dimensions():
    ring = JacobianRing(fermat(3, 5, P))
    assert ring.jacobian_piece(3).dim == 0  # below generator degree
    assert ring.jacobian_piece(4).dim == 5
    assert ring.jacobian_piece(5).dim == 25


def test_quintic_hilbert_values():
    X = fermat(3, 5, P)
    assert X.socle_degree == 15
    ring = JacobianRing(X)
    assert ring.hilbert(0) == 1
    assert ring.hilbert(5) == 101
    assert ring.hilbert(16) == 0


def test_fermat_hilbert_series_oracle():
    for d in (1, 2):
        for N in (3, 4, 5):
            X = fermat(d, N, P)
            ring = JacobianRing(X)
            sigma = X.socle_degree
            series = fermat_series(d, N, sigma + 1)
            for k in range(sigma + 2):
                assert ring.hilbert(k) == series[k] == ci_hilbert(d + 2, N, k)


def test_generic_path_matches_monomial_path():
    # a dense perturbed form versus the Fermat combinatorial path must agree
    # degree by degree once both are smooth (same Hilbert function for smooth
    # forms of the same degree: complete-intersection semicontinuity)
    rng = np.random.default_rng(17)
    d, N = 1, 4
    fer = JacobianRing(fermat(d, N, P))
    pert = random_smooth(d, N, P, rng)
    assert not pert.monomial_path or pert.X.f == fer.X.f
    for k in range(fer.X.socle_degree + 2):
        assert fer.hilbert(k) == pert.hilbert(k)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_jacobian_piece_matches_polynomial_products(p):
    # the elimination path against Polynomial.__mul__ products of the
    # partials, on dense forms whose coefficients fill [0, p)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n, N = [(3, 3), (3, 4), (4, 3)][seed % 3]
        terms = {m: int(rng.integers(1, p)) for m in monomial_exponents(n, N)}
        ring = JacobianRing(Hypersurface(Polynomial(n, p, terms), n - 2, N))
        assert not ring.monomial_path
        for k in range(N - 1, ring.X.socle_degree + 2):
            products = [g * Polynomial.monomial(m, p) for g in ring.partials
                        for m in monomial_exponents(n, k - N + 1)]
            want = GradedSubspace.from_polynomials(products, k)
            got = ring.jacobian_piece(k)
            assert got.pivots == want.pivots, (seed, p, k)
            assert np.array_equal(got.basis, want.basis), (seed, p, k)


def test_smoothness_certificates():
    assert JacobianRing(fermat(3, 5, P)).smoothness_certificate().smooth
    cone = Hypersurface(parse_polynomial("x0^3", 3, P), 1, 3)
    cert = JacobianRing(cone).smoothness_certificate()
    assert not cert.smooth and cert.reason


def test_smoothness_agrees_with_rational_oracle():
    # dim J^k over GF(p) cross-checked by Fraction elimination over Q for a
    # small integer form; singular iff R^(sigma+1) != 0
    f = parse_polynomial("x0^2*x1 + x1^2*x2 + x2^2*x0", 3, P)
    X = Hypersurface(f, 1, 3)
    ring = JacobianRing(X)
    sigma = X.socle_degree
    from jacring.polynomials import monomial_exponents, monomial_index

    for k in (sigma, sigma + 1):
        idx = monomial_index(3, k)
        rows = []
        for g in jacobian_generators(X):
            for m in monomial_exponents(3, k - 2):
                row = [0] * dim_graded(3, k)
                for gm, c in g.terms.items():
                    row[idx[tuple(a + b for a, b in zip(m, gm))]] += c
                rows.append(row)
        assert dim_graded(3, k) - rank_over_Q(rows) == ring.hilbert(k)
    cert = ring.smoothness_certificate()
    assert cert.smooth == (ring.hilbert(sigma + 1) == 0 and ring.hilbert(sigma) == 1)


def test_reduce():
    rng = np.random.default_rng(18)
    ring = random_smooth(2, 4, P, rng)
    k = 5
    J = ring.jacobian_piece(k)
    assert not ring.reduce(J.basis, k).any()
    quot = ring.quotient_basis(k)
    eye = np.zeros((len(quot), dim_graded(4, k)), dtype=np.int64)
    eye[np.arange(len(quot)), quot] = 1
    assert np.array_equal(ring.reduce(eye, k), np.eye(len(quot), dtype=np.int64))


def test_gorenstein_symmetry_light():
    rng = np.random.default_rng(19)
    ring = random_smooth(1, 5, P, rng)
    sigma = ring.X.socle_degree
    dims = [ring.hilbert(k) for k in range(sigma + 1)]
    assert dims == dims[::-1]
    assert dims[sigma] == 1


def test_hodge_numbers_classical():
    H = hodge_numbers_prim(fermat(3, 5, P))
    assert H.numbers() == [1, 101, 101, 1]
    assert hodge_level(H) == 3
    H = hodge_numbers_prim(fermat(2, 3, P))
    assert H.numbers() == [0, 6, 0]
    assert hodge_level(H) == 0


def test_hodge_rejects_singular():
    cone = Hypersurface(parse_polynomial("x0^3", 3, P), 1, 3)
    with pytest.raises(NotSmoothError):
        hodge_numbers_prim(cone)


def test_calabi_yau_top_hodge_number():
    # h^(d,0) = dim R^(N-d-2): equals 1 exactly at the Calabi-Yau degree
    for d, N in [(1, 3), (1, 4), (2, 4), (2, 5)]:
        H = hodge_numbers_prim(fermat(d, N, P))
        top = H.numbers()[0]
        if N == d + 2:
            assert top == 1
        elif N > d + 2:
            assert top == dim_graded(d + 2, N - d - 2)
        if N >= d + 2:
            assert hodge_level(H) == d


def test_hodge_level_bounds():
    assert hodge_level(HodgeVector(3, ((2, 1, 5), (1, 2, 5)))) == 1
    with pytest.raises(ValueError):
        hodge_level(HodgeVector(2, ((1, 1, 0),)))
    rng = np.random.default_rng(20)
    for _ in range(10):
        w = int(rng.integers(1, 5))
        # symmetric vectors (h^(p,q) = h^(q,p)), as geometry produces
        half = [int(rng.integers(0, 3)) for _ in range(w + 1)]
        hs = [half[min(pp, w - pp)] for pp in range(w + 1)]
        entries = tuple((pp, w - pp, hs[pp]) for pp in range(w + 1))
        if not any(h for _, _, h in entries):
            continue
        assert 0 <= hodge_level(HodgeVector(w, entries)) <= w


def test_random_smooth_reproducible():
    a = random_smooth(1, 4, P, np.random.default_rng(21))
    b = random_smooth(1, 4, P, np.random.default_rng(21))
    assert a.X.f == b.X.f
    assert a.smoothness_certificate().smooth
    assert JacobianRing(a.X).smoothness_certificate().smooth


def test_random_smooth_rejects_and_gives_up(monkeypatch):
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError):
        random_smooth(1, 1, P, rng)  # no smooth form of degree 1 exists
    with pytest.raises(ValueError):
        random_smooth(1, 3, 3, rng)  # p divides N
    monkeypatch.setattr(jacobian, "RANDOM_SMOOTH_TRIES", 0)
    with pytest.raises(NotSmoothError):
        random_smooth(1, 3, P, rng)


def _eliminated_certificate(X):
    """The socle test by elimination alone on a fresh ring: smooth iff
    dim R^sigma = 1 and dim R^(sigma+1) = 0, with the certificate's reasons."""
    ring = JacobianRing(X)
    sigma = X.socle_degree
    top, above = ring.hilbert(sigma), ring.hilbert(sigma + 1)
    if top != 1:
        return False, f"dim R^sigma = {top}, expected 1"
    if above != 0:
        return False, f"dim R^(sigma+1) = {above}, expected 0"
    return True, None


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_certificate_matches_elimination(p):
    # Fermat plus sparse terms (mostly smooth) and bare sparse forms (mostly
    # singular); certified forms must have the complete-intersection series
    verdicts = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, N = [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3)][seed % 6]
        terms = {}
        if seed % 2 == 0:
            terms = {tuple(N if j == i else 0 for j in range(n)): 1 for i in range(n)}
        monos = monomial_exponents(n, N)
        for _ in range(int(rng.integers(1, 2 * n))):
            m = monos[int(rng.integers(len(monos)))]
            terms[m] = (terms.get(m, 0) + int(rng.integers(1, p))) % p
        f = Polynomial(n, p, terms)
        if f.is_zero():
            continue
        X = Hypersurface(f, n - 2, N)
        cert = JacobianRing(X).smoothness_certificate()
        expected = _eliminated_certificate(X)
        assert (cert.smooth, cert.reason) == expected, (seed, p, str(f))
        verdicts.append(cert.smooth)
        if cert.smooth:
            fresh = JacobianRing(X)
            for k in range(X.socle_degree + 3):
                assert ci_hilbert(n, N, k) == fresh.hilbert(k), (seed, p, k, str(f))
    assert any(verdicts) and not all(verdicts)


def test_quintic_hilbert_by_elimination_at_large_size():
    # RREFs of the 5005x3060 J^14 and 6825x3876 J^15 rows of a random
    # smooth quintic threefold, the largest eliminations in the tests
    ring = random_smooth(3, 5, P, np.random.default_rng(0))
    fresh = JacobianRing(ring.X)
    for k, expected in ((14, 5), (15, 1)):
        assert fresh.hilbert(k) == ci_hilbert(5, 5, k) == expected, k
