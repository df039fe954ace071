import itertools

import numpy as np
import pytest

from jacring import polynomials
from jacring.polynomials import (
    Polynomial,
    PolynomialParseError,
    dim_graded,
    monomial_array,
    monomial_exponents,
    monomial_index,
    monomial_rank,
    parse_polynomial,
    product_index_table,
)

P = 65521


def test_dim_graded_examples():
    assert dim_graded(1, 5) == 1
    assert dim_graded(4, 0) == 1
    assert dim_graded(5, 5) == 126
    assert dim_graded(4, 3) == 20
    assert dim_graded(3, -1) == 0
    with pytest.raises(ValueError):
        dim_graded(0, 3)


def test_monomial_basis_order():
    assert monomial_exponents(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_exponents(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # strict graded-lex descent
    ms = monomial_exponents(3, 4)
    assert all(a > b for a, b in zip(ms, ms[1:]))
    assert len(monomial_exponents(4, 3)) == 20


def test_monomial_basis_counts():
    caps = {1: 30, 2: 30, 3: 30, 4: 30, 5: 16, 6: 12}
    for n, kmax in caps.items():
        for k in range(kmax + 1):
            assert len(monomial_exponents(n, k)) == dim_graded(n, k)
    monomial_exponents.cache_clear()
    monomial_array.cache_clear()
    monomial_index.cache_clear()
    polynomials._block_starts.cache_clear()


def test_monomial_array_matches_exponents():
    for n in range(1, 7):
        for k in range(-2, 13):
            expected = np.array(monomial_exponents(n, k), dtype=np.int64).reshape(-1, n)
            A = monomial_array(n, k)
            assert A.dtype == np.int64 and np.array_equal(A, expected), (n, k)
            # monomial_rank is its inverse, and agrees with the tuple index
            assert np.array_equal(monomial_rank(A), np.arange(dim_graded(n, k))), (n, k)
            idx = monomial_index(n, k)
            assert [idx[m] for m in monomial_exponents(n, k)] == monomial_rank(expected).tolist()
    # any leading shape: a 3-D stack of rows of mixed degrees ranks row by row
    rng = np.random.default_rng(5)
    E = rng.integers(0, 5, size=(4, 7, 3))
    R = monomial_rank(E)
    assert R.shape == (4, 7)
    for i in range(4):
        for j in range(7):
            assert R[i, j] == monomial_rank(E[i, j]) == monomial_index(3, int(E[i, j].sum()))[
                tuple(int(e) for e in E[i, j])]
    # broadcastable parts rank as their sum
    assert np.array_equal(monomial_rank(E[:, :1], E[:1], E), monomial_rank(E[:, :1] + E[:1] + E))


def test_product_index_table():
    for n, a, b in itertools.product(range(1, 6), range(5), range(5)):
        T = product_index_table(n, a, b)
        ma = np.array(monomial_exponents(n, a))[:, None, :]
        mb = np.array(monomial_exponents(n, b))[None, :, :]
        idx = monomial_index(n, a + b)
        expected = [[idx[tuple(m)] for m in row] for row in (ma + mb).tolist()]
        assert T.dtype == np.int64 and T.tolist() == expected, (n, a, b)


def _random_poly(rng, n=3, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        m = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(n))
        terms[m] = int(rng.integers(0, P))
    return Polynomial(n, P, terms)


def test_multiplication_properties():
    rng = np.random.default_rng(7)
    one = Polynomial(3, P, {(0, 0, 0): 1})
    for _ in range(100):
        f, g, h = (_random_poly(rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * one == f


def test_multiply_examples():
    x0 = Polynomial.variable(0, 2, P)
    x1 = Polynomial.variable(1, 2, P)
    assert x0 * x1 == Polynomial(2, P, {(1, 1): 1})
    assert (x0 + x1) * (x0 - x1) == Polynomial(2, P, {(2, 0): 1, (0, 2): P - 1})


def test_homogeneity():
    f = Polynomial(2, P, {(2, 0): 1, (1, 1): 3})
    assert f.is_homogeneous() and f.degree() == 2
    g = Polynomial(2, P, {(2, 0): 1, (1, 0): 1})
    assert not g.is_homogeneous()
    assert Polynomial.zero(2, P).is_zero()


def test_partial_derivative_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = _random_poly(rng)
        for i in range(3):
            # independent per-monomial differentiation
            expect = Polynomial.zero(3, P)
            for m, c in f.terms.items():
                if m[i]:
                    e = list(m)
                    e[i] -= 1
                    expect = expect + Polynomial(3, P, {tuple(e): c * m[i]})
            assert f.partial(i) == expect


def test_vector_roundtrip():
    rng = np.random.default_rng(9)
    n, k = 3, 4
    v = rng.integers(0, P, size=dim_graded(n, k), dtype=np.int64)
    f = Polynomial.from_vector(v, n, k, P)
    assert np.array_equal(f.to_vector(k), v)
    with pytest.raises(ValueError):
        f.to_vector(k + 1)


def test_parse_grammar():
    f = parse_polynomial("2*x0^2*x1 + x1^3 - 3*x0*x1^2", 2, P)
    assert f == Polynomial(2, P, {(2, 1): 2, (0, 3): 1, (1, 2): P - 3})
    # omissible ^1, *1 and whitespace
    assert parse_polynomial(" x0 * x1 ", 2, P) == parse_polynomial("1*x0^1*x1^1", 2, P)
    assert parse_polynomial("5", 2, P) == Polynomial(2, P, {(0, 0): 5})
    assert parse_polynomial("-x0", 2, P) == Polynomial(2, P, {(1, 0): P - 1})


def test_parse_errors():
    for bad in ["", "x0^^3", "x9", "x0*", "+", "x0^"]:
        with pytest.raises(PolynomialParseError):
            parse_polynomial(bad, 2, P)


def test_str_parse_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(20):
        f = _random_poly(rng)
        if f.is_zero():
            continue
        assert parse_polynomial(str(f), 3, P) == f
