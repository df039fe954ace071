"""Empty graded pieces and zero spaces take the general code paths, and
every computation that needs a smooth form stops at the one gate,
`JacobianRing.require_smooth`."""

import numpy as np
import pytest

from conftest import P, P2, P_MAX
from jacring.jacobian import (
    Hypersurface,
    JacobianRing,
    NotSmoothError,
    fermat,
    hodge_numbers_prim,
)
from jacring.koszul import jacobian_koszul_check, middle_exactness
from jacring.modp import nullspace_gfp, rank_gfp, rref_gfp
from jacring.polynomials import Polynomial, dim_graded, parse_polynomial
from jacring.spaces import GradedSubspace, subspace_intersection
from jacring.yukawa import socle_pairing_rank, yukawa_chain, yukawa_nonvanishing


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_empty_inputs_take_the_general_path(p):
    seed = 40
    rng = np.random.default_rng(seed)
    tag = f"p={p} seed={seed}"

    # matrices with no rows or no columns
    for shape in [(0, 5), (3, 0), (0, 0)]:
        M = np.zeros(shape, dtype=np.int64)
        R, piv = rref_gfp(M, p)
        assert rank_gfp(M, p) == 0, (tag, shape)
        assert R.shape == (0, shape[1]) and R.dtype == np.int64 and piv == [], (tag, shape)
        assert np.array_equal(nullspace_gfp(M, p), np.eye(shape[1], dtype=np.int64)), (tag, shape)

    # degrees below the Jacobian ideal's generators, on both paths
    d, N, n = 1, 4, 3
    rings = {
        "monomial": JacobianRing(fermat(d, N, p)),
        "generic": JacobianRing(Hypersurface(
            parse_polynomial("x0^4 + x1^4 + x2^4 + 3*x0^2*x1*x2", n, p), d, N)),
    }
    for path, ring in rings.items():
        assert ring.monomial_path == (path == "monomial"), (tag, path)
        for k in (-3, -1):
            assert ring.hilbert(k) == 0, (tag, path, k)
            assert len(ring.quotient_basis(k)) == 0, (tag, path, k)
            assert ring.reduce(np.zeros((2, 0), dtype=np.int64), k).shape == (2, 0), (tag, path, k)
            with pytest.raises(ValueError):
                ring.jacobian_piece(k)
        for k in range(N - 1):
            D = dim_graded(n, k)
            V = rng.integers(-p, 2 * p, size=(3, D), dtype=np.int64)
            assert ring.hilbert(k) == D, (tag, path, k)
            assert np.array_equal(ring.quotient_basis(k), np.arange(D)), (tag, path, k)
            assert ring.jacobian_piece(k) == GradedSubspace.zero(n, p, k), (tag, path, k)
            assert np.array_equal(ring.reduce(V, k), V % p), (tag, path, k)

    # the socle in degree sigma = 0 < N - 1 on the generic path
    quadric = JacobianRing(Hypersurface(parse_polynomial("x0^2 + x0*x1 + x1^2", 2, p), 0, 2))
    assert not quadric.monomial_path and quadric.smoothness_certificate().smooth, tag
    assert np.array_equal(quadric.socle_functional(), [1]), tag
    point = GradedSubspace.full(2, p, 0)
    assert socle_pairing_rank(quadric, point, point) == 1, tag
    assert socle_pairing_rank(quadric, point, GradedSubspace.zero(2, p, 0)) == 0, tag

    # Koszul cells whose left degree a is negative, over R and over S
    ring = JacobianRing(fermat(1, 3, p))
    n, N = 3, 3
    full = GradedSubspace.full(n, p, N)
    dense = GradedSubspace.from_rows(rng.integers(0, p, size=(4, dim_graded(n, N))), n, p, N)
    assert not dense.is_monomial_spanned(), tag
    for a in (-1, -N - 1, -2 * N - 1):
        for W, module, mid in [(full, ring, ring.hilbert(a + N)),
                               (dense, None, dim_graded(n, a + N))]:
            rep = middle_exactness(W, a, 0, ring=module)
            assert (rep.rank_in, rep.kernel_out, rep.defect) == (0, mid, mid), (tag, a)
            assert rep.shape_in == (mid, 0) and rep.shape_out == (0, mid), (tag, a)
            rep = middle_exactness(W, a, 1, ring=module)
            assert rep.rank_in == 0 and rep.shape_in[1] == 0, (tag, a)
            assert rep.defect == rep.kernel_out >= 0, (tag, a)
    rep = jacobian_koszul_check(ring, full, 0, 0).report  # a = -d-2 = -N
    assert (rep.rank_in, rep.kernel_out, rep.defect) == (0, 1, 1), tag

    # zero spaces
    Z = GradedSubspace.zero(n, p, 2)
    A = GradedSubspace.from_rows(rng.integers(0, p, size=(2, dim_graded(n, 2))), n, p, 2)
    assert A.dim == 2, tag
    assert A.contains(Z) and Z.contains(Z) and not Z.contains(A), tag
    for B, C in [(A, Z), (Z, A), (Z, Z)]:
        assert subspace_intersection(B, C) == Z, tag
    one = GradedSubspace.full(n, p, 1)
    assert socle_pairing_rank(ring, one, GradedSubspace.full(n, p, 2)) == 3, tag
    assert socle_pairing_rank(ring, GradedSubspace.zero(n, p, 1), GradedSubspace.full(n, p, 2)) == 0, tag
    assert socle_pairing_rank(ring, one, Z) == 0, tag


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_smoothness_gate_names_the_reason(p):
    # N = 1 (negative socle degree) and forms whose partials all vanish
    # never reach the certificate
    with pytest.raises(ValueError):
        Hypersurface(Polynomial.variable(0, 3, p), 1, 1)
    with pytest.raises(ValueError):
        Hypersurface(Polynomial.monomial((p, 0, 0), p), 1, p)

    n, N = 4, 4
    f = parse_polynomial("x0^4 + x1^4 + x2^4", n, p)  # singular at [0:0:0:1]
    ring = JacobianRing(Hypersurface(f, 2, N))
    cert = ring.smoothness_certificate()
    assert not cert.smooth and cert.reason, f"p={p}"
    sigma = ring.X.socle_degree
    full = GradedSubspace.full(n, p, N)
    # x3^4 is the last monomial and lies outside J^4
    hyperplane = GradedSubspace.span_of_monomials(range(dim_graded(n, N) - 1), n, p, N)
    consumers = {
        "socle_index": ring.socle_index,
        "hodge_numbers_prim": lambda: hodge_numbers_prim(ring.X, ring),
        "jacobian_koszul_check": lambda: jacobian_koszul_check(ring, full, 1, 0),
        "socle_pairing_rank": lambda: socle_pairing_rank(
            ring, full, GradedSubspace.full(n, p, sigma - N)),
        "yukawa_nonvanishing": lambda: yukawa_nonvanishing(ring, full),
        "yukawa_chain": lambda: yukawa_chain(ring, hyperplane),
    }
    for name, call in consumers.items():
        with pytest.raises(NotSmoothError) as exc:
            call()
        assert cert.reason in str(exc.value), (f"p={p}", name, str(exc.value))
