import math

import numpy as np
import pytest

from conftest import P, P2, random_subspace
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
from jacring.modp import SizeBudgetError, matmul_gfp, rank_gfp
from jacring.polynomials import dim_graded
from jacring.spaces import GradedSubspace, bpf_check, product_span
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
        "bpf_check": lambda: bpf_check(S2),
        "koszul_slice": lambda: koszul_slice(S2, 1, 1),
        "middle_exactness_dense": lambda: middle_exactness(dense, 1, 1),
        "jacobian_piece_monomial": lambda: JacobianRing(fermat(1, 3, P)).jacobian_piece(2),
        "jacobian_piece_generic": lambda: generic.jacobian_piece(2),
        "power_span": lambda: power_span(S2, 2),
    }


@pytest.mark.parametrize("site", list(_budget_sites()))
def test_cell_budget_guards_construction(monkeypatch, site):
    call = _budget_sites()[site]
    monkeypatch.setenv("JACRING_CELL_BUDGET", "10")
    with pytest.raises(SizeBudgetError):
        call()
