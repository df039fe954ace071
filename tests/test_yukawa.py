import numpy as np
import pytest

from conftest import P, P2, P_MAX
from jacring import spaces, yukawa
from jacring.jacobian import JacobianRing, fermat, random_smooth
from jacring.modp import kernel_of_rref, rref_gfp
from jacring.polynomials import dim_graded
from jacring.spaces import BpfResult, GradedSubspace, colon_by_linear_forms, product_span
from jacring.yukawa import (
    _socle_image_nonzero,
    power_span,
    random_hyperplane_over_jacobian,
    socle_pairing_rank,
    yukawa_chain,
    yukawa_nonvanishing,
)


def test_socle_degree_identity():
    for d in range(1, 8):
        X = fermat(d, d + 2, P)
        assert X.socle_degree == d * (d + 2)


def test_socle_functional():
    rng = np.random.default_rng(29)
    ring = random_smooth(2, 4, P, rng)
    u = ring.socle_functional()
    sigma = ring.X.socle_degree
    # u computes the socle coordinate of the reduction map
    eye = np.eye(dim_graded(4, sigma), dtype=np.int64)
    red = ring.reduce(eye, sigma)  # one coordinate per row
    assert np.array_equal(red[:, 0], u % P)


def test_pairing_perfect_on_full_pieces():
    rng = np.random.default_rng(30)
    for _ in range(5):
        ring = random_smooth(2, 4, P, rng)
        sigma = ring.X.socle_degree
        for a in range(sigma + 1):
            A = GradedSubspace.full(4, P, a)
            B = GradedSubspace.full(4, P, sigma - a)
            assert socle_pairing_rank(ring, A, B) == ring.hilbert(a)


def test_pairing_degenerate_cases():
    rng = np.random.default_rng(31)
    ring = random_smooth(2, 4, P, rng)
    sigma = ring.X.socle_degree
    a = 4
    J = ring.jacobian_piece(a)
    B = GradedSubspace.full(4, P, sigma - a)
    assert socle_pairing_rank(ring, J, B) == 0
    # a single element outside J pairs with rank 1
    quot = ring.quotient_basis(a)
    A = GradedSubspace.span_of_monomials([int(quot[0])], 4, P, a)
    assert socle_pairing_rank(ring, A, B) == 1
    with pytest.raises(ValueError):
        socle_pairing_rank(ring, A, GradedSubspace.full(4, P, 2))


def test_nonvanishing_cases():
    ring = JacobianRing(fermat(2, 4, P))
    full = GradedSubspace.full(4, P, 4)
    assert yukawa_nonvanishing(ring, full)
    J = ring.jacobian_piece(4)
    assert not yukawa_nonvanishing(ring, J)


def test_nonvanishing_monotone():
    rng = np.random.default_rng(32)
    ring = random_smooth(2, 4, P, rng)
    K1 = random_hyperplane_over_jacobian(ring, rng)
    K2 = GradedSubspace.full(4, P, 4)
    assert K2.contains(K1)
    if yukawa_nonvanishing(ring, K1):
        assert yukawa_nonvanishing(ring, K2)


def test_random_hyperplane():
    rng = np.random.default_rng(33)
    ring = random_smooth(2, 4, P, rng)
    K = random_hyperplane_over_jacobian(ring, rng)
    assert K.codim == 1 and K.degree == 4
    assert K.contains(ring.jacobian_piece(4))


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_kernel_of_functional_is_its_rref(p):
    rng = np.random.default_rng(35)
    D = dim_graded(4, 2)
    dense = rng.integers(1, p, size=D)
    first = np.zeros(D, dtype=np.int64)
    first[0] = rng.integers(1, p)
    last = np.zeros(D, dtype=np.int64)
    last[-1] = rng.integers(1, p)
    inner = dense * (rng.random(D) < 0.3)
    inner[4], inner[7:] = 1, 0
    for u in (dense, first, last, inner):
        K = yukawa._kernel_of_functional(u, 4, p, 2)
        ref = GradedSubspace.from_rows(kernel_of_rref(*rref_gfp(u[None, :], p), p)[0], 4, p, 2)
        assert K.pivots == ref.pivots, (p, u)
        assert np.array_equal(K.basis, ref.basis), (p, u)


def test_chain_single_instance():
    rng = np.random.default_rng(34)
    ring = random_smooth(2, 4, P, rng)
    K = random_hyperplane_over_jacobian(ring, rng)
    rep = yukawa_chain(ring, K)
    assert rep.all_ok
    names = [s.step for s in rep.steps]
    assert names == ["colon_codim", "colon_bpf", "span_full_times_colon",
                     "square_full", "power_full", "socle_image_nonzero"]
    assert all(isinstance(s.as_dict()["ok"], bool) for s in rep.steps)


def _chain_case(p, seed):
    rng = np.random.default_rng(seed)
    ring = random_smooth(2, 4, p, rng)
    return ring, random_hyperplane_over_jacobian(ring, rng)


def _got(report, step):
    return next(s.got for s in report.steps if s.step == step)


def _as_word(nonzero):
    return "nonzero" if nonzero else "zero"


def _spy_spans(monkeypatch, spans, wrap=lambda A, B, S: S):
    """Record the degrees of every product span the chain forms."""
    def spy(A, B):
        spans.append((A.degree, B.degree))
        return wrap(A, B, product_span(A, B))
    monkeypatch.setattr(yukawa, "product_span", spy)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_derived_chain_steps_match_direct_computation(monkeypatch, p):
    # d = 2: K' sits in degree 3, the span step in degree 2d+4 = 8
    for seed in range(3):
        ring, K = _chain_case(p, seed)
        spans = []
        _spy_spans(monkeypatch, spans)
        rep = yukawa_chain(ring, K)
        monkeypatch.undo()
        assert rep.all_ok
        assert spans == [(4, 4)]  # only the square is formed; both steps derived
        span = product_span(GradedSubspace.full(4, p, 5), colon_by_linear_forms(K))
        assert _got(rep, "span_full_times_colon") == span.dim
        Kd = product_span(K, K)
        assert _got(rep, "socle_image_nonzero") == _as_word(_socle_image_nonzero(ring, Kd))


@pytest.mark.parametrize("p", [P, P2, P_MAX])
@pytest.mark.parametrize("bpf", [BpfResult(False), BpfResult(True, 9)],
                         ids=["bpf-unknown", "bpf-past-2d+4"])
def test_span_step_falls_back_to_dense_span(monkeypatch, p, bpf):
    ring, K = _chain_case(p, 0)
    span = product_span(GradedSubspace.full(4, p, 5), colon_by_linear_forms(K))
    spans = []
    _spy_spans(monkeypatch, spans)
    monkeypatch.setattr(yukawa, "bpf_check", lambda W, **kw: bpf)
    rep = yukawa_chain(ring, K)
    assert (5, 3) in spans  # the dense span S^5 * K' ran
    assert _got(rep, "span_full_times_colon") == span.dim == dim_graded(4, 8)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_colon_bpf_starts_past_degree_n(monkeypatch, p):
    # S^1 K' lies in K, a hyperplane of S^N, so the check of degree N can
    # only fail: starting at N + 1 gives the same result without its rank
    degrees = []
    spans_all = spaces._spans_all

    def spy(A, B):
        degrees.append(A.degree + B.degree)
        return spans_all(A, B)

    monkeypatch.setattr(spaces, "_spans_all", spy)
    for seed in range(3):
        ring, K = _chain_case(p, seed)
        N = ring.X.N
        Kp = colon_by_linear_forms(K)
        assert spaces.bpf_check(Kp, m_min=N + 1) == spaces.bpf_check(Kp), (p, seed)
        degrees.clear()
        yukawa_chain(ring, K)
        assert degrees and N not in degrees, (p, seed, degrees)


@pytest.mark.parametrize("p", [P, P2, P_MAX])
def test_socle_step_falls_back_when_power_not_full(monkeypatch, p):
    ring, K = _chain_case(p, 0)

    def short_square(A, B, S):  # drop one row of K^2, so power_full fails
        if A is not B:
            return S
        return GradedSubspace(S.n, S.p, S.degree, S.basis[:-1], S.pivots[:-1])

    _spy_spans(monkeypatch, [], short_square)
    seen = []

    def socle_spy(ring_, Kd):
        seen.append(Kd)
        return _socle_image_nonzero(ring_, Kd)

    monkeypatch.setattr(yukawa, "_socle_image_nonzero", socle_spy)
    rep = yukawa_chain(ring, K)
    assert _got(rep, "power_full") == dim_graded(4, 8) - 1
    assert len(seen) == 1  # the reduction into R^sigma ran
    assert _got(rep, "socle_image_nonzero") == _as_word(_socle_image_nonzero(ring, seen[0]))


def test_chain_rejects_non_hyperplane():
    ring = JacobianRing(fermat(2, 4, P))
    with pytest.raises(ValueError):
        yukawa_chain(ring, GradedSubspace.full(4, P, 4))


def test_power_span():
    K = GradedSubspace.full(2, P, 1)
    assert power_span(K, 3).is_full()
    with pytest.raises(ValueError):
        power_span(K, 0)
