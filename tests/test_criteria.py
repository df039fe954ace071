import numpy as np
import pytest

from jacring.criteria import (
    CriterionInput,
    abelian_moduli_dim,
    abelian_sweep_table,
    gamma,
    gamma_i,
    genus_moduli_dim,
    genus_threshold,
    genus_threshold_closed_form,
    per_i_monotonicity,
    per_i_slack,
    sweep_criterion,
)


def test_gamma():
    assert gamma(1) == 0
    assert gamma(2) == 1
    assert gamma(5) == 2
    assert all(gamma(r) == -((1 - r) // 2) for r in range(1, 50))
    with pytest.raises(ValueError):
        gamma(0)


def test_gamma_i():
    assert all(gamma_i(r, 1) == gamma(r) for r in range(1, 30))
    assert gamma_i(4, 2) == 1
    assert gamma_i(3, 3) == 0
    assert gamma_i(2, 5) < 0  # returned as-is past i = r


def test_input_validation():
    with pytest.raises(ValueError):
        CriterionInput(d=2, N=5, r=3, C=1)  # r > d
    with pytest.raises(ValueError):
        CriterionInput(d=2, N=5, r=0, C=1)
    with pytest.raises(ValueError):
        CriterionInput(d=2, N=5, r=1, C=-1)


def test_sweep_examples():
    rep = sweep_criterion(CriterionInput(d=3, N=5, r=2, C=3))
    assert rep.pass_ and rep.ineq1_slack == 12 - 11 and rep.ineq2_slack == 10 - 8
    rep = sweep_criterion(CriterionInput(d=3, N=5, r=1, C=1))
    assert not rep.pass_ and rep.ineq1_slack == -3
    rep = sweep_criterion(CriterionInput(d=1, N=4, r=1, C=0))
    assert rep.pass_ and rep.ineq1_slack == 1 and rep.ineq2_slack == 2
    assert rep.degree_hypothesis  # N = 4 >= d+2 = 3


def test_degree_hypothesis_is_reported_not_enforced():
    rep = sweep_criterion(CriterionInput(d=3, N=4, r=3, C=0))
    assert not rep.degree_hypothesis
    assert rep.pass_ == (rep.ineq1_slack >= 0 and rep.ineq2_slack >= 0)


def test_abelian_table():
    table = abelian_sweep_table(3)
    assert [r.input.r for r in table] == [1, 2, 3]
    assert [r.pass_ for r in table] == [False, True, True]
    d2 = abelian_sweep_table(2)[1]
    assert d2.ineq1_slack == 10 - 9 and d2.ineq2_slack == 8 - 6
    assert all(r.pass_ for r in abelian_sweep_table(50)[1:])
    assert abelian_moduli_dim(4) == 10


def test_genus_threshold_examples():
    assert genus_threshold(3, 2) == 10
    assert genus_threshold(3, 1) == 8
    assert genus_threshold(1, 3) == 9
    assert genus_moduli_dim(1) == 1 and genus_moduli_dim(4) == 9


def test_genus_threshold_closed_form():
    for d in range(1, 25):
        for g in range(1, 8):
            assert genus_threshold(d, g) == genus_threshold_closed_form(d, g)


def test_genus_threshold_is_sharp():
    # the r=1 criterion passes at N_min and fails one degree below it
    grid = [(d, g) for d in (1, 2, 3, 7, 50) for g in (1, 2, 5, 40)] + [(10000, 5000)]
    for d, g in grid:
        C = genus_moduli_dim(g)
        N = genus_threshold(d, g)
        assert sweep_criterion(CriterionInput(d=d, N=N, r=1, C=C)).pass_, (d, g)
        assert not sweep_criterion(CriterionInput(d=d, N=N - 1, r=1, C=C)).pass_, (d, g)


def test_per_i_sequences():
    assert [gamma_i(5, i) + i for i in range(1, 6)] == [3, 4, 4, 5, 5]
    seq = [10 + 4 - 5 - i for i in range(1, 6)]
    assert all(a > b for a, b in zip(seq, seq[1:]))


def test_per_i_slack_in_report():
    rep = sweep_criterion(CriterionInput(d=3, N=6, r=2, C=4))
    for i, gi, slack in rep.per_i:
        assert gi == gamma_i(2, i)
        assert slack == per_i_slack(3, 6, 2, 4, i)


def test_per_i_monotonicity_sampled():
    rng = np.random.default_rng(28)
    for _ in range(300):
        d = int(rng.integers(1, 21))
        r = int(rng.integers(1, d + 1))
        N = int(rng.integers(1, 31))
        C = int(rng.integers(0, 31))
        assert per_i_monotonicity(d, N, r, C)
