"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL verdict line (written past pytest's capture so the lines show
up in every run).

Criterion 6a asserts an implication on a grid that has genuine
counterexamples at r = 2; the test states the claim faithfully and is
expected to fail.  See README.md.
"""

import json
import time

import numpy as np
import pytest

from conftest import P, P2, run_cli
from jacring.jacobian import JacobianRing, fermat, hodge_numbers_prim, random_smooth
from jacring.koszul import BpfSamplingError, green_scan, koszul_slice
from jacring.criteria import (
    CriterionInput,
    abelian_sweep_table,
    gamma_i,
    genus_threshold,
    genus_threshold_closed_form,
    per_i_slack,
    sweep_criterion,
)
from jacring.modp import matmul_gfp
from jacring.spaces import GradedSubspace
from jacring.yukawa import random_hyperplane_over_jacobian, yukawa_chain
from test_jacobian import fermat_series


@pytest.fixture
def verdict(capsys):
    """Emit one PASS/FAIL line per criterion, past pytest's capture."""

    def emit(num, name, ok, elapsed, detail=""):
        status = "PASS" if ok else "FAIL"
        tail = f" -- {detail}" if detail else ""
        line = f"[ACCEPTANCE {num}] {name}: {status} ({elapsed:.1f}s){tail}"
        with capsys.disabled():
            print(line, flush=True)
        return line

    return emit


def test_acceptance_1_fermat_hilbert_oracle(verdict):
    t0 = time.monotonic()
    bad = []
    for d in range(1, 4):
        for N in range(3, 7):
            X = fermat(d, N, P)
            ring = JacobianRing(X)
            sigma = X.socle_degree
            series = fermat_series(d, N, sigma + 1)
            for k in range(sigma + 2):
                if ring.hilbert(k) != series[k]:
                    bad.append((d, N, k, ring.hilbert(k), series[k]))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60
    line = verdict(1, "Fermat Hilbert oracle", ok, elapsed,
                   f"mismatches: {bad[:5]}" if bad else "12 (d,N) pairs, exact")
    assert ok, line


def test_acceptance_2_classical_hodge_numbers(verdict):
    results = []
    for d, N, expect in [(3, 5, [1, 101, 101, 1]),
                         (2, 3, [0, 6, 0]),
                         (2, 4, [1, 19, 1])]:
        t0 = time.monotonic()
        got = hodge_numbers_prim(fermat(d, N, P)).numbers()
        results.append((d, N, got, expect, time.monotonic() - t0))
    ok = all(got == expect and dt < 10 for _, _, got, expect, dt in results)
    line = verdict(2, "classical Hodge numbers", ok,
                   sum(r[-1] for r in results),
                   "; ".join(f"(d={d},N={N})->{got}" for d, N, got, _, _ in results))
    assert ok, line


def test_acceptance_3_green_scan_two_primes(verdict):
    t0 = time.monotonic()
    grid = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
    violations = []
    skipped = []
    cells_per_prime = {}
    for prime in (P, P2):
        total = 0
        for n, N in grid:
            for c in (0, 1, 2):
                rng = np.random.default_rng(1000 * n + 10 * N + c)
                try:
                    cells = green_scan(n, N, [c], 6, 2, 3, prime, rng)
                except BpfSamplingError as e:
                    skipped.append((prime, n, N, c, str(e)))
                    continue
                total += len(cells)
                violations.extend(
                    (prime, cell) for cell in cells
                    if cell.bound_holds and not cell.exact
                )
        cells_per_prime[prime] = total
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 600 and all(v > 0 for v in cells_per_prime.values())
    line = verdict(3, "Green-range scan at two primes", ok, elapsed,
                   f"cells {cells_per_prime}, in-bound defects {len(violations)}, "
                   f"infeasible cells skipped {len(skipped) // 2}")
    assert ok, line


def test_acceptance_4_delta_squared_zero(verdict):
    t0 = time.monotonic()
    rng = np.random.default_rng(40)
    checked = {"S": 0, "R": 0}
    for trial in range(52):
        use_ring = trial % 2 == 1
        n = int(rng.integers(2, 4))
        N = int(rng.integers(2, 4))
        from jacring.polynomials import dim_graded

        D = dim_graded(n, N)
        dim = int(rng.integers(1, D + 1))
        while True:
            rows = rng.integers(0, P, size=(dim, D), dtype=np.int64)
            W = GradedSubspace.from_rows(rows, n, P, N)
            if W.dim == dim:
                break
        a = int(rng.integers(-1, 4))
        s = int(rng.integers(0, 3))
        ring = random_smooth(n - 2, N, P, rng) if use_ring else None
        sl = koszul_slice(W, a, s, ring=ring)
        assert not matmul_gfp(sl.delta_out, sl.delta_in, P).any(), (n, N, a, s)
        checked[sl.module_kind] += 1
    elapsed = time.monotonic() - t0
    ok = sum(checked.values()) >= 50 and min(checked.values()) > 0 and elapsed < 60
    line = verdict(4, "delta o delta = 0", ok, elapsed,
                   f"slices checked {checked}")
    assert ok, line


def test_acceptance_5_gorenstein_suite(verdict):
    t0 = time.monotonic()
    rng = np.random.default_rng(50)
    count = 0
    bad = []
    for n, N in [(3, 4), (3, 5), (4, 4)]:
        for _ in range(7):
            ring = random_smooth(n - 2, N, P, rng)
            sigma = ring.X.socle_degree
            dims = [ring.hilbert(k) for k in range(sigma + 2)]
            if dims[sigma] != 1 or dims[sigma + 1] != 0:
                bad.append((n, N, "socle", dims[sigma], dims[sigma + 1]))
            if any(dims[k] != dims[sigma - k] for k in range(sigma + 1)):
                bad.append((n, N, "symmetry", dims))
            count += 1
    elapsed = time.monotonic() - t0
    ok = not bad and count >= 20 and elapsed < 300
    line = verdict(5, "Gorenstein suite", ok, elapsed,
                   f"{count} random smooth forms" + (f", failures {bad[:3]}" if bad else ""))
    assert ok, line


def test_acceptance_6a_ineq2_implies_ineq1(verdict):
    t0 = time.monotonic()
    N = np.arange(1, 61)[:, None]
    C = np.arange(0, 61)[None, :]
    counterexamples = []
    for d in range(2, 41):
        for r in range(2, d + 1):
            g = r // 2
            ineq1 = (N + 1) * r - (2 * d + C + 2) >= 0
            ineq2 = (g + 1) * N - (2 * d - r + 1 + C) >= 0
            bad = np.argwhere(ineq2 & ~ineq1)
            counterexamples.extend(
                (d, r, int(N[i, 0]), int(C[0, j])) for i, j in bad
            )
    # spot-check the vectorized arithmetic against the scalar implementation
    rng = np.random.default_rng(60)
    for _ in range(200):
        d = int(rng.integers(2, 41))
        r = int(rng.integers(2, d + 1))
        rep = sweep_criterion(CriterionInput(d, int(rng.integers(1, 61)), r,
                                             int(rng.integers(0, 61))))
        i = rep.input
        assert rep.ineq1_slack == (i.N + 1) * i.r - (2 * i.d + i.C + 2)
        assert rep.ineq2_slack == (rep.gamma + 1) * i.N - (2 * i.d - i.r + 1 + i.C)
    elapsed = time.monotonic() - t0
    ok = not counterexamples and elapsed < 30
    line = verdict("6a", "ineq2 => ineq1 on the full grid", ok, elapsed,
                   f"{len(counterexamples)} counterexamples, first: "
                   f"{counterexamples[:3]} as (d, r, N, C)" if counterexamples
                   else "no counterexamples")
    assert ok, line


def test_acceptance_6bcd_criteria_grids(verdict):
    t0 = time.monotonic()
    ok_b = True
    for d in range(1, 61):
        table = abelian_sweep_table(d)
        ok_b &= not table[0].pass_ and table[0].ineq1_slack < 0
        ok_b &= all(rep.pass_ for rep in table[1:])
    ok_c = all(
        genus_threshold(d, g) == genus_threshold_closed_form(d, g)
        for d in range(1, 51) for g in range(1, 13)
    )
    # (d): i=1 implies all i, via the vectorized minimum of the per-i slacks
    ok_d = True
    for d in range(2, 41):
        for r in range(2, d + 1):
            lhs = np.array([gamma_i(r, i) + i for i in range(1, r + 1)])
            if not np.all(np.diff(lhs) >= 0):
                ok_d = False
            NN = np.arange(1, 61)[:, None, None]
            CC = np.arange(0, 61)[None, :, None]
            ii = np.arange(1, r + 1)[None, None, :]
            slack = (-d - 2 + NN * lhs[None, None, :]) - (CC + d - r - ii)
            first_ok = slack[:, :, 0] >= 0
            all_ok = (slack >= 0).all(axis=2)
            if np.any(first_ok & ~all_ok):
                ok_d = False
    # and that the vectorization matches the scalar per_i_slack
    assert per_i_slack(5, 7, 4, 3, 2) == (-5 - 2 + 7 * (gamma_i(4, 2) + 2)) - (3 + 5 - 4 - 2)
    elapsed = time.monotonic() - t0
    ok = ok_b and ok_c and ok_d and elapsed < 30
    line = verdict("6bcd", "abelian table, genus thresholds, per-i monotonicity",
                   ok, elapsed, f"b={ok_b} c={ok_c} d={ok_d}")
    assert ok, line


def test_acceptance_7_yukawa_chain(verdict):
    t0 = time.monotonic()
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(70 + seed)
        ring = random_smooth(2, 4, P, rng)
        K = random_hyperplane_over_jacobian(ring, rng)
        rep = yukawa_chain(ring, K)
        if not rep.all_ok:
            failures.append((seed, [s.as_dict() for s in rep.steps if not s.ok]))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300
    line = verdict(7, "Yukawa chain at d=2", ok, elapsed,
                   f"10 instances, failures {failures}" if failures
                   else "10/10 instances, all 6 steps each")
    assert ok, line


def test_acceptance_8_determinism_and_prime_independence(verdict):
    t0 = time.monotonic()
    commands = [
        ["hodge-numbers", "--d", "3", "--N", "5", "--fermat"],
        ["hodge-numbers", "--d", "2", "--N", "4", "--random-smooth", "--seed", "11"],
        ["green-scan", "--n", "3", "--N", "3", "--codim", "0..2",
         "--amax", "4", "--seed", "8"],
        ["sweep", "--d", "5", "--abelian"],
        ["yukawa-chain", "--d", "2", "--seed", "7"],
    ]
    byte_identical = True
    for argv in commands:
        r1, r2 = run_cli(list(argv)), run_cli(list(argv))
        if r1 != r2:
            byte_identical = False
    # second prime: all dimension/pass results must agree
    agree = True
    for argv in commands:
        out1 = run_cli(list(argv))
        out2 = run_cli(list(argv) + ["--prime", str(P2)])
        if argv[0] in ("hodge-numbers",):
            a, b = json.loads(out1[1]), json.loads(out2[1])
            agree &= a["hodge"] == b["hodge"] and a["hilbert"] == b["hilbert"]
        elif argv[0] == "green-scan":
            rows1 = out1[1].strip().splitlines()
            rows2 = out2[1].strip().splitlines()
            # same grid, and identical exactness verdicts cell by cell
            agree &= len(rows1) == len(rows2)
            agree &= [r.rsplit(",", 2)[1:] for r in rows1] == \
                     [r.rsplit(",", 2)[1:] for r in rows2]
        elif argv[0] == "sweep":
            agree &= out1[1] == out2[1]
        elif argv[0] == "yukawa-chain":
            a, b = json.loads(out1[1]), json.loads(out2[1])
            agree &= a["all_ok"] and b["all_ok"]
        agree &= out1[0] == out2[0] == 0
    elapsed = time.monotonic() - t0
    ok = byte_identical and agree
    line = verdict(8, "determinism and dual-prime agreement", ok, elapsed,
                   f"byte_identical={byte_identical}, second_prime_agrees={agree}")
    assert ok, line
