"""Integer arithmetic for the sweeping-out criteria: the two main
inequalities, the per-index degree conditions and their monotonicity
reduction, and the abelian / genus-g instantiations.

Everything here is exact integer arithmetic; grid checks in the test
suite vectorize over numpy."""

from __future__ import annotations

from dataclasses import dataclass


def gamma(r: int) -> int:
    """Round-up of (r-1)/2."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return r // 2


def gamma_i(r: int, i: int) -> int:
    """Round-up of (r-i)/2; may be <= 0 for i > r."""
    if r < 1 or i < 0:
        raise ValueError("need r >= 1 and i >= 0")
    return -((i - r) // 2)


@dataclass(frozen=True)
class CriterionInput:
    d: int  # fiber dimension
    N: int  # hypersurface degree
    r: int  # dimension of the sweeping varieties
    C: int  # moduli dimension

    def __post_init__(self):
        if self.d < 1 or self.N < 1 or self.C < 0:
            raise ValueError("need d >= 1, N >= 1, C >= 0")
        if not 1 <= self.r <= self.d:
            raise ValueError(f"need 1 <= r <= d, got r={self.r}, d={self.d}")


@dataclass(frozen=True)
class CriterionReport:
    input: CriterionInput
    gamma: int
    ineq1_slack: int  # (N+1)r - (2d+C+2)
    ineq2_slack: int  # (gamma+1)N - (2d-r+1+C)
    pass_: bool
    degree_hypothesis: bool  # N >= d+2, reported but not folded into pass_
    per_i: tuple[tuple[int, int, int], ...]  # (i, gamma_i, slack of the per-i condition)

    @property
    def ineq1(self) -> bool:
        return self.ineq1_slack >= 0

    @property
    def ineq2(self) -> bool:
        return self.ineq2_slack >= 0


def per_i_slack(d: int, N: int, r: int, C: int, i: int) -> int:
    """Slack of -d-2+N(gamma_i+i) >= C+d-r-i."""
    return (-d - 2 + N * (gamma_i(r, i) + i)) - (C + d - r - i)


def sweep_criterion(inp: CriterionInput) -> CriterionReport:
    d, N, r, C = inp.d, inp.N, inp.r, inp.C
    g = gamma(r)
    s1 = (N + 1) * r - (2 * d + C + 2)
    s2 = (g + 1) * N - (2 * d - r + 1 + C)
    per_i = tuple((i, gamma_i(r, i), per_i_slack(d, N, r, C, i))
                  for i in range(1, r + 1))
    return CriterionReport(
        input=inp,
        gamma=g,
        ineq1_slack=s1,
        ineq2_slack=s2,
        pass_=s1 >= 0 and s2 >= 0,
        degree_hypothesis=N >= d + 2,
        per_i=per_i,
    )


def abelian_moduli_dim(r: int) -> int:
    return r * (r + 1) // 2


def abelian_sweep_table(d: int) -> list[CriterionReport]:
    """Calabi-Yau degree N = d+2 against r-dimensional abelian families,
    whose moduli have dimension r(r+1)/2, for r = 1..d."""
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    return [
        sweep_criterion(CriterionInput(d=d, N=d + 2, r=r, C=abelian_moduli_dim(r)))
        for r in range(1, d + 1)
    ]


def genus_moduli_dim(g: int) -> int:
    if g < 1:
        raise ValueError("need genus >= 1")
    return 1 if g == 1 else 3 * g - 3


def genus_threshold(d: int, g: int) -> int:
    """Minimal degree N at which the r=1 criterion passes against genus-g
    curves.  At r = 1, gamma = 0 and the two inequalities read N >= 2d+C+1
    and N >= 2d+C, so the first one decides."""
    C = genus_moduli_dim(g)
    return CriterionInput(d=d, N=2 * d + C + 1, r=1, C=C).N  # validates d


def genus_threshold_closed_form(d: int, g: int) -> int:
    """The closed form the threshold is asserted against in the tests."""
    return 2 * d + 2 if g == 1 else 2 * d - 2 + 3 * g


def per_i_monotonicity(d: int, N: int, r: int, C: int) -> bool:
    """True iff the i=1 instance of the per-i condition implies all the
    others, and both underlying sequences are monotone."""
    seq_lhs = [gamma_i(r, i) + i for i in range(1, r + 1)]
    seq_rhs = [C + d - r - i for i in range(1, r + 1)]
    increasing = all(x <= y for x, y in zip(seq_lhs, seq_lhs[1:]))
    decreasing = all(x > y for x, y in zip(seq_rhs, seq_rhs[1:]))
    if not (increasing and decreasing):
        return False
    if per_i_slack(d, N, r, C, 1) >= 0:
        return all(per_i_slack(d, N, r, C, i) >= 0 for i in range(1, r + 1))
    return True
