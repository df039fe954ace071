"""Command-line front door.  Every subcommand prints machine-readable
output (JSON or CSV), seeds all randomness explicitly, and follows the
exit-code contract:

  0  all requested assertions hold
  1  a mathematical assertion failed
  2  usage or parse error
  3  size budget exceeded
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import (
    CriterionInput,
    CriterionReport,
    abelian_sweep_table,
    genus_moduli_dim,
    genus_threshold,
    sweep_criterion,
)
from .jacobian import (
    Hypersurface,
    JacobianRing,
    NotSmoothError,
    ci_hilbert,
    fermat,
    hodge_numbers_prim,
    random_smooth,
)
from .koszul import (
    GREEN_CSV_COLUMNS,
    BpfSamplingError,
    green_scan,
    jacobian_koszul_check,
    sample_bpf_subsystem,
)
from .modp import DEFAULT_PRIME, SizeBudgetError, _env_int, cell_budget, validate_prime
from .polynomials import PolynomialParseError, dim_graded, parse_polynomial
from .spaces import GradedSubspace, bpf_check
from .yukawa import random_hyperplane_over_jacobian, yukawa_chain, yukawa_nonvanishing

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=False))


def _emit_csv(columns, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


def _load_form(args, d: int, N: int, p: int, rng) -> JacobianRing:
    """The Jacobian ring of the form chosen by the form flags."""
    n = d + 2
    sources = [args.fermat, args.f is not None,
               getattr(args, "f_file", None) is not None, args.random_smooth]
    if sum(bool(s) for s in sources) != 1:
        raise CliError("choose exactly one of --fermat, --f, --f-file, "
                       "--random-smooth", EXIT_USAGE)
    if args.fermat:
        return JacobianRing(fermat(d, N, p))
    if args.random_smooth:
        return random_smooth(d, N, p, rng)
    text = args.f if args.f is not None else Path(args.f_file).read_text()
    try:
        poly = parse_polynomial(text, n, p)
    except PolynomialParseError as e:
        raise CliError(f"polynomial parse error: {e}", EXIT_USAGE)
    return JacobianRing(Hypersurface(poly, d, N))


def _add_common(sp, form_flags=False):
    sp.add_argument("--prime", type=int, default=None,
                    help="field modulus (default 65521 or $JACRING_PRIME)")
    sp.add_argument("--seed", type=int, default=0, help="PRNG seed (numpy PCG64)")
    if form_flags:
        sp.add_argument("--fermat", action="store_true",
                        help="use the Fermat form of the given degree")
        sp.add_argument("--f", type=str, default=None,
                        help="inline polynomial text")
        sp.add_argument("--f-file", type=str, default=None,
                        help="file containing polynomial text")
        sp.add_argument("--random-smooth", action="store_true",
                        help="seeded random smooth form")


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    return [int(text)]


# -- subcommands -------------------------------------------------------------


def cmd_hodge_numbers(args, p: int, rng: np.random.Generator) -> int:
    ring = _load_form(args, args.d, args.N, p, rng)
    X = ring.X
    cert = ring.smoothness_certificate()
    sigma = X.socle_degree
    out = {
        "d": X.d,
        "N": X.N,
        "sigma": sigma,
        "hilbert": ([ci_hilbert(X.n, X.N, k) for k in range(sigma + 2)]
                    if cert.smooth else None),
        "hodge": None,
        "smooth": cert.smooth,
        "prime": p,
        "seed": args.seed,
    }
    if cert.smooth:
        H = hodge_numbers_prim(X, ring)
        out["hodge"] = [[pp, q, h] for pp, q, h in H.entries]
    else:
        out["reason"] = cert.reason
    _emit_json(out)
    return EXIT_OK if cert.smooth else EXIT_MATH


def cmd_hilbert(args, p: int, rng: np.random.Generator) -> int:
    ring = _load_form(args, args.d, args.N, p, rng)
    X = ring.X
    if args.k is not None:
        ks = [args.k]
    else:
        ks = list(range(X.socle_degree + 2))
    out = {
        "d": X.d, "N": X.N, "sigma": X.socle_degree, "prime": p, "seed": args.seed,
        "hilbert": [[k, ring.hilbert(k)] for k in ks],
    }
    _emit_json(out)
    return EXIT_OK


def cmd_green_scan(args, p: int, rng: np.random.Generator) -> int:
    if args.N < 1:
        raise CliError(f"--N must be >= 1, got {args.N}", EXIT_USAGE)
    codims = _parse_range(args.codim)
    D = dim_graded(args.n, args.N)
    for c in codims:
        if not 0 <= c < D:
            raise CliError(f"--codim must be in 0..{D - 1} for dim S^N = {D}, "
                           f"got {c}", EXIT_USAGE)
    rows = []
    defective_in_bound = False
    for c in codims:
        try:
            cells = green_scan(args.n, args.N, [c], args.amax, args.smax,
                               args.trials, p, rng, style=args.style)
        except BpfSamplingError as e:
            print(f"# codim {c}: {e}", file=sys.stderr)
            continue
        for cell in cells:
            if cell.bound_holds and not cell.exact:
                defective_in_bound = True
            rows.append([cell.n, cell.N, cell.codim, cell.trial, cell.a, cell.s,
                         cell.rank_in, cell.kernel_out, cell.defect,
                         int(cell.bound_holds), int(cell.exact)])
    _emit_csv(GREEN_CSV_COLUMNS, rows)
    return EXIT_MATH if defective_in_bound else EXIT_OK


def cmd_koszul_check(args, p: int, rng: np.random.Generator) -> int:
    if args.codim < 0:
        raise CliError(f"--codim must be >= 0, got {args.codim}", EXIT_USAGE)
    ring = _load_form(args, args.d, args.N, p, rng)
    X = ring.X
    n = X.n
    if args.codim == 0:
        W = GradedSubspace.full(n, p, X.N)
    else:
        # J^N plus a random complement of the requested codimension
        J = ring.jacobian_piece(X.N)
        D = J.ambient_dim
        target = D - args.codim
        if target < J.dim:
            raise CliError("codimension too large: W must contain the "
                           "Jacobian piece", EXIT_USAGE)
        extra = rng.integers(0, p, size=(target - J.dim, D), dtype=np.int64)
        W = GradedSubspace.from_rows(np.vstack([J.basis, extra]), n, p, X.N)
        if W.dim != target:
            raise CliError("failed to sample a complement of the requested "
                           "codimension", EXIT_MATH)
    rep = jacobian_koszul_check(ring, W, args.p_index, args.s)
    _emit_json({
        "d": X.d, "N": X.N, "prime": p, "seed": args.seed,
        "p_index": args.p_index, "s": args.s, "a": rep.a,
        "codim_W": rep.codim_W,
        "green_bound_holds": rep.green_bound_holds,
        "transfer_condition": rep.transfer_condition,
        "rank_in": rep.report.rank_in,
        "kernel_out": rep.report.kernel_out,
        "defect": rep.report.defect,
        "exact": rep.report.exact,
    })
    return EXIT_OK


def _criterion_row(rep: CriterionReport) -> list:
    i = rep.input
    return [i.d, i.N, i.r, i.C, rep.gamma, rep.ineq1_slack, rep.ineq2_slack,
            int(rep.pass_), int(rep.degree_hypothesis)]


SWEEP_COLUMNS = ("d", "N", "r", "C", "gamma", "ineq1_slack", "ineq2_slack",
                 "pass", "degree_hypothesis")


def cmd_sweep(args, p: int, rng: np.random.Generator) -> int:
    if args.abelian:
        reports = abelian_sweep_table(args.d)
    elif args.genus is not None:
        if args.find_threshold:
            N_min = genus_threshold(args.d, args.genus)
            _emit_json({"d": args.d, "genus": args.genus,
                        "C": genus_moduli_dim(args.genus), "N_min": N_min})
            return EXIT_OK
        if args.N is None:
            raise CliError("--genus without --find-threshold needs --N", EXIT_USAGE)
        reports = [sweep_criterion(CriterionInput(
            args.d, args.N, 1, genus_moduli_dim(args.genus)))]
    else:
        if args.N is None or args.r is None or args.C is None:
            raise CliError("explicit mode needs --N, --r and --C", EXIT_USAGE)
        reports = [sweep_criterion(CriterionInput(args.d, args.N, args.r, args.C))]
    if args.format == "json":
        _emit_json([dict(zip(SWEEP_COLUMNS, _criterion_row(r))) for r in reports])
    else:
        _emit_csv(SWEEP_COLUMNS, [_criterion_row(r) for r in reports])
    return EXIT_OK


def cmd_yukawa_chain(args, p: int, rng: np.random.Generator) -> int:
    d_min = 1 if args.k_equals_jacobian else 2
    if args.d < d_min:
        raise CliError(f"--d must be >= {d_min}, got {args.d}", EXIT_USAGE)
    if args.d > 2 and not args.allow_large:
        raise CliError(f"d={args.d} needs --allow-large (matrix sizes grow "
                       "quickly)", EXIT_USAGE)
    ring = random_smooth(args.d, args.d + 2, p, rng)
    X = ring.X
    if args.k_equals_jacobian:
        K = ring.jacobian_piece(X.N)
        nonzero = yukawa_nonvanishing(ring, K)
        _emit_json({"d": args.d, "prime": p, "seed": args.seed,
                    "k": "jacobian", "socle_image_nonzero": nonzero})
        # the degenerate input is expected to vanish; flag it via exit code
        return EXIT_MATH if nonzero else EXIT_OK
    K = random_hyperplane_over_jacobian(ring, rng)
    rep = yukawa_chain(ring, K)
    _emit_json({
        "d": args.d, "N": X.N, "prime": p, "seed": args.seed,
        "steps": [s.as_dict() for s in rep.steps],
        "all_ok": rep.all_ok,
    })
    return EXIT_OK if rep.all_ok else EXIT_MATH


def cmd_bpf_check(args, p: int, rng: np.random.Generator) -> int:
    if args.N < 1:
        raise CliError(f"--N must be >= 1, got {args.N}", EXIT_USAGE)
    if args.codim == 0:
        W = GradedSubspace.full(args.n, p, args.N)
    else:
        try:
            W = sample_bpf_subsystem(args.n, args.N, args.codim, p, rng,
                                     style=args.style)
        except BpfSamplingError as e:
            _emit_json({"n": args.n, "N": args.N, "codim": args.codim,
                        "prime": p, "seed": args.seed, "verified": False,
                        "error": str(e)})
            return EXIT_MATH
    res = bpf_check(W, args.mmax)
    _emit_json({"n": args.n, "N": args.N, "codim": args.codim, "prime": p,
                "seed": args.seed, "verified": res.verified, "degree": res.degree})
    return EXIT_OK if res.verified else EXIT_MATH


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jacring",
        description="Exact Jacobian-ring, Koszul-exactness and sweeping-"
                    "criterion computations over GF(p).",
    )
    ap.add_argument("--version", action="version", version=f"jacring {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("hodge-numbers", help="primitive Hodge numbers of a "
                        "smooth degree-N hypersurface")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    _add_common(sp, form_flags=True)

    sp = sub.add_parser("hilbert", help="Hilbert function of the Jacobian ring")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--k", type=int, default=None,
                    help="single degree (default: 0..sigma+1)")
    _add_common(sp, form_flags=True)

    sp = sub.add_parser("green-scan", help="middle-exactness scan over an "
                        "(a, s) grid of base-point-free subsystems")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--codim", type=str, default="0..2",
                    help="codimension or range, e.g. 2 or 0..2")
    sp.add_argument("--amax", type=int, default=6)
    sp.add_argument("--smax", type=int, default=2)
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--style", choices=["auto", "dense", "monomial"],
                    default="auto")
    _add_common(sp)

    sp = sub.add_parser("koszul-check", help="Jacobian-ring Koszul slice check")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--p-index", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--codim", type=int, default=0,
                    help="codimension of W (0 = full system)")
    _add_common(sp, form_flags=True)

    sp = sub.add_parser("sweep", help="integer sweeping-out criteria")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--C", type=int, default=None)
    sp.add_argument("--abelian", action="store_true",
                    help="Calabi-Yau degree against abelian families, r = 1..d")
    sp.add_argument("--genus", type=int, default=None,
                    help="curves of this genus (r = 1)")
    sp.add_argument("--find-threshold", action="store_true",
                    help="scan for the minimal passing degree")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(sp)

    sp = sub.add_parser("yukawa-chain", help="hyperplane chain for Calabi-Yau "
                        "degree N = d+2")
    sp.add_argument("--d", type=int, default=2,
                    help="fiber dimension, d >= 2 for the chain and d >= 1 with "
                         "--k-equals-jacobian (N = d+2)")
    sp.add_argument("--k-equals-jacobian", action="store_true",
                    help="use the degenerate K = J^(d+2) (socle image vanishes)")
    sp.add_argument("--allow-large", action="store_true")
    _add_common(sp)

    sp = sub.add_parser("bpf-check", help="certify base-point-freeness of a "
                        "sampled subsystem")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--codim", type=int, default=0)
    sp.add_argument("--mmax", type=int, default=None)
    sp.add_argument("--style", choices=["dense", "monomial"], default="dense")
    _add_common(sp)

    return ap


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  The parser is built on
    the first call and kept for the process; the handler `cmd_<command>` is
    looked up by name at each call, so a handler rebound on this module
    after the first call is the one that runs."""
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        cell_budget()  # reject a malformed JACRING_CELL_BUDGET before any work
        p = validate_prime(_env_int("JACRING_PRIME", DEFAULT_PRIME)
                           if args.prime is None else args.prime)
        if args.seed < 0:  # numpy's own refusal would not name the flag
            raise CliError(f"--seed must be >= 0, got {args.seed}", EXIT_USAGE)
        return handler(args, p, np.random.default_rng(args.seed))
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except SizeBudgetError as e:
        print(f"size budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (NotSmoothError, BpfSamplingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MATH
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
