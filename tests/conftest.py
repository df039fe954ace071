"""Shared helpers for the test suite."""

import io
from contextlib import redirect_stdout

import numpy as np

from jacring.cli import main

P = 65521
P2 = 32003
P_MAX = 94906249  # largest prime with p^2 < 2^53


def run_cli(argv):
    """Run the CLI in-process; returns (exit_code, stdout_text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def random_subspace(n, p, degree, dim, rng):
    from jacring.polynomials import dim_graded
    from jacring.spaces import GradedSubspace

    D = dim_graded(n, degree)
    while True:
        rows = rng.integers(0, p, size=(dim, D), dtype=np.int64)
        W = GradedSubspace.from_rows(rows, n, p, degree)
        if W.dim == dim:
            return W
