import json
import math
from pathlib import Path

import pytest

from conftest import P, P2, run_cli
from jacring import cli


def test_hodge_numbers_quintic():
    code, out = run_cli(["hodge-numbers", "--d", "3", "--N", "5", "--fermat"])
    assert code == 0
    rep = json.loads(out)
    assert rep["sigma"] == 15 and rep["smooth"]
    assert rep["hodge"] == [[3, 0, 1], [2, 1, 101], [1, 2, 101], [0, 3, 1]]
    assert rep["hilbert"][5] == 101 and rep["hilbert"][15] == 1


def test_hodge_numbers_cubic_surface():
    code, out = run_cli(["hodge-numbers", "--d", "2", "--N", "3", "--fermat"])
    assert code == 0
    assert json.loads(out)["hodge"] == [[2, 0, 0], [1, 1, 6], [0, 2, 0]]


def test_hodge_numbers_nonsmooth_exit_code():
    code, out = run_cli(["hodge-numbers", "--d", "1", "--N", "3",
                         "--f", "x0^3"])
    assert code == 1
    rep = json.loads(out)
    assert not rep["smooth"] and rep["reason"]


def test_parse_error_exit_code():
    code, _ = run_cli(["hodge-numbers", "--d", "1", "--N", "3",
                       "--f", "x0^^3"])
    assert code == 2


def test_form_flags_are_exclusive():
    code, _ = run_cli(["hodge-numbers", "--d", "1", "--N", "3",
                       "--fermat", "--f", "x0^3"])
    assert code == 2
    code, _ = run_cli(["hodge-numbers", "--d", "1", "--N", "3"])
    assert code == 2


def test_budget_exit_code(monkeypatch):
    monkeypatch.setenv("JACRING_CELL_BUDGET", "100")
    code, _ = run_cli(["hodge-numbers", "--d", "3", "--N", "5",
                       "--random-smooth"])
    assert code == 3


def test_hilbert_single_degree():
    code, out = run_cli(["hilbert", "--d", "3", "--N", "5", "--fermat",
                         "--k", "5"])
    assert code == 0
    assert json.loads(out)["hilbert"] == [[5, 101]]


def test_sweep_abelian():
    code, out = run_cli(["sweep", "--d", "3", "--abelian"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,N,r,C,gamma,ineq1_slack,ineq2_slack,pass")
    passes = [row.split(",")[7] for row in lines[1:]]
    assert passes == ["0", "1", "1"]


def test_sweep_explicit_and_json():
    code, out = run_cli(["sweep", "--d", "3", "--N", "5", "--r", "1",
                         "--C", "1", "--format", "json"])
    assert code == 0
    (row,) = json.loads(out)
    assert row["ineq1_slack"] == -3 and row["pass"] == 0
    code, _ = run_cli(["sweep", "--d", "2", "--N", "5", "--r", "3", "--C", "1"])
    assert code == 2  # r > d


def test_sweep_genus_threshold():
    code, out = run_cli(["sweep", "--d", "3", "--genus", "2",
                         "--find-threshold"])
    assert code == 0
    assert json.loads(out)["N_min"] == 10
    # the threshold is solved, not scanned, so no degree is out of reach
    code, out = run_cli(["sweep", "--d", "10000", "--genus", "5000",
                         "--find-threshold"])
    assert code == 0
    assert json.loads(out)["N_min"] == 34998


def test_green_scan_small():
    code, out = run_cli(["green-scan", "--n", "2", "--N", "3",
                         "--codim", "0..2", "--amax", "3", "--seed", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,N,codim,trial,a,s,rank_in,kernel_out,defect,bound_holds,exact"
    for row in lines[1:]:
        vals = dict(zip(lines[0].split(","), row.split(",")))
        if vals["bound_holds"] == "1":
            assert vals["exact"] == "1"


def test_koszul_check():
    code, out = run_cli(["koszul-check", "--d", "3", "--N", "5", "--fermat",
                         "--p-index", "2", "--s", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["a"] == 5 and rep["exact"]
    assert rep["green_bound_holds"] and rep["transfer_condition"]


def test_yukawa_chain():
    code, out = run_cli(["yukawa-chain", "--d", "2", "--seed", "7"])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_ok"] and len(rep["steps"]) == 6


def test_yukawa_chain_degenerate_k():
    code, out = run_cli(["yukawa-chain", "--d", "2", "--k-equals-jacobian"])
    assert code == 0  # vanishing is the expected outcome here
    assert json.loads(out)["socle_image_nonzero"] is False


def test_yukawa_large_d_needs_flag():
    code, _ = run_cli(["yukawa-chain", "--d", "5"])
    assert code == 2


def test_bpf_check():
    code, out = run_cli(["bpf-check", "--n", "3", "--N", "3"])
    assert code == 0
    assert json.loads(out)["degree"] == 3
    code, out = run_cli(["bpf-check", "--n", "3", "--N", "3", "--codim", "2",
                         "--seed", "1"])
    assert code == 0
    assert json.loads(out)["verified"]


def test_prime_flag_and_env(monkeypatch):
    code, out = run_cli(["hodge-numbers", "--d", "2", "--N", "3", "--fermat",
                         "--prime", str(P2)])
    assert code == 0 and json.loads(out)["prime"] == P2
    monkeypatch.setenv("JACRING_PRIME", str(P2))
    code, out = run_cli(["hodge-numbers", "--d", "2", "--N", "3", "--fermat"])
    assert code == 0 and json.loads(out)["prime"] == P2
    code, _ = run_cli(["hodge-numbers", "--d", "2", "--N", "3", "--fermat",
                       "--prime", "10"])
    assert code == 2


@pytest.mark.parametrize("env, argv, code", [
    ({}, ["hilbert", "--d", "2", "--N", "3", "--f-file", "/nonexistent/form.txt"], 2),
    ({}, ["hodge-numbers", "--fermat", "--prime", "2", "--d", "2", "--N", "4"], 2),
    ({}, ["hilbert", "--d", "-1", "--N", "3", "--fermat"], 2),
    ({}, ["green-scan", "--n", "2", "--N", "2", "--codim", "x"], 2),
    ({}, ["sweep", "--d", "3", "--genus", "0", "--find-threshold"], 2),
    ({}, ["koszul-check", "--d", "1", "--N", "3", "--fermat", "--p-index", "1",
          "--s", "-1"], 2),
    ({}, ["bpf-check", "--n", "2", "--N", "2", "--codim", "9"], 2),
    ({}, ["yukawa-chain", "--d", "0"], 2),
    ({"JACRING_CELL_BUDGET": "abc"}, ["sweep", "--d", "3", "--abelian"], 2),
    # a well-formed but singular form is a mathematical failure, not usage
    ({}, ["koszul-check", "--d", "1", "--N", "3", "--f", "x0^3", "--p-index", "1",
          "--s", "0"], 1),
    ({}, ["hodge-numbers", "--d", "1", "--N", "1", "--random-smooth"], 2),
    ({}, ["sweep", "--d", "-2", "--abelian"], 2),
    ({}, ["green-scan", "--n", "2", "--N", "2", "--codim", "2..0"], 2),
    ({}, ["green-scan", "--n", "2", "--N", "2", "--trials", "-1"], 2),
    ({}, ["green-scan", "--n", "2", "--N", "2", "--amax", "-1"], 2),
    ({}, ["yukawa-chain", "--d", "1"], 2),
    ({}, ["koszul-check", "--d", "1", "--N", "3", "--fermat", "--p-index", "1",
          "--s", "0", "--codim", "-1"], 2),
    ({}, ["sweep", "--d", "2", "--abelian", "--prime", "4"], 2),
    ({"JACRING_PRIME": "abc"}, ["sweep", "--d", "2", "--abelian"], 2),
])
def test_rejected_input_exit_code(monkeypatch, capsys, env, argv, code):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run_cli(argv) == (code, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["yukawa-chain", "--d", "0"],
    ["yukawa-chain", "--d", "-1"],
    ["yukawa-chain", "--d", "0", "--k-equals-jacobian"],
])
def test_yukawa_chain_names_rejected_d(capsys, argv):
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--d" in err, err


@pytest.mark.parametrize("argv", [
    ["green-scan", "--n", "2", "--N", "0"],
    ["bpf-check", "--n", "2", "--N", "0"],
    ["green-scan", "--n", "2", "--N", "-3"],
    ["bpf-check", "--n", "2", "--N", "-3"],
])
def test_rejected_N_is_named(capsys, argv):
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--N" in err, err


@pytest.mark.parametrize("name", ["JACRING_PRIME", "JACRING_CELL_BUDGET"])
def test_malformed_setting_is_named(monkeypatch, capsys, name):
    monkeypatch.setenv(name, "abc")
    for argv in (["hilbert", "--d", "1", "--N", "3", "--fermat"],
                 ["sweep", "--d", "2", "--abelian"]):
        assert run_cli(argv) == (2, ""), argv
        assert capsys.readouterr().err == f"error: {name} must be an integer, got 'abc'\n"


@pytest.mark.parametrize("form", [
    ["--fermat"],                           # monomial path
    ["--f", "x0^3+x1^3+x2^3+x0*x1*x2"],     # elimination path
])
def test_budget_binds_both_ring_paths(monkeypatch, capsys, form):
    monkeypatch.setenv("JACRING_CELL_BUDGET", "1000")
    assert run_cli(["hilbert", "--d", "1", "--N", "3", "--k", "40"] + form) == (3, "")
    assert capsys.readouterr().err.startswith("size budget exceeded: ")


def test_singular_monomial_path_keeps_no_zero_tail():
    # x0^3 is singular, so R^60 is large: 77531 complement monomials against
    # 557845 pivots, whose zero tail rows the ring must not allocate
    code, out = run_cli(["hilbert", "--d", "3", "--N", "3", "--f", "x0^3", "--k", "60"])
    assert code == 0
    assert json.loads(out)["hilbert"] == [[60, math.comb(63, 3) + math.comb(62, 3)]]


@pytest.mark.parametrize("argv", [
    ["green-scan", "--n", "2", "--N", "1"],  # default --codim 0..2, dim S^1 = 2
    ["green-scan", "--n", "2", "--N", "2", "--codim", "0..3"],
    ["green-scan", "--n", "2", "--N", "2", "--codim", "-1"],
])
def test_out_of_range_codim_is_named(capsys, argv):
    # every codimension is checked before the first one is scanned
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--codim" in err, err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


# each case: a first call with `flag`, and a second call without it, whose
# output the flag would change if it leaked through the reused parser
REUSE_CASES = [
    (["yukawa-chain", "--d", "1"], ["--k-equals-jacobian"], ["yukawa-chain", "--d", "2"]),
    (["hodge-numbers", "--d", "1", "--N", "3"], ["--fermat"],
     ["hodge-numbers", "--d", "1", "--N", "3", "--random-smooth"]),
    (["hilbert", "--d", "1", "--N", "3", "--fermat"], ["--prime", "32003"],
     ["hilbert", "--d", "1", "--N", "3", "--fermat"]),
]


@pytest.mark.parametrize("first, flag, second", REUSE_CASES)
def test_reused_parser_keeps_calls_apart(monkeypatch, first, flag, second):
    monkeypatch.delenv("JACRING_PRIME", raising=False)
    first = first + flag
    alone = []
    for argv in (first, second, second + flag):
        cli.build_parser.cache_clear()
        alone.append(run_cli(argv))
    assert alone[2] != alone[1]
    cli.build_parser.cache_clear()
    assert [run_cli(first), run_cli(second)] == alone[:2]
    assert cli.build_parser.cache_info().misses == 1  # one parser for both calls


def test_handler_rebound_after_first_call_runs(monkeypatch):
    monkeypatch.delenv("JACRING_PRIME", raising=False)
    argv = ["hodge-numbers", "--d", "1", "--N", "3", "--fermat"]
    code, out = run_cli(argv)
    assert code == 0 and out
    seen = []
    monkeypatch.setattr(cli, "cmd_hodge_numbers",
                        lambda args, p, rng: seen.append((args.d, args.N, p)) or 0)
    assert run_cli(argv) == (0, "")
    assert seen == [(1, 3, P)]


def test_call_after_usage_error_succeeds():
    with pytest.raises(SystemExit) as exc:
        run_cli(["hodge-numbers", "--d", "1", "--fermat"])  # --N is required
    assert exc.value.code == 2
    code, out = run_cli(["hodge-numbers", "--d", "1", "--N", "3", "--fermat"])
    assert code == 0 and json.loads(out)["smooth"]


def test_determinism_byte_identical():
    for argv in (
        ["hodge-numbers", "--d", "2", "--N", "4", "--random-smooth", "--seed", "3"],
        ["green-scan", "--n", "2", "--N", "3", "--codim", "0..2",
         "--amax", "3", "--seed", "5"],
        ["yukawa-chain", "--d", "2", "--seed", "7"],
        ["sweep", "--d", "4", "--abelian"],
    ):
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        assert (code1, out1) == (code2, out2)
        assert out1


def test_acceptance8_outputs_match_goldens():
    # stdout and exit code of the acceptance-8 commands at 65521 and 32003;
    # a change that alters any of them re-records the file on purpose
    goldens = json.loads((Path(__file__).parent / "goldens" / "acceptance8-cli.json")
                         .read_text())
    assert len(goldens) == 10
    for rec in goldens:
        assert run_cli(rec["argv"]) == (rec["exit_code"], rec["stdout"]), rec["argv"]


def test_ring_paths_outputs_match_goldens():
    # Koszul checks over both ring paths, a monomial-path Hilbert function
    # and the degenerate Yukawa socle image, at 65521 and 32003
    goldens = json.loads((Path(__file__).parent / "goldens" / "ring-paths-cli.json")
                         .read_text())
    assert len(goldens) == 12
    for rec in goldens:
        assert run_cli(rec["argv"]) == (rec["exit_code"], rec["stdout"]), rec["argv"]


SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


@pytest.mark.parametrize("schema, argv, code", [
    ("hodge-numbers", ["hodge-numbers", "--d", "2", "--N", "3", "--fermat"], 0),
    ("hodge-numbers", ["hodge-numbers", "--d", "1", "--N", "3", "--f", "x0^3"], 1),
    ("hilbert", ["hilbert", "--d", "1", "--N", "3", "--fermat"], 0),
    ("koszul-check", ["koszul-check", "--d", "1", "--N", "3", "--fermat",
                      "--p-index", "1", "--s", "0", "--codim", "1"], 0),
    ("sweep", ["sweep", "--d", "3", "--abelian", "--format", "json"], 0),
    ("sweep-threshold", ["sweep", "--d", "3", "--genus", "2", "--find-threshold"], 0),
    ("yukawa-chain", ["yukawa-chain", "--d", "2", "--seed", "7"], 0),
    ("yukawa-chain", ["yukawa-chain", "--d", "2", "--k-equals-jacobian"], 0),
    ("bpf-check", ["bpf-check", "--n", "3", "--N", "3", "--codim", "2", "--seed", "1"], 0),
    ("bpf-check", ["bpf-check", "--n", "2", "--N", "2", "--codim", "1", "--mmax", "2"], 1),
    ("bpf-check", ["bpf-check", "--n", "2", "--N", "2", "--codim", "2",
                   "--style", "monomial"], 1),
])
def test_report_matches_schema(schema, argv, code):
    jsonschema = pytest.importorskip("jsonschema")
    spec = json.loads((SCHEMA_DIR / f"{schema}.v1.json").read_text())
    got, out = run_cli(argv)
    assert got == code, argv
    jsonschema.Draft202012Validator(spec).validate(json.loads(out))
