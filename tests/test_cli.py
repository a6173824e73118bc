"""CLI surface: subcommands, report formats, exit codes, determinism."""

import csv
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lucaslp.lp
import lucaslp.sequences
from lucaslp import cli
from lucaslp.cli import CsvUnrepresentableError, Report, format_report, run_cli
from lucaslp.lp import (
    AS_PROVED,
    AS_STATED,
    THEOREM3_DEFAULT_RECS,
    AffineIndexMap,
    crossval_theorem1,
    crossval_theorem2,
    crossval_theorem3,
    theorem1_condition,
    theorem2_condition,
    theorem3_condition,
)
from lucaslp.modmath import is_prime
from lucaslp.sequences import LinearRecurrence
from lucaslp.special import apery, apery_mod


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# lp-check


def test_lp_check_counterexample_exit_1(capsys):
    code, report = run_json(
        capsys, "lp-check", "fib-affine", "--a", "1", "--b", "1", "--prime", "2"
    )
    assert code == 1
    (row,) = report["verdicts"]
    assert row["holds"] is False
    assert row["counterexample"] == {"n": 2, "lhs": 0, "digits": [0, 1], "rhs": 1}
    assert report["inputs"]["prime"] == 2


def test_lp_check_holds_exit_0(capsys):
    code, report = run_json(
        capsys, "lp-check", "fib-affine", "--a", "5", "--b", "1", "--prime", "5"
    )
    assert code == 0
    assert report["verdicts"][0]["holds"] is True
    assert "counterexample" not in report["verdicts"][0]


def test_lp_check_power_and_table(capsys):
    code, report = run_json(capsys, "lp-check", "power", "--base", "3", "--prime", "7")
    assert code == 0
    values = ",".join(str(3**n) for n in range(9))
    code, report = run_json(
        capsys, "lp-check", "table", "--values", values, "--prime", "3", "--digits", "2"
    )
    assert code == 0


def test_lp_check_special_sequences(capsys):
    code, report = run_json(capsys, "lp-check", "apery", "--prime", "3", "--digits", "2")
    assert code == 0
    code, report = run_json(capsys, "lp-check", "omega", "--prime", "2", "--digits", "3")
    assert code == 0


def test_lp_check_usage_errors(capsys):
    code, out, err = run(capsys, "lp-check", "fib-affine", "--prime", "2")
    assert code == 2 and "--a" in err
    code, out, err = run(capsys, "lp-check", "fib-affine", "--a", "1", "--b", "1", "--prime", "9")
    assert code == 2 and "not a prime" in err
    code, out, err = run(capsys, "lp-check", "power", "--prime", "3")
    assert code == 2 and "--base" in err
    code, out, err = run(capsys, "lp-check", "table", "--values", "1,1", "--prime", "3")
    assert code == 2 and "table" in err
    code, out, err = run(
        capsys, "lp-check", "fib-affine", "--a", "1", "--b", "1", "--prime", "2",
        "--rec", "0,1,1,1",
    )
    assert code == 2 and "general-affine" in err


def test_lp_check_table_usage_errors(capsys):
    code, out, err = run(capsys, "lp-check", "table", "--prime", "5", "--values", "1,x")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --values: expected comma-separated integers, got '1,x'\n")
    assert run(capsys, "lp-check", "table", "--prime", "5") == (
        2, "", "error: variant table needs --values v0,v1,...\n"
    )


@pytest.mark.parametrize("argv, terms", [
    (("apery", "--prime", "101", "--digits", "3"), "101^3"),
    (("apery", "--prime", "1000003", "--digits", "2"), "1000003^2"),
    (("omega", "--prime", "61", "--digits", "3"), "61^3"),
    (("omega", "--prime", "1009", "--digits", "2"), "1009^2"),
    # 5^10000 has more digits than str() spells by default
    (("table", "--values", "1", "--prime", "5", "--digits", "10000"), "5^10000"),
])
def test_lp_check_stream_past_its_term_budget_exits_2(capsys, argv, terms):
    # the apery and omega scans ran past 10 s before the budget; now each is one line
    start = time.perf_counter()
    assert run(capsys, "lp-check", *argv) == (
        2, "", f"error: {terms} terms exceed the stream scan budget of 131072\n"
    )
    assert time.perf_counter() - start < 1


def test_negative_first_rec_entry_needs_an_equals_sign(capsys):
    # argparse reads "-1,2,1,1" after a space as an option, not as --rec's value
    code, report = run_json(capsys, "period", "--prime", "7", "--rec=-1,2,1,1")
    assert code == 0 and report["inputs"]["rec"] == "-1,2,1,1"
    code, out, err = run(capsys, "period", "--prime", "7", "--rec", "-1,2,1,1")
    assert (code, out) == (2, "") and "expected one argument" in err


# ---------------------------------------------------------------------------
# theorem


def test_theorem_1_exit_codes(capsys):
    code, report = run_json(
        capsys, "theorem", "--which", "1", "--a", "5", "--b", "1", "--prime", "5"
    )
    assert code == 0
    assert report["verdicts"][0]["condition"] is True
    assert report["verdicts"][0]["fib_a_mod_p"] == 0
    code, report = run_json(
        capsys, "theorem", "--which", "1", "--a", "4", "--b", "1", "--prime", "5"
    )
    assert code == 1


def test_theorem_2_reading_flag(capsys):
    code, report = run_json(
        capsys, "theorem", "--which", "2", "--a", "4", "--b", "7", "--prime", "3",
        "--reading", "as-stated",
    )
    assert code == 0
    assert report["verdicts"][0]["seed_term_mod_p"] == 1
    code, report = run_json(
        capsys, "theorem", "--which", "2", "--a", "4", "--b", "7", "--prime", "3"
    )
    assert code == 1
    assert report["verdicts"][0]["reading"] == "as-proved"


def test_theorem_3_needs_rec(capsys):
    code, report = run_json(
        capsys, "theorem", "--which", "3", "--a", "5", "--b", "1", "--prime", "5",
        "--rec", "0,1,1,1",
    )
    assert code == 0
    assert report["verdicts"][0]["rec"] == "0,1,1,1"
    code, out, err = run(
        capsys, "theorem", "--which", "3", "--a", "5", "--b", "1", "--prime", "5"
    )
    assert code == 2


def test_theorem_flag_scoping(capsys):
    code, out, err = run(
        capsys, "theorem", "--which", "1", "--a", "1", "--b", "1", "--prime", "2",
        "--reading", "as-proved",
    )
    assert code == 2 and "--reading" in err
    code, out, err = run(
        capsys, "theorem", "--which", "2", "--a", "1", "--b", "1", "--prime", "2",
        "--rec", "0,1,1,1",
    )
    assert code == 2 and "--rec" in err


def test_theorem_3_huge_strides_are_fast(capsys):
    for a, p in (("100000", "7"), ("18446744073709551615", "10007")):
        start = time.perf_counter()
        code, report = run_json(
            capsys, "theorem", "--which", "3", "--rec", "1,2,3,5", "--a", a, "--b", "1",
            "--prime", p,
        )
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert report["verdicts"][0]["term_b_mod_p"] == 2


def test_theorem_command_matches_library_and_sweep(capsys):
    """On seeded cells of every criterion, `theorem`'s condition and exit
    code equal theorem{1,2,3}_condition and the crossval cell's predicted."""
    extra = [LinearRecurrence.from_string(t) for t in ("1,-6,-5,0", "5,0,2,0", "1,1,0,0")]
    configs = [(1, None, None), (2, AS_PROVED, None), (2, AS_STATED, None)]
    configs += [(3, None, rec) for rec in (*THEOREM3_DEFAULT_RECS, *extra)]  # p | v in extra

    def condition(theorem, reading, rec, p, a, b):
        if theorem == 1:
            return theorem1_condition(AffineIndexMap(a, b), p)
        if theorem == 2:
            return theorem2_condition(AffineIndexMap(a, b), p, reading)
        return theorem3_condition(rec, AffineIndexMap(a, b), p)

    def sweep(theorem, reading, rec, p, a_values, b_values):
        if theorem == 1:
            return crossval_theorem1([p], a_values, b_values).cells
        if theorem == 2:
            return crossval_theorem2([p], a_values, b_values, reading).cells
        return crossval_theorem3([rec], [p], a_values, b_values).cells

    rng = random.Random(24)
    primes = [p for p in range(2, 32) if is_prime(p)]
    cells = []
    for config in configs:
        for p in rng.sample(primes, 4):
            # up to three holding and three failing cells of a <= 40, b <= 40,
            # as few cells of a random grid hold
            grid = sweep(*config, p, range(1, 41), range(41))
            for want in (True, False):
                picked = [c for c in grid if c.predicted is want]
                cells += [(config, p, c.a, c.b) for c in rng.sample(picked, min(3, len(picked)))]
    # the stride-10^30 golden points
    big = (1000000000039, 10**30 + 7, 10**30)
    cells += [((1, None, None), *big), ((2, AS_PROVED, None), *big),
              ((2, AS_STATED, None), *big),
              ((3, None, LinearRecurrence.from_string("1,2,3,5")), *big)]
    seen = set()
    for config, p, a, b in cells:
        theorem, reading, rec = config
        argv = ["theorem", "--which", str(theorem), "--a", str(a), "--b", str(b),
                "--prime", str(p)]
        argv += ["--reading", reading] if reading else []
        argv += ["--rec", rec.as_string()] if rec else []
        code, report = run_json(capsys, *argv)
        verdict = report["verdicts"][0]["condition"]
        (cell,) = sweep(*config, p, [a], [b])
        assert verdict is condition(*config, p, a, b) is cell.predicted, argv
        assert code == (0 if verdict else 1), argv
        seen.add((theorem, verdict))
    assert seen == {(t, v) for t in (1, 2, 3) for v in (True, False)}


def test_prime_beyond_proven_bound_exits_2(capsys):
    # a composite that the witnesses 2..37 alone would call prime
    code, out, err = run(
        capsys, "theorem", "--which", "1", "--a", "1", "--b", "1",
        "--prime", "318665857834031151167461",
    )
    assert code == 2 and out == "" and "not a prime" in err
    code, out, err = run(
        capsys, "alpha", "--prime", "3317044064679887385961981",
    )
    assert code == 2 and out == "" and "only decided below" in err


# ---------------------------------------------------------------------------
# enumerate-b


def test_enumerate_b_golden(capsys):
    code, report = run_json(capsys, "enumerate-b", "--a", "5", "--prime", "5")
    assert code == 0
    agreement = report["agreement"]
    assert agreement["valid_b"] == [1, 2, 8, 19]
    assert agreement["predicted_b"] == [1, 2, 8, 19]
    assert agreement["identically_zero_b"] == [0, 5, 10, 15]
    assert agreement["modulus"] == 20
    assert agreement["matches_prediction"] is True
    assert len(report["verdicts"]) == 20


def test_enumerate_b_lucas(capsys):
    code, report = run_json(
        capsys, "enumerate-b", "--family", "lucas", "--a", "1", "--prime", "5"
    )
    assert code == 0
    assert report["agreement"]["valid_b"] == [1]
    assert report["agreement"]["modulus"] == 4


def test_enumerate_b_general(capsys):
    code, report = run_json(
        capsys, "enumerate-b", "--family", "general", "--rec", "0,1,2,1",
        "--a", "1", "--prime", "3",
    )
    assert code == 0
    code, out, err = run(capsys, "enumerate-b", "--family", "general", "--a", "1", "--prime", "3")
    assert code == 2


def test_enumerate_b_exits_2_past_its_offset_budget(capsys, monkeypatch):
    # F mod 7 has 16 offsets; the budget is checked before any offset is swept
    monkeypatch.setattr(lucaslp.lp, "_CELL_BUDGET", 10)
    assert run(capsys, "enumerate-b", "--a", "1", "--prime", "7") == (
        2, "", "error: 16 cells exceed the sweep budget of 10\n"
    )


def test_crossval_exits_2_past_its_sweep_budget(capsys):
    # 100 strides x 101 offsets x 5 recurrences per prime, refused unswept: the
    # primes are read only until the grid passes the budget, at the sixth
    argv = ("crossval", "--theorem", "3", "--prime-bound", "100", "--a-max", "100", "--b-max", "100")
    assert run(capsys, *argv) == (
        2, "", "error: at least 303000 cells exceed the sweep budget of 262144\n")
    # so a bound whose primes would take hours to list is refused at once
    start = time.perf_counter()
    argv = ("crossval", "--theorem", "1", "--prime-bound", str(10**12), "--a-max", "40",
            "--b-max", "40")
    assert run(capsys, *argv) == (
        2, "", "error: at least 262400 cells exceed the sweep budget of 262144\n")
    assert time.perf_counter() - start < 2.0


def test_enumerate_b_plain_has_prediction_column(capsys):
    code, out, err = run(
        capsys, "enumerate-b", "--a", "5", "--prime", "5", "--format", "plain"
    )
    assert code == 0
    header = out.splitlines()[2]
    assert "predicted" in header and "oracle_holds" in header


@pytest.mark.parametrize("argv", [
    ("crossval", "--theorem", "1", "--prime-bound", "7", "--a-max", "2", "--b-max", "2"),
    ("crossval", "--theorem", "3", "--prime-bound", "7", "--a-max", "2", "--b-max", "2"),
    ("enumerate-b", "--a", "1", "--prime", "7"),
])
def test_sweeps_refuse_one_digit(capsys, argv):
    # single-digit n satisfy the congruence identically: a one-digit sweep
    # would call every cell a pass
    assert run(capsys, *argv, "--digits", "1") == (
        2, "", "error: digit_bound must be >= 2, got 1\n"
    )


# ---------------------------------------------------------------------------
# alpha / period / identity / special


def test_alpha_subcommand(capsys):
    code, report = run_json(capsys, "alpha", "--prime", "7")
    assert code == 0
    assert report["verdicts"][0]["alpha"] == 8


def test_period_subcommand(capsys):
    code, report = run_json(capsys, "period", "--prime", "5")
    assert code == 0
    assert report["verdicts"][0] == {
        "rec": "0,1,1,1", "prime": 5, "preperiod": 0, "period": 20,
    }
    code, report = run_json(capsys, "period", "--prime", "5", "--rec", "1,1,1,0")
    assert report["verdicts"][0]["period"] == 1


def test_alpha_and_period_at_a_large_prime(capsys):
    # p - 1 is 2 times two 40-bit primes; a walk would take about p steps
    code, report = run_json(capsys, "alpha", "--prime", "1228559431195504946317379")
    assert code == 0
    assert report["verdicts"][0]["alpha"] == 1228559431195504946317378
    code, report = run_json(
        capsys, "period", "--rec", "5,3,2,4", "--prime", "1228559431195504946317379"
    )
    assert code == 0
    assert report["verdicts"][0]["preperiod"] == 0


def test_factoring_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(lucaslp.sequences, "_FACTOR_STEPS", 64)
    for argv in (("alpha",), ("period", "--rec", "5,3,2,4")):
        code, out, err = run(capsys, *argv, "--prime", "1228559431195504946317379")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot factor p - 1 and p + 1")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    for callee, argv in (
        ("enumerate_valid_b", ("enumerate-b", "--a", "1", "--prime", "5")),
        ("_iter_primes", ("crossval", "--theorem", "1")),
    ):
        monkeypatch.setattr(cli, callee, exhausted)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {argv[0]}: out of memory\n")


def test_identity_subcommand(capsys):
    code, report = run_json(capsys, "identity", "--which", "catalan", "--n-max", "60")
    assert code == 0
    row = report["verdicts"][0]
    assert row["nonzero"] == 0
    assert row["cells"] == 61 * 62 // 2
    code, report = run_json(
        capsys, "identity", "--which", "shift", "--n-max", "25", "--rec", "2,1,3,2"
    )
    assert code == 0
    assert report["verdicts"][0]["rec"] == "2,1,3,2"


def test_identity_reports_nonzero_residuals(capsys, monkeypatch):
    # no true identity is nonzero, so a patched residual drives the nonzero path
    wrong = {(2, 1): -7, (3, 0): 3, (3, 2): 5}
    monkeypatch.setattr(cli, "catalan_residual", lambda n, r: wrong.get((n, r), 0))
    code, report = run_json(capsys, "identity", "--which", "catalan", "--n-max", "3")
    assert code == 1
    assert report["verdicts"] == [{
        "identity": "catalan", "n_max": 3, "cells": 10,
        "nonzero": 3, "max_abs_residual": 7, "first_nonzero": "n=2,r=1",
    }]
    pell = LinearRecurrence(0, 1, 2, 1)
    monkeypatch.setattr(cli, "general_catalan_residual",
                        lambda rec, n, r: -4 if rec == pell and (n, r) == (4, 2) else 0)
    code, report = run_json(
        capsys, "identity", "--which", "general", "--n-max", "4", "--rec", "0,1,1,1",
        "--rec", "0,1,2,1",
    )
    assert code == 1
    stats = [(r["rec"], r["nonzero"], r["max_abs_residual"], r["first_nonzero"])
             for r in report["verdicts"]]
    assert stats == [("0,1,1,1", 0, 0, None), ("0,1,2,1", 1, 4, "n=4,r=2")]


def test_identity_rejects_a_negative_n_max(capsys):
    assert run(capsys, "identity", "--which", "general", "--n-max", "-1") == (
        2, "", "error: --n-max must be >= 0, got -1\n"
    )


def test_identity_sweep_builds_no_cell_list(capsys):
    # a list of (label, args) for every cell, built before any residual,
    # peaked at 8.5 MB here and at 120 MB RSS for --n-max 1000
    tracemalloc.start()
    try:
        code = run_cli(["identity", "--which", "catalan", "--n-max", "300"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdicts"][0]["cells"] == 301 * 302 // 2
    assert peak < 2_000_000


def test_identity_refuses_cells_past_its_budget_before_any_residual(capsys, monkeypatch):
    def cheap(*args):
        return 0

    for name in ("catalan_residual", "shift_identity_residual"):
        monkeypatch.setattr(cli, name, cheap)
    # (n_max + 1)(n_max + 2)/2 Catalan cells, n_max(n_max + 1)/2 shift cells per
    # recurrence: the budget of 2^19 admits --n-max 1022 and 723 (two recurrences)
    shift = ("--which", "shift", "--rec", "1,1,1,1", "--rec", "2,1,3,2", "--n-max")
    for argv, cells in ((("--which", "catalan", "--n-max", "1022"), 523776),
                        ((*shift, "723"), 261726)):
        code, report = run_json(capsys, "identity", *argv)
        assert code == 0 and report["verdicts"][-1]["cells"] == cells

    def refuse(*args):
        raise AssertionError("no residual may be computed past the budget")

    for name in ("catalan_residual", "general_catalan_residual", "shift_identity_residual"):
        monkeypatch.setattr(cli, name, refuse)
    for argv, cells in ((("--which", "catalan", "--n-max", "1023"), 524800),
                        ((*shift, "724"), 524900),
                        (("--which", "general", "--n-max", "458"), 525555),  # 5 default recs
                        (("--which", "catalan", "--n-max", "3000"), 4504501)):
        assert run(capsys, "identity", *argv) == (
            2, "", f"error: {cells} cells exceed the identity budget of 524288\n")


def test_identity_names_the_first_nonzero_shift_cell(capsys, monkeypatch):
    monkeypatch.setattr(cli, "shift_identity_residual",
                        lambda rec, m, r, k: 2 if (m, k) in ((3, 1), (4, 0)) else 0)
    code, report = run_json(capsys, "identity", "--which", "shift", "--n-max", "5",
                            "--rec", "2,1,3,2")
    assert code == 1
    row = report["verdicts"][0]
    assert (row["cells"], row["nonzero"], row["first_nonzero"]) == (15, 2, "n+r=3,k=1")


def test_identity_rejects_rec_for_fixed_families(capsys):
    code, out, err = run(
        capsys, "identity", "--which", "catalan", "--rec", "0,1,1,1"
    )
    assert code == 2


def test_special_subcommand(capsys):
    code, report = run_json(capsys, "special", "--seq", "apery", "--n", "4")
    assert code == 0
    assert [r["value"] for r in report["verdicts"]] == [1, 5, 73, 1445, 33001]
    code, report = run_json(
        capsys, "special", "--seq", "omega", "--n", "6", "--prime", "7"
    )
    assert code == 0
    assert [r["value_mod_p"] for r in report["verdicts"]] == [
        v % 7 for v in [1, 1, 3, 19, 211, 3651, 90921]
    ]


@pytest.mark.parametrize("p, n_max", [(2, 6), (7, 21), (1000003, 300)])
def test_special_apery_prime_prints_the_digit_product(capsys, p, n_max):
    code, report = run_json(
        capsys, "special", "--seq", "apery", "--n", str(n_max), "--prime", str(p))
    assert code == 0
    assert [r["value_mod_p"] for r in report["verdicts"]] == [
        apery_mod(n, p) for n in range(n_max + 1)]


def test_special_apery_prime_builds_one_digit_table(capsys, monkeypatch):
    real, calls = cli._apery_digits, []

    def counted(p, top):
        calls.append((p, top))
        return real(p, top)

    monkeypatch.setattr(cli, "_apery_digits", counted)
    for argv, table in ((("--n", "40", "--prime", "7"), (7, 6)),
                        (("--n", "300", "--prime", "1000003"), (1000003, 300))):
        calls.clear()
        code, report = run_json(capsys, "special", "--seq", "apery", *argv)
        assert code == 0 and len(report["verdicts"]) == int(argv[1]) + 1
        # one table for the whole command, up to the largest digit it reads
        assert calls == [table]


def run_special(seq, n_max):
    # a child process, so a table built from O(n) sums per row (29 s at
    # n = 1200) cannot hang the suite
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lucaslp", "special", "--seq", seq, "--n", str(n_max)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc, time.perf_counter() - start


def test_special_apery_tabulates_from_the_recurrence():
    proc, elapsed = run_special("apery", 1200)
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 5.0
    rows = json.loads(proc.stdout)["verdicts"]
    assert [r["n"] for r in rows] == list(range(1201))
    assert rows[1200]["value"] == apery(1200)


@pytest.mark.skipif(
    not getattr(sys.flags, "int_max_str_digits", 0),
    reason="this Python renders integers of any length",
)
def test_special_apery_past_the_int_string_limit_exits_2_quickly():
    # A(3000) has about 4600 digits, past the default 4300-digit limit of
    # int-to-str conversion: the report cannot be rendered, and the command
    # says so in one line once the table is built
    proc, elapsed = run_special("apery", 3000)
    assert proc.returncode == 2
    assert elapsed < 5.0
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "error: Exceeds the limit (4300 digits) for integer string conversion at n = 2813:"
    )
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(
    not getattr(sys.flags, "int_max_str_digits", 0),
    reason="this Python renders integers of any length",
)
def test_special_omega_stops_at_the_first_row_past_the_limit():
    # w(884) is the first value past 4300 digits; the convolution to n = 2000
    # took 87.6 s before the report then failed to render
    proc, elapsed = run_special("omega", 2000)
    assert proc.returncode == 2
    assert elapsed < 10.0
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "error: Exceeds the limit (4300 digits) for integer string conversion at n = 884:"
    )
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int-to-str limit"
)
@pytest.mark.parametrize("seq", ["apery", "omega"])
def test_special_names_the_first_row_past_the_limit(capsys, monkeypatch, seq):
    # under the smallest limit, 640 digits: the first exact value past it
    # ends the command, and no later term is computed
    stream = getattr(cli, f"_{seq}_terms")
    first_too_long = next(n for n, v in enumerate(stream()) if v >= 10**640)
    read = []
    monkeypatch.setattr(cli, f"_{seq}_terms", lambda: (read.append(v) or v for v in stream()))
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "special", "--seq", seq, "--n", "5000")
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: Exceeds the limit (640 digits) for integer string conversion "
        f"at n = {first_too_long}: pass --prime, or raise the limit with PYTHONINTMAXSTRDIGITS\n"
    )
    assert len(read) == first_too_long + 1
    assert len(str(read[-2])) <= 640


def test_special_refuses_more_terms_than_the_stream_budget(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("no value may be read past the budget")

    for name in ("_apery_terms", "_omega_terms", "_omega_residues", "_apery_digits"):
        monkeypatch.setattr(cli, name, refuse)
    for n in ("131072", "2000000"):
        for argv in (("--seq", "apery"), ("--seq", "apery", "--prime", "31"),
                     ("--seq", "omega", "--prime", "31")):
            assert run(capsys, "special", *argv, "--n", n) == (
                2, "", f"error: {int(n) + 1} terms exceed the stream scan budget of 131072\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_TERM_BUDGET", 10)
    code, report = run_json(capsys, "special", "--seq", "omega", "--n", "9", "--prime", "31")
    assert code == 0 and len(report["verdicts"]) == 10
    assert run(capsys, "special", "--seq", "omega", "--n", "10", "--prime", "31") == (
        2, "", "error: 11 terms exceed the stream scan budget of 10\n")


def test_special_rejects_a_negative_n(capsys):
    for argv in (("--seq", "apery"), ("--seq", "omega", "--prime", "7")):
        code, out, err = run(capsys, "special", *argv, "--n", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --n must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# crossval / counterexample


def test_crossval_theorem1_clean(capsys):
    code, report = run_json(
        capsys, "crossval", "--theorem", "1", "--prime-bound", "5",
        "--a-max", "6", "--b-max", "6",
    )
    assert code == 0
    agreement = report["agreement"]
    assert agreement["disagreement_count"] == 0
    assert agreement["cells"] == 3 * 6 * 7
    assert agreement["flagged_identically_zero"] > 0
    assert len(report["verdicts"]) == agreement["cells"]


def test_crossval_theorem2_as_stated_disagrees(capsys):
    code, report = run_json(
        capsys, "crossval", "--theorem", "2", "--reading", "as-stated",
        "--prime-bound", "3", "--a-max", "4", "--b-max", "8",
    )
    assert code == 1
    cells = {
        (d["prime"], d["a"], d["b"]) for d in report["agreement"]["disagreements"]
    }
    assert (3, 4, 7) in cells
    witness = next(
        d for d in report["agreement"]["disagreements"]
        if (d["prime"], d["a"], d["b"]) == (3, 4, 7)
    )
    assert witness["counterexample"]["n"] == 3


def test_crossval_theorem3_default_recs(capsys):
    code, report = run_json(
        capsys, "crossval", "--theorem", "3", "--prime-bound", "3",
        "--a-max", "3", "--b-max", "3",
    )
    assert code == 0
    recs = {row["rec"] for row in report["verdicts"]}
    assert "0,1,2,1" in recs and "2,1,3,2" in recs


def test_crossval_flag_scoping(capsys):
    code, out, err = run(
        capsys, "crossval", "--theorem", "1", "--reading", "as-proved"
    )
    assert code == 2
    code, out, err = run(capsys, "crossval", "--theorem", "1", "--rec", "0,1,1,1")
    assert code == 2
    code, out, err = run(capsys, "crossval", "--theorem", "1", "--prime-bound", "1")
    assert code == 2


@pytest.mark.parametrize("theorem", [1, 2, 3])
def test_crossval_calls_its_entry_point_by_module_name(capsys, monkeypatch, theorem):
    # a tracer times a sweep by rebinding crossval_theorem{n} on the cli module:
    # the command must call exactly that name, once
    argv = ("crossval", "--theorem", str(theorem), "--prime-bound", "7",
            "--a-max", "3", "--b-max", "3")
    expected = run(capsys, *argv)
    calls = []
    for n in (1, 2, 3):
        def spy(*args, n=n, original=getattr(cli, f"crossval_theorem{n}")):
            calls.append(n)
            return original(*args)
        monkeypatch.setattr(cli, f"crossval_theorem{n}", spy)
    assert run(capsys, *argv) == expected
    assert calls == [theorem]


def test_counterexample_found(capsys):
    code, report = run_json(capsys, "counterexample", "--a", "1", "--b", "1")
    assert code == 1
    row = report["verdicts"][0]
    assert row["found"] is True
    assert row["prime"] == 2
    assert row["counterexample"]["n"] == 2


def test_counterexample_not_found_exit_0(capsys):
    code, report = run_json(
        capsys, "counterexample", "--a", "3", "--b", "1", "--prime-bound", "2"
    )
    assert code == 0
    assert report["verdicts"][0]["found"] is False


# ---------------------------------------------------------------------------
# formats and determinism


def test_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "enumerate-b", "--a", "5", "--prime", "5")
    code2, out2, _ = run(capsys, "enumerate-b", "--a", "5", "--prime", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_csv_output_parses(capsys):
    code, out, err = run(
        capsys, "crossval", "--theorem", "1", "--prime-bound", "3",
        "--a-max", "3", "--b-max", "3", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 * 3 * 4
    assert {"prime", "a", "b", "predicted", "oracle_holds"} <= set(rows[0])
    assert rows[0]["predicted"] in ("true", "false")


def test_csv_flattens_counterexample(capsys):
    code, out, err = run(
        capsys, "lp-check", "fib-affine", "--a", "1", "--b", "1", "--prime", "2",
        "--format", "csv",
    )
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["counterexample.n"] == "2"
    assert rows[0]["counterexample.digits"] == "0;1"


def test_report_record():
    report = Report("demo", {"prime": 5}, [{"n": 1}])
    assert report.agreement is None
    assert report == Report(command="demo", inputs={"prime": 5}, verdicts=[{"n": 1}], agreement=None)
    assert Report("demo", {}, [], {"cells": 0}).agreement == {"cells": 0}
    assert repr(report) == "Report(command='demo', inputs={'prime': 5}, verdicts=[{'n': 1}], agreement=None)"
    assert report.to_dict() == {"command": "demo", "inputs": {"prime": 5}, "verdicts": [{"n": 1}]}
    for name in ("command", "inputs", "verdicts", "agreement"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)


def test_import_loads_every_layer_without_dataclasses():
    # records are NamedTuples: importing the CLI generates no dataclass
    # methods, and every layer module is loaded for callers that look them
    # up in sys.modules
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import json, sys; before = set(sys.modules); import lucaslp.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "dataclasses" not in loaded
    assert "csv" not in loaded
    layers = {f"lucaslp.{m}" for m in ("modmath", "sequences", "identities", "special", "lp", "cli")}
    assert layers <= loaded


def test_csv_unrepresentable_raises():
    report = Report("demo", {}, [{"cell": {"deep": {"deeper": 1}}}])
    with pytest.raises(CsvUnrepresentableError):
        format_report(report, "csv")
    report = Report("demo", {}, [{"rows": [[1, 2], [3]]}])
    with pytest.raises(CsvUnrepresentableError):
        format_report(report, "csv")


# ---------------------------------------------------------------------------
# renderers against the standard library's own rendering

# strings that look like the text the json renderer splits on, or that json
# escapes
TRICKY_TEXT = st.sampled_from(
    ['"', "\\", "{", "}", ",", "},\n", '},\n      {"a": 1', "\n", "\t\x00\x1f", "é", " ", "😀"]
)
JSON_TEXT = TRICKY_TEXT | st.text(max_size=8)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**200, -(3**150)])
    | st.floats()
    | JSON_TEXT
)
EMPTY = st.sampled_from([[], (), {}])
FLAT_ROWS = st.lists(
    st.dictionaries(JSON_TEXT, JSON_SCALARS, min_size=1, max_size=4) | st.just({}), max_size=4
)


def json_values(keys):
    return st.recursive(
        JSON_SCALARS | EMPTY | FLAT_ROWS,
        lambda children: (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(keys, children, max_size=4)
        ),
        max_leaves=12,
    )


def reference_json(value):
    return json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=100, deadline=None)
@given(json_values(JSON_TEXT) | json_values(st.integers()))
def test_json_renderer_matches_indented_dumps(value):
    report = Report("demo", {}, [], value)
    assert format_report(report, "json") == reference_json(report.to_dict()) + "\n"


def reference_csv(report):
    """The csv rendering through csv.DictWriter that format_report replaced."""

    def scalar(value, context):
        if isinstance(value, bool):
            return "true" if value else "false"
        if value is None:
            return ""
        if isinstance(value, (list, tuple)):
            if any(isinstance(x, (list, tuple, dict)) for x in value):
                raise CsvUnrepresentableError(f"nested sequence under {context!r} does not fit csv")
            return ";".join(str(scalar(x, context)) for x in value)
        if isinstance(value, dict):
            raise CsvUnrepresentableError(f"nested mapping under {context!r} does not fit csv")
        return value

    rows = []
    for row in report.verdicts:
        flat = {}
        for key, value in row.items():
            if isinstance(value, dict):
                for sub, sv in value.items():
                    flat[f"{key}.{sub}"] = scalar(sv, f"{key}.{sub}")
            else:
                flat[key] = scalar(value, key)
        rows.append(flat)
    columns = list(dict.fromkeys(key for row in rows for key in row))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def csv_outcome(render, report):
    try:
        return "ok", render(report)
    except CsvUnrepresentableError as exc:
        return "error", str(exc)


CSV_KEYS = st.sampled_from(["prime", "a", "b", "n", "counterexample", "x,y", 'q"'])
CSV_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT
CSV_CELLS = CSV_SCALARS | st.lists(CSV_SCALARS, max_size=3) | st.lists(CSV_SCALARS, max_size=3).map(tuple)
# the last two fit no csv cell: a nested sequence and a nested mapping
CSV_VALUES = (
    CSV_CELLS
    | st.dictionaries(CSV_KEYS, CSV_CELLS, max_size=3)
    | st.lists(st.lists(CSV_SCALARS, max_size=2), min_size=1, max_size=2)
    | st.dictionaries(CSV_KEYS, st.dictionaries(CSV_KEYS, CSV_SCALARS), min_size=1, max_size=2)
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(CSV_KEYS, CSV_VALUES, max_size=5), max_size=5))
def test_csv_renderer_matches_dictwriter(rows):
    report = Report("demo", {}, rows)
    expected = csv_outcome(reference_csv, report)
    assert csv_outcome(lambda r: format_report(r, "csv"), report) == expected


def test_csv_renderer_cases():
    rows = [
        {"prime": 5, "holds": True, "counterexample": {"n": 7, "digits": [2, 1]}},
        {"prime": 7, "zero": False, "digits": (1, True, None), "note": None},
    ]
    report = Report("demo", {}, rows)
    assert format_report(report, "csv") == reference_csv(report) == (
        "prime,holds,counterexample.n,counterexample.digits,zero,digits,note\n"
        "5,true,7,2;1,,,\n"
        "7,,,,false,1;true;,\n"
    )
    for bad, message in (
        ({"cell": {"deep": {"deeper": 1}}}, "nested mapping under 'cell.deep'"),
        ({"rows": [[1, 2], [3]]}, "nested sequence under 'rows'"),
    ):
        report = Report("demo", {}, [{"ok": 1}, bad])
        assert csv_outcome(lambda r: format_report(r, "csv"), report) == (
            "error", f"{message} does not fit csv"
        )


def reference_plain(report):
    """The plain rendering of the verdict rows one row at a time, as it was
    before the renderer worked on columns."""
    lines = [f"command: {report.command}"]
    if report.verdicts:
        columns = list(dict.fromkeys(key for row in report.verdicts for key in row))
        table = [[cli._plain_scalar(row.get(c)) for c in columns] for row in report.verdicts]
        widths = [
            max(len(columns[i]), max(len(r[i]) for r in table)) for i in range(len(columns))
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip())
        for r in table:
            lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


# keys that a % template or a json string must escape, and json text
TABLE_KEYS = (
    st.sampled_from(["prime", "a", "%", "%s", "%(a)s", '"', 'q"%', "x,y", "é"]) | JSON_TEXT
)
# one column: a single scalar type, or any mix of scalars
MIXED_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT
COLUMN_VALUES = st.sampled_from(
    [st.integers(), st.booleans(), st.none(), st.floats(), JSON_TEXT, MIXED_SCALARS]
)


@st.composite
def uniform_tables(draw, min_height=0):
    keys = draw(st.lists(TABLE_KEYS, min_size=1, max_size=4, unique=True))
    height = draw(st.integers(min_height, 5))
    columns = [
        draw(st.lists(draw(COLUMN_VALUES), min_size=height, max_size=height)) for _ in keys
    ]
    return keys, columns


@settings(max_examples=200, deadline=None)
@given(uniform_tables())
def test_column_path_matches_dict_rows(case):
    keys, columns = case
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    # as crossval hands a grid: a table, or [] when it has no cells
    table = cli._Table(tuple(keys), tuple(columns)) if rows else []
    expected = Report("demo", {}, rows)
    for verdicts in (table, rows):
        report = Report("demo", {}, verdicts)
        assert format_report(report, "json") == reference_json(expected.to_dict()) + "\n"
        assert format_report(report, "csv") == reference_csv(expected)
        assert format_report(report, "plain") == reference_plain(expected)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(JSON_TEXT, json_values(JSON_TEXT), max_size=3),
    FLAT_ROWS
    | st.lists(json_values(JSON_TEXT), max_size=3)
    | uniform_tables(min_height=1).map(lambda case: cli._Table(*map(tuple, case))),
    st.none() | st.dictionaries(JSON_TEXT, FLAT_ROWS | JSON_SCALARS, max_size=3),
)
def test_json_report_matches_indented_dumps(inputs, verdicts, agreement):
    report = Report("demo", inputs, verdicts, agreement)
    if type(verdicts) is cli._Table:
        # the reference renders the table's rows as dicts
        verdicts = [dict(zip(verdicts.keys, values)) for values in zip(*verdicts.columns)]
    expected = report._replace(verdicts=verdicts)
    assert format_report(report, "json") == reference_json(expected.to_dict()) + "\n"


def render_outcome(render, report):
    try:
        return "ok", render(report)
    except (AttributeError, TypeError) as exc:
        return "error", type(exc)


def test_column_path_cases(capsys):
    # an empty grid prints the empty csv header line, as it always has
    code, out, _ = run(capsys, "crossval", "--theorem", "1", "--a-max", "0", "--format", "csv")
    assert (code, out) == (0, "\n")
    assert format_report(Report("demo", {}, []), "csv") == "\n"
    # rows that are not uniform, or not flat, take the per-row path
    for rows in (
        [{"a": 1}, {"b": 2}],
        [{"a": 1}, {"a": 2, "b": 3}],
        [{"a": [1, 2]}],
        [{"a": {"n": 1}}],
        [{}],
        [{1: "x"}],
        [{"a": 1}, 2],
    ):
        # plain of [{1: "x"}], and csv and plain of [{"a": 1}, 2], raise in both
        report = Report("demo", {}, rows)
        for render, reference in (
            (lambda r: format_report(r, "json"), lambda r: reference_json(r.to_dict()) + "\n"),
            (lambda r: format_report(r, "csv"), reference_csv),
            (lambda r: format_report(r, "plain"), reference_plain),
        ):
            assert render_outcome(render, report) == render_outcome(reference, report), rows
    table = cli._Table(("%s", 'q"'), ([True, None], ["a\nb", 7]))
    assert format_report(Report("demo", {}, table), "json") == (
        '{\n  "command": "demo",\n  "inputs": {},\n  "verdicts": [\n'
        '    {\n      "%s": true,\n      "q\\"": "a\\nb"\n    },\n'
        '    {\n      "%s": null,\n      "q\\"": 7\n    }\n  ]\n}\n'
    )
    assert format_report(Report("demo", {}, table), "csv") == '%s,"q"""\ntrue,"a\nb"\n,7\n'


def test_json_table_spells_equal_values_of_each_type_apart():
    # 1 == True == 1.0 and 0 == False == 0.0 == -0.0 as dict keys, but json
    # spells each its own way; the strings need escapes, or look like the
    # text the renderer joins
    mixed = [1, True, 1.0, 0, False, None, 0.0, -0.0, "1", "%s", 'q"', "a\nb", "é😀", 1]
    floats = [0.0, -0.0, 1.0, float("nan"), 1e300, -0.0, float("inf"), 0.0, 2.5, -2.5, 1e-300,
              -0.0, 0.0, 1.0]
    text = ["%", "%(a)s", '"', "\n", "é", "😀", '"%"', "},\n", "", " ", "%", "\n", "é", "é"]
    table = cli._Table(("mixed", "%s", 'é"'), (mixed, floats, text))
    rows = [dict(zip(table.keys, values)) for values in zip(*table.columns)]
    for level in (0, 1, 3):
        assert cli._json_table(table, level) == (
            json.dumps(rows, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)
        )
    report = Report("demo", {}, table)
    assert format_report(report, "json") == (
        reference_json(Report("demo", {}, rows).to_dict()) + "\n"
    )


def csv_writer_reference(table):
    """A table's rows written by one plain csv.writer, bools spelled as json spells them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.keys)
    spell = {True: "true", False: "false"}
    writer.writerows([spell[v] if type(v) is bool else v for v in row]
                     for row in zip(*table.columns))
    return buf.getvalue()


@pytest.mark.parametrize("keys, columns", [
    # values csv must quote: an embedded newline or carriage return, a comma, a quote
    (("n", 'q"'), ([1, 2, 3, 4, 5, 1], ["a\nb", "x,y", 'say "hi"', "\r", "plain", "a\nb"])),
    (("text", "n"), (['"', "\n", ",", '"', "\r\n", ""], [7, 7, 8, 8, 9, 9])),
    # equal keys that csv spells apart, each beside another column
    (("empty", "one", "zero"), (
        ["", None, "", None, None, ""],
        [True, 1, 1, True, 1.0, False],
        [0.0, -0.0, 0.0, 0, False, -0.0],
    )),
    # one column: csv quotes a lone empty field, and writes None as one
    (("only",), (["", "x", None, "", "a,b"],)),
    (("only",), ([None, None],)),
    (("",), ([""],)),
    (("",), ([0.0, -0.0, True, 1, ""],)),
])
def test_csv_table_path_matches_csv_writer(keys, columns):
    table = cli._Table(keys, columns)
    assert format_report(Report("demo", {}, table), "csv") == csv_writer_reference(table)


def test_format_validation():
    with pytest.raises(ValueError):
        format_report(Report("demo", {}, []), "yaml")


def test_plain_format_smoke(capsys):
    code, out, err = run(
        capsys, "lp-check", "fib-affine", "--a", "1", "--b", "1", "--prime", "2",
        "--format", "plain",
    )
    assert code == 1
    assert out.startswith("command: lp-check")
    assert "holds" in out


def test_usage_exit_codes(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "theorem", "--which", "4", "--a", "1", "--b", "1", "--prime", "2")[0] == 2
    assert run(capsys, "crossval", "--theorem", "1", "--prime-bound", "x")[0] == 2
    assert run(capsys, "period", "--prime", "5", "--rec", "1,2,3")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "lp-check", "--help")[0] == 0


@pytest.mark.parametrize("module", ["lucaslp", "lucaslp.cli"])
def test_python_m_runs_the_cli(capsys, module):
    code, expected, _ = run(capsys, "alpha", "--prime", "5")
    assert code == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-m", module, "alpha", "--prime", "5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


# ---------------------------------------------------------------------------
# golden bytes: stdout and exit code of every affine command and of special,
# in every format

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_stdout(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert err == ""
    assert code == case["exit_code"]
    assert out == case["stdout"]
