"""Acceptance gate: fifteen criteria, one printed pass/fail line each.

Each criterion pins a verification result at desk scale: exhaustive grids,
exact identity sweeps, and golden values frozen from independent naive
implementations. Run with -s (or read the -v test lines) to see the
per-criterion status lines.
"""

import json
import math
import random
import time

from lucaslp.cli import run_cli
from lucaslp.identities import (
    catalan_residual,
    general_catalan_residual,
    lucas_catalan_residual,
    shift_identity_residual,
)
from lucaslp.lp import (
    AS_STATED,
    AffineIndexMap,
    AperySequence,
    OmegaSequence,
    THEOREM3_DEFAULT_RECS,
    corollary1_counterexample,
    crossval_theorem1,
    crossval_theorem2,
    crossval_theorem3,
    fib_affine,
    lemma3_closed_form,
    lp_bruteforce,
    lucas_affine,
)
from lucaslp.modmath import binomial_mod_lucas, digits_base_p, is_prime, primes_upto
from lucaslp.sequences import (
    FIBONACCI,
    LUCAS_NUMBERS,
    PELL,
    LinearRecurrence,
    ScanExhaustedError,
    fib,
    fib_mod,
    lucas_mod,
    alpha,
    period_mod,
    s_poly,
    t_poly,
    _least_order,
    _mat_pow,
)
from lucaslp.special import omega, omega_mod


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def reverify_counterexample(spec, p, ce):
    """Recompute the witness from raw residues, independent of the oracle."""
    vals = spec.residues(p, ce.n + 1)
    lhs = vals[ce.n]
    rhs = 1
    for d in digits_base_p(ce.n, p).digits:
        rhs = rhs * vals[d] % int(p)
    return lhs == ce.lhs and rhs == ce.rhs and lhs != rhs


def test_criterion_01_valid_offset_enumeration(capsys):
    t0 = time.perf_counter()
    code_fib = run_cli(["enumerate-b", "--family", "fib", "--a", "5", "--prime", "5"])
    out_fib = capsys.readouterr().out
    code_luc = run_cli(["enumerate-b", "--family", "lucas", "--a", "1", "--prime", "5"])
    out_luc = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    fib_report = json.loads(out_fib)
    luc_report = json.loads(out_luc)
    ok = (
        code_fib == 0
        and code_luc == 0
        and fib_report["agreement"]["valid_b"] == [1, 2, 8, 19]
        and fib_report["agreement"]["modulus"] == 20
        and luc_report["agreement"]["valid_b"] == [1]
        and luc_report["agreement"]["modulus"] == 4
        and elapsed < 1.0
    )
    with capsys.disabled():
        report_line(
            1, "valid offset enumeration", ok,
            f"fib {{1,2,8,19}} mod 20, lucas {{1}} mod 4, {elapsed:.3f}s",
        )


def test_criterion_02_fibonacci_criterion_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    sweep = crossval_theorem1(primes_upto(31), range(1, 41), range(0, 41), 3)
    elapsed = time.perf_counter() - t0
    disagreements = sweep.disagreements
    ok = len(sweep.cells) == 11 * 40 * 41 and not disagreements
    with capsys.disabled():
        report_line(
            2, "fib criterion vs oracle, p<=31 a<=40 b<=40", ok,
            f"{len(sweep.cells)} cells, {len(disagreements)} disagreements, "
            f"{len(sweep.identically_zero_cells)} flagged zero, {elapsed:.1f}s",
        )


def test_criterion_03_lucas_criterion_reading_adjudication(capsys):
    primes = primes_upto(13)
    proved = crossval_theorem2(primes, range(1, 13), range(0, 13))
    stated = crossval_theorem2(primes, range(1, 13), range(0, 13), reading=AS_STATED)
    stated_keys = {(c.prime, c.a, c.b) for c in stated.disagreements}
    witnesses_ok = True
    witnessed = 0
    for cell in stated.disagreements:
        if cell.counterexample is not None:
            witnessed += 1
            spec = lucas_affine(cell.a, cell.b)
            if not reverify_counterexample(spec, cell.prime, cell.counterexample):
                witnesses_ok = False
    ok = (
        not proved.disagreements
        and len(stated.disagreements) >= 1
        and (3, 4, 7) in stated_keys
        and witnessed >= 1
        and witnesses_ok
    )
    with capsys.disabled():
        report_line(
            3, "lucas criterion readings", ok,
            f"as-proved 0 disagreements ({len(proved.identically_zero_cells)} flagged zero); "
            f"as-stated {len(stated.disagreements)} disagreements, "
            f"{witnessed} oracle witnesses re-verified, (3,4,7) present",
        )


def test_criterion_04_general_criterion_crossval(capsys):
    sweep = crossval_theorem3(
        THEOREM3_DEFAULT_RECS, primes_upto(13), range(1, 13), range(0, 13)
    )
    per_rec = {rec: [] for rec in THEOREM3_DEFAULT_RECS}
    for cell in sweep.disagreements:
        per_rec[cell.rec].append((cell.prime, cell.a, cell.b))
    listed = {rec.as_string(): cells for rec, cells in per_rec.items() if cells}
    ok = (
        len(sweep.cells) == 5 * 6 * 12 * 13
        and not per_rec[FIBONACCI]
        and not per_rec[PELL]
    )
    with capsys.disabled():
        report_line(
            4, "general criterion vs oracle, five recurrences", ok,
            f"{len(sweep.cells)} cells, fib/pell rows clean, "
            f"disagreements elsewhere: {listed if listed else 'none'}",
        )


def test_criterion_05_identity_sweeps(capsys):
    t0 = time.perf_counter()
    bad = []
    for n in range(201):
        for r in range(n + 1):
            if catalan_residual(n, r) != 0:
                bad.append(("catalan", n, r))
            if lucas_catalan_residual(n, r) != 0:
                bad.append(("lucas-catalan", n, r))
    rng = random.Random(20260815)
    recs = [FIBONACCI, LUCAS_NUMBERS, PELL]
    recs += [
        LinearRecurrence(*(rng.randint(-5, 5) for _ in range(4))) for _ in range(20)
    ]
    for rec in recs:
        for n in range(1, 61):
            for r in range(1, n + 1):
                if general_catalan_residual(rec, n, r) != 0:
                    bad.append(("general", rec.as_string(), n, r))
        for m in range(2, 61):
            for k in range(1, m):
                if shift_identity_residual(rec, m, 0, k) != 0:
                    bad.append(("shift", rec.as_string(), m, k))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    with capsys.disabled():
        report_line(
            5, "identity sweeps all-zero residuals", ok,
            f"{len(recs)} recurrences, first failures: {bad[:3] if bad else 'none'}, "
            f"{elapsed:.1f}s",
        )


def test_criterion_06_shift_polynomial_bridges(capsys):
    fib_table = [0, 1]
    pell_table = [0, 1]
    for _ in range(302):
        fib_table.append(fib_table[-1] + fib_table[-2])
        pell_table.append(2 * pell_table[-1] + pell_table[-2])
    bad = []
    for k in range(301):
        if s_poly(k, 1, 1) != fib_table[k + 1]:
            bad.append(("fib-bridge", k))
        if s_poly(k, 2, 1) != pell_table[k + 1]:
            bad.append(("pell-bridge", k))
    rng = random.Random(404)
    for _ in range(50):
        u = rng.randint(-10, 10)
        v = rng.randint(-10, 10)
        for k in range(1, 101):
            if t_poly(k, u, v) != v * s_poly(k - 1, u, v):
                bad.append(("t-bridge", k, u, v))
    ok = not bad
    with capsys.disabled():
        report_line(
            6, "shift polynomial bridges", ok,
            f"s/fib and s/pell to k=300, t=v*s on 50 seeded pairs, "
            f"failures: {bad[:3] if bad else 'none'}",
        )


def test_criterion_07_mod5_closed_forms(capsys):
    t0 = time.perf_counter()
    bad = 0
    for n in range(1, 10**4 + 1):
        if lemma3_closed_form("fib", n) != fib_mod(n, 5):
            bad += 1
        if lemma3_closed_form("lucas", n) != lucas_mod(n, 5):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    with capsys.disabled():
        report_line(
            7, "mod-5 closed forms to n=10^4", ok,
            f"{bad} mismatches, {elapsed:.2f}s",
        )


def test_criterion_08_fibonacci_prime_strides(capsys):
    cases = [(3, 2), (4, 3), (5, 5), (7, 13), (11, 89)]
    failures = []
    for a, p in cases:
        bound = 2 if p == 89 else 3
        if not lp_bruteforce(fib_affine(a, 1), p, bound).holds:
            failures.append(("fib", a, p))
        if not lp_bruteforce(lucas_affine(a, 1), p, bound).holds:
            failures.append(("lucas", a, p))
    ok = not failures
    with capsys.disabled():
        report_line(
            8, "fib/lucas strides at fibonacci primes", ok,
            f"pairs {cases}, failures: {failures if failures else 'none'}",
        )


def test_criterion_09_rank_of_apparition(capsys):
    bad = []
    for p in primes_upto(100):
        k = alpha(p)
        for a in range(1, 5 * k + 1):
            if (fib_mod(a, p) == 0) != (a % k == 0):
                bad.append((p, a))
    for m in range(1, 121):
        fm = fib(m)
        for n in range(1, 121):
            if math.gcd(fm, fib(n)) != fib(math.gcd(m, n)):
                bad.append(("gcd", m, n))
    ok = not bad
    with capsys.disabled():
        report_line(
            9, "rank of apparition and gcd law", ok,
            f"p<=100 divisibility plus gcd grid to 120, failures: "
            f"{bad[:3] if bad else 'none'}",
        )


def test_criterion_10_digitwise_binomials(capsys):
    t0 = time.perf_counter()
    bad = 0
    for p in primes_upto(13):
        row = [1]
        for n in range(401):
            for m in range(401):
                expected = row[m] if m < len(row) else 0
                if binomial_mod_lucas(n, m, p) != expected:
                    bad += 1
            row = [1] + [(row[i - 1] + row[i]) % p for i in range(1, len(row))] + [1]
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    with capsys.disabled():
        report_line(
            10, "digitwise binomials vs additive pascal", ok,
            f"n,m<=400 p<=13, {bad} mismatches, {elapsed:.1f}s",
        )


def test_criterion_11_special_sequences(capsys):
    failures = []
    for p in (2, 3, 5, 7, 11, 13):
        bound = 3 if p <= 5 else 2
        if not lp_bruteforce(AperySequence(), p, bound).holds:
            failures.append(("apery", p))
    for n in range(1, 41):
        acc = sum(
            (-1) ** k * math.comb(n, k) ** 2 * omega(n - k) for k in range(n + 1)
        )
        if acc != 0:
            failures.append(("omega-convolution", n))
    # independent oracle: series inversion over the rationals
    from fractions import Fraction

    coeffs = [Fraction((-1) ** k, math.factorial(k) ** 2) for k in range(26)]
    inv = [Fraction(1)]
    for n in range(1, 26):
        inv.append(-sum(coeffs[k] * inv[n - k] for k in range(1, n + 1)))
    for n in range(26):
        value = inv[n] * math.factorial(n) ** 2
        if value.denominator != 1 or omega(n) != value.numerator:
            failures.append(("omega-inversion", n))
    for p in (2, 3, 5, 7, 11):
        if not lp_bruteforce(OmegaSequence(), p, 2).holds:
            failures.append(("omega-lp", p))
    ok = not failures
    with capsys.disabled():
        report_line(
            11, "apery and bessel-reciprocal sequences", ok,
            f"failures: {failures if failures else 'none'}",
        )


def test_criterion_12_failing_prime_search(capsys):
    failures = []
    for a in range(1, 7):
        for b in range(1, 7):
            try:
                q, verdict = corollary1_counterexample(
                    AffineIndexMap(a, b), prime_bound=50
                )
            except Exception as exc:  # includes not-found
                failures.append((a, b, repr(exc)))
                continue
            ce = verdict.counterexample
            if ce is None or not reverify_counterexample(fib_affine(a, b), q, ce):
                failures.append((a, b, "witness failed re-verification"))
    ok = not failures
    with capsys.disabled():
        report_line(
            12, "failing prime search with verified witnesses", ok,
            f"36 stride/offset pairs, failures: {failures if failures else 'none'}",
        )


def large_primes(seed, count=40):
    rng = random.Random(seed)
    primes = []
    while len(primes) < count:
        q = rng.randrange(10**6, 10**15)
        if is_prime(q):
            primes.append(q)
    return primes


def test_criterion_13_fib_and_lucas_criteria_at_large_primes(capsys):
    # plain ranges a <= a_max never reach F(a) = 0 at a large prime, so the
    # grid sits at multiples of the rank of apparition alpha and the offsets
    # near 0, the period and alpha
    t0 = time.perf_counter()
    cells = passes = proved_bad = stated_bad = skipped = 0
    for p in large_primes(21):
        try:
            k, per = alpha(p), period_mod(FIBONACCI, p).period
        except ScanExhaustedError:
            skipped += 1
            continue
        a_values = sorted({t * k + d for t in (1, 2, 3) for d in (-1, 0, 1)})  # k >= 3, a >= 2
        b_values = sorted({*range(4), *range(per - 1, per + 3), *range(k - 1, k + 3)})
        proved = (crossval_theorem1((p,), a_values, b_values),
                  crossval_theorem2((p,), a_values, b_values))
        stated = crossval_theorem2((p,), a_values, b_values, reading=AS_STATED)
        for report in (*proved, stated):
            cells += len(report.cells)
            passes += sum(c.oracle_holds and not c.identically_zero for c in report.cells)
        proved_bad += sum(len(report.disagreements) for report in proved)
        stated_bad += len(stated.disagreements)
    elapsed = time.perf_counter() - t0
    ok = proved_bad == 0 and stated_bad > 0 and passes > 0
    with capsys.disabled():
        report_line(
            13, "fib/lucas criteria vs oracle, 40 primes in [1e6, 1e15]", ok,
            f"{cells} cells, {passes} non-vacuous passes, as-proved {proved_bad} "
            f"and as-stated {stated_bad} disagreements, {skipped} primes skipped, "
            f"{elapsed:.2f}s",
        )


def test_criterion_14_general_criterion_on_random_recurrences(capsys):
    # the criterion's vanishing clause carries the factor v, so at p | v it
    # reduces to A(b) = 1; the oracle disagrees there, and only there
    t0 = time.perf_counter()
    rng = random.Random(3)
    recs = [LinearRecurrence(*(rng.randint(-6, 6) for _ in range(4))) for _ in range(120)]
    sweep = crossval_theorem3(recs, primes_upto(31), range(1, 13), range(13))
    elapsed = time.perf_counter() - t0
    p_divides_v = [c for c in sweep.cells if c.rec.v % c.prime == 0 and not c.identically_zero]
    wrong_at_p_divides_v = sum(c.disagrees for c in p_divides_v)
    wrong_elsewhere = len(sweep.disagreements) - wrong_at_p_divides_v
    ok = (
        len(sweep.cells) == 120 * 11 * 12 * 13
        and wrong_elsewhere == 0
        and wrong_at_p_divides_v > 0
    )
    with capsys.disabled():
        report_line(
            14, "general criterion vs oracle, 120 random recurrences", ok,
            f"{len(sweep.cells)} cells, {wrong_elsewhere} disagreements where p does not "
            f"divide v, {wrong_at_p_divides_v} of {len(p_divides_v)} non-vacuous cells "
            f"wrong where p | v, {elapsed:.1f}s",
        )


def test_criterion_15_general_criterion_at_large_primes(capsys):
    # criterion 13's grid for each default recurrence, around its rank r: the
    # least d dividing p(p^2 - 1) with M^d scalar mod p, that is s(d-1) = 0,
    # which exists as no default v has a prime factor this large
    t0 = time.perf_counter()
    cells = passes = bad = skipped = 0
    for p in large_primes(25):
        try:
            grids = [(rec, _least_order(p, lambda d: _mat_pow((rec.u, rec.v, 1, 0), d, p)[2] == 0),
                      period_mod(rec, p).period) for rec in THEOREM3_DEFAULT_RECS]
        except ScanExhaustedError:
            skipped += 1
            continue
        for rec, r, per in grids:
            a_values = sorted({t * r + d for t in (1, 2, 3) for d in (-1, 0, 1)})  # r >= 2
            b_values = sorted({*range(4), *range(per - 1, per + 3), *range(r - 1, r + 3)})
            report = crossval_theorem3((rec,), (p,), a_values, b_values)
            cells += len(report.cells)
            passes += sum(c.oracle_holds and not c.identically_zero for c in report.cells)
            bad += len(report.disagreements)
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and passes > 0 and skipped < 40
    with capsys.disabled():
        report_line(
            15, "general criterion vs oracle, 40 primes in [1e6, 1e15]", ok,
            f"{cells} cells, {passes} non-vacuous passes, {bad} disagreements, "
            f"{skipped} primes skipped, {elapsed:.2f}s",
        )
