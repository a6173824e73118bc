"""Apery numbers and reciprocal-Bessel coefficients.

The exact omega values are cross-checked against a second, structurally
different oracle: inverting the defining power series over the rationals.
"""

import gc
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import comb, factorial
from pathlib import Path

import pytest

import lucaslp.lp
import lucaslp.special
from hypothesis import given, settings
from hypothesis import strategies as st

from lucaslp.lp import AperySequence, OmegaSequence, TableSequence, lp_bruteforce
from lucaslp.modmath import binomial_mod_lucas, primes_upto
from lucaslp.special import (
    _apery_digits, _apery_terms, _omega_residues, _omega_terms, apery, apery_mod, omega,
    omega_mod,
)

OMEGA_FIRST = [
    1,
    1,
    3,
    19,
    211,
    3651,
    90921,
    3081513,
    136407699,
    7642177651,
    528579161353,
    44237263696473,
    4405990782649369,
]

APERY_FIRST = [1, 5, 73, 1445, 33001, 819005, 21460825]


def omega_by_series_inversion(count):
    # coefficients c of the reciprocal of sum (-1)^k z^k / (k!)^2,
    # recovered over Q; then w(n) = c(n) * (n!)^2
    a = [Fraction((-1) ** k, factorial(k) ** 2) for k in range(count)]
    c = [Fraction(1)]
    for n in range(1, count):
        c.append(-sum(a[k] * c[n - k] for k in range(1, n + 1)))
    out = []
    for n in range(count):
        value = c[n] * factorial(n) ** 2
        assert value.denominator == 1
        out.append(value.numerator)
    return out


def apery_mod_reference(n, p):
    # every k <= n, one Lucas binomial pair per k
    acc = 0
    for k in range(n + 1):
        a = binomial_mod_lucas(n, k, p)
        if a == 0:
            continue
        b = binomial_mod_lucas(n + k, k, p)
        acc = (acc + a * a * b * b) % p
    return acc


_omega_reference_tables = {}


def omega_mod_reference(n, p):
    # the convolution over every 1 <= k <= m, one Lucas binomial per k
    table = _omega_reference_tables.setdefault(p, [1 % p])
    while len(table) <= n:
        m = len(table)
        acc = 0
        for k in range(1, m + 1):
            c = binomial_mod_lucas(m, k, p)
            if c == 0:
                continue
            term = c * c % p * table[m - k] % p
            acc = acc + term if k % 2 else acc - term
        table.append(acc % p)
    return table[n]


def test_omega_first_values():
    assert [omega(n) for n in range(len(OMEGA_FIRST))] == OMEGA_FIRST
    with pytest.raises(ValueError):
        omega(-1)


def test_omega_matches_series_inversion():
    expected = omega_by_series_inversion(26)
    assert [omega(n) for n in range(26)] == expected


def test_omega_convolution_identity():
    # sum over k of (-1)^k C(n,k)^2 w(n-k) vanishes for n >= 1
    for n in range(1, 41):
        acc = sum((-1) ** k * comb(n, k) ** 2 * omega(n - k) for k in range(n + 1))
        assert acc == 0, n


def test_omega_stream_matches_omega():
    assert list(islice(_omega_terms(), 61)) == [omega(n) for n in range(61)]


def test_omega_keeps_no_table_after_it_returns():
    # a module-level prefix table held 237 kB after omega(500), never freed
    omega(3)  # imports and first-call state outside the traced window
    tracemalloc.start()
    try:
        value = omega(500)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - sys.getsizeof(value) < 10_000


def test_omega_mod_keeps_no_table_after_it_returns():
    # a 4-prime cache of per-prime prefix tables held 17.7 kB after this call
    omega_mod(20, 13)  # imports and full factorial tables outside the traced window
    tracemalloc.start()
    try:
        value = omega_mod(2000, 13)
        gc.collect()  # a full collection empties the tuple and list free lists
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4_000
    # 2000 has base-13 digits (11, 10, 11), and omega has the Lucas property
    assert value == omega(11) ** 2 * omega(10) % 13


def test_omega_mod_matches_exact():
    for p in primes_upto(13):
        for n in range(61):
            assert omega_mod(n, p) == omega(n) % p, (n, p)
    with pytest.raises(ValueError):
        omega_mod(3, 8)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        omega_mod(-1, 5)


def test_omega_mod_tables_are_bounded():
    primes = (17, 19, 23, 29, 31)
    for p in primes + primes[:1]:  # the first prime again, after four others
        assert [omega_mod(n, p) for n in range(30)] == [omega(n) % p for n in range(30)], p


@pytest.mark.parametrize("p, count", [(2, 2**3), (3, 3**3), (5, 5**3), (7, 7**3), (3, 3**5)])
def test_omega_mod_groups_match_full_convolution(p, count):
    # every index below p^3 (and 3^5) spans several digit groups of p
    # indices, with k_h != 0 terms reaching back across groups
    expected = [omega_mod_reference(n, p) for n in range(count)]
    assert [omega_mod(n, p) for n in range(count)] == expected
    assert list(OmegaSequence().iter_residues(p, count)) == expected
    assert list(islice(_omega_residues(p), count)) == expected


def test_omega_mod_out_of_order_queries():
    assert omega_mod(200, 5) == omega_mod_reference(200, 5)
    for n in (7, 0, 124, 25, 3, 200):
        assert omega_mod(n, 5) == omega_mod_reference(n, 5), n
    # five primes in turn: each query reads its own stream from w(0)
    for n in (40, 3, 97, 0, 26, 130):
        for p in (2, 3, 5, 7, 11):
            assert omega_mod(n, p) == omega_mod_reference(n, p), (n, p)


def test_small_queries_at_a_large_prime_do_no_quadratic_work():
    # a p x p table of digit binomials would take minutes at this prime
    p = 100003
    for n, modular, exact in [(n, omega_mod, omega) for n in range(4)] + [(1, apery_mod, apery)]:
        t0 = time.perf_counter()
        value = modular(n, p)
        elapsed = time.perf_counter() - t0
        assert value == exact(n) % p, (modular.__name__, n)
        assert elapsed < 1.0, (modular.__name__, n, elapsed)


def test_omega_at_a_large_prime_grows_its_vectors_only_to_n():
    # p-entry factorial, signed and group vectors peaked at 145 MB RSS for
    # `special --seq omega --n 3 --prime 1000003`
    p = 1000003
    tracemalloc.start()
    try:
        values = [omega_mod(n, p) for n in range(4)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values == [omega_mod_reference(n, p) for n in range(4)] == [1, 1, 3, 19]
    assert peak < 100_000


@pytest.mark.parametrize("p", [2, 5, 7, 11])
def test_omega_vectors_grow_across_the_first_group(p):
    # small queries first, then one that starts groups h >= 1
    for n in (0, 1, 3, p - 2, p - 1, p, 3 * p + 1, 2, p * p + 3):
        assert omega_mod(n, p) == omega_mod_reference(n, p), (n, p)


def test_small_digits_at_a_large_prime_build_small_factorial_tables():
    # full tables at this prime held 2p residues, 108 MB peak RSS for two
    # digit binomials; only the entries up to the largest digit are needed
    p = 1000003
    tracemalloc.start()
    try:
        values = [apery_mod(0, p), apery_mod(1, p), binomial_mod_lucas(3 * p + 2, p + 1, p)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values == [1, 5, comb(3, 1) * comb(2, 1) % p]
    assert peak < 100_000
    assert binomial_mod_lucas(40, 17, p) == comb(40, 17) % p
    assert apery_mod(30, p) == apery(30) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
def test_apery_digits_step_the_scaled_recurrence(p):
    # p - 1 is the last digit whose d!^3 is a unit mod p
    assert _apery_digits(p, p - 1) == [apery(d) % p for d in range(p)]
    assert _apery_digits(p, 0) == [1]


def test_apery_first_values():
    assert [apery(n) for n in range(len(APERY_FIRST))] == APERY_FIRST
    with pytest.raises(ValueError):
        apery(-1)


def test_apery_termwise_definition():
    # recompute one value by hand from the binomial sum
    n = 3
    expected = sum(comb(3, k) ** 2 * comb(3 + k, k) ** 2 for k in range(4))
    assert apery(n) == expected == 1445


def test_apery_mod_matches_exact():
    for p in primes_upto(13):
        for n in range(81):
            assert apery_mod(n, p) == apery(n) % p, (n, p)
    with pytest.raises(ValueError):
        apery_mod(-1, 5)


def test_apery_mod_large_index():
    for p in primes_upto(13):
        assert apery_mod(p, p) == apery(p) % p
        assert apery_mod(p + 1, p) == apery(p + 1) % p
    # every digit is p-1, so only k = 0 is carry-free: one term, value 1,
    # where a walk over every k <= n could never finish
    assert apery_mod(13**40 - 1, 13) == 1


def test_apery_mod_walks_digits_not_a_box():
    # 40 digits of 15 at p = 31: a walk over the carry-free digit box of k
    # reads 16^40 terms; a subprocess keeps a slow route from hanging the suite
    script = (
        "from lucaslp.special import apery_mod; "
        "print(apery_mod(sum(15 * 31**i for i in range(40)), 31))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == apery(15) ** 40 % 31 == 5


def test_apery_stream_matches_the_definitional_sum():
    assert list(islice(_apery_terms(), 120)) == [apery(n) for n in range(120)]


def test_apery_residues_step_the_recurrence():
    for p in primes_upto(7):
        assert AperySequence().residues(p, p**3) == [apery(n) % p for n in range(p**3)], p


def test_apery_oracle_does_not_read_apery_mod(monkeypatch):
    # the oracle reads A(n) whole, never the digit product it tests
    def refuse(n, p):
        raise AssertionError("apery_mod read by the oracle")

    # lp must not hold its own reference to it either
    monkeypatch.setattr(lucaslp.special, "apery_mod", refuse)
    monkeypatch.setattr(lucaslp.lp, "apery_mod", refuse, raising=False)
    for p in primes_upto(13):
        assert lp_bruteforce(AperySequence(), p, 3).holds, p


@st.composite
def prime_and_index(draw):
    p = draw(st.sampled_from(primes_upto(13)))
    return p, draw(st.integers(min_value=0, max_value=p**3 - 1))


@settings(max_examples=150, deadline=None)
@given(prime_and_index())
def test_digit_box_sums_match_full_range_sums(case):
    p, n = case
    assert apery_mod(n, p) == apery_mod_reference(n, p)
    assert omega_mod(n, p) == omega_mod_reference(n, p)


@pytest.mark.parametrize("p", [5, 7])
def test_oracle_verdict_matches_exact_residue_stream(p):
    # the same scan over residues reduced from the exact integers, so the
    # oracle's verdict does not rest on the residue code under test
    # (the exact omega values come from one stream, as each omega(n) call
    # steps the convolution from w(0))
    count = p**3
    for spec, exact in ((AperySequence(), map(apery, range(count))),
                        (OmegaSequence(), _omega_terms())):
        stream = TableSequence(tuple(islice(exact, count)))
        assert lp_bruteforce(spec, p, 3) == lp_bruteforce(stream, p, 3)
