"""Recurrence terms, shift coefficients, and period machinery.

Oracles here are plain iterated recurrences, Fibonacci fast doubling, a
first-occurrence scan of the state pairs, and the walks that once computed
periods and the rank of apparition, all built inside the tests, so the fast
paths (matrix powers, periods from the exponent of GL2(F_p), period folding)
are checked against an independent route rather than against themselves.
At primes too large to walk, each answer is checked by its certificate.
"""

import itertools
import math
import random
import time
import tracemalloc
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lucaslp
from lucaslp import sequences
from lucaslp.lp import AffineIndexMap, theorem3_condition
from lucaslp.modmath import is_prime, primes_upto
from lucaslp.sequences import (
    FIBONACCI,
    LUCAS_NUMBERS,
    PELL,
    LinearRecurrence,
    PeriodInfo,
    ScanExhaustedError,
    alpha,
    fib,
    fib_mod,
    lucas_mod,
    lucas_num,
    period_mod,
    rec_term,
    s_poly,
    t_poly,
    term_table_mod,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def iterate_rec(a0, a1, u, v, count):
    terms = [a0, a1]
    while len(terms) < count:
        terms.append(u * terms[-1] + v * terms[-2])
    return terms[:count]


FIB_TABLE = iterate_rec(0, 1, 1, 1, 2001)
LUCAS_TABLE = iterate_rec(2, 1, 1, 1, 2001)


def fib_pair_reference(n, p=None):
    """(F(n), F(n+1)) by index doubling, reduced mod p when p is given.

    F(2k) = F(k)(2F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2.
    """
    reduce = (lambda x: x) if p is None else (lambda x: x % p)
    a, b = 0, reduce(1)
    for i in range(n.bit_length() - 1, -1, -1):
        c = reduce(a * (2 * b - a))
        d = reduce(a * a + b * b)
        if (n >> i) & 1:
            a, b = d, reduce(c + d)
        else:
            a, b = c, d
    return a, b


def scan_states_reference(rec, p, scan_limit):
    """(preperiod, period, terms) by a first-occurrence scan of the state pairs."""
    seen = {}
    terms = []
    state = (rec.a0 % p, rec.a1 % p)
    for t in range(scan_limit + 1):
        if state in seen:
            return seen[state], t - seen[state], terms
        seen[state] = t
        terms.append(state[0])
        state = (state[1], (rec.u * state[1] + rec.v * state[0]) % p)
    raise ScanExhaustedError(f"no repeat within {scan_limit} steps")


def cycle_reference(rec, p):
    """(preperiod, period) by walking from state 2 until it returns.

    State 2 lies on its cycle, so the period is its return time, and state
    i is on the cycle iff it equals the cycle state 2 - i steps before
    state 2. Up to p**2 steps and O(1) memory.
    """
    u, v = rec.u % p, rec.v % p
    x, y = rec.a0 % p, rec.a1 % p
    s0, s1 = (x, y), (y, (u * y + v * x) % p)
    s2 = (s1[1], (u * s1[1] + v * y) % p)
    two_back = one_back = state = s2
    period = 0
    while True:
        period += 1
        state = (state[1], (u * state[1] + v * state[0]) % p)
        if state == s2:
            break
        two_back, one_back = one_back, state
    preperiod = 0 if s0 == two_back else 1 if s1 == one_back else 2
    return preperiod, period


def alpha_reference(p):
    """Least n >= 1 with F(n) = 0 mod p, by iterating F mod p."""
    a, b, n = 0, 1 % p, 0
    while True:
        a, b, n = b, (a + b) % p, n + 1
        if a == 0:
            return n


def test_fib_examples():
    assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fib(100) == 354224848179261915075
    with pytest.raises(ValueError):
        fib(-1)


def test_lucas_examples():
    assert [lucas_num(n) for n in range(11)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
    with pytest.raises(ValueError):
        lucas_num(-1)


def test_fib_lucas_match_iteration():
    for n in range(2001):
        assert fib(n) == FIB_TABLE[n]
        assert lucas_num(n) == LUCAS_TABLE[n]


def test_fib_mod_examples():
    assert fib_mod(10, 5) == 0
    assert fib_mod(0, 7) == 0
    assert lucas_mod(0, 7) == 2
    assert lucas_mod(7, 3) == 29 % 3
    with pytest.raises(ValueError):
        fib_mod(3, 10)


def test_modular_paths_match_iteration():
    pell_table = iterate_rec(0, 1, 2, 1, 2001)
    for p in primes_upto(101):
        for n in range(2001):
            assert fib_mod(n, p) == FIB_TABLE[n] % p, (n, p)
            assert lucas_mod(n, p) == LUCAS_TABLE[n] % p, (n, p)
            assert rec_term(PELL, n, p) == pell_table[n] % p, (n, p)


def test_modular_paths_huge_index():
    # fast doubling is the independent route at indices where iteration is
    # out of the question
    n = 2**64 - 1
    for p in SMALL_PRIMES:
        f, f_next = fib_pair_reference(n, p)
        assert fib_mod(n, p) == rec_term(FIBONACCI, n, p) == f
        assert lucas_mod(n, p) == rec_term(LUCAS_NUMBERS, n, p) == (2 * f_next - f) % p


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**70), st.sampled_from([2, 3, 5, 7, 101, 1000003]))
@example(0, 2)
@example(2**70, 1000003)
def test_fib_lucas_mod_match_fast_doubling(n, p):
    f, f_next = fib_pair_reference(n, p)
    assert fib_mod(n, p) == f
    assert lucas_mod(n, p) == (2 * f_next - f) % p


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=20000))
def test_fib_lucas_match_fast_doubling(n):
    f, f_next = fib_pair_reference(n)
    assert fib(n) == f
    assert lucas_num(n) == 2 * f_next - f


def test_term_functions_reject_bad_arguments():
    for call in (
        lambda: fib(-1),
        lambda: lucas_num(-1),
        lambda: fib_mod(-1, 7),
        lambda: lucas_mod(-1, 7),
        lambda: fib_mod(3, 10),
        lambda: lucas_mod(3, 1),
        lambda: rec_term(PELL, 3, 9),
    ):
        with pytest.raises(ValueError):
            call()


def test_linear_recurrence_parsing():
    rec = LinearRecurrence.from_string("2,1,3,2")
    assert rec == LinearRecurrence(2, 1, 3, 2)
    assert rec.as_string() == "2,1,3,2"
    assert LinearRecurrence.from_string("-1,2,-3,4").u == -3
    for bad in ("1,2,3", "1,2,3,4,5", "a,b,c,d", ""):
        with pytest.raises(ValueError):
            LinearRecurrence.from_string(bad)


def test_seed_discriminant():
    assert FIBONACCI.seed_discriminant() == -1
    assert LUCAS_NUMBERS.seed_discriminant() == 5
    assert PELL.seed_discriminant() == -1


def test_rec_term_examples():
    assert rec_term(FIBONACCI, 10) == 55
    assert rec_term(LUCAS_NUMBERS, 0) == 2
    assert [rec_term(PELL, n) for n in range(9)] == [0, 1, 2, 5, 12, 29, 70, 169, 408]
    assert [rec_term(LinearRecurrence(1, 2, 1, 1), n) for n in range(9)] == [
        1, 2, 3, 5, 8, 13, 21, 34, 55,
    ]
    assert [rec_term(LinearRecurrence(2, 1, 3, 2), n) for n in range(8)] == [
        2, 1, 7, 23, 83, 295, 1051, 3743,
    ]
    with pytest.raises(ValueError):
        rec_term(FIBONACCI, -2)


def test_rec_term_matches_iteration():
    rng = random.Random(7)
    recs = [FIBONACCI, LUCAS_NUMBERS, PELL]
    recs += [
        LinearRecurrence(*(rng.randint(-6, 6) for _ in range(4))) for _ in range(5)
    ]
    for rec in recs:
        table = iterate_rec(rec.a0, rec.a1, rec.u, rec.v, 201)
        for n in range(201):
            assert rec_term(rec, n) == table[n], (rec, n)
            for p in SMALL_PRIMES:
                assert rec_term(rec, n, p) == table[n] % p, (rec, n, p)


coefficient = st.integers(min_value=-9, max_value=9)


@settings(max_examples=60)
@given(coefficient, coefficient, coefficient, coefficient)
@example(3, -2, 0, 5)
@example(-4, 7, 6, 0)
@example(1, 1, 0, 0)
@example(0, 0, 0, 0)
def test_rec_term_matches_iteration_for_all_coefficients(a0, a1, u, v):
    rec = LinearRecurrence(a0, a1, u, v)
    table = iterate_rec(a0, a1, u, v, 301)
    for n in range(301):
        assert rec_term(rec, n) == table[n], n
        for p in (2, 3, 7):
            assert rec_term(rec, n, p) == table[n] % p, (n, p)


def test_s_poly_examples():
    assert s_poly(0, 9, -7) == 1
    assert s_poly(1, 4, 11) == 4
    assert s_poly(4, 1, 1) == 5
    assert s_poly(3, 2, 1) == 12
    with pytest.raises(ValueError):
        s_poly(-1, 1, 1)


def test_s_poly_matches_the_binomial_sum():
    # s_poly reads M^(k+1); the binomial sum it replaced is the reference
    for u, v in ((1, 1), (2, 1), (3, -2), (-4, -7), (5, 0), (0, 3), (-1, 0), (0, 0), (7, -11)):
        for k in range(41):
            expected = sum(
                math.comb(k - i, i) * u ** (k - 2 * i) * v**i for i in range(k // 2 + 1)
            )
            assert s_poly(k, u, v) == expected, (k, u, v)


def test_t_poly_examples():
    assert t_poly(0, 9, -7) == 0
    assert t_poly(1, 4, 11) == 11
    assert t_poly(4, 1, 1) == 3
    with pytest.raises(ValueError):
        t_poly(-1, 1, 1)


def test_s_poly_fibonacci_bridge():
    for k in range(300):
        assert s_poly(k, 1, 1) == FIB_TABLE[k + 1], k


def test_s_poly_pell_bridge():
    pell = iterate_rec(0, 1, 2, 1, 302)
    for k in range(300):
        assert s_poly(k, 2, 1) == pell[k + 1], k


def test_t_is_v_times_shifted_s():
    # t_poly computes t(k) as v*s(k-1): both equal t's own binomial sum
    for u, v in itertools.product(range(-5, 6), repeat=2):
        for k in range(1, 80):
            t = sum(
                math.comb(k - 1 - j, j) * u ** (k - 1 - 2 * j) * v ** (j + 1)
                for j in range((k - 1) // 2 + 1)
            )
            assert t_poly(k, u, v) == v * s_poly(k - 1, u, v) == t, (k, u, v)


def test_period_examples():
    assert period_mod(FIBONACCI, 5) == PeriodInfo(0, 20)
    assert period_mod(FIBONACCI, 2) == PeriodInfo(0, 3)
    assert period_mod(LinearRecurrence(1, 1, 1, 0), 5) == PeriodInfo(0, 1)
    assert period_mod(LinearRecurrence(0, 1, 1, 0), 5) == PeriodInfo(1, 1)


def test_term_table_reconstructs_sequence():
    rng = random.Random(3)
    recs = [FIBONACCI, LUCAS_NUMBERS, PELL, LinearRecurrence(0, 1, 1, 0)]
    recs += [
        LinearRecurrence(*(rng.randint(-5, 5) for _ in range(4))) for _ in range(5)
    ]
    for rec in recs:
        table_len = 400
        raw = iterate_rec(rec.a0, rec.a1, rec.u, rec.v, table_len)
        for p in SMALL_PRIMES:
            info, terms = term_table_mod(rec, p)
            assert len(terms) == info.preperiod + info.period
            for n in range(table_len):
                if n < len(terms):
                    got = terms[n]
                else:
                    got = terms[info.preperiod + (n - info.preperiod) % info.period]
                assert got == raw[n] % p, (rec, p, n)


def test_period_minimality():
    # no proper divisor of the reported period is a period of the state pairs
    for rec in (FIBONACCI, LUCAS_NUMBERS, PELL):
        for p in SMALL_PRIMES:
            pre, per = period_mod(rec, p)
            assert pre == 0  # v = 1 is invertible, so purely periodic
            raw = iterate_rec(rec.a0, rec.a1, rec.u, rec.v, 2 * per + 2)
            states = [(raw[n] % p, raw[n + 1] % p) for n in range(2 * per + 1)]
            assert all(states[n] == states[n + per] for n in range(per))
            for d in range(1, per):
                if per % d == 0:
                    assert any(states[n] != states[n + d] for n in range(per)), (rec, p, d)


@settings(max_examples=60)
@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.sampled_from(SMALL_PRIMES),
)
def test_preperiod_zero_when_v_invertible(a0, a1, u, v, p):
    if v % p == 0:
        return
    rec = LinearRecurrence(a0, a1, u, v)
    assert period_mod(rec, p).preperiod == 0


def test_scan_limit_exhaustion():
    with pytest.raises(ScanExhaustedError):
        period_mod(FIBONACCI, 13, scan_limit=3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_period_walk_matches_state_scan(p):
    # every recurrence mod p, including v = 0 (preperiods 1 and 2) and u = v = 0
    for a0, a1, u, v in itertools.product(range(p), repeat=4):
        rec = LinearRecurrence(a0, a1, u, v)
        pre, per, terms = scan_states_reference(rec, p, p * p + 1)
        assert pre <= 2, rec
        assert period_mod(rec, p) == PeriodInfo(pre, per), rec
        assert term_table_mod(rec, p) == (PeriodInfo(pre, per), terms), rec
        # the scan limit is met exactly by preperiod + period
        assert period_mod(rec, p, scan_limit=pre + per) == (pre, per)
        assert term_table_mod(rec, p, scan_limit=pre + per)[0] == (pre, per)
        with pytest.raises(ScanExhaustedError):
            period_mod(rec, p, scan_limit=pre + per - 1)
        with pytest.raises(ScanExhaustedError):
            term_table_mod(rec, p, scan_limit=pre + per - 1)


def test_period_walk_keeps_no_visited_states():
    # the period is 344568 state pairs; a visited-state dict peaked at 47 MB
    tracemalloc.start()
    try:
        info = period_mod(LinearRecurrence(5, 3, 2, 4), 587)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info == PeriodInfo(0, 344568)
    assert peak < 1_000_000


def test_caches_are_bounded():
    caches = [
        value
        for module in (lucaslp.modmath, lucaslp.sequences, lucaslp.lp, lucaslp.special)
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    ]
    # the factorial tables of modmath and special are built per call, not cached
    assert set(caches) == {sequences._rec_term, sequences.s_poly}
    assert all(cache.cache_info().maxsize is not None for cache in caches)
    # the term cache holds exact terms only: residues mod p are not memoized
    before = sequences._rec_term.cache_info().currsize
    rec = LinearRecurrence(2, 1, 3, 2)
    for b in range(20000):
        theorem3_condition(rec, AffineIndexMap(1, b), 10007)
    assert sequences._rec_term.cache_info().currsize == before


def test_exact_terms_at_large_indices_are_not_memoized():
    # a cache bounded by count held 1.87 MB after these 100 calls
    tracemalloc.start()
    try:
        for i in range(100):
            fib(200000 + i)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 100_000
    assert fib(200000) % 1000003 == fib_mod(200000, 1000003)


def test_alpha_examples():
    assert alpha(2) == 3
    assert alpha(3) == 4
    assert alpha(5) == 5
    assert alpha(7) == 8
    assert alpha(11) == 10
    assert alpha(13) == 7
    assert alpha(89) == 11
    with pytest.raises(ValueError):
        alpha(6)


def test_alpha_is_least_zero():
    for p in primes_upto(60):
        k = alpha(p)
        assert fib_mod(k, p) == 0
        assert all(fib_mod(n, p) != 0 for n in range(1, k))


def test_fib_gcd_identity_sample():
    for m in range(1, 40):
        for n in range(1, 40):
            assert math.gcd(fib(m), fib(n)) == fib(math.gcd(m, n))


PRIMES_BELOW_2000 = [int(p) for p in primes_upto(1999)]


def test_alpha_and_fibonacci_period_match_walks_below_2000():
    for p in PRIMES_BELOW_2000:
        k = alpha_reference(p)
        assert alpha(p) == k, p
        assert alpha(p, scan_limit=k) == k
        with pytest.raises(ScanExhaustedError):
            alpha(p, scan_limit=k - 1)
        assert period_mod(FIBONACCI, p) == cycle_reference(FIBONACCI, p), p


any_int = st.integers(min_value=-10**30, max_value=10**30)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(PRIMES_BELOW_2000), any_int, any_int, any_int, any_int)
@example(1999, 3, 5, 2 * 1999, 7)  # u = 0 mod p
@example(1997, 1, 2, 3, -1997)  # v = 0 mod p: preperiod up to 2
@example(1993, 4, 0, 5, 0)  # v = 0 and A(1) = 0: preperiod 1, period 1
@example(2, 1, 1, 0, 0)  # u = v = 0
@example(1987, 0, 0, 5, 3)  # the zero sequence
def test_period_matches_walk_below_2000(p, a0, a1, u, v):
    rec = LinearRecurrence(a0, a1, u, v)
    pre, per = cycle_reference(rec, p)
    assert period_mod(rec, p) == PeriodInfo(pre, per)
    assert period_mod(rec, p, scan_limit=pre + per) == (pre, per)
    with pytest.raises(ScanExhaustedError):
        period_mod(rec, p, scan_limit=pre + per - 1)


# p - 1 for the second is 2 times two 40-bit primes
LARGE_PRIMES = [1000000000039, 1228559431195504946317379]


@cache
def group_exponent_primes(p):
    """The primes of p(p^2 - 1), each checked prime and jointly complete."""
    primes = {p}
    for n in (p - 1, p + 1):
        found = sequences._prime_factors(n, [sequences._FACTOR_STEPS])
        assert all(is_prime(q) for q in found)
        for q in found:
            while n % q == 0:
                n //= q
        assert n == 1
        primes |= found
    return primes


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_alpha_at_large_primes_is_certified(p):
    start = time.perf_counter()
    k = alpha(p)
    assert time.perf_counter() - start < 2.0
    # F(n) = 0 mod p exactly for the multiples of the rank, so the rank
    # divides k and no k // q
    assert p * (p * p - 1) % k == 0
    assert fib_mod(k, p) == 0
    for q in group_exponent_primes(p):
        if k % q == 0:
            assert fib_mod(k // q, p) != 0, q


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_period_at_large_primes_is_certified(p):
    rec = LinearRecurrence(5, 3, 2, 4)
    start = time.perf_counter()
    pre, per = period_mod(rec, p)
    assert time.perf_counter() - start < 2.0

    def state(n):
        return rec_term(rec, n, p), rec_term(rec, n + 1, p)

    # v = 4 is a unit, so the state pairs are purely periodic
    assert pre == 0
    assert p * (p * p - 1) % per == 0
    assert state(2 + per) == state(2) and state(per) == state(0)
    for q in group_exponent_primes(p):
        if per % q == 0:
            assert state(2 + per // q) != state(2), q


def test_linear_recurrence_record():
    rec = LinearRecurrence(0, 1, 1, 1)
    assert rec == LinearRecurrence(a0=0, a1=1, u=1, v=1) == FIBONACCI
    assert LinearRecurrence(0, 1, v=1, u=1) == FIBONACCI
    assert hash(rec) == hash(FIBONACCI)
    assert repr(FIBONACCI) == "LinearRecurrence(a0=0, a1=1, u=1, v=1)"
    assert repr(LinearRecurrence(5, 3, 2, 4)) == "LinearRecurrence(a0=5, a1=3, u=2, v=4)"
    assert LinearRecurrence.from_string("5,3,2,4") == LinearRecurrence(5, 3, 2, 4)
    assert LinearRecurrence(-1, 2, -3, 4).as_string() == "-1,2,-3,4"
    assert (rec.a0, rec.a1, rec.u, rec.v) == (0, 1, 1, 1)
    for name in ("a0", "a1", "u", "v"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 7)
    assert rec == FIBONACCI and rec != LUCAS_NUMBERS
