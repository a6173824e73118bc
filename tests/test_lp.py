"""The brute-force oracle, criterion evaluators, and cross-validation sweeps.

The golden values here (smallest counterexamples, valid offset sets, failing
primes) were frozen from an independent naive implementation that recomputes
digit products from scratch per index; the reference checker below mirrors
that route so every verdict can be re-derived inside the tests.
"""

import random
import time
import tracemalloc
from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucaslp.modmath import Prime, digits_base_p, is_prime, primes_upto
import lucaslp.lp as lp_module
import lucaslp.modmath as modmath_module
import lucaslp.sequences as sequences_module
from lucaslp.lp import (
    AS_PROVED,
    AS_STATED,
    AffineIndexMap,
    AgreementReport,
    AperySequence,
    BEnumeration,
    Counterexample,
    GridCell,
    LPVerdict,
    NotFoundWithinBoundError,
    OmegaSequence,
    PowerSequence,
    TableSequence,
    TableTooShortError,
    THEOREM3_DEFAULT_RECS,
    corollary1_counterexample,
    crossval_theorem1,
    crossval_theorem2,
    crossval_theorem3,
    enumerate_valid_b,
    fib_affine,
    general_affine,
    lemma1_check,
    lemma2_check,
    lemma3_closed_form,
    lp_bruteforce,
    lucas_affine,
    sequence_is_zero_mod,
    theorem1_condition,
    theorem2_condition,
    theorem3_condition,
    _FAMILIES,
    _clauses,
)
from lucaslp.sequences import (
    FIBONACCI,
    LUCAS_NUMBERS,
    PELL,
    LinearRecurrence,
    ScanExhaustedError,
    fib_mod,
    lucas_mod,
    period_mod,
    rec_term,
    s_poly,
    term_table_mod,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]

# p | v gives A(n) mod p a positive preperiod at p = 5: 1,4,2,5 is also the
# recurrence where criterion 3 disagrees with the oracle, and 0,0,3,2
# vanishes identically
PREPERIOD_RECS = (
    LinearRecurrence(1, 4, 2, 5),
    LinearRecurrence(1, 1, 5, 5),
    LinearRecurrence(0, 0, 3, 2),
)
SWEEP_PRIMES = (2, 3, 5, 7)
SWEEP_A = range(1, 26)  # past the period of several recurrences at these primes
SWEEP_B = range(10)

CRITERIA = {
    "fib": lambda rec, m, p, reading: theorem1_condition(m, p),
    "lucas": lambda rec, m, p, reading: theorem2_condition(m, p, reading),
    "general": lambda rec, m, p, reading: theorem3_condition(rec, m, p),
}


def naive_scan(spec, p, digit_bound):
    """Reference check: recompute every digit product from scratch."""
    p = int(p)
    vals = spec.residues(p, p**digit_bound)
    for n in range(p**digit_bound):
        prod = 1
        m = n
        if m == 0:
            prod = vals[0]
        else:
            while m:
                prod = prod * vals[m % p] % p
                m //= p
        if vals[n] % p != prod % p:
            return n, vals[n] % p, prod % p
    return None


def full_scan_reference(spec, p, digit_bound):
    """The oracle without its row bound: every n < p**digit_bound."""
    p = Prime(p)
    pi = int(p)
    it = spec.iter_residues(p, pi**digit_bound)
    head = list(islice(it, pi))
    prods = list(head)
    n = pi
    for lhs in it:
        rhs = prods[n // pi] * head[n % pi] % pi
        if lhs != rhs:
            return LPVerdict(
                False, p, digit_bound, Counterexample(n, lhs, digits_base_p(n, p).digits, rhs)
            )
        prods.append(rhs)
        n += 1
    return LPVerdict(True, p, digit_bound)


def assert_verdict_consistent(spec, p, verdict, digit_bound=3):
    naive = naive_scan(spec, p, digit_bound)
    if verdict.holds:
        assert naive is None
        assert verdict.counterexample is None
    else:
        ce = verdict.counterexample
        assert naive is not None
        assert (ce.n, ce.lhs, ce.rhs) == naive
        assert digits_base_p(ce.n, p).digits == ce.digits


# ---------------------------------------------------------------------------
# sequence specs


def test_affine_index_map_validation():
    AffineIndexMap(1, 0)
    with pytest.raises(ValueError):
        AffineIndexMap(0, 1)
    with pytest.raises(ValueError):
        AffineIndexMap(2, -1)


def test_affine_residues_match_direct_terms():
    # the reference is a plain mod-p loop over A, not the matrix step under test
    rng = random.Random(5)
    recs = [FIBONACCI, LUCAS_NUMBERS, PELL, *PREPERIOD_RECS]
    recs += [LinearRecurrence(1, 0, 1, 2), LinearRecurrence(1, 1, 2, 2)]  # p = 2 divides v
    recs += [LinearRecurrence(*(rng.randint(-5, 5) for _ in range(4))) for _ in range(4)]
    count = 60
    preperiods = set()
    for rec in recs:
        for p in (2, 3, 5, 7):
            pre, per = period_mod(rec, p)
            preperiods.add(pre)
            cases = [
                (1, 0), (3, 2), (8, 7),
                (per, 1), (3 * per, 0), (per + 1, 2),  # strides at and past the period
                (p * p + 1, 3), (p**3 + 2, 1),  # strides past p*p
                (1, pre + per), (2, 3 * (pre + per) + 1),  # offsets past pre + per
            ]
            terms = [rec.a0 % p, rec.a1 % p]
            while len(terms) < max(a * (count - 1) + b for a, b in cases) + 1:
                terms.append((rec.u * terms[-1] + rec.v * terms[-2]) % p)
            for a, b in cases:
                spec = general_affine(rec, a, b)
                want = [terms[a * n + b] for n in range(count)]
                assert spec.residues(p, count) == want, (rec, p, a, b)
                assert list(spec.iter_residues(p, count)) == want, (rec, p, a, b)
    assert preperiods == {0, 1, 2}


def test_spec_describe():
    assert fib_affine(2, 3).describe() == {"variant": "fib-affine", "a": 2, "b": 3}
    assert lucas_affine(1, 0).describe() == {"variant": "lucas-affine", "a": 1, "b": 0}
    d = general_affine(PELL, 2, 1).describe()
    assert d["rec"] == "0,1,2,1" and d["variant"] == "general-affine"
    assert PowerSequence(7).describe() == {"variant": "power", "base": 7}
    assert AperySequence().describe() == {"variant": "apery"}
    assert OmegaSequence().describe() == {"variant": "omega"}
    assert TableSequence((1, 2)).describe() == {"variant": "table", "length": 2}


def test_power_sequence_residues():
    assert PowerSequence(3).residues(5, 5) == [1, 3, 4, 2, 1]
    assert PowerSequence(5).residues(5, 3) == [1, 0, 0]  # 5**0 = 1 first
    assert PowerSequence(0).residues(7, 4) == [1, 0, 0, 0]
    assert PowerSequence(-2).residues(5, 4) == [1, 3, 4, 2]
    p = 1000000000039
    assert PowerSequence(3 * p).residues(p, 3) == [1, 0, 0]
    assert PowerSequence(-p - 3).residues(p, 3) == [1, p - 3, 9]
    for base, p, count in ((3, 5, 7), (-2, 5, 6), (0, 2, 3), (10**20 + 1, 13, 20)):
        spec = PowerSequence(base)
        expected = [pow(base, n, p) for n in range(count)]
        assert list(spec.iter_residues(p, count)) == spec.residues(p, count) == expected


def test_table_sequence_too_short():
    spec = TableSequence((1, 1, 1))
    with pytest.raises(TableTooShortError):
        spec.residues(2, 8)
    with pytest.raises(TableTooShortError):
        lp_bruteforce(spec, 2, 3)
    with pytest.raises(ValueError):
        TableSequence(())


# ---------------------------------------------------------------------------
# the oracle


def test_verdict_shape_invariant():
    with pytest.raises(ValueError):
        LPVerdict(True, 2, 3, Counterexample(2, 0, (0, 1), 1))
    with pytest.raises(ValueError):
        LPVerdict(False, 2, 3, None)


def test_bruteforce_digit_bound_validation():
    with pytest.raises(ValueError):
        lp_bruteforce(fib_affine(1, 1), 2, 1)


def test_bruteforce_golden_counterexamples():
    # smallest violations, frozen from the naive reference implementation
    v = lp_bruteforce(fib_affine(1, 1), 2, 3)
    assert not v.holds
    assert v.counterexample == Counterexample(2, 0, (0, 1), 1)

    v = lp_bruteforce(fib_affine(5, 1), 2, 3)
    assert v.counterexample == Counterexample(2, 1, (0, 1), 0)

    v = lp_bruteforce(fib_affine(3, 4), 3, 3)
    assert v.counterexample == Counterexample(3, 2, (0, 1), 0)

    v = lp_bruteforce(fib_affine(6, 6), 3, 3)
    assert v.counterexample == Counterexample(4, 2, (1, 1), 0)


def test_bruteforce_holding_cases():
    # F(5n+1) mod 5: rank of apparition 5 divides the stride, seed F(1) = 1
    assert lp_bruteforce(fib_affine(5, 1), 5, 3).holds
    assert lp_bruteforce(fib_affine(5, 2), 5, 3).holds
    # powers are completely multiplicative, so the congruence is exact
    for base in range(-3, 9):
        for p in SMALL_PRIMES:
            assert lp_bruteforce(PowerSequence(base), p, 3).holds, (base, p)


def test_power_sequences_hold_at_digit_bound_4():
    for p in SMALL_PRIMES:
        for base in range(1, p):
            assert lp_bruteforce(PowerSequence(base), p, 4).holds, (base, p)


def test_bruteforce_matches_naive_reference():
    cases = [
        (fib_affine(a, b), p)
        for p in (2, 3, 5)
        for a in (1, 2, 3, 5, 7)
        for b in (0, 1, 2, 5)
    ]
    cases += [(lucas_affine(a, b), 3) for a in (1, 2, 4) for b in (0, 1, 3)]
    cases += [(general_affine(PELL, a, b), 3) for a in (1, 2, 5) for b in (0, 2)]
    for spec, p in cases:
        assert_verdict_consistent(spec, p, lp_bruteforce(spec, p, 3))


def test_bruteforce_scans_all_indices_below_bound():
    # a table that first deviates at the very last index of the scan
    p = 3
    good = PowerSequence(2).residues(p, p**3)
    broken = list(good)
    broken[-1] = (broken[-1] + 1) % p
    verdict = lp_bruteforce(TableSequence(tuple(broken)), p, 3)
    assert not verdict.holds
    assert verdict.counterexample.n == p**3 - 1


@st.composite
def certified_specs(draw):
    """Affine and power specs, the ones the oracle decides from a k-by-k
    certificate."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    digit_bound = draw(st.integers(2, 4))
    if draw(st.booleans()):
        coefficient = st.integers(-9, 9)
        # v a multiple of p gives A mod p a positive preperiod
        v = draw(st.sampled_from([0, p, -2 * p]) | coefficient)
        rec = LinearRecurrence(draw(coefficient), draw(coefficient), draw(coefficient), v)
        pre, per = period_mod(rec, p)
        # strides that divide or are multiples of the period make S hold more
        # often; offsets below 3 reach the preperiod
        a = draw(
            st.integers(1, 60)
            | st.sampled_from([d for d in range(1, per + 1) if per % d == 0])
            | st.integers(1, 3).map(lambda k: k * per)
        )
        b = draw(st.integers(0, 2) | st.integers(0, pre + per + 5))
        spec = general_affine(rec, a, b)
    else:
        spec = PowerSequence(draw(st.sampled_from([0, p, -p, 3 * p]) | st.integers(-30, 30)))
    return spec, p, digit_bound


@settings(max_examples=400, deadline=None)
@given(certified_specs())
def test_certified_scan_matches_full_scan(case):
    spec, p, digit_bound = case
    reference = full_scan_reference(spec, p, digit_bound)
    assert lp_bruteforce(spec, p, digit_bound) == reference
    # the certificate's premise, read off the full scan: every violation
    # that comes first sits at a state j < k of its row
    assert reference.holds or reference.counterexample.n % p < spec._order


def test_digit_bound_2_is_not_exact():
    # 0, 1, 0, 1, ... mod 2: every n < 4 passes, and the first failure sits
    # at 3p - 1 = 5, row m = 2 and state j = 1 of the certificate
    spec = general_affine(LinearRecurrence(0, 1, 0, 1), 1, 0)
    assert lp_bruteforce(spec, 2, 2).holds
    expected = Counterexample(5, 1, (1, 0, 1), 0)
    for digit_bound in (3, 4, 6):
        verdict = lp_bruteforce(spec, 2, digit_bound)
        assert verdict.counterexample == expected
        assert verdict == full_scan_reference(spec, 2, digit_bound)


def test_certified_scan_is_short_at_a_large_prime():
    # the full scan would read 211**4, about 2e9 terms; the certificate
    # reads two states in each of two rows
    tracemalloc.start()
    try:
        start = time.perf_counter()
        verdict = lp_bruteforce(fib_affine(42, 1), 211, 4)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == LPVerdict(True, 211, 4)
    assert elapsed < 1.0
    assert peak < 5_000_000


# n < p**digit_bound reaches at least 16 terms past the row bound
ROW_BOUND_DIGITS = {2: 6, 3: 4, 5: 3}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_bound_matches_full_scan_for_every_recurrence(p):
    # every recurrence mod p, a < 2p and b < pre + per: the certificate of
    # rows m <= 2 and states j < 2 gives the full scan's verdict and
    # counterexample
    digit_bound = ROW_BOUND_DIGITS[p]
    count = p**digit_bound
    for data in product(range(p), repeat=4):
        rec = LinearRecurrence(*data)
        pre, per = period_mod(rec, p)
        terms = [rec.a0 % p, rec.a1 % p]
        while len(terms) < (2 * p - 1) * count + pre + per:
            terms.append((rec.u * terms[-1] + rec.v * terms[-2]) % p)
        for a in range(1, 2 * p):
            for b in range(pre + per):
                spec = general_affine(rec, a, b)
                reference = full_scan_reference(TableSequence(tuple(terms[b::a][:count])), p, digit_bound)
                assert lp_bruteforce(spec, p, digit_bound) == reference, (rec, a, b)
                assert reference.holds or reference.counterexample.n % p < spec._order


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_row_bound_matches_full_scan_for_power_bases(p):
    # bases c <= p + 1 reach c = 0 mod p (1, 0, 0, ...) and c = 1 mod p
    for base in range(p + 2):
        spec = PowerSequence(base)
        for digit_bound in (2, 3):
            assert lp_bruteforce(spec, p, digit_bound) == full_scan_reference(spec, p, digit_bound)


ALPHA_1000000000039 = 333333333346  # the rank of apparition of F mod p


@pytest.mark.parametrize("spec, p, digit_bound", [
    (PowerSequence(3), 1000003, 2),
    (PowerSequence(3), 1000000000039, 2),
    (fib_affine(ALPHA_1000000000039, 1), 1000000000039, 2),
    (fib_affine(ALPHA_1000000000039, 1), 1000000000039, 4),
])
def test_power_scan_at_a_large_prime_is_fast(spec, p, digit_bound):
    # holding scans: a read of every state of a row took 3p terms for an
    # affine spec and 2p for a power, which hung at p = 1e12; the
    # certificate reads at most four states
    start = time.perf_counter()
    verdict = lp_bruteforce(spec, p, digit_bound)
    assert time.perf_counter() - start < 1.0
    assert verdict == LPVerdict(True, p, digit_bound)
    if spec.variant == "fib-affine":
        assert theorem1_condition(spec.index_map, p)


def test_power_scan_at_a_large_prime_holds_o1_residues():
    # the oracle keeps no p-entry list; the head list alone took about 40 MB
    # here
    tracemalloc.start()
    try:
        verdict = lp_bruteforce(PowerSequence(3), 1000003, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == LPVerdict(True, 1000003, 2)
    assert peak < 1_000_000


def test_early_failure_at_a_large_prime_is_fast():
    # F(n + 1) fails at n = p; the period 2000008 of F mod p once cost a walk
    # of that many steps (0.68 s) before the scan read a term
    start = time.perf_counter()
    verdict = lp_bruteforce(fib_affine(1, 1), 1000003, 2)
    assert time.perf_counter() - start < 0.5
    assert verdict.counterexample.n == 1000003


def test_affine_scan_holds_no_term_table():
    # A(n) mod 587 has period 344568; the scan fails at n = 587 and must not
    # hold the terms of that period (a table of them peaked at 11 MB)
    spec = general_affine(LinearRecurrence(5, 3, 2, 4), 1, 0)
    tracemalloc.start()
    try:
        verdict = lp_bruteforce(spec, 587, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.counterexample.n == 587
    assert peak < 1_000_000


def test_identically_zero_holds_vacuously():
    # L(4n+2) is 0 mod 3 for every n
    spec = lucas_affine(4, 2)
    assert lp_bruteforce(spec, 3, 3).holds
    assert sequence_is_zero_mod(spec, 3, 3)
    assert not sequence_is_zero_mod(fib_affine(5, 1), 5, 3)


def test_zero_check_refuses_a_digit_bound_below_1():
    # a bound of 0 would read n = 0 alone and call F(n) identically zero mod 3
    specs = (fib_affine(1, 0), PowerSequence(2), TableSequence((0, 1, 2)), AperySequence())
    for spec in specs:
        for bound in (0, -1):
            with pytest.raises(ValueError, match=f"digit_bound must be >= 1, got {bound}"):
                sequence_is_zero_mod(spec, 3, bound)
        assert sequence_is_zero_mod(spec, 3, 1) is False


def test_zero_checks_at_a_large_prime_are_fast():
    # a full-length read would ask for p**2 = 1e12 terms, and lemma1_check
    # for p**3; an order-2 spec needs two
    spec = general_affine(LinearRecurrence(0, 0, 1, 1), 1, 0)
    for check, want in [(lambda: sequence_is_zero_mod(spec, 1000003, 2), True),
                        (lambda: lemma1_check(spec, 1000003), None),
                        (lambda: sequence_is_zero_mod(PowerSequence(1000003), 1000003), False),
                        (lambda: lemma1_check(fib_affine(1, 0), 1000003), False)]:
        start = time.perf_counter()
        assert check() is want
        assert time.perf_counter() - start < 1.0


def answers_within_a_second(check):
    start = time.perf_counter()
    answer = check()
    assert time.perf_counter() - start < 1.0
    return answer


def test_zero_check_of_apery_past_islice_answers_from_s0():
    # 5^30 terms is past what islice takes; S(0) = 1 answers it
    assert answers_within_a_second(lambda: sequence_is_zero_mod(AperySequence(), 5, 30)) is False


def test_zero_check_of_omega_at_a_large_prime_answers_from_s0():
    assert answers_within_a_second(lambda: sequence_is_zero_mod(OmegaSequence(), 1009, 7)) is False


def test_lemma1_on_a_scan_past_islice_answers_from_s0():
    assert answers_within_a_second(lambda: lemma1_check(AperySequence(), 5, 10**20)) is True


def test_zero_check_never_forms_p_to_the_digit_bound():
    # 5^(10^7) alone took 6-7.5 s to form
    assert answers_within_a_second(
        lambda: sequence_is_zero_mod(AperySequence(), 5, 10**7)) is False


def test_zero_check_of_a_short_table_at_a_huge_digit_bound_prints_its_error():
    # the message once held 5^(10^7), past the int-to-str limit
    start = time.perf_counter()
    with pytest.raises(TableTooShortError) as caught:
        sequence_is_zero_mod(TableSequence((0,) * 10), 5, 10**7)
    assert time.perf_counter() - start < 1.0
    assert str(caught.value) == "table holds 10 values but the scan needs 5^10000000"


def test_zero_check_of_a_table_reads_every_n_below_p_to_the_digit_bound():
    # S(2^18) = 1 lies below 2^19, past a scan capped at p^18
    half = (0,) * 2**18
    assert sequence_is_zero_mod(TableSequence(half + (1,) * 2**18), 2, 19) is False
    assert sequence_is_zero_mod(TableSequence(half + half), 2, 19) is True
    with pytest.raises(TableTooShortError, match="holds 262144 values but the scan needs 524288$"):
        sequence_is_zero_mod(TableSequence(half), 2, 19)


def test_lemma2_stream_reads_stop_at_the_term_budget(monkeypatch):
    # every Apery number is odd, so the geometric form holds mod 2 and a
    # stream read would run to n_bound; omega at 5 answers False early
    monkeypatch.setattr(lp_module, "_TERM_BUDGET", 40)
    assert lemma2_check(AperySequence(), 2, 40)
    for n_bound in (41, 10**30):
        with pytest.raises(ScanExhaustedError, match="stream scan budget of 40 terms$"):
            lemma2_check(AperySequence(), 2, n_bound)
    assert not lemma2_check(OmegaSequence(), 5, 10**30)
    assert not lemma2_check(AperySequence(), 5, 10**30)
    # a table holds its terms already, and reads past the budget
    assert lemma2_check(TableSequence((1,) * 100), 5, 100)


@st.composite
def recurrence_specs(draw):
    """Affine and power specs mod p <= 7, zero seeds and p | base in reach."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        rec = LinearRecurrence(*(draw(st.integers(-6, 6)) for _ in range(4)))
        spec = general_affine(rec, draw(st.integers(1, 20)), draw(st.integers(0, 20)))
    else:
        spec = PowerSequence(draw(st.sampled_from([0, p]) | st.integers(-9, 9)))
    return spec, p


@settings(max_examples=300, deadline=None)
@given(recurrence_specs(), st.integers(1, 3), st.none() | st.integers(1, 400))
def test_zero_checks_equal_full_length_reads(case, digit_bound, scan):
    spec, p = case
    residues = spec.residues(p, max(p**3, scan or 0))
    assert sequence_is_zero_mod(spec, p, digit_bound) == (not any(residues[:p**digit_bound]))
    head = residues[:p**3 if scan is None else scan]
    want = None if not any(head) else False if head[0] != 1 else True
    assert lemma1_check(spec, p, scan) is want


def seeded_order_specs(seed, count):
    """Affine specs (two fifths of them with p | v) and power specs at p <= 13,
    with S = 1, 0, 0, ... both ways."""
    rng = random.Random(seed)
    cases = [(PowerSequence(0), 5), (general_affine(LinearRecurrence(1, 0, 4, 0), 1, 0), 7)]
    for _ in range(count):
        p = rng.choice(SMALL_PRIMES)
        if rng.random() < 0.7:
            a0, a1, u = (rng.randint(-6, 6) for _ in range(3))
            v = p * rng.randint(-2, 2) if rng.random() < 0.4 else rng.randint(-6, 6)
            rec = LinearRecurrence(a0, a1, u, v)
            cases.append((general_affine(rec, rng.randint(1, 12), rng.randint(0, 12)), p))
        else:
            cases.append((PowerSequence(rng.choice([0, p, rng.randint(-9, 9)])), p))
    return cases


def test_zero_and_geometric_checks_read_k_plus_one_terms_at_most(monkeypatch):
    # an order-k spec satisfies its recurrence from n = 0 on: k zeros force
    # all zeros, and S(n) = S(1)**n for n <= k forces it for every n
    cases = [(spec, p, digit_bound, n_bound)
             for spec, p in seeded_order_specs(30, 300)
             for digit_bound, n_bound in ((1, 1), (2, 2), (3, 3), (2, 60))]
    want = [(not any(spec.residues(p, p**digit_bound)),
             lemma2_list_reference(spec, p, n_bound)) for spec, p, digit_bound, n_bound in cases]
    assert set(want) == {(True, False), (False, True), (False, False)}  # zeros are not geometric
    counts = []
    inner = lp_module.SequenceSpec.iter_residues

    def spy(self, p, count):
        counts.append((self._order, count))
        return inner(self, p, count)

    monkeypatch.setattr(lp_module.SequenceSpec, "iter_residues", spy)
    got = [(sequence_is_zero_mod(spec, p, digit_bound), lemma2_check(spec, p, n_bound))
           for spec, p, digit_bound, n_bound in cases]
    assert got == want
    assert all(count <= order + 1 for order, count in counts)
    assert max(count for _, count in counts) == 3


# ---------------------------------------------------------------------------
# lemma checks and closed forms


def test_lemma1_three_states():
    assert lemma1_check(fib_affine(5, 1), 5) is True
    assert lemma1_check(fib_affine(1, 0), 5) is False  # S(0) = 0, S(1) = 1
    assert lemma1_check(lucas_affine(4, 2), 3) is None  # identically zero
    assert lemma1_check(lucas_affine(1, 0), 5) is False  # S(0) = 2
    with pytest.raises(ValueError):
        lemma1_check(fib_affine(1, 1), 5, scan=0)


def test_lemma1_s0_is_not_necessary():
    # S = 3, 0, 0, ... vanishes at every n >= 1, so it has the property mod 7
    # although S(0) = 3: lemma1_check answers False all the same
    spec = general_affine(LinearRecurrence(3, 0, 1, 0), 1, 0)
    assert lp_bruteforce(spec, 7).holds
    assert lemma1_check(spec, 7) is False


def test_lemma2_geometric_form():
    # any sequence with the property and S(1) = s is s**n throughout
    assert lemma2_check(PowerSequence(3), 7, 7**2)
    assert lemma2_check(fib_affine(5, 1), 5, 5**2)
    assert not lemma2_check(fib_affine(1, 1), 2, 4)
    # n_bound 1 and 2 check S(0) = 1 alone; S(0) != 1 fails whatever follows
    assert lemma2_check(TableSequence((1,)), 5, 1)
    assert lemma2_check(TableSequence((6, 4)), 5, 2)
    assert not lemma2_check(TableSequence((2, 4)), 5, 2)
    assert not lemma2_check(TableSequence((1, 2, 3)), 5, 3)
    assert lemma2_check(TableSequence((1, 2, 4, 0)), 5, 3)
    with pytest.raises(ValueError):
        lemma2_check(PowerSequence(2), 3, 0)


def lemma2_list_reference(spec, p, n_bound):
    """lemma2_check as it was, holding every residue in a list."""
    vals = spec.residues(p, n_bound)
    s1 = vals[1] if len(vals) > 1 else 1
    expected = 1 % p
    for v in vals:
        if v != expected:
            return False
        expected = expected * s1 % p
    return True


def test_lemma2_streams_its_residues():
    # the list version held all n_bound residues: 40 MB at n_bound = 10**6
    # mod 1000003, and 8 MB here, where every residue is a shared small int
    # (the table is built before tracing, to keep the traced loop fast)
    table = TableSequence(tuple(PowerSequence(3).iter_residues(251, 10**6)))
    tracemalloc.start()
    try:
        holds = lemma2_check(table, 251, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert holds
    assert peak < 1_000_000


@st.composite
def lemma2_cases(draw):
    p = draw(st.sampled_from(primes_upto(13)))
    s1 = draw(st.integers(min_value=0, max_value=2 * p))
    length = draw(st.integers(min_value=1, max_value=12))
    values = [s1**k for k in range(length)]
    for i in draw(st.lists(st.integers(min_value=0, max_value=length - 1), max_size=2)):
        values[i] += draw(st.integers(min_value=1, max_value=p))  # + p keeps the residue
    return TableSequence(tuple(values)), p, draw(st.integers(min_value=1, max_value=length))


@settings(max_examples=300, deadline=None)
@given(lemma2_cases())
def test_lemma2_matches_the_list_version(case):
    spec, p, n_bound = case
    assert lemma2_check(spec, p, n_bound) == lemma2_list_reference(spec, p, n_bound)


def test_lemma3_closed_forms():
    for n in range(1, 200):
        assert lemma3_closed_form("fib", n) == fib_mod(n, 5), n
        assert lemma3_closed_form("lucas", n) == lucas_mod(n, 5), n
    with pytest.raises(ValueError):
        lemma3_closed_form("fib", 0)
    with pytest.raises(ValueError):
        lemma3_closed_form("pell", 3)


def test_theorem1_condition_examples():
    assert theorem1_condition(AffineIndexMap(5, 1), 5)
    assert theorem1_condition(AffineIndexMap(5, 2), 5)
    assert not theorem1_condition(AffineIndexMap(5, 3), 5)
    assert not theorem1_condition(AffineIndexMap(4, 1), 5)
    assert theorem1_condition(AffineIndexMap(3, 1), 2)


def test_theorem2_condition_readings():
    imap = AffineIndexMap(4, 7)
    assert not theorem2_condition(imap, 3)  # L(7) = 29 = 2 mod 3
    assert theorem2_condition(imap, 3, AS_STATED)  # F(7) = 13 = 1 mod 3
    assert theorem2_condition(AffineIndexMap(4, 1), 3)  # L(1) = 1
    assert not theorem2_condition(AffineIndexMap(4, 0), 3)  # L(0) = 2
    assert not theorem2_condition(AffineIndexMap(1, 1), 3)  # 5F(1) = 5 != 0
    with pytest.raises(ValueError):
        theorem2_condition(imap, 3, "as-written")


def test_theorem2_factor_of_five():
    # at p = 5 the first clause 5 F(a) = 0 holds for every stride
    for a in range(1, 10):
        seed_ok = lucas_mod(1, 5) == 1
        assert theorem2_condition(AffineIndexMap(a, 1), 5) == seed_ok


def test_theorem3_condition_examples():
    # Fibonacci data: factor v*s(a-1)*(v A0^2 + u A0 A1 - A1^2) = -s(a-1)
    assert theorem3_condition(FIBONACCI, AffineIndexMap(5, 1), 5)
    assert not theorem3_condition(FIBONACCI, AffineIndexMap(4, 1), 5)
    # v = 0 recurrences vanish the factor for every stride
    rec = LinearRecurrence(1, 1, 1, 0)
    assert theorem3_condition(rec, AffineIndexMap(1, 0), 5)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([p for p in range(2, 48) if all(p % q for q in range(2, p))]),
    st.integers(1, 60),
    st.integers(0, 60),
    st.tuples(*[st.integers(-6, 6)] * 4),
)
def test_theorem3_residues_match_exact_reference(p, a, b, data):
    # the exact big-int shift coefficient and the iterated term, reduced mod p
    rec = LinearRecurrence(*data)
    vanishing = rec.v * s_poly(a - 1, rec.u, rec.v) * rec.seed_discriminant() % p
    term_b = rec_term(rec, b) % p
    assert _clauses(_FAMILIES["general"], rec, AffineIndexMap(a, b), p) == (vanishing, term_b)
    assert theorem3_condition(rec, AffineIndexMap(a, b), p) == (vanishing == 0 and term_b == 1)


def test_theorem3_residues_at_huge_strides():
    # s(a-1) mod p read from the folded term table of s, an independent route
    rec = LinearRecurrence(1, 2, 3, 5)
    s_rec = LinearRecurrence(1, rec.u, rec.u, rec.v)
    for p in (7, 11, 13):
        (pre, per), terms = term_table_mod(s_rec, p)
        for a in (100000, 2**64 - 1, 10**30 + 7):
            k = a - 1
            s = terms[k if k < pre else pre + (k - pre) % per]
            expected = rec.v * s * rec.seed_discriminant() % p
            vanishing, _ = _clauses(_FAMILIES["general"], rec, AffineIndexMap(a, 0), p)
            assert vanishing == expected, (p, a)


def test_theorem1_and_2_clauses_match_additive_tables():
    # families 1 and 2 have no residue code of their own: their clauses are
    # theorem 3's rule on fixed data, checked here against F and L by addition
    fib_table, lucas_table = [0, 1], [2, 1]
    while len(fib_table) <= 60:
        fib_table.append(fib_table[-1] + fib_table[-2])
        lucas_table.append(lucas_table[-1] + lucas_table[-2])
    fib_family, lucas_family = _FAMILIES["fib"], _FAMILIES["lucas"]
    for p in primes_upto(47):
        for a, b in product(range(1, 61), range(61)):
            imap = AffineIndexMap(a, b)
            f_a, f_b, l_b = fib_table[a] % p, fib_table[b] % p, lucas_table[b] % p
            assert _clauses(fib_family, FIBONACCI, imap, p) == (f_a, f_b)
            five_f_a = 5 * f_a % p
            assert _clauses(lucas_family, LUCAS_NUMBERS, imap, p, AS_PROVED) == (five_f_a, l_b)
            assert _clauses(lucas_family, LUCAS_NUMBERS, imap, p, AS_STATED) == (five_f_a, f_b)
            assert theorem1_condition(imap, p) == (f_a == 0 and f_b == 1)
            assert theorem2_condition(imap, p) == (five_f_a == 0 and l_b == 1)


def test_theorem_conditions_match_on_shared_family():
    # criterion 3 specialized to Fibonacci data must agree with criterion 1
    for p in SMALL_PRIMES:
        for a in range(1, 10):
            for b in range(0, 10):
                imap = AffineIndexMap(a, b)
                assert theorem3_condition(FIBONACCI, imap, p) == theorem1_condition(
                    imap, p
                ), (p, a, b)


# ---------------------------------------------------------------------------
# enumeration and counterexample search


def test_enumerate_valid_b_fib_golden():
    enum = enumerate_valid_b("fib", 5, 5)
    assert enum.preperiod == 0
    assert enum.modulus == 20
    assert enum.valid_b == (1, 2, 8, 19)
    assert enum.predicted_b == (1, 2, 8, 19)
    assert enum.identically_zero_b == (0, 5, 10, 15)
    assert enum.matches_prediction


def test_enumerate_valid_b_lucas_golden():
    enum = enumerate_valid_b("lucas", 1, 5)
    assert enum.modulus == 4
    assert enum.valid_b == (1,)
    assert enum.identically_zero_b == ()
    assert enum.matches_prediction


def test_enumerate_valid_b_can_be_empty():
    # stride 1 never zeroes F(a) mod 7, so no offset passes
    enum = enumerate_valid_b("fib", 1, 7)
    assert enum.valid_b == ()
    assert enum.predicted_b == ()
    assert enum.identically_zero_b == ()
    assert enum.matches_prediction


def test_enumerate_valid_b_general():
    enum = enumerate_valid_b("general", 5, 5, rec=FIBONACCI)
    assert enum.valid_b == (1, 2, 8, 19)
    assert enum.rec == FIBONACCI
    with pytest.raises(ValueError):
        enumerate_valid_b("general", 5, 5)
    with pytest.raises(ValueError):
        enumerate_valid_b("pell", 5, 5)
    with pytest.raises(ValueError):
        enumerate_valid_b("fib", 0, 5)


def test_enumerate_valid_b_refuses_offsets_past_its_budget(monkeypatch):
    # F mod 7 has preperiod 0 and period 16: 16 offsets fit a budget of 16
    monkeypatch.setattr(lp_module, "_CELL_BUDGET", 16)
    assert enumerate_valid_b("fib", 1, 7).modulus == 16

    def refuse(*args, **kwargs):
        raise AssertionError("no offset may be swept past the budget")

    monkeypatch.setattr(lp_module, "_certificate", refuse)
    monkeypatch.setattr(lp_module, "_offset_states", refuse)
    for budget in (15, 10):
        monkeypatch.setattr(lp_module, "_CELL_BUDGET", budget)
        message = f"^16 cells exceed the sweep budget of {budget}$"
        with pytest.raises(ScanExhaustedError, match=message):
            enumerate_valid_b("fib", 1, 7)


def test_stream_scan_refuses_terms_past_its_budget(monkeypatch):
    # 7^2 = 49 terms fit a budget of 49
    monkeypatch.setattr(lp_module, "_TERM_BUDGET", 49)
    specs = (AperySequence(), OmegaSequence(), TableSequence((1,) * 49))
    assert all(lp_bruteforce(spec, 7, 2).holds for spec in specs)

    def refuse(self, p, count):
        raise AssertionError("no term may be read past the budget")

    for spec in specs:
        monkeypatch.setattr(type(spec), "iter_residues", refuse)
    for budget in (48, 10):
        monkeypatch.setattr(lp_module, "_TERM_BUDGET", budget)
        message = f"^7\\^2 terms exceed the stream scan budget of {budget}$"
        for spec in specs:
            with pytest.raises(ScanExhaustedError, match=message):
                lp_bruteforce(spec, 7, 2)
    # specs with an order read their certificate, not a stream of p^digits terms
    assert lp_bruteforce(PowerSequence(3), 7, 4).holds
    assert lp_bruteforce(fib_affine(8, 1), 7, 4).holds


def test_sweep_refuses_a_grid_past_its_budget_before_reading_it(monkeypatch):
    # 2 x 2 x 3 = 12 cells each, from ranges, tuples, a list and an iterator
    grids = [
        lambda: crossval_theorem1((5, 7), range(1, 3), range(3)),
        lambda: crossval_theorem2([5, 7], (1, 2), iter(range(3)), AS_STATED),
        lambda: crossval_theorem3((FIBONACCI, PELL), iter((5,)), (1, 2), range(3)),
    ]
    monkeypatch.setattr(lp_module, "_CELL_BUDGET", 12)
    assert [len(sweep().cells) for sweep in grids] == [12, 12, 12]

    def refuse(*args, **kwargs):
        raise AssertionError("nothing may be read past the budget")

    for name in ("_offset_states", "_certificate", "AffineIndexMap"):
        monkeypatch.setattr(lp_module, name, refuse)
    monkeypatch.setattr(lp_module, "_CELL_BUDGET", 11)
    # the third grid's primes come from an iterator, which has no length: it
    # is read until the grid passes the budget, so its count is a lower bound
    for sweep, cells in zip(grids, ("12", "12", "at least 12")):
        with pytest.raises(ScanExhaustedError, match=f"^{cells} cells exceed the sweep budget of 11$"):
            sweep()


def test_sweep_reads_an_unsized_prime_source_only_past_the_budget():
    read = []

    def primes():
        # every prime below 10^12, more than any sweep may read
        for q in range(2, 10**12):
            if is_prime(q):
                read.append(q)
                yield q

    # 40 x 41 cells per prime: 160 primes pass the budget of 262144, and the
    # sweep stops there
    start = time.perf_counter()
    with pytest.raises(ScanExhaustedError,
                       match="^at least 262400 cells exceed the sweep budget of 262144$"):
        crossval_theorem1(primes(), range(1, 41), range(41))
    assert len(read) == 160 and time.perf_counter() - start < 1.0
    # inside the budget the source is read to its end, and sweeps as a tuple does
    read.clear()
    report = crossval_theorem3((FIBONACCI, PELL), islice(primes(), 4), range(1, 9), range(6))
    assert read == [2, 3, 5, 7]
    assert report == crossval_theorem3((FIBONACCI, PELL), (2, 3, 5, 7), range(1, 9), range(6))
    # a grid with no cells per prime reads none
    read.clear()
    assert crossval_theorem2(primes(), range(1, 9), ()).cells == ()
    assert read == []


def test_sweep_refuses_a_huge_grid_at_once():
    # the grid is counted from the ranges' lengths, so neither is iterated,
    # nor is the non-prime 4 validated
    start = time.perf_counter()
    with pytest.raises(ScanExhaustedError,
                       match=f"^{2 * (10**18 - 10**9)} cells exceed the sweep budget of 262144$"):
        crossval_theorem1((5, 4), range(1, 10**9), range(10**9))
    assert time.perf_counter() - start < 1.0


def test_huge_digit_bounds_answer_as_digit_bound_3():
    # the certificate reads at most 3 rows, so p**(digits - 1) is never built
    spec = fib_affine(8, 1)
    want = lp_bruteforce(spec, 1000003, 3)
    assert not want.holds
    start = time.perf_counter()
    got = lp_bruteforce(spec, 1000003, 10**7)
    assert time.perf_counter() - start < 1.0
    assert got == want._replace(digit_bound=10**7)
    report = crossval_theorem1((2, 5, 7), range(1, 9), range(6), digit_bound=10**7)
    assert report.cells == crossval_theorem1((2, 5, 7), range(1, 9), range(6)).cells
    # a stream is refused before p**digits is formed, with the same message
    for spec in (AperySequence(), OmegaSequence(), TableSequence((1,) * 49)):
        start = time.perf_counter()
        with pytest.raises(ScanExhaustedError,
                           match="^5\\^10000000 terms exceed the stream scan budget of 131072$"):
            lp_bruteforce(spec, 5, 10**7)
        assert time.perf_counter() - start < 1.0


def test_stream_budget_admits_the_largest_documented_scan():
    # lp-check apery --prime 41 --digits 3, the longest stream the README and CI run
    assert 41**3 <= lp_module._TERM_BUDGET


def test_family_table_holds_only_data():
    # the CLI calls each crossval entry point by name, so no row carries one
    for fam in _FAMILIES.values():
        assert not any(map(callable, fam)), fam


def test_enumerate_valid_b_oracle_agreement():
    # every offset's verdicts re-derive from its own full-length scans; the
    # strides run past the period, and the general recurrences put some b
    # inside a positive preperiod
    cases = [("fib", FIBONACCI), ("lucas", LUCAS_NUMBERS)]
    cases += [("general", rec) for rec in PREPERIOD_RECS]
    for family, rec in cases:
        for p in SWEEP_PRIMES:
            for a in (1, 2, 21, 25):
                enum = enumerate_valid_b(family, a, p, rec=rec)
                assert (enum.preperiod, enum.modulus) == period_mod(rec, p)
                valid, zero, predicted = [], [], []
                for b in range(enum.preperiod + enum.modulus):
                    spec = general_affine(rec, a, b)
                    if lp_bruteforce(spec, p, 3).holds:
                        (zero if sequence_is_zero_mod(spec, p, 3) else valid).append(b)
                    if CRITERIA[family](rec, AffineIndexMap(a, b), p, AS_PROVED):
                        predicted.append(b)
                assert enum.valid_b == tuple(valid), (family, rec, p, a)
                assert enum.identically_zero_b == tuple(zero), (family, rec, p, a)
                assert enum.predicted_b == tuple(predicted), (family, rec, p, a)


def test_corollary1_golden_failing_primes():
    cases = {
        (1, 1): (2, Counterexample(2, 0, (0, 1), 1)),
        (5, 1): (2, Counterexample(2, 1, (0, 1), 0)),
        (3, 4): (3, Counterexample(3, 2, (0, 1), 0)),
        (3, 3): (3, Counterexample(3, 0, (0, 1), 1)),
        (6, 6): (3, Counterexample(4, 2, (1, 1), 0)),
    }
    for (a, b), (expected_p, expected_ce) in cases.items():
        q, verdict = corollary1_counterexample(AffineIndexMap(a, b))
        assert q == expected_p, (a, b)
        assert verdict.counterexample == expected_ce, (a, b)


def test_corollary1_skips_holding_primes():
    # (3, 1) passes p = 2 (F(3) = 0, F(1) = 1 mod 2), so the search must
    # move past it; with the bound cut to 2 nothing is found
    with pytest.raises(NotFoundWithinBoundError):
        corollary1_counterexample(AffineIndexMap(3, 1), prime_bound=2)
    q, _ = corollary1_counterexample(AffineIndexMap(3, 1), prime_bound=50)
    assert q > 2


def test_corollary1_validates_offsets():
    with pytest.raises(ValueError):
        corollary1_counterexample(AffineIndexMap(1, 0))
    with pytest.raises(ValueError):
        corollary1_counterexample(AffineIndexMap(1, 1), family="pell")


def test_corollary1_lucas_family():
    q, verdict = corollary1_counterexample(AffineIndexMap(1, 1), family="lucas")
    assert not verdict.holds
    assert_verdict_consistent(lucas_affine(1, 1), q, verdict)


# ---------------------------------------------------------------------------
# cross-validation sweeps


def test_crossval_theorem1_small_grid_agrees():
    report = crossval_theorem1((2, 3, 5), range(1, 7), range(0, 7))
    assert report.theorem == 1
    assert len(report.cells) == 3 * 6 * 7
    assert report.disagreements == ()
    assert len(report.identically_zero_cells) > 0
    for cell in report.identically_zero_cells:
        assert cell.oracle_holds


def test_crossval_cells_reverify():
    report = crossval_theorem1((2, 3), range(1, 5), range(0, 5))
    for cell in report.cells:
        spec = fib_affine(cell.a, cell.b)
        verdict = lp_bruteforce(spec, cell.prime, 3)
        assert verdict.holds == cell.oracle_holds
        if not verdict.holds:
            assert cell.counterexample == verdict.counterexample
            assert_verdict_consistent(spec, cell.prime, verdict)


def test_crossval_theorem2_reading_split():
    primes = (2, 3, 5, 7)
    proved = crossval_theorem2(primes, range(1, 9), range(0, 9))
    stated = crossval_theorem2(primes, range(1, 9), range(0, 9), reading=AS_STATED)
    assert proved.disagreements == ()
    keys = {(c.prime, c.a, c.b) for c in stated.disagreements}
    assert (3, 4, 7) in keys
    with pytest.raises(ValueError):
        crossval_theorem2(primes, range(1, 3), range(3), reading="verbatim")


def test_crossval_theorem3_default_recs_agree():
    report = crossval_theorem3(
        THEOREM3_DEFAULT_RECS, (2, 3, 5), range(1, 6), range(0, 6)
    )
    assert report.disagreements == ()
    recs = {c.rec for c in report.cells}
    assert recs == set(THEOREM3_DEFAULT_RECS)


def test_crossval_zero_cells_never_counted_as_disagreement():
    # L(4n+2) vanishes mod 3: oracle says holds, criterion says no; the
    # cell must surface as flagged, not as a disagreement
    report = crossval_theorem2((3,), (4,), (2,))
    (cell,) = report.cells
    assert cell.identically_zero
    assert cell.oracle_holds
    assert not cell.predicted
    assert not cell.disagrees
    assert report.disagreements == ()


def reference_cells(family, recs, reading, primes=SWEEP_PRIMES, a_values=SWEEP_A,
                    b_values=SWEEP_B):
    """Every cell of a grid scanned on its own, zero check at full length."""
    cells = []
    for rec in recs:
        for p in primes:
            for a in a_values:
                for b in b_values:
                    spec = general_affine(rec, a, b)
                    verdict = full_scan_reference(spec, p, 3)
                    zero = verdict.holds and sequence_is_zero_mod(spec, p, 3)
                    predicted = CRITERIA[family](rec, AffineIndexMap(a, b), p, reading)
                    cells.append(
                        (rec, p, a, b, predicted, verdict.holds, zero, verdict.counterexample)
                    )
    return cells


SWEEP_CASES = [("fib", None), ("lucas", AS_PROVED), ("lucas", AS_STATED), ("general", None)]


def sweep_grid(family, reading):
    """(recs, report) of the crossval entry point of `family` on the sweep grid."""
    if family == "fib":
        return (FIBONACCI,), crossval_theorem1(SWEEP_PRIMES, SWEEP_A, SWEEP_B)
    if family == "lucas":
        return (LUCAS_NUMBERS,), crossval_theorem2(SWEEP_PRIMES, SWEEP_A, SWEEP_B, reading)
    recs = PREPERIOD_RECS + (THEOREM3_DEFAULT_RECS[-1],)
    return recs, crossval_theorem3(recs, SWEEP_PRIMES, SWEEP_A, SWEEP_B)


def report_tuples(report, recs):
    return [
        (c.rec or recs[0], c.prime, c.a, c.b, c.predicted, c.oracle_holds,
         c.identically_zero, c.counterexample)
        for c in report.cells
    ]


@pytest.mark.parametrize("family, reading", SWEEP_CASES)
def test_sweep_matches_per_cell_reference(family, reading):
    recs, report = sweep_grid(family, reading)
    expected = reference_cells(family, recs, reading)
    if family == "general":
        # some cells with b inside a positive preperiod have strides congruent
        # mod the period but different verdicts, so a sweep that folded the
        # stride there would fail this test
        verdicts = {}
        for rec, p, a, b, _, _, _, counterexample in expected:
            pre, per = period_mod(rec, p)
            if b < pre:
                verdicts.setdefault((rec, p, a % per, b), set()).add(counterexample)
        assert any(len(found) > 1 for found in verdicts.values())
    assert all((c.rec is None) == (family != "general") for c in report.cells)
    assert report_tuples(report, recs) == expected


@pytest.mark.parametrize("family, reading", SWEEP_CASES)
def test_sweep_reads_no_period_zero_scan_or_criterion(monkeypatch, family, reading):
    # the reference reads this module's own imports, which stay unpatched
    recs = sweep_grid(family, reading)[0]
    expected = reference_cells(family, recs, reading)

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep must not call this")

    for module in (lp_module, sequences_module):
        monkeypatch.setattr(module, "period_mod", refuse)
    for name in ("sequence_is_zero_mod", "theorem1_condition", "theorem2_condition",
                 "theorem3_condition"):
        monkeypatch.setattr(lp_module, name, refuse)
    assert report_tuples(sweep_grid(family, reading)[1], recs) == expected


def mat_pow_reference(u, v, a, p):
    """[[u, v], [1, 0]]**a mod p by a multiplications."""
    m = (1, 0, 0, 1)
    for _ in range(a):
        m = ((m[0] * u + m[1]) % p, m[0] * v % p, (m[2] * u + m[3]) % p, m[2] * v % p)
    return m


def test_certificate_over_every_key_of_small_primes():
    # an observation of this repository (ROADMAP item 1), not a result of the
    # paper: S(n + 1) = tr*S(n) - det*S(n - 1) has the property mod p iff
    # S(0) = 1 and S(2) = S(1)^2, or S(1) = S(2) = 0
    for p in primes_upto(13):
        rows = lp_module._rows(p, 3)
        for s0, s1, tr, det in product(range(p), repeat=4):
            s2 = (tr * s1 - det * s0) % p
            (witness,) = lp_module._certificate(p, (tr, -det, 1, 0), [(s0, s1)], 2, rows)
            rule = (s0 == 1 and s2 == s1 * s1 % p) or s1 == s2 == 0
            assert (witness is None) == rule, (p, s0, s1, tr, det)


def test_prime_moduli_are_not_rechecked(monkeypatch):
    p = Prime(1000000000039)
    calls = []
    is_prime = modmath_module.is_prime
    monkeypatch.setattr(modmath_module, "is_prime", lambda n: calls.append(n) or is_prime(n))
    sequences_module.alpha(p)
    theorem3_condition(LinearRecurrence(2, 1, 3, 2), AffineIndexMap(5, 7), p)
    lp_bruteforce(general_affine(LinearRecurrence(2, 1, 3, 2), 5, 7), p, 2)
    assert calls == []


def test_certificate_reads_each_distinct_start_once():
    reads = Counter()

    class Start(tuple):
        # a start (x0, y0) that counts each time it is unpacked
        __slots__ = ()

        def __iter__(self):
            reads[self] += 1
            return tuple.__iter__(self)

    rng = random.Random(31)
    for p, order in [(2, 2), (5, 2), (7, 2), (211, 2), (7, 1), (211, 1)]:
        rows = lp_module._rows(p, 3)
        for _ in range(20):
            stride = ((rng.randrange(p), 0, 1, 0) if order == 1
                      else tuple(rng.randrange(p) for _ in range(4)))
            pool = [Start((rng.randrange(p), rng.randrange(p))) for _ in range(6)]
            starts = [rng.choice(pool) for _ in range(40)]
            reads.clear()
            witnesses = lp_module._certificate(p, stride, starts, order, rows)
            assert reads == Counter(set(starts)), (p, stride)
            # one verdict per start, in order, each as a call on that start alone
            assert witnesses == [
                lp_module._certificate(p, stride, [tuple.__new__(tuple, start)], order, rows)[0]
                for start in starts
            ]


def test_sweep_calls_the_certificate_once_per_distinct_stride(monkeypatch):
    # 0,8,8,1 equals Fibonacci mod 7, so the two share every stride at p = 7
    recs = (FIBONACCI, LinearRecurrence(0, 8, 8, 1), *PREPERIOD_RECS)
    calls = Counter()
    certificate = lp_module._certificate

    def counting(p, stride, starts, order, rows):
        calls[p, stride] += 1
        return certificate(p, stride, starts, order, rows)

    monkeypatch.setattr(lp_module, "_certificate", counting)
    # the sweep hands the certificate its own state: no spec and no verdict
    for name in ("AffineSequence", "lp_bruteforce"):
        monkeypatch.setattr(lp_module, name, None)
    report = crossval_theorem3(recs, SWEEP_PRIMES, SWEEP_A, SWEEP_B)
    assert len(report.cells) == len(recs) * len(SWEEP_PRIMES) * len(SWEEP_A) * len(SWEEP_B)
    # at most one call per distinct (rec, p, M^a mod p), and strides repeat on this grid
    distinct_strides = {
        (rec, p, mat_pow_reference(rec.u, rec.v, a, p))
        for rec in recs for p in SWEEP_PRIMES for a in SWEEP_A
    }
    assert len(distinct_strides) < len(recs) * len(SWEEP_PRIMES) * len(SWEEP_A)
    allowed = Counter((p, stride) for _, p, stride in distinct_strides)
    assert calls and calls <= allowed


@pytest.mark.parametrize("family, rec, p, a_values, b_values", [
    # M^16 = I mod 7 for Fibonacci and Lucas: a and a + 16 share each stride
    ("fib", FIBONACCI, 7, (1, 2, 3, 16, 17, 18, 19), range(20)),
    ("lucas", LUCAS_NUMBERS, 7, (1, 2, 3, 16, 17, 18, 19), range(20)),
    # 7 | v: M = (2, 0, 1, 0) mod 7, so M^a repeats with period 3 from a = 1
    # on, and A = 3, 5, 3, 6, 5, 3, 6, ... mod 7 has preperiod 1
    ("general", LinearRecurrence(3, 5, 2, 7), 7, range(1, 10), range(6)),
    # 5 | u, v: M = (0, 0, 1, 0) mod 5 is nilpotent, M^a = 0 for every
    # a >= 2, and A = 2, 3, 0, 0, ... mod 5 has preperiod 2
    ("general", LinearRecurrence(2, 3, 5, 10), 5, range(1, 7), range(5)),
])
def test_sweep_matches_reference_where_strides_repeat(family, rec, p, a_values, b_values):
    strides = [mat_pow_reference(rec.u, rec.v, a, p) for a in a_values]
    assert len(set(strides)) < len(strides)
    if family == "general":
        # the cells with b inside the preperiod read a stride that repeats
        assert period_mod(rec, p).preperiod > min(b_values)
    sweep = {"fib": lambda: crossval_theorem1((p,), a_values, b_values),
             "lucas": lambda: crossval_theorem2((p,), a_values, b_values),
             "general": lambda: crossval_theorem3((rec,), (p,), a_values, b_values)}
    expected = reference_cells(family, (rec,), AS_PROVED, (p,), a_values, b_values)
    assert report_tuples(sweep[family](), (rec,)) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-6, 6)] * 4), min_size=1, max_size=3),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.lists(st.integers(1, 30), min_size=1, max_size=5),
    st.lists(st.integers(0, 30), min_size=1, max_size=5),
    st.integers(0, 30),
)
def test_sweep_matches_per_cell_scans_on_random_recurrences(data, p, a_values, b_values, lo):
    # coefficients in [-6, 6] put p | v, zero seeds and repeated cells in reach;
    # the run lo..lo+5 hands one stride several starts, stepped from each other
    recs = [LinearRecurrence(*d) for d in data]
    b_values = [*b_values, *range(lo, lo + 6)]
    report = crossval_theorem3(recs, (p,), a_values, b_values)
    expected = []
    for rec in recs:
        for a in a_values:
            for b in b_values:
                spec = general_affine(rec, a, b)
                verdict = full_scan_reference(spec, p, 3)
                zero = all(r == 0 for r in spec.residues(p, p**3))
                predicted = theorem3_condition(rec, AffineIndexMap(a, b), p)
                expected.append((rec, p, a, b, predicted, verdict.holds, zero,
                                 verdict.counterexample))
    assert report_tuples(report, recs) == expected


def test_sweep_refuses_bad_strides_and_offsets_and_skips_empty_grids():
    for a_values, b_values, message in [
        ((0,), (1,), "stride a must be >= 1, got 0"),
        ((1, 0), (2, -1), "offset b must be >= 0, got -1"),  # the cell (1, -1) comes first
        ((0, 1), (2, -1), "stride a must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            crossval_theorem1((5,), a_values, b_values)
    with pytest.raises(ValueError, match="offset b must be >= 0, got -1"):
        crossval_theorem3((PELL,), (3,), (2,), (-1,))
    for report in (
        crossval_theorem1((5,), (0,), ()),
        crossval_theorem1((5,), (), (-1,)),
        crossval_theorem1((), (0,), (-1,)),
        crossval_theorem2((3,), range(1, 1), range(5), AS_STATED),
        crossval_theorem3((), (5,), (1,), (0,)),
        crossval_theorem1((5,), (1,), (), digit_bound=1),
    ):
        assert report.cells == ()


def test_sweep_refuses_a_digit_bound_below_2():
    message = "digit_bound must be >= 2, got 1"
    for sweep in (
        lambda: crossval_theorem1((7,), (1, 2), (0, 1, 2), digit_bound=1),
        lambda: crossval_theorem2((7,), (1,), (0,), AS_STATED, digit_bound=1),
        lambda: crossval_theorem3((PELL,), (7,), (1,), (0,), digit_bound=1),
        lambda: enumerate_valid_b("fib", 1, 7, digit_bound=1),
    ):
        with pytest.raises(ValueError, match=message):
            sweep()
    # a bad stride is reported first, as before
    with pytest.raises(ValueError, match="stride a must be >= 1, got 0"):
        crossval_theorem1((7,), (0,), (0,), digit_bound=1)


@st.composite
def holding_specs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["affine", "power", "table"]))
    if kind == "affine":
        rec = LinearRecurrence(*(draw(st.integers(-7, 7)) for _ in range(4)))
        spec = general_affine(rec, draw(st.integers(1, 60)), draw(st.integers(0, 60)))
    elif kind == "power":
        spec = PowerSequence(draw(st.sampled_from([0, p]) | st.integers(-9, 9)))
    else:
        values = [p * draw(st.integers(-2, 2))] * p**3
        for i in draw(st.lists(st.integers(0, p**3 - 1), max_size=3)):
            values[i] = draw(st.integers(-9, 9))
        spec = TableSequence(tuple(values))
    return spec, p


@settings(max_examples=200, deadline=None)
@given(holding_specs())
def test_head_zero_decides_identically_zero(case):
    # a holding scan checked S(n) = S(n // p) * S(n % p) at every n >= p, so
    # S(0..p-1) all 0 mod p makes every scanned term 0
    spec, p = case
    if lp_bruteforce(spec, p, 3).holds:
        assert sequence_is_zero_mod(spec, p, 1) == sequence_is_zero_mod(spec, p, 3)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
)
def test_oracle_prediction_agree_random_cells(p, a, b):
    spec = fib_affine(a, b)
    verdict = lp_bruteforce(spec, p, 3)
    if sequence_is_zero_mod(spec, p, 3):
        assert verdict.holds
    else:
        assert verdict.holds == theorem1_condition(AffineIndexMap(a, b), p)


def test_prime_validation_everywhere():
    with pytest.raises(ValueError):
        lp_bruteforce(fib_affine(1, 1), 4, 3)
    with pytest.raises(ValueError):
        enumerate_valid_b("fib", 1, 9)
    with pytest.raises(ValueError):
        crossval_theorem1((6,), (1,), (0,))


# ---------------------------------------------------------------------------
# records: construction, validation, immutability, equality and repr


WITNESS = Counterexample(6, 1, (1, 1), 0)


def test_records_construct_positionally_by_keyword_and_with_defaults():
    verdict = LPVerdict(False, 5, 3, WITNESS)
    assert verdict == LPVerdict(holds=False, prime=5, digit_bound=3, counterexample=WITNESS)
    assert (verdict.holds, verdict.prime, verdict.digit_bound) == (False, 5, 3)
    assert verdict.counterexample.digits == (1, 1)
    assert LPVerdict(True, 5, 3).counterexample is None
    assert LPVerdict(True, 5, digit_bound=3) == LPVerdict(True, 5, 3, None)

    cell = GridCell(5, 1, 2, True, False, False)
    assert cell == GridCell(
        prime=5, a=1, b=2, predicted=True, oracle_holds=False, identically_zero=False,
        rec=None, counterexample=None,
    )
    assert (cell.rec, cell.counterexample) == (None, None)
    assert cell.disagrees
    cell3 = GridCell(5, 1, 2, True, True, False, PELL, None)
    assert cell3.rec == PELL and not cell3.disagrees

    enum = BEnumeration("fib", 5, 5, 3, 0, 20, (1, 2), (1, 2), ())
    assert enum == BEnumeration(
        family="fib", a=5, prime=5, digit_bound=3, preperiod=0, modulus=20,
        valid_b=(1, 2), predicted_b=(1, 2), identically_zero_b=(), rec=None,
    )
    assert enum.rec is None and enum.matches_prediction
    general = BEnumeration("general", 5, 5, 3, 0, 20, (1,), (2,), (), rec=PELL)
    assert general.rec == PELL and not general.matches_prediction

    report = AgreementReport(1, None, 3, (cell, cell3))
    assert report == AgreementReport(theorem=1, reading=None, digit_bound=3, cells=(cell, cell3))
    assert report.disagreements == (cell,)
    assert report.identically_zero_cells == ()


def test_record_validation():
    with pytest.raises(ValueError):
        LPVerdict(True, 5, 3, WITNESS)
    with pytest.raises(ValueError):
        LPVerdict(False, 5, 3)
    with pytest.raises(ValueError):
        AffineIndexMap(0, 1)
    with pytest.raises(ValueError):
        AffineIndexMap(1, -1)
    with pytest.raises(ValueError):
        TableSequence(())


def _records():
    """(record, names of its attributes) for one instance of each lp record."""
    cell = GridCell(5, 1, 2, True, False, False)
    return [
        (AffineIndexMap(5, 1), ("a", "b")),
        (fib_affine(5, 1), ("rec", "index_map", "variant")),
        (PowerSequence(3), ("base", "variant")),
        (AperySequence(), ("variant",)),
        (OmegaSequence(), ("variant",)),
        (TableSequence((1, 2)), ("values", "variant")),
        (WITNESS, ("n", "lhs", "digits", "rhs")),
        (LPVerdict(False, 5, 3, WITNESS), ("holds", "prime", "digit_bound", "counterexample")),
        (
            BEnumeration("fib", 5, 5, 3, 0, 20, (1, 2), (1, 2), ()),
            ("family", "a", "prime", "digit_bound", "preperiod", "modulus", "valid_b",
             "predicted_b", "identically_zero_b", "rec"),
        ),
        (cell, ("prime", "a", "b", "predicted", "oracle_holds", "identically_zero", "rec",
                "counterexample")),
        (AgreementReport(1, None, 3, (cell,)), ("theorem", "reading", "digit_bound", "cells")),
    ]


def test_records_are_immutable():
    for record, names in _records():
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def test_equal_records_are_equal_and_hash_equal():
    for (first, _), (second, _) in zip(_records(), _records()):
        assert first == second and not first != second
        assert hash(first) == hash(second)


def test_record_repr():
    assert repr(AffineIndexMap(5, 1)) == "AffineIndexMap(a=5, b=1)"
    assert repr(fib_affine(5, 1)) == (
        "AffineSequence(rec=LinearRecurrence(a0=0, a1=1, u=1, v=1), "
        "index_map=AffineIndexMap(a=5, b=1), variant='fib-affine')"
    )
    assert repr(PowerSequence(3)) == "PowerSequence(base=3)"
    assert repr(AperySequence()) == "AperySequence()"
    assert repr(OmegaSequence()) == "OmegaSequence()"
    assert repr(TableSequence((1, 2))) == "TableSequence(values=(1, 2))"
    assert repr(WITNESS) == "Counterexample(n=6, lhs=1, digits=(1, 1), rhs=0)"
    assert repr(lp_bruteforce(fib_affine(5, 1), 5, 3)) == (
        "LPVerdict(holds=True, prime=5, digit_bound=3, counterexample=None)"
    )
    assert repr(GridCell(5, 1, 2, True, False, False)) == (
        "GridCell(prime=5, a=1, b=2, predicted=True, oracle_holds=False, "
        "identically_zero=False, rec=None, counterexample=None)"
    )
    assert repr(AgreementReport(2, AS_PROVED, 3, ())) == (
        "AgreementReport(theorem=2, reading='as-proved', digit_bound=3, cells=())"
    )
    assert repr(BEnumeration("fib", 5, 5, 3, 0, 20, (1,), (1,), ())) == (
        "BEnumeration(family='fib', a=5, prime=5, digit_bound=3, preperiod=0, modulus=20, "
        "valid_b=(1,), predicted_b=(1,), identically_zero_b=(), rec=None)"
    )


def test_spec_variants_and_type_strict_equality():
    assert fib_affine(5, 1).variant == "fib-affine"
    assert lucas_affine(5, 1).variant == "lucas-affine"
    assert general_affine(PELL, 5, 1).variant == "general-affine"
    assert PowerSequence(3).variant == "power"
    assert AperySequence().variant == "apery"
    assert OmegaSequence().variant == "omega"
    assert TableSequence((3,)).variant == "table"
    assert fib_affine(5, 1) == fib_affine(5, 1)
    assert fib_affine(5, 1) != lucas_affine(5, 1)
    assert AperySequence() != OmegaSequence()
    assert not AperySequence() == OmegaSequence()
    assert PowerSequence(3) != TableSequence((3,))
    assert not PowerSequence(3) == TableSequence((3,))
    assert PowerSequence(3) != (3,) and (3,) != PowerSequence(3)
    assert AperySequence() != () and () != AperySequence()
    assert len({AperySequence(), OmegaSequence(), AperySequence()}) == 2
