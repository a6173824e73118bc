"""Primality, digit expansions, and binomials against naive oracles."""

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lucaslp.modmath as modmath_module
from lucaslp.modmath import (
    DigitExpansion,
    NonInvertibleError,
    Prime,
    _digit_products,
    binomial_exact,
    binomial_mod_lucas,
    digits_base_p,
    inverse_mod,
    is_prime,
    pow_mod,
    primes_upto,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert not is_prime(91)  # 7 * 13


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_division(n), n


def test_is_prime_64bit_spot_checks():
    # values verified independently by trial division over large prime tables
    assert is_prime(2**61 - 1)
    assert is_prime(2**63 - 25)
    assert is_prime(2**64 - 59)
    assert is_prime(10**18 + 9)
    assert not is_prime(2**64 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_refuses_beyond_proven_witness_bound():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # base up to 37; base 41 exposes it
    assert not is_prime(318665857834031151167461)
    assert is_prime(10**24 + 7)
    # psi_13 = 1287836182261 * 2575672364521 passes every base up to 41
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        Prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        Prime(318665857834031151167461)


def test_primes_upto():
    assert primes_upto(13) == [2, 3, 5, 7, 11, 13]
    assert primes_upto(1) == []
    assert all(isinstance(p, Prime) for p in primes_upto(30))


def test_primes_upto_tests_each_n_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        modmath_module, "is_prime", lambda n: calls.append(n) or is_prime(n)
    )
    primes = primes_upto(200)
    assert calls == list(range(2, 201))
    assert primes == [n for n in range(2, 201) if trial_division(n)]
    assert all(type(p) is Prime for p in primes)


def test_prime_type_validates():
    assert Prime(7) == 7
    assert int(Prime(7)) == 7
    assert Prime("11") == 11
    q = Prime(5)
    assert Prime(q) is q
    with pytest.raises(ValueError):
        Prime(8)
    with pytest.raises(ValueError):
        Prime(1)
    with pytest.raises(ValueError):
        Prime(-3)


def test_digits_examples():
    assert digits_base_p(0, 5).digits == (0,)
    assert digits_base_p(12, 5).digits == (2, 2)
    assert digits_base_p(38, 5).digits == (3, 2, 1)
    assert digits_base_p(7, 2).digits == (1, 1, 1)
    rng = random.Random(34)
    for p in SMALL_PRIMES + [1000003]:
        # n = 0, small n, and a 200-digit n, each built from its digits
        for digits in ((0,), (p - 1,), (0, 1), (p - 1, 0, 1), (*rng.choices(range(p), k=199), 1)):
            n = sum(d * p**i for i, d in enumerate(digits))
            assert digits_base_p(n, p) == DigitExpansion(Prime(p), digits)


def test_digit_products_are_products_over_the_base_p_digits():
    rng = random.Random(34)
    for p in (2, 3, 5, 7):
        # seeded residues with zeros among them, and the digit value 1 at 0
        values = [1] + [rng.choice([0, 0, *range(p)]) for _ in range(p - 1)]
        values[rng.randrange(1, p)] = 0
        got = list(islice(_digit_products(values, p), p**3))
        want = [math.prod(values[d] for d in digits_base_p(n, p).digits) % p
                for n in range(p**3)]
        assert got == want, p
    # a table shorter than p answers its own indices and refuses the next
    short = _digit_products([1, 2, 3], 5)
    assert list(islice(short, 3)) == [1, 2, 3]
    with pytest.raises(IndexError):
        next(short)


def test_digits_rejects_bad_input():
    with pytest.raises(ValueError):
        digits_base_p(-1, 5)
    with pytest.raises(ValueError):
        digits_base_p(10, 4)  # composite base


def test_digit_expansion_validation():
    p = Prime(5)
    with pytest.raises(ValueError):
        DigitExpansion(p, ())
    with pytest.raises(ValueError):
        DigitExpansion(p, (5, 1))  # digit out of range
    with pytest.raises(ValueError):
        DigitExpansion(p, (1, 0))  # trailing zero


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(SMALL_PRIMES))
def test_digits_roundtrip(n, p):
    exp = digits_base_p(n, p)
    assert exp.value() == n
    assert all(0 <= d < p for d in exp.digits)
    if len(exp.digits) > 1:
        assert exp.digits[-1] != 0


def test_digits_roundtrip_exhaustive_window():
    for p in SMALL_PRIMES:
        for n in range(3 * 10**4):
            exp = digits_base_p(n, p)
            assert exp.value() == n
            assert len(exp.digits) == 1 or exp.digits[-1] != 0


def test_digits_roundtrip_boundaries():
    # digit-length transitions p**k +/- 1 and the top of the 10**6 range
    for p in SMALL_PRIMES:
        probes = {10**6 - 1, 10**6, 10**6 + 1}
        k = 1
        while p**k <= 2 * 10**6:
            probes.update({p**k - 1, p**k, p**k + 1})
            k += 1
        for n in sorted(probes):
            exp = digits_base_p(n, p)
            assert exp.value() == n
            assert len(exp.digits) == 1 or exp.digits[-1] != 0


def test_pow_mod_examples():
    assert pow_mod(3, 4, 5) == 1
    assert pow_mod(2, 10, 7) == 2
    assert pow_mod(0, 0, 5) == 1
    assert pow_mod(10, 0, 3) == 1
    with pytest.raises(ValueError):
        pow_mod(2, -1, 5)
    with pytest.raises(ValueError):
        pow_mod(2, 3, 6)


def test_pow_mod_matches_repeated_multiplication():
    for p in SMALL_PRIMES:
        for a in range(30):
            acc = 1
            for e in range(30):
                assert pow_mod(a, e, p) == acc % p, (a, e, p)
                acc = acc * a


def test_inverse_mod_examples():
    assert inverse_mod(3, 7) == 5
    assert inverse_mod(1, 2) == 1
    with pytest.raises(NonInvertibleError):
        inverse_mod(0, 5)
    with pytest.raises(NonInvertibleError):
        inverse_mod(14, 7)


def test_inverse_mod_identity_all_small_primes():
    for p in primes_upto(101):
        for a in range(1, p):
            assert inverse_mod(a, p) * a % p == 1


def test_binomial_exact_examples():
    assert binomial_exact(5, 2) == 10
    assert binomial_exact(0, 0) == 1
    assert binomial_exact(3, 5) == 0
    assert binomial_exact(7, 0) == 1
    with pytest.raises(ValueError):
        binomial_exact(-1, 0)
    with pytest.raises(ValueError):
        binomial_exact(3, -2)


def test_binomial_mod_lucas_examples():
    assert binomial_mod_lucas(5, 2, 3) == 10 % 3
    assert binomial_mod_lucas(6, 3, 2) == 0  # C(6,3) = 20
    assert binomial_mod_lucas(0, 0, 7) == 1
    assert binomial_mod_lucas(10, 12, 5) == 0
    with pytest.raises(ValueError):
        binomial_mod_lucas(5, 2, 9)
    with pytest.raises(ValueError):
        binomial_mod_lucas(-1, 0, 5)


def test_binomial_mod_lucas_answers_zero_before_building_a_table(monkeypatch):
    calls = []
    inner = modmath_module._factorials

    def spy(p, top):
        calls.append((p, top))
        return inner(p, top)

    monkeypatch.setattr(modmath_module, "_factorials", spy)
    # a digit of m above n's: the lowest, a middle one, and m > n
    for n, m, p in ((10, 12, 5), (1000002 * 1000003, 1000003 + 5, 1000003), (3, 4, 7),
                    (49 + 7 + 1, 2 * 7 + 1, 7), (2**64 + 1, 2**63, 2)):
        assert binomial_mod_lucas(n, m, p) == 0
        if n < 1000:
            assert (math.comb(n, m) if m <= n else 0) % p == 0
    assert calls == []
    # otherwise one table pair, up to the largest digit of n walked
    assert binomial_mod_lucas(3 * 1000003 + 2, 1000003 + 1, 1000003) == 3 * 2 % 1000003
    assert calls == [(1000003, 3)]


def test_binomial_mod_lucas_small_grid():
    for p in SMALL_PRIMES:
        for n in range(60):
            for m in range(60):
                expected = math.comb(n, m) % p if m <= n else 0
                assert binomial_mod_lucas(n, m, p) == expected, (n, m, p)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(SMALL_PRIMES),
)
def test_binomial_mod_lucas_matches_exact(n, m, p):
    expected = math.comb(n, m) % p if m <= n else 0
    assert binomial_mod_lucas(n, m, p) == expected


def test_digit_expansion_record():
    p = Prime(5)
    exp = DigitExpansion(p, (3, 2))
    assert exp == DigitExpansion(base=p, digits=(3, 2)) == digits_base_p(13, 5)
    assert hash(exp) == hash(digits_base_p(13, 5))
    assert exp.value() == 13 and exp.base == 5 and exp.digits == (3, 2)
    assert repr(exp) == "DigitExpansion(base=5, digits=(3, 2))"
    assert DigitExpansion(p, (0,)).value() == 0
    for name in ("base", "digits"):
        with pytest.raises(AttributeError):
            setattr(exp, name, getattr(exp, name))
    for digits in ((), (5,), (-1, 1), (1, 0), (0, 0)):
        with pytest.raises(ValueError):
            DigitExpansion(p, digits)
