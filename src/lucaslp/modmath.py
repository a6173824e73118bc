"""Exact and modular integer arithmetic: primality, digit expansions, binomials.

The paper's two digit rules are stated here once each. `digits_base_p` is
the library's only walk over the base-p digits of one number (the paired
walk of Lucas's theorem over n and m in `binomial_mod_lucas` aside), and
`_digit_products` is its only digit-product recursion, which the stream
oracle and `special --prime` both read.

The module keeps no state: `binomial_mod_lucas` builds its digit factorial
tables on each call, up to the largest base-p digit of n.
"""

from __future__ import annotations

import math
from itertools import count
from typing import NamedTuple

__all__ = [
    "NonInvertibleError",
    "Prime",
    "DigitExpansion",
    "is_prime",
    "primes_upto",
    "digits_base_p",
    "pow_mod",
    "inverse_mod",
    "binomial_exact",
    "binomial_mod_lucas",
]


class NonInvertibleError(ValueError):
    """Raised when asked for an inverse of a residue divisible by the modulus."""


# Miller-Rabin with the primes up to 41 as witnesses is deterministic below
# psi_13, the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017); larger n are refused rather than guessed.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test; ValueError for n >= psi_13 (about 3.3e24)."""
    if n >= _PSI_13:
        raise ValueError(f"primality is only decided below {_PSI_13}, got {n}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(bound: int) -> list["Prime"]:
    """All primes p with 2 <= p <= bound, ascending, each tested once."""
    return list(_iter_primes(bound))


def _iter_primes(bound: int):
    """The primes of `primes_upto`, each tested only when it is read."""
    return (int.__new__(Prime, n) for n in range(2, bound + 1) if is_prime(n))


class Prime(int):
    """An int validated as prime on construction."""

    __slots__ = ()

    def __new__(cls, value) -> "Prime":
        if isinstance(value, Prime):
            return value
        value = int(value)
        if not is_prime(value):
            raise ValueError(f"not a prime: {value}")
        return super().__new__(cls, value)


class DigitExpansion(
    NamedTuple("DigitExpansion", [("base", Prime), ("digits", tuple[int, ...])])
):
    """Canonical little-endian base-p digits; digits[0] is least significant."""

    __slots__ = ()

    def __new__(cls, base: Prime, digits: tuple[int, ...]) -> "DigitExpansion":
        p = int(base)
        if not digits:
            raise ValueError("digit tuple must be non-empty; zero is (0,)")
        if any(d < 0 or d >= p for d in digits):
            raise ValueError(f"digit out of range for base {p}: {digits}")
        if len(digits) > 1 and digits[-1] == 0:
            raise ValueError(f"trailing zero digit makes {digits} non-canonical")
        return tuple.__new__(cls, (base, digits))

    def value(self) -> int:
        n = 0
        for d in reversed(self.digits):
            n = n * int(self.base) + d
        return n


def digits_base_p(n: int, p) -> DigitExpansion:
    """Canonical base-p expansion of n >= 0: the one single-number digit walk
    of the library."""
    p = Prime(p)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    digs = []
    while True:
        n, d = divmod(n, p)
        digs.append(d)
        if not n:
            return DigitExpansion(p, tuple(digs))


def _digit_products(values, p: int):
    """Yield P(0), P(1), ...: values[n] for n < p, and P(n // p) * values[n % p]
    mod p from there on, the digit-recursive form S(p*m + j) = S(m) * S(j)
    (McIntosh, Amer. Math. Monthly 99, 1992). So P(n) is the product of
    values over the base-p digits of n. It reads values only below p and
    holds one product per index yielded. With fewer than p values it yields
    them and raises IndexError at the next read, the first it cannot answer.
    """
    digits = values[:p]
    products = list(digits)
    yield from digits
    for n in count(len(digits)):
        products.append(products[n // p] * digits[n % p] % p)
        yield products[n]


def pow_mod(base: int, exp: int, p) -> int:
    """base**exp mod p, with 0**0 == 1."""
    if exp < 0:
        raise ValueError(f"exp must be >= 0, got {exp}")
    return pow(base, exp, Prime(p))


def inverse_mod(a: int, p) -> int:
    """Multiplicative inverse of a modulo the prime p."""
    p = Prime(p)
    if a % p == 0:
        raise NonInvertibleError(f"{a} is not invertible modulo {p}")
    return pow(a, p - 2, p)


def binomial_exact(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be >= 0, got ({n}, {k})")
    if k > n:
        return 0
    return math.comb(n, k)


def _factorials(p: int, top: int) -> tuple[list[int], list[int]]:
    """(i! mod p, (i!)^-1 mod p) for 0 <= i <= top < p, fresh lists each call.

    One modular inverse, of top!, gives the whole inverse table by walking
    down: so C(d, k) mod p for digits k <= d <= top is
    fact[d] * inv_fact[k] * inv_fact[d - k], and small digits at a large
    prime build a few entries, not p.
    """
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [1] * (top + 1)
    inv = pow(fact[top], p - 2, p)
    for i in range(top, 0, -1):
        inv_fact[i] = inv
        inv = inv * i % p
    return fact, inv_fact


def binomial_mod_lucas(n: int, m: int, p) -> int:
    """C(n, m) mod p as the digitwise product of base-p digit binomials.

    One paired walk over the digits of n and m (Lucas's theorem) answers 0 at
    the first digit of m above n's, before any table is built; otherwise the
    factorial tables go up to the largest digit of n it walked.
    """
    p = int(Prime(p))
    if n < 0 or m < 0:
        raise ValueError(f"binomial arguments must be >= 0, got ({n}, {m})")
    pairs = []
    while n or m:
        n, nd = divmod(n, p)
        m, md = divmod(m, p)
        if md > nd:
            return 0
        pairs.append((nd, md))
    fact, inv_fact = _factorials(p, max((nd for nd, _ in pairs), default=0))
    r = 1
    for nd, md in pairs:
        r = r * fact[nd] * inv_fact[md] * inv_fact[nd - md] % p
    return r
