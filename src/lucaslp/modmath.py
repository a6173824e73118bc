"""Exact and modular integer arithmetic: primality, digit expansions, binomials.

The module keeps no state: `binomial_mod_lucas` builds its digit factorial
tables on each call, up to the largest base-p digit of n.
"""

from __future__ import annotations

import math
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
    """Canonical base-p expansion of n >= 0."""
    p = Prime(p)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return DigitExpansion(p, (0,))
    digs = []
    while n:
        n, d = divmod(n, p)
        digs.append(d)
    return DigitExpansion(p, tuple(digs))


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


def _max_digit(n: int, p: int) -> int:
    top = 0
    while n:
        n, d = divmod(n, p)
        if d > top:
            top = d
    return top


def binomial_mod_lucas(n: int, m: int, p) -> int:
    """C(n, m) mod p as the digitwise product of base-p digit binomials."""
    p = int(Prime(p))
    if n < 0 or m < 0:
        raise ValueError(f"binomial arguments must be >= 0, got ({n}, {m})")
    fact, inv_fact = _factorials(p, _max_digit(n, p))
    r = 1
    while n or m:
        n, nd = divmod(n, p)
        m, md = divmod(m, p)
        if md > nd:
            return 0
        r = r * fact[nd] * inv_fact[md] * inv_fact[nd - md] % p
    return r
