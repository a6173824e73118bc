"""Fibonacci, Lucas, and general second-order recurrences, exact and mod p.

Every term by index, exact or mod p, is a power of the 2x2 companion matrix
M = [[u, v], [1, 0]] (`rec_term`), and so is the shift coefficient s(k), the
bottom-left entry of M^(k+1) (`s_poly`); Fibonacci and Lucas numbers are the
recurrences FIBONACCI and LUCAS_NUMBERS.

Residue sequences mod p are ultimately periodic in the state pair
(A(n), A(n+1)). The preperiod is at most 2: the step (x, y) -> (y, uy + vx)
is a bijection when p does not divide v; when it does, every state from
n = 1 on is (x, ux), and x -> ux is either a bijection or sends everything
to 0. So state 2 is on its cycle, and the period is the least d with
M^d s2 = s2. Neither the period nor the rank of apparition is found by a
walk: every element of GL2(F_p) has an order dividing N = p(p^2 - 1)
(Lidl and Niederreiter, Finite Fields, ch. 8), and when p divides v the
cycle x -> ux has a length dividing p - 1. So N is a multiple of the
period, and of the rank of apparition, which divides the Fibonacci period
(Wall, Amer. Math. Monthly 67, 1960). Both answers are the least divisor
of N that passes a test, found by dividing out one prime of N at a time
(`_least`). That takes O(log p) matrix powers once p - 1 and p + 1 are
factored, by trial division and Pollard-Brent rho under a step budget.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd
from typing import NamedTuple

from .modmath import Prime, is_prime

__all__ = [
    "ScanExhaustedError",
    "LinearRecurrence",
    "FIBONACCI",
    "LUCAS_NUMBERS",
    "PELL",
    "PeriodInfo",
    "fib",
    "lucas_num",
    "fib_mod",
    "lucas_mod",
    "rec_term",
    "s_poly",
    "t_poly",
    "period_mod",
    "term_table_mod",
    "alpha",
]


class ScanExhaustedError(RuntimeError):
    """Raised when a bounded scan ends before finding its target."""


class LinearRecurrence(NamedTuple):
    """Integer recurrence A(n) = u*A(n-1) + v*A(n-2) with seeds A(0), A(1)."""

    a0: int
    a1: int
    u: int
    v: int

    @classmethod
    def from_string(cls, text: str) -> "LinearRecurrence":
        """Parse the wire format 'A0,A1,u,v' (four signed integers)."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 'A0,A1,u,v', got {text!r}")
        try:
            a0, a1, u, v = (int(part) for part in parts)
        except ValueError as exc:
            raise ValueError(f"expected 'A0,A1,u,v', got {text!r}") from exc
        return cls(a0, a1, u, v)

    def as_string(self) -> str:
        return f"{self.a0},{self.a1},{self.u},{self.v}"

    def seed_discriminant(self) -> int:
        """The seed-dependent factor v*A(0)^2 + u*A(0)A(1) - A(1)^2.

        It multiplies the closed-form term in the Catalan-type identity and
        controls the first clause of the general affine-index criterion.
        """
        return self.v * self.a0**2 + self.u * self.a0 * self.a1 - self.a1**2


FIBONACCI = LinearRecurrence(0, 1, 1, 1)
LUCAS_NUMBERS = LinearRecurrence(2, 1, 1, 1)
PELL = LinearRecurrence(0, 1, 2, 1)


class PeriodInfo(NamedTuple):
    preperiod: int
    period: int


def fib(n: int) -> int:
    """F(n) exactly, with F(0) = 0, F(1) = 1."""
    return rec_term(FIBONACCI, n)


def lucas_num(n: int) -> int:
    """L(n) exactly, with L(0) = 2, L(1) = 1."""
    return rec_term(LUCAS_NUMBERS, n)


def fib_mod(n: int, p) -> int:
    """F(n) mod p in O(log n) multiplications."""
    return rec_term(FIBONACCI, n, p)


def lucas_mod(n: int, p) -> int:
    """L(n) mod p in O(log n) multiplications."""
    return rec_term(LUCAS_NUMBERS, n, p)


def _mat_pow(m, e: int, p: int | None):
    """The 2x2 matrix m = (a, b, c, d), row by row, to the power e.

    Entries are reduced mod p unless p is None. The bits of e are read from
    the top, so each step is one squaring (five products) and at most one
    product with m itself.
    """
    m0, m1, m2, m3 = m
    a, b, c, d = 1, 0, 0, 1
    for bit in bin(e)[2:]:
        bc, trace = b * c, a + d
        a, b, c, d = a * a + bc, b * trace, c * trace, d * d + bc
        if bit == "1":
            a, b, c, d = a * m0 + b * m2, a * m1 + b * m3, c * m0 + d * m2, c * m1 + d * m3
        if p is not None:
            a, b, c, d = a % p, b % p, c % p, d % p
    return a, b, c, d


def _stride_terms(state, p: int, length: int):
    """Yield S(0), ..., S(length-1) mod p from state = (stride, S(0), S(1)):
    (S(n+1), S(n)) steps by the stride, four products. The companion matrix
    (u, v, 1, 0) as the stride steps the recurrence itself."""
    (m0, m1, m2, m3), x, y = state
    for _ in range(length):
        yield x
        x, y = (m2 * y + m3 * x) % p, (m0 * y + m1 * x) % p


# exact terms grow with n, so only those up to this index are memoized: with
# coefficients up to 5, 4096 of them hold about 1.2 MB, where 4096
# Fibonacci numbers near n = 10^6 would hold 350 MB
_EXACT_MEMO_MAX_N = 512


@lru_cache(maxsize=4096)
def _rec_term(rec: LinearRecurrence, n: int, p: int | None = None) -> int:
    m = _mat_pow((rec.u, rec.v, 1, 0), n, p)
    # M^n (A1, A0)^T = (A(n+1), A(n))^T, so A(n) is the bottom row applied
    term = m[2] * rec.a1 + m[3] * rec.a0
    return term if p is None else term % p


def rec_term(rec: LinearRecurrence, n: int, modulus=None) -> int:
    """A(n) for the recurrence, exact (modulus None) or reduced mod a prime.

    Both paths power the companion matrix [[u, v], [1, 0]], so a term costs
    O(log n) multiplications. Exact terms with small n are memoized, as the
    identity sweeps read each of them many times; a residue is one matrix
    power, with the modulus checked once per call.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if modulus is None and n <= _EXACT_MEMO_MAX_N:
        return _rec_term(rec, n)
    return _rec_term.__wrapped__(rec, n, None if modulus is None else int(Prime(modulus)))


@lru_cache(maxsize=1024)
def s_poly(k: int, u: int, v: int) -> int:
    """Shift coefficient s(k) = sum over i of C(k-i, i) u^(k-2i) v^i, the
    bottom-left entry of M^(k+1) for the companion matrix M = (u, v, 1, 0)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _mat_pow((u, v, 1, 0), k + 1, None)[2]


def t_poly(k: int, u: int, v: int) -> int:
    """Shift coefficient t(k) = sum over j of C(k-1-j, j) u^(k-1-2j) v^(j+1),
    which is v*s(k-1) term by term.

    The empty sum gives t(0) = 0, the convention that makes the two-term
    shift identity hold at k = 0.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return v * s_poly(k - 1, u, v) if k else 0


# trial division covers the factors below this bound; rho finds the rest
_TRIAL_BOUND = 1024
# Pollard-Brent steps allowed for factoring p - 1 and p + 1 together, about
# a second at 0.5 us a step. A cofactor of two 40-bit primes took 1.6 million
# (p - 1 for p = 1228559431195504946317379); some of the hardest below psi_13,
# two 41-bit primes, need more, and those p are refused
_FACTOR_STEPS = 1 << 21


def _spend(budget: list[int], steps: int, n: int) -> None:
    budget[0] -= steps
    if budget[0] < 0:
        raise ScanExhaustedError(f"no factor of {n} within {_FACTOR_STEPS} Pollard-Brent steps")


def _rho(n: int, budget: list[int]) -> int:
    """A proper factor of the odd composite n (Brent, BIT 20, 1980).

    Differences of the iterates are multiplied together and tested with one
    gcd per batch. budget[0] is the number of steps left; ScanExhaustedError
    is raised before a run of steps that would overdraw it.
    """
    for c in count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            _spend(budget, r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                _spend(budget, batch, n)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _prime_factors(n: int, budget: list[int]) -> set[int]:
    """The distinct primes dividing n >= 1."""
    primes = set()
    for q in (2, *range(3, _TRIAL_BOUND, 2)):
        if q * q > n:
            break
        if n % q == 0:
            primes.add(q)
            while n % q == 0:
                n //= q
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            primes.add(m)
        else:
            d = _rho(m, budget)
            pending += (d, m // d)
    return primes


def _least(n: int, primes, holds) -> int:
    """The least divisor d of n with holds(d), given that holds(n) and that
    the d with holds(d) are the multiples of one divisor of n; primes must
    include every prime dividing n."""
    for q in primes:
        while n % q == 0 and holds(n // q):
            n //= q
    return n


def _least_order(p: int, holds) -> int:
    # the least d dividing N = p(p^2 - 1), the exponent of GL2(F_p), with
    # holds(d) (see the module docstring)
    budget = [_FACTOR_STEPS]
    try:
        primes = {p} | _prime_factors(p - 1, budget) | _prime_factors(p + 1, budget)
    except ScanExhaustedError as exc:
        raise ScanExhaustedError(f"cannot factor p - 1 and p + 1 for p = {p}: {exc}") from None
    return _least(p * (p * p - 1), sorted(primes), holds)


def period_mod(rec: LinearRecurrence, p, scan_limit: int | None = None) -> PeriodInfo:
    """Minimal (preperiod, period) of A(n) mod p as a state-pair sequence.

    The period is the least d dividing p(p^2 - 1) with M^d s2 = s2 (see the
    module docstring), and the preperiod the least i <= 2 with
    M^period s_i = s_i, where s_i is the state at n = i. Without a scan
    limit every prime is answered; ScanExhaustedError is raised exactly
    when preperiod + period exceeds an explicit limit, or when p - 1 and
    p + 1 do not factor within the step budget.
    """
    p = int(Prime(p))
    companion = (rec.u % p, rec.v % p, 1, 0)
    terms = list(_stride_terms((companion, rec.a0 % p, rec.a1 % p), p, 4))
    states = list(zip(terms, terms[1:]))  # (A(i), A(i+1)) for i = 0, 1, 2

    def returns(d, state):
        # M^d (A(i+1), A(i)) = (A(i+1+d), A(i+d))
        m0, m1, m2, m3 = _mat_pow(companion, d, p)
        x, y = state
        return (m0 * y + m1 * x) % p == y and (m2 * y + m3 * x) % p == x

    period = _least_order(p, lambda d: returns(d, states[2]))
    preperiod = next(i for i, state in enumerate(states) if returns(period, state))
    if scan_limit is not None and preperiod + period > scan_limit:
        raise ScanExhaustedError(
            f"{rec.as_string()} mod {p}: preperiod + period {preperiod + period} > limit {scan_limit}"
        )
    return PeriodInfo(preperiod, period)


def term_table_mod(rec: LinearRecurrence, p, scan_limit: int | None = None):
    """(PeriodInfo, terms) with terms = [A(0) mod p, ..., A(pre+per-1) mod p].

    Together these determine A(n) mod p for every n: indices past the
    preperiod fold down with period per.
    """
    info = period_mod(rec, p, scan_limit)
    p = int(p)
    state = ((rec.u % p, rec.v % p, 1, 0), rec.a0 % p, rec.a1 % p)
    return info, list(_stride_terms(state, p, info.preperiod + info.period))


def alpha(p, scan_limit: int | None = None) -> int:
    """Rank of apparition: least n >= 1 with F(n) divisible by p.

    The zeros of F mod p are the multiples of the rank, which divides the
    period of F mod p and so p(p^2 - 1). ScanExhaustedError is raised when
    the rank exceeds an explicit scan limit, or when p - 1 and p + 1 do not
    factor within the step budget.
    """
    p = Prime(p)
    rank = _least_order(p, lambda d: rec_term(FIBONACCI, d, p) == 0)
    if scan_limit is not None and rank > scan_limit:
        raise ScanExhaustedError(f"no zero of F mod {p} within {scan_limit} terms")
    return rank
