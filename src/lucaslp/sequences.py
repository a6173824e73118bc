"""Fibonacci, Lucas, and general second-order recurrences, exact and mod p.

Every term by index, exact or mod p, is a power of the 2x2 companion matrix
[[u, v], [1, 0]] (`rec_term`); Fibonacci and Lucas numbers are the
recurrences FIBONACCI and LUCAS_NUMBERS.

Residue sequences mod p are ultimately periodic in the state pair
(A(n), A(n+1)), so a finite term table plus (preperiod, period) determines
every term. The preperiod is at most 2: the step (x, y) -> (y, uy + vx) is
a bijection when p does not divide v; when it does, every state from n = 1
on is (x, ux), and x -> ux is either a bijection or sends everything to 0.
So state 2 is on its cycle, and the period is its return time, found
without storing the states visited.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .modmath import Prime, binomial_exact

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


@dataclass(frozen=True)
class LinearRecurrence:
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


# the largest working set measured is about 1400 terms (a theorem-3 grid)
@lru_cache(maxsize=4096)
def rec_term(rec: LinearRecurrence, n: int, modulus=None) -> int:
    """A(n) for the recurrence, exact (modulus None) or reduced mod a prime.

    Both paths power the companion matrix [[u, v], [1, 0]], so a term costs
    O(log n) multiplications. Results are memoized, which makes dense
    sweeps over overlapping indices effectively table lookups.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    p = None if modulus is None else int(Prime(modulus))
    m = _mat_pow((rec.u, rec.v, 1, 0), n, p)
    # M^n (A1, A0)^T = (A(n+1), A(n))^T, so A(n) is the bottom row applied
    term = m[2] * rec.a1 + m[3] * rec.a0
    return term if p is None else term % p


def _stride_terms(rec: LinearRecurrence, a: int, b: int, p: int, count: int):
    """Yield A(a*n + b) mod p for n < count, in O(1) state: each step is four
    products, the state (A(n+1), A(n)) times the companion matrix power M**a."""
    m0, m1, m2, m3 = _mat_pow((rec.u, rec.v, 1, 0), a, p)
    x, y = rec_term(rec, b, p), rec_term(rec, b + 1, p)
    for _ in range(count):
        yield x
        x, y = (m2 * y + m3 * x) % p, (m0 * y + m1 * x) % p


@lru_cache(maxsize=1024)
def s_poly(k: int, u: int, v: int) -> int:
    """Shift coefficient s(k) = sum over i of C(k-i, i) u^(k-2i) v^i."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return sum(
        binomial_exact(k - i, i) * u ** (k - 2 * i) * v**i
        for i in range(k // 2 + 1)
    )


@lru_cache(maxsize=1024)
def t_poly(k: int, u: int, v: int) -> int:
    """Shift coefficient t(k) = sum over j of C(k-1-j, j) u^(k-1-2j) v^(j+1).

    The empty sum gives t(0) = 0, the convention that makes the two-term
    shift identity hold at k = 0.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 0
    return sum(
        binomial_exact(k - 1 - j, j) * u ** (k - 1 - 2 * j) * v ** (j + 1)
        for j in range((k - 1) // 2 + 1)
    )


def _states(rec: LinearRecurrence, p: int):
    # the state pairs (A(n), A(n+1)) mod p for n = 0, 1, 2, ...
    x, y = rec.a0 % p, rec.a1 % p
    u, v = rec.u % p, rec.v % p
    while True:
        yield x, y
        x, y = y, (u * y + v * x) % p


def _cycle(rec: LinearRecurrence, p: int, scan_limit: int | None) -> PeriodInfo:
    # State 2 lies on its cycle (see the module docstring), so the period is
    # its return time, and state i is on the cycle iff it equals the cycle
    # state 2 - i steps before state 2.
    if scan_limit is None:
        scan_limit = p * p + 1
    states = _states(rec, p)
    s0, s1, s2 = next(states), next(states), next(states)
    two_back = one_back = s2
    for period, state in enumerate(states, 1):
        if state == s2 or period >= scan_limit:
            break
        two_back, one_back = one_back, state
    preperiod = 0 if s0 == two_back else 1 if s1 == one_back else 2
    if state != s2 or preperiod + period > scan_limit:
        raise ScanExhaustedError(
            f"state pair of {rec.as_string()} mod {p} did not repeat within {scan_limit} steps"
        )
    return PeriodInfo(preperiod, period)


def period_mod(rec: LinearRecurrence, p, scan_limit: int | None = None) -> PeriodInfo:
    """Minimal (preperiod, period) of A(n) mod p as a state-pair sequence.

    The walk keeps O(1) states. The state space has p**2 elements, so the
    default scan limit p**2 + 1 always suffices; ScanExhaustedError is
    raised exactly when preperiod + period exceeds an explicit limit.
    """
    p = int(Prime(p))
    return _cycle(rec, p, scan_limit)


def term_table_mod(rec: LinearRecurrence, p, scan_limit: int | None = None):
    """(PeriodInfo, terms) with terms = [A(0) mod p, ..., A(pre+per-1) mod p].

    Together these determine A(n) mod p for every n: indices past the
    preperiod fold down with period per.
    """
    p = int(Prime(p))
    info = _cycle(rec, p, scan_limit)
    return info, [x for x, _ in islice(_states(rec, p), info.preperiod + info.period)]


def alpha(p, scan_limit: int | None = None) -> int:
    """Rank of apparition: least n >= 1 with F(n) divisible by p."""
    p = int(Prime(p))
    if scan_limit is None:
        # the rank divides the Pisano period, which is at most 6p
        scan_limit = 6 * p + 1
    a, b = 0, 1 % p
    for n in range(1, scan_limit + 1):
        a, b = b, (a + b) % p
        if a == 0:
            return n
    raise ScanExhaustedError(f"no zero of F mod {p} within {scan_limit} terms")
