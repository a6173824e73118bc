"""Apery numbers and the reciprocal-Bessel coefficients, exact and mod p.

Both sequences are defined through binomial sums, so their residues mod p
come from digitwise binomials rather than from reducing huge integers.

The residue sums skip only terms that are 0 mod p, and sum every other term
of the defining sum; they never assume the digit-product (Lucas) form they
are used to test. With n_i the base-p digits of n:

- Apery, sum over k of C(n, k)^2 C(n+k, k)^2: by Lucas's theorem C(n, k) is
  0 mod p unless k_i <= n_i in every digit, and by Kummer's theorem
  C(n+k, k) is 0 mod p when adding n and k in base p carries, that is
  unless k_i <= p-1-n_i in every digit. So only the box
  k_i <= min(n_i, p-1-n_i) is summed, ∏(min(n_i, p-1-n_i)+1) terms.
- omega, whose convolution term for w(m) carries C(m, k)^2: only the k with
  k_i <= m_i in every digit are summed, ∏(m_i+1) terms.

On the box both binomials are products of digit binomials, read from one
Pascal table mod p. The box is walked lazily, so memory stays O(p * digits)
for any n. Time does not: an index whose digits sit near p/2 still costs
time exponential in its digit count.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import prod

from .modmath import Prime, _pascal_mod, binomial_exact

__all__ = ["omega", "omega_mod", "apery", "apery_mod"]

# Prefix table for the convolution recurrence, grown in place.
_omega_table: list[int] = [1]


def _digit_box(n: int, p: int, width, cell):
    """Lazily walk the k with 0 <= k_i <= width(n_i) in every base-p digit of n.

    Yields one tuple per k, holding cell(n_i, k_i, p**i) for each digit i;
    n = 0 has no digits and yields one empty tuple, for k = 0. The order of
    the k (k = 0 first) does not depend on cell.
    """
    columns = []
    place = 1
    while n:
        n, d = divmod(n, p)
        columns.append([cell(d, k, place) for k in range(width(d) + 1)])
        place *= p
    return product(*columns)


def omega(n: int) -> int:
    """Coefficient w(n) of the reciprocal Bessel-type series, exactly.

    Defined by w(0) = 1 and the convolution
    sum over k of (-1)^k C(n, k)^2 w(n-k) = 0 for n >= 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    table = _omega_table
    while len(table) <= n:
        m = len(table)
        table.append(
            sum(
                (-1) ** (k + 1) * binomial_exact(m, k) ** 2 * table[m - k]
                for k in range(1, m + 1)
            )
        )
    return table[n]


@lru_cache(maxsize=4)
def _omega_mod_table(p: int) -> list[int]:
    # w(0), w(1), ... mod p, grown in place by omega_mod
    return [1 % p]


def omega_mod(n: int, p) -> int:
    """w(n) mod p from the same convolution, summed over the digit box of n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    p = int(Prime(p))
    table = _omega_mod_table(p)
    pascal = _pascal_mod(p)

    def full(d):
        return d

    # (-1)^k is the product of the (-1)^(k_i) for odd p, as every p^i is
    # odd; for p = 2 every sign is 1 mod p.
    def signed(d, k, place):
        return (-1) ** k * pascal[d][k] ** 2

    def complement(d, k, place):
        return (d - k) * place

    while len(table) <= n:
        m = len(table)
        terms = zip(
            map(prod, _digit_box(m, p, full, signed)),
            map(sum, _digit_box(m, p, full, complement)),
        )
        next(terms)  # k = 0 is w(m) itself
        table.append(-sum(c * table[j] for c, j in terms) % p)
    return table[n]


@lru_cache(maxsize=256)
def apery(n: int) -> int:
    """Apery number: sum over k of C(n, k)^2 C(n+k, k)^2."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(
        binomial_exact(n, k) ** 2 * binomial_exact(n + k, k) ** 2
        for k in range(n + 1)
    )


def apery_mod(n: int, p) -> int:
    """Apery number mod p, summed over the carry-free digit box of n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    p = int(Prime(p))
    pascal = _pascal_mod(p)

    def carry_free(d):
        return min(d, p - 1 - d)

    def term(d, k, place):
        return (pascal[d][k] * pascal[d + k][k]) ** 2 % p

    return sum(map(prod, _digit_box(n, p, carry_free, term))) % p
