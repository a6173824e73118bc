"""Apery numbers and the reciprocal-Bessel coefficients, exact and mod p.

Both sequences are defined through binomial sums, so their residues mod p
come from tables over the digits d < p rather than from reducing huge
integers. With n_i the base-p digits of n:

- Apery: apery_mod(n, p) is the product of apery(n_i) mod p over the
  digits, the Lucas property of the Apery numbers (Gessel, J. Number
  Theory 14, 1982). `_apery_digits` tabulates apery(d) mod p for d < p by
  stepping Apery's recurrence on A(d) d!^3, which needs no division, and
  dividing d!^3 out with one inverse-factorial table. So a call costs
  O(largest digit) past its walk over the digits from `digits_base_p`,
  and `special --prime` lists `modmath._digit_products` over one table
  for all its rows. The oracle does not read this route: AperySequence
  reduces `_apery_terms`, Apery's recurrence stepped on exact integers, as
  a route that uses the property would confirm it whatever the sequence
  does.
- omega, whose convolution term for w(m) carries C(m, k)^2: only the k with
  k_i <= m_i in every digit are summed. They are summed one digit group at
  a time: with m = p*h + m0, the terms whose k has a nonzero upper part
  k_h form one p-vector per group of p indices, built from the digit box
  of h (prod(h_i+1) - 1 table slices, its digits from `digits_base_p`),
  and each index adds the rest with one dot product of length m0+1. This
  regroups the defining sum by distributivity; it never forms a product of
  earlier terms, so it never assumes the digit-product form the oracle
  tests.

Every digit binomial d!/(k!(d-k)!) is read from factorial and
inverse-factorial tables mod p, which hold O(p) residues. Each reader
builds its own, up to the largest digit it reads, and nothing caches
them: `apery_mod` per call, and the omega stream grows its tables across
its first group (all p once n >= p - 1).

Every sequence comes as a stream that holds its state only while it is
read: `_apery_terms` and `_omega_terms` exactly, `_omega_residues` mod p.
`omega(n)` and `omega_mod(n, p)` read one up to n and keep nothing;
`apery(n)` stays the definitional sum, the reference for the stream.
"""

from __future__ import annotations

from itertools import count, islice, repeat
from math import prod
from operator import add, mod, mul

from .modmath import Prime, _factorials, binomial_exact, digits_base_p

__all__ = ["omega", "omega_mod", "apery", "apery_mod"]


def _omega_terms():
    """Yield w(0), w(1), ... exactly.

    w(0) = 1, and w(m) for m >= 1 solves the convolution
    sum over k of (-1)^k C(m, k)^2 w(m-k) = 0, with the row C(m, .) grown
    from the last by Pascal's rule. The prefix table lives in the
    generator, so it is freed with it.
    """
    table, row = [1], [1]
    yield 1
    while True:
        row = [1, *map(add, row, row[1:]), 1]  # C(m, 0..m) for the next m
        # (-1)^(k+1) C(m, k)^2 w(m-k) for k = 1..m: odd k add, even k subtract
        terms = list(map(mul, map(mul, row[1:], row[1:]), reversed(table)))
        w = sum(terms[0::2]) - sum(terms[1::2])
        table.append(w)
        yield w


def omega(n: int) -> int:
    """Coefficient w(n) of the reciprocal Bessel-type series, exactly.

    Defined by w(0) = 1 and the convolution
    sum over k of (-1)^k C(n, k)^2 w(n-k) = 0 for n >= 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return next(islice(_omega_terms(), n, None))


def _group_vector(table: list[int], h: int, p: int, fact, inv_fact) -> list[int]:
    """The k_h != 0 part of group h of `_omega_residues`, divided by j!^2:
    the sum over the digit box of h of c(k_h) * table[p*(h-k_h) + j], for
    j = 0..p-1, mod p. It reads only table entries below p*h, and the digits
    of h from `digits_base_p`."""
    # one (c(k_h), p*(h - k_h)) pair per k_h whose digits k_i <= h_i, grown
    # a digit at a time with k_h = 0 first; prod(h_i + 1) <= h + 1 pairs,
    # fewer than the p*h table entries they read. (-1)^k_h is the product of
    # the (-1)^(k_i) for odd p, as every p^i is odd
    terms, place = [(1, 0)], p
    for d in digits_base_p(h, p).digits:
        column = []
        for k in range(d + 1):
            c = fact[d] * inv_fact[k] * inv_fact[d - k]
            column.append((-c * c if k % 2 else c * c, (d - k) * place))
        terms = [(c * e % p, s + t) for c, s in terms for e, t in column]
        place *= p
    acc = [0] * p
    for c, start in terms[1:]:  # k_h = 0 reads the current group
        acc = list(map(add, acc, map(mul, repeat(c), table[start:start + p])))
    return list(map(mod, map(mul, acc, map(mul, inv_fact, inv_fact)), repeat(p)))


def _omega_residues(p: Prime):
    """Yield w(0), w(1), ... mod p, from the convolution summed one digit
    group at a time.

    Write m = p*h + m0. By Lucas's theorem C(m, k) = C(h, k_h) C(m0, k0)
    mod p for k = p*k_h + k0, so (-1)^k C(m, k)^2 w(m-k) splits into
    c(k_h) s(k0) w(p*(h-k_h) + m0-k0), with c(t) = (-1)^t C(h, t)^2 and
    s(t) = (-1)^t C(m0, t)^2 ((-1)^k is the product of the two signs for
    odd p, as p*k_h has the parity of k_h; for p = 2 every sign is 1).
    With C(m0, k0) = m0! / (k0! (m0-k0)!), the convolution gives

        w(m) = -m0!^2 * sum over j <= m0 of signed[m0 - j] * group[j],

    where signed[t] = (-1)^t / t!^2 and, for j = 0..p-1,

        group[j] = (sum over k_h != 0 of c(k_h) w(p*(h-k_h) + j)
                    + w(p*h + j) once it is known) / j!^2.

    The k_h != 0 part reads w only below p*h: `_group_vector` builds it once
    per group. The k_h = 0 part is added as each w(p*h + j) is found. So
    each index costs one dot product. The prefix table, the factorial
    tables, the signed vector and the group vector live in the generator,
    so they are freed with it; across the first group they grow one digit
    per step, so a small n at a large prime reads small vectors. p is a
    Prime, so `digits_base_p` does not test it again for each group.
    """
    table, signed, group = [1], [1], [1]  # group 0 holds w(0) = 1 / 0!^2
    fact, inv_fact = [1], [1]
    yield 1
    for m in count(1):
        h, m0 = divmod(m, p)
        if not h:
            fact.append(fact[-1] * m0 % p)
            inv_fact.append(inv_fact[-1] * pow(m0, p - 2, p) % p)
            f = inv_fact[m0]
            signed.append((-f * f if m0 % 2 else f * f) % p)
            group.append(0)
        elif not m0:
            group = _group_vector(table, h, p, fact, inv_fact)
        conv = sum(map(mul, group, signed[m0::-1])) % p
        w = -fact[m0] * fact[m0] * conv % p
        table.append(w)
        group[m0] = (group[m0] + w * inv_fact[m0] ** 2) % p
        yield w


def omega_mod(n: int, p) -> int:
    """w(n) mod p, read from the stream `_omega_residues` up to n.

    Nothing is kept after it returns, so each call costs O(n) steps from
    w(0): a caller that needs many indices should read the stream once, as
    the oracle and `special --prime` do, not call this once per index.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return next(islice(_omega_residues(Prime(p)), n, None))


def _apery_terms():
    """Yield A(0), A(1), ... exactly, from Apery's recurrence
    (n+1)^3 A(n+1) = (34n^3 + 51n^2 + 27n + 5) A(n) - n^3 A(n-1).

    A(n) has about 5.1n bits, so N terms cost time quadratic in N.
    """
    prev, cur = 0, 1  # A(-1) is multiplied by 0
    for n in count():
        yield cur
        step = (34 * n**3 + 51 * n**2 + 27 * n + 5) * cur - n**3 * prev
        prev, cur = cur, step // (n + 1) ** 3


def apery(n: int) -> int:
    """Apery number: sum over k of C(n, k)^2 C(n+k, k)^2.

    The definitional sum, O(n) big binomials per call: the reference the
    recurrence stream `_apery_terms` is tested against.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(
        binomial_exact(n, k) ** 2 * binomial_exact(n + k, k) ** 2
        for k in range(n + 1)
    )


def _apery_digits(p: int, top: int) -> list[int]:
    """apery(d) mod p for 0 <= d <= top < p, the digit values of `apery_mod`.

    C(d) = A(d) d!^3 steps Apery's recurrence without its division,
    C(n+1) = (34n^3 + 51n^2 + 27n + 5) C(n) - n^6 C(n-1), so it holds mod p;
    d!^3 is a unit for d < p, and one inverse factorial table divides it out.
    """
    _, inv_fact = _factorials(p, top)
    prev, cur, scaled = 0, 1, []  # C(-1) is multiplied by 0
    for n in range(top + 1):
        scaled.append(cur)
        prev, cur = cur, ((34 * n**3 + 51 * n**2 + 27 * n + 5) * cur - n**6 * prev) % p
    return [c * f**3 % p for c, f in zip(scaled, inv_fact)]


def apery_mod(n: int, p) -> int:
    """Apery number mod p: the product of apery(d) mod p over the base-p digits d of n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    p = Prime(p)
    digits = digits_base_p(n, p).digits
    table = _apery_digits(p, max(digits))
    return prod(table[d] for d in digits) % p
