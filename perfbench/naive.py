"""Independent reference computations for the benchmark's spot checks.

Nothing here imports lucaslp: the oracle recomputes the digit-product
congruence from the recurrence itself, and the special sequences come from
their exact binomial sums. A spot check that agrees with the CLI therefore
confirms the program by a second route, not by its own code.
"""

from __future__ import annotations

from math import comb

FIBONACCI = (0, 1, 1, 1)


def _step(state, u, v, p):
    x, y = state
    return y, (u * y + v * x) % p


def term_mod(rec, k, p):
    """A(k) mod p by iterating A(n) = u*A(n-1) + v*A(n-2) from the seeds."""
    a0, a1, u, v = rec
    state = (a0 % p, a1 % p)
    for _ in range(k):
        state = _step(state, u, v, p)
    return state[0]


def scan(rec, p, a, b, digits=3):
    """(holds, identically_zero, scanned) for S(n) = A(a*n + b), n < p**digits.

    The a-step map on the state pair (A(k), A(k+1)) is composed from a unit
    steps, and the right-hand side multiplies S over the base-p digits of n
    directly, so neither the term table nor the dynamic digit product of the
    library is involved. `scanned` counts the indices looked at: up to the
    first violation, or all of them.
    """
    u, v = rec[2], rec[3]
    # images of the basis states under a unit steps give the a-step matrix
    e1, e2 = _jump_basis(a, u, v, p)
    x, y = term_mod(rec, b, p), term_mod(rec, b + 1, p)
    head = []
    zero = True
    for n in range(p**digits):
        if n < p:
            head.append(x)
        else:
            rhs, m = 1, n
            while m:
                rhs = rhs * head[m % p] % p
                m //= p
            if x != rhs:
                return False, False, n + 1
        zero = zero and x == 0
        x, y = (x * e1[0] + y * e2[0]) % p, (x * e1[1] + y * e2[1]) % p
    return True, zero, p**digits


def _jump_basis(a, u, v, p):
    e1, e2 = (1, 0), (0, 1)
    for _ in range(a):
        e1, e2 = _step(e1, u, v, p), _step(e2, u, v, p)
    return e1, e2


def oracle(rec, p, a, b, digits=3):
    """(holds, identically_zero) of the digit-product congruence on n < p**digits."""
    return scan(rec, p, a, b, digits)[:2]


def predicted(theorem, rec, p, a, b):
    """The closed-form criterion evaluated by plain iteration.

    Criterion 1 (rec is Fibonacci): F(a) = 0 and F(b) = 1 mod p.
    Criterion 3: v*s(a-1)*(v*A0^2 + u*A0*A1 - A1^2) = 0 and A(b) = 1 mod p,
    where s(0) = 1, s(1) = u and s(k) = u*s(k-1) + v*s(k-2).
    """
    a0, a1, u, v = rec
    if theorem == 1:
        return term_mod(FIBONACCI, a, p) == 0 and term_mod(FIBONACCI, b, p) == 1
    s = term_mod((1, u, u, v), a - 1, p)
    disc = v * a0 * a0 + u * a0 * a1 - a1 * a1
    return (v * s * disc) % p == 0 and term_mod(rec, b, p) == 1


def apery_mod(n_max, p):
    """Apery numbers A(0..n_max) mod p from the exact binomial sums."""
    return [
        sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1)) % p
        for n in range(n_max + 1)
    ]


def omega_mod(n_max, p):
    """Reciprocal-Bessel coefficients w(0..n_max) mod p, exact then reduced.

    w(0) = 1 and sum over k of (-1)^k C(n, k)^2 w(n-k) = 0 for n >= 1.
    """
    w = [1]
    for m in range(1, n_max + 1):
        w.append(sum((-1) ** (k + 1) * comb(m, k) ** 2 * w[m - k] for k in range(1, m + 1)))
    return [x % p for x in w]
