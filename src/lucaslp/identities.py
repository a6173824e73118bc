"""Catalan-type and shift identities as exact integer residuals.

Every checker returns lhs - rhs over the integers; a correct identity means
the residual is exactly 0, so sweeps assert zero rather than any tolerance.
"""

from __future__ import annotations

from .sequences import FIBONACCI, LUCAS_NUMBERS, LinearRecurrence, rec_term, s_poly, t_poly

__all__ = [
    "IndexOrderError",
    "catalan_residual",
    "lucas_catalan_residual",
    "general_catalan_residual",
    "shift_identity_residual",
]


class IndexOrderError(ValueError):
    """Raised when identity indices violate the required ordering."""


def catalan_residual(n: int, r: int) -> int:
    """F(n)^2 - F(n+r)F(n-r) - (-1)^(n-r) F(r)^2, needing n >= r >= 0: minus
    the general residual on Fibonacci data, and 0 at r = 0."""
    if r < 0 or r > n:
        raise IndexOrderError(f"need n >= r >= 0, got n={n}, r={r}")
    return -general_catalan_residual(FIBONACCI, n, r) if r else 0


def lucas_catalan_residual(n: int, r: int) -> int:
    """L(n+r)L(n-r) - L(n)^2 - (-1)^(n-r) 5 F(r)^2, needing n >= r >= 0: the
    general residual on Lucas data, and 0 at r = 0."""
    if r < 0 or r > n:
        raise IndexOrderError(f"need n >= r >= 0, got n={n}, r={r}")
    return general_catalan_residual(LUCAS_NUMBERS, n, r) if r else 0


def general_catalan_residual(rec: LinearRecurrence, n: int, r: int) -> int:
    """A(n+r)A(n-r) - A(n)^2 - (-v)^(n-r) s(r-1)^2 (v A0^2 + u A0 A1 - A1^2).

    Needs n >= r >= 1.
    """
    if r < 1 or r > n:
        raise IndexOrderError(f"need n >= r >= 1, got n={n}, r={r}")
    s = s_poly(r - 1, rec.u, rec.v)
    lhs = rec_term(rec, n + r) * rec_term(rec, n - r) - rec_term(rec, n) ** 2
    return lhs - (-rec.v) ** (n - r) * s * s * rec.seed_discriminant()


def shift_identity_residual(rec: LinearRecurrence, n: int, r: int, k: int) -> int:
    """A(n+r) - s(k)A(n+r-k) - t(k)A(n+r-k-1), needing n + r >= k + 1 >= 1.

    At k = 0 the conventions s(0) = 1, t(0) = 0 make this hold trivially.
    """
    if n < 0 or r < 0 or k < 0:
        raise IndexOrderError(f"need n, r, k >= 0, got n={n}, r={r}, k={k}")
    m = n + r
    if m < k + 1:
        raise IndexOrderError(f"need n + r >= k + 1, got n + r = {m}, k = {k}")
    return (
        rec_term(rec, m)
        - s_poly(k, rec.u, rec.v) * rec_term(rec, m - k)
        - t_poly(k, rec.u, rec.v) * rec_term(rec, m - k - 1)
    )
