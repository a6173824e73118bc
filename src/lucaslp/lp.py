"""Brute-force digit-product oracle and the fast criteria it cross-validates.

A sequence S has the Lucas property with prime p when S(n) is congruent mod p
to the product of S over the little-endian base-p digits of n, for every n.
The oracle here checks that congruence literally for every n below
p**digit_bound and reports the smallest violation. Closed-form criteria
(divisibility conditions on the recurrence data) are evaluated separately,
and cross-validation compares both routes cell by cell instead of trusting
either one.

The property holds iff S(p*m + j) = S(m) * S(j) mod p for every m >= 1 and
j < p (the digit-recursive form, McIntosh, Amer. Math. Monthly 99, 1992).
For S(n) = A(a*n + b), and for a power base**n, S satisfies a recurrence of
order k (2, or 1 for a power), and so does the gap between both sides in m
and in j (see `lp_bruteforce`). The oracle decides these specs from a k-by-k
certificate: rows m = 1..k and states j < k, at any p, with the full scan's
verdict and counterexample. The first violation has n mod p < k, and a
holding verdict holds for every n once p**(digit_bound - 1) > k; no
criterion and no period enters. F(42n+1) mod 211 reads four states instead
of 211**3 terms. Table, Apery and omega specs are read as one stream, of
at most _TERM_BUDGET terms: a longer scan is refused before it starts.
Its digit products come from `modmath._digit_products`, the library's one
digit-product recursion. `_rows` is the one rule for how many rows m a
scan reaches, and stops at a power of p past what either reader takes, so
no scan or zero check builds p**digit_bound.
The same order bounds the zero check and lemma 2's geometric form: k terms
decide whether S vanishes, and k + 1 whether S(n) = S(1)**n for every n.
The Apery and omega streams stop any read at _TERM_BUDGET terms, so the
lemma checks of specs without an order answer before it or raise there.

Every affine subsequence S(n) = A(a*n + b) of a second-order recurrence is
one `AffineSequence`. A family table holds, as data only, the theorem
number, recurrence, variant, reading, report columns and sign of "fib",
"lucas" and "general". Each criterion is theorem 3's rule on fixed data: a
vanishing residue c*s(a-1) and a seed residue A(b) mod p (`_clauses`) that
one rule, `_holds`, decides. A single in-process sweep drives the three
crossval entry points, which the CLI calls by name, and the valid-offset
enumeration. It alone bounds their size: it counts a grid's cells from
the lengths of its inputs and refuses more than _CELL_BUDGET before it
validates any of them, and reads an unsized prime source only that far.
Each distinct stride M^a mod p makes one row over the offsets, the sweep's
only cache: one certificate call, which reads each distinct start
A(b), A(b+1) once, and both clauses, as s(a-1) is the bottom-left entry
of M^a. Each a of that stride builds its GridCells in C.

A sequence that vanishes identically mod p satisfies the congruence
vacuously; as S satisfies a recurrence of order 2, it does so exactly
when S(0) = S(1) = 0.
Those cells say nothing about the criteria, so sweeps flag them and keep
them out of both the disagreement count and the valid-b sets.
"""

from __future__ import annotations

import sys
from functools import partial
from itertools import count, islice, repeat
from typing import NamedTuple

from .modmath import Prime, _digit_products, _iter_primes, digits_base_p
from .sequences import (
    FIBONACCI,
    LUCAS_NUMBERS,
    PELL,
    LinearRecurrence,
    ScanExhaustedError,
    _mat_pow,
    _stride_terms,
    period_mod,
    rec_term,
)
from .special import _apery_terms, _omega_residues

__all__ = [
    "AS_PROVED",
    "AS_STATED",
    "TableTooShortError",
    "NotFoundWithinBoundError",
    "AffineIndexMap",
    "SequenceSpec",
    "AffineSequence",
    "PowerSequence",
    "AperySequence",
    "OmegaSequence",
    "TableSequence",
    "fib_affine",
    "lucas_affine",
    "general_affine",
    "Counterexample",
    "LPVerdict",
    "lp_bruteforce",
    "sequence_is_zero_mod",
    "lemma1_check",
    "lemma2_check",
    "lemma3_closed_form",
    "theorem1_condition",
    "theorem2_condition",
    "theorem3_condition",
    "BEnumeration",
    "enumerate_valid_b",
    "corollary1_counterexample",
    "GridCell",
    "AgreementReport",
    "crossval_theorem1",
    "crossval_theorem2",
    "crossval_theorem3",
    "THEOREM3_DEFAULT_RECS",
]

AS_PROVED = "as-proved"
AS_STATED = "as-stated"


class TableTooShortError(ValueError):
    """Raised when a fixed value table cannot cover the requested scan."""


class NotFoundWithinBoundError(RuntimeError):
    """Raised when no prime below the bound produces a counterexample."""


class AffineIndexMap(NamedTuple("AffineIndexMap", [("a", int), ("b", int)])):
    """The index map n -> a*n + b with a >= 1, b >= 0."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "AffineIndexMap":
        if a < 1:
            raise ValueError(f"stride a must be >= 1, got {a}")
        if b < 0:
            raise ValueError(f"offset b must be >= 0, got {b}")
        return tuple.__new__(cls, (a, b))


# ---------------------------------------------------------------------------
# sequence specifications the oracle can sample


class SequenceSpec:
    """A concrete integer sequence, sampled mod p by the oracle.

    The specs below are NamedTuples that list this class first among their
    bases, so its equality comes before the tuple's: unlike tuples, specs
    compare equal only to a spec of their own type (AperySequence() !=
    OmegaSequence(), and no spec equals a plain tuple). For the same reason
    it defines no attribute that would hide a field, such as a default
    `variant` hiding `AffineSequence.variant`.
    """

    __slots__ = ()

    # the order k of a recurrence S satisfies mod every p from n = 0 on, or
    # None: k zeros in a row then force all zeros, and the oracle reads rows
    # m <= k and states j < k (see `_certificate`). A spec with an order also
    # defines _stride_state(p), the state the certificate and iter_residues step.
    _order = None

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):  # tuple's own __ne__ would come next
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    def iter_residues(self, p, count: int):
        """Yield S(0) mod p, ..., S(count-1) mod p: a spec with an order
        steps its _stride_state(p) in O(1) state, the others override this."""
        p = Prime(p)
        return _stride_terms(self._stride_state(p), p, count)

    def residues(self, p, count: int) -> list[int]:
        return list(self.iter_residues(p, count))

    def describe(self) -> dict:
        """Flat, JSON-friendly description of the sequence, used in reports."""
        return {"variant": self.variant}


class AffineSequence(
    SequenceSpec,
    NamedTuple(
        "AffineSequence",
        [("rec", LinearRecurrence), ("index_map", AffineIndexMap), ("variant", str)],
    ),
):
    """S(n) = A(a*n + b) for a second-order recurrence A.

    `variant` names the family the spec was built as (fib-affine,
    lucas-affine or general-affine); only general-affine describes its
    recurrence, since the other two fix it.
    """

    __slots__ = ()
    _order = 2

    def _stride_state(self, p: Prime):
        """(M**a, A(b), A(b+1)) mod p: the state (A(a*n+b+1), A(a*n+b)) times
        M**a is the state at n + 1, M the companion matrix of A."""
        rec, (a, b) = self.rec, self.index_map
        stride = _mat_pow((rec.u, rec.v, 1, 0), a, p)
        return stride, rec_term(rec, b, p), rec_term(rec, b + 1, p)

    def describe(self):
        d = {"variant": self.variant}
        if self.variant == "general-affine":
            d["rec"] = self.rec.as_string()
        d.update(a=self.index_map.a, b=self.index_map.b)
        return d


class PowerSequence(SequenceSpec, NamedTuple("PowerSequence", [("base", int)])):
    """S(n) = base**n, the multiplicative reference case (always LP)."""

    __slots__ = ()
    variant = "power"
    _order = 1

    def _stride_state(self, p: Prime):
        # base**n is A(n) for A(n+1) = base*A(n), A(0) = 1, whose companion
        # matrix is (base, 0, 1, 0)
        c = self.base % p
        return (c, 0, 1, 0), 1, c

    def describe(self):
        return {"variant": self.variant, "base": self.base}


class AperySequence(SequenceSpec, NamedTuple("AperySequence", [])):
    """S(n) = the nth Apery number.

    Residues are the exact terms of Apery's recurrence (`_apery_terms`)
    reduced mod p, so the oracle reads A(n) whole and not through the digit
    product it tests.
    """

    __slots__ = ()
    variant = "apery"

    def iter_residues(self, p, count):
        p = int(Prime(p))
        return _budgeted((term % p for term in _apery_terms()), count)


class OmegaSequence(SequenceSpec, NamedTuple("OmegaSequence", [])):
    """S(n) = the nth reciprocal-Bessel coefficient, read mod p in one pass
    of `_omega_residues`, which sums the convolution, not a digit product."""

    __slots__ = ()
    variant = "omega"

    def iter_residues(self, p, count):
        return _budgeted(_omega_residues(Prime(p)), count)


def _budgeted(stream, count: int):
    """The first `count` terms of an endless stream, for any count: a read
    that reaches _TERM_BUDGET terms short of count raises ScanExhaustedError
    there, so every answer found sooner stands."""
    yield from islice(stream, min(count, _TERM_BUDGET))
    if count > _TERM_BUDGET:
        raise ScanExhaustedError(f"the read passes the stream scan budget of {_TERM_BUDGET} terms")


class TableSequence(
    SequenceSpec, NamedTuple("TableSequence", [("values", tuple[int, ...])])
):
    """S given by an explicit value table S(0), S(1), ..."""

    __slots__ = ()
    variant = "table"

    def __new__(cls, values: tuple[int, ...]) -> "TableSequence":
        if not values:
            raise ValueError("value table must be non-empty")
        return tuple.__new__(cls, (values,))

    def iter_residues(self, p, count):
        if len(self.values) < count:
            raise TableTooShortError(
                f"table holds {len(self.values)} values but the scan needs {count}"
            )
        p = int(Prime(p))
        for value in islice(self.values, count):
            yield value % p

    def describe(self):
        return {"variant": self.variant, "length": len(self.values)}


def fib_affine(a: int, b: int) -> AffineSequence:
    return AffineSequence(FIBONACCI, AffineIndexMap(a, b), "fib-affine")


def lucas_affine(a: int, b: int) -> AffineSequence:
    return AffineSequence(LUCAS_NUMBERS, AffineIndexMap(a, b), "lucas-affine")


def general_affine(rec: LinearRecurrence, a: int, b: int) -> AffineSequence:
    return AffineSequence(rec, AffineIndexMap(a, b), "general-affine")


# ---------------------------------------------------------------------------
# the oracle


class Counterexample(NamedTuple):
    """A witness n with S(n) = lhs but digit product rhs, lhs != rhs mod p."""

    n: int
    lhs: int
    digits: tuple[int, ...]
    rhs: int

    def to_dict(self) -> dict:
        return {"n": self.n, "lhs": self.lhs, "digits": list(self.digits), "rhs": self.rhs}


class LPVerdict(
    NamedTuple(
        "LPVerdict",
        [
            ("holds", bool),
            ("prime", int),
            ("digit_bound", int),
            ("counterexample", Counterexample | None),
        ],
    )
):
    """Outcome of one brute-force scan."""

    __slots__ = ()

    def __new__(
        cls, holds: bool, prime: int, digit_bound: int,
        counterexample: Counterexample | None = None,
    ) -> "LPVerdict":
        if holds != (counterexample is None):
            raise ValueError("holds must be equivalent to the absence of a counterexample")
        return tuple.__new__(cls, (holds, prime, digit_bound, counterexample))

    def to_dict(self) -> dict:
        d = {"holds": self.holds, "prime": int(self.prime), "digit_bound": self.digit_bound}
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample.to_dict()
        return d


def lp_bruteforce(spec: SequenceSpec, p, digit_bound: int = 3) -> LPVerdict:
    """Check the digit-product congruence for every n < p**digit_bound.

    The scan reports the first (hence smallest) violating n. Single-digit n
    satisfy the congruence identically, so digit_bound must be at least 2
    for the scan to say anything.

    The congruence holds for every n iff D_j(m) = S(p*m + j) - S(j) * S(m)
    is 0 mod p for every m >= 1 and j < p. For S(n) = A(a*n + b), S(m) is a
    coordinate of (M**a)**m times a start state, M the companion matrix of
    A, so by Cayley-Hamilton it satisfies chi, the characteristic
    polynomial of M**a mod p, from m = 0 on. S(p*m + j) satisfies that of
    M**(a*p), whose roots are the p-th powers of the roots of chi; Frobenius
    permutes those, so it is chi too. So D_j satisfies chi, of order k = 2,
    and D_j(1) = D_j(2) = 0 forces D_j(m) = 0 for every m >= 1, singular M
    included. A power base**n satisfies x - base, of order k = 1, and
    D_j(1) = 0 suffices. For a fixed m, D_j(m) is one linear form in the
    state at j, and the states at j < k span all the others, so the scan
    reads rows m = 1..k and states j < k (`_certificate`, a stride's starts
    at once): k*k residues per start at any p, with the full scan's verdict
    and counterexample; with p**(digit_bound - 1) > k a pass holds for all n.

    Table, Apery and omega specs have no order and are read as one stream
    of every n < p**digit_bound. Their first p terms are the digit values,
    and `_digit_products` builds the product of every later n from the
    product for n // p, so that scan is linear in the number of indices
    checked. A stream of more than _TERM_BUDGET terms raises
    ScanExhaustedError before any term is read.
    """
    p = Prime(p)
    pi = int(p)
    rows = _rows(pi, digit_bound)
    if spec._order:
        stride, x0, y0 = spec._stride_state(p)
        (witness,) = _certificate(p, stride, [(x0, y0)], spec._order, rows)
        return LPVerdict(witness is None, p, digit_bound, witness)
    if rows * pi > _TERM_BUDGET:
        # p^digits is not spelled out: it may have more digits than str() converts
        raise ScanExhaustedError(
            f"{pi}^{digit_bound} terms exceed the stream scan budget of {_TERM_BUDGET}")
    it = spec.iter_residues(p, rows * pi)
    products = _digit_products(list(islice(it, pi)), pi)
    for n, lhs, rhs in zip(count(pi), it, islice(products, pi, None)):
        if lhs != rhs:
            return LPVerdict(
                False, p, digit_bound, Counterexample(n, lhs, digits_base_p(n, p).digits, rhs)
            )
    return LPVerdict(True, p, digit_bound)


def _rows(p: int, digit_bound: int) -> int:
    """The values of m = n // p that a scan of every n < p**digit_bound
    reaches, or p**e once digit_bound - 1 exceeds e, the bit length of
    _TERM_BUDGET: the certificate reads at most k + 1 <= 3 rows and the
    stream at most _TERM_BUDGET // p, and p**e >= 2**e exceeds both, so
    neither reader's answer changes and p**digit_bound is never built."""
    if digit_bound < 2:
        raise ValueError(f"digit_bound must be >= 2, got {digit_bound}")
    return p ** min(digit_bound - 1, _TERM_BUDGET.bit_length())


def _certificate(p: Prime, stride, starts, order: int, rows: int) -> list:
    """The oracle's certificate for S of recurrence order k = `order`, per
    start (x0, y0): the first violation among rows 1 <= m < min(rows, k + 1)
    and states j < min(p, k), as a Counterexample, or None. Each distinct
    start is read once, and starts that repeat share its verdict.

    S(n) = x_n for the state (y_n, x_n) = stride**n (y0, x0), stride = M**a
    mod p. The state at p*m + j is stride**(p*m) times the one at j, so
    D_j(m) = c*y + e*x with (c, d) the bottom row of that power and
    e = d - S(m): one matrix power per row, shared by the starts. The states
    satisfy the order-k recurrence S does, so those at j < k span all the
    others (Cayley-Hamilton), and a form that vanishes on them vanishes for
    every j < p. Rows go in increasing m and states in increasing j, so the
    first violation found is the smallest n, and its n mod p is below k.
    """
    m0, m1, m2, m3 = stride
    rows = min(rows, order + 1)  # at most 3, and the digits of each m < rows are below it
    jumps = [(digits_base_p(m, p).digits, _mat_pow(stride, p * m, p)[2:]) for m in range(1, rows)]
    states = range(min(p, order))
    def first_violation(x0, y0):
        x1, y1 = (m2 * y0 + m3 * x0) % p, (m0 * y0 + m1 * x0) % p
        first = (x0, x1, (m2 * y1 + m3 * x1) % p)  # S(0), S(1), S(2)
        for m, (digits, (c, d)) in enumerate(jumps, 1):
            digit_product = 1
            for digit in digits:
                digit_product = digit_product * first[digit] % p
            e = d - digit_product  # D_j(m) = c*y + e*x
            x, y = x0, y0
            for j in states:
                if (c * y + e * x) % p:
                    lhs, rhs = (c * y + d * x) % p, digit_product * x % p
                    return Counterexample(p * m + j, lhs, (j, *digits), rhs)
                x, y = (m2 * y + m3 * x) % p, (m0 * y + m1 * x) % p
        return None
    verdicts = {start: first_violation(*start) for start in dict.fromkeys(starts)}
    return list(map(verdicts.__getitem__, starts))


def sequence_is_zero_mod(spec: SequenceSpec, p, digit_bound: int = 3) -> bool:
    """True when S(n) is 0 mod p for every n the oracle would scan.

    Such a sequence passes the oracle vacuously; callers use this to flag
    those passes instead of counting them as evidence. It is `lemma1_check`
    answering None on that scan, which reads a spec of recurrence order k
    for its first k terms, as k zeros force all zeros. Any other spec reads
    its n < p**digit_bound. A table whose length has fewer than digit_bound
    bits is refused as too short before any power is built, so no table
    meets the cap on the power at p**63, past sys.maxsize; the Apery and
    omega streams can, and stop at _TERM_BUDGET terms long before it.
    """
    if digit_bound < 1:
        raise ValueError(f"digit_bound must be >= 1, got {digit_bound}")
    p = Prime(p)
    if isinstance(spec, TableSequence) and digit_bound > len(spec.values).bit_length():
        raise TableTooShortError(
            f"table holds {len(spec.values)} values but the scan needs {p}^{digit_bound}")
    scan = spec._order or int(p) ** min(digit_bound, sys.maxsize.bit_length())
    return lemma1_check(spec, p, scan) is None


# ---------------------------------------------------------------------------
# lemma-level checks and closed-form criteria


def lemma1_check(spec: SequenceSpec, p, scan: int | None = None):
    """Whether S(0) = 1 mod p; None when S is identically zero.

    Scans S on [0, scan) (default p**3), or on its first k terms for a spec
    of recurrence order k, as k zeros force all zeros. S(0) = 1 is not
    necessary: S vanishing from n = 1 on has the property whatever S(0) is.
    An identically-zero S gets the inapplicable answer None, and one with
    S(0) != 0 gets False (S = 3, 0, 0, ... at p = 7).
    """
    p = Prime(p)
    if scan is None:
        scan = int(p) ** 3
    if scan < 1:
        raise ValueError(f"scan must be >= 1, got {scan}")
    it = spec.iter_residues(p, min(scan, spec._order or scan))
    first = next(it)
    if first != 0:
        return first == 1
    if all(r == 0 for r in it):
        return None
    return False


def lemma2_check(spec: SequenceSpec, p, n_bound: int) -> bool:
    """Check the geometric form S(n) = S(1)**n mod p for all n < n_bound.

    A spec of recurrence order k is read for min(n_bound, k + 1) terms: it
    satisfies its recurrence from n = 0 on, so S(n) = S(1)**n for n <= k
    makes S(1) a root of the recurrence's polynomial, so S(1)**n satisfies
    the recurrence too and, agreeing with S on its first k terms, equals S.
    An Apery or omega stream that agrees for _TERM_BUDGET terms short of
    n_bound raises ScanExhaustedError: Apery numbers are geometric mod 2
    (every one is odd) and mod 3 (A(n) = 2**n), so no early exit ends it.
    """
    p = Prime(p)
    if n_bound < 1:
        raise ValueError(f"n_bound must be >= 1, got {n_bound}")
    pi = int(p)
    it = spec.iter_residues(p, min(n_bound, (spec._order or n_bound) + 1))
    if next(it) != 1 % pi:
        return False
    s1 = expected = next(it, 1)
    for v in it:
        expected = expected * s1 % pi
        if v != expected:
            return False
    return True


def lemma3_closed_form(kind: str, n: int) -> int:
    """Mod-5 closed forms: F(n) = n*3**(n-1), L(n) = 3**(n-1), for n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    power = pow(3, n - 1, 5)
    if kind == "fib":
        return n * power % 5
    if kind == "lucas":
        return power
    raise ValueError(f"kind must be 'fib' or 'lucas', got {kind!r}")


def _check_reading(reading: str) -> str:
    if reading not in (AS_PROVED, AS_STATED):
        raise ValueError(f"reading must be {AS_PROVED!r} or {AS_STATED!r}, got {reading!r}")
    return reading


def _clauses(fam, rec: LinearRecurrence, index_map: AffineIndexMap, p, reading=None):
    """(vanishing, seed) residues mod p of an affine criterion, which
    `_holds` decides.

    Every criterion is theorem 3's: the vanishing residue is c * s(a-1) with
    c = v * (v A0^2 + u A0 A1 - A1^2), and s(a-1) is the bottom-left entry of
    M**a, M = (u, v, 1, 0) the companion matrix of A. On Lucas data c = 5;
    the Fibonacci family negates c, as it reports F(a) = s(a-1). The seed
    residue is A(b), or F(b) under theorem 2's as-stated reading. `_sweep`
    reads both from the M**a and A(b) it holds.
    """
    p = Prime(p)
    stride = _mat_pow((rec.u, rec.v, 1, 0), index_map.a, p)
    c = fam.sign * rec.v * rec.seed_discriminant()
    return c * stride[2] % p, rec_term(FIBONACCI if reading == AS_STATED else rec, index_map.b, p)


def _holds(vanishing: int, seed: int) -> bool:
    return vanishing == 0 and seed == 1


def theorem1_condition(index_map: AffineIndexMap, p) -> bool:
    """F(a) = 0 and F(b) = 1 mod p: the criterion for S(n) = F(a*n + b)."""
    return _holds(*_clauses(_FAMILIES["fib"], FIBONACCI, index_map, p))


def theorem2_condition(index_map: AffineIndexMap, p, reading: str = AS_PROVED) -> bool:
    """Criterion for S(n) = L(a*n + b): 5F(a) = 0 mod p plus a seed clause.

    The two readings differ in the seed clause: as-proved requires
    L(b) = 1 mod p, as-stated requires F(b) = 1 mod p. The as-stated form
    is refutable by brute force (see the cross-validation sweeps), so
    as-proved is the default.
    """
    return _holds(*_clauses(_FAMILIES["lucas"], LUCAS_NUMBERS, index_map, p,
                            _check_reading(reading)))


def theorem3_condition(rec: LinearRecurrence, index_map: AffineIndexMap, p) -> bool:
    """Criterion for S(n) = A(a*n + b):

    v * s(a-1) * (v A0^2 + u A0 A1 - A1^2) = 0 mod p  and  A(b) = 1 mod p.
    """
    return _holds(*_clauses(_FAMILIES["general"], rec, index_map, p))


# ---------------------------------------------------------------------------
# the affine families and enumeration of valid offsets


class _Family(NamedTuple):
    theorem: int
    rec: LinearRecurrence | None  # None: the caller supplies the recurrence
    variant: str
    reading: str | None  # default seed-clause reading; None where there is no choice
    clauses: tuple[str, str]  # report columns of the vanishing and the seed residue
    sign: int  # of c relative to theorem 3's (see `_clauses`)


_FAMILIES = {
    "fib": _Family(1, FIBONACCI, "fib-affine", None, ("fib_a_mod_p", "fib_b_mod_p"), -1),
    "lucas": _Family(
        2, LUCAS_NUMBERS, "lucas-affine", AS_PROVED, ("five_fib_a_mod_p", "seed_term_mod_p"), 1
    ),
    "general": _Family(
        3, None, "general-affine", None, ("vanishing_factor_mod_p", "term_b_mod_p"), 1
    ),
}


class BEnumeration(NamedTuple):
    """Offsets b (mod the sequence period) that pass the oracle for fixed a."""

    family: str
    a: int
    prime: int
    digit_bound: int
    preperiod: int
    modulus: int
    valid_b: tuple[int, ...]
    predicted_b: tuple[int, ...]
    identically_zero_b: tuple[int, ...]
    rec: LinearRecurrence | None = None

    @property
    def matches_prediction(self) -> bool:
        return self.valid_b == self.predicted_b


# cells a sweep holds at most: enumerate-b's 262,048 offsets at p = 131023
# peak at 169 MB (2 CPUs, Python 3.11.7)
_CELL_BUDGET = 1 << 18
# terms a table, Apery or omega stream is read for at most. Exact Apery terms
# grow, so its 41^3 = 68,921 take 13 s (2 CPUs, Python 3.11.7)
_TERM_BUDGET = 1 << 17


def enumerate_valid_b(
    family: str,
    a: int,
    p,
    digit_bound: int = 3,
    rec: LinearRecurrence | None = None,
) -> BEnumeration:
    """All offsets b with S(n) = A(a*n + b) passing the oracle mod p.

    b runs over [0, preperiod + period) of the underlying sequence mod p,
    which covers every distinct residue behaviour; beyond the preperiod,
    offsets repeat with the period, reported as `modulus`. Identically-zero
    offsets (vacuous passes) are listed separately and excluded from
    valid_b. predicted_b holds the offsets the closed-form criterion
    accepts, for side-by-side comparison. Each offset is one cell of
    `_sweep`, so more than _CELL_BUDGET offsets raise its ScanExhaustedError
    before any is swept.
    """
    p = Prime(p)
    if family not in _FAMILIES:
        raise ValueError(f"family must be 'fib', 'lucas' or 'general', got {family!r}")
    base_rec = _FAMILIES[family].rec or rec
    if base_rec is None:
        raise ValueError("family 'general' needs an explicit recurrence")
    info = period_mod(base_rec, p)
    offsets = range(info.preperiod + info.period)
    cells = _sweep(family, (base_rec,), (p,), (a,), offsets, digit_bound, AS_PROVED).cells
    return BEnumeration(
        family=family,
        a=a,
        prime=int(p),
        digit_bound=digit_bound,
        preperiod=info.preperiod,
        modulus=info.period,
        valid_b=tuple(c.b for c in cells if c.oracle_holds and not c.identically_zero),
        predicted_b=tuple(c.b for c in cells if c.predicted),
        identically_zero_b=tuple(c.b for c in cells if c.identically_zero),
        rec=base_rec if family == "general" else None,
    )


def corollary1_counterexample(
    index_map: AffineIndexMap,
    prime_bound: int = 50,
    family: str = "fib",
    digit_bound: int = 3,
):
    """Smallest prime <= prime_bound where S(n) fails the oracle, with witness.

    For a, b >= 1 no affine Fibonacci or Lucas subsequence has the property
    for every prime, so some prime should fail; primes are tried in
    increasing order and the first failing one is returned as
    (prime, verdict). Raises NotFoundWithinBoundError when every prime up
    to the bound passes.
    """
    if index_map.b < 1:
        raise ValueError(f"offset b must be >= 1 here, got {index_map.b}")
    if family not in _FAMILIES or _FAMILIES[family].rec is None:
        raise ValueError(f"family must be 'fib' or 'lucas', got {family!r}")
    spec = AffineSequence(_FAMILIES[family].rec, index_map, _FAMILIES[family].variant)
    # lazily: the first failing prime is small, and a list up to a large
    # bound (primes_upto) costs seconds before the first scan
    for q in _iter_primes(prime_bound):
        verdict = lp_bruteforce(spec, q, digit_bound)
        if not verdict.holds:
            return q, verdict
    raise NotFoundWithinBoundError(
        f"no failing prime <= {prime_bound} for a={index_map.a}, b={index_map.b}"
    )


# ---------------------------------------------------------------------------
# cross-validation sweeps


class GridCell(NamedTuple):
    """One (prime, a, b) comparison of criterion vs oracle."""

    prime: int
    a: int
    b: int
    predicted: bool
    oracle_holds: bool
    identically_zero: bool
    rec: LinearRecurrence | None = None
    counterexample: Counterexample | None = None

    @property
    def disagrees(self) -> bool:
        return not self.identically_zero and self.predicted != self.oracle_holds


class AgreementReport(NamedTuple):
    """Outcome of a full criterion-vs-oracle sweep."""

    theorem: int
    reading: str | None
    digit_bound: int
    cells: tuple[GridCell, ...]

    @property
    def disagreements(self) -> tuple[GridCell, ...]:
        return tuple(c for c in self.cells if c.disagrees)

    @property
    def identically_zero_cells(self) -> tuple[GridCell, ...]:
        return tuple(c for c in self.cells if c.identically_zero)


THEOREM3_DEFAULT_RECS = (
    FIBONACCI,
    LUCAS_NUMBERS,
    PELL,
    LinearRecurrence(1, 2, 1, 1),
    LinearRecurrence(2, 1, 3, 2),
)


def _offset_states(rec: LinearRecurrence, b_values, p: Prime):
    """(A(b), A(b+1)) mod p for each b: one step from the previous offset's
    state when b follows it, two `rec_term` calls at a gap."""
    x = y = last = None
    for b in b_values:
        x, y = ((y, (rec.u * y + rec.v * x) % p) if b - 1 == last
                else (rec_term(rec, b, p), rec_term(rec, b + 1, p)))
        last = b
        yield x, y


def _sweep(family, recs, primes, a_values, b_values, digit_bound, reading=None):
    """Criterion and oracle over every (rec, prime, a, b), in that nesting order.

    Each (rec, p) makes one row per distinct stride M^a mod p, the matrix
    and not a mod a period, its only cache: one `_certificate` call for the
    starts (A(b), A(b+1)) of every offset, which reads each distinct start
    once, then per offset the criterion, verdict, zero flag and witness,
    which each a of that stride reads into GridCells built in C. S satisfies
    x^2 - tr(M^a)*x + det(M^a) mod p from n = 0 on, M the companion matrix
    of A (see `lp_bruteforce`), so S is identically zero exactly when
    S(0) = S(1) = 0, S(1) = A(a + b) being the bottom row of M^a times
    (A(b+1), A(b)). `_holds` decides the clauses from that state: s(a-1) is
    M^a's bottom-left entry, the seed S(0), or F(b) as theorem 2 is stated.

    The sweep is the one place that bounds a grid: more than _CELL_BUDGET
    cells raise ScanExhaustedError from the four lengths, before any input
    is validated (a range stays a range; other sized iterables become
    tuples). A prime source without a length, such as the CLI's generator,
    is read only until the grid passes the budget, and the error then gives
    the cells counted so far as a lower bound.
    """
    fam = _FAMILIES[family]
    recs, a_values, b_values = (
        v if isinstance(v, range) else tuple(v) for v in (recs, a_values, b_values))
    per_prime = len(recs) * len(a_values) * len(b_values)
    # an unsized prime source is read only until the grid passes the budget
    at_least = "" if hasattr(primes, "__len__") else "at least "
    if at_least:
        primes = islice(primes, _CELL_BUDGET // per_prime + 1 if per_prime else 0)
    primes = primes if isinstance(primes, range) else tuple(primes)
    if (cells := per_prime * len(primes)) > _CELL_BUDGET:
        raise ScanExhaustedError(
            f"{at_least}{cells} cells exceed the sweep budget of {_CELL_BUDGET}")
    primes = [Prime(p) for p in primes]
    if not cells:
        return AgreementReport(fam.theorem, reading, digit_bound, ())
    # AffineIndexMap's error for the first cell, in sweep order, that it
    # refuses: it checks the stride first
    first_bad_b = next((b for b in b_values if b < 0), 0)
    for a in a_values:
        AffineIndexMap(a, first_bad_b)
    cells = []
    for rec in recs:
        cell_rec = rec if fam.rec is None else None  # only general names it per cell
        c = fam.sign * rec.v * rec.seed_discriminant()
        for p in primes:
            pi = int(p)
            rows = _rows(pi, digit_bound)  # refuses digit_bound < 2
            starts = list(_offset_states(rec, b_values, p))
            seeds = ([x for x, _ in _offset_states(FIBONACCI, b_values, p)]
                     if reading == AS_STATED else [s0 for s0, _ in starts])
            by_stride = {}
            for a in a_values:
                stride = _mat_pow((rec.u, rec.v, 1, 0), a, pi)
                if stride not in by_stride:
                    m2 = stride[2]  # s(a-1), and S(1) = s(a-1)*A(b+1) where S(0) = A(b) = 0
                    witness = _certificate(p, stride, starts, 2, rows)
                    by_stride[stride] = (list(map(_holds, repeat(c * m2 % pi), seeds)),
                                         [w is None for w in witness],
                                         [s0 == m2 * y % pi == 0 for s0, y in starts], witness)
                predicted, holds, zero, witness = by_stride[stride]
                # tuple.__new__ builds each GridCell in C, from zip's reused tuple
                cells += map(partial(tuple.__new__, GridCell), zip(
                    repeat(pi), repeat(a), b_values, predicted, holds, zero, repeat(cell_rec), witness))
    return AgreementReport(fam.theorem, reading, digit_bound, tuple(cells))


def crossval_theorem1(primes, a_values, b_values, digit_bound: int = 3) -> AgreementReport:
    """Sweep the Fibonacci affine criterion against the oracle."""
    return _sweep("fib", (FIBONACCI,), primes, a_values, b_values, digit_bound)


def crossval_theorem2(
    primes, a_values, b_values, reading: str = AS_PROVED, digit_bound: int = 3
) -> AgreementReport:
    """Sweep the Lucas affine criterion (either reading) against the oracle."""
    return _sweep(
        "lucas", (LUCAS_NUMBERS,), primes, a_values, b_values, digit_bound,
        _check_reading(reading),
    )


def crossval_theorem3(
    recs, primes, a_values, b_values, digit_bound: int = 3
) -> AgreementReport:
    """Sweep the general affine criterion against the oracle, per recurrence."""
    return _sweep("general", recs, primes, a_values, b_values, digit_bound)
