"""Exact residual checks: every identity must give residual zero, exactly."""

import random

import pytest

from lucaslp import sequences
from lucaslp.cli import run_cli
from lucaslp.identities import (
    IndexOrderError,
    catalan_residual,
    general_catalan_residual,
    lucas_catalan_residual,
    shift_identity_residual,
)
from lucaslp.sequences import FIBONACCI, LUCAS_NUMBERS, PELL, LinearRecurrence


def random_recs(seed, count, span=5):
    rng = random.Random(seed)
    return [
        LinearRecurrence(*(rng.randint(-span, span) for _ in range(4)))
        for _ in range(count)
    ]


def test_catalan_single_cells():
    # F(5)^2 - F(7)F(3) = 25 - 26 = -1 = (-1)^3 F(2)^2
    assert catalan_residual(5, 2) == 0
    assert catalan_residual(0, 0) == 0
    assert catalan_residual(7, 7) == 0


def test_catalan_index_order():
    with pytest.raises(IndexOrderError):
        catalan_residual(3, 4)
    with pytest.raises(IndexOrderError):
        catalan_residual(3, -1)


def test_catalan_sweep():
    for n in range(101):
        for r in range(n + 1):
            assert catalan_residual(n, r) == 0, (n, r)


def test_lucas_catalan_single_cells():
    # L(7)L(3) - L(5)^2 = 116 - 121 = -5 = (-1)^3 * 5 F(2)^2
    assert lucas_catalan_residual(5, 2) == 0
    assert lucas_catalan_residual(0, 0) == 0


def test_lucas_catalan_index_order():
    with pytest.raises(IndexOrderError):
        lucas_catalan_residual(2, 5)


def test_lucas_catalan_sweep():
    for n in range(101):
        for r in range(n + 1):
            assert lucas_catalan_residual(n, r) == 0, (n, r)


def test_general_catalan_specializes_to_fibonacci():
    # with seeds (0, 1) the closed-form factor is -1, matching the
    # negated Fibonacci identity
    assert FIBONACCI.seed_discriminant() == -1
    for n in range(1, 40):
        for r in range(1, n + 1):
            assert general_catalan_residual(FIBONACCI, n, r) == 0, (n, r)


def test_general_catalan_specializes_to_lucas():
    # seeds (2, 1) give factor 1*4 + 1*2 - 1 = 5
    assert LUCAS_NUMBERS.seed_discriminant() == 5
    for n in range(1, 40):
        for r in range(1, n + 1):
            assert general_catalan_residual(LUCAS_NUMBERS, n, r) == 0, (n, r)


def test_general_catalan_index_order():
    with pytest.raises(IndexOrderError):
        general_catalan_residual(PELL, 5, 0)
    with pytest.raises(IndexOrderError):
        general_catalan_residual(PELL, 5, 6)


def test_general_catalan_random_recurrences():
    for rec in [PELL, LinearRecurrence(2, 1, 3, 2)] + random_recs(19, 10):
        for n in range(1, 31):
            for r in range(1, n + 1):
                assert general_catalan_residual(rec, n, r) == 0, (rec, n, r)


def test_shift_identity_examples():
    # k = 1 reduces to the recurrence itself; k = 0 is the trivial shift
    for rec in (FIBONACCI, LUCAS_NUMBERS, PELL):
        for m in range(2, 20):
            assert shift_identity_residual(rec, m, 0, 1) == 0
            assert shift_identity_residual(rec, m, 0, 0) == 0


def test_shift_identity_index_order():
    with pytest.raises(IndexOrderError):
        shift_identity_residual(FIBONACCI, 2, 0, 2)
    with pytest.raises(IndexOrderError):
        shift_identity_residual(FIBONACCI, 1, 1, -1)


def test_shift_identity_sweep():
    for rec in [FIBONACCI, LUCAS_NUMBERS, PELL] + random_recs(23, 8):
        for m in range(1, 31):
            for k in range(m):
                assert shift_identity_residual(rec, m, 0, k) == 0, (rec, m, k)


def test_shift_identity_split_indices():
    # the check depends only on n + r; exercise nonzero r explicitly
    for rec in (PELL, LinearRecurrence(2, 1, 3, 2)):
        for n in range(1, 16):
            for r in range(0, 8):
                for k in range(n + r):
                    assert shift_identity_residual(rec, n, r, k) == 0


def test_general_sweep_misses_the_term_cache_once_per_term(capsys):
    # n - r, n and n + r run over 0..120 at n_max 60
    sequences._rec_term.cache_clear()
    assert run_cli(["identity", "--which", "general", "--rec", "2,1,3,2", "--n-max", "60"]) == 0
    capsys.readouterr()
    info = sequences._rec_term.cache_info()
    assert info.misses == info.currsize == 121
