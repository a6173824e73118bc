"""The package namespace: the union of its layers' public names."""

import lucaslp
from lucaslp import cli, identities, lp, modmath, sequences, special

LAYERS = (modmath, sequences, identities, special, lp, cli)

# the public API as it stood when __init__ spelled every name out
PUBLIC_NAMES = [
    "AS_PROVED", "AS_STATED", "AffineIndexMap", "AffineSequence", "AgreementReport",
    "AperySequence", "BEnumeration", "Counterexample", "CsvUnrepresentableError",
    "DigitExpansion", "FIBONACCI", "GridCell", "IndexOrderError", "LPVerdict",
    "LUCAS_NUMBERS", "LinearRecurrence", "NonInvertibleError", "NotFoundWithinBoundError",
    "OmegaSequence", "PELL", "PeriodInfo", "PowerSequence", "Prime", "Report",
    "ScanExhaustedError", "SequenceSpec", "THEOREM3_DEFAULT_RECS", "TableSequence",
    "TableTooShortError", "alpha", "apery", "apery_mod", "binomial_exact",
    "binomial_mod_lucas", "catalan_residual", "corollary1_counterexample",
    "crossval_theorem1", "crossval_theorem2", "crossval_theorem3", "digits_base_p",
    "enumerate_valid_b", "fib", "fib_affine", "fib_mod", "format_report", "general_affine",
    "general_catalan_residual", "inverse_mod", "is_prime", "lemma1_check", "lemma2_check",
    "lemma3_closed_form", "lp_bruteforce", "lucas_affine", "lucas_catalan_residual",
    "lucas_mod", "lucas_num", "omega", "omega_mod", "period_mod", "pow_mod", "primes_upto",
    "rec_term", "run_cli", "s_poly", "sequence_is_zero_mod", "shift_identity_residual",
    "t_poly", "term_table_mod", "theorem1_condition", "theorem2_condition",
    "theorem3_condition",
]


def test_package_exports_the_same_names():
    assert sorted(lucaslp.__all__) == PUBLIC_NAMES
    assert len(set(lucaslp.__all__)) == len(lucaslp.__all__)


def test_each_name_is_its_layer_object():
    owners = {}
    for layer in LAYERS:
        for name in layer.__all__:
            assert name not in owners, (name, owners.get(name), layer.__name__)
            owners[name] = layer
    assert sorted(owners) == PUBLIC_NAMES
    for name, layer in owners.items():
        assert getattr(lucaslp, name) is getattr(layer, name), name


def test_cli_entry_point_stays_out_of_the_package():
    assert not hasattr(lucaslp, "main")
    assert callable(cli.main)
