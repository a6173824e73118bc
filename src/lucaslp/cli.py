"""Command-line interface: every verification task as a subcommand.

Reports are machine-readable (json by default, csv or plain on request) and
deterministic: identical invocations produce byte-identical output. Exit
codes follow one contract everywhere: 0 when every checked property holds
(or a listing completed), 1 when a counterexample or disagreement was found,
2 for usage errors such as composite moduli or malformed recurrences, and
when the inputs need more memory than there is.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import compress, islice, repeat
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

from .modmath import Prime, _digit_products, _iter_primes
from .sequences import FIBONACCI, LinearRecurrence, alpha, period_mod
from .identities import (
    catalan_residual,
    general_catalan_residual,
    lucas_catalan_residual,
    shift_identity_residual,
)
from .lp import (
    AS_PROVED,
    AS_STATED,
    AffineIndexMap,
    AffineSequence,
    AperySequence,
    NotFoundWithinBoundError,
    OmegaSequence,
    PowerSequence,
    SequenceSpec,
    TableSequence,
    THEOREM3_DEFAULT_RECS,
    _FAMILIES,
    _TERM_BUDGET,
    _clauses,
    _holds,
    corollary1_counterexample,
    crossval_theorem1,
    crossval_theorem2,
    crossval_theorem3,
    enumerate_valid_b,
    lp_bruteforce,
)
from .special import _apery_digits, _apery_terms, _omega_residues, _omega_terms

__all__ = ["Report", "CsvUnrepresentableError", "format_report", "run_cli"]


class CsvUnrepresentableError(ValueError):
    """Raised when a report is too nested for a flat csv rendering."""


class _Table(NamedTuple):
    """Verdict rows held as columns: one sequence of scalars per key, keys
    in first-seen order, at least one row.

    `crossval`, `enumerate-b` and `special` hand their rows to the
    renderers in this form, so a large report is rendered a column at a
    time instead of a cell at a time. Dict rows are rendered one at a time.
    """

    keys: tuple[str, ...]
    columns: tuple


class Report(NamedTuple):
    """The uniform report shape every subcommand emits.

    `verdicts` holds one dict per row, or the rows as a _Table.
    """

    command: str
    inputs: dict
    verdicts: list[dict] | _Table
    agreement: dict | None = None

    def to_dict(self) -> dict:
        d = {"command": self.command, "inputs": self.inputs, "verdicts": self.verdicts}
        if self.agreement is not None:
            d["agreement"] = self.agreement
        return d


# ---------------------------------------------------------------------------
# rendering


def _csv_scalar(value, context: str):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        if any(isinstance(x, (list, tuple, dict)) for x in value):
            raise CsvUnrepresentableError(f"nested sequence under {context!r} does not fit csv")
        return ";".join(str(_csv_scalar(x, context)) for x in value)
    if isinstance(value, dict):
        raise CsvUnrepresentableError(f"nested mapping under {context!r} does not fit csv")
    return value


def _flatten_row(row: dict) -> dict:
    flat = {}
    for key, value in row.items():
        if isinstance(value, dict):
            for sub, sv in value.items():
                flat[f"{key}.{sub}"] = _csv_scalar(sv, f"{key}.{sub}")
        else:
            flat[key] = _csv_scalar(value, key)
    return flat


def _columns(rows) -> list[str]:
    # keys of all rows in first-seen order
    return list(dict.fromkeys(key for row in rows for key in row))


def _distinct(values):
    """(keys, distinct): a key per value, and the first value of each key. 1, True,
    1.0 are equal keys, as are 0.0, -0.0, so mixed or float columns add type and repr."""
    types = set(map(type, values))
    one_type = len(types) == 1 and not issubclass(*types, float)
    keys = values if one_type else list(zip(map(type, values), values, map(repr, values)))
    return keys, dict(zip(keys, values))


def _format_csv(report: Report) -> str:
    import csv  # only csv output needs it, so other commands start faster

    lines = []  # csv.writer calls write once per row, with the row and its "\n"
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    verdicts = report.verdicts
    if type(verdicts) is _Table:
        writer.writerow(verdicts.keys)
        # as in _json_table, each distinct value of a column is written once, in
        # a row of its own, and table rows join their spellings. csv quotes a lone
        # empty field, so beside other columns a value gets an empty field to cut off
        pad = [repeat("")] if len(verdicts.keys) > 1 else []
        cells = []
        for values in verdicts.columns:
            keys, distinct = _distinct(values)
            spell = ["true" if v is True else "false" if v is False else v for v in distinct.values()]
            writer.writerows(zip(spell, *pad))
            distinct.update(zip(distinct, [text[:-1 - len(pad)] for text in lines[1:]]))
            del lines[1:]
            cells.append(map(distinct.__getitem__, keys))
        return lines[0] + "\n".join(map(",".join, zip(*cells))) + "\n"
    rows = [_flatten_row(r) for r in verdicts]
    columns = _columns(rows)
    writer.writerow(columns)
    writer.writerows([list(map(row.get, columns, repeat(""))) for row in rows])
    return "".join(lines)


# json.dumps(indent=2) always runs json's pure-Python encoder, one generator
# frame per value. A table takes json's C encoder instead (indent=None), once
# per column for its distinct values, with a bare "\n" as the item separator:
# encoded strings escape their newlines, so splitting on "\n" gives one
# spelling per value.
_encode_column = json.JSONEncoder(separators=("\n", ": ")).encode


def _json_table(table: _Table, level: int) -> str:
    """The rows of a table as json.dumps(sort_keys=True, indent=2) renders
    them, as if nested `level` deep: one C encoder call per column for its
    distinct values, and one str.join per row of their spellings."""
    outer = "\n" + "  " * level
    inner = outer + "  "
    cells = []
    for n, (key, values) in enumerate(sorted(zip(*table), key=itemgetter(0))):
        keys, distinct = _distinct(values)
        head = ("," if n else "") + inner + "  " + _encode_column(key) + ": "
        spelled = _encode_column(list(distinct.values()))[1:-1].split("\n")
        distinct.update(zip(distinct, [head + text for text in spelled]))
        cells.append(map(distinct.__getitem__, keys))
    rows = (inner + "}," + inner + "{").join(map("".join, zip(*cells)))
    return "[" + inner + "{" + rows + inner + "}" + outer + "]"


def _format_json(report: Report) -> str:
    """json.dumps(report.to_dict(), sort_keys=True, indent=2) and a newline."""
    fields = report.to_dict()
    if type(report.verdicts) is not _Table:
        return json.dumps(fields, sort_keys=True, indent=2) + "\n"
    # only the table takes its own path; inputs and agreement are nested one deep
    parts = [json.dumps(key) + ": " + (_json_table(value, 1) if key == "verdicts" else
             json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  "))
             for key, value in sorted(fields.items())]
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def _plain_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return ";".join(_plain_scalar(v) for v in value) if value else "-"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _format_plain(report: Report) -> str:
    lines = [f"command: {report.command}"]
    if report.inputs:
        parts = [f"{k}={_plain_scalar(v)}" for k, v in sorted(report.inputs.items())]
        lines.append("inputs: " + " ".join(parts))
    rows = report.verdicts
    if rows:
        if type(rows) is _Table:
            keys, columns = rows
        else:
            keys = _columns(rows)
            columns = [[row.get(k) for row in rows] for k in keys]
        cells = [list(map(_plain_scalar, column)) for column in columns]
        widths = [max(len(k), *map(len, column)) for k, column in zip(keys, cells)]
        lines.append("  ".join(map(str.ljust, keys, widths)).rstrip())
        padded = [map(str.ljust, column, repeat(w)) for column, w in zip(cells, widths)]
        # dict rows with no keys still print one empty line each
        lines.extend(map(str.rstrip, map("  ".join, zip(*padded))) if keys else [""] * len(rows))
    if report.agreement is not None:
        lines.append("agreement:")
        for k, v in sorted(report.agreement.items()):
            lines.append(f"  {k}: {_plain_scalar(v)}")
    return "\n".join(lines) + "\n"


def format_report(report: Report, fmt: str = "json") -> str:
    """Render a report in one of the supported output formats."""
    if fmt == "json":
        return _format_json(report)
    if fmt == "csv":
        return _format_csv(report)
    if fmt == "plain":
        return _format_plain(report)
    raise ValueError(f"format must be json, csv or plain, got {fmt!r}")


# ---------------------------------------------------------------------------
# argument types


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _arg_type(parse):
    """`parse` as an argparse type: its ValueError message is the usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (Report, exit_code)


# affine family names by the number of their criterion and by spec variant
_BY_THEOREM = {fam.theorem: name for name, fam in _FAMILIES.items()}
_BY_VARIANT = {fam.variant: name for name, fam in _FAMILIES.items()}


def _recurrences(args, applies: bool, where: str, many: bool = False) -> tuple:
    """The --rec values, checked once: only the selection `where` takes --rec.

    Without --rec a sweep (`many`) runs THEOREM3_DEFAULT_RECS and a single
    query fails.
    """
    given = () if args.rec is None else tuple(args.rec) if many else (args.rec,)
    if given and not applies:
        raise ValueError(f"--rec only applies to {where}")
    if applies and not given and not many:
        raise ValueError(f"{where} needs --rec A0,A1,u,v")
    return given or (THEOREM3_DEFAULT_RECS if applies else ())


def _affine(args, family: str, label: str, many: bool = False):
    """(family row, recurrences, reading) of a subcommand on an affine family.

    `label` renders a family's selection from its name and fields, e.g.
    "--which {theorem}". This is the one place --reading is checked.
    """
    fam = _FAMILIES[family]

    def where(takes):
        return " and ".join(
            label.format(name=n, **f._asdict()) for n, f in _FAMILIES.items() if takes(f)
        )

    reading = getattr(args, "reading", None)
    if reading is not None and fam.reading is None:
        raise ValueError(f"--reading only applies to {where(lambda f: f.reading)}")
    recs = _recurrences(args, fam.rec is None, where(lambda f: f.rec is None), many)
    return fam, recs or (fam.rec,), reading or fam.reading


def _build_spec(args) -> SequenceSpec:
    variant = args.variant
    if variant in _BY_VARIANT:
        if args.a is None or args.b is None:
            raise ValueError(f"variant {variant} needs --a and --b")
        fam, (rec,), _ = _affine(args, _BY_VARIANT[variant], "variant {variant}")
        return AffineSequence(rec, AffineIndexMap(args.a, args.b), fam.variant)
    if variant == "power":
        if args.base is None:
            raise ValueError("variant power needs --base")
        return PowerSequence(args.base)
    if variant == "table":
        if args.values is None:
            raise ValueError("variant table needs --values v0,v1,...")
        return TableSequence(args.values)
    if variant == "apery":
        return AperySequence()
    return OmegaSequence()


def _cmd_lp_check(args):
    spec = _build_spec(args)
    verdict = lp_bruteforce(spec, args.prime, args.digits)
    inputs = {**spec.describe(), "prime": int(args.prime), "digits": args.digits}
    row = {**spec.describe(), **verdict.to_dict()}
    return Report("lp-check", inputs, [row]), (0 if verdict.holds else 1)


def _cmd_theorem(args):
    fam, (rec,), reading = _affine(args, _BY_THEOREM[args.which], "--which {theorem}")
    index_map = AffineIndexMap(args.a, args.b)  # refuses a < 1 and b < 0
    inputs = {"theorem": fam.theorem, "prime": int(args.prime), "a": args.a, "b": args.b}
    row = dict(inputs)
    if reading:
        row["reading"] = reading
    if fam.rec is None:
        row["rec"] = rec.as_string()
    clauses = _clauses(fam, rec, index_map, args.prime, reading)
    row.update(zip(fam.clauses, clauses))
    row["condition"] = condition = _holds(*clauses)
    return Report("theorem", inputs, [row]), (0 if condition else 1)


def _cmd_enumerate_b(args):
    fam, (rec,), _ = _affine(args, args.family, "--family {name}")
    enum = enumerate_valid_b(args.family, args.a, args.prime, args.digits, rec=rec)
    offsets = range(enum.preperiod + enum.modulus)
    flags = [list(map(set(bs).__contains__, offsets)) for bs in (
        (*enum.valid_b, *enum.identically_zero_b), enum.predicted_b, enum.identically_zero_b)]
    rows = _Table(("b", "oracle_holds", "predicted", "identically_zero"), (offsets, *flags))
    agreement = {
        "preperiod": enum.preperiod,
        "modulus": enum.modulus,
        "valid_b": list(enum.valid_b),
        "predicted_b": list(enum.predicted_b),
        "identically_zero_b": list(enum.identically_zero_b),
        "matches_prediction": enum.matches_prediction,
    }
    inputs = {
        "family": args.family,
        "a": args.a,
        "prime": int(args.prime),
        "digits": args.digits,
    }
    if fam.rec is None:
        inputs["rec"] = rec.as_string()
    code = 0 if enum.matches_prediction else 1
    return Report("enumerate-b", inputs, rows, agreement), code


def _cmd_alpha(args):
    value = alpha(args.prime)
    inputs = {"prime": int(args.prime)}
    return Report("alpha", inputs, [{"prime": int(args.prime), "alpha": value}]), 0


def _cmd_period(args):
    rec = args.rec if args.rec is not None else FIBONACCI
    inputs = {"rec": rec.as_string(), "prime": int(args.prime)}
    row = {**inputs, **period_mod(rec, args.prime)._asdict()}
    return Report("period", inputs, [row]), 0


# cells an identity sweep reads at most: `identity --which catalan --n-max
# 1000` has 501,501 and takes about 6.5 s (2 CPUs, Python 3.11.7)
_IDENTITY_BUDGET = 1 << 19


def _sweep_residuals(cells, residual, label):
    """Residual statistics over `cells`, argument tuples of `residual` read one
    at a time; only the first nonzero cell is named, as label.format(*args)."""
    count = nonzero = max_abs = 0
    first = None
    for args in cells:
        res = residual(*args)
        count += 1
        if res != 0:
            nonzero += 1
            max_abs = max(max_abs, abs(res))
            if first is None:
                first = label.format(*args)
    return {
        "cells": count,
        "nonzero": nonzero,
        "max_abs_residual": max_abs,
        "first_nonzero": first,
    }


def _cmd_identity(args):
    which = args.which
    defaults = {"catalan": 200, "lucas-catalan": 200, "general": 60, "shift": 60}
    n_max = args.n_max if args.n_max is not None else defaults[which]
    if n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {n_max}")
    recs = _recurrences(
        args, which in ("general", "shift"), "general and shift identities", many=True
    )
    catalan = which in ("catalan", "lucas-catalan")
    # counted before any residual: r <= n <= n_max, or 1 <= r <= n per recurrence
    count = (n_max + 1) * (n_max + 2) // 2 if catalan else len(recs) * n_max * (n_max + 1) // 2
    if count > _IDENTITY_BUDGET:
        raise ValueError(f"{count} cells exceed the identity budget of {_IDENTITY_BUDGET}")
    if catalan:
        residual = catalan_residual if which == "catalan" else lucas_catalan_residual
        cells = ((n, r) for n in range(n_max + 1) for r in range(n + 1))
        rows = [{"identity": which, "n_max": n_max,
                 **_sweep_residuals(cells, residual, "n={},r={}")}]
    else:
        rows = []
        for rec in recs:
            if which == "general":
                cells = ((rec, n, r) for n in range(1, n_max + 1) for r in range(1, n + 1))
                stats = _sweep_residuals(cells, general_catalan_residual, "n={1},r={2}")
            else:
                cells = ((rec, m, 0, k) for m in range(1, n_max + 1) for k in range(m))
                stats = _sweep_residuals(cells, shift_identity_residual, "n+r={1},k={3}")
            rows.append({"identity": which, "rec": rec.as_string(), "n_max": n_max, **stats})
    total_nonzero = sum(r["nonzero"] for r in rows)
    inputs = {"which": which, "n_max": n_max}
    return Report("identity", inputs, rows), (0 if total_nonzero == 0 else 1)


def _cmd_special(args):
    if args.n_max < 0:
        raise ValueError(f"--n must be >= 0, got {args.n_max}")
    indices = range(args.n_max + 1)
    if len(indices) > _TERM_BUDGET:
        raise ValueError(
            f"{len(indices)} terms exceed the stream scan budget of {_TERM_BUDGET}")
    inputs = {"seq": args.seq, "n_max": args.n_max}
    if args.prime is None:
        # one exact stream: each value is one step of the recurrence or convolution
        terms = _apery_terms() if args.seq == "apery" else _omega_terms()
        # str() refuses ints of more digits than this limit (0: no limit), so
        # the first such value ends the table before any later one is computed
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        too_long = 10**limit if limit else None
        values = []
        for n, value in zip(indices, terms):
            if too_long is not None and abs(value) >= too_long:
                raise ValueError(
                    f"Exceeds the limit ({limit} digits) for integer string conversion "
                    f"at n = {n}: pass --prime, or raise the limit with PYTHONINTMAXSTRDIGITS"
                )
            values.append(value)
        rows = _Table(("n", "value"), (indices, values))
    else:
        p = inputs["prime"] = int(args.prime)
        # apery takes the digit-product route, by design: A(n) = A(n // p) A(n % p) mod p
        stream = (_digit_products(_apery_digits(p, min(args.n_max, p - 1)), p)
                  if args.seq == "apery" else _omega_residues(args.prime))
        values = list(islice(stream, len(indices)))
        rows = _Table(("n", "prime", "value_mod_p"), (indices, [p] * len(indices), values))
    return Report("special", inputs, rows), 0


def _cmd_crossval(args):
    fam, recs, reading = _affine(
        args, _BY_THEOREM[args.theorem], "--theorem {theorem}", many=True
    )
    if args.prime_max < 2:
        raise ValueError(f"no primes <= {args.prime_max}")
    inputs = {
        "theorem": fam.theorem,
        "prime_max": args.prime_max,
        "a_max": args.a_max,
        "b_max": args.b_max,
        "digits": args.digits,
    }
    if reading:
        inputs["reading"] = reading
    with_rec = fam.rec is None
    if with_rec:
        inputs["recs"] = [r.as_string() for r in recs]
    # the primes are read lazily, so the sweep stops reading them at its budget
    grid = _iter_primes(args.prime_max), range(1, args.a_max + 1), range(args.b_max + 1)
    # each entry point by its module-level name at call time, so one rebound
    # on this module (as a tracer does) is the one that runs
    sweep = (crossval_theorem1(*grid, args.digits) if fam.theorem == 1 else
             crossval_theorem2(*grid, reading, args.digits) if fam.theorem == 2 else
             crossval_theorem3(recs, *grid, args.digits))
    cells = sweep.cells
    # the fields of every GridCell as columns, and its disagrees property
    prime, a, b, predicted, holds, zero, rec, witness = zip(*cells) if cells else ((),) * 8
    disagrees = [c.disagrees for c in cells]
    keys = ("prime", "a", "b", "predicted", "oracle_holds", "identically_zero", "disagrees")
    columns = (prime, a, b, predicted, holds, zero, disagrees)
    if with_rec:
        # csv columns come in first-seen key order, so rec leads
        names = {r: r.as_string() for r in set(rec)}
        keys, columns = ("rec", *keys), (list(map(names.__getitem__, rec)), *columns)
    disagreements = [
        {
            **{k: column[i] for k, column in zip(keys, columns)},
            "counterexample": witness[i].to_dict() if witness[i] else None,
        }
        for i in compress(range(len(cells)), disagrees)
    ]
    agreement = {
        "theorem": fam.theorem,
        "reading": sweep.reading,
        "cells": len(cells),
        "flagged_identically_zero": sum(zero),
        "disagreement_count": len(disagreements),
        "disagreements": disagreements,
    }
    rows = _Table(keys, columns) if cells else []
    return Report("crossval", inputs, rows, agreement), (1 if disagreements else 0)


def _cmd_counterexample(args):
    index_map = AffineIndexMap(args.a, args.b)
    inputs = {
        "family": args.family,
        "a": args.a,
        "b": args.b,
        "prime_bound": args.prime_bound,
        "digits": args.digits,
    }
    base = {"family": args.family, "a": args.a, "b": args.b}
    try:
        found_prime, verdict = corollary1_counterexample(
            index_map, args.prime_bound, args.family, args.digits
        )
    except NotFoundWithinBoundError:
        row = {**base, "found": False, "prime_bound": args.prime_bound}
        return Report("counterexample", inputs, [row]), 0
    row = {**base, "found": True, **verdict.to_dict()}
    return Report("counterexample", inputs, [row]), 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucaslp",
        description="Verify digit-product congruences for integer sequences mod p.",
    )
    prime_type, rec_type = _arg_type(Prime), _arg_type(LinearRecurrence.from_string)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "plain"), default="json",
        help="report rendering (default json)",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p_check = sub.add_parser(
        "lp-check", parents=[common], help="brute-force one sequence at one prime"
    )
    p_check.add_argument(
        "variant",
        choices=(*_BY_VARIANT, "power", "apery", "omega", "table"),
    )
    p_check.add_argument("--prime", type=prime_type, required=True)
    p_check.add_argument("--digits", type=int, default=3, help="scan all n < prime**digits")
    p_check.add_argument("--a", type=int, help="index stride for affine variants")
    p_check.add_argument("--b", type=int, help="index offset for affine variants")
    p_check.add_argument("--rec", type=rec_type, help="recurrence A0,A1,u,v")
    p_check.add_argument("--base", type=int, help="base for the power variant")
    p_check.add_argument("--values", type=_arg_type(_int_list), help="comma-separated table values")
    p_check.set_defaults(handler=_cmd_lp_check)

    p_thm = sub.add_parser(
        "theorem", parents=[common], help="evaluate a closed-form criterion"
    )
    p_thm.add_argument("--which", type=int, choices=tuple(_BY_THEOREM), required=True)
    p_thm.add_argument("--a", type=int, required=True)
    p_thm.add_argument("--b", type=int, required=True)
    p_thm.add_argument("--prime", type=prime_type, required=True)
    p_thm.add_argument("--rec", type=rec_type, help="recurrence A0,A1,u,v (criterion 3)")
    p_thm.add_argument(
        "--reading", choices=(AS_PROVED, AS_STATED),
        help="seed clause variant for criterion 2 (default as-proved)",
    )
    p_thm.set_defaults(handler=_cmd_theorem)

    p_enum = sub.add_parser(
        "enumerate-b", parents=[common],
        help="list offsets b passing the oracle for a fixed stride",
    )
    p_enum.add_argument("--family", choices=tuple(_FAMILIES), default="fib")
    p_enum.add_argument("--a", type=int, required=True)
    p_enum.add_argument("--prime", type=prime_type, required=True)
    p_enum.add_argument("--digits", type=int, default=3)
    p_enum.add_argument("--rec", type=rec_type, help="recurrence A0,A1,u,v (family general)")
    p_enum.set_defaults(handler=_cmd_enumerate_b)

    p_alpha = sub.add_parser(
        "alpha", parents=[common], help="least n >= 1 with p dividing F(n)"
    )
    p_alpha.add_argument("--prime", type=prime_type, required=True)
    p_alpha.set_defaults(handler=_cmd_alpha)

    p_period = sub.add_parser(
        "period", parents=[common], help="preperiod and period of a recurrence mod p"
    )
    p_period.add_argument("--prime", type=prime_type, required=True)
    p_period.add_argument("--rec", type=rec_type, help="recurrence A0,A1,u,v (default Fibonacci)")
    p_period.set_defaults(handler=_cmd_period)

    p_ident = sub.add_parser(
        "identity", parents=[common], help="sweep an identity for zero residuals"
    )
    p_ident.add_argument(
        "--which", choices=("catalan", "lucas-catalan", "general", "shift"), required=True
    )
    p_ident.add_argument("--n-max", type=int, dest="n_max")
    p_ident.add_argument(
        "--rec", type=rec_type, action="append",
        help="recurrence A0,A1,u,v; repeatable (general and shift)",
    )
    p_ident.set_defaults(handler=_cmd_identity)

    p_special = sub.add_parser(
        "special", parents=[common], help="tabulate Apery or reciprocal-Bessel values"
    )
    p_special.add_argument("--seq", choices=("apery", "omega"), required=True)
    p_special.add_argument("--n", type=int, dest="n_max", required=True,
                           help="tabulate indices 0..n")
    p_special.add_argument("--prime", type=prime_type, help="reduce values mod this prime")
    p_special.set_defaults(handler=_cmd_special)

    p_cross = sub.add_parser(
        "crossval", parents=[common],
        help="sweep a criterion against the oracle over a (prime, a, b) grid",
    )
    p_cross.add_argument("--theorem", type=int, choices=tuple(_BY_THEOREM), required=True)
    p_cross.add_argument("--prime-bound", type=int, dest="prime_max", default=13,
                         help="use every prime <= this bound (default 13)")
    p_cross.add_argument("--a-max", type=int, dest="a_max", default=12)
    p_cross.add_argument("--b-max", type=int, dest="b_max", default=12)
    p_cross.add_argument("--digits", type=int, default=3)
    p_cross.add_argument(
        "--reading", choices=(AS_PROVED, AS_STATED),
        help="seed clause variant for theorem 2 (default as-proved)",
    )
    p_cross.add_argument(
        "--rec", type=rec_type, action="append",
        help="recurrence A0,A1,u,v; repeatable (theorem 3)",
    )
    p_cross.set_defaults(handler=_cmd_crossval)

    p_counter = sub.add_parser(
        "counterexample", parents=[common],
        help="smallest prime where an affine subsequence fails the oracle",
    )
    p_counter.add_argument("--a", type=int, required=True)
    p_counter.add_argument("--b", type=int, required=True)
    p_counter.add_argument(
        "--family", choices=tuple(n for n, f in _FAMILIES.items() if f.rec), default="fib"
    )
    p_counter.add_argument("--prime-bound", type=int, dest="prime_bound", default=50)
    p_counter.add_argument("--digits", type=int, default=3)
    p_counter.set_defaults(handler=_cmd_counterexample)

    return parser


def run_cli(argv=None) -> int:
    """Parse argv, run the subcommand, print its report, return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report, code = args.handler(args)
        text = format_report(report, args.format)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
