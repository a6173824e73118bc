"""Run one lucaslp CLI command in-process with timed spans around each layer.

    python3 perfbench/tracer.py {plain|traced} STATS_JSON -- ARGV...

The benchmark starts this script as a fresh interpreter, exactly like a
plain CLI call. It imports lucaslp from the checkout's `src/` (the import
is the first span), replaces the public functions of lp, sequences,
identities, special and cli with timing wrappers in every lucaslp module
that holds a reference to them, and then calls `lucaslp.cli.run_cli`, so
the layers run in the order the CLI calls them. The spans are kept in
memory and written to STATS_JSON when the command ends; stdout and the exit
code are the CLI's own.

`plain` wraps only the crossval entry points (one call per command, so it
costs nothing measurable) to time the sweep under the current
LUCASLP_THREADS. `traced` wraps every layer below.

Times are inclusive of nested spans, except `lp.lp_bruteforce.scan_self_s`,
the oracle's own scan: its span minus the nested spans (term tables,
Apery/omega residues) minus the time to produce the residue prefix it
consumed, which is measured again after the call with the term table cached.
Bookkeeping done by the tracer itself is excluded from every span and
reported as `tracer_s`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

perf_counter = time.perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

# layer name -> (module, public functions timed as that layer)
LAYERS = {
    "lp.lp_bruteforce": ("lucaslp.lp", ("lp_bruteforce",)),
    "lp.sequence_is_zero_mod": ("lucaslp.lp", ("sequence_is_zero_mod",)),
    "lp.criterion": (
        "lucaslp.lp", ("theorem1_condition", "theorem2_condition", "theorem3_condition"),
    ),
    "lp.crossval": ("lucaslp.lp", ("crossval_theorem1", "crossval_theorem2", "crossval_theorem3")),
    "sequences.term_table_mod": ("lucaslp.sequences", ("term_table_mod", "period_mod")),
    "sequences.s_poly": ("lucaslp.sequences", ("s_poly",)),
    "sequences.rec_term": ("lucaslp.sequences", ("rec_term",)),
    "sequences.fib_mod": ("lucaslp.sequences", ("fib_mod", "lucas_mod")),
    "sequences.alpha": ("lucaslp.sequences", ("alpha",)),
    "identities.residual": (
        "lucaslp.identities",
        ("catalan_residual", "lucas_catalan_residual", "general_catalan_residual",
         "shift_identity_residual"),
    ),
    "special.apery_mod": ("lucaslp.special", ("apery_mod",)),
    "special.omega_mod": ("lucaslp.special", ("omega_mod",)),
    "cli.format_report": ("lucaslp.cli", ("format_report",)),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, float] = {}
        self.stack: list[list[float]] = []
        self.covered_s = 0.0  # time inside top-level spans
        self.tracer_s = 0.0  # time spent in the tracer's own hooks

    def add(self, key, value):
        self.stats[key] = self.stats.get(key, 0) + value

    def wrap(self, layer, fn, hook=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0, self.tracer_s]  # nested span time, hook time at entry
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start - (self.tracer_s - frame[1])
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    self.covered_s += dur
                self.add(layer + ".calls", 1)
                self.add(layer + ".s", dur)
            if hook is not None:
                start = perf_counter()
                hook(result, dur, frame[0], args, kwargs)
                self.tracer_s += perf_counter() - start
            return result

        return wrapper

    # -- hooks: counters measured where the work happens

    def oracle_hook(self, verdict, dur, nested, args, kwargs):
        spec, p = args[0], args[1]
        digit_bound = args[2] if len(args) > 2 else kwargs.get("digit_bound", 3)
        consumed = int(p) ** digit_bound if verdict.holds else verdict.counterexample.n + 1
        self.add("lp.lp_bruteforce.indices", consumed)
        self.add("lp.lp_bruteforce.early_exits", 0 if verdict.holds else 1)
        produce = 0.0
        if hasattr(spec, "index_map"):
            # affine residues are folded from the (now cached) term table
            # inside the generator the oracle consumed; replay that prefix
            start = perf_counter()
            for _ in spec.iter_residues(p, consumed):
                pass
            produce = perf_counter() - start
        self.add("lp.lp_bruteforce.scan_self_s", dur - nested - produce)

    def zero_hook(self, is_zero, dur, nested, args, kwargs):
        self.add("lp.sequence_is_zero_mod.zeros", 1 if is_zero else 0)

    def s_poly_hook(self, value, dur, nested, args, kwargs):
        bits = abs(value).bit_length()
        self.stats["sequences.s_poly.max_bits"] = max(
            self.stats.get("sequences.s_poly.max_bits", 0), bits
        )

    def table_hook(self, result, dur, nested, args, kwargs):
        info = result if hasattr(result, "preperiod") else result[0]
        self.add("sequences.term_table_mod.states", info.preperiod + info.period)

    def render_hook(self, text, dur, nested, args, kwargs):
        self.add("cli.output_bytes", len(text.encode()))


def crossval_hook(tracer, period_mod, base_recs):
    """Count cells and distinct (a, b) residue classes of a sweep's report."""
    periods = {}

    def hook(report, dur, nested, args, kwargs):
        keys = set()
        for cell in report.cells:
            rec = cell.rec if cell.rec is not None else base_recs[report.theorem]
            if (rec, cell.prime) not in periods:
                periods[rec, cell.prime] = period_mod(rec, cell.prime)
            pre, per = periods[rec, cell.prime]
            if cell.b >= pre:
                # every index a*n + b lies past the preperiod and folds mod per
                key = (cell.a % per, pre + (cell.b - pre) % per)
            else:
                key = (cell.a, cell.b)
            keys.add((rec, cell.prime, key))
        tracer.add("lp.crossval.cells", len(report.cells))
        tracer.add("lp.crossval.distinct_classes", len(keys))

    return hook


def install(tracer, traced):
    """Replace each layer function by its wrapper wherever lucaslp refers to it."""
    import lucaslp.sequences as sequences

    hooks = {
        "lp.lp_bruteforce": tracer.oracle_hook,
        "lp.sequence_is_zero_mod": tracer.zero_hook,
        "lp.crossval": crossval_hook(
            tracer, sequences.period_mod,
            {1: sequences.FIBONACCI, 2: sequences.LUCAS_NUMBERS},
        ),
        "sequences.s_poly": tracer.s_poly_hook,
        "sequences.term_table_mod": tracer.table_hook,
        "cli.format_report": tracer.render_hook,
    }
    modules = [m for name, m in list(sys.modules.items())
               if name == "lucaslp" or name.startswith("lucaslp.")]
    for layer, (module, names) in LAYERS.items():
        if not traced and layer != "lp.crossval":
            continue
        for name in names:
            original = getattr(sys.modules[module], name)
            wrapper = tracer.wrap(layer, original, hooks.get(layer) if traced else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def main(argv):
    mode, stats_path, sep, *cli_args = argv
    if mode not in ("plain", "traced") or sep != "--":
        sys.exit("usage: tracer.py {plain|traced} STATS_JSON -- ARGV...")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import lucaslp.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer, mode == "traced")
    code = lucaslp.cli.run_cli(cli_args)
    sys.stdout.flush()
    stats = dict(tracer.stats, import_s=import_s, covered_s=tracer.covered_s,
                 tracer_s=tracer.tracer_s)
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
