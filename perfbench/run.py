"""lucaslp benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is `src/lucaslp`.
The benchmark is a closed loop with one client: it runs one CLI command at a
time, each in a fresh interpreter, and starts the next only when the
previous one has ended. Commands are grouped into passes (see
workloads.py); passes repeat until --seconds have elapsed.

--trace 0 measures the end-to-end metrics with nothing inside the program
timed. --trace 1 runs each command again under tracer.py and reports the
per-layer metrics. Every command's exit code and stdout sha256 must match
the pin in catalogue.json, and samples of the output are recomputed by the
independent reference code in naive.py.

All earlier stdout lines are informational; the last line is the result
object. The exit code is 0 whenever a result is printed (a failed check
shows as "correct": false) and 2 when the benchmark cannot run at all, for
instance when the checkout has no `src/lucaslp`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import sys
import time

from harness import (
    IMPORT_BOOT, PROBE_BOOT, ROOT, SRC, WORK, base_env, cli_argv, gate, run_child,
    spot_check_grid, spot_check_special,
)
from workloads import ITEM_UNIT, SLOTS, TIMEOUT_S, is_crossval, load_catalogue, passes

# the whole run must end well within the 180 s a run is allowed
RUN_BUDGET_S = 160.0
SETUP_PER_PASS = 2
SETUP_MIN_SAMPLES = 11

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_rate": "ratio",
}

PER_LAYER_UNITS = {
    "import.s": "s",
    "lp.lp_bruteforce.calls": "count",
    "lp.lp_bruteforce.s": "s",
    "lp.lp_bruteforce.scan_self_s": "s",
    "lp.lp_bruteforce.indices": "count",
    "lp.lp_bruteforce.early_exit_ratio": "ratio",
    "lp.sequence_is_zero_mod.calls": "count",
    "lp.sequence_is_zero_mod.s": "s",
    "lp.sequence_is_zero_mod.zero_ratio": "ratio",
    "lp.criterion.calls": "count",
    "lp.criterion.s": "s",
    "lp.crossval.cells": "count",
    "lp.crossval.distinct_classes": "count",
    "lp.crossval.serial_s": "s",
    "lp.crossval.pool_s": "s",
    "lp.pool.overhead_s": "s",
    "sequences.term_table_mod.calls": "count",
    "sequences.term_table_mod.s": "s",
    "sequences.term_table_mod.states": "count",
    "sequences.s_poly.calls": "count",
    "sequences.s_poly.s": "s",
    "sequences.s_poly.max_bits": "bits",
    "sequences.rec_term.s": "s",
    "sequences.fib_mod.s": "s",
    "sequences.alpha.s": "s",
    "identities.residual.calls": "count",
    "identities.residual.s": "s",
    "special.apery_mod.calls": "count",
    "special.apery_mod.s": "s",
    "special.omega_mod.calls": "count",
    "special.omega_mod.s": "s",
    "cli.format_report.s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# per-layer metrics computed per pass from several children; every other
# per-layer metric is the traced child's counter of that name, summed
_DERIVED = {
    "import.s", "lp.lp_bruteforce.early_exit_ratio", "lp.sequence_is_zero_mod.zero_ratio",
    "lp.crossval.serial_s", "lp.crossval.pool_s", "lp.pool.overhead_s",
    "sequences.s_poly.max_bits", "trace.overhead_s", "trace.unattributed_s",
}
_TRACED_SUMS = tuple(name for name in PER_LAYER_UNITS if name not in _DERIVED)


class Failure(Exception):
    """A command whose outcome does not match its pin or the reference code."""


class Run:
    """Bookkeeping shared by the end-to-end and traced loops."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checked: set = set()
        self.rng = random.Random(f"checks:{workload}:{seed}")

    def elapsed(self):
        return time.perf_counter() - self.started

    def command(self, entry, argv, env=None):
        """Run one child for a catalogue entry and hold it to the entry's pin."""
        remaining = RUN_BUDGET_S - self.elapsed()
        if remaining <= 1:
            raise Failure("run budget exhausted before the command could start")
        timeout = min(TIMEOUT_S[self.workload], remaining)
        self.attempted += 1
        result = run_child(argv, timeout=timeout, env=env)
        problem = gate(entry, result)
        if problem is None:
            problem = self.spot_check(entry, result)
        if problem is not None:
            raise Failure(f"{' '.join(entry['argv'])}: {problem}")
        return result

    def spot_check(self, entry, result):
        key = tuple(entry["argv"])
        if key in self.checked or not is_crossval(entry):
            return None
        self.checked.add(key)
        problems = spot_check_grid(entry["argv"], result.stdout, self.rng)
        return "; ".join(problems) or None

    def check_special_residues(self):
        """Compare a seeded prefix of Apery/omega residues with exact sums."""
        for seq in ("apery", "omega"):
            for prime in (11, 13):
                n_max = self.rng.randrange(2 * prime, 3 * prime)
                argv = ["special", "--seq", seq, "--n", str(n_max), "--prime", str(prime)]
                self.attempted += 1
                result = run_child(cli_argv(argv), timeout=TIMEOUT_S[self.workload])
                problems = (
                    ["timed out"] if result.timed_out
                    else [f"exit code {result.exit_code}"] if result.exit_code != 0
                    else spot_check_special(seq, prime, result.stdout)
                )
                if problems:
                    raise Failure(f"{' '.join(argv)}: {'; '.join(problems)}")

    def loop(self, catalogue, one_pass):
        """Run passes until --seconds have elapsed or a check fails.

        At least one pass is attempted. A failure ends the run at once, so a
        change that hangs or breaks output fails fast; the passes completed
        before it still give metrics.
        """
        rows = []
        for commands in passes(catalogue, self.workload, self.seed):
            if rows and self.elapsed() >= self.seconds:
                break
            try:
                rows.append(one_pass(commands))
            except Failure as exc:
                self.fail(exc)
                break
        return rows

    def fail(self, exc):
        """Count a failure; every Failure raised in a run ends up here once."""
        self.failed += 1
        self.problems.append(str(exc))
        print(f"check failed: {exc}", file=sys.stderr)

    def result(self, metrics):
        return {
            "correct": self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for units in (END_TO_END_UNITS, PER_LAYER_UNITS)
                for name, value in metrics.items() if name in units
            },
        }


def die(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def probe():
    """Environment record; exits 2 when src/lucaslp cannot be imported."""
    result = run_child([sys.executable, "-c", PROBE_BOOT.format(src=str(SRC))],
                       timeout=60, tag="probe")
    if result.timed_out or result.exit_code != 0:
        err = (WORK / "probe.err").read_text(errors="replace").strip().splitlines()
        die(f"cannot import lucaslp from {SRC}: {err[-1] if err else 'no output'}")
    info = json.loads(result.stdout)
    if not os.path.realpath(info["lucaslp_file"]).startswith(os.path.realpath(SRC) + os.sep):
        die(f"lucaslp was imported from {info['lucaslp_file']}, not from {SRC}")
    info["commit"] = _commit()
    digest = hashlib.sha256()
    for path in sorted((SRC / "lucaslp").glob("*.py")):
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    info["LUCASLP_THREADS"] = os.environ.get("LUCASLP_THREADS")
    return info


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


class Setup:
    """Set-up time: a fresh interpreter importing lucaslp.cli.

    Samples are taken before every pass, not in one burst, so that the
    median spans the same stretch of machine load as the passes do.
    """

    ARGV = [sys.executable, "-c", IMPORT_BOOT.format(src=str(SRC))]

    def __init__(self):
        self.walls: list[float] = []
        self._sample()  # compiles the bytecode, paid once per checkout
        self.walls.clear()

    def _sample(self):
        result = run_child(self.ARGV, timeout=60, tag="setup")
        if result.exit_code != 0:
            raise Failure("importing lucaslp.cli failed")
        self.walls.append(result.wall_s)

    def before_pass(self):
        for _ in range(SETUP_PER_PASS):
            self._sample()

    def median(self):
        while len(self.walls) < SETUP_MIN_SAMPLES:
            self._sample()
        return statistics.median(self.walls)


def tail(values):
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], round(100 * (n - 10) / n, 1)


def end_to_end(run, catalogue):
    setup = Setup()
    peak_kb = 0

    def one_pass(commands):
        nonlocal peak_kb
        setup.before_pass()
        wall = cpu = items = 0.0
        for _, entry in commands:
            result = run.command(entry, cli_argv(entry["argv"]))
            wall += result.wall_s
            cpu += result.cpu_s
            items += entry["items"]
            peak_kb = max(peak_kb, result.maxrss_kb)
        return wall, cpu, items

    rows = run.loop(catalogue, one_pass)
    if run.workload == "special-seq" and not run.failed:
        try:
            run.check_special_residues()
        except Failure as exc:
            run.fail(exc)
    metrics = {"setup_s": setup.median(), "ok_rate": 1 - run.failed / max(run.attempted, 1)}
    extra = {"passes": len(rows), "items": ITEM_UNIT[run.workload]}
    if rows:
        walls = [r[0] for r in rows]
        extra["wall_tail_s"], extra["wall_tail_percentile"] = tail(walls)
        extra["pass_walls"] = [round(w, 4) for w in walls]
        metrics.update({
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r[1] for r in rows),
            "items_per_s": statistics.median(r[2] / r[0] for r in rows),
            "peak_rss_mb": peak_kb / 1024,
        })
    return metrics, extra


def traced(run, catalogue):
    stats_path = WORK / "trace-stats.json"

    def child(entry, mode, threads):
        argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), mode, str(stats_path),
                "--", *entry["argv"]]
        if stats_path.exists():
            stats_path.unlink()
        result = run.command(entry, argv, env=base_env(threads))
        with open(stats_path) as fh:
            return result, json.load(fh)

    def one_pass(commands):
        row = dict.fromkeys(_TRACED_SUMS, 0)
        row.update({"import.s": 0.0, "early_exits": 0, "zeros": 0, "max_bits": 0,
                    "plain_wall": 0.0, "traced_wall": 0.0, "unattributed": 0.0,
                    "serial_s": 0.0, "pool_s": 0.0})
        for _, entry in commands:
            plain, plain_stats = child(entry, "plain", 1)
            trace, stats = child(entry, "traced", 1)
            if is_crossval(entry):
                _, pool_stats = child(entry, "plain", None)
                row["serial_s"] += plain_stats["lp.crossval.s"]
                row["pool_s"] += pool_stats["lp.crossval.s"]
            for key in _TRACED_SUMS:
                row[key] += stats.get(key, 0)
            row["import.s"] += stats["import_s"]
            row["early_exits"] += stats.get("lp.lp_bruteforce.early_exits", 0)
            row["zeros"] += stats.get("lp.sequence_is_zero_mod.zeros", 0)
            row["max_bits"] = max(row["max_bits"], stats.get("sequences.s_poly.max_bits", 0))
            row["plain_wall"] += plain.wall_s
            row["traced_wall"] += trace.wall_s
            row["unattributed"] += (trace.wall_s - stats["import_s"] - stats["covered_s"]
                                    - stats["tracer_s"])
        return row

    rows = run.loop(catalogue, one_pass)
    if not rows:
        return {}, {"passes": 0}

    def median(fn):
        return statistics.median(fn(r) for r in rows)

    def ratio(num, den):
        return lambda r: r[num] / r[den] if r[den] else 0.0

    metrics = {key: median(lambda r, k=key: r[k]) for key in _TRACED_SUMS}
    metrics.update({
        "import.s": median(lambda r: r["import.s"]),
        "lp.lp_bruteforce.early_exit_ratio":
            median(ratio("early_exits", "lp.lp_bruteforce.calls")),
        "lp.sequence_is_zero_mod.zero_ratio":
            median(ratio("zeros", "lp.sequence_is_zero_mod.calls")),
        "lp.crossval.serial_s": median(lambda r: r["serial_s"]),
        "lp.crossval.pool_s": median(lambda r: r["pool_s"]),
        "lp.pool.overhead_s": median(lambda r: r["pool_s"] - r["serial_s"]),
        "sequences.s_poly.max_bits": median(lambda r: r["max_bits"]),
        "trace.overhead_s": median(lambda r: r["traced_wall"] - r["plain_wall"]),
        "trace.unattributed_s": median(lambda r: r["unattributed"]),
    })
    return metrics, {"passes": len(rows)}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        catalogue = load_catalogue()
    except (OSError, ValueError) as exc:
        die(f"cannot read the command catalogue: {exc}")
    info = probe()
    run = Run(args.workload, args.seed, args.seconds)
    metrics, extra = {}, {}
    try:
        metrics, extra = (traced if args.trace else end_to_end)(run, catalogue)
    except Failure as exc:  # set-up itself failed
        run.fail(exc)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                attempted=run.attempted, failed=run.failed,
                error_rate=run.failed / max(run.attempted, 1), problems=run.problems,
                run_s=round(run.elapsed(), 3), **extra)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
