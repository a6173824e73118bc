"""Child-process plumbing and output checks shared by the benchmark scripts.

Every command the benchmark measures runs in a fresh interpreter that puts
the checkout's `src/` first on `sys.path` and calls `lucaslp.cli.main`, so
it pays the import and cold caches a user pays, and it runs the code under
test rather than any installed copy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from naive import FIBONACCI, apery_mod, omega_mod, oracle, predicted

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

CLI_BOOT = "import sys; sys.path.insert(0, {src!r}); from lucaslp.cli import main; main()"
IMPORT_BOOT = "import sys; sys.path.insert(0, {src!r}); import lucaslp.cli"
PROBE_BOOT = (
    "import json, os, sys; sys.path.insert(0, {src!r}); import lucaslp.cli, lucaslp; "
    "print(json.dumps({{'lucaslp_file': lucaslp.__file__, 'python': sys.version.split()[0], "
    "'nproc': os.cpu_count()}}))"
)


def cli_argv(argv):
    """The child command line that runs `lucaslp <argv>` from this checkout."""
    return [sys.executable, "-c", CLI_BOOT.format(src=str(SRC)), *argv]


def base_env(threads=None):
    """The caller's environment with LUCASLP_THREADS cleared or set to `threads`."""
    env = dict(os.environ)
    env.pop("LUCASLP_THREADS", None)
    if threads is not None:
        env["LUCASLP_THREADS"] = str(threads)
    return env


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int | None
    timed_out: bool
    stdout: bytes


def run_child(argv, *, timeout, env=None, tag="child"):
    """Run argv to completion and return its wall, CPU, peak RSS and stdout.

    CPU and peak RSS come from wait4, so they include every descendant the
    child itself waited for (the lucaslp process pool). The child leads its
    own process group; on timeout the whole group is killed. The group is
    also killed after a normal exit, before the leader is reaped, so that no
    stray descendant outlives the command.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    out_path = WORK / f"{tag}.out"
    err_path = WORK / f"{tag}.err"
    expired = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, cwd=ROOT,
            env=env if env is not None else base_env(), start_new_session=True,
        )

        def expire():
            expired.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            # wait without reaping, so the group id cannot be reused while
            # the timer may still fire
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        _kill_group(proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = expired.is_set()
    return ChildResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        exit_code=None if timed_out else proc.returncode,
        timed_out=timed_out,
        stdout=out_path.read_bytes(),
    )


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gate(entry, result: ChildResult) -> str | None:
    """Why the command's outcome differs from its pinned one, or None."""
    if result.timed_out:
        return "timed out"
    if result.exit_code != entry["exit"]:
        return f"exit code {result.exit_code}, pinned {entry['exit']}"
    if not result.stdout:
        return "empty stdout"
    if sha256(result.stdout) != entry["sha256"]:
        return f"stdout sha256 differs from the pinned one ({len(result.stdout)} bytes)"
    return None


# ---------------------------------------------------------------------------
# independent spot checks


def _parse_rec(text):
    return tuple(int(x) for x in text.split(","))


def grid_rows(argv, stdout: bytes):
    """(theorem, rows) of a crossval report, rows as dicts with typed values."""
    theorem = int(argv[argv.index("--theorem") + 1])
    text = stdout.decode()
    if "csv" in argv:
        raw = list(csv.DictReader(io.StringIO(text)))
    else:
        raw = json.loads(text)["verdicts"]
    rows = []
    for r in raw:
        row = {}
        for key, value in r.items():
            if value in ("true", "false"):
                value = value == "true"
            elif key in ("prime", "a", "b"):
                value = int(value)
            row[key] = value
        rows.append(row)
    return theorem, rows


def spot_check_grid(argv, stdout: bytes, rng, samples=12):
    """Recompute a seeded sample of grid cells with the naive oracle.

    Returns a list of mismatch descriptions (empty when all agree).
    """
    theorem, rows = grid_rows(argv, stdout)
    problems = []
    for row in rng.sample(rows, min(samples, len(rows))):
        rec = _parse_rec(row["rec"]) if "rec" in row else FIBONACCI
        p, a, b = row["prime"], row["a"], row["b"]
        holds, zero = oracle(rec, p, a, b)
        want = {
            "oracle_holds": holds,
            "identically_zero": zero,
            "predicted": predicted(theorem, rec, p, a, b),
        }
        want["disagrees"] = not zero and want["predicted"] != holds
        got = {k: row[k] for k in want}
        if got != want:
            problems.append(f"cell rec={rec} p={p} a={a} b={b}: cli {got}, naive {want}")
    return problems


def spot_check_special(seq, prime, stdout: bytes):
    """Compare `special --seq <seq> --n N --prime p` output with exact sums."""
    rows = json.loads(stdout)["verdicts"]
    got = [r["value_mod_p"] for r in rows]
    exact = apery_mod if seq == "apery" else omega_mod
    want = exact(len(rows) - 1, prime)
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        return [f"{seq}({bad}) mod {prime}: cli {got[bad]}, exact {want[bad]}"]
    return []
