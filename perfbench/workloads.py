"""The three workloads: which commands make up a pass, and how a seed picks them.

The commands come from `catalogue.json`, a fixed list of CLI invocations per
command slot, each pinned with the exit code and stdout sha256 the seed
commit produced (see `record_catalogue.py`). A run's seed picks, pass by
pass, one variant for every slot, so the program only ever sees catalogue
inputs and every output can be checked byte for byte.

Each pass runs every slot once, so its cost does not hinge on one draw:

- grid-sweep: the theorem-1 acceptance grid plus one theorem-3 grid over
  four drawn recurrences.
- special-seq: Apery and omega at both primes 11 and 13, in a drawn order.
  Their costs differ by a factor of four, so drawing one prime per pass
  would make the pass time depend on the seed more than on the program.
- point-queries: eight single-answer commands. Theorem 3 runs twice, once
  with a stride near 4000 and once near 8000, because its exact s_poly cost
  grows steeply with the stride and one draw over 4000..8000 would dominate
  the spread between seeds.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CATALOGUE_PATH = Path(__file__).with_name("catalogue.json")

SLOTS = {
    "grid-sweep": ("crossval-theorem1", "crossval-theorem3"),
    "special-seq": ("apery-11", "apery-13", "omega-11", "omega-13"),
    "point-queries": (
        "theorem3-low", "theorem3-high", "theorem1", "theorem2",
        "period", "alpha", "identity-general", "identity-shift",
    ),
}

# per-command timeout: about ten times the slowest command's time at the
# seed, so a hang fails the run quickly instead of stalling it
TIMEOUT_S = {"grid-sweep": 30.0, "special-seq": 60.0, "point-queries": 30.0}

# what items_per_s counts in each workload
ITEM_UNIT = {
    "grid-sweep": "grid cells",
    "special-seq": "scanned indices n < p^3",
    "point-queries": "commands",
}


def load_catalogue():
    with open(CATALOGUE_PATH) as fh:
        return json.load(fh)


def passes(catalogue, workload, seed):
    """Yield the seeded sequence of passes, each a list of (slot, entry)."""
    rng = random.Random(f"{workload}:{seed}")
    slots = catalogue[workload]
    while True:
        chosen = [(slot, rng.choice(slots[slot])) for slot in SLOTS[workload]]
        if workload == "special-seq":
            rng.shuffle(chosen)
        yield chosen


def is_crossval(entry):
    return entry["argv"][0] == "crossval"
