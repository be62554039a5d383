"""A fixed pure-Python workload that gauges the machine's current speed.

The package does not run here, so a change to it cannot move this time;
what moves it is the machine. Its mix resembles a simulation step: frozen
records replaced in copied dicts, sorted keys, logarithms, and a JSON dump.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class _Record:
    key: tuple[int, int]
    weight: float


_RECORDS = {(i, i + 1 + i % 7): _Record((i, i + 1 + i % 7), 2.0 + i % 13) for i in range(600)}


def reference_s() -> float:
    """Seconds one run of the fixed workload takes now."""
    start = time.perf_counter()
    records = _RECORDS
    for step in range(8):
        records = dict(records)
        total = 0.0
        for key in sorted(records):
            if key[0] % 8 == step:
                rec = records[key]
                records[key] = replace(rec, weight=rec.weight + math.log(rec.weight))
            total += math.log(records[key].weight)
    json.dumps([[a, b, r.weight] for (a, b), r in records.items()])
    return time.perf_counter() - start
