"""A fixed reference workload: how fast this host runs Python right now.

Usage: python3 reference.py

Builds 120,000 fixed event-like NDJSON lines from a fixed seed, then parses
them, reads their timestamps and counts unique users per grid cell and
quarter-hour, the same kinds of work the pipeline's hot path does. It uses
only the standard library and never imports citypulse, so no change to the
program under test changes its cost. Prints one JSON object: its wall seconds
(interpreter start excluded) and a checksum that is the same on every run.

The benchmark runs it in a fresh process before and after every run child and
divides the child's times by it, which cancels the host's changing speed.
"""

import json
import random
import sys
import time
from datetime import datetime

EVENTS = 120_000
USERS = 3_000


def workload() -> int:
    rng = random.Random(20130305)
    lines = [json.dumps({"user_id": f"u{rng.randrange(USERS):05d}",
                         "timestamp": f"2013-03-{5 + i % 3:02d}T{rng.randrange(24):02d}:"
                                      f"{rng.randrange(60):02d}:{rng.randrange(60):02d}+01:00",
                         "lon": -3.80 + rng.random() * 0.2,
                         "lat": 40.35 + rng.random() * 0.2})
             for i in range(EVENTS)]
    seen = set()
    per_cell: dict[tuple, int] = {}
    for line in lines:
        event = json.loads(line)
        stamp = datetime.fromisoformat(event["timestamp"])
        cell = (int((event["lon"] + 3.80) / 0.01), int((event["lat"] - 40.35) / 0.01),
                stamp.hour * 4 + stamp.minute // 15)
        if (event["user_id"], cell) not in seen:
            seen.add((event["user_id"], cell))
            per_cell[cell] = per_cell.get(cell, 0) + 1
    return sum(count * (i + 1) for i, (_, count) in enumerate(sorted(per_cell.items())))


def main() -> int:
    start = time.perf_counter()
    checksum = workload()
    print(json.dumps({"wall_s": time.perf_counter() - start, "checksum": checksum}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
