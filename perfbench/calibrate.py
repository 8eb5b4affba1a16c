"""Reference kernel for calibrated seconds.

The speed of a shared VM drifts by up to 2x over minutes, far more than any
change worth measuring.  The benchmark therefore times a fixed kernel of its
own next to every timed iteration and converts wall seconds to calibrated
seconds:

    calibrated = wall * NOMINAL_S / reference_seconds()

where NOMINAL_S is the kernel's time on the development sandbox when it was
least loaded, so calibrated and wall seconds agree on a quiet machine.  The
kernel mixes the kinds of work akasim does -- interpreted byte-table loops,
small-object churn, JSON and hex conversion -- and never touches akasim, so a
change to the library cannot move it.
"""

from __future__ import annotations

import json
import statistics
import time

NOMINAL_S = 0.0055

_TABLE = [(i * 167 + 13) % 256 for i in range(256)]
_DOC = {"events": [{"seq_no": i, "actor": f"ue:{i:015d}", "rand": bytes([i % 256] * 16).hex()} for i in range(40)]}
_BLOB = bytes(range(256)) * 8


def _kernel() -> int:
    table = _TABLE
    state = list(range(16))
    total = 0
    for _ in range(24):
        for _ in range(120):
            state = [table[state[i] ^ state[(i + 5) % 16]] for i in range(16)]
        doc = json.loads(json.dumps(_DOC, separators=(",", ":")))
        total += len(doc["events"]) + len(bytes.fromhex(_BLOB.hex()))
    return total + state[0]


def _kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median wall time of three kernel runs (about 5.5 ms each when quiet)."""
    return statistics.median(_kernel_seconds() for _ in range(3))
