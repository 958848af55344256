"""The decoder's canonical string table is bounded by frame size.

Decodes a synthetic stream in which every trace carries its own
transaction id and its own written values -- 200 000 distinct strings in
512-trace frames, over a few shared keys and columns -- and checks two
things:

* after every frame the table's two generations together hold at most
  four times the largest frame table decoded so far
  (``table_over_largest_max``);
* once the decoded traces are dropped, what the decode left allocated
  (``tracemalloc``) stays under 1 MB, whatever the stream's length.

The second is what :func:`sys.intern` would fail on Python 3.12, where
interned strings are immortal.  The check needs a fresh process (the
table is module state), and no pytest, so it runs as a script on any
interpreter the package supports::

    PYTHONPATH=src python -m tests.canon_bound

It prints one JSON line of measurements and exits 1 if either bound is
broken; ``tests/test_codec.py`` runs it in a subprocess.
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc

from repro.core import codec
from repro.core.trace import Trace

TRACES = 50_000
FRAME = 512
KEYS = 64
COLUMNS = ("a", "b", "c")
#: what the decode may leave allocated once its traces are dropped.
RETAINED_MAX = 1 << 20


def payloads(traces: int = TRACES, frame: int = FRAME):
    """The stream as ``TRACES`` frame payloads: trace ``i`` is a write by
    transaction ``txn-i`` to one of ``KEYS`` keys, with a value of its
    own in each of ``COLUMNS`` columns."""
    out = []
    for start in range(0, traces, frame):
        out.append(codec.encode_batch([
            Trace.write(
                float(i), float(i) + 0.5, f"txn-{i}",
                {f"key-{i % KEYS}": {c: f"{c}-{i}" for c in COLUMNS}},
            )
            for i in range(start, min(start + frame, traces))
        ]))
    return out


def measure(frames) -> dict:
    """Decode ``frames`` one at a time, dropping each frame's traces."""
    largest = peak = 0
    ratio = 0.0
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for payload in frames:
        largest = max(largest, codec.read_varint(payload, 0)[0])
        codec.decode_batch(payload)  # the traces are dropped at once
        held = len(codec._canon_current) + len(codec._canon_previous)
        peak = max(peak, held)
        ratio = max(ratio, held / largest)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return {
        "python": sys.version.split()[0],
        "frames": len(frames),
        "largest_table": largest,
        "table_peak": peak,
        "table_over_largest_max": ratio,
        "retained_bytes": retained,
    }


def main() -> int:
    result = measure(payloads())
    print(json.dumps(result, sort_keys=True))
    ok = (
        result["table_over_largest_max"] <= 4
        and result["retained_bytes"] < RETAINED_MAX
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
