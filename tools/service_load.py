#!/usr/bin/env python
"""Load-drive the online verification service and measure its ceiling.

Boots the asyncio ingest gateway in-process on Unix sockets, drives N
concurrent protocol sessions pushing a deterministic synthetic workload,
polls the status endpoint while the run is hot, drains, and re-verifies
the identical streams offline -- asserting the online/offline report
fingerprints match and that peak pending-event memory stayed under the
configured budget.  The resulting ``repro.service-load/v3`` JSON document
records the measured ingest ceiling in traces/sec plus per-session
ingest-latency percentiles (the soak-run playbook lives in
``docs/service.md``).

Usage::

    PYTHONPATH=src python tools/service_load.py --quick         # CI smoke
    PYTHONPATH=src python tools/service_load.py \
        --traces 1000000 --sessions 200                         # soak
    PYTHONPATH=src python tools/service_load.py --quick --out SERVICE.json

Exit status is non-zero when the fingerprints diverge, the budget is
breached, any client saw a protocol error, or the clean workload is
reported as violating.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from repro.__main__ import _at_least
from repro.service.load import LoadConfig, run_load_sync


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke preset: a few thousand traces",
    )
    # The bounds `repro serve` and `create_gateway` enforce, and what a
    # load run needs: a bad value exits 2 naming the flag.
    parser.add_argument("--traces", type=_at_least(1), default=100_000)
    parser.add_argument("--sessions", type=_at_least(1), default=16)
    parser.add_argument("--frame-traces", type=_at_least(1), default=512)
    parser.add_argument("--credit", type=_at_least(1), default=8)
    parser.add_argument("--budget", type=_at_least(0), default=200_000)
    parser.add_argument("--gc-every", type=_at_least(0), default=512)
    parser.add_argument("--poll-interval", type=float, default=0.25)
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    if args.quick:
        args.traces = min(args.traces, 4_000)
        args.sessions = min(args.sessions, 8)
        args.budget = min(args.budget, 20_000)

    with tempfile.TemporaryDirectory(prefix="repro-service-") as socket_dir:
        config = LoadConfig(
            traces=args.traces,
            sessions=args.sessions,
            frame_traces=args.frame_traces,
            session_credit=args.credit,
            pending_budget=args.budget,
            gc_every=args.gc_every,
            poll_interval=args.poll_interval,
            socket_dir=socket_dir,
        )
        document = run_load_sync(config)

    rendered = json.dumps(document, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            sink.write(rendered + "\n")

    failures = []
    if not document["fingerprints_match"]:
        failures.append("online/offline fingerprints diverge")
    if not document["within_budget"]:
        failures.append(
            f"pending peak {document['pending_peak']} exceeded the "
            f"{document['pending_budget']} budget"
        )
    if document["client_errors"]:
        failures.append(f"{document['client_errors']} client protocol errors")
    if document["report_ok"] is not True:
        failures.append("clean workload reported as violating")
    if document["traces_accepted"] != document["traces"]:
        failures.append(
            f"accepted {document['traces_accepted']} of "
            f"{document['traces']} traces"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
