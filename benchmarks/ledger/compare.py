#!/usr/bin/env python3
"""Compare two result documents written by ``run.py --out``.

    python3 benchmarks/ledger/compare.py BASE.json CHANGE.json

One row per workload x gated metric: both medians with their quartiles,
the ratio change/base, and a verdict against the metric's bound --

``worse``       the change's median is worse than the base's by more than
                the bound;
``unresolved``  either side's spread (interquartile range over median; the
                full range below four samples) is wider than the bound, so
                the runs cannot tell -- unless
                every sample of the change beats every sample of the base;
``improved``    better by more than the spread;
``unchanged``   everything else.

Exits non-zero on any ``worse``, on any failed operation in the change,
and when the two documents were not measured on the same capture bytes.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

from common import load_manifest, median, quartiles

#: gated like end-to-end metrics, but only the service workload has them,
#: and the driver's manifest wants every end-to-end metric on every
#: workload -- so their bounds live here.
SERVICE_GATES = {"ack_p50_ms": ("lower", 0.10), "ack_p90_ms": ("lower", 0.10)}


def gates() -> Dict[str, Tuple[str, float]]:
    declared = {
        m["name"]: (m["better"], float(m["bound"])) for m in load_manifest()["end_to_end"]
    }
    return {**declared, **SERVICE_GATES}


def samples_of(entry: Dict[str, object], metric: str) -> Optional[List[float]]:
    for section in ("end_to_end", "per_layer"):
        values = entry.get(section, {}).get("samples", {}).get(metric)
        if values:
            return [float(v) for v in values]
    return None


def spread(values: List[float]) -> float:
    """Interquartile range over the median; with fewer than four samples
    the quartiles are extrapolations, so the full range stands in."""
    if len(values) < 4:
        return (max(values) - min(values)) / median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def cell(values: List[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{median(values):.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def verdict(base: List[float], change: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median(change) - median(base)) / median(base)
    noise = max(spread(base), spread(change))
    if noise > bound:
        clean_win = (
            max(change) < min(base) if better == "lower" else min(change) > max(base)
        )
        return "improved" if clean_win else "unresolved"
    if worse_by > bound:
        return "worse"
    return "improved" if -worse_by > noise else "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base_doc, change_doc = (json.load(open(path, encoding="utf-8")) for path in argv)
    print(f"base   {argv[0]}  commit {base_doc['provenance']['commit']}")
    print(f"change {argv[1]}  commit {change_doc['provenance']['commit']}")
    bad = 0
    gated = gates()
    print(
        f"{'workload':<20} {'metric':<14} {'base median [q1, q3] n':<40} "
        f"{'change median [q1, q3] n':<40} {'change/base':>11}  verdict"
    )
    for name, base in base_doc["workloads"].items():
        change = change_doc["workloads"].get(name)
        if change is None:
            continue
        if base["capture_sha256"] != change["capture_sha256"]:
            print(f"{name:<20} capture_sha256 differs: not the same inputs, re-baseline")
            bad += 1
            continue
        for section in ("end_to_end", "per_layer"):
            failed = change.get(section, {}).get("failed", 0)
            if failed:
                print(f"{name:<20} {section}: {failed} failed operation(s) in the change")
                bad += 1
        for metric, (better, bound) in gated.items():
            a, b = samples_of(base, metric), samples_of(change, metric)
            if a is None or b is None:
                continue
            outcome = verdict(a, b, better, bound)
            bad += outcome == "worse"
            ratio = median(b) / median(a)
            print(f"{name:<20} {metric:<14} {cell(a):<40} {cell(b):<40} {ratio:>11.4f}  {outcome}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
