"""Shared plumbing of the ledger benchmark: where the program lives, the
metric manifest, child processes measured with ``wait4``, and the few
order statistics every module reports."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
MANIFEST_PATH = REPO_ROOT / "BENCHMARK.json"


def require_program() -> None:
    """Exit non-zero, printing no result, when the checkout does not hold
    the program the benchmark measures."""
    if not (SRC_DIR / "repro" / "__main__.py").is_file():
        sys.stderr.write(
            f"ledger benchmark: no program to measure under {SRC_DIR} "
            f"(expected the repro package)\n"
        )
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def load_manifest() -> Dict[str, object]:
    return json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))


#: per-layer ``_s`` metrics that are not rows of the span ledger: the total
#: itself, and the coordinator-side times of the process-backend pass (a
#: different run from the inline-backend ledger they are printed beside).
OUTSIDE_LEDGER = frozenset({"ledger.total_s", "parallel.intake_s", "parallel.tail_s"})


def ledger_rows(metrics: Dict[str, float]) -> Dict[str, float]:
    """The span self-time rows of a per-layer metric set: they sum to
    ``ledger.total_s``."""
    return {
        name: value
        for name, value in metrics.items()
        if name.endswith("_s") and name not in OUTSIDE_LEDGER
    }


def metric_units(manifest: Dict[str, object], section: str) -> Dict[str, str]:
    """``{name: unit}`` of one manifest section, in manifest order."""
    return {m["name"]: m["unit"] for m in manifest[section]}


# -- child processes -----------------------------------------------------------


def child_env() -> Tuple[Dict[str, str], List[str]]:
    """Environment of every measured process: each ``REPRO_*`` path switch
    removed (the defaults are what is measured), hash seed pinned, and the
    program importable.  Returns the environment and the stripped names."""
    stripped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC_DIR)
    return env, stripped


@dataclass
class ChildRun:
    """One finished child: what a user waits for and what it cost."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    #: resident size of the spawning process when the child was reaped.  On
    #: Linux a child's ``ru_maxrss`` starts from its parent's size at the
    #: fork, so a peak at or below this floor is the parent's, not the
    #: child's.
    rss_floor_mb: float = 0.0


@dataclass
class Timed:
    """One timed operation of a workload: a verify run, or a closed-loop
    pass through the service."""

    #: what the user waits for (raw seconds).
    verdict_s: float
    #: the verifying process: its CPU, peak RSS and the RSS floor.
    process: ChildRun
    traces: int
    #: operations booked: 1 run, or one per frame.
    attempted: int
    failed: int
    problems: List[str]


def reap(proc: subprocess.Popen, started: float, stdout: str) -> ChildRun:
    """Wait for ``proc`` with ``wait4`` so its resource usage -- its own
    plus that of the descendants it waited for -- comes back with it.
    ``ru_maxrss`` is the largest process of that tree, in KiB on Linux."""
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    # Popen did not see the wait; hand it the status so it never polls a
    # recycled pid.
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open("/proc/self/statm", encoding="ascii") as statm:
        resident_pages = int(statm.read().split()[1])
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=stdout,
        rss_floor_mb=resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20,
    )


def run_child(argv: Sequence[str], cwd: Optional[Path] = None) -> ChildRun:
    """Spawn ``argv``, read its standard output to the end, reap it.  The
    wall time runs from just before the spawn to the reaped exit."""
    env, _ = child_env()
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), cwd=cwd, env=env, stdout=subprocess.PIPE, text=True
    )
    with proc.stdout:
        stdout = proc.stdout.read()
    return reap(proc, started, stdout)


def repro_cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


# -- machine speed -------------------------------------------------------------

#: what one repetition of :func:`reference_kernel` takes on the nominal box.
NOMINAL_KERNEL_S = 0.020
KERNEL_REPS = 5


def reference_kernel() -> float:
    """A fixed piece of pure-Python work (dict, tuple, float and list
    traffic, ~20 ms) that shares nothing with the program under test;
    returns how long it took."""
    started = time.perf_counter()
    table: Dict[int, Tuple[float, int]] = {}
    total = 0.0
    tail: List[Tuple[int, float]] = []
    for i in range(100_000):
        key = (i * 7919) % 4096
        held = table.get(key)
        if held is None:
            table[key] = (float(i), i)
        else:
            total += held[0] * 0.5
            table[key] = (held[0] + 1.0, i)
        if i & 7 == 0:
            tail.append((key, total))
            if len(tail) > 512:
                del tail[:256]
    return time.perf_counter() - started


class Speedometer:
    """Machine speed around each measured run, 1.0 being the nominal box.

    The sandbox's speed shifts by 10-20% for minutes at a time (a busy
    sibling hyperthread looks exactly like this), which no statistic over
    one invocation's runs can remove.  So every timed run is bracketed by
    ``KERNEL_REPS`` repetitions of the reference kernel on each side, and
    its times are multiplied by ``nominal / lower quartile of those reps``:
    seconds as the nominal box would have measured them.  The lower
    quartile ignores bursts that hit the kernel but not the run; see
    :func:`steady_speeds` for the other half of that problem."""

    def __init__(self) -> None:
        self._before = [reference_kernel() for _ in range(KERNEL_REPS)]

    def after_run(self) -> float:
        """Close the bracket opened by the previous call (or construction)
        and open the next one; returns the speed for the run in between."""
        after = [reference_kernel() for _ in range(KERNEL_REPS)]
        speed = NOMINAL_KERNEL_S / quartiles(self._before + after)[0]
        self._before = after
        return speed


#: how far one run's speed may sit from the invocation's median speed.
SPEED_CLAMP = 0.15


def steady_speeds(speeds: Sequence[float]) -> List[float]:
    """Per-run speeds, each held within ``SPEED_CLAMP`` of their median.

    The kernel runs in the benchmark process and the measured child
    wherever the scheduler puts it; with two cores and one of them slowed
    by a neighbour, the kernel can read 0.67 while the child ran at full
    speed.  A shift that lasts moves every bracket of the invocation and
    therefore the median; a bracket far from the median is that mismatch,
    and is pulled back rather than believed."""
    middle = median(speeds)
    low, high = middle * (1 - SPEED_CLAMP), middle * (1 + SPEED_CLAMP)
    return [min(max(speed, low), high) for speed in speeds]


# -- order statistics ----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives
    them; a single sample is its own quartiles."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted, non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[rank])
