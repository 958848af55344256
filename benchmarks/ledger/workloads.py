"""The four workloads, the captures they are measured on, and the fault
canary.

Everything here is set-up: ``--seed`` feeds ``repro.workloads`` and
``repro.dbsim`` to produce bytes on disk; the verifier under measurement
only ever sees those bytes.  All four run PostgreSQL/SR so the full
mechanism assembly (ME, FUW, RW-DERIVE, CR, SC) is built.

Set-up runs in a process of its own (this file as a script).  The
benchmark process forks every measured child, and on Linux a child's
``ru_maxrss`` starts at its parent's resident size at the fork: a parent
that had generated 40k traces in-process would report its own footprint
as every verifier's ``peak_rss_mb``.

Sizes are what fits the driver's budget: 4 + 22 x 4 runs inside 3420 s
leaves ~37 s per invocation for three set-ups, the canary and the timed
window, and the simulated DBMS generates roughly one transaction per
millisecond on this class of box.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from common import LEDGER_DIR, ChildRun, repro_cli, require_program, run_child


@dataclass(frozen=True)
class Workload:
    name: str
    #: "offline" = ``python -m repro verify``; "service" = the socket.
    surface: str
    make: Callable[[], object]
    clients: int
    txns: int
    #: key-partitioned shards for ``repro verify --parallel`` (0 = serial).
    shards: int = 0

    @property
    def verify_args(self) -> Tuple[str, ...]:
        return ("--parallel", str(self.shards)) if self.shards else ()

    def scaled(self, smoke: bool) -> int:
        return max(200, self.txns // 8) if smoke else self.txns


def _blindw_rw_plus():
    from repro.workloads import BlindW

    return BlindW.rw_plus(keys=2048)


def _blindw_rw():
    from repro.workloads import BlindW

    return BlindW.rw(keys=2048)


def _tpcc():
    from repro.workloads import TpcC

    return TpcC(scale_factor=1)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Range reads fan out into ~5x more classify calls per txn than
        # BlindW-RW: CR + versions + codec decode carry this one.
        Workload("blindw-rwp.serial", "offline", _blindw_rw_plus, 24, 4000),
        # ~60% aborts and ww >> wr: ME / FUW / locktable / bus / SC.
        Workload("tpcc.serial", "offline", _tpcc, 16, 3200),
        # Same verifier behind 2 key-partitioned worker processes: the
        # route / encode / pipe / segment-merge tax over serial.
        Workload("blindw-rw.shards2", "offline", _blindw_rw, 24, 4000, shards=2),
        # 2 clients -> cheap verification per trace, so framing, stamping
        # and the online k-way merge dominate.
        Workload("blindw-rw.service", "service", _blindw_rw, 2, 5000),
    )
}


# -- captures ------------------------------------------------------------------


@dataclass
class Capture:
    directory: Path
    traces: int
    sha256: str


def build_capture(workload: Workload, seed: int, smoke: bool, directory: Path) -> Capture:
    """Run the workload on the simulated DBMS (the expensive part of
    set-up), write the binary per-client capture plus the initial database
    image, and fingerprint the bytes.  The service workload also gets its
    wire frames and offline reference fingerprint."""
    from repro.core.io import dump_client_streams, dump_initial_db
    from repro.core.spec import PG_SERIALIZABLE
    from repro.workloads import run_workload

    run = run_workload(
        workload.make(),
        PG_SERIALIZABLE,
        clients=workload.clients,
        txns=workload.scaled(smoke),
        seed=seed,
    )
    if directory.exists():
        shutil.rmtree(directory)
    paths = dump_client_streams(run.client_streams, directory, fmt="binary")
    initial = directory / "initial_db.json"
    dump_initial_db(run.initial_db, initial)
    digest = hashlib.sha256()
    for path in [*paths, initial]:
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    if workload.surface == "service":
        import service

        service.prepare(run, directory)
    return Capture(directory, run.trace_count, digest.hexdigest())


def set_up(name: str, seed: int, smoke: bool, directory: Path) -> Tuple[Capture, ChildRun]:
    """One set-up in a child process; its wall time is ``setup_s``."""
    argv = [sys.executable, str(LEDGER_DIR / "workloads.py"), name,
            "--seed", str(seed), "--out", str(directory)]
    run = run_child(argv + (["--smoke"] if smoke else []))
    if run.returncode != 0:
        raise RuntimeError(f"set-up of {name} exited {run.returncode}")
    built = json.loads(run.stdout.splitlines()[-1])
    return Capture(directory, built["traces"], built["sha256"]), run


# -- fault canary --------------------------------------------------------------

#: SmallBank under PostgreSQL/SI with stale reads and first-updater-wins
#: switched off in the engine.  A verifier that got faster by checking less
#: stops seeing one of the two violation families and fails the run.  The
#: seed is fixed: the canary tests the verifier, it is not a measured input.
CANARY_SEED = 11
CANARY_TXNS = 800
CANARY_CLIENTS = 8
CANARY_LEVEL = "SI"


def build_canary(directory: Path) -> None:
    from repro.core.io import dump_client_streams, dump_initial_db
    from repro.core.spec import IsolationLevel, profile
    from repro.dbsim.faults import FaultPlan
    from repro.workloads import SmallBank, run_workload

    run = run_workload(
        SmallBank(scale_factor=0.5),
        profile("postgresql", IsolationLevel(CANARY_LEVEL)),
        clients=CANARY_CLIENTS,
        txns=CANARY_TXNS,
        seed=CANARY_SEED,
        faults=FaultPlan(
            stale_read_prob=0.05, disable_fuw=True, seed=CANARY_SEED
        ),
    )
    if directory.exists():
        shutil.rmtree(directory)
    dump_client_streams(run.client_streams, directory, fmt="binary")
    dump_initial_db(run.initial_db, directory / "initial_db.json")


def _violation_counts(stdout: str) -> Dict[str, int]:
    return {
        family: sum(
            1 for line in stdout.splitlines() if line.lstrip().startswith(f"- [{family}/")
        )
        for family in ("CR", "FUW")
    }


def check_canary(directory: Path, level: str = CANARY_LEVEL) -> Tuple[int, List[str]]:
    """Generate the canary, then verify it serially and with
    ``--parallel 2`` (untimed).  Returns (runs attempted, reasons it
    failed -- empty when it passed)."""
    built = run_child([sys.executable, str(LEDGER_DIR / "workloads.py"),
                       "canary", "--out", str(directory)])
    if built.returncode != 0:
        raise RuntimeError(f"canary set-up exited {built.returncode}")
    runs: List[ChildRun] = [
        run_child(repro_cli("verify", str(directory), "--level", level, *extra))
        for extra in ((), ("--parallel", "2"))
    ]
    problems: List[str] = []
    counts = [_violation_counts(run.stdout) for run in runs]
    for label, run, count in zip(("serial", "parallel"), runs, counts):
        if run.returncode != 1:
            problems.append(f"canary {label}: exit {run.returncode}, expected 1")
        for family, seen in count.items():
            if seen == 0:
                problems.append(f"canary {label}: no [{family}/ violation reported")
    if counts[0] != counts[1]:
        problems.append(f"canary: serial {counts[0]} != parallel {counts[1]}")
    return len(runs), problems


def main(argv=None) -> int:
    """The set-up child: build one capture (or the canary) under ``--out``
    and print its trace count and fingerprint as one JSON line."""
    require_program()
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("name", choices=[*WORKLOADS, "canary"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.name == "canary":
        build_canary(Path(args.out))
        return 0
    capture = build_capture(WORKLOADS[args.name], args.seed, args.smoke, Path(args.out))
    print(json.dumps({"traces": capture.traces, "sha256": capture.sha256}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
