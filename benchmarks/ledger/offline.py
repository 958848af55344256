"""Bytes-to-verdict: ``python -m repro verify`` over a capture on disk,
each run a fresh process measured from spawn to exit."""

from __future__ import annotations

from typing import List, Optional

from common import ChildRun, Timed, repro_cli, run_child
from workloads import Capture, Workload


def verify_once(workload: Workload, capture: Capture) -> ChildRun:
    return run_child(
        repro_cli("verify", str(capture.directory), *workload.verify_args)
    )


class Runner:
    """One timed verify run per call.  A clean capture must exit 0 and print
    the same summary on every run, reporting the capture's trace count."""

    def __init__(self, workload: Workload, capture: Capture):
        self._workload = workload
        self._capture = capture
        self._reference: Optional[str] = None

    def __call__(self) -> Timed:
        run = verify_once(self._workload, self._capture)
        problems: List[str] = []
        if run.returncode != 0:
            problems.append(f"exit {run.returncode} on a clean capture")
        elif self._reference is None:
            self._reference = run.stdout
            if f": {self._capture.traces}\n" not in run.stdout:
                problems.append("summary does not report the capture's trace count")
        elif run.stdout != self._reference:
            problems.append("summary differs from the first run's")
        return Timed(
            verdict_s=run.wall_s,
            process=run,
            traces=self._capture.traces,
            attempted=1,
            failed=len(problems),
            problems=problems,
        )
