"""Every option has a caller.

Each defaulted parameter of the verifier, pipeline, simulator and service
entry points below must be spelled somewhere outside ``tests/`` -- under
``src/``, ``tools/``, ``examples/`` or ``benchmarks/`` -- as a call keyword
(``f(name=...)``) or as a string key of a dict literal (``{"name": ...}``).
Names are matched, not callees, so forwarding counts: ``run_workload(
think_mean=...)`` reaches :class:`WorkloadRunner` through
``**runner_kwargs``, and ``repro bench ablation`` passes
``{"exchange_dependencies": False}``.  A switch only the tests set is a
second code path nobody runs; delete it or name it in :data:`ALLOWED`.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.baselines.cyclesearch import NaiveCycleSearchChecker
from repro.baselines.history import history_from_traces
from repro.core.gc import GarbageCollector
from repro.core.online import OnlineVerifier
from repro.core.parallel import ParallelVerifier
from repro.core.pipeline import ClientFeed, TwoLevelPipeline
from repro.core.verifier import Verifier
from repro.dbsim.engine import SimulatedDBMS
from repro.dbsim.events import EventLoop
from repro.service.gateway import ServiceConfig
from repro.workloads.runner import WorkloadRunner

REPO_ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tools", "examples", "benchmarks")

#: label -> callable whose defaulted parameters must have a caller.
SIGNATURES = {
    "Verifier": Verifier.__init__,
    "ParallelVerifier": ParallelVerifier.__init__,
    "OnlineVerifier": OnlineVerifier.__init__,
    "TwoLevelPipeline": TwoLevelPipeline.__init__,
    "ClientFeed": ClientFeed.__init__,
    "GarbageCollector": GarbageCollector.__init__,
    "WorkloadRunner": WorkloadRunner.__init__,
    "SimulatedDBMS": SimulatedDBMS.__init__,
    "EventLoop.run": EventLoop.run,
    "NaiveCycleSearchChecker": NaiveCycleSearchChecker.__init__,
    "history_from_traces": history_from_traces,
}

#: ``label.parameter`` settable only from tests, each with its reason.
ALLOWED = {
    "ParallelVerifier.segment_events": "a test seam: a budget that never flushes",
    "SimulatedDBMS.cc_protocol": "selects the MVTO engine, which only tests reach",
    "EventLoop.run.max_events": "the livelock guard; its default is the production value",
    "ServiceConfig.listen_backlog": "a deployment setting for connection bursts",
}


def _options():
    """Every ``label.parameter`` that has a default, in a stable order."""
    options = []
    for label, fn in SIGNATURES.items():
        for param in inspect.signature(fn).parameters.values():
            if param.default is not inspect.Parameter.empty:
                options.append((f"{label}.{param.name}", param.name))
    for field in dataclasses.fields(ServiceConfig):
        options.append((f"ServiceConfig.{field.name}", field.name))
    return options


def _spelled_names():
    """Call keywords and dict-literal string keys outside ``tests/``."""
    names = set()
    for top in SCANNED:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        key.value
                        for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    )
    return names


def test_every_option_has_a_caller():
    spelled = _spelled_names()
    uncalled = sorted(
        option
        for option, name in _options()
        if name not in spelled and option not in ALLOWED
    )
    assert not uncalled, f"options no code outside tests/ sets: {uncalled}"


def test_every_allowance_names_a_live_option():
    live = {option for option, _ in _options()}
    stale = sorted(set(ALLOWED) - live)
    assert not stale, f"allow-listed options that no longer exist: {stale}"
