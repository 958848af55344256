"""Benchmark harness reproducing the paper's tables and figures."""

from .harness import EXPERIMENTS, ExperimentTable, experiment, run_experiment
from .metrics import MemorySeries

__all__ = [
    "EXPERIMENTS",
    "ExperimentTable",
    "experiment",
    "run_experiment",
    "MemorySeries",
]
