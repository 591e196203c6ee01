"""Experiment harness: specs, runners, statistics, and paper tables."""

from repro.harness.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    get_executor,
    resolve_jobs,
)
from repro.harness.experiment import ExperimentSpec, ResultSet, run_experiment, run_once
from repro.harness.faults import (
    FailureRecord,
    FaultPolicy,
    RepExecutionError,
    RepTimeoutError,
)
from repro.harness.stats import summarize, Summary

__all__ = [
    "ExperimentSpec",
    "ResultSet",
    "run_experiment",
    "run_once",
    "summarize",
    "Summary",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "get_executor",
    "resolve_jobs",
    "FaultPolicy",
    "FailureRecord",
    "RepExecutionError",
    "RepTimeoutError",
]
