"""Replication-accuracy metric (paper §5.2, Table 7).

The injector is validated by comparing the average execution time of
noise-injected runs against the execution time of the anomalous run the
configuration was generated from:

.. math::  \\left| \\frac{Avg_{exec}}{Anomaly_{exec}} - 1 \\right|

Lower is better; the paper reports 8.57% average across ten configs and
treats ≤8% as good replication.
"""

from __future__ import annotations

__all__ = ["replication_accuracy", "signed_replication_error"]


def signed_replication_error(avg_exec: float, anomaly_exec: float) -> float:
    """Signed relative error: negative means the replay ran *faster*
    than the recorded anomaly (Table 7's ``(-)`` entries)."""
    if avg_exec <= 0 or anomaly_exec <= 0:
        raise ValueError("execution times must be positive")
    return avg_exec / anomaly_exec - 1.0


def replication_accuracy(avg_exec: float, anomaly_exec: float) -> float:
    """Absolute replication accuracy (the paper's headline metric)."""
    return abs(signed_replication_error(avg_exec, anomaly_exec))

