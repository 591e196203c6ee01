"""On-disk result cache for experiment campaigns.

Every run is a deterministic function of its spec (seeds included) and
the attached noise stack, so results can be cached and shared across
table campaigns — Table 6 aggregates the same cells Tables 3–5 report,
and re-simulating them would double the benchmark wall-clock.  The
cache is also the campaign checkpoint: re-running an interrupted
campaign hits every finished cell and simulates only the missing ones.

Cache keys are versioned (``_KEY_VERSION``) and source-agnostic: the
noise part of the key is the canonical serialized
:class:`~repro.noise.base.NoiseStack`, so any registered source — or
composition of sources — keys identically whether it arrived via
``spec.noise`` or the ``noise=`` parameter.

The cache lives in ``$REPRO_CACHE_DIR`` (default ``.repro_cache/`` in
the working directory); delete the directory to invalidate, or set
``REPRO_NO_CACHE=1`` to bypass entirely.

Every file in the directory — cell entries, partial quarantines, the
service's chunk entries and cached noise configs — is one sealed
envelope, written atomically (same-directory temp file + ``os.replace``)
by :meth:`ResultCache._write` and read under one fault rule by
:meth:`ResultCache._read`: a torn or malformed entry is deleted and
counted ``corrupt``, a seal mismatch moves aside to ``.corrupt`` and is
counted ``integrity_quarantined``, a stale ``key_version`` is deleted
and counted ``stale``.  The caller sees a miss and re-runs.  A crash
mid-write never leaves a torn entry; the rule is for files damaged
*after* the write (disk faults, the chaos harness's ``corrupt``
profiles) and for entries of older key versions.  Partial results (a
``skip`` fault policy left NaN reps) are never stored under the primary
key; they land in a ``<key>.partial.json`` quarantine envelope —
failure records included — and the cell re-runs next time.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro import telemetry as _telemetry
from repro.harness.adaptive import ADAPTIVE_FIXTURE_VERSION
from repro.harness.experiment import ExperimentSpec, ResultSet, run_experiment
from repro.harness.faults import FailureRecord, atomic_write_text
from repro.noise.base import NoiseStack

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.executor import Executor
    from repro.harness.experiment import NoiseLike
    from repro.harness.faults import FaultPolicy
    from repro.sim.machine import RunResult

__all__ = ["ResultCache"]

_log = logging.getLogger(__name__)

#: bump when simulator semantics change enough to invalidate old runs
_CACHE_SCHEMA = 5

#: bump when the *key payload shape* changes (e.g. the noise part moved
#: from a bespoke NoiseConfig JSON to the unified stack serialization);
#: hashed into every key and stored in every entry so pre-refactor
#: entries can never collide with, or masquerade as, current ones
_KEY_VERSION = 2

#: adaptive results key under a distinct versioned block: an
#: adaptively stopped cell carries fewer reps than its fixed-rep twin
#: (same estimate, lower precision), so the two must never share a key
#: — and a change to the stop rule must invalidate adaptive entries
#: without touching fixed-rep ones
_ADAPTIVE_KEY_VERSION = ADAPTIVE_FIXTURE_VERSION


class ResultCache:
    """Content-addressed store of experiment execution times.

    The cache holds no run settings: the executor, fault policy and
    adaptive policy of a miss come from the call (or the spec) that
    asks for the cell.  The cache is safe to share between threads
    dispatching independent cells (distinct keys write distinct files;
    counters are lock-protected).
    """

    def __init__(self, root: Optional[Path] = None):
        if root is None:
            root = Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))
        self.root = Path(root)
        self.enabled = os.environ.get("REPRO_NO_CACHE", "") != "1"
        #: the telemetry registry entry backing the counters; stats()
        #: is a thin view over it
        self._counters = _telemetry.new_group("cache")

    # ------------------------------------------------------------------
    # envelopes: every file in the cache directory (cell, partial, chunk
    # and noise-config entries) is written and read through these three
    # ------------------------------------------------------------------
    def _write(self, path: Path, payload: dict) -> None:
        """Publish ``payload`` at ``path`` as a sealed envelope.

        ``key_version`` leads the envelope and a sha256 of the JSON body
        trails it as ``sha256``; the seal piggybacks on JSON's exact
        float round-trip, so sealing changes no value bytes.  The write
        is atomic (same-directory temp file + ``os.replace``) and a
        no-op when the cache is disabled."""
        if not self.enabled:
            return
        envelope = {"key_version": _KEY_VERSION, **payload}
        body = json.dumps(envelope)
        envelope["sha256"] = hashlib.sha256(body.encode()).hexdigest()
        atomic_write_text(path, json.dumps(envelope))

    @staticmethod
    def _parse(path: Path, decode: Callable[[dict], object] = dict) -> tuple:
        """Read one envelope with no side effects.

        Returns ``(decode(data), None)`` for a sound entry, else
        ``(None, fault)`` where ``fault`` names the counter the fault
        rule bumps: ``"missing"``; ``"corrupt"`` (torn, not an object,
        or ``decode`` found a field missing or mistyped);
        ``"integrity_quarantined"`` (the recorded seal does not match
        the body; entries written before sealing carry none and pass);
        ``"stale"`` (another ``key_version``)."""
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            return None, "missing"
        except ValueError:
            return None, "corrupt"
        if not isinstance(data, dict):
            return None, "corrupt"
        recorded = data.pop("sha256", None)
        if recorded is not None and (
            hashlib.sha256(json.dumps(data).encode()).hexdigest() != recorded
        ):
            return None, "integrity_quarantined"
        if data.get("key_version") != _KEY_VERSION:
            return None, "stale"
        try:
            return decode(data), None
        except (KeyError, TypeError, ValueError):
            return None, "corrupt"

    def _read(self, path: Path, label: str, decode: Callable[[dict], object] = dict):
        """:meth:`_parse` plus the one fault rule every entry kind shares.

        A faulted entry is counted under its fault kind and leaves the
        keyspace: a seal mismatch moves aside to ``<name>.corrupt`` for
        post-mortems, a torn or stale entry is deleted.  The caller sees
        ``None`` (a miss) and re-simulates."""
        if not self.enabled:
            return None
        value, fault = self._parse(path, decode)
        if fault is None or fault == "missing":
            return value
        self._count(fault)
        _log.warning("evicting cache entry %s for %s (%s)", path.name, label, fault)
        if fault == "integrity_quarantined":
            with contextlib.suppress(OSError):
                os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _key(spec: ExperimentSpec, noise: Optional[NoiseStack], reps: int) -> str:
        payload = {
            "key_version": _KEY_VERSION,
            "schema": _CACHE_SCHEMA,
            "spec": {
                "platform": spec.platform,
                "workload": spec.workload,
                "model": spec.model,
                "strategy": spec.strategy,
                "use_smt": spec.use_smt,
                "seed": spec.seed,
                "tracing": spec.tracing,
                "runlevel3": spec.runlevel3,
                "rt_throttle": spec.rt_throttle,
                "anomaly_prob": spec.anomaly_prob,
                "n_threads": spec.n_threads,
                "workload_params": spec.workload_params,
            },
            "reps": reps,
            "noise": noise.to_dict() if noise is not None else None,
        }
        if spec.adaptive is not None:
            # Distinct key block (absent entirely for fixed-rep cells,
            # so pre-adaptive keys are untouched): the policy and the
            # stop-rule version both shape the stored sample.
            payload["adaptive"] = spec.adaptive.to_dict()
            payload["adaptive_version"] = _ADAPTIVE_KEY_VERSION
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:32]

    def entry_path(self, key: str) -> Path:
        """Where ``key``'s primary envelope lives (exists only after a
        store).  Public so byte-level comparisons — the service's
        sharded-merge tests, CI's bit-identity diffs — can address the
        exact artefact instead of reconstructing the layout."""
        return self.root / f"{key}.json"

    def has_entry(self, key: str) -> bool:
        """Whether a (possibly stale/torn) entry exists for ``key``."""
        return self.enabled and self.entry_path(key).exists()

    def resolve_cell(
        self, spec: ExperimentSpec, noise: "NoiseLike" = None
    ) -> tuple[ExperimentSpec, Optional[NoiseStack], str]:
        """Normalise a cell to ``(spec, stack, key)`` — the cache identity.

        Applies exactly the canonicalisation :meth:`get_or_run` uses
        before keying: noise coercion (argument wins over ``spec.noise``)
        and environment-defaulted rep counts pinned into the spec.  The
        campaign service calls this at submit time so a queued job's key
        equals the key the executing worker (or any in-process run)
        computes.
        """
        stack = NoiseStack.coerce(noise)
        if stack is None:
            stack = spec.noise
        injecting = stack is not None and bool(stack)
        reps = spec.resolved_reps(injecting)
        spec = spec.with_(reps=reps)
        return spec, stack, self._key(spec, stack, reps)

    # ------------------------------------------------------------------
    def load_entry(self, key: str, spec: ExperimentSpec) -> Optional[ResultSet]:
        """Load ``key``'s entry, or ``None`` on miss.

        A faulted entry is evicted, counted and reported as a miss (see
        :meth:`_read`).  ``spec`` must already be rep-resolved (see
        :meth:`resolve_cell`); it is attached to the returned
        :class:`ResultSet` verbatim.
        """
        return self._read(
            self.entry_path(key),
            spec.label(),
            lambda data: ResultSet(
                spec=spec,
                times=np.asarray(data["times"]),
                anomalies=data["anomalies"],
                injected=data["injected"],
                failures=[FailureRecord.from_dict(f) for f in data.get("failures", [])],
                adaptive=data.get("adaptive"),
            ),
        )

    def store_entry(
        self, key: str, spec: ExperimentSpec, stack: Optional[NoiseStack], rs: ResultSet
    ) -> None:
        """Write a computed result under ``key`` (atomic).

        Partial results (a ``skip`` policy left failed reps) are
        quarantined to ``<key>.partial.json`` instead — the primary
        keyspace only ever holds complete cells.
        JSON float round-trip is exact (``repr`` shortest-round-trip),
        so a later hit is bit-identical to this result.
        """
        path = self.entry_path(key)
        if rs.failures:
            self._count("partial")
            path = self.root / f"{key}.partial.json"
        self._write(
            path,
            {
                "times": rs.times.tolist(),
                "anomalies": rs.anomalies,
                "injected": rs.injected,
                "label": spec.label(),
                "noise": stack.kinds() if stack is not None else None,
                "failures": [f.to_dict() for f in rs.failures],
                "adaptive": rs.adaptive,
            },
        )

    def stats(self) -> dict:
        """Counters: ``hits``, ``misses``, ``partial`` (results
        quarantined instead of cached because a skip policy left failed
        reps) and the three fault kinds of :meth:`_read`: ``corrupt``,
        ``stale``, ``integrity_quarantined``.

        The counts live in the telemetry counter registry; this view
        preserves the pre-telemetry return shape exactly."""
        counts = self._counters.as_dict()
        return {
            "hits": int(counts.get("hits", 0)),
            "misses": int(counts.get("misses", 0)),
            "corrupt": int(counts.get("corrupt", 0)),
            "stale": int(counts.get("stale", 0)),
            "partial": int(counts.get("partial", 0)),
            "integrity_quarantined": int(counts.get("integrity_quarantined", 0)),
        }

    def _count(self, counter: str) -> None:
        self._counters.inc(counter)

    # ------------------------------------------------------------------
    def get_or_run(
        self,
        spec: ExperimentSpec,
        noise: "NoiseLike" = None,
        executor: Optional["Executor"] = None,
        on_run: Optional[Callable[[int, "RunResult"], None]] = None,
        policy: Optional["FaultPolicy"] = None,
    ) -> ResultSet:
        """Return cached results or run the experiment and store them.

        ``noise`` accepts any registered source, a
        :class:`~repro.noise.base.NoiseStack`, or a sequence of sources;
        it defaults to ``spec.noise``.

        ``on_run`` consumers are incompatible with caching: a cache hit
        replays no runs, so the consumer would be silently skipped.
        Passing one while the cache is enabled raises ``ValueError``
        (with ``REPRO_NO_CACHE=1`` every call re-runs, so live
        consumption is honest again and allowed through).

        ``executor`` and ``policy`` govern a miss (defaults: the
        ``REPRO_JOBS`` backend, fail fast).  The policy never enters the
        cache key — a retried or recovered run is bit-identical to a
        clean one, so the same cell keys identically under any policy.
        Partial results (skipped reps) are returned but quarantined to
        ``<key>.partial.json`` rather than cached, so the cell re-runs
        on the next call.

        Adaptive early stopping is different: a spec that carries an
        :class:`~repro.harness.adaptive.AdaptivePolicy` stores a
        *smaller sample* of the same cell, so it keys under a distinct
        versioned key block and can never collide with — or masquerade
        as — the fixed-rep entry.
        """
        if on_run is not None and self.enabled:
            raise ValueError(
                "on_run consumers cannot be combined with a result cache: "
                "cache hits replay no runs, so the consumer would silently "
                "observe nothing. Call run_experiment() directly (trace "
                "collection does), or disable the cache with REPRO_NO_CACHE=1."
            )
        spec, stack, key = self.resolve_cell(spec, noise)
        rs = self.load_entry(key, spec)
        if rs is not None:
            self._count("hits")
            return rs
        self._count("misses")
        return self._run_and_store(spec, stack, key, executor, on_run, policy)

    def _run_and_store(self, spec, stack, key, executor, on_run, policy) -> ResultSet:
        """The miss path: simulate, then persist.

        Split out so the concurrently-safe shared store can serialise
        exactly this section under a per-key lock (and re-check for an
        entry written by a racing process before running).
        """
        rs = run_experiment(
            spec, noise=stack, on_run=on_run, executor=executor, policy=policy
        )
        self.store_entry(key, spec, stack, rs)
        return rs

