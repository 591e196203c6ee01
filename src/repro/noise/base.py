"""The :class:`NoiseSource` protocol, registry, and :class:`NoiseStack`.

The paper's injector replays one kind of noise (OSnoise trace replay);
the repo has since grown synthetic background noise, I/O interference,
memory-bandwidth hogs, and HPAS-style generators — each of which used
to carry its own config type and its own ad-hoc wiring through the
harness.  This module is the single seam they all plug into:

* :class:`NoiseSource` — an immutable, JSON-serialisable description of
  one noise mechanism.  ``attach(machine, rng)`` binds it to a single
  simulated run and returns an :class:`AttachedSource` whose
  ``start(expected_duration)`` arms the events; ``spec_hash()`` is a
  stable content address used by the result cache.  Its ``fields``
  table declares each ``--noise`` parameter once, as a
  ``(name, kind, default, help)`` row: ``_from_fields`` parses flags
  by it and ``repro-noise noise`` prints it.
* the **registry** — string-keyed source types
  (:func:`register_source` / :func:`get_source_type` /
  :func:`available_sources`), so serialized specs, CLI flags, and cache
  keys all dispatch by ``kind``.
* :class:`NoiseStack` — an ordered composition of sources driven in one
  run.  Determinism is preserved per-source: the stack spawns one child
  generator per source from the run's RNG via ``SeedSequence`` spawn
  keys, so adding a source never perturbs the streams of the others.

Any future mechanism (network noise, thermal throttling, cgroup
pressure) implements the protocol, registers a ``kind``, and is
immediately usable from ``ExperimentSpec``, the cache, sweeps,
campaigns, and the CLI's repeatable ``--noise`` flags.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Iterable, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

__all__ = [
    "REQUIRED",
    "SCHEMA_VERSION",
    "AttachedSource",
    "NoiseSource",
    "NoiseStack",
    "register_source",
    "get_source_type",
    "available_sources",
    "source_from_dict",
    "source_from_json",
    "parse_noise_spec",
    "cpu_list",
]

#: serialization schema of ``{"kind": ..., "params": ...}`` payloads;
#: bump when the envelope (not a source's own params) changes shape
SCHEMA_VERSION = 1

#: the ``default`` of a ``fields`` row that every ``--noise`` flag must give
REQUIRED = object()


def cpu_list(text: str) -> tuple[int, ...]:
    """The ``fields`` kind of a CPU list: ``+`` separates CPUs because
    ``,`` separates parameters (``irq_cpus=0+1``)."""
    return tuple(int(part) for part in text.split("+") if part != "")


#: what a ``--noise`` value failed to be, by ``fields`` kind
_KIND_NAMES = {float: "a number", int: "an integer", cpu_list: "a +-separated CPU list"}


class AttachedSource:
    """One source bound to one machine/run (returned by ``attach``).

    ``start`` arms the source's events on the machine's engine;
    ``stop`` cancels whatever is still pending (teardown).  The base
    implementation of ``stop`` is a no-op — sources whose events are
    simply abandoned when the engine stops need not override it.
    """

    def start(self, expected_duration: float) -> None:
        """Arm the source's events (``expected_duration`` places windows)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Cancel pending activity; safe to call after the run ended."""


class NoiseSource(ABC):
    """An immutable, serialisable description of one noise mechanism.

    Subclasses define a unique ``kind`` (the registry key), parameter
    (de)serialization via ``params``/``from_params``, per-run binding
    via ``attach``, and their ``--noise`` parameters as ``fields``.
    Instances must be safe to share across repetitions and process
    boundaries (pure data, no machine state).
    """

    #: registry key; unique per source type
    kind: ClassVar[str] = ""

    #: one ``(name, kind, default, help)`` row per ``--noise`` parameter:
    #: ``kind`` parses the flag's text (``float``, ``int``, ``str`` or
    #: :func:`cpu_list`); ``default`` is :data:`REQUIRED` or the value an
    #: omitted flag takes
    fields: ClassVar[tuple[tuple, ...]] = ()

    # -------------------------------------------------- per-run binding
    @abstractmethod
    def attach(self, machine: "Machine", rng: np.random.Generator) -> AttachedSource:
        """Bind this source to one run; the result's ``start`` arms it."""

    # -------------------------------------------------- serialization
    @abstractmethod
    def params(self) -> dict:
        """JSON-serialisable parameters (inverse of :meth:`from_params`)."""

    @classmethod
    @abstractmethod
    def from_params(cls, params: dict) -> "NoiseSource":
        """Rebuild a source from :meth:`params` output."""

    def to_dict(self) -> dict:
        """Registry envelope: ``{"kind", "version", "params"}``."""
        return {"kind": self.kind, "version": SCHEMA_VERSION, "params": self.params()}

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the envelope to JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    def spec_hash(self) -> str:
        """Stable content address of this source (cache-key material)."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -------------------------------------------------- semantics
    @property
    def disables_rt_throttle(self) -> bool:
        """Whether replaying this source needs RT throttling off.

        Injected SCHED_FIFO events must be able to occupy 100% of a CPU
        (the paper disables the fail-safe for injection runs); ambient
        background noise does not require it.
        """
        return True

    # -------------------------------------------------- CLI surface
    @classmethod
    def from_cli(cls, **raw: str) -> "NoiseSource":
        """Build a source from raw ``--noise`` key/value strings."""
        raise ValueError(f"noise source {cls.kind!r} cannot be built from --noise flags")

    @classmethod
    def _from_fields(cls, raw: dict[str, str]) -> dict:
        """Every ``fields`` parameter, parsed from ``raw`` or defaulted.

        An unknown key, a missing (or empty) required one, or text its
        kind cannot parse is a ``ValueError``.
        """
        known = {row[0] for row in cls.fields}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for noise source {cls.kind!r} "
                f"(accepted: {sorted(known)})"
            )
        missing = [
            name for name, _, default, _ in cls.fields if default is REQUIRED and not raw.get(name)
        ]
        if missing:
            raise ValueError(f"{cls.kind} needs {', '.join(missing)}")
        values = {}
        for name, kind, default, _ in cls.fields:
            if name not in raw:
                values[name] = default
                continue
            try:
                values[name] = kind(raw[name])
            except ValueError:
                raise ValueError(
                    f"noise parameter {name}={raw[name]!r} is not {_KIND_NAMES[kind]}"
                ) from None
        return values

    # -------------------------------------------------- equality
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NoiseSource):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(self.spec_hash())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind!r} hash={self.spec_hash()}>"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[NoiseSource]] = {}


def register_source(cls: type[NoiseSource]) -> type[NoiseSource]:
    """Class decorator: make ``cls`` constructible by its ``kind``."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must define a non-empty kind")
    existing = _REGISTRY.get(cls.kind)
    if existing is not None and existing is not cls:
        raise ValueError(f"noise source kind {cls.kind!r} already registered by {existing.__name__}")
    _REGISTRY[cls.kind] = cls
    return cls


def _ensure_builtin_sources() -> None:
    """Import the built-in implementations so the registry is populated
    even when callers only imported :mod:`repro.noise.base`."""
    import repro.noise.background  # noqa: F401
    import repro.noise.sources  # noqa: F401


def get_source_type(kind: str) -> type[NoiseSource]:
    """Look up a registered source type by its ``kind``."""
    _ensure_builtin_sources()
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise KeyError(
            f"unknown noise source {kind!r}; registered: {', '.join(available_sources())}"
        ) from None


def available_sources() -> list[str]:
    """Registered source kinds, sorted."""
    _ensure_builtin_sources()
    return sorted(_REGISTRY)


def source_from_dict(payload: dict) -> NoiseSource:
    """Rebuild any registered source from its envelope dict."""
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise ValueError(f"noise payload needs a string 'kind': {payload!r}")
    version = payload.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported noise schema version {version!r} for {kind!r}")
    if kind == NoiseStack.kind:
        return NoiseStack.from_dict(payload)
    return get_source_type(kind).from_params(payload.get("params", {}))


def source_from_json(text: str) -> NoiseSource:
    """Rebuild any registered source (or a stack) from JSON."""
    return source_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------
class _AttachedStack(AttachedSource):
    """Drives every attached member source through one run."""

    def __init__(self, members: list[AttachedSource]):
        self.members = members

    def start(self, expected_duration: float) -> None:
        for member in self.members:
            member.start(expected_duration)

    def stop(self) -> None:
        for member in self.members:
            member.stop()


class NoiseStack(NoiseSource):
    """An ordered composition of noise sources driven in one run.

    Stacks flatten on construction (a stack of stacks is just the
    concatenated sources) and serialize as
    ``{"kind": "stack", "sources": [...]}`` — the source-agnostic form
    the result cache hashes.  ``attach`` spawns one child RNG per
    member from the run's generator (``SeedSequence`` spawn keys), so
    every member draws from an independent, reproducible stream.
    """

    kind: ClassVar[str] = "stack"

    def __init__(self, sources: Iterable[NoiseSource] = ()):
        flat: list[NoiseSource] = []
        for src in sources:
            if isinstance(src, NoiseStack):
                flat.extend(src.sources)
            elif isinstance(src, NoiseSource):
                flat.append(src)
            else:
                raise TypeError(
                    f"NoiseStack takes NoiseSource instances, got {type(src).__name__}"
                )
        self.sources: tuple[NoiseSource, ...] = tuple(flat)

    # -------------------------------------------------- coercion
    @classmethod
    def coerce(cls, obj) -> Optional["NoiseStack"]:
        """Normalise ``None``, a stack, a source, or a sequence of
        sources into a stack (``None`` stays ``None``).

        Anything else is a ``TypeError``: a bare configuration must be
        wrapped in its source first, e.g.
        ``TraceReplaySource(config)``.
        """
        if obj is None or isinstance(obj, NoiseStack):
            return obj
        if isinstance(obj, NoiseSource):
            return cls([obj])
        if isinstance(obj, (list, tuple)):
            return cls(obj)
        raise TypeError(f"cannot interpret {type(obj).__name__} as a noise source")

    # -------------------------------------------------- protocol
    def attach(self, machine: "Machine", rng: np.random.Generator) -> AttachedSource:
        """Bind every member to the run with an independent child RNG."""
        children = _spawn_children(rng, len(self.sources))
        return _AttachedStack(
            [src.attach(machine, child) for src, child in zip(self.sources, children)]
        )

    def params(self) -> dict:
        return {"sources": [s.to_dict() for s in self.sources]}

    @classmethod
    def from_params(cls, params: dict) -> "NoiseStack":
        return cls([source_from_dict(d) for d in params.get("sources", [])])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "version": SCHEMA_VERSION,
            "sources": [s.to_dict() for s in self.sources],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NoiseStack":
        return cls([source_from_dict(d) for d in payload.get("sources", [])])

    @classmethod
    def from_json(cls, text: str) -> "NoiseStack":
        """Parse a stack (or promote a single source) from JSON."""
        src = source_from_json(text)
        return src if isinstance(src, cls) else cls([src])

    @property
    def disables_rt_throttle(self) -> bool:
        return any(s.disables_rt_throttle for s in self.sources)

    # -------------------------------------------------- conveniences
    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self):
        return iter(self.sources)

    def __bool__(self) -> bool:
        return bool(self.sources)

    def kinds(self) -> list[str]:
        """Member kinds in stack order (diagnostics, CLI echo)."""
        return [s.kind for s in self.sources]

    def describe(self) -> str:
        """One-line human-readable composition summary."""
        return " + ".join(self.kinds()) if self.sources else "(empty)"

    def __repr__(self) -> str:
        return f"<NoiseStack [{self.describe()}] hash={self.spec_hash()}>"


def _spawn_children(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """``n`` independent child generators via SeedSequence spawn keys."""
    if n == 0:
        return []
    try:
        return list(rng.spawn(n))
    except AttributeError:  # pragma: no cover - numpy < 1.25
        seed_seq = getattr(rng.bit_generator, "seed_seq", None) or rng.bit_generator._seed_seq
        return [np.random.default_rng(child) for child in seed_seq.spawn(n)]


# ----------------------------------------------------------------------
# CLI spec parsing
# ----------------------------------------------------------------------
def parse_noise_spec(text: str) -> NoiseSource:
    """Parse one ``--noise`` flag: ``KIND[:key=val,key=val,...]``.

    Example specs::

        trace-replay:path=noise_config.json
        io:start=0.05,duration=0.3,irq_rate=3000,irq_cpus=0+1
        memory:start=0.0,duration=0.5,bandwidth_gbs=20
        hpas.cache_thrash:start=0.0,duration=0.2,cpus=0+1+2
        background:preset=desktop,intensity=1.5
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise ValueError(f"empty noise source kind in {text!r}")
    try:
        cls = get_source_type(kind)
    except KeyError as exc:
        raise ValueError(str(exc)) from None
    raw: dict[str, str] = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(f"malformed noise parameter {item!r} in {text!r} (want key=val)")
            if key in raw:
                raise ValueError(f"noise parameter {key!r} given twice in {text!r}")
            raw[key] = value.strip()
    return cls.from_cli(**raw)
