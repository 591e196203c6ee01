"""``background``: the synthetic OS-activity model as a noise source.

Wraps :class:`~repro.sim.noise.NoiseEnvironment` /
:class:`~repro.sim.noise.NoiseModel` — the "real system" the tracer
observes — so ambient OS noise composes with replayed noise in one
:class:`~repro.noise.base.NoiseStack`.  Useful for studies like "how
does the injector's replay degrade when the target machine is noisier
than the traced one": every platform still carries its own baseline
environment, and this source layers an *additional* one on top.

Environments serialize in full (micro spec, macro sources, anomaly
lottery), so a composed spec round-trips through JSON like every other
source.  Note that a second environment's micro noise overwrites the
per-CPU steal fractions the platform environment set — macro sources
and anomalies compose additively through the scheduler.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace
from typing import TYPE_CHECKING, ClassVar, Optional

import numpy as np

from repro.noise.base import REQUIRED, AttachedSource, NoiseSource, register_source
from repro.sim.noise import (
    AnomalySpec,
    AnomalyType,
    MicroNoiseSpec,
    NoiseEnvironment,
    NoiseModel,
    NoiseSourceSpec,
    desktop_noise,
    hpc_noise,
)
from repro.sim.task import TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

__all__ = [
    "BackgroundNoiseSource",
    "environment_to_dict",
    "environment_from_dict",
]

_PRESETS = {
    "desktop": lambda: desktop_noise(),
    "desktop-nogui": lambda: desktop_noise(gui=False),
    "hpc": lambda: hpc_noise(),
}


# ----------------------------------------------------------------------
# environment (de)serialization
# ----------------------------------------------------------------------
def environment_to_dict(env: NoiseEnvironment) -> dict:
    """Full JSON-serialisable form of a noise environment."""
    return {
        "micro": asdict(env.micro),
        "sources": [
            {**asdict(s), "kind": s.kind.name} for s in env.sources
        ],
        "anomalies": {
            "prob": env.anomalies.prob,
            "scale_with_cores": env.anomalies.scale_with_cores,
            "candidates": [
                {
                    "name": a.name,
                    "total_busy": list(a.total_busy),
                    "n_segments": list(a.n_segments),
                    "fifo_fraction": a.fifo_fraction,
                    "window_fraction": list(a.window_fraction),
                }
                for a in env.anomalies.candidates
            ],
        },
        "gui": env.gui,
        "os_affinity": list(env.os_affinity),
    }


def environment_from_dict(data: dict) -> NoiseEnvironment:
    """Inverse of :func:`environment_to_dict`."""
    anomalies = data.get("anomalies", {})
    return NoiseEnvironment(
        micro=MicroNoiseSpec(**data.get("micro", {})),
        sources=tuple(
            NoiseSourceSpec(**{**s, "kind": TaskKind[s["kind"]]})
            for s in data.get("sources", [])
        ),
        anomalies=AnomalySpec(
            prob=anomalies.get("prob", 0.0),
            scale_with_cores=anomalies.get("scale_with_cores", True),
            candidates=tuple(
                AnomalyType(
                    name=a["name"],
                    total_busy=tuple(a["total_busy"]),
                    n_segments=tuple(a["n_segments"]),
                    fifo_fraction=a.get("fifo_fraction", 0.15),
                    window_fraction=tuple(a.get("window_fraction", (0.3, 0.9))),
                )
                for a in anomalies.get("candidates", [])
            ),
        ),
        gui=data.get("gui", False),
        os_affinity=tuple(data.get("os_affinity", [])),
    )


class _AttachedBackground(AttachedSource):
    """One extra :class:`NoiseModel` layered onto a run."""

    def __init__(self, machine: "Machine", env: NoiseEnvironment, rng: np.random.Generator):
        self.model = NoiseModel(machine, env, rng)

    def start(self, expected_duration: float) -> None:
        self.model.start(expected_duration)

    def stop(self) -> None:
        self.model.stop()


@register_source
class BackgroundNoiseSource(NoiseSource):
    """Synthetic ambient OS noise layered on top of the platform's own."""

    kind: ClassVar[str] = "background"
    fields = (
        ("preset", str, REQUIRED, f"environment preset: {', '.join(sorted(_PRESETS))}"),
        ("intensity", float, 1.0, "macro-source rate multiplier"),
        ("anomaly_prob", float, None, "override the preset's per-run anomaly probability"),
    )

    def __init__(self, env: NoiseEnvironment, intensity: float = 1.0):
        if not isinstance(env, NoiseEnvironment):
            raise TypeError(
                f"BackgroundNoiseSource needs a NoiseEnvironment, got {type(env).__name__}"
            )
        # NaN fails this comparison too
        if not 0 < intensity < math.inf:
            raise ValueError(f"intensity must be positive and finite: {intensity!r}")
        self.intensity = float(intensity)
        self.env = env.intensity_scaled(self.intensity) if intensity != 1.0 else env

    @classmethod
    def preset(
        cls,
        name: str,
        intensity: float = 1.0,
        anomaly_prob: Optional[float] = None,
    ) -> "BackgroundNoiseSource":
        """Build from a named environment preset."""
        try:
            env = _PRESETS[name]()
        except KeyError:
            raise ValueError(
                f"unknown background preset {name!r} (available: {', '.join(sorted(_PRESETS))})"
            ) from None
        if anomaly_prob is not None:
            env = replace(env, anomalies=replace(env.anomalies, prob=anomaly_prob))
        return cls(env, intensity=intensity)

    # -------------------------------------------------- protocol
    def attach(self, machine: "Machine", rng: np.random.Generator) -> AttachedSource:
        return _AttachedBackground(machine, self.env, rng)

    def params(self) -> dict:
        return {"env": environment_to_dict(self.env)}

    @classmethod
    def from_params(cls, params: dict) -> "BackgroundNoiseSource":
        return cls(environment_from_dict(params["env"]))

    @property
    def disables_rt_throttle(self) -> bool:
        # Ambient noise obeys the normal RT fail-safe, like the
        # platform's own environment does during baseline runs.
        return False

    @classmethod
    def from_cli(cls, **raw: str) -> "BackgroundNoiseSource":
        values = cls._from_fields(raw)
        return cls.preset(values.pop("preset"), **values)
