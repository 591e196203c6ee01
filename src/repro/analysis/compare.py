"""Profile-to-profile comparison.

Answers "how does this system's noise differ from that one's?" — e.g.
runlevel 3 versus the default desktop, or one platform versus another —
by diffing two :class:`~repro.core.profile.NoiseProfile` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profile import NoiseProfile

__all__ = ["ProfileDelta", "profile_delta"]


@dataclass(frozen=True)
class ProfileDelta:
    """Change of one source between two profiles (b relative to a)."""

    source: str
    rate_a: float
    rate_b: float
    mean_duration_a: float
    mean_duration_b: float

    @property
    def load_a(self) -> float:
        """CPU-seconds of this source per second of execution (a)."""
        return self.rate_a * self.mean_duration_a

    @property
    def load_b(self) -> float:
        """CPU-seconds of this source per second of execution (b)."""
        return self.rate_b * self.mean_duration_b


def profile_delta(a: NoiseProfile, b: NoiseProfile) -> list[ProfileDelta]:
    """Per-source comparison, sorted by the absolute load change.

    Sources present in only one profile appear with zero stats on the
    other side (how the runlevel-3 study shows GUI sources vanishing).
    """
    deltas = []
    for source in sorted(set(a) | set(b)):
        sa = a.get(source)
        sb = b.get(source)
        deltas.append(
            ProfileDelta(
                source=source,
                rate_a=sa.rate_hz if sa else 0.0,
                rate_b=sb.rate_hz if sb else 0.0,
                mean_duration_a=sa.mean_duration if sa else 0.0,
                mean_duration_b=sb.mean_duration if sb else 0.0,
            )
        )
    deltas.sort(key=lambda d: -abs(d.load_b - d.load_a))
    return deltas
