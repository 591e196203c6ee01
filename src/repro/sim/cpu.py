"""CPU topology: logical CPUs, physical cores, SMT siblings.

Mirrors the three machines in the paper:

* Intel i7-9700KF — 8 physical cores, no SMT (8 logical CPUs);
* AMD Ryzen 9950X3D — 16 physical cores, 2-way SMT (32 logical CPUs);
* Fujitsu A64FX — 48 cores in 4 core-memory groups, optionally with two
  extra *assistant* cores firmware-reserved for the OS.

Logical CPU numbering follows Linux convention on these machines:
logical CPU ``i`` for ``i < n_physical`` is the first hardware thread of
physical core ``i``; logical CPU ``n_physical + i`` is its SMT sibling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Topology"]


@dataclass(frozen=True)
class Topology:
    """Immutable description of a machine's CPU layout.

    Parameters
    ----------
    n_physical:
        Number of physical cores.
    smt:
        Hardware threads per physical core (1 or 2).
    reserved_cpus:
        Logical CPUs firmware-reserved for the OS (hidden from user
        workloads, used by system noise) — models A64FX:reserved.
    numa_nodes:
        Number of NUMA domains; physical cores are split contiguously.
    """

    n_physical: int
    smt: int = 1
    reserved_cpus: frozenset[int] = field(default_factory=frozenset)
    numa_nodes: int = 1

    def __post_init__(self) -> None:
        if self.n_physical <= 0:
            raise ValueError("n_physical must be positive")
        if self.smt not in (1, 2):
            raise ValueError("smt must be 1 or 2")
        if self.numa_nodes <= 0 or self.n_physical % self.numa_nodes:
            raise ValueError("numa_nodes must evenly divide n_physical")
        bad = [c for c in self.reserved_cpus if not 0 <= c < self.n_logical]
        if bad:
            raise ValueError(f"reserved cpus out of range: {bad}")

    # ------------------------------------------------------------------
    @property
    def n_logical(self) -> int:
        """Total number of logical CPUs."""
        return self.n_physical * self.smt

    def all_cpus(self) -> tuple[int, ...]:
        """All logical CPU ids, including reserved ones."""
        return tuple(range(self.n_logical))

    def user_cpus(self) -> tuple[int, ...]:
        """Logical CPUs visible to user workloads (reserved excluded)."""
        return tuple(c for c in range(self.n_logical) if c not in self.reserved_cpus)

    def physical_core(self, cpu: int) -> int:
        """Physical core id hosting logical CPU ``cpu``."""
        self._check(cpu)
        return cpu % self.n_physical

    def sibling(self, cpu: int) -> Optional[int]:
        """The SMT sibling of ``cpu``, or ``None`` when SMT is off."""
        self._check(cpu)
        if self.smt == 1:
            return None
        return cpu + self.n_physical if cpu < self.n_physical else cpu - self.n_physical

    def primary_cpus(self) -> tuple[int, ...]:
        """One logical CPU per physical core (the first hardware thread)."""
        return tuple(range(self.n_physical))

    def numa_node(self, cpu: int) -> int:
        """NUMA node of logical CPU ``cpu``."""
        per_node = self.n_physical // self.numa_nodes
        return self.physical_core(cpu) // per_node

    def _check(self, cpu: int) -> None:
        if not 0 <= cpu < self.n_logical:
            raise ValueError(f"logical cpu out of range: {cpu}")
