"""Linux-like two-class CPU scheduler over the event engine.

Semantics modelled (each is load-bearing for the paper's findings):

* ``SCHED_FIFO`` strictly preempts ``SCHED_OTHER`` on the same CPU;
  among FIFO tasks the highest ``rt_priority`` runs.  This is how the
  injector guarantees exact replay timing of interrupt-class noise.
* ``SCHED_OTHER`` tasks on one CPU share it proportionally to their
  weights (a piecewise-constant-rate approximation of CFS).
* RT throttling: with the fail-safe enabled (Linux default), the FIFO
  class is capped at ``RT_THROTTLE_SHARE`` (95%) of a CPU and OTHER
  tasks retain the rest; the injector disables this to occupy 100%.
* Wake placement prefers an *idle* allowed CPU.  Injected noise has no
  affinity, so with housekeeping cores left free the noise lands there
  instead of preempting the workload — the mechanism behind the paper's
  HK/HK2 results.
* Non-pinned OTHER tasks starved by FIFO noise migrate away after a
  starvation delay plus a migration cost; pinned tasks must wait.  This
  is the Rm-vs-TP distinction under injection.
* SMT siblings share a physical core: when both are busy each runs at
  ``SMT_FACTOR`` speed.
* A per-CPU *steal fraction* models aggregated micro-noise (timer
  ticks, softirqs) without per-tick events.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Collection, Optional

from repro.sim.cpu import Topology
from repro.sim.engine import Engine
from repro.sim.memory import MemorySystem
from repro.sim.task import SchedPolicy, Task, WorkPool

__all__ = ["Scheduler"]

_DONE_EPS = 1e-12
#: how far the running-total drift estimate must sit from every
#: threshold it is compared with before it may decide on its own
_DRIFT_MARGIN = 1e-6

_by_tid = attrgetter("tid")


# Scheduler constants (seconds unless noted); read where they are used.
#: per-sibling speed while both hardware threads of a core are busy
SMT_FACTOR = 0.65
#: off-CPU latency of a same-node migration (cache refill, runqueue hop)
MIGRATION_COST = 25e-6
# Crossing a NUMA boundary costs an order of magnitude more (cache
# refill from remote memory, page locality loss) — the effect the paper
# credits for thread pinning's advantage on large multi-socket systems
# (§5.1, §6).
NUMA_MIGRATION_COST = 300e-6
# Post-migration speed factors (until the task's current work
# completes): a same-node hop costs a cache refill; a cross-node hop
# leaves the working set in remote memory.
POST_MIGRATION_SPEED = 0.97
NUMA_REMOTE_SPEED = 0.62
#: how long a starved OTHER task waits before it looks for an idle CPU
STARVATION_DELAY = 200e-6
# An idle CPU is found within STARVATION_DELAY (wake/newidle balancing);
# migrating onto a *busy* CPU only happens on the slow periodic balance
# path.
SHARED_MIGRATION_DELAY = 8e-3
#: a task migrates at most once per this interval
MIN_MIGRATION_INTERVAL = 1e-3
#: the FIFO class's cap on a CPU while RT throttling is on
RT_THROTTLE_SHARE = 0.95
#: memory-scale drift that arms a deferred rescale, and its delay
MEM_RESCALE_TOLERANCE = 0.01
MEM_RESCALE_DELAY = 20e-6


class _CpuState:
    __slots__ = ("fifo", "other", "weight", "steal", "stale")

    def __init__(self) -> None:
        self.fifo: list[Task] = []   # sorted: highest rt_priority first, FIFO arrival within
        self.other: list[Task] = []  # arrival order; shares by weight
        #: the OTHER tasks' weights summed left to right over ``other``
        self.weight: float = 0.0
        self.steal: float = 0.0      # fraction of capacity lost to micro-noise
        #: queue membership, steal or the sibling's busy-ness changed
        #: since this CPU's shares were last computed
        self.stale: bool = True

    def busy(self) -> bool:
        return bool(self.fifo or self.other)


class Scheduler:
    """Places tasks on logical CPUs and integrates their progress."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        memory: Optional[MemorySystem] = None,
        rt_throttle: bool = True,
        on_noise_interval: Optional[Callable[[Task, int, float, float], None]] = None,
    ):
        self.engine = engine
        self.topology = topology
        self.memory = memory if memory is not None else MemorySystem(bandwidth=float("inf"))
        self.rt_throttle = rt_throttle
        #: callback(task, cpu, start, cpu_time) fired when a noise task leaves
        self.on_noise_interval = on_noise_interval
        n = topology.n_logical
        self._cpus = [_CpuState() for _ in range(n)]
        # Topology lookups are pure functions of the CPU id; resolving
        # them once keeps range checks out of every rate recompute.
        self._sibling: tuple[Optional[int], ...] = tuple(topology.sibling(c) for c in range(n))
        #: without SMT no CPU's speed depends on another's busy-ness,
        #: so `_update` skips the sibling bookkeeping outright
        self._smt = any(sib is not None for sib in self._sibling)
        self._numa: tuple[int, ...] = tuple(topology.numa_node(c) for c in range(n))
        self._all_cpu_list = list(range(n))
        #: CPUs with empty queues; `submit`, `remove` and `_migrate`
        #: keep it current, so placement skips its idle scans at 0
        self._n_idle = n
        #: CPUs holding a FIFO task or more than one OTHER task, the
        #: only ones an idle CPU can pull from; `submit` and `_dequeue`
        #: keep it current, so `_update` skips the pull scan at 0
        self._n_crowded = 0
        self._mem_running: dict[int, Task] = {}  # tid -> task with demand & share > 0
        #: running sum of the tasks' ``_mem_contrib`` over ``_mem_running``
        #: (an estimate: it only picks a branch, see `_update` phase 3)
        self._mem_total = 0.0
        self._mem_scale = 1.0
        self._mem_rescale_pending = False
        self._starvation_pending: set[int] = set()
        self._starved_since: dict[int, float] = {}
        self._last_migration: dict[int, float] = {}
        self._migration_origin: dict[int, int] = {}
        # Wake-placement LRU stamps: ties between equally-loaded CPUs go
        # to the least-recently-chosen one, spreading background noise
        # across the machine the way the kernel's wake balancing does.
        self._placed_stamp = [0] * topology.n_logical
        self._placed_seq = 0
        self._last_busy = [False] * topology.n_logical
        self.migrations = 0
        self.preemptions = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, task: Task, cpu: Optional[int] = None, hint: Optional[int] = None) -> int:
        """Make ``task`` runnable; returns the chosen logical CPU."""
        if task.cpu is not None:
            raise ValueError(f"task already placed: {task!r}")
        if not task.alive:
            raise ValueError(f"task is dead: {task!r}")
        if cpu is None:
            cpu = self._pick_cpu(task, hint)
        elif task.affinity is not None and cpu not in task.affinity:
            raise ValueError(f"cpu {cpu} not in affinity of {task!r}")
        state = self._cpus[cpu]
        fifo = state.fifo
        other = state.other
        if not (fifo or other):
            self._n_idle -= 1
        # A CPU turns crowded with its first FIFO task, idle or not, or
        # its second OTHER task.
        if not (fifo or len(other) > 1) and (task.policy is SchedPolicy.FIFO or other):
            self._n_crowded += 1
        state.stale = True
        task.cpu = cpu
        task._last_update = self.engine.now
        if task.policy is SchedPolicy.FIFO:
            self._insert_fifo(fifo, task)
            if other:
                self.preemptions += 1
        else:
            other.append(task)
            # the left-to-right sum over `other`, float for float
            state.weight += task.weight
        self._update((cpu,))
        return cpu

    def remove(self, task: Task) -> None:
        """Take a runnable task off its CPU (sleep or exit)."""
        cpu = task.cpu
        if cpu is None:
            return
        task.advance(self.engine.now)
        self._emit_noise_interval(task)
        self._dequeue(task, cpu)
        task.cpu = None
        task.rate = 0.0
        # Off-CPU tasks stop pulling bandwidth; dropping them here (the
        # only sleep/exit path) keeps the rescale loop free of dead
        # entries without a straggler scan per update.
        self._drop_streamer(task)
        self._cancel_completion(task)
        self._update((cpu,))

    def refresh(self, task: Task) -> None:
        """Re-evaluate a task after its work / memory demand changed."""
        if task.cpu is None:
            raise ValueError(f"task not placed: {task!r}")
        self._update((task.cpu,))

    def assign_work(self, task: Task, work: float, mem_demand: float = 0.0) -> None:
        """Give a team thread new work, settling its clock first.

        Must be used instead of :meth:`Task.assign_work` for placed
        tasks: the task may have been spinning since its last
        integration, and advancing it after the new work is attached
        would wrongly consume the spin gap.  Follow with
        :meth:`refresh` / :meth:`refresh_many`.
        """
        task.advance(self.engine.now)
        task.assign_work(work, mem_demand)

    def join_pool(self, task: Task, pool: WorkPool, mem_demand: float = 0.0) -> None:
        """Pool-membership analogue of :meth:`assign_work`."""
        task.advance(self.engine.now)
        self._cancel_completion(task)
        task.join_pool(pool, mem_demand)

    def refresh_many(self, tasks: list[Task]) -> None:
        """Batch form of :meth:`refresh` — one rate recomputation for a
        whole team (used at parallel-region start)."""
        cpus = {t.cpu for t in tasks if t.cpu is not None}
        if cpus:
            self._update(cpus)

    def detach_pool(self, pool: WorkPool) -> None:
        """Drop all members from a drained pool back to spinning."""
        self._cancel_completion(pool)
        members = list(pool.members)
        pool.members.clear()
        cpus = set()
        for t in members:
            t.to_spin()
            if t.cpu is not None:
                cpus.add(t.cpu)
        if cpus:
            self._update(cpus)

    def set_steal_many(self, fractions: dict[int, float]) -> None:
        """Set the micro-noise steal fraction (0 ≤ f < 1) of each CPU
        in ``fractions``, with one rate recompute for all of them."""
        for cpu, fraction in fractions.items():
            if not 0.0 <= fraction < 1.0:
                raise ValueError(f"steal fraction out of range: {fraction!r}")
        for cpu, fraction in fractions.items():
            state = self._cpus[cpu]
            state.steal = fraction
            state.stale = True
        if fractions:
            self._update(set(fractions))

    def register_pool(self, pool: WorkPool) -> None:
        """Start tracking a pool's drain-completion event."""
        self._reschedule_pool(pool)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _allowed(self, task: Task) -> list[int]:
        if task.affinity is None:
            # Shared read-only list: callers only iterate.
            return self._all_cpu_list
        return sorted(task.affinity)

    def _pick_cpu(self, task: Task, hint: Optional[int]) -> int:
        allowed = self._allowed(task)
        if len(allowed) == 1:
            chosen = allowed[0]
        else:
            chosen = self._pick_cpu_multi(task, hint, allowed)
        self._placed_seq += 1
        self._placed_stamp[chosen] = self._placed_seq
        return chosen

    def _pick_cpu_multi(self, task: Task, hint: Optional[int], allowed: list[int]) -> int:
        cpus = self._cpus
        stamp = self._placed_stamp
        if task.policy is SchedPolicy.FIFO and hint is not None and hint in allowed:
            # RT wake placement is sticky: the task runs on its previous
            # CPU unless that CPU already runs another RT task (Linux
            # select_task_rq_rt).  This is why per-CPU irq-class noise
            # hits the workload even when housekeeping cores are free.
            if not cpus[hint].fifo:
                return hint
        if self._n_idle:
            idle = [c for c in allowed if not (cpus[c].fifo or cpus[c].other)]
            if idle:
                if hint is not None and hint in idle:
                    return hint
                # Prefer an idle CPU whose sibling is also idle
                # (full-speed), least-recently-used among equals.
                sibling = self._sibling
                return min([
                    (sibling[c] is not None and cpus[sibling[c]].busy(), stamp[c], c)
                    for c in idle
                ])[-1]
        # No idle CPU: least-loaded for the task's class.  Each key ends
        # in the CPU id, so no two keys tie.
        if task.policy is SchedPolicy.FIFO:
            return min([
                (len(cpus[c].fifo), len(cpus[c].other), c != hint, stamp[c], c) for c in allowed
            ])[-1]
        return min([
            (bool(cpus[c].fifo), cpus[c].weight, c != hint, stamp[c], c) for c in allowed
        ])[-1]

    @staticmethod
    def _insert_fifo(queue: list[Task], task: Task) -> None:
        # Highest priority first; FIFO order within equal priority.
        lo = 0
        for i, t in enumerate(queue):
            if t.rt_priority < task.rt_priority:
                lo = i
                break
            lo = i + 1
        queue.insert(lo, task)

    # ------------------------------------------------------------------
    # rate computation
    # ------------------------------------------------------------------
    def _update(self, cpus: Collection[int]) -> None:
        """Advance + recompute rates for ``cpus`` (and coupled CPUs).

        This is *the* simulator hot path.  Barrier arrivals mostly
        settle in :meth:`_task_done` without it, so on the sim-bound
        a64fx/minife cell it runs about 2.4k times per rep (of 12.2k
        events), nearly all for many tasks at once: region starts,
        scale changes and noise.  It trades a little readability for
        allocation-free inner loops: shares are recomputed only on
        stale CPUs and written straight into the tasks,
        :meth:`Task.advance` is inlined, topology lookups are hoisted,
        a scale change re-times the streamers outside the update in one
        :meth:`_retime_streamers` pass after phase 4's loop, and both
        stage their re-timings so they enter the heap in one
        :meth:`Engine.flush`.  Single-CPU callers pass a 1-tuple.  Every float expression
        that reaches a rate, a scale or an event time matches the
        reference implementation operation-for-operation (the running
        demand total of phase 3 only picks a branch); the
        golden-equivalence suite holds this bit-exact.
        """
        now = self.engine.now
        cpu_states = self._cpus
        sibling = self._sibling
        if self._smt:
            # Sibling speeds depend only on our busy-ness: pull a sibling
            # into the recompute set only when that flipped.
            last_busy = self._last_busy
            affected = set()
            for c in cpus:
                affected.add(c)
                sib = sibling[c]
                if sib is not None:
                    s = cpu_states[c]
                    busy = bool(s.fifo or s.other)
                    if busy != last_busy[c]:
                        last_busy[c] = busy
                        affected.add(sib)
                        cpu_states[sib].stale = True
            order = sorted(affected) if len(affected) > 1 else tuple(affected)
        else:
            order = sorted(cpus) if len(cpus) > 1 else tuple(cpus)

        # Phases 1+2 fused per CPU: integrate progress at the old rates,
        # then write each task's new raw share straight into
        # ``cpu_share`` (nothing reads a touched task's old share after
        # this).  Shares depend only on the CPU's queues, weights and
        # steal and on its sibling's busy-ness, never on the integration,
        # so fusing preserves the reference evaluation order exactly, and
        # a CPU none of those changed on (a spin transition, new work at
        # a region start) is not stale and keeps its shares.
        touched: list[Task] = []
        append = touched.append
        for c in order:
            state = cpu_states[c]
            fifo = state.fifo
            other = state.other
            for t in fifo + other if fifo else other:
                # inlined Task.advance(now)
                dt = now - t._last_update
                if dt >= 0:
                    if dt and t.rate > 0.0:
                        consumed = t.rate * dt
                        t.total_cpu_time += consumed
                        if t.pool is not None:
                            t.pool.consume(consumed)
                        elif t.work_remaining is not None:
                            t.work_remaining -= consumed
                            if t.work_remaining < 0.0:
                                t.work_remaining = 0.0
                    t._last_update = now
                append(t)
            if not state.stale:
                continue
            state.stale = False
            # raw shares: FIFO head takes the (throttled) CPU, OTHER
            # tasks split the rest by weight
            speed = 1.0 - state.steal
            sib = sibling[c]
            if sib is not None and (fifo or other):
                sstate = cpu_states[sib]
                if sstate.fifo or sstate.other:
                    speed *= SMT_FACTOR
            if fifo:
                fifo_share = RT_THROTTLE_SHARE if self.rt_throttle else 1.0
                fifo[0].cpu_share = speed * fifo_share
                for t in fifo[1:]:
                    t.cpu_share = 0.0
                speed *= 1.0 - fifo_share
            total_w = state.weight
            if total_w > 0:
                for t in other:
                    t.cpu_share = speed * t.weight / total_w
            else:
                for t in other:
                    t.cpu_share = 0.0

        # Phase 3: memory bandwidth rescale.  Demand is weighted by CPU
        # share: a task holding 65% of an SMT sibling (or starved by
        # FIFO noise) only pulls that fraction of its bandwidth, so the
        # freed bandwidth flows to the other streaming threads.
        # Compute-only updates (no streaming task anywhere, scale at
        # 1.0) skip the phase outright.
        mem_running = self._mem_running
        need_mem = mem_running or self._mem_scale != 1.0
        if not need_mem:
            for t in touched:
                if t.mem_demand > 0.0:
                    need_mem = True
                    break
        outside: Optional[list[Task]] = None
        if need_mem:
            # Keep the running total in step with membership changes,
            # counting the touched streamers.  Every streamer's
            # ``_mem_contrib`` is then its current contribution: an
            # untouched one's demand and share are those it was counted
            # with.
            total = self._mem_total
            n_touched = 0
            for t in touched:
                if t.mem_demand > 0.0 and t.cpu_share > 0.0:
                    n_touched += 1
                    contrib = t.mem_demand * t.cpu_share
                    if t.tid in mem_running:
                        total += contrib - t._mem_contrib
                    else:
                        mem_running[t.tid] = t
                        total += contrib
                    t._mem_contrib = contrib
                elif mem_running.pop(t.tid, None) is not None:
                    total -= t._mem_contrib
            # Propagating a rescale costs O(all streaming tasks).  Large
            # jumps (a region starting or draining) apply immediately; the
            # small per-completion cascade at a region's tail is coalesced
            # into one deferred rescale so it stays O(n log n) per region.
            # With more than 4 streamers and the running total's drift
            # clear of both thresholds, the estimate decides alone
            # (`_estimate_decides`); everywhere else the exact
            # insertion-order sum decides and resyncs the total.
            if not (len(mem_running) > 4 and self._estimate_decides(total)):
                total_demand = 0.0
                for t in mem_running.values():
                    total_demand += t._mem_contrib
                self._mem_total = total_demand
                new_scale = self.memory.scale_for(total_demand)
                drift = abs(new_scale - self._mem_scale) / self._mem_scale
                scale_changed = drift > 0.25 or (drift > 1e-12 and len(mem_running) <= 4)
                if (
                    drift > MEM_RESCALE_TOLERANCE
                    and not scale_changed
                    and not self._mem_rescale_pending
                ):
                    self._arm_mem_rescale()
                if scale_changed:
                    self._mem_scale = new_scale
                    # The streamers outside the affected set are re-timed
                    # after phase 4, in tid order.  Every task on an
                    # affected CPU was touched, so there are none when
                    # every streamer was (a region start), and all are
                    # outside when none was (a barrier arrival).
                    if n_touched == 0:
                        outside = sorted(mem_running.values(), key=_by_tid)
                    elif n_touched < len(mem_running):
                        cpus_in = set(order) if len(order) > 1 else order
                        outside = [t for t in mem_running.values() if t.cpu not in cpus_in]
                        outside.sort(key=_by_tid)

        # Phase 4: assign effective rates and re-time completions.
        # A completion event stays valid while the rate is unchanged
        # (it was computed from the same constant-rate trajectory), so
        # only genuinely re-rated tasks pay the heap churn.
        mem_scale = self._mem_scale
        engine = self.engine
        pools: Optional[dict[int, WorkPool]] = None
        for t in touched:
            # share * 1.0 is bit-exact, so the no-demand branch skips
            # the multiply without changing results.
            eff = t.cpu_share * mem_scale if t.mem_demand > 0.0 else t.cpu_share
            if t.speed_penalty != 1.0:
                eff *= t.speed_penalty
            rate_changed = eff != t.rate
            t.rate = eff
            if t._run_started is None and eff > 0.0:
                t._run_started = now
            pool = t.pool
            if pool is not None:
                if rate_changed:
                    if pools is None:
                        pools = {}
                    pools[id(pool)] = pool
            elif rate_changed or (t._completion_event is None and t.work_remaining is not None):
                # inlined _reschedule_task (engine.now == now throughout
                # _update, so schedule_after(wr / eff) == schedule(now + wr / eff)),
                # staged: the whole loop's re-timings enter the heap at once
                ev = t._completion_event
                wr = t.work_remaining
                if wr is not None and eff > 0.0:
                    if ev is not None:
                        engine.restage(ev, now + wr / eff)
                    else:
                        t._completion_event = engine.stage(now + wr / eff, self._task_done, t)
                elif ev is not None:
                    ev.cancel()
                    t._completion_event = None
            if (
                eff == 0.0
                and t.cpu is not None
                and t.policy is SchedPolicy.OTHER
                and not t.pinned
                and not t.spin
                and cpu_states[t.cpu].fifo
            ):
                self._arm_starvation_check(t)
        if outside is not None:
            pools = self._retime_streamers(outside, pools)
        engine.flush()
        if pools is not None:
            for pool in pools.values():
                self._reschedule_pool(pool)

        # Phase 5: idle CPUs may pull starved/shared work, which only a
        # crowded CPU holds.
        for c in order:
            state = cpu_states[c]
            if not (state.fifo or state.other) and self._n_crowded:
                self._try_pull(c)

    def _estimate_decides(self, total: float) -> bool:
        """Let the running total ``total`` decide phase 3 on its own
        when its drift sits at least ``_DRIFT_MARGIN`` clear of both 0.25
        and the tolerance: then it can only choose between "nothing" and
        "arm the deferred rescale", and the exact sum would choose the
        same.  Stores ``total`` and returns True if it decided; returns
        False, changing nothing, when the exact sum must decide.
        Callers check that more than 4 streamers remain."""
        scale = self._mem_scale
        drift = abs(self.memory.scale_for(total) - scale) / scale
        tol = MEM_RESCALE_TOLERANCE
        if not (drift <= 0.25 - _DRIFT_MARGIN and abs(drift - tol) >= _DRIFT_MARGIN):
            return False
        self._mem_total = total
        if drift > tol and not self._mem_rescale_pending:
            self._arm_mem_rescale()
        return True

    def _arm_mem_rescale(self) -> None:
        # callers check `_mem_rescale_pending` first (it is set ~95% of
        # the time on streaming workloads)
        self._mem_rescale_pending = True
        self.engine.schedule_after(MEM_RESCALE_DELAY, self._apply_mem_rescale)

    def _apply_mem_rescale(self) -> None:
        self._mem_rescale_pending = False
        # Streamers are all alive and placed: `remove` and `_migrate`
        # drop them.
        streamers = sorted(self._mem_running.values(), key=_by_tid)
        total = 0.0
        for t in streamers:
            total += t._mem_contrib
        new_scale = self.memory.scale_for(total)
        if abs(new_scale - self._mem_scale) / self._mem_scale <= 1e-12:
            return
        self._mem_scale = new_scale
        pools = self._retime_streamers(streamers, None)
        self.engine.flush()
        if pools is not None:
            for pool in pools.values():
                self._reschedule_pool(pool)

    def _retime_streamers(
        self, streamers: list[Task], pools: Optional[dict[int, WorkPool]]
    ) -> Optional[dict[int, WorkPool]]:
        """Advance, re-rate and stage ``streamers`` (tid order) after a
        change of ``_mem_scale``; returns ``pools`` with the pools of
        pool members added (created if needed).  The caller flushes.

        Each rate is phase 4's for a streamer, float for float.  Phase 4
        would also find it changed: the old rate is ``cpu_share`` times
        the old scale (times ``speed_penalty``), and the scales differ
        by more than 1e-12 relative, far above rounding.  A streamer has
        already run at a positive rate, so ``_run_started`` is set.
        """
        engine = self.engine
        restage = engine.restage
        now = engine.now
        scale = self._mem_scale
        for t in streamers:
            pool = t.pool
            wr = t.work_remaining
            # inlined Task.advance(now)
            dt = now - t._last_update
            if dt >= 0:
                rate = t.rate
                if dt and rate > 0.0:
                    consumed = rate * dt
                    t.total_cpu_time += consumed
                    if pool is not None:
                        pool.consume(consumed)
                    elif wr is not None:
                        wr -= consumed
                        if wr < 0.0:
                            wr = 0.0
                        t.work_remaining = wr
                t._last_update = now
            rate = t.cpu_share * scale
            if t.speed_penalty != 1.0:
                rate *= t.speed_penalty
            t.rate = rate
            if pool is not None:
                if pools is None:
                    pools = {}
                pools[id(pool)] = pool
                continue
            ev = t._completion_event
            if wr is not None and rate > 0.0:
                if ev is not None:
                    restage(ev, now + wr / rate)
                else:
                    t._completion_event = engine.stage(now + wr / rate, self._task_done, t)
            elif ev is not None:
                ev.cancel()
                t._completion_event = None
        return pools

    def _drop_streamer(self, task: Task) -> None:
        if self._mem_running.pop(task.tid, None) is not None:
            self._mem_total -= task._mem_contrib

    # ------------------------------------------------------------------
    # completion events
    # ------------------------------------------------------------------
    def _cancel_completion(self, owner: Task | WorkPool) -> None:
        if owner._completion_event is not None:
            owner._completion_event.cancel()
            owner._completion_event = None

    def _reschedule_task(self, task: Task) -> None:
        ttc = task.time_to_completion()
        self._retime(task, None if ttc is None else self.engine.now + ttc, self._task_done)

    def _retime(self, owner: Task | WorkPool, time: Optional[float], fn: Callable) -> None:
        """Point ``owner``'s completion event at ``time`` (``fn(owner)``),
        or drop it for ``None``; a pending event is moved in place."""
        ev = owner._completion_event
        if time is None:
            self._cancel_completion(owner)
        elif ev is not None:
            self.engine.reschedule(ev, time)
        else:
            owner._completion_event = self.engine.schedule(time, fn, owner)

    def _task_done(self, task: Task) -> None:
        """Completion event of a task's current work.

        On the sim-bound a64fx/minife cell this fires about 11.7k times
        per rep, nearly all of them team threads reaching a barrier;
        about 9.7k of those settle inline (the fast path below) and the
        rest go through :meth:`_update`.
        """
        task._completion_event = None
        if not task.alive or task.cpu is None:
            return
        now = self.engine.now
        # inlined Task.advance(now)
        dt = now - task._last_update
        if dt >= 0:
            if dt and task.rate > 0.0:
                consumed = task.rate * dt
                task.total_cpu_time += consumed
                if task.pool is not None:
                    task.pool.consume(consumed)
                elif task.work_remaining is not None:
                    task.work_remaining -= consumed
                    if task.work_remaining < 0.0:
                        task.work_remaining = 0.0
            task._last_update = now
        if task.work_remaining is not None and task.work_remaining > _DONE_EPS:
            self._reschedule_task(task)
            return
        if task.persistent:
            # Team threads stay on their CPU, busy-waiting at the
            # barrier (OMP_WAIT_POLICY=active behaviour): inlined
            # Task.to_spin().
            task.work_remaining = None
            task.mem_demand = 0.0
            task.pool = None
            task.spin = True
            # Barrier-arrival fast path: alone on a CPU whose shares are
            # current, the thread's spin rate is its share, and with more
            # than 4 streamers left the running total decides phase 3
            # alone when clear of both thresholds.  That is all `_update`
            # would do for it, float for float.
            state = self._cpus[task.cpu]
            mem_running = self._mem_running
            if (
                not state.stale
                and not state.fifo
                and len(state.other) == 1
                and len(mem_running) > 5
                and task.tid in mem_running
                and self._estimate_decides(self._mem_total - task._mem_contrib)
            ):
                del mem_running[task.tid]
                rate = task.cpu_share
                if task.speed_penalty != 1.0:
                    rate *= task.speed_penalty
                task.rate = rate
                if task._run_started is None and rate > 0.0:
                    task._run_started = now
            else:
                self._update((task.cpu,))
            if task.on_complete is not None:
                task.on_complete(task)
            return
        task.alive = False
        self.remove(task)
        if task.on_complete is not None:
            task.on_complete(task)

    def _reschedule_pool(self, pool: WorkPool) -> None:
        # Bring the pool's consumed-work accounting up to date: members
        # on unchanged CPUs have run at constant rates since their last
        # integration, so advancing them here is exact.
        now = self.engine.now
        for t in pool.members:
            t.advance(now)
        if pool.work_remaining <= _DONE_EPS and pool.members:
            pool.work_remaining = 0.0
            self._cancel_completion(pool)
            if pool.on_drained is not None:
                self.engine.schedule(now, self._pool_done, pool)
            return
        ttd = pool.time_to_drain()
        self._retime(pool, None if ttd is None else now + ttd, self._pool_done)

    def _pool_done(self, pool: WorkPool) -> None:
        pool._completion_event = None
        now = self.engine.now
        for t in pool.members:
            t.advance(now)
        if pool.work_remaining > _DONE_EPS:
            self._reschedule_pool(pool)
            return
        pool.work_remaining = 0.0
        if pool.on_drained is not None:
            cb = pool.on_drained
            pool.on_drained = None  # fire exactly once
            cb(pool)

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def _arm_starvation_check(self, task: Task) -> None:
        if task.tid in self._starvation_pending:
            return
        last = self._last_migration.get(task.tid, -1e18)
        if self.engine.now - last < MIN_MIGRATION_INTERVAL:
            return
        self._starvation_pending.add(task.tid)
        self.engine.schedule_after(STARVATION_DELAY, self._starvation_check, task)

    def _starvation_check(self, task: Task) -> None:
        self._starvation_pending.discard(task.tid)
        if not task.alive or task.cpu is None or task.rate > 0.0 or task.pinned:
            self._starved_since.pop(task.tid, None)
            return
        now = self.engine.now
        started = self._starved_since.setdefault(task.tid, now - STARVATION_DELAY)
        target = self._starvation_target(task, now - started)
        if target is None:
            # Still starved and nowhere to go yet: keep checking.
            self._arm_starvation_check(task)
            return
        self._starved_since.pop(task.tid, None)
        self._migrate(task, target)

    def _starvation_target(self, task: Task, starved_for: float) -> Optional[int]:
        """Where a task starved for ``starved_for`` seconds migrates to,
        or ``None`` to keep waiting."""
        # The task's own CPU is busy with it, so with no idle CPU there
        # is no idle target.
        if self._n_idle:
            idle_targets = [
                c
                for c in self._allowed(task)
                if c != task.cpu and not self._cpus[c].busy()
            ]
            if idle_targets:
                # Fast path: wake/newidle balancing finds idle CPUs quickly.
                return min(idle_targets, key=lambda c: (self._placed_stamp[c], c))
        if starved_for >= SHARED_MIGRATION_DELAY:
            # Slow path: periodic balance shoves the starved task onto a
            # busy CPU to timeshare.
            return self._best_migration_target(task)
        return None

    def _best_migration_target(self, task: Task) -> Optional[int]:
        cur = task.cpu
        home_node = self._numa[cur] if cur is not None else 0
        best: Optional[int] = None
        best_key: Optional[tuple] = None
        for c in self._allowed(task):
            if c == cur:
                continue
            state = self._cpus[c]
            if state.fifo:
                continue
            speed = self._cpu_speed_if_joined(c)
            total_w = state.weight + task.weight
            share = speed * task.weight / total_w
            # Prefer staying in the home NUMA node unless a remote CPU
            # offers a substantially better share (CFS's NUMA-aware
            # balancing reluctance).
            remote = self._numa[c] != home_node
            key = (-(share * (0.7 if remote else 1.0)), c)
            if share > 1e-12 and (best_key is None or key < best_key):
                best_key = key
                best = c
        return best

    def _cpu_speed_if_joined(self, cpu: int) -> float:
        state = self._cpus[cpu]
        speed = 1.0 - state.steal
        sib = self._sibling[cpu]
        if sib is not None and self._cpus[sib].busy():
            speed *= SMT_FACTOR
        return speed

    def _migrate(self, task: Task, target: int) -> None:
        now = self.engine.now
        self.migrations += 1
        self._last_migration[task.tid] = now
        src = task.cpu
        assert src is not None
        task.advance(now)
        self._dequeue(task, src)
        task.cpu = None
        task.rate = 0.0
        # Mid-flight tasks are off-CPU: no bandwidth demand until
        # re-placement (mirrors remove()).
        self._drop_streamer(task)
        self._cancel_completion(task)
        self._update((src,))
        # The migration cost is paid as off-CPU latency (cache refill,
        # runqueue hop); crossing NUMA nodes costs far more.
        cost = NUMA_MIGRATION_COST if self._numa[src] != self._numa[target] else MIGRATION_COST
        self._migration_origin[task.tid] = src
        self.engine.schedule_after(cost, self._finish_migration, task, target)

    def _dequeue(self, task: Task, cpu: int) -> None:
        """Take ``task`` off ``cpu``'s queue, keeping the idle and
        crowded counts and the queue's weight total current."""
        state = self._cpus[cpu]
        state.stale = True
        fifo = state.fifo
        other = state.other
        crowded = bool(fifo) or len(other) > 1
        if task.policy is SchedPolicy.FIFO:
            fifo.remove(task)
        else:
            other.remove(task)
            total = 0.0
            for t in other:
                total += t.weight
            state.weight = total
        if not (fifo or other):
            self._n_idle += 1
        if crowded and not (fifo or len(other) > 1):
            self._n_crowded -= 1

    def _finish_migration(self, task: Task, target: int) -> None:
        if not task.alive or task.cpu is not None:
            return
        # Target may have changed state during the hop; re-pick if it
        # now runs FIFO noise.
        if self._cpus[target].fifo:
            retarget = self._best_migration_target(task)
            if retarget is not None:
                target = retarget
        # Cold caches after the hop; crossing a NUMA boundary leaves
        # the task's working set in remote memory for the rest of its
        # current work — the persistent cost that makes thread pinning
        # pay off on large multi-socket systems (§6).
        origin = self._migration_origin.pop(task.tid, None)
        if origin is not None and task.cpu is None:
            if self._numa[origin] != self._numa[target]:
                task.speed_penalty = min(task.speed_penalty, NUMA_REMOTE_SPEED)
            else:
                task.speed_penalty = min(task.speed_penalty, POST_MIGRATION_SPEED)
        self.submit(task, cpu=target)

    def _try_pull(self, cpu: int) -> None:
        """An idle CPU pulls the neediest migratable OTHER task."""
        best: Optional[Task] = None
        best_key: Optional[tuple] = None
        now = self.engine.now
        last_migration = self._last_migration
        min_interval = MIN_MIGRATION_INTERVAL
        for c, state in enumerate(self._cpus):
            if c == cpu:
                continue
            other = state.other
            if not (state.fifo or len(other) > 1):  # not crowded
                continue
            for t in other:
                if t.pinned or t.spin:
                    continue
                if t.affinity is not None and cpu not in t.affinity:
                    continue
                if now - last_migration.get(t.tid, -1e18) < min_interval:
                    continue
                key = (t.rate, t.tid)  # most starved first
                if best_key is None or key < best_key:
                    best_key = key
                    best = t
        if best is not None:
            self._migrate(best, cpu)

    # ------------------------------------------------------------------
    # tracing hook
    # ------------------------------------------------------------------
    def _emit_noise_interval(self, task: Task) -> None:
        if self.on_noise_interval is None or not task.is_noise():
            return
        if task._run_started is None or task.total_cpu_time <= 0.0:
            return
        if task.cpu is None:
            return
        self.on_noise_interval(task, task.cpu, task._run_started, task.total_cpu_time)
        task._run_started = None
        task.total_cpu_time = 0.0
