"""Heap-scheduled discrete-event kernel shared by every serving platform.

The three fleet simulators (:mod:`repro.serving.cluster`,
:mod:`repro.serving.generative_cluster`, :mod:`repro.serving.disagg`) used to
advance time the same hand-rolled way: at every timestamp they re-scanned
every replica, collected candidate wake times into a list, filtered the
finite future ones and set ``now = min(future)``.  That is O(replicas)
bookkeeping per visited timestamp even when nothing changed, and the three
copies had to be kept phase-for-phase in sync by hand.

This module factors the shared machinery into a small discrete-event kernel
in the style of event-driven flow-level network simulators:

:class:`EventQueue`
    A binary heap of :class:`Event` records ordered by ``(time_ms, seq)``.
    The monotonically increasing sequence number makes same-time events pop
    in registration order, so the schedule is fully deterministic.
    Cancellation is lazy (an ``Event`` is flagged and skipped when it
    surfaces), which keeps ``cancel`` O(1).

:class:`Clock`
    The shared simulation clock.  Only :meth:`SimPlatform.drive` advances it.

:class:`SimPlatform`
    The pass/advance skeleton every fleet runner runs on, plus the arrival
    cursor every runner shares.  A subclass implements

    * :meth:`step` — one fixpoint pass over the phases of its control plane
      (admissions, autoscaling, serving, retirement) at the current
      timestamp, returning whether anything progressed;
    * :meth:`on_event` — react to one due event of its own kinds (typically
      by waking the replica the event belongs to), deferring the pool
      lifecycle kinds (``BOOT``, ``CRASH``, ``RECOVER``) to the base class;
    * :meth:`done` — the run's termination condition;
    * :meth:`next_external_ms` — only when the heap and the arrival cursor
      miss an event source (the disaggregated handoff-queue head).

    :meth:`drive` then repeats the seed loops' exact visiting discipline:
    run ``step`` passes at the current timestamp until a pass makes no
    progress (checking ``done`` before every pass, exactly like the seed
    loops re-checked their ``while`` condition after every ``continue``),
    advance the clock to the earliest future event, fire everything due at
    the new timestamp, and repeat.  Because the heap holds precisely the
    wake times the seed loops used to collect — batch completions, policy
    timers, replica boots, decode-slot frees — the kernel visits the same
    timestamps in the same order and reproduces the seed metrics
    bit-for-bit, while doing O(changed replicas) work per visit instead of
    O(fleet).

:class:`PoolRuntime`
    One replica pool's control plane; a runner builds one per pool and
    keeps only what is its own (salvage and exit gating, slot claims and KV
    eviction, prefill batches and the handoff heap).  The runtime owns the
    pool's balancer, autoscaler band, crash stock and dirty list and does,
    the same way for every pool type:

    * ``route`` — balancer choice, index check, enqueue, trace annotation,
      wake;
    * ``scale`` / ``boot`` — the autoscaler phase and scale-out boots;
    * ``crash`` / ``recover`` — oldest-active victim, last-replica guard,
      drain, orphan requeue through ``route``, replacement boot (counted
      on the fleet, whose ``collect`` reports them in the pool's
      :class:`~repro.serving.metrics.PoolMetrics`);
    * ``sample_gauges`` — queue depth, busy count, active size, KV bytes.

    Only per-pool-type facts stay outside: the entry class (how an item
    joins its queue, how busy it counts) and the replica factory the runner
    passes, used for scale-out and for rebuilding a crashed entry's
    hardware on recovery.

Event ordering guarantees
-------------------------
* Events fire strictly in ``(time_ms, seq)`` order; ties in time fire in
  registration order.
* All events due at a timestamp (within the loops' shared ``1e-9`` epsilon)
  fire *before* the first ``step`` pass at that timestamp — the analogue of
  the seed loops' "phase 0" boot handling.
* ``step`` passes repeat at one timestamp until a pass reports no progress;
  state changes made by a pass are visible to the next pass at the same
  timestamp (the seed loops' ``continue``-on-progress fixpoint).
* A timer whose condition changed (queue grew, batch dispatched) must be
  cancelled or re-armed by the subclass; the kernel never fires a cancelled
  event, so the set of visited timestamps stays exactly the seed set.

Timer discipline required of batching policies: a policy that returns
``(no batch, wake_up)`` is re-consulted only when its replica's queue
changes or ``wake_up`` arrives.  Both shipped policies satisfy this
(``tfserve`` wakes at ``oldest.arrival + timeout``, a pure function of the
queue; ``clockwork`` never waits), as must any future ``select_batch``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from repro.obs.recorder import NULL_RECORDER
from repro.tenancy import tenant_backlog

__all__ = ["Event", "EventQueue", "Clock", "SimPlatform", "PoolRuntime",
           "BOOT", "CRASH", "RECOVER", "RUNNER_KINDS"]


class Event:
    """One scheduled occurrence: ``(time_ms, seq)``-ordered, lazily cancellable.

    ``kind`` is a small subclass-defined integer tag (boot, completion,
    timer, slot-free, ...) and ``payload`` whatever the subclass needs to
    route the event — usually the replica entry it should wake.
    """

    __slots__ = ("time_ms", "seq", "kind", "payload", "cancelled")

    def __init__(self, time_ms: float, seq: int, kind: int, payload: Any) -> None:
        self.time_ms = time_ms
        self.seq = seq
        self.kind = kind
        self.payload = payload
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        if self.time_ms != other.time_ms:
            return self.time_ms < other.time_ms
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time_ms}, seq={self.seq}, kind={self.kind}{flag})"


class EventQueue:
    """Deterministic binary-heap schedule of :class:`Event` records.

    Cancellation is lazy — O(1) — but no longer unbounded: policies that
    re-arm a timer on every queue change (tfserve batching, autoscaler
    probes) can cancel far more events than they ever let fire, and on long
    traces the dead records would dominate the heap and every ``heappush``
    would pay their log factor.  :meth:`cancel` therefore counts dead
    records and opportunistically compacts the heap — drop cancelled
    entries, ``heapify`` the survivors — once they exceed half the heap.
    Compaction never touches event identity: the surviving records keep
    their ``(time_ms, seq)`` keys, and a heap of them pops in exactly the
    same total order as the uncompacted heap, so schedules are unchanged
    bit-for-bit.
    """

    __slots__ = ("_heap", "_seq", "_cancelled", "fired", "cancelled_total",
                 "compactions", "peak_size")

    #: Never bother compacting heaps smaller than this: rebuild cost would
    #: rival the lazy-skip cost it saves.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._cancelled = 0
        self.fired = 0
        self.cancelled_total = 0
        self.compactions = 0
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time_ms: float, kind: int, payload: Any = None) -> Event:
        """Register an event; returns the handle used for cancellation."""
        event = Event(time_ms, self._seq, kind, payload)
        self._seq += 1
        heappush(self._heap, event)
        if len(self._heap) > self.peak_size:
            self.peak_size = len(self._heap)
        return event

    def cancel(self, event: Event) -> None:
        """Mark an event dead; it is skipped when it reaches the heap top.

        Compacts the heap when cancelled records exceed half of it (and the
        heap is big enough to matter), bounding heap growth under heavy
        timer re-arming at ~2× the live event count.
        """
        if event.cancelled:
            return
        event.cancelled = True
        self._cancelled += 1
        self.cancelled_total += 1
        if self._cancelled >= self.COMPACT_MIN \
                and self._cancelled * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled records and re-heapify the survivors in place."""
        self._heap = [e for e in self._heap if not e.cancelled]
        heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def next_time(self) -> Optional[float]:
        """Earliest pending event time, or ``None`` when the heap is empty.

        Cancelled records surfacing at the top are discarded here so the
        advance decision never sees a dead event.
        """
        heap = self._heap
        while heap:
            top = heap[0]
            if top.cancelled:
                heappop(heap)
                if self._cancelled:
                    self._cancelled -= 1
            else:
                return top.time_ms
        return None

    def pop_due(self, now_ms: float) -> List[Event]:
        """Pop every live event due at ``now_ms`` (within the shared epsilon)."""
        due: List[Event] = []
        heap = self._heap
        limit = now_ms + 1e-9
        while heap and heap[0].time_ms <= limit:
            event = heappop(heap)
            if not event.cancelled:
                due.append(event)
            elif self._cancelled:
                self._cancelled -= 1
        self.fired += len(due)
        return due

    def stats(self) -> Dict[str, int]:
        """Lifetime schedule counters for ``RunResult.details['kernel']``.

        ``pushed`` is every event ever registered, ``fired`` the ones that
        actually ran, ``cancelled`` the ones killed before firing,
        ``compactions`` how often the heap was rebuilt to shed dead records,
        and ``peak_heap`` the largest live+dead heap ever held.
        """
        return {
            "pushed": self._seq,
            "fired": self.fired,
            "cancelled": self.cancelled_total,
            "compactions": self.compactions,
            "peak_heap": self.peak_size,
        }


class Clock:
    """The shared simulation clock; advanced only by :meth:`SimPlatform.drive`."""

    __slots__ = ("now_ms",)

    def __init__(self, start_ms: float = 0.0) -> None:
        self.now_ms = start_ms


#: Pool lifecycle event kinds, handled by :meth:`SimPlatform.on_event`:
#: the payload is the :class:`PoolRuntime` (for ``CRASH``, a
#: ``(pool, fault)`` pair).  Runner-specific kinds start at ``RUNNER_KINDS``.
BOOT, CRASH, RECOVER, RUNNER_KINDS = 0, 1, 2, 3


class SimPlatform:
    """Base of the kernel-scheduled fleet runners: clock, heap, arrival
    cursor, replica pools and the drive loop.

    Subclass responsibilities:

    * build one :class:`PoolRuntime` per replica pool (it registers itself
      in ``pools``) and route through it, so routing, scaling, crashes,
      recoveries, boots and gauges behave the same in every runner;
    * push its own event kinds (from ``RUNNER_KINDS`` up) when a future
      occurrence is scheduled, cancel them when their condition changes,
      and handle them in :meth:`on_event`, deferring the rest to this class;
    * wake a member through its pool so :meth:`step` touches only the
      replicas whose state changed since the last pass;
    * keep :meth:`step`'s phase order identical to the seed loop it ports.
    """

    def __init__(self, start_ms: float, pending: List[Any]) -> None:
        self.clock = Clock(start_ms)
        self.events = EventQueue()
        self.pools: List[PoolRuntime] = []
        #: The arrival stream, sorted by arrival; ``next_arrival`` is the
        #: cursor of the first item not yet admitted.
        self.pending = pending
        self.arrival_times = [item.arrival_ms for item in pending]
        self.num_items = len(pending)
        self.next_arrival = 0
        #: Observability hooks; the shared no-op unless a runner installs a
        #: live :class:`~repro.obs.recorder.TraceRecorder`.
        self.obs = NULL_RECORDER
        self._gauge_next_ms: Optional[float] = None
        self._gauge_interval_ms: Optional[float] = None

    # ------------------------------------------------------------- arrivals
    def admit_arrivals(self, pool: "PoolRuntime", now_ms: float) -> None:
        """Route every arrival due by ``now_ms`` into ``pool`` and tell its
        autoscaler how many were admitted."""
        arrivals = self.arrival_times
        num_items = self.num_items
        cursor = first = self.next_arrival
        while cursor < num_items and arrivals[cursor] <= now_ms + 1e-9:
            pool.route(self.pending[cursor], now_ms)
            cursor += 1
        if cursor > first:
            self.next_arrival = cursor
            pool.autoscaler.observe_admitted(cursor - first, now_ms)

    def next_external_ms(self, now_ms: float) -> Optional[float]:
        """Next event the heap does not track: the arrival cursor (runners
        with a handoff queue add its head)."""
        if self.next_arrival < self.num_items:
            return self.arrival_times[self.next_arrival]
        return None

    # --------------------------------------------------------------- faults
    def schedule_faults(self, faults: Any, start_ms: float) -> None:
        """Register each fault's crash on its pool.

        A single-pool run takes every fault; with several pools a fault
        targets the pool named by its ``pool`` tag.  A crash scheduled
        before the first arrival fires with it.
        """
        if faults is None:
            return
        pools = self.pools
        for fault in faults:
            pool = pools[0] if len(pools) == 1 else \
                next(p for p in pools if p.name == fault.pool)
            self.events.push(max(fault.crash_ms, start_ms), CRASH,
                             (pool, fault))

    # ------------------------------------------------- subclass contract
    def step(self, now_ms: float) -> bool:
        """One fixpoint pass at ``now_ms``; return whether anything progressed."""
        raise NotImplementedError

    def on_event(self, event: Event) -> None:
        """React to one due event before the passes at its timestamp run.

        Handles the pool lifecycle kinds; runners override it for their own
        kinds and defer the rest here.
        """
        kind = event.kind
        now = self.clock.now_ms
        if kind == BOOT:
            event.payload.boot(event, now)
        elif kind == CRASH:
            pool, fault = event.payload
            pool.crash(fault, now)
        else:
            event.payload.recover(now)

    def done(self, now_ms: float) -> bool:
        """Termination condition, checked before every pass (seed parity)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ gauges
    def install_obs(self, obs: Any, start_ms: float) -> None:
        """Attach a recorder and arm the periodic fleet-gauge sampler.

        Sampling is driven from :meth:`drive`'s time-advance path, *not* by
        heap events: ticks between the old and new timestamp invoke
        :meth:`sample_gauges` without adding events or extra ``step``
        passes, so the simulated trajectory — and therefore every metric —
        is bit-identical whether observability is on or off.
        """
        self.obs = obs
        interval = obs.gauge_interval_ms
        if obs.enabled and interval is not None:
            self._gauge_interval_ms = float(interval)
            self._gauge_next_ms = start_ms + float(interval)

    def sample_gauges(self, now_ms: float) -> None:
        """Emit one gauge sample set: each pool's series, then its
        per-tenant backlog (runners with a handoff queue override this)."""
        for pool in self.pools:
            pool.sample_gauges(now_ms)
            self.sample_tenant_backlog(now_ms, [pool], pool.name)

    def sample_tenant_backlog(self, now_ms: float, pools: List["PoolRuntime"],
                              pool_tag: Optional[str] = None) -> None:
        """Emit the queued items of ``pools`` per tenant (tenancy runs only)."""
        tenants = pools[0].tenants
        if tenants is None:
            return
        backlog = tenant_backlog(
            (item.request_id for pool in pools for entry in pool.serving
             for item in entry.queue), tenants.tenant_of)
        for tenant, count in backlog.items():
            self.obs.gauge(now_ms, "tenant_backlog", count, pool=pool_tag,
                           tenant=tenant)

    def _run_gauges(self, target_ms: float) -> None:
        tick = self._gauge_next_ms
        interval = self._gauge_interval_ms
        while tick is not None and tick <= target_ms:
            self.sample_gauges(tick)
            tick += interval
        self._gauge_next_ms = tick

    # ------------------------------------------------------------------ drive
    def drive(self) -> None:
        """Run the simulation to completion.

        Mirrors the seed loops exactly: fixpoint passes at each timestamp
        (``done`` re-checked before every pass), then one clock advance to
        the earliest of the heap's next event and the external candidate,
        firing everything due at the new time before the next pass.
        """
        clock = self.clock
        events = self.events
        step = self.step
        done = self.done
        while True:
            now = clock.now_ms
            while True:
                if done(now):
                    return
                if not step(now):
                    break
            target = events.next_time()
            external = self.next_external_ms(now)
            if external is not None and (target is None or external < target):
                target = external
            if target is None:
                return  # nothing can happen anymore
            if self._gauge_next_ms is not None and self._gauge_next_ms <= target:
                self._run_gauges(target)
            clock.now_ms = target
            for event in events.pop_due(target):
                self.on_event(event)


def _replica_id(entry: Any) -> int:
    return entry.replica_id


def _negative_replica_id(entry: Any) -> int:
    return -entry.replica_id


class PoolRuntime:
    """The control plane of one replica pool, shared by every fleet runner.

    Owns the pool's balancer, autoscaler band, crash stock and dirty list,
    and keeps two membership views live instead of rebuilding them at
    every timestamp (membership only changes on boot, drain and retire):
    ``serving`` (entries order, ACTIVE + DRAINING) and ``active`` (entries
    order), the list handed straight to the balancer and the autoscaler —
    every entry is its own resource view
    (:class:`~repro.serving.fleet.ReplicaView`), so a balancer's answer is a
    position in ``active``.  ``boots`` holds the in-flight scale-out boot
    events and ``draining`` counts members awaiting retirement so the
    retire scan can be skipped entirely for the common static-fleet case.

    Only per-pool-type facts stay outside, on the entry class:

    * ``entry.queue`` — the list of waiting items;
    * ``entry.enqueue(item, tenants)`` — how an item joins that queue;
    * ``entry.busy(now_ms)`` — how busy the replica counts, emitted under
      the class's ``BUSY_GAUGE`` name;
    * ``entry.kv`` — its KV-cache accountant, or ``None``.

    ``factory(now_ms, crashed)`` brings one member online, already
    registered in ``fleet``: scale-out hardware when ``crashed`` is
    ``None``, otherwise a rebuild of the crashed entry's hardware.
    """

    __slots__ = ("sim", "fleet", "balancer", "autoscaler", "min_replicas",
                 "max_replicas", "factory", "tenants", "name", "serving",
                 "active", "boots", "draining", "dirty", "crash_stock",
                 "static", "last_desired", "_busy_gauge", "_label")

    def __init__(self, sim: "SimPlatform", fleet: Any, balancer: Any,
                 autoscaler: Any, min_replicas: int, max_replicas: int,
                 factory: Callable[..., Any], tenants: Any = None) -> None:
        self.sim = sim
        self.fleet = fleet
        self.balancer = balancer
        self.autoscaler = autoscaler
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.factory = factory
        #: The run's tenant runtime (``None`` when single-tenant).
        self.tenants = tenants
        #: Pool label on emitted gauges ("serve", "prefill", "decode").
        self.name = fleet.obs_pool
        self._label = "" if self.name == "serve" else f"{self.name} "
        self.serving: List[Any] = list(fleet.entries)
        self._busy_gauge = type(self.serving[0]).BUSY_GAUGE
        self.active: List[Any] = []
        self.boots: List[Event] = []
        self.draining = 0
        self.dirty: List[Any] = []
        #: Crashed entries awaiting recovery, oldest first.
        self.crash_stock: List[Any] = []
        #: Last autoscaler target emitted as a gauge (decision de-dup).
        self.last_desired: Optional[int] = None
        self.refresh_active()
        #: With the exact ``FixedAutoscaler`` policy (stateless, always
        #: proposing the current size) and a starting fleet inside the band,
        #: every evaluation is a no-op, so :meth:`scale` skips the consult.
        from repro.serving.autoscaler import FixedAutoscaler
        self.static = (type(autoscaler) is FixedAutoscaler
                       and min_replicas <= len(self.active) <= max_replicas)
        sim.pools.append(self)

    # ------------------------------------------------------------ membership
    def refresh_active(self) -> None:
        self.active = [e for e in self.serving if e.status == "active"]

    def add(self, entry: Any) -> None:
        """Record a freshly booted member (already registered in the fleet)."""
        self.serving.append(entry)
        self.refresh_active()

    def drain(self, entry: Any, now_ms: float) -> None:
        """Stop dispatching to ``entry``; call :meth:`refresh_active` after."""
        self.fleet.drain(entry, now_ms)
        self.draining += 1

    def retire_idle(self, now_ms: float) -> None:
        """Targeted version of ``BaseFleet.retire_idle`` over the live view."""
        if not self.draining:
            return
        removed = False
        for entry in self.serving:
            if entry.status == "draining" and entry.is_idle(now_ms):
                entry.status = "retired"
                entry.retired_ms = now_ms
                self.draining -= 1
                removed = True
        if removed:
            self.serving = [e for e in self.serving if e.status != "retired"]

    # ----------------------------------------------------------------- dirty
    def wake(self, entry: Any) -> None:
        """Mark a member for re-evaluation in the next ``step`` pass."""
        if not entry._kdirty:
            entry._kdirty = True
            self.dirty.append(entry)

    def drain_dirty(self) -> List[Any]:
        """Take the current dirty set, in stable replica-id order.

        Entries woken *during* the returned batch's processing land in the
        next pass's set — mirroring how a seed-loop pass only acted on state
        as of its start and re-ran on progress.
        """
        todo = self.dirty
        if not todo:
            return todo
        self.dirty = []
        if len(todo) > 1:
            todo.sort(key=_replica_id)
        for entry in todo:
            entry._kdirty = False
        return todo

    # --------------------------------------------------------------- routing
    def route(self, item: Any, now_ms: float, requeued: bool = False) -> Any:
        """Place ``item`` on the member the balancer picks, and wake it.

        A first placement counts as a dispatch and tags the item's tenant;
        a crash requeue (``requeued=True``) is annotated as such instead.
        """
        active = self.active
        balancer = self.balancer
        index = int(balancer.choose(item, active, now_ms))
        if not 0 <= index < len(active):
            raise ValueError(f"balancer {balancer.name!r} chose "
                             f"{self._label}replica {index} of {len(active)}")
        entry = active[index]
        tenants = self.tenants
        entry.enqueue(item, tenants)
        obs = self.sim.obs
        if requeued:
            if obs.enabled:
                obs.annotate(item.request_id, requeued=True)
        else:
            entry.dispatched += 1
            if obs.enabled and tenants is not None:
                obs.annotate(item.request_id,
                             tenant=tenants.tenant_of.get(item.request_id))
        self.wake(entry)
        return entry

    # --------------------------------------------------------------- scaling
    def scale(self, now_ms: float) -> None:
        """One autoscaler evaluation, the seed loops' "phase 2".

        ``desired`` targets the number of ACTIVE replicas; boots already in
        flight keep provisioning unless the policy asks to shrink below the
        current active set (a "hold" during a boot is not a scale-in).
        Scale-out registers one ``BOOT`` event per new replica; scale-in
        cancels pending boots outright and drains the newest active
        replicas down to the target.
        """
        if self.static:
            return
        autoscaler = self.autoscaler
        desired = int(autoscaler.desired_replicas(now_ms, self.active))
        desired = max(self.min_replicas, min(self.max_replicas, desired))
        obs = self.sim.obs
        if obs.enabled and desired != self.last_desired:
            # Decision series: one point per *change* of the clamped target,
            # so the gauge reads as the autoscaler's step function, not a
            # per-pass heartbeat.
            obs.gauge(now_ms, "autoscaler_target", desired, pool=self.name)
            self.last_desired = desired
        active = self.active
        events = self.sim.events
        provisioned = len(active) + len(self.boots)
        if desired > provisioned:
            delay = max(float(autoscaler.provision_delay_ms), 1e-6)
            for _ in range(desired - provisioned):
                self.boots.append(events.push(now_ms + delay, BOOT, self))
        elif desired < len(active):
            for event in self.boots:
                events.cancel(event)
            self.boots.clear()
            for entry in sorted(active,
                                key=_negative_replica_id)[:len(active) - desired]:
                self.drain(entry, now_ms)
            self.refresh_active()

    def boot(self, event: Event, now_ms: float) -> None:
        """A scale-out boot completed: bring the new member online."""
        self.boots.remove(event)
        self.add(self.factory(now_ms, None))

    # ---------------------------------------------------------------- faults
    def crash(self, fault: Any, now_ms: float) -> None:
        """Force-retire the oldest active member; requeue its queued work.

        Its in-flight work is salvaged: it finishes, and the member retires
        once idle.  Queued items requeue to the survivors through the
        balancer, and the crashed hardware boots back ``down_ms`` later (the
        outage subsumes provisioning).  A crash that would empty the pool is
        skipped: the last replica never dies, so conservation holds by
        construction.
        """
        if len(self.active) < 2:
            return
        victim = min(self.active, key=_replica_id)
        self.drain(victim, now_ms)
        self.refresh_active()
        orphans = victim.queue
        victim.queue = []
        fleet = self.fleet
        fleet.crashes += 1
        self.crash_stock.append(victim)
        self.sim.events.push(now_ms + fault.down_ms, RECOVER, self)
        self.wake(victim)  # retire once its salvaged work finishes
        for item in orphans:
            self.route(item, now_ms, requeued=True)
        fleet.requeued += len(orphans)

    def recover(self, now_ms: float) -> None:
        """Boot a replacement for the oldest still-unrecovered crash."""
        self.add(self.factory(now_ms, self.crash_stock.pop(0)))
        self.fleet.recoveries += 1

    # ---------------------------------------------------------------- gauges
    def sample_gauges(self, now_ms: float) -> None:
        """Emit the pool's queue depth, busy count, active size and (when a
        cache model is on) resident KV bytes."""
        depth = 0
        busy = 0
        kv_bytes = 0.0
        kv_any = False
        for entry in self.serving:
            depth += len(entry.queue)
            busy += entry.busy(now_ms)
            kv = entry.kv
            if kv is not None:
                kv_any = True
                kv_bytes += kv.used_bytes()
        obs = self.sim.obs
        name = self.name
        obs.gauge(now_ms, "queue_depth", depth, pool=name)
        obs.gauge(now_ms, self._busy_gauge, busy, pool=name)
        obs.gauge(now_ms, "active_replicas", len(self.active), pool=name)
        if kv_any:
            obs.gauge(now_ms, "kv_used_bytes", kv_bytes, pool=name)
