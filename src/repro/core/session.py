"""Session: wires devices, manager, and policy into a usable runtime.

Two layers (docs/architecture.md, "Multi-tenant runtime"):

* :class:`SharedRuntime` owns the *mechanism*: preallocated heaps (one per
  device), the shared virtual clock, the copy engine, the
  :class:`DataManager`, the metrics registry, and the tracer. There is one
  per memory system, however many workloads run on it.
* :class:`Session` is a lightweight per-tenant *view* over a runtime: one
  bound :class:`Policy`, a tenant-prefixed object namespace, and an optional
  DRAM quota. Applications create arrays through it and access them inside
  ``kernel(...)`` scopes, which implement the paper's kernel programming
  model: hints fire before the kernel, operands are resolved to their
  primary regions exactly once, pinned for the kernel's duration, and write
  targets are marked dirty afterwards.

``Session(config)`` without an explicit runtime builds a private
:class:`SharedRuntime` underneath — the single-tenant API is unchanged.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.errors import AllocationError, ConfigurationError, OutOfMemoryError
from repro.core.cachedarray import CachedArray
from repro.core.manager import DataManager
from repro.core.object import MemObject
from repro.core.policy_api import Policy, issue_hints, resolve_residency
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.policies.optimizing import OptimizingPolicy
from repro.sim.clock import SimClock
from repro.telemetry import trace as tracing
from repro.telemetry.counters import TrafficSnapshot
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.monitor import MonitorConfig, RuntimeMonitor, pick_tracer
from repro.units import parse_size

__all__ = [
    "Session",
    "SessionConfig",
    "SharedRuntime",
    "issue_hints",
    "resolve_residency",
]


@dataclass
class SessionConfig:
    """Declarative session setup.

    Either give explicit ``devices`` or use the DRAM/NVRAM shorthand
    matching the paper's platform (180 GB DRAM + 1300 GB NVRAM by default,
    the limits of Section IV-A). ``real`` backs every device with actual
    memory — only sensible at small capacities.
    """

    dram: int | str | None = "180 GB"
    nvram: int | str | None = "1300 GB"
    real: bool = False
    devices: Sequence[MemoryDevice] = field(default_factory=tuple)
    alignment: int = 64
    copy_threads: int = 8
    copy_overhead: float = 0.0
    # Queue copies on a DMA channel overlapping with compute instead of
    # blocking (Section VI; virtual devices only).
    async_movement: bool = False
    # Record structured trace events (docs/observability.md). Off by
    # default: the disabled path is a shared no-op tracer with zero
    # per-kernel cost.
    tracing: bool = False
    # Attach the always-on runtime monitor (docs/observability.md, "Live
    # monitoring"): windowed rollups, latency sketches, alerts, and the
    # flight recorder, all in bounded memory. Composes with ``tracing``:
    # monitor alone streams events without retaining them; monitor +
    # tracing keeps the full event list too.
    monitor: bool = False
    # Optional tuning for the monitor (window size, ring capacity, alert
    # rules, flight-dump directory); None uses MonitorConfig defaults.
    monitor_config: "MonitorConfig | None" = None

    def build_devices(self) -> list[MemoryDevice]:
        if self.devices:
            return list(self.devices)
        built: list[MemoryDevice] = []
        if self.dram is not None and parse_size(self.dram) > 0:
            built.append(MemoryDevice.dram(self.dram, real=self.real))
        if self.nvram is not None and parse_size(self.nvram) > 0:
            built.append(MemoryDevice.nvram(self.nvram, real=self.real))
        if not built:
            raise ConfigurationError("session needs at least one device")
        return built


class SharedRuntime:
    """The mechanism layer one memory system exposes to every tenant.

    Owns the devices, heaps, clock, copy engine, data manager, metrics,
    and tracer. Tenants attach through :meth:`session`, each bringing its
    own policy; they contend for the same heaps and DMA channels, so one
    tenant's pressure is visible to every other tenant's policy.

    The tenant population is *elastic*: :meth:`detach` removes a tenant
    mid-run (stream cancelled, objects reclaimed through the normal free
    path, DRAM quota refunded exactly) and :meth:`resize` changes a
    device's capacity online — the attach/detach churn path is exercised
    at serving rates by ``repro serve`` (docs/serving.md).
    """

    def __init__(
        self,
        config: SessionConfig | None = None,
        *,
        tracer: "tracing.Tracer | tracing.NullTracer | None" = None,
        injector: object | None = None,
    ) -> None:
        self.config = config or SessionConfig()
        self.clock = SimClock()
        devices = self.config.build_devices()
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate device names: {names}")
        if self.config.async_movement and any(d.is_real for d in devices):
            raise ConfigurationError(
                "async_movement is a timing model and requires virtual devices"
            )
        if tracer is None:
            tracer = pick_tracer(self.clock, self.config)
        self.tracer = tracer
        # Chaos mode (docs/robustness.md): a FaultInjector wired through the
        # mechanism layer as a duck-typed hook. The runtime is the only place
        # that knows about it, so the firewall (mechanism never imports
        # repro.faults) holds.
        self.injector = injector
        if injector is not None:
            attach = getattr(injector, "attach", None)
            if attach is not None:
                attach(self.clock, self.tracer)
        self.heaps = {
            device.name: Heap(
                device, alignment=self.config.alignment, injector=injector
            )
            for device in devices
        }
        self.metrics = MetricsRegistry()
        self.engine = CopyEngine(
            self.clock,
            max_threads=self.config.copy_threads,
            per_transfer_overhead=self.config.copy_overhead,
            async_mode=self.config.async_movement,
            tracer=self.tracer,
            injector=injector,
        )
        self.manager = DataManager(
            self.heaps, self.engine, tracer=self.tracer, metrics=self.metrics
        )
        # The always-on monitor (if any tracer carries one) gets the exact
        # context the offline replay path can only estimate: device
        # capacities for occupancy alerts and the manager's quota
        # accounting for per-tenant headroom. Pure observation — nothing
        # here feeds back into placement or timing.
        self.monitor: RuntimeMonitor | None = getattr(
            self.tracer, "monitor", None
        )
        # Held by reference by the monitor: resize() mutates it in place so
        # occupancy-fraction alerts track the *current* capacity.
        self._monitor_capacities = {
            name: heap.capacity for name, heap in self.heaps.items()
        }
        if self.monitor is not None:
            self.monitor.bind_capacities(self._monitor_capacities)
            self.monitor.bind_usage_probe(self.manager.tenant_usage)
            self.monitor.bind_quotas(self.manager.tenant_quotas())
        # Elastic operations (docs/robustness.md): attached tenant views by
        # tenant id, an optional stream scheduler to cancel on detach, and
        # the idempotent-close latch.
        self._sessions: dict[str, "Session"] = {}
        self._scheduler: object | None = None
        self.closed = False

    # -- tenant attachment ----------------------------------------------------

    def session(
        self,
        policy: Policy | None = None,
        *,
        tenant: str = "",
        dram_quota: int | str | None = None,
    ) -> "Session":
        """Attach a tenant: a :class:`Session` view with its own policy."""
        return Session(
            policy=policy, runtime=self, tenant=tenant, dram_quota=dram_quota
        )

    def activate(self, tenant: str) -> None:
        """Make ``tenant`` the accounting principal for new allocations.

        The multi-stream scheduler calls this on every stream activation so
        DRAM-quota charging follows whichever tenant is currently running.
        """
        self.manager.active_tenant = tenant

    def default_policy(self) -> Policy:
        return self._default_policy(list(self.heaps))

    @staticmethod
    def _default_policy(names: list[str]) -> Policy:
        from repro.policies.noop import SingleDevicePolicy

        if "DRAM" in names and "NVRAM" in names:
            return OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True)
        if len(names) == 1:
            return SingleDevicePolicy(names[0])
        raise ConfigurationError(
            f"no default policy for device set {names}; pass one explicitly"
        )

    # -- shared state ---------------------------------------------------------

    @property
    def is_real(self) -> bool:
        return all(h.device.is_real for h in self.heaps.values())

    def heap(self, device: str) -> Heap:
        return self.manager.heap(device)

    def traffic(self) -> dict[str, TrafficSnapshot]:
        return {name: heap.traffic.snapshot() for name, heap in self.heaps.items()}

    def occupancy(self) -> dict[str, int]:
        return {name: heap.used_bytes for name, heap in self.heaps.items()}

    def defragment(self) -> dict[str, int]:
        """Compact every heap (the paper's between-iteration housekeeping)."""
        return {name: self.manager.defragment(name) for name in self.heaps}

    # -- elastic operations (docs/robustness.md, "Elastic operations") --------

    def attach_scheduler(self, scheduler: object | None) -> None:
        """Register the stream scheduler so :meth:`detach` can cancel the
        departing tenant's stream (duck-typed: anything with ``cancel``)."""
        self._scheduler = scheduler

    def detach(self, tenant: str) -> dict[str, int]:
        """A tenant departs: cancel its stream, reclaim its objects through
        the normal free path, refund its quotas, drop its hint state.

        Returns ``{"objects": n, "bytes": freed, "quota": refunded}``.
        Raises :class:`ConfigurationError` for an unknown tenant (a second
        detach of the same tenant is unknown — refunds never double), and
        :class:`~repro.errors.ObjectStateError` if the tenant still pins an
        object (a kernel is mid-flight; cancel its stream first).
        """
        if not tenant:
            raise ConfigurationError("detach needs a non-empty tenant id")
        session = self._sessions.pop(tenant, None)
        objs = self.manager.tenant_objects(tenant)
        known = session is not None or objs or any(
            owner == tenant for owner, _ in self.manager.tenant_quotas()
        )
        if not known:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        if self._scheduler is not None:
            # Closing the generator unwinds kernel scopes (unpins operands),
            # so reclamation below goes through the normal free path.
            self._scheduler.cancel(tenant)  # type: ignore[attr-defined]
        freed = 0
        for obj in objs:
            freed += sum(region.size for region in obj.regions())
            self.manager.destroy_object(obj)
        self.engine.drop_pending(f"{tenant}/")
        refunded = self.manager.drop_tenant(tenant)
        if session is not None:
            session._arrays.clear()
            session.closed = True
        quota_total = sum(refunded.values())
        self.tracer.detach(tenant, len(objs), freed, quota_total)
        return {"objects": len(objs), "bytes": freed, "quota": quota_total}

    def resize(self, device: str, new_bytes: int | str) -> dict[str, object]:
        """Reconfigure ``device``'s capacity online.

        Growing is immediate. Shrinking below the current tail occupancy
        drives the recovery ladder — evict (each attached tenant's policy),
        defrag (compaction slides survivors out of the truncated tail), and
        finally a mechanism-level cross-tier migration of whatever still
        overlaps the tail — then retries the shrink. Raises
        :class:`~repro.errors.RecoveryExhaustedError` when the survivors
        cannot be placed anywhere. Ends with an invariant sweep.
        """
        from repro.runtime.recovery import LadderHooks, recover_allocation

        new = parse_size(new_bytes)
        heap = self.heap(device)
        old = heap.capacity
        steps = ""
        if new <= 0:
            raise ConfigurationError(f"resize target must be positive: {new}")
        if new > old:
            heap.grow(new)
        elif new < old:

            def attempt() -> bool:
                try:
                    heap.shrink(new)
                except AllocationError:
                    # Convert to the ladder's native currency: the tail that
                    # must be vacated, with the heap's honest free count
                    # (free >= requested steers the ladder toward defrag).
                    raise OutOfMemoryError(
                        device, old - new, heap.free_bytes
                    ) from None
                return True

            try:
                attempt()
            except OutOfMemoryError as err:
                hooks = LadderHooks(
                    collect=None,
                    evict=self._resize_evict,
                    defrag=lambda dev: self.manager.defragment(dev) > 0,
                    fallback=lambda: self._migrate_tail(device, new),
                )
                result = recover_allocation(
                    attempt, err, hooks, tracer=self.tracer, metrics=self.metrics
                )
                steps = "ladder" if result else ""
        self.tracer.resize(device, old, new, steps)
        self._monitor_capacities[device] = heap.capacity
        self.manager.check_invariants()
        return {"device": device, "old": old, "new": heap.capacity, "via": steps}

    def _resize_evict(self, device: str, requested: int) -> bool:
        """Eviction rung for :meth:`resize`: each attached tenant's policy
        gets a chance to relieve pressure on ``device``."""
        acted = False
        for session in list(self._sessions.values()):
            try:
                if session.policy.handle_pressure(device, requested):
                    acted = True
            except OutOfMemoryError:
                continue
        return acted

    def _migrate_tail(self, device: str, new_capacity: int) -> bool:
        """Cross-tier fallback for :meth:`resize`: move every region still
        overlapping the truncated tail to another device, via the normal
        allocate/copy/re-point/free path. Returns whether the tail is clear."""
        heap = self.heap(device)
        manager = self.manager
        others = [name for name in self.heaps if name != device]
        for offset in heap.tail_live_offsets(new_capacity):
            region = manager.region_at(device, offset)
            obj = region.parent
            if obj is None:
                return False  # unowned allocation: nobody can re-point it
            if not region.is_primary:
                # A secondary copy: the primary holds the data, just drop it.
                manager.free(region)
                continue
            if obj.pinned:
                return False  # a kernel holds the primary; cannot move it
            moved = False
            for other in others:
                existing = obj.region_on(other)
                if existing is not None:
                    manager.copyto(existing, region)
                    manager.setprimary(obj, existing)
                    manager.setdirty(existing, False)
                    manager.free(region)
                    moved = True
                    break
                target = manager.try_allocate(other, region.size)
                if target is None:
                    continue
                manager.copyto(target, region)
                was_dirty = region.dirty
                manager.setprimary(obj, target)
                manager.setdirty(target, was_dirty)
                manager.free(region)
                moved = True
                break
            if not moved:
                return False
        return True

    def close(self) -> None:
        """Shut the runtime down (idempotent, safe after mid-run faults)."""
        if self.closed:
            return
        self.closed = True
        self.engine.shutdown()

    def __enter__(self) -> "SharedRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Session:
    """A tenant's view of the CachedArrays runtime: one bound policy.

    Standalone use (``Session(config)``) builds a private
    :class:`SharedRuntime`; multi-tenant use attaches to an existing one via
    :meth:`SharedRuntime.session`, which namespaces object names with the
    tenant id and can cap the tenant's DRAM footprint.
    """

    def __init__(
        self,
        config: SessionConfig | None = None,
        policy: Policy | None = None,
        *,
        tracer: "tracing.Tracer | tracing.NullTracer | None" = None,
        injector: object | None = None,
        runtime: SharedRuntime | None = None,
        tenant: str = "",
        dram_quota: int | str | None = None,
    ) -> None:
        if runtime is None:
            runtime = SharedRuntime(config, tracer=tracer, injector=injector)
            self._owns_runtime = True
        else:
            if config is not None or tracer is not None or injector is not None:
                raise ConfigurationError(
                    "config/tracer/injector belong to the SharedRuntime; "
                    "configure them there"
                )
            self._owns_runtime = False
        self.runtime = runtime
        self.tenant = tenant
        if dram_quota is not None:
            runtime.manager.set_quota(tenant, "DRAM", parse_size(dram_quota))
        if policy is None:
            policy = runtime.default_policy()
        self.policy = policy
        self.policy.bind(runtime.manager)
        self._arrays: dict[int, CachedArray] = {}
        self.closed = False
        # Register with the runtime so elastic operations (detach, resize's
        # eviction rung) can find every attached tenant view.
        runtime._sessions[tenant] = self

    # -- delegation to the shared runtime ------------------------------------

    @property
    def config(self) -> SessionConfig:
        return self.runtime.config

    @property
    def clock(self) -> SimClock:
        return self.runtime.clock

    @property
    def tracer(self) -> "tracing.Tracer | tracing.NullTracer":
        return self.runtime.tracer

    @property
    def injector(self) -> object | None:
        return self.runtime.injector

    @property
    def monitor(self) -> RuntimeMonitor | None:
        return self.runtime.monitor

    @property
    def heaps(self) -> dict[str, Heap]:
        return self.runtime.heaps

    @property
    def metrics(self) -> MetricsRegistry:
        return self.runtime.metrics

    @property
    def engine(self) -> CopyEngine:
        return self.runtime.engine

    @property
    def manager(self) -> DataManager:
        return self.runtime.manager

    # -- object namespace -----------------------------------------------------

    def qualify(self, name: str) -> str:
        """The tenant-namespaced form of an object name."""
        return f"{self.tenant}/{name}" if self.tenant else name

    def new_object(self, nbytes: int, name: str = "") -> MemObject:
        """Register a tenant-namespaced logical object with the manager."""
        return self.runtime.manager.new_object(nbytes, self.qualify(name))

    # -- array creation ---------------------------------------------------------

    def empty(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | str = np.float32,
        *,
        name: str = "",
    ) -> CachedArray:
        """Allocate an uninitialised array; the policy picks the device."""
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        nbytes = int(math.prod(shape)) * dt.itemsize
        obj = self.new_object(nbytes, name)
        try:
            with self.tracer.scope("place", obj):
                self.policy.place(obj)
        except Exception:
            # Placement failed (OOM, policy fault, ...): don't leak the
            # half-born object — callers may retry through the recovery
            # ladder and must see the same pre-call state.
            self.manager.destroy_object(obj)
            raise
        array = CachedArray(self, obj, tuple(shape), dt)
        self._arrays[obj.id] = array
        return array

    def zeros(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | str = np.float32,
        *,
        name: str = "",
    ) -> CachedArray:
        array = self.empty(shape, dtype, name=name)
        if self.is_real:
            array.write(0)
        return array

    def from_numpy(self, data: np.ndarray, *, name: str = "") -> CachedArray:
        """Copy a host numpy array into a managed CachedArray (real mode)."""
        if not self.is_real:
            raise ConfigurationError("from_numpy requires a real-backed session")
        array = self.empty(data.shape, data.dtype, name=name)
        array.write(np.ascontiguousarray(data))
        return array

    def release(self, array: CachedArray) -> None:
        """Retire an array through the policy (the ``retire`` hint)."""
        self._arrays.pop(array.obj.id, None)
        with self.tracer.hint("retire", array.obj):
            self.policy.retire(array.obj)

    # -- kernel scope --------------------------------------------------------------

    @contextlib.contextmanager
    def kernel(
        self,
        reads: Sequence[CachedArray] = (),
        writes: Sequence[CachedArray] = (),
        *,
        hints: bool = True,
    ) -> Iterator[tuple[list[np.ndarray], list[np.ndarray]]]:
        """Execute a kernel under the kernel programming model.

        Issues ``will_read``/``will_write`` hints (Section III-E), resolves
        each operand to its primary region once, pins it so the primary
        cannot move mid-kernel — one :meth:`Policy.acquire_operands` call —
        and yields ``(read_views, write_views)``. On exit, operands are
        unpinned and written primaries marked dirty. In virtual sessions the
        views are empty lists — only placement and accounting happen. A body
        that raises skips :meth:`Policy.on_kernel_finish`, so a policy that
        leaves recency to it (:class:`OptimizingPolicy`) counts only the uses
        noted before the kernel's last fetch.
        """
        read_objs = [a.obj for a in reads]
        write_objs = [a.obj for a in writes]
        pinned: list[MemObject] = []
        try:
            self.policy.acquire_operands(
                read_objs, write_objs, hints, pinned, self.tracer
            )
            if self.is_real:
                yield [a.view() for a in reads], [a.view() for a in writes]
            else:
                yield [], []
        finally:
            MemObject.unpin_all(pinned)
        self.policy.on_kernel_finish(read_objs, write_objs)

    # -- maintenance & introspection ---------------------------------------------------

    @property
    def is_real(self) -> bool:
        return self.runtime.is_real

    def heap(self, device: str) -> Heap:
        return self.manager.heap(device)

    def traffic(self) -> dict[str, TrafficSnapshot]:
        return self.runtime.traffic()

    def occupancy(self) -> dict[str, int]:
        return self.runtime.occupancy()

    def defragment(self) -> dict[str, int]:
        """Compact every heap (the paper's between-iteration housekeeping)."""
        return self.runtime.defragment()

    def describe(self) -> str:
        """A human-readable snapshot of the session's memory state."""
        from repro.units import format_size

        title = f"Session ({type(self.policy).__name__})"
        if self.tenant:
            title += f" tenant={self.tenant}"
        lines = [title]
        for name, heap in self.heaps.items():
            stats = heap.stats()
            lines.append(
                f"  {name}: {format_size(stats.used_bytes)} / "
                f"{format_size(stats.capacity)} used, "
                f"{stats.live_allocations} regions, "
                f"fragmentation {stats.external_fragmentation:.0%}"
            )
            snap = heap.traffic.snapshot()
            lines.append(
                f"    traffic: read {format_size(snap.read_bytes)}, "
                f"wrote {format_size(snap.write_bytes)}"
            )
        lines.append(f"  live objects: {len(self.manager.objects)}")
        lines.append(f"  virtual time: {self.clock.now:.6f} s")
        return "\n".join(lines)

    def close(self) -> None:
        """Detach this view; shut the runtime down when this session owns it.

        Idempotent and safe after mid-run faults: a second close (chaos
        teardown closes both the session and its runtime) is a no-op, so
        quotas are never refunded twice and no error masks the original
        failure.
        """
        if self.closed:
            return
        self.closed = True
        if self.runtime._sessions.get(self.tenant) is self:
            del self.runtime._sessions[self.tenant]
        if self._owns_runtime:
            self.runtime.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
