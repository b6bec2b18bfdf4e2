"""The layer table: which callables of the program each layer's spans wrap.

Layers are the repository's own modules. Every entry is ``(layer, module,
qualname)``; ``Class.attr*`` matches every attribute with that prefix. Host
time of code that is *not* listed lands in the self time of the nearest
listed caller (``core.object`` pins and the policy's LRU list show up under
``policies``/``core.manager``, for example), and time outside every span is
``harness.other_s``.

The three generator entries (``Executor.stream`` and the serving driver's two
stream bodies) get one span per resume; without them the whole event loop
would read as ``runtime.scheduler`` self time, because the scheduler is what
calls ``next()`` on them.
"""

from __future__ import annotations

__all__ = ["LAYERS", "TARGETS"]


def _methods(layer: str, module: str, cls: str, names: str) -> list[tuple[str, str, str]]:
    return [(layer, module, f"{cls}.{name}") for name in names.split()]


TARGETS: tuple[tuple[str, str, str], ...] = (
    # -- workloads: trace construction and annotation -------------------------
    ("workloads", "repro.workloads.annotate", "annotate"),
    ("workloads", "repro.nn.graph", "GraphBuilder.training_trace"),
    ("workloads", "repro.workloads.signatures", "tiny_objects_trace"),
    ("workloads", "repro.experiments.serving", "request_trace"),
    *_methods("workloads", "repro.workloads.trace", "KernelTrace",
              "scaled peak_live_bytes"),
    # -- experiments: building a mode's system, the serving sweep --------------
    ("experiments", "repro.experiments.common", "prepare_trace_mode"),
    ("experiments", "repro.experiments.common", "PreparedRun.finish"),
    ("experiments", "repro.experiments.serving", "run_serving"),
    ("experiments", "repro.experiments.serving", "_PointRunner._driver"),
    ("experiments", "repro.experiments.serving", "_PointRunner._request_stream"),
    # -- runtime ---------------------------------------------------------------
    *_methods("runtime.executor", "repro.runtime.executor", "Executor",
              "run stream"),
    *_methods("runtime.executor", "repro.runtime.executor", "CachedArraysAdapter",
              "alloc release kernel archive hint_read hint_write iteration_end"),
    *_methods("runtime.executor", "repro.runtime.executor", "TwoLMAdapter",
              "alloc release kernel archive"),
    ("runtime.kernel", "repro.runtime.kernel", "kernel_timing"),
    ("runtime.gc", "repro.runtime.gc", "GarbageCollector.collect"),
    *_methods("runtime.scheduler", "repro.runtime.scheduler", "StreamScheduler",
              "run spawn cancel"),
    # -- core ------------------------------------------------------------------
    ("core.session", "repro.core.session", "issue_hints"),
    ("core.session", "repro.core.session", "resolve_residency"),
    *_methods("core.session", "repro.core.session", "Session",
              "empty release close"),
    *_methods("core.session", "repro.core.session", "SharedRuntime",
              "session detach defragment"),
    *_methods("core.manager", "repro.core.manager", "DataManager",
              "allocate try_allocate free copyto setprimary link unlink "
              "evictfrom new_object destroy_object defragment"),
    # -- policies ----------------------------------------------------------------
    *_methods("policies", "repro.policies.optimizing", "OptimizingPolicy",
              "place will_read will_write archive retire ensure_resident "
              "handle_pressure on_kernel_finish"),
    ("policies", "repro.policies.base", "evict_object"),
    ("policies", "repro.policies.base", "prefetch_object"),
    # -- memory ------------------------------------------------------------------
    *_methods("memory.allocator", "repro.memory.allocator", "FreeListAllocator",
              "allocate free collect_span compact"),
    *_methods("memory.copyengine", "repro.memory.copyengine", "CopyEngine",
              "copy drain_wait"),
    # -- twolm: the hardware DRAM-cache baseline -----------------------------------
    *_methods("twolm", "repro.twolm.system", "TwoLMSystem",
              "access allocate free time_of"),
    *_methods("twolm", "repro.twolm.dramcache", "DramCacheSim",
              "access_range invalidate_range"),
    # -- telemetry -----------------------------------------------------------------
    *_methods("telemetry", "repro.telemetry.trace", "Tracer",
              "emit emit_at scope hint"),
    *_methods("telemetry", "repro.telemetry.monitor", "MonitorTracer",
              "emit emit_at scope hint"),
    *_methods("telemetry", "repro.telemetry.monitor", "RuntimeMonitor",
              "observe finish note_*"),
    ("telemetry", "repro.telemetry.timeline", "Timeline.record"),
    *_methods("telemetry", "repro.telemetry.counters", "TrafficCounters",
              "record_read record_write"),
    # -- sim: calls are exact; self time is mostly the wrapper's clock reads ----
    ("sim", "repro.sim.clock", "SimClock.advance"),
    ("sim", "repro.sim.bandwidth", "BandwidthModel.transfer_time"),
    ("sim", "repro.sim.bandwidth", "copy_time"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
