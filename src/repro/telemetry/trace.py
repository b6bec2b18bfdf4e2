"""Structured runtime event tracing (the observability tentpole).

The paper's evaluation is built entirely from observing data movement; this
module makes that observation first-class instead of ad hoc. A
:class:`Tracer` is a low-overhead event bus threaded through the three
layers of the system:

* the :class:`~repro.core.manager.DataManager` and
  :class:`~repro.memory.copyengine.CopyEngine` emit *mechanism* events
  (``alloc``, ``free``, ``copy_start``/``copy_end``, ``setprimary``,
  ``defrag``);
* policies emit *decision* events (``evict``, ``prefetch``, ``place``);
* the executor emits *boundary* events (``kernel_start``/``kernel_end``,
  ``hint``, ``gc``, ``oom_retry``, ``invariant_check``, ``stall``).

Every event is stamped with virtual time from the shared
:class:`~repro.sim.clock.SimClock`, so traces are deterministic and diffable
across policy ablations.

**Cause attribution.** Callers open a *scope* around policy entry points
(``with tracer.hint("will_write", obj): policy.will_write(obj)``). Any event
emitted while scopes are open records the innermost scope label as its
``cause`` and the outermost as its ``root`` — so a copy triggered by an
eviction that was itself triggered by a ``will_write`` hint reads
``cause="evict:a3" root="hint:will_write:a7"``. That is the hint → policy
decision → manager action chain the profile report aggregates. A kernel's
hint and residency sweeps hand the tracer to the policy's batch bodies,
which open a scope only around what they move; a hint sweep emits the
``hint`` events of the operands it moved nothing for as *owed* ones, in
operand order, through the next ``hint()`` or a closing :meth:`Tracer.hints`.

**One reporting seam, two listeners.** An instrumented site makes exactly
one unconditional, positional, typed call — ``tracer.copy(...)``,
``tracer.alloc(...)``, ``tracer.kernel_end(...)`` — and cannot tell who is
listening:

* :data:`NULL_TRACER` (the default): every typed call and ``hints()`` is
  a no-op and ``scope()``/``hint()`` return a shared singleton context
  manager, so an untraced site pays one method call with its arguments
  evaluated and allocates nothing.
* :class:`Tracer` (full tracing): each typed call retains one flat
  *record* through ``Tracer._event`` and returns it — a tuple of ts, kind,
  cause, root, root_ts, stream, the kind's field names, then the values.
  The field names are :data:`SCHEMA`, the one table of the event schema
  (kind → field names in args order); each body knows its kind's
  timestamp and hands its values in that order. :meth:`Tracer.emit`/
  :meth:`Tracer.emit_at` remain for hand-emitted events only. With the
  monitor attached (:class:`~repro.telemetry.monitor.MonitorTracer`)
  ``_event`` also rings and counts each record as it is built and folds
  the kinds the monitor folds, from the values in hand; whether the
  records are also retained is fixed when that tracer is built, and the
  monitor folds the same events either way.

**Retained events are records, read through a view.** A traced run keeps
every event, so what it keeps must cost the cyclic collector nothing: a
tuple holding only atomic values (strings, numbers, ``None`` and the
field-name tuple) is untracked at its first young collection and never
reaches a full one, where a slotted :class:`TraceEvent` would be walked by
every one. ``Tracer.events`` is an :class:`EventView`, a read-only
sequence that builds each :class:`TraceEvent` when it is read; its
:meth:`~EventView.copy` (``RunResult.trace``) builds them once, on the
first read. ``stall`` and ``decision`` records carry lists, so those rare
ones stay tracked.

``tracer.enabled`` survives only where full tracing does extra *work*
rather than different *reporting* (stall blame lists, rejected-candidate
lists, in-flight copy labels); the structural test
``tests/core/test_seam.py`` holds the allow-list. Tracing never advances
the clock, so no listener can change results.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.clock import SimClock

__all__ = [
    "TraceEvent",
    "EventView",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "EVENT_KINDS",
    "SCHEMA",
    "NAMED_REGION",
    "REPLAY_DEFAULTS",
    "subject_label",
]

# -- event kinds --------------------------------------------------------------

ALLOC = "alloc"
FREE = "free"
COPY_START = "copy_start"
COPY_END = "copy_end"
EVICT = "evict"
EVICT_SCAN = "evictfrom"
PREFETCH = "prefetch"
PLACE = "place"
HINT = "hint"
SETPRIMARY = "setprimary"
# Explainability events (docs/observability.md, "Explaining a run"): the
# victim a policy chose *and* the candidates it rejected, and dirty-bit
# transitions (the writeback debt an eviction will have to pay).
DECISION = "decision"
SETDIRTY = "setdirty"
KERNEL_START = "kernel_start"
KERNEL_END = "kernel_end"
STALL = "stall"
DEFRAG = "defrag"
GC = "gc"
OOM_RETRY = "oom_retry"
INVARIANT_CHECK = "invariant_check"
# Robustness events (docs/robustness.md): fault injection and recovery.
FAULT = "fault"                    # the injector fired a fault
RECOVERY_STEP = "recovery_step"    # one rung of the OOM escalation ladder
RECOVERY = "recovery"              # the ladder recovered the allocation
COPY_RETRY = "copy_retry"          # a failed/corrupted copy attempt, retried
POLICY_STRIKE = "policy_strike"    # the watchdog caught a policy failure
QUARANTINE = "quarantine"          # the watchdog switched to the fallback
# Monitoring events (docs/observability.md, "Live monitoring"): an alert
# rule tripped or cleared in the always-on runtime monitor.
ALERT = "alert"
# Elastic operations (docs/robustness.md, "Elastic operations"): tenant
# churn, online capacity reconfiguration, and snapshot/restore boundaries.
DETACH = "detach"          # a tenant departed; its objects were reclaimed
RESIZE = "resize"          # a heap's capacity changed mid-run
SNAPSHOT = "snapshot"      # the runtime was checkpointed at this point
RESTORE = "restore"        # execution resumed from a checkpoint
# Serving events (docs/serving.md): one record per client request emitted
# when it reaches a final outcome, carrying the end-to-end latency — the
# per-request attribution `repro serve` reports percentiles over.
REQUEST = "request"        # a serving request reached a final outcome

# -- the event schema ---------------------------------------------------------
#
# Each kind's field names, in args order: the one place they are written.
# A typed body hands ``_event`` its kind's row (a shared tuple, so a record
# adds no container of its own); ``RuntimeMonitor.observe`` maps a replayed
# event's args onto the same row. ``decision``'s ``**extra`` and ``fault``'s
# ``detail`` extend their row, in the order given.
SCHEMA: dict[str, tuple[str, ...]] = {
    ALLOC: ("device", "offset", "nbytes"),
    FREE: ("device", "offset", "nbytes"),
    COPY_START: ("src", "dst", "nbytes", "threads", "seconds", "seq"),
    COPY_END: ("src", "dst", "nbytes", "seq"),
    EVICT: ("obj", "src", "dst", "nbytes", "clean"),
    EVICT_SCAN: ("device", "depth", "nbytes"),
    PREFETCH: ("obj", "src", "dst", "nbytes"),
    PLACE: ("obj", "device", "nbytes"),
    HINT: ("hint", "subject"),
    SETPRIMARY: ("obj", "device", "nbytes"),
    DECISION: ("policy", "action", "device", "need", "chosen", "considered",
               "rejected", "rejected_dropped"),
    SETDIRTY: ("obj", "device", "nbytes", "dirty"),
    KERNEL_START: ("kernel",),
    KERNEL_END: ("kernel", "seconds", "compute", "memory", "fixed", "phase"),
    STALL: ("kernel", "seconds", "objects", "charged"),
    DEFRAG: ("device", "moves"),
    GC: ("seconds",),
    OOM_RETRY: ("obj", "nbytes"),
    INVARIANT_CHECK: ("kernels",),
    FAULT: ("site", "device", "op", "index"),
    RECOVERY_STEP: ("step", "device", "requested", "free", "acted", "tenant"),
    RECOVERY: ("step", "device", "requested", "steps", "tenant"),
    COPY_RETRY: ("src", "dst", "nbytes", "attempt", "reason"),
    POLICY_STRIKE: ("op", "strikes", "error", "tenant"),
    QUARANTINE: ("policy", "fallback", "strikes"),
    ALERT: ("rule", "label", "metric", "value", "threshold", "severity",
            "status", "window"),
    DETACH: ("tenant", "objects", "nbytes", "quota"),
    RESIZE: ("device", "old", "new", "via"),
    SNAPSHOT: ("label", "kernels"),
    RESTORE: ("label", "kernels"),
    REQUEST: ("request", "klass", "outcome", "seconds", "queue_wait"),
}
# The second row of ``alloc`` and ``free``: where the site names the object
# (the 2LM adapter). It keeps ``device`` first and ``offset``, ``nbytes``
# last, so a fold reads either row at the same places.
NAMED_REGION = ("device", "obj", "offset", "nbytes")

# Replay's reading of a row field, by field name: the default a foreign
# record that lacks it (or holds a value the cast cannot read) reads as,
# and the cast a present value takes (None: as it comes). Fields not named
# here no fold reads; replay takes them as they come, None when missing.
REPLAY_DEFAULTS: dict[str, tuple[Any, type | None]] = {
    "device": ("?", None), "tenant": ("?", None), "site": ("?", None),
    "step": ("?", str),
    "nbytes": (0, int), "offset": (None, int), "seq": (None, int),
    "seconds": (0.0, float), "compute": (0.0, float), "memory": (0.0, float),
    "fixed": (0.0, float),
}

EVENT_KINDS = frozenset(SCHEMA)


def subject_label(subject: object) -> str:
    """A stable, human-readable label for a scope subject.

    Strings pass through; objects with a ``name`` (e.g.
    :class:`~repro.core.object.MemObject`, whose name is never empty) use it.
    """
    if isinstance(subject, str):
        return subject
    name = getattr(subject, "name", "")
    if name:
        return str(name)
    return f"#{getattr(subject, 'id', '?')}"


_new_object = object.__new__


class TraceEvent:
    """One structured event, stamped with virtual time.

    ``args`` carries the kind-specific payload (device, byte counts, ...).
    ``cause``/``root`` are the innermost/outermost attribution scopes active
    at emission time; ``root_ts`` is the virtual time the root scope opened
    (the hint-to-movement latency baseline). ``stream`` is the execution
    stream (tenant) the event belongs to — empty in single-stream runs,
    the tenant id under the multi-stream scheduler, which retags the
    tracer on every stream switch.

    What readers see, not what a tracer keeps: a :class:`Tracer` retains
    flat records and its :class:`EventView` builds one event per access
    (``_as_event`` fills the slots directly). A hand-rolled ``__slots__``
    class rather than a dataclass, so a reader walking a long trace pays
    no per-instance ``__dict__``. Events are treated as immutable by
    convention.
    """

    __slots__ = ("ts", "kind", "args", "cause", "root", "root_ts", "stream")

    def __init__(
        self,
        ts: float,
        kind: str,
        args: Mapping[str, Any] | None = None,
        cause: str = "",
        root: str = "",
        root_ts: float | None = None,
        stream: str = "",
    ) -> None:
        self.ts = ts
        self.kind = kind
        self.args = {} if args is None else args
        self.cause = cause
        self.root = root
        self.root_ts = root_ts
        self.stream = stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(ts={self.ts!r}, kind={self.kind!r}, "
            f"args={self.args!r}, cause={self.cause!r}, root={self.root!r}, "
            f"root_ts={self.root_ts!r}, stream={self.stream!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.ts == other.ts
            and self.kind == other.kind
            and self.args == other.args
            and self.cause == other.cause
            and self.root == other.root
            and self.root_ts == other.root_ts
            and self.stream == other.stream
        )

    def to_json(self) -> dict[str, Any]:
        """A flat, JSON-serialisable view (stable key order via sorting)."""
        out: dict[str, Any] = {"ts": self.ts, "kind": self.kind}
        if self.stream:
            out["stream"] = self.stream
        if self.cause:
            out["cause"] = self.cause
        if self.root:
            out["root"] = self.root
        if self.root_ts is not None:
            out["root_ts"] = self.root_ts
        for key, value in self.args.items():
            out[key] = value
        return out


# -- retained records ------------------------------------------------------------
#
# A record is ``(ts, kind, cause, root, root_ts, stream, fields, *values)``,
# ``fields`` naming the values in args order: the kind's ``SCHEMA`` row,
# one shared tuple.


def _as_event(record: tuple) -> TraceEvent:
    """The :class:`TraceEvent` a record stands for (args in field order)."""
    event = _new_object(TraceEvent)
    (event.ts, event.kind, event.cause, event.root, event.root_ts, event.stream,
     fields) = record[:7]
    event.args = dict(zip(fields, record[7:]))
    return event


class EventView(Sequence):
    """A read-only sequence of :class:`TraceEvent` over retained records.

    Each access builds a fresh event, so a reader making several passes
    should ``list()`` the view once. Supports ``len``, indexing (negative
    indexes and slices; a slice is a list), iteration, ``==`` against any
    sequence of events, and :meth:`clear`.
    """

    __slots__ = ("_records",)

    def __init__(self, records: "list[tuple] | tuple" = ()) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # An empty sink may be one that keeps nothing (a deque).
            records = self._records[index] if self._records else ()
            return [_as_event(record) for record in records]
        return _as_event(self._records[index])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_as_event, self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def copy(self) -> "EventView":
        """A read-only snapshot of the records retained so far."""
        return _Snapshot(tuple(self._records))

    def clear(self) -> None:
        self._records.clear()


class _Snapshot(EventView):
    """What :meth:`EventView.copy` returns (``RunResult.trace``): records
    no one appends to, so the first read builds every event once and later
    passes reuse them. One that is only counted builds none."""

    __slots__ = ("_events",)

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._read())

    def _read(self) -> list[TraceEvent]:
        if not hasattr(self, "_events"):
            self._events = list(map(_as_event, self._records))
        return self._events


class _Scope:
    """A cause-attribution scope; push on ``__enter__``, pop on ``__exit__``."""

    __slots__ = ("_tracer", "_label")

    def __init__(self, tracer: "Tracer", label: str) -> None:
        self._tracer = tracer
        self._label = label

    def __enter__(self) -> "_Scope":
        tracer = self._tracer
        tracer._scopes.append((self._label, tracer.clock.now))
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._scopes.pop()


class _NullScope:
    """Shared no-op scope: entering/exiting allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SCOPE = _NullScope()


class Tracer:
    """Retains one record per event against a virtual clock; ``events`` is
    the :class:`EventView` readers see them through."""

    enabled = True

    def __init__(self, clock: "SimClock") -> None:
        self.clock = clock
        self._records: list[tuple] = []
        self.events = EventView(self._records)
        # (label, open-time) pairs, outermost first.
        self._scopes: list[tuple[str, float]] = []
        # The active execution stream (tenant); the multi-stream scheduler
        # retags this on every stream switch so events self-identify.
        self.stream = ""

    # -- emission -----------------------------------------------------------

    def emit(self, kind: str, **args: Any) -> TraceEvent:
        """Record a hand-built event at the current virtual time."""
        return self.emit_at(self.clock.now, kind, **args)

    def emit_at(self, ts: float, kind: str, **args: Any) -> TraceEvent:
        """Record a hand-built event at an explicit virtual time."""
        return _as_event(self._event(ts, kind, tuple(args), tuple(args.values())))

    def _event(self, ts: float, kind: str, fields: tuple, values: tuple) -> tuple:
        # Where a record is stamped with its attribution scopes and
        # retained (``MonitorTracer._event`` writes this in place). The
        # values arrive as one tuple, so a listener passes them on without a
        # ``*values`` repack.
        scopes = self._scopes
        if scopes:
            root, root_ts = scopes[0]
            head = (ts, kind, scopes[-1][0], root, root_ts, self.stream, fields)
        else:
            head = (ts, kind, "", "", None, self.stream, fields)
        record = head + values
        self._records.append(record)
        return record

    # -- the typed seam -------------------------------------------------------
    #
    # One method per instrumented site kind, called unconditionally with
    # positional values (see NullTracer for what each reports). Each stamps
    # its event's time and hands ``_event`` its kind's ``SCHEMA`` row and the
    # values in that order, positionally (never through ``emit``'s kwargs
    # repack), and returns the record, so a listener that extends a body has
    # what it built in hand.

    def alloc(
        self, device: str, offset: int, nbytes: int, obj: str | None = None
    ) -> tuple:
        if obj is not None:  # named only where the site names one (2LM)
            values = (device, obj, offset, nbytes)
            return self._event(self.clock.now, ALLOC, NAMED_REGION, values)
        values = (device, offset, nbytes)
        return self._event(self.clock.now, ALLOC, SCHEMA[ALLOC], values)

    def free(
        self, device: str, offset: int, nbytes: int, obj: str | None = None
    ) -> tuple:
        if obj is not None:  # named only where the site names one (2LM)
            values = (device, obj, offset, nbytes)
            return self._event(self.clock.now, FREE, NAMED_REGION, values)
        return self._event(self.clock.now, FREE, SCHEMA[FREE], (device, offset, nbytes))

    def setprimary(self, obj: str, device: str, nbytes: int) -> tuple:
        values = (obj, device, nbytes)
        return self._event(self.clock.now, SETPRIMARY, SCHEMA[SETPRIMARY], values)

    def setdirty(self, obj: str, device: str, nbytes: int, dirty: bool) -> tuple:
        values = (obj, device, nbytes, dirty)
        return self._event(self.clock.now, SETDIRTY, SCHEMA[SETDIRTY], values)

    def evict_scan(self, device: str, depth: int, nbytes: int) -> tuple:
        values = (device, depth, nbytes)
        return self._event(self.clock.now, EVICT_SCAN, SCHEMA[EVICT_SCAN], values)

    def defrag(self, device: str, moves: int) -> tuple:
        return self._event(self.clock.now, DEFRAG, SCHEMA[DEFRAG], (device, moves))

    def copy(
        self, src: str, dst: str, nbytes: int, threads: int, seconds: float,
        completes_at: float, seq: int,
    ) -> tuple:
        # The span runs [completes_at - seconds, completes_at] in both
        # modes: synchronous copies just advanced the clock by `seconds`,
        # asynchronous ones queued on the destination's DMA channel. Two
        # records, so a listener folds the start before it counts the end.
        values = (src, dst, nbytes, threads, seconds, seq)
        self._event(completes_at - seconds, COPY_START, SCHEMA[COPY_START], values)
        values = (src, dst, nbytes, seq)
        return self._event(completes_at, COPY_END, SCHEMA[COPY_END], values)

    def copy_retry(
        self, ts: float, src: str, dst: str, nbytes: int, attempt: int, reason: str
    ) -> tuple:
        values = (src, dst, nbytes, attempt, reason)
        return self._event(ts, COPY_RETRY, SCHEMA[COPY_RETRY], values)

    def place(self, obj: str, device: str, nbytes: int) -> tuple:
        return self._event(self.clock.now, PLACE, SCHEMA[PLACE], (obj, device, nbytes))

    def prefetch(self, obj: str, src: str, dst: str, nbytes: int) -> tuple:
        values = (obj, src, dst, nbytes)
        return self._event(self.clock.now, PREFETCH, SCHEMA[PREFETCH], values)

    def evict(
        self, obj: str, src: str, dst: str, nbytes: int, clean: bool
    ) -> tuple:
        values = (obj, src, dst, nbytes, clean)
        return self._event(self.clock.now, EVICT, SCHEMA[EVICT], values)

    def decision(
        self, policy: str, action: str, device: str, need: int, chosen: str,
        considered: int, rejected: list[dict], rejected_dropped: int, **extra: Any,
    ) -> tuple:
        fields = (*SCHEMA[DECISION], *extra)
        values = (policy, action, device, need, chosen, considered, rejected,
                  rejected_dropped, *extra.values())
        return self._event(self.clock.now, DECISION, fields, values)

    def kernel_start(self, kernel: str) -> tuple:
        fields = SCHEMA[KERNEL_START]
        return self._event(self.clock.now, KERNEL_START, fields, (kernel,))

    def kernel_end(
        self, kernel: str, seconds: float, compute: float, memory: float,
        fixed: float, phase: str,
    ) -> tuple:
        values = (kernel, seconds, compute, memory, fixed, phase)
        return self._event(self.clock.now, KERNEL_END, SCHEMA[KERNEL_END], values)

    def stall(
        self, kernel: str, seconds: float, late: Sequence[tuple[str, float]] = ()
    ) -> tuple:
        # Charge the stall to the operands still in flight, proportionally
        # to how late each one is — the ledger uses this to blame wait time
        # on specific objects.
        total_late = sum(remaining for _, remaining in late)
        charged = ([seconds * remaining / total_late for _, remaining in late]
                   if total_late > 0 else [])
        values = (kernel, seconds, [name for name, _ in late], charged)
        return self._event(self.clock.now, STALL, SCHEMA[STALL], values)

    def gc(self, seconds: float) -> tuple:
        return self._event(self.clock.now, GC, SCHEMA[GC], (seconds,))

    def oom_retry(self, obj: str, nbytes: int) -> tuple:
        return self._event(self.clock.now, OOM_RETRY, SCHEMA[OOM_RETRY], (obj, nbytes))

    def invariant_check(self, kernels: int) -> tuple:
        fields = SCHEMA[INVARIANT_CHECK]
        return self._event(self.clock.now, INVARIANT_CHECK, fields, (kernels,))

    def fault(
        self, site: str, device: str, op: str, index: int, detail: Mapping[str, Any]
    ) -> tuple:
        fields = (*SCHEMA[FAULT], *detail)
        values = (site, device, op, index, *detail.values())
        return self._event(self.clock.now, FAULT, fields, values)

    def recovery_step(
        self, step: str, device: str, requested: int, free: int, acted: bool,
        tenant: str,
    ) -> tuple:
        values = (step, device, requested, free, acted, tenant)
        return self._event(self.clock.now, RECOVERY_STEP, SCHEMA[RECOVERY_STEP], values)

    def recovery(
        self, step: str, device: str, requested: int, steps: str, tenant: str
    ) -> tuple:
        values = (step, device, requested, steps, tenant)
        return self._event(self.clock.now, RECOVERY, SCHEMA[RECOVERY], values)

    def policy_strike(
        self, op: str, strikes: int, error: str, tenant: str
    ) -> tuple:
        values = (op, strikes, error, tenant)
        return self._event(self.clock.now, POLICY_STRIKE, SCHEMA[POLICY_STRIKE], values)

    def quarantine(self, policy: str, fallback: str, strikes: int) -> tuple:
        values = (policy, fallback, strikes)
        return self._event(self.clock.now, QUARANTINE, SCHEMA[QUARANTINE], values)

    def detach(self, tenant: str, objects: int, nbytes: int, quota: int) -> tuple:
        values = (tenant, objects, nbytes, quota)
        return self._event(self.clock.now, DETACH, SCHEMA[DETACH], values)

    def resize(self, device: str, old: int, new: int, via: str) -> tuple:
        values = (device, old, new, via)
        return self._event(self.clock.now, RESIZE, SCHEMA[RESIZE], values)

    def checkpoint(self, kind: str, label: str, kernels: int) -> tuple:
        return self._event(self.clock.now, kind, SCHEMA[kind], (label, kernels))

    def request(
        self, request: str, klass: str, outcome: str, seconds: float,
        queue_wait: float,
    ) -> tuple:
        values = (request, klass, outcome, seconds, queue_wait)
        return self._event(self.clock.now, REQUEST, SCHEMA[REQUEST], values)

    # -- attribution scopes -------------------------------------------------

    def scope(self, kind: str, subject: object = "") -> _Scope:
        """Open an attribution scope labelled ``kind[:subject]``."""
        label = subject_label(subject)
        return _Scope(self, f"{kind}:{label}" if label else kind)

    def hint(
        self, kind: str, subject: object, owed_reads: list = (), owed_writes: list = ()
    ) -> _Scope:
        """Emit a ``hint`` event and open its attribution scope.

        Opened around Table II hint delivery — by the executor, and by a
        policy's hint sweep around each operand it moves — so any movement
        a policy performs in response is attributed to the hint. A sweep
        passes the hints it still owes; they go out first (:meth:`hints`).
        """
        if owed_reads or owed_writes:
            self.hints(owed_reads, owed_writes)
        label = subject_label(subject)
        self._event(self.clock.now, HINT, SCHEMA[HINT], (kind, label))
        return _Scope(self, f"hint:{kind}:{label}")

    def hints(self, owed_reads: list, owed_writes: list) -> None:
        """Emit the ``hint`` events a policy's hint sweep owes — operands
        (:class:`~repro.core.object.MemObject`, never nameless) it moved
        nothing for — ``will_read`` then ``will_write``, in operand order,
        and empty both lists. No scope opens: nothing moved under them."""
        now, event, fields = self.clock.now, self._event, SCHEMA[HINT]
        for obj in owed_reads:
            event(now, HINT, fields, ("will_read", obj.name))
        for obj in owed_writes:
            event(now, HINT, fields, ("will_write", obj.name))
        owed_reads.clear()
        owed_writes.clear()

    @property
    def cause(self) -> str:
        """The innermost active scope label (empty outside any scope)."""
        return self._scopes[-1][0] if self._scopes else ""

    @property
    def root(self) -> str:
        """The outermost active scope label (empty outside any scope)."""
        return self._scopes[0][0] if self._scopes else ""

    def clear(self) -> None:
        """Drop collected events (between experiments; scopes are kept)."""
        self._records.clear()


class NullTracer:
    """The disabled tracer, and the seam's documented protocol.

    Every typed call an instrumented site can make is listed here with what
    it reports; here each does nothing. :class:`Tracer` turns the same calls
    into events.
    """

    enabled = False
    events = EventView()
    cause = ""
    root = ""
    stream = ""

    def emit(self, kind: str, **args: Any) -> None:
        return None

    def emit_at(self, ts: float, kind: str, **args: Any) -> None:
        return None

    def scope(self, kind: str, subject: object = "") -> _NullScope:
        return _NULL_SCOPE

    def hint(
        self, kind: str, subject: object, owed_reads: list = (), owed_writes: list = ()
    ) -> _NullScope:
        return _NULL_SCOPE

    def hints(self, owed_reads: list, owed_writes: list) -> None:
        """A hint sweep's owed ``hint`` events (operands it moved nothing
        for); the no-op leaves the lists as they are."""

    def clear(self) -> None:
        pass

    # -- mechanism (DataManager, CopyEngine, the 2LM adapter) ----------------

    def alloc(self, device, offset, nbytes, obj=None) -> None:
        """A region was allocated (``obj`` only where the site names one)."""

    def free(self, device, offset, nbytes, obj=None) -> None:
        """A region was freed."""

    def setprimary(self, obj, device, nbytes) -> None:
        """A region became its object's primary."""

    def setdirty(self, obj, device, nbytes, dirty) -> None:
        """A region's dirty bit actually flipped."""

    def evict_scan(self, device, depth, nbytes) -> None:
        """``evictfrom`` is about to free a span of ``depth`` victims."""

    def defrag(self, device, moves) -> None:
        """A heap compaction relocated ``moves`` blocks."""

    def copy(self, src, dst, nbytes, threads, seconds, completes_at, seq) -> None:
        """One copy, start to completion (``seq`` pairs start with end)."""

    def copy_retry(self, ts, src, dst, nbytes, attempt, reason) -> None:
        """A failed or corrupted copy attempt, charged and retried at ``ts``."""

    # -- policy decisions ----------------------------------------------------

    def place(self, obj, device, nbytes) -> None:
        """A policy chose a new object's first device."""

    def prefetch(self, obj, src, dst, nbytes) -> None:
        """A policy moved an object up to faster memory."""

    def evict(self, obj, src, dst, nbytes, clean) -> None:
        """A policy is about to move an object down (``clean``: no writeback)."""

    def decision(
        self, policy, action, device, need, chosen, considered, rejected,
        rejected_dropped, **extra,
    ) -> None:
        """A victim scan's outcome: the chosen and the rejected candidates."""

    # -- executor boundaries -------------------------------------------------

    def kernel_start(self, kernel) -> None:
        """A kernel is about to resolve its operands."""

    def kernel_end(self, kernel, seconds, compute, memory, fixed, phase) -> None:
        """A kernel finished; its duration and exact timing split."""

    def stall(self, kernel, seconds, late=()) -> None:
        """The stream waited on in-flight movement; ``late`` is the
        ``(object, seconds still outstanding)`` blame list."""

    def gc(self, seconds) -> None:
        """A garbage collection paused the stream."""

    def oom_retry(self, obj, nbytes) -> None:
        """An allocation failed and is entering the recovery ladder."""

    def invariant_check(self, kernels) -> None:
        """A paranoia-mode invariant sweep passed."""

    # -- robustness and elastic operations -----------------------------------

    def fault(self, site, device, op, index, detail) -> None:
        """The injector fired a fault."""

    def recovery_step(self, step, device, requested, free, acted, tenant) -> None:
        """One rung of the OOM escalation ladder ran."""

    def recovery(self, step, device, requested, steps, tenant) -> None:
        """The ladder recovered the allocation at rung ``step``."""

    def policy_strike(self, op, strikes, error, tenant) -> None:
        """The watchdog caught a policy failure."""

    def quarantine(self, policy, fallback, strikes) -> None:
        """The watchdog switched to the fallback policy."""

    def detach(self, tenant, objects, nbytes, quota) -> None:
        """A tenant departed; its objects and quota were reclaimed."""

    def resize(self, device, old, new, via) -> None:
        """A heap's capacity changed mid-run."""

    def checkpoint(self, kind, label, kernels) -> None:
        """A snapshot or restore boundary (``kind`` says which)."""

    def request(self, request, klass, outcome, seconds, queue_wait) -> None:
        """A serving request reached a final outcome."""


NULL_TRACER = NullTracer()
