"""Kernel traces: one training iteration as a validated event stream.

A raw trace (produced by :mod:`repro.nn.graph` or the synthetic generators)
contains :class:`Alloc`, :class:`Kernel`, :class:`Free`, and :class:`IterEnd`
events with *exact* tensor lifetimes: a ``Free`` sits at the semantic death
point (last use) of its tensor. The annotation pass then rewrites ``Free``
into either :class:`Retire` (eager, the **M** optimisation) or
:class:`GcDefer` (the tensor is dead but only the garbage collector will
reclaim it), and inserts :class:`Archive` hints.

Tensors are identified by name. ``persistent`` tensors (weights, optimiser
state) survive across iterations: their ``Alloc`` is a no-op after the first
iteration and they never carry a ``Free``.

``TensorSpec`` and every event class are frozen, slotted dataclasses: a
trace's events are shared values, so one event object may sit in many
traces (the annotation pass hands every mode the same ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Iterable, Iterator

from repro.errors import TraceError

__all__ = [
    "TensorSpec",
    "Alloc",
    "Kernel",
    "Free",
    "Retire",
    "GcDefer",
    "Archive",
    "WillRead",
    "WillWrite",
    "IterEnd",
    "Event",
    "KernelTrace",
    "Prepared",
]


@dataclass(frozen=True, slots=True)
class TensorSpec:
    """One logical tensor of a workload."""

    name: str
    nbytes: int
    kind: str = "temp"  # weight | gradient | activation | input | temp | state
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise TraceError(f"tensor {self.name!r} has non-positive size")


@dataclass(frozen=True, slots=True)
class Alloc:
    tensor: str


@dataclass(frozen=True, slots=True)
class Kernel:
    """One compute kernel: operand names, work, and traffic factors.

    ``read_factor``/``write_factor`` scale the memory traffic relative to the
    operands' logical size, modelling cache-blocking re-reads inside oneDNN
    kernels (a VGG-class kernel re-reads its spatially-large inputs more than
    a ResNet-class one). ``read_sensitivity`` is the fraction of NVRAM read
    service time the kernel cannot hide behind compute — the paper finds
    "some operations are not sensitive to the bandwidth of their read-only
    arguments" (ResNet/DenseNet) while "the kernels composing VGG are more
    sensitive to read bandwidth" (Section V). See EXPERIMENTS.md calibration
    notes.
    """

    name: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    flops: float
    phase: str = "forward"  # forward | backward | update
    read_factor: float = 1.0
    write_factor: float = 1.0
    read_sensitivity: float = 1.0
    # Hints are *selective* (Section III-E inserts them per call site):
    # scan-like kernels set hinted=False so the executor does not announce
    # will_read/will_write for their operands — a full-table pass should
    # not trigger prefetching or write-migrations.
    hinted: bool = True


@dataclass(frozen=True, slots=True)
class Free:
    """Semantic death point of a tensor (raw traces only)."""

    tensor: str


@dataclass(frozen=True, slots=True)
class Retire:
    """Eagerly reclaim a tensor (annotated traces, M enabled)."""

    tensor: str


@dataclass(frozen=True, slots=True)
class GcDefer:
    """The tensor is dead, but reclamation waits for the collector."""

    tensor: str


@dataclass(frozen=True, slots=True)
class Archive:
    """Table II ``archive``: not used for some time; prefer as a victim."""

    tensor: str


@dataclass(frozen=True, slots=True)
class WillRead:
    """Table II ``will_read``, issued explicitly ahead of the kernel.

    The executor also issues implicit will_read/will_write immediately
    before each kernel; explicit events exist so the annotation pass can
    give the policy *lookahead* (prefetches overlap with preceding kernels
    when the copy engine is asynchronous)."""

    tensor: str


@dataclass(frozen=True, slots=True)
class WillWrite:
    """Table II ``will_write``, issued explicitly ahead of the kernel."""

    tensor: str


@dataclass(frozen=True, slots=True)
class IterEnd:
    """End of one training iteration (GC + defragmentation point)."""


Event = (
    Alloc | Kernel | Free | Retire | GcDefer | Archive | WillRead | WillWrite
    | IterEnd
)


class Prepared:
    """What the annotation pass derived from one content of a raw trace.

    It copies the content it was made from (name, tensor table, event
    list) and holds that content's peak live bytes, the annotated event
    tuples keyed by annotation options, and one ``Archive`` per tensor
    name for those tuples to share. :meth:`holds` says whether a trace
    still has that content; the comparison is element by element, and
    an unchanged element compares by identity.
    """

    __slots__ = ("name", "tensors", "events", "footprint", "annotated", "archives")

    def __init__(
        self, trace: "KernelTrace", footprint: int, archives: dict[str, "Archive"]
    ) -> None:
        self.name = trace.name
        self.tensors = dict(trace.tensors)
        self.events = list(trace.events)
        self.footprint = footprint
        self.annotated: dict[tuple, tuple[Event, ...]] = {}
        self.archives = archives

    def holds(self, trace: "KernelTrace") -> bool:
        return (
            self.name == trace.name
            and self.events == trace.events
            and self.tensors == trace.tensors
        )


@dataclass
class KernelTrace:
    """A tensor table plus an ordered event stream for one iteration."""

    tensors: dict[str, TensorSpec] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    name: str = "trace"
    # What annotate derived from this trace's content; derived state, never
    # compared, shown or pickled.
    prepared: Prepared | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("prepared", None)
        return state

    # -- construction helpers ----------------------------------------------

    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        if spec.name in self.tensors:
            raise TraceError(f"duplicate tensor {spec.name!r}")
        self.tensors[spec.name] = spec
        return spec

    def tensor(self, name: str) -> TensorSpec:
        try:
            return self.tensors[name]
        except KeyError:
            raise TraceError(f"unknown tensor {name!r} in {self.name!r}") from None

    def append(self, event: Event) -> None:
        self.events.append(event)

    def kernels(self) -> Iterator[Kernel]:
        return (e for e in self.events if isinstance(e, Kernel))

    # -- derived metrics ------------------------------------------------------

    def peak_live_bytes(self) -> int:
        """Maximum bytes simultaneously live — Table III's 'footprint'.

        Persistent tensors count from their first Alloc onward; others
        between Alloc and Free/Retire/GcDefer (a GC-deferred tensor is
        semantically dead, so it does not count toward the *minimum* memory
        footprint the paper reports). A trace annotated since its last
        change answers from the annotation pass's walk; any other trace is
        walked (:meth:`walk_lifetimes`), so an inconsistent one raises.
        """
        prepared = self.prepared
        if prepared is not None and prepared.holds(self):
            return prepared.footprint
        return self.walk_lifetimes()

    def total_kernel_flops(self) -> float:
        return sum(k.flops for k in self.kernels())

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Reject inconsistent traces (use-before-alloc, use-after-free...)."""
        self.walk_lifetimes()

    def walk_lifetimes(
        self,
        out: list[Event] | None = None,
        free_as: type | None = None,
        archives: dict[str, Archive] | None = None,
    ) -> int:
        """:meth:`validate`'s walk: raises on the first inconsistent event,
        returns the peak live bytes (:meth:`peak_live_bytes`).

        With ``out``, the same walk also writes the annotation pass's
        rewrite of every event into it: a ``Free`` becomes
        ``free_as(tensor)``, and, when ``archives`` is given, a forward
        kernel is followed by an ``Archive`` of each operand it reads that
        none of the next ``len(reads)`` events frees (archiving a tensor
        that dies right away would be pure hint noise). ``archives`` keeps
        one ``Archive`` per tensor name, to share across rewrites.
        """
        tensors = self.tensors
        live: dict[str, None] = {}  # in allocation order
        dead: set[str] = set()
        live_bytes = peak = 0
        freed_next: set[str] = set()

        def check_use(name: str, what: str) -> None:
            if name not in tensors:
                raise TraceError(f"{what} of unknown tensor {name!r}")
            if name in dead:
                raise TraceError(f"{what} of dead tensor {name!r}")
            raise TraceError(f"{what} of unallocated tensor {name!r}")

        # A live name is in the table and not dead: only a failing use
        # pays for the label and the call.
        raw = self.events
        for index, event in enumerate(raw):
            if isinstance(event, Alloc):
                name = event.tensor
                if name not in tensors:
                    raise TraceError(f"Alloc of unknown tensor {name!r}")
                if name in live:
                    raise TraceError(f"double Alloc of {name!r}")
                if name in dead:
                    raise TraceError(f"Alloc of dead tensor {name!r}")
                live[name] = None
                live_bytes += tensors[name].nbytes
                if live_bytes > peak:
                    peak = live_bytes
            elif isinstance(event, Kernel):
                # Both memory systems trust these: caught here, before either
                # moves data (an infinite factor would never finish a sweep).
                rf, wf = event.read_factor, event.write_factor
                s = event.read_sensitivity
                if not (0.0 <= rf < inf and 0.0 <= wf < inf and 0.0 <= s <= 1.0):
                    raise TraceError(
                        f"kernel {event.name!r}: traffic factors ({rf}, {wf}) must be "
                        f"finite and >= 0, read_sensitivity ({s}) in [0,1]"
                    )
                for name in event.reads:
                    if name not in live:
                        check_use(name, f"kernel {event.name!r} read")
                for name in event.writes:
                    if name not in live:
                        check_use(name, f"kernel {event.name!r} write")
                if archives is not None and event.phase == "forward":
                    out.append(event)
                    freed_next.clear()
                    for successor in raw[index + 1 : index + 1 + len(event.reads)]:
                        if isinstance(successor, Free):
                            freed_next.add(successor.tensor)
                    for name in event.reads:
                        if name not in freed_next:
                            archive = archives.get(name)
                            if archive is None:
                                archive = archives[name] = Archive(name)
                            out.append(archive)
                    continue
            elif isinstance(event, (Free, Retire, GcDefer)):
                name = event.tensor
                if name not in live:
                    check_use(name, type(event).__name__)
                spec = tensors[name]
                if spec.persistent:
                    raise TraceError(f"persistent tensor {name!r} cannot be freed")
                del live[name]
                dead.add(name)
                live_bytes -= spec.nbytes
                if free_as is not None and isinstance(event, Free):
                    event = free_as(name)
            elif isinstance(event, (Archive, WillRead, WillWrite)):
                if event.tensor not in live:
                    check_use(event.tensor, type(event).__name__)
            if out is not None:
                out.append(event)
        for name in live:
            if not tensors[name].persistent:
                raise TraceError(f"non-persistent tensor {name!r} never freed")
        return peak

    def with_events(self, events: Iterable[Event], suffix: str) -> "KernelTrace":
        """A sibling trace with the same tensor table but new events."""
        return KernelTrace(
            tensors=dict(self.tensors),
            events=list(events),
            name=f"{self.name}:{suffix}",
        )

    def scaled(self, factor: int) -> "KernelTrace":
        """Shrink every tensor (and kernel flops) by an integer factor.

        Used to run paper-shaped workloads quickly; sizes keep their relative
        proportions so placement behaviour is preserved (pair with equally
        scaled device capacities).
        """
        if factor < 1:
            raise TraceError(f"scale factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        # Built directly (dataclasses.replace costs a field walk per copy);
        # __post_init__ checks run as before.
        tensors = {
            name: TensorSpec(
                spec.name, max(64, spec.nbytes // factor), spec.kind, spec.persistent
            )
            for name, spec in self.tensors.items()
        }
        events: list[Event] = [
            Kernel(
                e.name, e.reads, e.writes, e.flops / factor, e.phase,
                e.read_factor, e.write_factor, e.read_sensitivity, e.hinted,
            )
            if isinstance(e, Kernel)
            else e
            for e in self.events
        ]
        return KernelTrace(
            tensors=tensors, events=events, name=f"{self.name}/scale{factor}"
        )
