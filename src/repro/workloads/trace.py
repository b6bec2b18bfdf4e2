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
]


@dataclass(frozen=True)
class TensorSpec:
    """One logical tensor of a workload."""

    name: str
    nbytes: int
    kind: str = "temp"  # weight | gradient | activation | input | temp | state
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise TraceError(f"tensor {self.name!r} has non-positive size")


@dataclass(frozen=True)
class Alloc:
    tensor: str


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Free:
    """Semantic death point of a tensor (raw traces only)."""

    tensor: str


@dataclass(frozen=True)
class Retire:
    """Eagerly reclaim a tensor (annotated traces, M enabled)."""

    tensor: str


@dataclass(frozen=True)
class GcDefer:
    """The tensor is dead, but reclamation waits for the collector."""

    tensor: str


@dataclass(frozen=True)
class Archive:
    """Table II ``archive``: not used for some time; prefer as a victim."""

    tensor: str


@dataclass(frozen=True)
class WillRead:
    """Table II ``will_read``, issued explicitly ahead of the kernel.

    The executor also issues implicit will_read/will_write immediately
    before each kernel; explicit events exist so the annotation pass can
    give the policy *lookahead* (prefetches overlap with preceding kernels
    when the copy engine is asynchronous)."""

    tensor: str


@dataclass(frozen=True)
class WillWrite:
    """Table II ``will_write``, issued explicitly ahead of the kernel."""

    tensor: str


@dataclass(frozen=True)
class IterEnd:
    """End of one training iteration (GC + defragmentation point)."""


Event = (
    Alloc | Kernel | Free | Retire | GcDefer | Archive | WillRead | WillWrite
    | IterEnd
)


@dataclass
class KernelTrace:
    """A tensor table plus an ordered event stream for one iteration."""

    tensors: dict[str, TensorSpec] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    name: str = "trace"

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
        footprint the paper reports).
        """
        live = 0
        peak = 0
        sizes = {name: spec.nbytes for name, spec in self.tensors.items()}
        seen: set[str] = set()
        for event in self.events:
            if isinstance(event, Alloc) and event.tensor not in seen:
                seen.add(event.tensor)
                live += sizes[event.tensor]
                peak = max(peak, live)
            elif isinstance(event, (Free, Retire, GcDefer)):
                live -= sizes[event.tensor]
        return peak

    def total_kernel_flops(self) -> float:
        return sum(k.flops for k in self.kernels())

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Reject inconsistent traces (use-before-alloc, use-after-free...)."""
        live: dict[str, None] = {}  # in allocation order
        dead: set[str] = set()

        def check_use(name: str, what: str) -> None:
            if name not in self.tensors:
                raise TraceError(f"{what} of unknown tensor {name!r}")
            if name in dead:
                raise TraceError(f"{what} of dead tensor {name!r}")
            if name not in live:
                raise TraceError(f"{what} of unallocated tensor {name!r}")

        for event in self.events:
            if isinstance(event, Alloc):
                if event.tensor not in self.tensors:
                    raise TraceError(f"Alloc of unknown tensor {event.tensor!r}")
                if event.tensor in live:
                    raise TraceError(f"double Alloc of {event.tensor!r}")
                if event.tensor in dead:
                    raise TraceError(f"Alloc of dead tensor {event.tensor!r}")
                live[event.tensor] = None
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
                # A live name is in the table and not dead: only a failing
                # operand pays for the label and the call.
                for name in event.reads:
                    if name not in live:
                        check_use(name, f"kernel {event.name!r} read")
                for name in event.writes:
                    if name not in live:
                        check_use(name, f"kernel {event.name!r} write")
            elif isinstance(event, (Free, Retire, GcDefer)):
                check_use(event.tensor, type(event).__name__)
                if self.tensors[event.tensor].persistent:
                    raise TraceError(
                        f"persistent tensor {event.tensor!r} cannot be freed"
                    )
                del live[event.tensor]
                dead.add(event.tensor)
            elif isinstance(event, (Archive, WillRead, WillWrite)):
                check_use(event.tensor, type(event).__name__)
        for name in live:
            if not self.tensors[name].persistent:
                raise TraceError(f"non-persistent tensor {name!r} never freed")

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
