"""Hint-annotation pass: from semantic lifetimes to per-mode traces.

The paper inserts hints while compiling the model with Zygote (Section IV);
here the equivalent pass rewrites a raw kernel trace:

* **M on** (memory optimisations): every ``Free`` — the semantic death point
  — becomes an eager ``Retire``. "We retire arrays as soon as possible
  rather than relying solely on Julia's garbage collector."
* **M off**: ``Free`` becomes ``GcDefer`` — the tensor is dead but memory is
  reclaimed only when the collector runs, keeping the data alive longer than
  necessary (and forcing NVRAM writebacks of dead bytes when it is evicted).
* **archive** (Section III-E): "following kernel execution on the forward
  pass, archive is called on the weights, bias, and previous activations" —
  after each forward kernel, its read operands get an ``Archive`` hint
  (unless the very next event already frees them).

``will_read``/``will_write`` hints are issued per kernel by the executor,
in the policy's one ``acquire_operands`` call (they are positionally
determined: immediately before the kernel), so they do not appear as trace
events.

One walk per content. :func:`annotate` checks its input, rewrites it and
measures its peak live bytes in one walk, and never re-checks its output,
which is valid by construction (``tests/workloads/test_annotate.py`` holds
that as a property). It keeps what it derived on the raw trace, as a
:class:`~repro.workloads.trace.Prepared` in ``trace.prepared``: at most
``KEPT_ANNOTATIONS`` annotated event tuples keyed by the options, used only
while the trace's name, tensor table and events equal the ones they were
made from (compared element by element, identity first). Every call returns
a fresh ``KernelTrace`` with its own tensor table and event list over the
shared, frozen events, so a caller that runs one trace under several modes
walks it once per option set, and ``peak_live_bytes`` on that trace
answers from the same walk. ``KernelTrace.walk_lifetimes`` is the only
lifetime loop: ``validate`` and ``peak_live_bytes`` on a trace without a
valid kept result run it too. The kept result is never compared or
pickled.
"""

from __future__ import annotations

from repro.workloads.trace import (
    Alloc,
    Archive,
    Event,
    GcDefer,
    Kernel,
    KernelTrace,
    Prepared,
    Retire,
    WillRead,
)

__all__ = ["annotate"]

# Annotations kept per raw trace content: a figure runs each trace with
# memopt on and off.
KEPT_ANNOTATIONS = 2


def annotate(
    trace: KernelTrace,
    *,
    memopt: bool,
    archive_hints: bool = True,
    lookahead: int = 0,
) -> KernelTrace:
    """Rewrite a raw trace for one operating mode. Validates the input.

    ``lookahead > 0`` additionally emits explicit ``WillRead`` hints
    ``lookahead`` kernels ahead of each kernel's read set (never earlier
    than the operand's allocation). With a prefetching policy and an
    asynchronous copy engine, this is what lets data movement overlap with
    compute — the paper's Section VI / Figure 7 projection.

    The result is remembered on ``trace`` (module docstring): every call
    returns a new trace, but a trace whose content has not changed is
    walked once per option set.
    """
    key = (memopt, archive_hints, lookahead)
    prepared = trace.prepared
    if prepared is not None and not prepared.holds(trace):
        prepared = None
    events = None if prepared is None else prepared.annotated.get(key)
    if events is None:
        archives = {} if prepared is None else prepared.archives
        rewritten, footprint = _rewrite(trace, memopt, archive_hints, archives)
        if lookahead > 0:
            rewritten = _insert_lookahead_hints(rewritten, lookahead)
        if prepared is None:
            prepared = trace.prepared = Prepared(trace, footprint, archives)
        kept = prepared.annotated
        if len(kept) >= KEPT_ANNOTATIONS:
            del kept[next(iter(kept))]
        events = kept[key] = tuple(rewritten)
    suffix = f"{'M' if memopt else 'gc'}{'A' if archive_hints else ''}"
    if lookahead:
        suffix += f"+la{lookahead}"
    return KernelTrace(
        tensors=dict(trace.tensors), events=list(events), name=f"{trace.name}:{suffix}"
    )


def _rewrite(
    trace: KernelTrace, memopt: bool, archive_hints: bool, archives: dict[str, Archive]
) -> tuple[list[Event], int]:
    """Check, rewrite and measure ``trace`` in one walk
    (:meth:`KernelTrace.walk_lifetimes`): the annotated events without
    lookahead hints, and the raw peak live bytes. Raises ``validate()``'s
    error for an invalid trace. The output needs no check of its own: a
    ``Free`` becomes a ``Retire``/``GcDefer`` of the same tensor, and an
    ``Archive`` directly follows a kernel that read its tensor."""
    events: list[Event] = []
    footprint = trace.walk_lifetimes(
        events, Retire if memopt else GcDefer, archives if archive_hints else None
    )
    return events, footprint


def _insert_lookahead_hints(events: list[Event], lookahead: int) -> list[Event]:
    """Emit ``WillRead(t)`` ``lookahead`` kernels before each read of ``t``.

    Hints are clamped to after the operand's allocation and deduplicated
    per (tensor, insertion slot).
    """
    kernel_positions = [
        index for index, event in enumerate(events) if isinstance(event, Kernel)
    ]
    alloc_position: dict[str, int] = {}
    for index, event in enumerate(events):
        if isinstance(event, Alloc) and event.tensor not in alloc_position:
            alloc_position[event.tensor] = index
    # hints[i] = names to announce just before event index i
    hints: dict[int, list[str]] = {}
    emitted: set[tuple[int, str]] = set()
    for kernel_number, position in enumerate(kernel_positions):
        kernel = events[position]
        assert isinstance(kernel, Kernel)
        target_number = kernel_number - lookahead
        if target_number < 0:
            slot = kernel_positions[0]
        else:
            slot = kernel_positions[target_number]
        for name in kernel.reads:
            at = max(slot, alloc_position.get(name, 0) + 1)
            if at >= position:  # no room ahead of the kernel itself
                continue
            key = (at, name)
            if key not in emitted:
                emitted.add(key)
                hints.setdefault(at, []).append(name)
    out: list[Event] = []
    for index, event in enumerate(events):
        for name in hints.get(index, ()):
            out.append(WillRead(name))
        out.append(event)
    return out
