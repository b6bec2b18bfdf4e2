"""Outside-in span recorder: wraps a program's callables, folds spans by row.

A span is one call of a wrapped callable: name, start, end, and its parent,
which is whatever span is open on the recorder's single stack when it starts
(the simulator is single-threaded, so one stack is the whole call tree). A
traced pass of the CNN workloads opens a few million spans, and keeping them
raw would cost more memory than the simulator itself uses and so move the
numbers being measured; each span is therefore folded into its callable's row
the moment it closes — calls, total seconds, self seconds, calls that raised —
and the rows are what is written out at exit. Self time is the span's
duration minus the part of it covered by child spans.

Time spent inside a wrapper but outside its start/end marks (the bookkeeping
itself) lands in the *parent's* self time, so a callable that makes many tiny
wrapped calls reads high, and a tiny callable's own self time is mostly the
two clock reads. ``harness.trace_overhead`` reports the total distortion.

Generator functions get one span per *resume*: a span cannot stay open across
a ``yield`` (other streams run in between and would be mis-parented), so the
generator is handed out behind a proxy whose ``send`` is the wrapped callable.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Iterable

__all__ = ["SpanRecorder", "Row", "resolve_targets"]

CALLS, TOTAL, SELF, RAISED = 0, 1, 2, 3
Row = list  # [calls, total_s, self_s, raised]


class _ResumeSpans:
    """Iterator proxy around a generator: every resume is one span."""

    __slots__ = ("_gen", "send")

    def __init__(self, gen: Any, wrap: Callable[[Callable], Callable]) -> None:
        self._gen = gen
        self.send = wrap(gen.send)

    def __iter__(self) -> "_ResumeSpans":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def throw(self, *exc_info: Any) -> Any:
        return self._gen.throw(*exc_info)

    def close(self) -> None:
        self._gen.close()


class SpanRecorder:
    """Wraps callables, records their spans, and can put everything back."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.rows: dict[tuple[str, str], Row] = {}
        # One float per open span: seconds its closed children have covered.
        self._stack: list[float] = []
        # Seconds covered by spans that had no parent.
        self._root = [0.0]
        # (owner, attribute, original) for every attribute replaced.
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """Return ``fn`` wrapped so each call (or resume) is one span."""
        row = self.rows.setdefault((layer, name), [0, 0.0, 0.0, 0])
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args: Any, **kwargs: Any) -> _ResumeSpans:
                return _ResumeSpans(
                    fn(*args, **kwargs), lambda send: self._span(send, row)
                )

            return generator_wrapper
        return functools.wraps(fn)(self._span(fn, row))

    def _span(self, fn: Callable, row: Row) -> Callable:
        stack = self._stack
        root = self._root
        clock = self._clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                row[RAISED] += 1
                raise
            finally:
                elapsed = clock() - start
                row[CALLS] += 1
                row[TOTAL] += elapsed
                row[SELF] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    root[0] += elapsed

        return wrapper

    @property
    def root_seconds(self) -> float:
        """Seconds covered by top-level spans since the last :meth:`reset`."""
        return self._root[0]

    def reset(self) -> None:
        """Zero every row (the wrappers stay installed)."""
        for row in self.rows.values():
            row[:] = [0, 0.0, 0.0, 0]
        self._root[0] = 0.0

    def by_layer(self) -> dict[str, Row]:
        """Rows summed per layer."""
        layers: dict[str, Row] = {}
        for (layer, _), row in self.rows.items():
            total = layers.setdefault(layer, [0, 0.0, 0.0, 0])
            for i, value in enumerate(row):
                total[i] += value
        return layers

    # -- installing ------------------------------------------------------------

    def install(self, targets: Iterable[tuple[str, str, str]]) -> list[str]:
        """Wrap every ``(layer, module, qualname)`` target in place.

        A module-level function is replaced at every ``repro.*`` binding of
        it (``from x import f`` copies the reference, and the importing
        module is where the hot path looks it up); a ``Class.attr`` target is
        replaced in the class ``__dict__``, keeping ``staticmethod`` and
        ``classmethod`` descriptors. Returns the targets that did not resolve
        — the program moved on; the benchmark reports them instead of dying.
        """
        missing: list[str] = []
        for layer, owner, attr, label in resolve_targets(targets, missing):
            original = vars(owner)[attr]
            if isinstance(original, (staticmethod, classmethod)):
                wrapped: Any = type(original)(
                    self.wrap(original.__func__, layer, label)
                )
            else:
                wrapped = self.wrap(original, layer, label)
            if inspect.ismodule(owner):
                for module in _program_modules(owner.__name__):
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapped)
            else:
                self._patch(owner, attr, original, wrapped)
        return missing

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _program_modules(defining: str) -> list[Any]:
    package = defining.partition(".")[0]
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == package or name.startswith(package + "."))
    ]


def resolve_targets(
    targets: Iterable[tuple[str, str, str]], missing: list[str]
) -> list[tuple[str, Any, str, str]]:
    """Expand targets to ``(layer, owner, attribute, label)``.

    ``qualname`` is ``function`` or ``Class.attr``; a trailing ``*`` in the
    attribute matches every attribute of the class with that prefix.
    """
    resolved: list[tuple[str, Any, str, str]] = []
    for layer, module_name, qualname in targets:
        try:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{qualname}")
            continue
        prefix = qualname[: -len(attr)]
        if attr.endswith("*"):
            names = sorted(n for n in vars(owner) if n.startswith(attr[:-1]))
        else:
            names = [attr] if attr in vars(owner) else []
        if not names:
            missing.append(f"{module_name}:{qualname}")
        for name in names:
            resolved.append((layer, owner, name, prefix + name))
    return resolved
