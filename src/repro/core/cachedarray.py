"""CachedArray: the user-facing array handle.

A ``CachedArray`` is what application code holds: shape, dtype, and a
reference to a managed :class:`~repro.core.object.MemObject`. The actual
bytes live in whichever region the policy has made primary; user code reaches
them through :meth:`view` (real-backed sessions) after entering a kernel
scope, or simply calls numpy-style helpers that do it internally.

Hint methods (``will_read``/``will_write``/``will_use``/``archive``/
``retire``) forward to the session's policy — Table II of the paper. They are
*optional*: a CachedArray works with zero hints, just with fewer
opportunities for the policy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, ObjectStateError
from repro.core.object import MemObject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.session import Session

__all__ = ["CachedArray"]


class CachedArray:
    """An array whose backing memory is policy-managed across devices."""

    def __init__(
        self,
        session: "Session",
        obj: MemObject,
        shape: tuple[int, ...],
        dtype: np.dtype,
    ) -> None:
        self._session = session
        self._obj = obj
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        expected = int(math.prod(self.shape)) * self.dtype.itemsize
        if expected != obj.size:
            raise ConfigurationError(
                f"shape {self.shape} x {self.dtype} needs {expected} B "
                f"but object holds {obj.size} B"
            )

    # -- metadata ---------------------------------------------------------

    @property
    def obj(self) -> MemObject:
        return self._obj

    @property
    def session(self) -> "Session":
        return self._session

    @property
    def nbytes(self) -> int:
        return self._obj.size

    @property
    def size(self) -> int:
        return int(math.prod(self.shape))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def device(self) -> str:
        """Name of the device currently holding the primary copy."""
        primary = self._obj.primary
        if primary is None:
            raise ObjectStateError(f"{self._obj!r} has no primary region")
        return primary.device_name

    @property
    def retired(self) -> bool:
        return self._obj.retired

    # -- hints (Table II) ----------------------------------------------------

    def will_use(self) -> "CachedArray":
        self._session.policy.will_use(self._obj)
        return self

    # will_read/will_write take a kernel's per-operand hint path, so a
    # traced session records the hint and attributes the movement it
    # causes to it.

    def will_read(self) -> "CachedArray":
        session, obj = self._session, self._obj
        with session.tracer.hint("will_read", obj):
            session.policy.will_read(obj)
        return self

    def will_write(self) -> "CachedArray":
        session, obj = self._session, self._obj
        with session.tracer.hint("will_write", obj):
            session.policy.will_write(obj)
        return self

    def archive(self) -> "CachedArray":
        self._session.policy.archive(self._obj)
        return self

    def retire(self) -> None:
        """Declare this array dead. Any later use raises (and only improper
        use of retire affects correctness — Section III-D)."""
        self._session.release(self)

    # -- data access (real-backed sessions) -------------------------------------

    def view(self) -> np.ndarray:
        """A zero-copy numpy view of the primary region's bytes.

        Valid only while the primary does not move; use inside a
        ``session.kernel(...)`` scope, which pins the object.
        """
        primary = self._obj.primary
        if primary is None:
            raise ObjectStateError(f"{self._obj!r} has no primary region")
        raw = primary.heap.view(primary.offset, self.nbytes)
        return raw.view(self.dtype).reshape(self.shape)

    def read(self) -> np.ndarray:
        """Hint + pinned copy-out: a safe snapshot of the current contents."""
        self._session.policy.will_read(self._obj)
        with self._session.kernel(reads=[self]) as (views, _):
            return views[0].copy()

    def write(self, values: np.ndarray | float) -> "CachedArray":
        """Hint + pinned write of ``values`` into the array."""
        self._session.policy.will_write(self._obj)
        with self._session.kernel(writes=[self]) as (_, views):
            views[0][...] = values
        return self

    def __array__(self, dtype: object = None) -> np.ndarray:
        data = self.read()
        return data.astype(dtype) if dtype is not None else data

    def __repr__(self) -> str:
        where = "retired" if self.retired else f"on {self.device}"
        return (
            f"CachedArray(shape={self.shape}, dtype={self.dtype.name}, "
            f"{where}, obj={self._obj.name!r})"
        )
