"""Data-movement policies.

The paper evaluates one policy family with three independently toggleable
optimisations (Section IV):

* **L** — local temporary allocations: new arrays may be born directly in
  fast memory instead of NVRAM-first;
* **M** — memory optimisations: eager ``retire`` instead of relying on the
  garbage collector (this toggle lives in the *trace annotation*, see
  :mod:`repro.workloads.annotate`, but is surfaced in the mode names);
* **P** — prefetching: ``will_read`` pulls objects into fast memory ahead of
  the kernel.

:mod:`repro.policies.base` contains the four building blocks of the paper's
Listings 1 and 2 against the data-management API: ``evict_object``
(Listing 1), ``prefetch_object`` (Listing 2), ``find_eviction_start`` (its
``find_region`` victim scan) and ``make_room`` (its "pick a start,
``evictfrom``" step). :class:`~repro.policies.optimizing.OptimizingPolicy`
composes them with LRU victim order.
"""

from repro.policies.base import (
    evict_object,
    find_eviction_start,
    make_room,
    prefetch_object,
)
from repro.policies.lru import LruTracker
from repro.policies.noop import PinnedPolicy, SingleDevicePolicy
from repro.policies.optimizing import OptimizingPolicy
from repro.policies.adaptive import AdaptivePolicy
from repro.policies.multitier import MultiTierPolicy
from repro.policies.interleave import FirstTouchPolicy, InterleavePolicy
from repro.policies.modes import ModeConfig, MODES, mode

__all__ = [
    "evict_object",
    "prefetch_object",
    "find_eviction_start",
    "make_room",
    "LruTracker",
    "PinnedPolicy",
    "SingleDevicePolicy",
    "OptimizingPolicy",
    "AdaptivePolicy",
    "MultiTierPolicy",
    "InterleavePolicy",
    "FirstTouchPolicy",
    "ModeConfig",
    "MODES",
    "mode",
]
