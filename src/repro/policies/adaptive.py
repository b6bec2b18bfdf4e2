"""A frequency-aware, self-adapting eviction policy (Section VI).

The paper's outlook cites DLRM-style workloads whose "locality of the data
changes based on user input" and concludes that "flexibility in the data
movement policy is required" (Hildebrand et al. [15]). Pure LRU mishandles
skewed random reuse: a burst of cold-tail lookups evicts the hot head.

:class:`AdaptivePolicy` extends the reference policy with:

* **decayed access frequency** per object (an exponential moving count,
  halved every ``DECAY_EVERY`` hint events), and
* **victim scoring** that blends recency rank with frequency:
  ``score = (1 - alpha) * recency + alpha * frequency`` — lowest score is
  evicted first;
* **self-adaptation** of ``alpha``: every eviction is remembered for a
  window; if the object is touched again soon ("eviction regret"), the
  policy shifts weight toward frequency; if evictions stay quiet, it drifts
  back toward recency, which handles the hot set itself shifting.

Everything else — placement, hints, the Listing-1/2 mechanics — is inherited
unchanged, demonstrating the framework's claim that policies are swappable
without touching applications or the data manager.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Sequence

from repro.core.object import MemObject, Region
from repro.core.policy_api import operand_intents
from repro.policies.base import find_eviction_start
from repro.policies.optimizing import OptimizingPolicy
from repro.telemetry.trace import NULL_TRACER

__all__ = ["AdaptivePolicy"]


class AdaptivePolicy(OptimizingPolicy):
    """Frequency/recency-blended victim selection with regret feedback."""

    # Recency must always retain some weight: a pure-frequency policy
    # evicts low-frequency-but-imminently-needed tensors (fresh
    # activations), which thrashes pipeline workloads.
    ALPHA_MAX = 0.7
    ALPHA_STEP = 0.05
    # Hint events within which touching an evicted object counts as regret.
    REGRET_WINDOW = 64
    # Segmented protection: objects touched within the last
    # ``PROTECT_WINDOW`` hint events are never preferred victims —
    # in-flight activations stay resident regardless of their (still
    # tiny) frequency, like SLRU's protected segment.
    PROTECT_WINDOW = 32
    # Frequencies are halved every this many hint events.
    DECAY_EVERY = 256

    def __init__(
        self,
        fast: str = "DRAM",
        slow: str = "NVRAM",
        *,
        alpha: float = 0.5,
        **kwargs: object,
    ) -> None:
        super().__init__(fast, slow, **kwargs)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = min(alpha, self.ALPHA_MAX)
        self._frequency: dict[int, float] = {}
        self._recency_clock = 0
        self._last_touch: dict[int, int] = {}
        self._first_seen: dict[int, int] = {}
        # obj id -> recency_clock at eviction time (bounded FIFO)
        self._recently_evicted: OrderedDict[int, int] = OrderedDict()
        self.regrets = 0
        self.quiet_evictions = 0

    # -- bookkeeping --------------------------------------------------------

    def acquire_operands(
        self,
        reads: Sequence[MemObject],
        writes: Sequence[MemObject],
        hinted: bool,
        pinned: list[MemObject],
        tracer=NULL_TRACER,
    ) -> None:
        """The two sweeps, each noting its own uses when it ends.

        Every use of every sweep counts here (the recency clock, regret
        detection and alpha read the counts), so a kernel does not take the
        reference policy's one pass, which leaves the last uses to
        :meth:`on_kernel_finish`.
        """
        if hinted:
            self._hint_operands(reads, writes, tracer)
        self._resolve_operands(operand_intents(reads, writes), pinned, tracer)

    def _note_uses(self, objs: list[MemObject]) -> None:
        super()._note_uses(objs)
        for obj in objs:
            self._recency_clock += 1
            self._last_touch[obj.id] = self._recency_clock
            self._first_seen.setdefault(obj.id, self._recency_clock)
            self._frequency[obj.id] = self._frequency.get(obj.id, 0.0) + 1.0
            if self._recency_clock % self.DECAY_EVERY == 0:
                for key in self._frequency:
                    self._frequency[key] *= 0.5
            # Regret detection: touching something we just evicted means the
            # victim choice was wrong -> lean more on frequency.
            evicted_at = self._recently_evicted.pop(obj.id, None)
            if evicted_at is not None:
                if self._recency_clock - evicted_at <= self.REGRET_WINDOW:
                    self.regrets += 1
                    self.alpha = min(self.ALPHA_MAX, self.alpha + self.ALPHA_STEP)

    def _evict_region(self, region: Region) -> None:
        obj = region.parent
        super()._evict_region(region)
        if obj is not None:
            self._recently_evicted[obj.id] = self._recency_clock
            while len(self._recently_evicted) > 4 * self.REGRET_WINDOW:
                stale_id, _ = self._recently_evicted.popitem(last=False)
                # An eviction that aged out untouched was a good choice ->
                # drift back toward recency.
                self.quiet_evictions += 1
                self.alpha = max(0.0, self.alpha - self.ALPHA_STEP / 4)

    def retire(self, obj: MemObject) -> None:
        self._frequency.pop(obj.id, None)
        self._last_touch.pop(obj.id, None)
        self._first_seen.pop(obj.id, None)
        self._recently_evicted.pop(obj.id, None)
        super().retire(obj)

    # -- victim selection -------------------------------------------------------

    def _rate(self, obj_id: int) -> float:
        """Access *rate* (frequency over age): a brand-new object with one
        access is hot, not unpopular — normalising by age avoids evicting
        fresh activations the way raw counts would (the LRFU insight)."""
        age = max(1, self._recency_clock - self._first_seen.get(obj_id, 0) + 1)
        return self._frequency.get(obj_id, 0.0) / age

    def _score(self, obj: MemObject, max_rate: float) -> float:
        """Lower = better eviction victim. ``max_rate`` is the highest
        :meth:`_rate` of any tracked object, taken once per scan."""
        recency = self._last_touch.get(obj.id, 0) / max(1, self._recency_clock)
        frequency = self._rate(obj.id) / max(max_rate, 1e-12)
        return (1.0 - self.alpha) * recency + self.alpha * frequency

    def _find_eviction_start(self, size: int) -> Region | None:
        """Victim order: probation by blended score, then protected by last
        touch; objects that were never scored (off-device, pinned) go first
        in recency order so a trace answers "why was X never even scored?".
        """
        self.stats.forced_eviction_rounds += 1
        horizon = self._recency_clock - self.PROTECT_WINDOW
        last_touch = self._last_touch
        skipped: list[tuple[int, MemObject]] = []
        probation: list[MemObject] = []
        protected: list[MemObject] = []
        for rank, obj in self.lru.ranked():
            primary = obj.primary
            if primary is None or primary.device_name != self.fast or obj.pinned:
                skipped.append((rank, obj))
            elif last_touch.get(obj.id, 0) <= horizon:
                probation.append(obj)
            else:
                protected.append(obj)
        # No hint lands mid-scan, so one normaliser serves every score.
        max_rate = max(map(self._rate, self._frequency), default=1.0)
        probation.sort(key=lambda c: self._score(c, max_rate))
        # Protected objects are last-resort victims, oldest-touch first.
        protected.sort(key=lambda c: last_touch.get(c.id, 0))

        def describe(rank: int | None, candidate: MemObject) -> dict:
            if rank is not None:
                return {"rank": rank}
            in_probation = last_touch.get(candidate.id, 0) <= horizon
            return {
                "score": self._score(candidate, max_rate),
                "segment": "probation" if in_probation else "protected",
            }

        return find_eviction_start(
            self.manager,
            self.tracer,
            self.fast,
            size,
            chain(skipped, ((None, c) for c in probation + protected)),
            policy=type(self).__name__,
            absent="not_resident_fast",
            describe=describe,
            alpha=self.alpha,
            probation=len(probation),
            protected=len(protected),
        )
