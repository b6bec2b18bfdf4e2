"""A frequency-aware, self-adapting eviction policy (Section VI).

The paper's outlook cites DLRM-style workloads whose "locality of the data
changes based on user input" and concludes that "flexibility in the data
movement policy is required" (Hildebrand et al. [15]). Pure LRU mishandles
skewed random reuse: a burst of cold-tail lookups evicts the hot head.

:class:`AdaptivePolicy` extends the reference policy with:

* **decayed access frequency** per object (an exponential moving count,
  halved every ``decay_every`` hint events), and
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

from repro.core.object import MemObject, Region
from repro.policies.base import emit_decision
from repro.policies.optimizing import OptimizingPolicy

__all__ = ["AdaptivePolicy"]


class AdaptivePolicy(OptimizingPolicy):
    """Frequency/recency-blended victim selection with regret feedback."""

    def __init__(
        self,
        fast: str | None = "DRAM",
        slow: str = "NVRAM",
        *,
        alpha: float = 0.5,
        alpha_max: float = 0.7,
        alpha_step: float = 0.05,
        regret_window: int = 64,
        protect_window: int = 32,
        decay_every: int = 256,
        **kwargs: object,
    ) -> None:
        super().__init__(fast, slow, **kwargs)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if not 0.0 < alpha_max <= 1.0:
            raise ValueError(f"alpha_max must be in (0, 1], got {alpha_max}")
        # Recency must always retain some weight: a pure-frequency policy
        # evicts low-frequency-but-imminently-needed tensors (fresh
        # activations), which thrashes pipeline workloads.
        self.alpha_max = alpha_max
        self.alpha = min(alpha, alpha_max)
        self.alpha_step = alpha_step
        self.regret_window = regret_window
        # Segmented protection: objects touched within the last
        # ``protect_window`` hint events are never preferred victims —
        # in-flight activations stay resident regardless of their (still
        # tiny) frequency, like SLRU's protected segment.
        self.protect_window = protect_window
        self.decay_every = decay_every
        self._frequency: dict[int, float] = {}
        self._recency_clock = 0
        self._last_touch: dict[int, int] = {}
        self._first_seen: dict[int, int] = {}
        # obj id -> recency_clock at eviction time (bounded FIFO)
        self._recently_evicted: OrderedDict[int, int] = OrderedDict()
        self.regrets = 0
        self.quiet_evictions = 0

    # -- bookkeeping --------------------------------------------------------

    def _note_use(self, obj: MemObject) -> None:
        super()._note_use(obj)
        self._recency_clock += 1
        self._last_touch[obj.id] = self._recency_clock
        self._first_seen.setdefault(obj.id, self._recency_clock)
        self._frequency[obj.id] = self._frequency.get(obj.id, 0.0) + 1.0
        if self._recency_clock % self.decay_every == 0:
            for key in self._frequency:
                self._frequency[key] *= 0.5
        # Regret detection: touching something we just evicted means the
        # victim choice was wrong -> lean more on frequency.
        evicted_at = self._recently_evicted.pop(obj.id, None)
        if evicted_at is not None:
            if self._recency_clock - evicted_at <= self.regret_window:
                self.regrets += 1
                self.alpha = min(self.alpha_max, self.alpha + self.alpha_step)

    def _evict_region(self, region: Region) -> None:
        obj = region.parent
        super()._evict_region(region)
        if obj is not None:
            self._recently_evicted[obj.id] = self._recency_clock
            while len(self._recently_evicted) > 4 * self.regret_window:
                stale_id, _ = self._recently_evicted.popitem(last=False)
                # An eviction that aged out untouched was a good choice ->
                # drift back toward recency.
                self.quiet_evictions += 1
                self.alpha = max(0.0, self.alpha - self.alpha_step / 4)

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

    def _score(self, obj: MemObject) -> float:
        """Lower = better eviction victim."""
        recency = self._last_touch.get(obj.id, 0) / max(1, self._recency_clock)
        rate = self._rate(obj.id)
        max_rate = max(
            (self._rate(candidate_id) for candidate_id in self._frequency),
            default=1.0,
        )
        frequency = rate / max(max_rate, 1e-12)
        return (1.0 - self.alpha) * recency + self.alpha * frequency

    def _find_eviction_start(self, size: int) -> Region | None:
        assert self.fast is not None
        self.stats.forced_eviction_rounds += 1
        # Extra work only a full trace wants: the rejected-candidate list.
        traced = self.tracer.enabled
        candidates = [
            obj
            for obj in self.lru.coldest_first()
            if obj.primary is not None
            and obj.primary.device_name == self.fast
            and not obj.pinned
        ]
        horizon = self._recency_clock - self.protect_window
        probation = [
            c for c in candidates if self._last_touch.get(c.id, 0) <= horizon
        ]
        protected = [
            c for c in candidates if self._last_touch.get(c.id, 0) > horizon
        ]
        probation.sort(key=self._score)
        # Protected objects are last-resort victims, oldest-touch first.
        protected.sort(key=lambda c: self._last_touch.get(c.id, 0))
        candidates = probation + protected
        rejected: list[dict] | None = None
        segments: dict[int, str] | None = None
        if traced:
            # The pre-filter above silently dropped off-device/pinned objects;
            # surface those in the decision record too so the trace answers
            # "why was X never even scored?".
            rejected = []
            for rank, obj in self.lru.ranked():
                primary = obj.primary
                if primary is None or primary.device_name != self.fast:
                    rejected.append(
                        {"obj": obj.name, "rank": rank,
                         "reason": "not_resident_fast"}
                    )
                elif obj.pinned:
                    rejected.append(
                        {"obj": obj.name, "rank": rank, "reason": "pinned"}
                    )
            segments = {c.id: "probation" for c in probation}
            segments.update({c.id: "protected" for c in protected})
        considered = len(rejected) if rejected is not None else 0
        for candidate in candidates:
            considered += 1
            primary = candidate.primary
            assert primary is not None
            victims = self.manager.span_victims(self.fast, primary, size)
            entry: dict | None = None
            if rejected is not None and segments is not None:
                entry = {
                    "obj": candidate.name,
                    "score": self._score(candidate),
                    "segment": segments[candidate.id],
                }
            if victims is None:
                if entry is not None:
                    entry["reason"] = "no_contiguous_span"
                    rejected.append(entry)
                continue
            if any(v.parent is not None and v.parent.pinned for v in victims):
                if entry is not None:
                    entry["reason"] = "span_pinned"
                    rejected.append(entry)
                continue
            if rejected is not None and entry is not None:
                emit_decision(
                    self.tracer,
                    policy=type(self).__name__,
                    device=self.fast,
                    need=size,
                    chosen=candidate.name,
                    score=entry["score"],
                    segment=entry["segment"],
                    alpha=self.alpha,
                    probation=len(probation),
                    protected=len(protected),
                    rejected=rejected,
                    considered=considered,
                )
            return primary
        if rejected is not None:
            emit_decision(
                self.tracer,
                policy=type(self).__name__,
                device=self.fast,
                need=size,
                chosen="",
                alpha=self.alpha,
                probation=len(probation),
                protected=len(protected),
                rejected=rejected,
                considered=considered,
            )
        return None
