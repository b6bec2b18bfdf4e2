"""Serving-scale simulation: open-loop request traffic on the shared runtime.

Every other experiment fixes a workload and measures how fast the memory
system runs it. Serving inverts the question — *load* is the independent
variable: a seeded open-loop arrival process delivers client requests at a
configured rate (requests/s), and the report is SLO-shaped — latency
percentiles, goodput, rejection rate, fairness — as a function of that
rate, swept past saturation. The shape follows continuous-batching LLM
servers (llama.cpp's ``examples/parallel``): a fixed number of *slots*,
each serving one request at a time and reused across departures.

Each request is a short-lived tenant :class:`~repro.core.session.Session`
with KV-cache-like object lifetimes: a prompt tensor, then one appended KV
block per decode step (the working set *grows* with sequence position, and
every decode kernel reads the whole cache so far), all freed on completion.
A request that outlives the client's patience is **disconnected**:
the driver calls :meth:`SharedRuntime.detach`, which cancels its stream,
reclaims its objects through the normal free path, and refunds its DRAM
quota — the slot is reused by the next queued request.

Admission control (docs/serving.md):

* a request *declares* its peak footprint on arrival; the admission budget
  is the shared DRAM capacity times ``OVERSUBSCRIPTION``;
* an arrival is **admitted** when a slot is free and the declared bytes
  fit the remaining budget, **queued** (bounded FIFO, no overtaking) when
  not, and **rejected** when the queue is full;
* a queued request whose patience expires before admission **times out**
  (reneges); both count against the rejection rate.

Determinism: arrivals use *common random numbers* — one seeded uniform
sequence shared by every rate point, scaled by the rate — so a higher rate
replays the identical request sequence compressed in time. Same seed +
config → bit-identical results, pinned by :meth:`ServingResult.digest`
(``repro serve --check`` runs the sweep twice and compares).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from repro.core.session import Session, SharedRuntime
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentConfig,
    float_hex_digest,
    tenant_executor,
)
from repro.policies.modes import ModeConfig, mode as resolve_mode
from repro.runtime.executor import Executor
from repro.runtime.scheduler import StreamScheduler
from repro.telemetry.counters import TrafficSnapshot
from repro.telemetry.monitor import QuantileSketch
from repro.units import GB
from repro.workloads.annotate import annotate
from repro.workloads.trace import (
    Alloc,
    Free,
    IterEnd,
    Kernel,
    KernelTrace,
    TensorSpec,
)

__all__ = [
    "ADMIT_MARGIN",
    "DRAM_FRACTION",
    "OVERSUBSCRIPTION",
    "PATIENCE_FACTOR",
    "QUEUE_DEPTH",
    "RequestClass",
    "REQUEST_CLASSES",
    "ServingConfig",
    "PointResult",
    "ServingResult",
    "CHECK_MULTIPLIERS",
    "request_trace",
    "run_serving",
    "check_serving",
    "render",
]

# Final request outcomes (docs/serving.md, "Request lifecycle").
COMPLETED = "completed"        # ran to completion before the deadline
REJECTED = "rejected"          # bounced at arrival: queue full (or oversized)
TIMED_OUT = "timed_out"        # reneged: patience expired while queued
DISCONNECTED = "disconnected"  # detached mid-run: patience expired in a slot

# Internal pre-final states.
_PENDING = "pending"
_QUEUED = "queued"
_RUNNING = "running"

# Busy-map category for the driver stream's waits between arrivals.
_WAIT = "wait"

# Slack for comparing float virtual times accumulated through clock.advance.
_EPS = 1e-12


@dataclass(frozen=True)
class RequestClass:
    """One request-length class (sizes at paper magnitudes, pre-``scale``)."""

    name: str
    prompt_bytes: int
    kv_bytes: int        # one appended KV block per decode step
    decode_steps: int
    prefill_flops: float
    decode_flops: float
    weight: float        # probability in the arrival mix


# Short/medium/long request mix: sequence length (and so footprint and
# service time) spans ~4x, which is what makes fairness worth reporting.
REQUEST_CLASSES: tuple[RequestClass, ...] = (
    RequestClass("short", 1 * GB, GB // 2, 6, 2e12, 2e11, 0.5),
    RequestClass("medium", 2 * GB, GB // 2, 12, 4e12, 2e11, 0.3),
    RequestClass("long", 3 * GB, GB // 2, 24, 6e12, 2e11, 0.2),
)


def request_trace(cls: RequestClass) -> KernelTrace:
    """One request as a kernel trace with KV-cache lifetimes.

    Prefill reads the prompt and writes the first KV block; each decode
    step appends a new block and reads the prompt plus *every* block so
    far (the attention working set grows with sequence position). All
    blocks die together when the request completes — the append-heavy,
    free-at-once shape that stresses admission and slot reuse.
    """
    trace = KernelTrace(name=f"req-{cls.name}")
    trace.add_tensor(TensorSpec("prompt", cls.prompt_bytes, kind="input"))
    trace.append(Alloc("prompt"))
    trace.add_tensor(TensorSpec("kv0", cls.kv_bytes, kind="activation"))
    trace.append(Alloc("kv0"))
    trace.append(
        Kernel(
            name="prefill",
            reads=("prompt",),
            writes=("kv0",),
            flops=cls.prefill_flops,
            phase="prefill",
        )
    )
    for step in range(1, cls.decode_steps + 1):
        trace.add_tensor(TensorSpec(f"kv{step}", cls.kv_bytes, kind="activation"))
        trace.append(Alloc(f"kv{step}"))
        trace.append(
            Kernel(
                name=f"decode{step}",
                reads=("prompt",) + tuple(f"kv{i}" for i in range(step)),
                writes=(f"kv{step}",),
                flops=cls.decode_flops,
                phase="decode",
            )
        )
    for step in range(cls.decode_steps + 1):
        trace.append(Free(f"kv{step}"))
    trace.append(Free("prompt"))
    trace.append(IterEnd())
    trace.validate()
    return trace


# The serving experiment's fixed admission setup (docs/serving.md).
# Bounded waiting room: an arrival that finds it full is rejected.
QUEUE_DEPTH = 16
# A client's patience: ``PATIENCE_FACTOR x`` its class's solo latency,
# measured from arrival (queue wait included). Queued past it: renege;
# running past it: disconnect (detach).
PATIENCE_FACTOR = 4.0
# Admission budget = OVERSUBSCRIPTION x shared DRAM bytes: admitted
# declared footprints may exceed DRAM (the overflow tiers to NVRAM), but
# not without bound.
OVERSUBSCRIPTION = 1.5
# Shared DRAM capacity as a fraction of slots x mean request footprint.
DRAM_FRACTION = 0.75
# Deadline-aware admission: a queue head is reneged instead of admitted
# when its remaining patience is below ``ADMIT_MARGIN x`` its class's
# *solo* latency. 1.0 never knowingly wastes a slot; below 1.0 the server
# is optimistic (it cannot know the contention slowdown in advance), so
# some admitted requests still disconnect mid-run — the wasted service
# that makes goodput fall past saturation.
ADMIT_MARGIN = 0.5


@dataclass(frozen=True)
class ServingConfig:
    """Serving knobs (platform knobs live in :class:`ExperimentConfig`)."""

    slots: int = 4             # concurrent request sessions (llama.cpp -np)
    requests: int = 60         # arrivals per rate point
    seed: int = 7
    # Offered loads in requests per *paper-magnitude* second. None derives
    # them from the measured saturation rate via ``rate_multipliers``.
    rates: tuple[float, ...] | None = None
    rate_multipliers: tuple[float, ...] = (0.5, 1.0, 1.5, 2.5)
    # Test hook: override the admission budget (bytes, post-``scale``).
    admission_budget_bytes: int | None = None

    def validate(self) -> None:
        if self.slots < 1:
            raise ConfigurationError(f"need at least one slot, got {self.slots}")
        if self.requests < 1:
            raise ConfigurationError(
                f"need at least one request, got {self.requests}"
            )
        if self.seed < 0:
            # numpy's default_rng raises a bare ValueError on a negative seed.
            raise ConfigurationError(f"seed cannot be negative, got {self.seed}")
        if self.rates is not None and (
            not self.rates or any(r <= 0 for r in self.rates)
        ):
            raise ConfigurationError(f"rates must be positive: {self.rates}")


# `repro serve --check` sweeps these multiples of the measured saturation
# rate: one point under, two past — the pair the goodput gate compares.
CHECK_MULTIPLIERS: tuple[float, ...] = (0.6, 1.5, 3.0)


@dataclass
class _Request:
    """Driver-side bookkeeping for one client request."""

    index: int
    name: str
    cls: RequestClass
    arrival: float      # virtual seconds
    deadline: float     # arrival + patience
    footprint: int      # declared bytes (post-scale peak of its trace)
    state: str = _PENDING
    outcome: str = ""
    admit_time: float | None = None
    finish_time: float | None = None  # completion, or deadline when censored

    @property
    def latency(self) -> float:
        """The client-observed latency: time to completion, or — for a
        request that was never served (rejected, reneged) or was cut off
        mid-run (disconnected) — the patience bound at which the client
        walked away. Censoring failures at patience keeps the percentile
        population honest under load shedding: rejecting arrivals cannot
        *improve* reported tail latency."""
        if self.outcome == COMPLETED:
            assert self.finish_time is not None
            return self.finish_time - self.arrival
        return self.deadline - self.arrival

    @property
    def queue_wait(self) -> float | None:
        if self.admit_time is None:
            return None
        return self.admit_time - self.arrival


@dataclass
class PointResult:
    """One rate point of the load sweep (times in virtual seconds)."""

    rate: float  # offered load, paper-magnitude requests/s
    requests: list[_Request]
    p50: float
    p95: float
    p99: float
    # p99 of *normalized* latency (latency / class solo latency) — the
    # standard slowdown metric for heterogeneous request sizes. Raw
    # percentiles censor failures at per-class patience bounds, so the raw
    # tail shifts with the class mix of the shed traffic; normalizing makes
    # the censoring cap uniform (``PATIENCE_FACTOR`` for every class), which
    # is what the sweep's monotonicity gate checks.
    p99_norm: float
    mean_latency: float
    goodput: float  # completed per paper-magnitude second
    makespan: float
    mean_queue_wait: float
    max_slowdown: float
    min_slowdown: float
    # High-water mark of admitted (reserved) bytes, post-scale: the
    # admission-control invariant is ``peak_reserved <= budget``.
    peak_reserved: int
    traffic: dict[str, TrafficSnapshot]

    @property
    def arrivals(self) -> int:
        return len(self.requests)

    def outcome_count(self, outcome: str) -> int:
        return sum(1 for r in self.requests if r.outcome == outcome)

    @property
    def completed(self) -> int:
        return self.outcome_count(COMPLETED)

    @property
    def rejected(self) -> int:
        return self.outcome_count(REJECTED)

    @property
    def timed_out(self) -> int:
        return self.outcome_count(TIMED_OUT)

    @property
    def disconnected(self) -> int:
        return self.outcome_count(DISCONNECTED)

    @property
    def rejection_rate(self) -> float:
        """Arrivals that were never served: bounced or reneged."""
        return (self.rejected + self.timed_out) / max(1, self.arrivals)

    @property
    def fairness(self) -> float:
        """Max/min slowdown across completed requests; 1.0 is perfectly
        fair, large values mean long requests starve (or vice versa)."""
        if self.min_slowdown <= 0:
            return 1.0
        return self.max_slowdown / self.min_slowdown


@dataclass
class ServingResult:
    """The full load sweep: one :class:`PointResult` per offered rate."""

    points: list[PointResult]
    solo_seconds: dict[str, float]  # class -> solo latency, virtual
    saturation_rate: float          # paper-magnitude requests/s
    serving: ServingConfig
    config: ExperimentConfig
    mode: ModeConfig
    dram_bytes: int                 # paper magnitudes
    admission_budget: int           # post-scale bytes

    def digest(self) -> str:
        """Determinism fingerprint over every per-request outcome."""
        parts: list[str | float | int] = []
        for name in sorted(self.solo_seconds):
            parts += (name, float(self.solo_seconds[name]))
        for point in self.points:
            parts.append(float(point.rate))
            for req in point.requests:
                finish = -1.0 if req.finish_time is None else req.finish_time
                admit = -1.0 if req.admit_time is None else req.admit_time
                parts += (
                    f"{req.name}:{req.cls.name}:{req.outcome}:",
                    float(req.arrival), ":", float(admit), ":", float(finish),
                )
            for device in sorted(point.traffic):
                snap = point.traffic[device]
                parts += (device, ":", snap.read_bytes, ":", snap.write_bytes)
        return float_hex_digest(parts)

    def to_json(self) -> dict:
        scale = self.config.scale
        return {
            "mode": self.mode.name,
            "scale": scale,
            "slots": self.serving.slots,
            "queue_depth": QUEUE_DEPTH,
            "requests_per_point": self.serving.requests,
            "seed": self.serving.seed,
            "patience_factor": PATIENCE_FACTOR,
            "dram_gb": round(self.dram_bytes / GB, 2),
            "admission_budget_gb": round(
                self.admission_budget * scale / GB, 2
            ),
            "saturation_rate": round(self.saturation_rate, 4),
            "solo_seconds": {
                name: round(seconds * scale, 4)
                for name, seconds in self.solo_seconds.items()
            },
            "digest": self.digest(),
            "points": [
                {
                    "rate": round(point.rate, 4),
                    "arrivals": point.arrivals,
                    "completed": point.completed,
                    "rejected": point.rejected,
                    "timed_out": point.timed_out,
                    "disconnected": point.disconnected,
                    "rejection_rate": round(point.rejection_rate, 4),
                    "p50_seconds": round(point.p50 * scale, 4),
                    "p95_seconds": round(point.p95 * scale, 4),
                    "p99_seconds": round(point.p99 * scale, 4),
                    "p99_normalized": round(point.p99_norm, 4),
                    "mean_seconds": round(point.mean_latency * scale, 4),
                    "goodput": round(point.goodput, 4),
                    "makespan_seconds": round(point.makespan * scale, 3),
                    "mean_queue_wait_seconds": round(
                        point.mean_queue_wait * scale, 4
                    ),
                    "peak_reserved_gb": round(
                        point.peak_reserved * scale / GB, 2
                    ),
                    "fairness": round(point.fairness, 4),
                    "traffic_gb": {
                        device: {
                            "read": round(snap.read_bytes * scale / 1e9, 1),
                            "write": round(snap.write_bytes * scale / 1e9, 1),
                        }
                        for device, snap in point.traffic.items()
                    },
                }
                for point in self.points
            ],
        }


class _PointRunner:
    """One rate point: a dynamic schedule of request streams + the driver.

    The driver is itself a stream on the scheduler: it sleeps (yields
    idle-wait advances) until the next arrival or the next patience
    deadline, admits/queues/rejects arrivals, detaches overdue requests,
    and exits once every request reached a final outcome. Completions run
    inside the finishing request's own stream step, so a freed slot admits
    the queue head at exactly the departure's virtual time.
    """

    def __init__(
        self,
        requests: list[_Request],
        traces: dict[str, KernelTrace],
        config: ExperimentConfig,
        serving: ServingConfig,
        mode_cfg: ModeConfig,
        budget: int,
        solo: dict[str, float],
    ) -> None:
        self.requests = requests
        self.traces = traces
        self.config = config
        self.serving = serving
        self.mode_cfg = mode_cfg
        self.budget = budget
        self.solo = solo
        self.runtime = SharedRuntime(config.session_config())
        self.scheduler = StreamScheduler(
            self.runtime.clock, tracer=self.runtime.tracer, dynamic=True
        )
        # detach() cancels the departing request's stream through this.
        self.runtime.attach_scheduler(self.scheduler)
        self.clock = self.runtime.clock
        self._pending = deque(requests)
        self._deadlines: list[tuple[float, int]] = []
        self._waiting: deque[_Request] = deque()
        self._running: set[int] = set()
        self._sessions: dict[str, Session] = {}
        self._reserved = 0
        # High-water mark of reserved bytes; the admission invariant
        # (`peak_reserved <= budget`) is sequential, not timestamp-axis:
        # a step's internal clock advances can overlap another stream's
        # earlier-stamped admission (kernel-granularity atomicity).
        self._peak_reserved = 0
        self._open = len(requests)

    def run(self) -> dict[str, TrafficSnapshot]:
        self.scheduler.spawn("driver", self._driver())
        self.runtime.metrics.reset()
        self.scheduler.run()
        traffic = self.runtime.traffic()
        self.runtime.close()
        return traffic

    # -- the driver stream ---------------------------------------------------

    def _driver(self):
        clock = self.clock
        while True:
            horizon = clock.now + _EPS
            while self._pending and self._pending[0].arrival <= horizon:
                self._arrive(self._pending.popleft())
            while self._deadlines and self._deadlines[0][0] <= horizon:
                _, index = heapq.heappop(self._deadlines)
                self._expire(self.requests[index])
            if self._open == 0:
                return None
            targets = []
            if self._pending:
                targets.append(self._pending[0].arrival)
            if self._deadlines:
                targets.append(self._deadlines[0][0])
            if not targets:  # pragma: no cover - every open request has one
                return None
            wake = max(min(targets), clock.now)
            yield wake - clock.now, _WAIT

    # -- admission control ---------------------------------------------------

    def _can_admit(self, req: _Request) -> bool:
        return (
            len(self._running) < self.serving.slots
            and self._reserved + req.footprint <= self.budget
        )

    def _arrive(self, req: _Request) -> None:
        if req.footprint > self.budget:
            # Could never fit: bounce rather than poison the FIFO head.
            self._finalize(req, REJECTED)
            return
        if self._can_admit(req):
            self._admit(req)
        elif len(self._waiting) < QUEUE_DEPTH:
            req.state = _QUEUED
            self._waiting.append(req)
        else:
            self._finalize(req, REJECTED)
            return
        heapq.heappush(self._deadlines, (req.deadline, req.index))

    def _admit(self, req: _Request) -> None:
        req.admit_time = self.clock.now
        req.state = _RUNNING
        self._running.add(req.index)
        self._reserved += req.footprint
        self._peak_reserved = max(self._peak_reserved, self._reserved)
        policy = self.mode_cfg.make_policy("DRAM", "NVRAM")
        session = self.runtime.session(
            policy, tenant=req.name, dram_quota=req.footprint
        )
        self._sessions[req.name] = session
        executor = tenant_executor(
            session,
            self.config,
            req.footprint,
            sample_timeline=False,
            stream_name=req.name,
        )
        trace = self.traces[req.cls.name]
        self.scheduler.spawn(
            req.name,
            self._request_stream(req, executor, trace),
            activate=lambda name=req.name: self.runtime.activate(name),
        )

    def _admit_from_queue(self) -> None:
        # Strict FIFO: the head admits or nobody does (no overtaking, so a
        # large request cannot starve behind a stream of small ones). A
        # head whose remaining patience is under ``ADMIT_MARGIN x`` its
        # solo latency reneges instead of being admitted — deadline-aware
        # admission, so slots are not spent on obviously doomed requests.
        while self._waiting:
            head = self._waiting[0]
            remaining = head.deadline - self.clock.now
            if remaining < ADMIT_MARGIN * self.solo[head.cls.name]:
                self._waiting.popleft()
                self._finalize(head, TIMED_OUT)
                continue
            if not self._can_admit(head):
                return
            self._admit(self._waiting.popleft())

    # -- request lifecycle ---------------------------------------------------

    def _request_stream(self, req: _Request, executor: Executor, trace):
        result = yield from executor.stream(trace, 1)
        # Runs at the request's local finish time, inside its final step:
        # the freed slot admits the queue head at exactly this instant.
        req.finish_time = self.clock.now
        self._depart(req, COMPLETED)
        return result

    def _expire(self, req: _Request) -> None:
        if req.state == _QUEUED:
            self._waiting.remove(req)
            self._finalize(req, TIMED_OUT)
            return
        if req.state == _RUNNING:
            # Simulated client disconnect: censor the latency at the
            # patience bound and reclaim everything the request held.
            req.finish_time = req.deadline
            self.runtime.detach(req.name)
            self._depart(req, DISCONNECTED)
        # Already final (completed before its deadline entry fired): no-op.

    def _depart(self, req: _Request, outcome: str) -> None:
        self._running.discard(req.index)
        self._reserved -= req.footprint
        session = self._sessions.pop(req.name, None)
        if session is not None and outcome == COMPLETED:
            # detach() already tore the session down for disconnects.
            session.close()
        self._finalize(req, outcome)
        self._admit_from_queue()

    def _finalize(self, req: _Request, outcome: str) -> None:
        req.state = outcome
        req.outcome = outcome
        self._open -= 1
        wait = req.queue_wait
        self.runtime.tracer.request(
            req.name,
            req.cls.name,
            outcome,
            req.latency,
            -1.0 if wait is None else wait,
        )


def _pick_classes(count: int, seed: int) -> list[RequestClass]:
    """The per-request class sequence — shared by every rate point."""
    rng = np.random.default_rng(seed + 1)
    weights = np.array([cls.weight for cls in REQUEST_CLASSES])
    indices = rng.choice(len(REQUEST_CLASSES), size=count, p=weights / weights.sum())
    return [REQUEST_CLASSES[int(i)] for i in indices]


def _arrival_offsets(count: int, seed: int) -> np.ndarray:
    """Unit-rate exponential interarrival draws (common random numbers).

    Every rate point divides the *same* draws by its rate, so a higher
    rate replays the identical arrival sequence compressed in time — the
    property that makes the sweep's p99 robustly monotone.
    """
    rng = np.random.default_rng(seed)
    return -np.log1p(-rng.random(count))


def _build_requests(
    rate_virtual: float,
    classes: list[RequestClass],
    offsets: np.ndarray,
    footprints: dict[str, int],
    patience: dict[str, float],
) -> list[_Request]:
    arrivals = np.cumsum(offsets / rate_virtual)
    requests = []
    for index, cls in enumerate(classes):
        arrival = float(arrivals[index])
        requests.append(
            _Request(
                index=index,
                name=f"r{index:04d}",
                cls=cls,
                arrival=arrival,
                deadline=arrival + patience[cls.name],
                footprint=footprints[cls.name],
            )
        )
    return requests


def _solo_latency(
    trace: KernelTrace,
    footprint: int,
    config: ExperimentConfig,
    mode_cfg: ModeConfig,
) -> float:
    """One request alone on the serving platform (no queue, no contention)."""
    runtime = SharedRuntime(replace(config, tracing=False).session_config())
    session = runtime.session(
        mode_cfg.make_policy("DRAM", "NVRAM"), tenant="solo"
    )
    tenant_executor(
        session, config, footprint, sample_timeline=False, stream_name="solo"
    ).run(trace, iterations=1)
    latency = runtime.clock.now
    runtime.close()
    return latency


def _measure_point(
    rate: float,
    requests: list[_Request],
    traces: dict[str, KernelTrace],
    config: ExperimentConfig,
    serving: ServingConfig,
    mode_cfg: ModeConfig,
    budget: int,
    solo: dict[str, float],
) -> PointResult:
    runner = _PointRunner(
        requests, traces, config, serving, mode_cfg, budget, solo
    )
    traffic = runner.run()

    sketch = QuantileSketch()
    norm_sketch = QuantileSketch()
    waits: list[float] = []
    slowdowns: list[float] = []
    makespan = 0.0
    for req in requests:
        sketch.observe(req.latency)
        base = solo[req.cls.name]
        if base > 0:
            norm_sketch.observe(req.latency / base)
        wait = req.queue_wait
        if wait is not None:
            waits.append(wait)
        if req.outcome == COMPLETED:
            assert req.finish_time is not None and req.admit_time is not None
            service = req.finish_time - req.admit_time
            if base > 0:
                slowdowns.append(service / base)
        end = req.finish_time if req.finish_time is not None else req.arrival
        makespan = max(makespan, end)
    # Goodput is measured past the fill transient, the standard
    # load-generator methodology: the first ``slots + QUEUE_DEPTH``
    # arrivals only fill an empty system, so counting them would credit
    # overload runs with ramp-up efficiency they never sustain. The window
    # runs from the transient's last arrival to the final departure, and
    # only completions of post-transient arrivals count — under sustained
    # overload late arrivals are mostly rejected, which is exactly why
    # goodput falls past saturation.
    warmup = min(serving.slots + QUEUE_DEPTH, len(requests) // 3)
    window_start = requests[warmup].arrival if warmup < len(requests) else 0.0
    completed = sum(
        1 for r in requests[warmup:] if r.outcome == COMPLETED
    )
    scale = config.scale
    window = makespan - window_start
    goodput = completed / (window * scale) if window > 0 else 0.0
    return PointResult(
        rate=rate,
        requests=requests,
        p50=sketch.quantile(0.50),
        p95=sketch.quantile(0.95),
        p99=sketch.quantile(0.99),
        p99_norm=norm_sketch.quantile(0.99),
        mean_latency=sketch.mean,
        goodput=goodput,
        makespan=makespan,
        mean_queue_wait=sum(waits) / len(waits) if waits else 0.0,
        max_slowdown=max(slowdowns) if slowdowns else 1.0,
        min_slowdown=min(slowdowns) if slowdowns else 1.0,
        peak_reserved=runner._peak_reserved,
        traffic=traffic,
    )


def run_serving(
    config: ExperimentConfig | None = None,
    serving: ServingConfig | None = None,
    *,
    mode_name: str | ModeConfig = "CA:LM",
) -> ServingResult:
    """Run the serving load sweep: solo baselines, then one run per rate.

    DRAM is sized to ``DRAM_FRACTION`` of ``slots x`` the mean declared
    request footprint — a full house cannot keep every KV cache
    fast-tier-resident — and the same capacity serves the solo baselines,
    so slowdowns isolate contention, not platform changes. When
    ``serving.rates`` is ``None`` the sweep runs at ``rate_multipliers``
    times the measured saturation rate (``slots / mean solo latency``).
    """
    config = config or ExperimentConfig()
    serving = serving or ServingConfig()
    serving.validate()
    mode_cfg = resolve_mode(mode_name)
    if mode_cfg.system != "ca":
        raise ConfigurationError(
            f"serving runs on the CA runtime; mode {mode_cfg.name!r} does not"
        )

    traces: dict[str, KernelTrace] = {}
    footprints: dict[str, int] = {}
    for cls in REQUEST_CLASSES:
        raw = request_trace(cls).scaled(config.scale)
        traces[cls.name] = annotate(raw, memopt=mode_cfg.memopt)
        footprints[cls.name] = raw.peak_live_bytes()  # from annotate's walk

    mean_footprint = sum(
        cls.weight * footprints[cls.name] for cls in REQUEST_CLASSES
    ) / sum(cls.weight for cls in REQUEST_CLASSES)
    dram_bytes = (
        max(
            config.line_size,
            int(serving.slots * mean_footprint * DRAM_FRACTION),
        )
        * config.scale
    )
    # Slots contend for the DMA channels like colo tenants do; the solo
    # baselines run on the same platform.
    sized = replace(config, dram_bytes=dram_bytes, async_movement=True)
    budget = (
        serving.admission_budget_bytes
        if serving.admission_budget_bytes is not None
        else int(sized.scaled_dram() * OVERSUBSCRIPTION)
    )
    largest = max(footprints.values())
    if budget < largest:
        raise ConfigurationError(
            f"admission budget {budget} B cannot fit the largest request "
            f"class ({largest} B); use more slots"
        )

    solo = {
        cls.name: _solo_latency(
            traces[cls.name], footprints[cls.name], sized, mode_cfg
        )
        for cls in REQUEST_CLASSES
    }
    mean_solo = sum(
        cls.weight * solo[cls.name] for cls in REQUEST_CLASSES
    ) / sum(cls.weight for cls in REQUEST_CLASSES)
    # Service capacity: slots concurrent requests, mean_solo each (paper
    # seconds are virtual x scale).
    saturation = serving.slots / (mean_solo * config.scale)
    rates = (
        serving.rates
        if serving.rates is not None
        else tuple(m * saturation for m in serving.rate_multipliers)
    )

    patience = {
        cls.name: PATIENCE_FACTOR * solo[cls.name]
        for cls in REQUEST_CLASSES
    }
    classes = _pick_classes(serving.requests, serving.seed)
    offsets = _arrival_offsets(serving.requests, serving.seed)

    points = []
    for rate in rates:
        rate_virtual = rate * config.scale  # arrivals per virtual second
        requests = _build_requests(
            rate_virtual, classes, offsets, footprints, patience
        )
        points.append(
            _measure_point(
                rate, requests, traces, sized, serving, mode_cfg, budget, solo
            )
        )

    return ServingResult(
        points=points,
        solo_seconds=solo,
        saturation_rate=saturation,
        serving=serving,
        config=config,
        mode=mode_cfg,
        dram_bytes=dram_bytes,
        admission_budget=budget,
    )


def check_serving(result: ServingResult) -> list[str]:
    """The `--check` gates beyond digest equality: sweep-shape sanity.

    As offered load rises, normalized p99 latency (latency over the class
    solo latency — the slowdown metric) must be monotonically
    non-decreasing, and between points at or past the saturation rate
    goodput must be non-increasing (overload wastes slot time on requests
    that disconnect before finishing — it cannot *raise* useful
    throughput). The gate uses *normalized* p99 because raw latencies are
    censored at per-class patience bounds: when load shedding changes the
    class mix of the shed traffic, the raw tail can shift down even though
    every class individually got slower. Normalizing makes the censoring
    cap uniform across classes (``PATIENCE_FACTOR``), so the tail is
    monotone in load.

    The goodput gate is statistical: it holds robustly at the default
    configuration, but at small request counts the post-transient
    measurement window holds only a handful of completions, so arbitrary
    seed/sweep combinations can fluctuate by a completion or two. Returns
    a list of violations (empty = pass).
    """
    problems = []
    points = sorted(result.points, key=lambda p: p.rate)
    # Differences inside the quantile sketch's bucket resolution (0.5%
    # relative error, so neighbouring midpoints sit ~1% apart) are not
    # significant; real violations are far larger than 2%.
    slack = 0.02
    for before, after in zip(points, points[1:]):
        if after.p99_norm < before.p99_norm * (1 - slack):
            problems.append(
                "normalized p99 decreased with load: "
                f"{before.p99_norm:.4f}x solo at {before.rate:.3f} req/s "
                f"-> {after.p99_norm:.4f}x solo at {after.rate:.3f} req/s"
            )
    past = [p for p in points if p.rate >= result.saturation_rate * (1 - 1e-9)]
    for before, after in zip(past, past[1:]):
        if after.goodput > before.goodput * (1 + slack):
            problems.append(
                f"goodput increased past saturation: {before.goodput:.4f} "
                f"req/s at {before.rate:.3f} -> {after.goodput:.4f} req/s "
                f"at {after.rate:.3f}"
            )
    return problems


def render(result: ServingResult) -> str:
    """The text report ``python -m repro serve`` prints."""
    scale = result.config.scale
    serving = result.serving
    lines = [
        f"Serving load sweep ({result.mode.name}, {serving.slots} slots, "
        f"queue {QUEUE_DEPTH}, {serving.requests} requests/point, "
        f"DRAM {result.dram_bytes / GB:.0f} GB shared, scale {scale})",
        "",
        "solo latencies: "
        + ", ".join(
            f"{name} {result.solo_seconds[name] * scale:.2f}s"
            for name in (cls.name for cls in REQUEST_CLASSES)
        )
        + f"; saturation ~{result.saturation_rate:.2f} req/s",
        "",
        f"{'req/s':>7} {'done':>5} {'rej':>4} {'late':>5} {'drop':>5} "
        f"{'p50 (s)':>8} {'p95 (s)':>8} {'p99 (s)':>8} {'p99 (x)':>8} "
        f"{'goodput':>8} {'fair':>6}",
    ]
    for point in result.points:
        lines.append(
            f"{point.rate:>7.2f} {point.completed:>5d} {point.rejected:>4d} "
            f"{point.timed_out:>5d} {point.disconnected:>5d} "
            f"{point.p50 * scale:>8.2f} {point.p95 * scale:>8.2f} "
            f"{point.p99 * scale:>8.2f} {point.p99_norm:>8.2f} "
            f"{point.goodput:>8.2f} {point.fairness:>6.2f}"
        )
    lines.append("")
    lines.append(
        "done=completed  rej=rejected at arrival  late=timed out queued  "
        "drop=disconnected mid-run  p99 (x)=normalized p99 (x solo latency)"
    )
    for device in sorted(result.points[-1].traffic):
        snap = result.points[-1].traffic[device]
        lines.append(
            f"{device} traffic at {result.points[-1].rate:.2f} req/s: "
            f"read {snap.read_bytes * scale / 1e9:.1f} GB, "
            f"wrote {snap.write_bytes * scale / 1e9:.1f} GB"
        )
    lines.append(f"digest {result.digest()}")
    return "\n".join(lines)
