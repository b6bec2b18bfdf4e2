"""The multi-stream scheduler: interleaving, determinism, reduction."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.runtime.scheduler import StreamScheduler
from repro.sim.clock import SimClock


def make_stream(log, name, durations, *, category="kernel"):
    """A stream that records (name, step, clock-now-at-resume) per step."""

    def gen(clock):
        for index, seconds in enumerate(durations):
            log.append((name, index, clock.now))
            yield seconds, category
        return f"{name}-done"

    return gen


class TestSingleStream:
    def test_matches_manual_sequential_loop(self):
        reference = SimClock()
        for seconds in (1.0, 2.0, 0.5):
            reference.advance(seconds, "kernel")

        clock = SimClock()
        scheduler = StreamScheduler(clock)
        log: list = []
        stream = scheduler.spawn("", make_stream(log, "solo", [1.0, 2.0, 0.5])(clock))
        scheduler.run()
        assert clock.now == reference.now
        assert clock.categories() == reference.categories()
        assert stream.result == "solo-done"
        assert stream.done

    def test_result_captured_from_return(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)

        def gen():
            yield 1.0, "kernel"
            return {"answer": 42}

        stream = scheduler.spawn("s", gen())
        scheduler.run()
        assert stream.result == {"answer": 42}

    def test_activate_hook_runs(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)
        calls = []

        def gen():
            yield 1.0, "kernel"
            return None

        scheduler.spawn("s", gen(), activate=lambda: calls.append("hi"))
        scheduler.run()
        assert calls  # called at least once before the stream ran

    def test_error_propagates_and_is_recorded(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)

        def gen():
            yield 1.0, "kernel"
            raise RuntimeError("boom")

        stream = scheduler.spawn("s", gen())
        with pytest.raises(RuntimeError):
            scheduler.run()
        assert isinstance(stream.error, RuntimeError)


class TestMultiStream:
    def test_earliest_local_time_runs_next(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)
        log: list = []
        # "slow" yields 3s steps, "fast" 1s steps: fast should run three
        # steps while slow runs one.
        scheduler.spawn("slow", make_stream(log, "slow", [3.0, 3.0])(clock))
        scheduler.spawn("fast", make_stream(log, "fast", [1.0, 1.0, 1.0])(clock))
        scheduler.run()
        resumes = [(name, now) for name, _, now in log]
        assert resumes == [
            ("slow", 0.0),
            ("fast", 0.0),
            ("fast", 1.0),
            ("fast", 2.0),
            ("slow", 3.0),
        ]

    def test_ties_resume_in_spawn_order(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)
        log: list = []
        scheduler.spawn("a", make_stream(log, "a", [1.0, 1.0])(clock))
        scheduler.spawn("b", make_stream(log, "b", [1.0, 1.0])(clock))
        scheduler.run()
        assert [name for name, _, _ in log] == ["a", "b", "a", "b"]

    def test_clock_ends_at_frontier(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)
        log: list = []
        scheduler.spawn("short", make_stream(log, "short", [1.0])(clock))
        long = scheduler.spawn("long", make_stream(log, "long", [5.0])(clock))
        scheduler.run()
        assert clock.now == 5.0
        assert long.local_time == 5.0

    def test_per_stream_busy_maps_are_private(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)
        log: list = []
        a = scheduler.spawn("a", make_stream(log, "a", [1.0, 1.0])(clock))
        b = scheduler.spawn("b", make_stream(log, "b", [4.0])(clock))
        scheduler.run()
        assert a.busy == {"kernel": 2.0}
        assert b.busy == {"kernel": 4.0}
        # The shared map still aggregates everyone.
        assert clock.busy("kernel") == 6.0

    def test_activation_hooks_follow_the_running_stream(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)
        log: list = []
        active: list[str] = []
        scheduler.spawn(
            "a",
            make_stream(log, "a", [1.0, 1.0])(clock),
            activate=lambda: active.append("a"),
        )
        scheduler.spawn(
            "b",
            make_stream(log, "b", [2.0])(clock),
            activate=lambda: active.append("b"),
        )
        scheduler.run()
        # Every resume — including the terminal one that raises
        # StopIteration — was preceded by that stream's activation:
        # a@0, b@0, a@1, then the tie at t=2 pops in push order (b, a).
        assert active == ["a", "b", "a", "b", "a"]

    def test_start_time_delays_a_stream(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)
        log: list = []
        scheduler.spawn("late", make_stream(log, "late", [1.0])(clock),
                        start_time=10.0)
        scheduler.spawn("early", make_stream(log, "early", [1.0])(clock))
        scheduler.run()
        assert [name for name, _, _ in log] == ["early", "late"]
        assert log[-1][2] == 10.0


class TestSpawnRules:
    def test_duplicate_names_rejected(self):
        scheduler = StreamScheduler(SimClock())

        def gen():
            yield 1.0, "kernel"

        scheduler.spawn("x", gen())
        with pytest.raises(ConfigurationError):
            scheduler.spawn("x", gen())

    def test_spawn_after_run_rejected(self):
        scheduler = StreamScheduler(SimClock())

        def gen():
            yield 1.0, "kernel"

        scheduler.spawn("x", gen())
        scheduler.run()
        with pytest.raises(ConfigurationError):
            scheduler.spawn("y", gen())

    def test_run_twice_rejected(self):
        scheduler = StreamScheduler(SimClock())

        def gen():
            yield 1.0, "kernel"

        scheduler.spawn("x", gen())
        scheduler.run()
        with pytest.raises(ConfigurationError):
            scheduler.run()

    def test_empty_schedule_is_a_noop(self):
        clock = SimClock()
        StreamScheduler(clock).run()
        assert clock.now == 0.0


class TestDynamicSchedules:
    def test_mid_run_spawn_rejected_without_dynamic(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock)
        failures = []

        def driver():
            yield 1.0, "kernel"
            try:
                scheduler.spawn("late", make_stream([], "late", [1.0])(clock))
            except ConfigurationError as exc:
                failures.append(exc)
            yield 1.0, "kernel"

        def other():
            yield 5.0, "kernel"

        scheduler.spawn("driver", driver())
        scheduler.spawn("other", other())
        scheduler.run()
        assert len(failures) == 1

    def test_mid_run_spawn_joins_live_queue(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock, dynamic=True)
        log: list = []

        def driver():
            yield 2.0, "wait"
            scheduler.spawn("child", make_stream(log, "child", [1.0])(clock))
            yield 2.0, "wait"

        scheduler.spawn("driver", driver())
        scheduler.run()
        # The child ran: spawned at t=2, resumed at t=2, done at t=3.
        assert log == [("child", 0, 2.0)]
        assert scheduler.find("child").done
        assert clock.now == 4.0

    def test_mid_run_spawn_cannot_start_in_the_past(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock, dynamic=True)
        log: list = []

        def driver():
            yield 3.0, "wait"
            # An arrival stamped before "now" is clamped to now: the event
            # queue stays causal.
            scheduler.spawn(
                "child",
                make_stream(log, "child", [1.0])(clock),
                start_time=1.0,
            )
            yield 1.0, "wait"

        scheduler.spawn("driver", driver())
        scheduler.run()
        assert log == [("child", 0, 3.0)]

    def test_dynamic_single_stream_takes_multi_path(self):
        # dynamic=True must skip the single-stream reduction even with one
        # initial stream (the queue must exist for mid-run spawns). The
        # multi-stream path is observable through the per-stream busy map,
        # which the fast path never populates.
        clock = SimClock()
        scheduler = StreamScheduler(clock, dynamic=True)
        stream = scheduler.spawn("solo", make_stream([], "solo", [1.0])(clock))
        scheduler.run()
        assert stream.busy == {"kernel": 1.0}

    def test_spawned_stream_can_be_cancelled_before_running(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock, dynamic=True)
        log: list = []
        unwound = []

        def child():
            try:
                log.append("ran")
                yield 1.0, "kernel"
            finally:
                unwound.append(True)

        def driver():
            yield 1.0, "wait"
            scheduler.spawn("child", child())
            scheduler.cancel("child")
            yield 1.0, "wait"

        scheduler.spawn("driver", driver())
        scheduler.run()
        # Never resumed: the body never started, so there is nothing to
        # unwind, and the queued entry is skipped when popped.
        assert log == []
        assert unwound == []
        assert scheduler.find("child").done
        assert clock.now == 2.0

    def test_spawn_after_dynamic_run_finished_rejected(self):
        scheduler = StreamScheduler(SimClock(), dynamic=True)

        def gen():
            yield 1.0, "kernel"

        scheduler.spawn("x", gen())
        scheduler.run()
        # The live queue is gone; late spawns fail even in dynamic mode —
        # and the message must not blame the option the caller did set.
        with pytest.raises(ConfigurationError, match="schedule finished") as info:
            scheduler.spawn("y", gen())
        assert "dynamic=True" not in str(info.value)
        assert scheduler.find("y") is None

    def test_thousands_of_spawns_finds_and_cancels_keep_the_schedule(self):
        """The serve-churn shape: one driver admits 2 000 short request
        streams, looks each up and cancels every third a step later. Order,
        results and clock are what the list-backed stream table produced."""
        clock = SimClock()
        scheduler = StreamScheduler(clock, dynamic=True)
        log: list = []
        count = 2_000
        names = [f"req{i}" for i in range(count)]
        cancelled = []

        def driver():
            for index, name in enumerate(names):
                yield 0.5, "wait"
                stream = scheduler.spawn(
                    name, make_stream(log, name, [1.0, 0.25])(clock)
                )
                assert scheduler.find(name) is stream
                if index % 3 == 2:
                    # Spawned one step ago: ran its first step, still live.
                    assert scheduler.cancel(names[index - 1])
                    cancelled.append(names[index - 1])
            return "driver-done"

        scheduler.spawn("driver", driver())
        scheduler.run()

        assert list(scheduler.streams) == ["driver", *names]
        assert scheduler.find("driver").result == "driver-done"
        assert all(scheduler.find(name).done for name in names)
        assert [
            name for name in names
            if scheduler.find(name).result != f"{name}-done"
        ] == cancelled
        assert all(scheduler.find(name).result is None for name in cancelled)
        assert not scheduler.cancel(names[0])  # finished long ago
        assert scheduler.find("req-1") is None
        # Recorded at the parent commit (list-backed table, linear find).
        assert len(log) == 3_334 and len(cancelled) == 666
        assert log[:4] == [
            ("req0", 0, 0.5), ("req1", 0, 1.0), ("req0", 1, 1.5), ("req2", 0, 1.5)
        ]
        assert clock.now == 1001.25
        digest = hashlib.sha256(repr(log).encode()).hexdigest()
        assert digest == (
            "ffa895bad408f952d91234f2755310db493d31a9609d449a22b9b6d7a732a3eb"
        )

    def test_a_finished_streams_name_stays_taken(self):
        clock = SimClock()
        scheduler = StreamScheduler(clock, dynamic=True)
        failures = []

        def driver():
            yield 5.0, "wait"
            assert scheduler.find("first").done
            try:
                scheduler.spawn("first", make_stream([], "again", [1.0])(clock))
            except ConfigurationError as exc:
                failures.append(str(exc))
            yield 1.0, "wait"

        first = scheduler.spawn("first", make_stream([], "first", [1.0])(clock))
        scheduler.spawn("driver", driver())
        scheduler.run()
        assert failures == ["duplicate stream name 'first'"]
        assert scheduler.find("first") is first and first.result == "first-done"
        assert clock.now == 6.0


class TestTracerTagging:
    def test_events_tagged_with_stream_id(self):
        from repro.telemetry.trace import Tracer

        clock = SimClock()
        tracer = Tracer(clock)
        scheduler = StreamScheduler(clock, tracer=tracer)

        def gen(name):
            tracer.emit("kernel_start", kernel=name)
            yield 1.0, "kernel"
            return None

        scheduler.spawn("t0", gen("k0"))
        scheduler.spawn("t1", gen("k1"))
        scheduler.run()
        streams = {e.args["kernel"]: e.stream for e in tracer.events}
        assert streams == {"k0": "t0", "k1": "t1"}
        assert tracer.stream == ""  # untagged after the run

    @pytest.mark.parametrize("keep_events", [True, False], ids=["full", "monitor-only"])
    def test_both_monitor_tiers_learn_each_streams_usage(self, keep_events):
        """The scheduler tags every tracer it drives, a monitor that keeps
        no records included: each stream's allocation is charged to that
        stream in the monitor's per-tenant usage, records kept or not."""
        from repro.telemetry.monitor import MonitorTracer

        clock = SimClock()
        tracer = MonitorTracer(clock, keep_events=keep_events)
        scheduler = StreamScheduler(clock, tracer=tracer)

        def gen(offset, nbytes):
            tracer.alloc("DRAM", offset, nbytes)
            yield 1.0, "kernel"
            return None

        scheduler.spawn("t0", gen(0, 100))
        scheduler.spawn("t1", gen(4096, 300))
        scheduler.run()
        monitor = tracer.monitor
        monitor.finish()
        used = [w.tenant_used for w in monitor.rollups.windows.values()]
        assert used[-1] == {"t0/DRAM": 100, "t1/DRAM": 300}
        assert tracer.stream == ""  # untagged after the run

    def test_the_shared_null_tracer_is_never_tagged(self):
        from repro.telemetry.trace import NULL_TRACER

        clock = SimClock()
        scheduler = StreamScheduler(clock, tracer=NULL_TRACER)
        scheduler.spawn("t0", make_stream([], "t0", [1.0])(clock))
        scheduler.spawn("t1", make_stream([], "t1", [1.0])(clock))
        scheduler.run()
        assert NULL_TRACER.stream == "" and "stream" not in vars(NULL_TRACER)
