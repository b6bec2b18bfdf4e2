"""The serving experiment: determinism, sweep shape, admission control."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig
from repro.experiments.serving import (
    CHECK_MULTIPLIERS,
    COMPLETED,
    DISCONNECTED,
    REJECTED,
    REQUEST_CLASSES,
    TIMED_OUT,
    ServingConfig,
    check_serving,
    render,
    request_trace,
    run_serving,
)

SCALE = 1024  # tiny and fast; the serving shape is scale-invariant


def config():
    return ExperimentConfig(scale=SCALE)


@pytest.fixture(scope="module")
def result():
    """The documented --check sweep at the default serving config."""
    return run_serving(
        config(), ServingConfig(rate_multipliers=CHECK_MULTIPLIERS)
    )


class TestSweep:
    def test_deterministic_across_runs(self, result):
        # Slot reuse determinism: a second seeded run is byte-identical.
        repeat = run_serving(
            config(), ServingConfig(rate_multipliers=CHECK_MULTIPLIERS)
        )
        assert repeat.digest() == result.digest()
        assert repeat.to_json() == result.to_json()

    def test_check_gates_pass_at_default_config(self, result):
        assert check_serving(result) == []

    def test_rates_derived_from_saturation(self, result):
        assert result.saturation_rate > 0
        assert [p.rate for p in result.points] == pytest.approx(
            [m * result.saturation_rate for m in CHECK_MULTIPLIERS]
        )

    def test_every_arrival_reaches_one_final_outcome(self, result):
        for point in result.points:
            assert point.completed > 0  # even 3x overload serves someone
            assert (
                point.completed
                + point.rejected
                + point.timed_out
                + point.disconnected
                == point.arrivals
            )
            for req in point.requests:
                assert req.outcome in (
                    COMPLETED, REJECTED, TIMED_OUT, DISCONNECTED
                )

    def test_sustained_overload_sheds_load(self, result):
        # Rejection accounting at 3x saturation: arrivals bounce at the
        # full queue or renege out of it, and the rate reflects both.
        deep = result.points[-1]
        assert deep.rejected > 0
        assert deep.timed_out + deep.rejected > 0
        assert deep.rejection_rate == pytest.approx(
            (deep.rejected + deep.timed_out) / deep.arrivals
        )
        assert 0.0 < deep.rejection_rate < 1.0

    def test_failed_requests_censored_at_patience(self, result):
        for point in result.points:
            for req in point.requests:
                if req.outcome != COMPLETED:
                    assert req.latency == pytest.approx(
                        req.deadline - req.arrival
                    )
                else:
                    # A completion may overshoot the deadline by less than
                    # one atomic step (the deadline fell inside the final
                    # kernel segment) but never by a meaningful margin.
                    assert req.latency <= (req.deadline - req.arrival) * 1.05

    def test_reservation_never_exceeds_budget(self, result):
        for point in result.points:
            assert 0 < point.peak_reserved <= result.admission_budget

    def test_render_mentions_digest_and_outcomes(self, result):
        text = render(result)
        assert result.digest() in text
        assert "saturation" in text
        assert "goodput" in text

    def test_to_json_shape(self, result):
        payload = result.to_json()
        assert payload["digest"] == result.digest()
        assert len(payload["points"]) == len(CHECK_MULTIPLIERS)
        for point in payload["points"]:
            assert point["p99_normalized"] > 0
            assert 0.0 <= point["rejection_rate"] <= 1.0


class TestAdmissionControl:
    def test_arrival_at_exactly_exhausted_budget_waits(self, result):
        # Budget of exactly one largest-class request: while a long runs,
        # the budget is exhausted to the byte, so nothing else may be
        # admitted until it departs.
        largest = max(
            req.footprint for point in result.points for req in point.requests
        )
        tight = run_serving(
            config(),
            ServingConfig(
                requests=40,
                rate_multipliers=(1.5,),
                admission_budget_bytes=largest,
            ),
        )
        point = tight.points[0]
        assert point.peak_reserved <= largest
        longs = [
            r
            for r in point.requests
            if r.cls.name == "long" and r.admit_time is not None
        ]
        assert longs, "sweep never ran a long request"
        for long_req in longs:
            for other in point.requests:
                if other is long_req or other.admit_time is None:
                    continue
                inside = (
                    long_req.admit_time + 1e-9
                    < other.admit_time
                    < long_req.finish_time - 1e-9
                )
                assert not inside, (
                    f"{other.name} admitted while {long_req.name} held the "
                    "entire budget"
                )
        # The exhausted path was actually exercised: someone had to wait
        # or was bounced.
        waited = [
            r
            for r in point.requests
            if r.queue_wait is not None and r.queue_wait > 0
        ]
        assert waited or point.rejected > 0

    def test_disconnect_refunds_slot_and_budget(self, result):
        # Overload hard enough that patience expires mid-run: the driver
        # detaches the session, and the freed slot/bytes admit someone else.
        rate = 3.0 * result.saturation_rate
        over = run_serving(
            config(), ServingConfig(requests=60, rates=(rate,))
        )
        point = over.points[0]
        dropped = [r for r in point.requests if r.outcome == DISCONNECTED]
        assert dropped, "overload never triggered a mid-run disconnect"
        for req in dropped:
            # Cut off exactly at the patience bound, mid-service.
            assert req.finish_time == pytest.approx(req.deadline)
            assert req.admit_time is not None
        first_drop = min(r.finish_time for r in dropped)
        reused = [
            r
            for r in point.requests
            if r.admit_time is not None and r.admit_time >= first_drop - 1e-9
        ]
        assert reused, "no admission after a disconnect: refund lost"
        assert point.peak_reserved <= over.admission_budget

    def test_budget_below_largest_class_rejected(self, result):
        largest = max(
            req.footprint for point in result.points for req in point.requests
        )
        with pytest.raises(ConfigurationError):
            run_serving(
                config(),
                ServingConfig(admission_budget_bytes=largest - 1),
            )


class TestValidation:
    def test_rejects_non_ca_mode(self):
        with pytest.raises(ConfigurationError):
            run_serving(config(), ServingConfig(), mode_name="2LM:0")

    def test_rejects_bad_knobs(self):
        for bad in (
            ServingConfig(slots=0),
            ServingConfig(requests=0),
            ServingConfig(rates=()),
            ServingConfig(rates=(0.0,)),
        ):
            with pytest.raises(ConfigurationError):
                run_serving(config(), bad)


class TestRequestTrace:
    def test_kv_cache_shape(self):
        cls = REQUEST_CLASSES[0]
        trace = request_trace(cls)
        # Working set grows with sequence position: peak is prompt plus
        # every KV block live at once.
        expected = cls.prompt_bytes + (cls.decode_steps + 1) * cls.kv_bytes
        assert trace.peak_live_bytes() == expected
        # The last decode reads the prompt and the whole cache so far.
        decodes = [
            e
            for e in trace.events
            if getattr(e, "phase", None) == "decode"
        ]
        assert len(decodes) == cls.decode_steps
        assert len(decodes[-1].reads) == 1 + cls.decode_steps
