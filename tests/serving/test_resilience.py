"""Gateway resilience: request TTLs, worker kill/restart, quiesce."""

from __future__ import annotations

import time

import pytest

from repro.durability.journal import TradeJournal
from repro.errors import DeadlineExceededError
from repro.resilience import ManualClock
from repro.serving import ServingConfig
from repro.serving.gateway import ServingGateway

from .conftest import TIERS

ALPHA, DELTA = TIERS[0].alpha, TIERS[0].delta

#: Single-worker, windowless, cacheless: every submit dispatches alone,
#: so worker liveness fully controls when a request is served.
DIRECT = ServingConfig(batch_window=0.0, workers=1, enable_cache=False)


def wait_for(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not reached in time")
        time.sleep(0.001)


class TestRequestTtl:
    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            ServingConfig(request_ttl=0.0)
        with pytest.raises(ValueError):
            ServingConfig(request_ttl=-1.0)

    def test_stale_request_fails_fast_and_is_never_billed(self, service):
        config = ServingConfig(
            batch_window=0.0, workers=1, enable_cache=False,
            request_ttl=0.05,
        )
        with service.serve(config=config) as gateway:
            # No live worker: the request ages in the queue past its TTL.
            gateway.kill_worker()
            wait_for(lambda: gateway.alive_workers == 0)
            future = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
            time.sleep(0.1)
            gateway.spawn_worker()
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=5.0)
            counters = gateway.telemetry.snapshot()["counters"]
            assert counters["gateway.deadline_exceeded"] == 1
        # Failed fast, before billing or budget: the books never saw it.
        assert len(service.broker.ledger) == 0
        assert service.broker.accountant.spent(service.broker.dataset) == 0.0

    def test_fresh_request_is_unaffected_by_ttl(self, service):
        config = ServingConfig(
            batch_window=0.0, workers=1, enable_cache=False,
            request_ttl=30.0,
        )
        with service.serve(config=config) as gateway:
            answer = gateway.submit_range(0.0, 50.0, ALPHA, DELTA).result(
                timeout=5.0
            )
            assert answer.plan.epsilon_prime > 0
            counters = gateway.telemetry.snapshot()["counters"]
            assert "gateway.deadline_exceeded" not in counters


class TestWorkerChurn:
    def test_queued_requests_resume_after_restart(self, service):
        with service.serve(config=DIRECT) as gateway:
            gateway.kill_worker()
            wait_for(lambda: gateway.alive_workers == 0)
            futures = [
                gateway.submit_range(0.0, 50.0 + i, ALPHA, DELTA)
                for i in range(3)
            ]
            assert not any(f.done() for f in futures)
            gateway.spawn_worker()
            answers = [f.result(timeout=5.0) for f in futures]
        assert all(a.plan.epsilon_prime > 0 for a in answers)
        assert len(service.broker.ledger) == 3
        counters = gateway.telemetry.snapshot()["counters"]
        assert counters["gateway.worker_kills"] == 1
        assert counters["gateway.worker_restarts"] == 1

    def test_alive_workers_tracks_kills_and_spawns(self, service):
        with service.serve(config=DIRECT) as gateway:
            assert gateway.alive_workers == 1
            gateway.kill_worker()
            wait_for(lambda: gateway.alive_workers == 0)
            gateway.spawn_worker()
            wait_for(lambda: gateway.alive_workers == 1)

    def test_stop_still_drains_when_all_workers_dead(self, service):
        gateway = service.serve(config=DIRECT)
        gateway.start()
        gateway.kill_worker()
        wait_for(lambda: gateway.alive_workers == 0)
        future = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
        gateway.stop()
        assert future.done()
        assert future.exception() is None


class TestQuiesce:
    def test_quiesce_holds_dispatch_until_released(self, service):
        with service.serve(config=DIRECT) as gateway:
            with gateway.quiesce():
                future = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
                time.sleep(0.05)
                assert not future.done()
            answer = future.result(timeout=5.0)
            assert answer.plan.epsilon_prime > 0


class TestQuiesceDeadlineRace:
    """``quiesce()`` racing in-flight deadline expiry on a manual clock.

    The hold window is exactly where the race lives: requests accepted
    before the clock jump must fail fast on release (never billed),
    while requests accepted after it carry fresh deadlines and survive.
    """

    def make_gateway(
        self, service, ttl: float = 0.25
    ) -> "tuple[ServingGateway, ManualClock]":
        clock = ManualClock()
        gateway = ServingGateway(
            broker=service.broker,
            config=ServingConfig(
                batch_window=0.0, workers=1, enable_cache=False,
                request_ttl=ttl,
            ),
            clock=clock,
        )
        return gateway, clock

    def test_requests_expired_under_quiesce_fail_on_release(self, service):
        gateway, clock = self.make_gateway(service)
        with gateway:
            with gateway.quiesce():
                stale = [
                    gateway.submit_range(0.0, 50.0 + i, ALPHA, DELTA)
                    for i in range(3)
                ]
                clock.advance(0.3)  # past every held deadline
                fresh = gateway.submit_range(0.0, 99.0, ALPHA, DELTA)
            for future in stale:
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=5.0)
            answer = fresh.result(timeout=5.0)
            assert answer.plan.epsilon_prime > 0
            counters = gateway.telemetry.snapshot()["counters"]
            assert counters["gateway.deadline_exceeded"] == 3
            assert "gateway.post_deadline_release" not in counters
        # Only the fresh request ever reached the books.
        assert len(service.broker.ledger) == 1
        assert service.broker.accountant.spent(
            service.broker.dataset
        ) == pytest.approx(answer.plan.epsilon_prime)

    def test_boundary_deadline_survives_quiesce(self, service):
        # Advance to *exactly* the TTL: the deadline contract is strict
        # (`clock() > expires_at`), so the held request must still serve.
        gateway, clock = self.make_gateway(service, ttl=0.25)
        with gateway:
            with gateway.quiesce():
                future = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
                clock.advance(0.25)
            answer = future.result(timeout=5.0)
            assert answer.plan.epsilon_prime > 0
            counters = gateway.telemetry.snapshot()["counters"]
            assert "gateway.deadline_exceeded" not in counters
        assert len(service.broker.ledger) == 1

    def test_quiesce_against_inflight_submit_is_always_clean(self, service):
        # Submit *before* entering quiesce: the dispatcher may or may
        # not pick the request up before the hold lands.  Either way the
        # outcome must be clean -- served answer backed by a ledger row,
        # or a fail-fast expiry the books never saw.  Never a release
        # after the deadline.
        gateway, clock = self.make_gateway(service)
        with gateway:
            future = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
            with gateway.quiesce():
                clock.advance(0.3)
            try:
                answer = future.result(timeout=5.0)
                assert answer.plan.epsilon_prime > 0
                assert len(service.broker.ledger) == 1
            except DeadlineExceededError:
                assert len(service.broker.ledger) == 0
                assert service.broker.accountant.spent(
                    service.broker.dataset
                ) == 0.0
            counters = gateway.telemetry.snapshot()["counters"]
            assert "gateway.post_deadline_release" not in counters


class TestReplayDeadline:
    def test_coalesced_replay_past_its_deadline_is_never_billed(
        self, service, monkeypatch
    ):
        """A duplicate coalesced behind a slow release must not be billed
        once its own deadline has passed while it waited."""
        broker = service.broker
        broker.journal = TradeJournal()
        clock = ManualClock()
        gateway = ServingGateway(
            broker=broker,
            config=ServingConfig(batch_window=0.0, request_ttl=1.0),
            clock=clock,
        )
        release = broker.answer_batch

        def slow_answer_batch(*args, **kwargs):
            answers = release(*args, **kwargs)
            clock.advance(5.0)  # Alice's release takes 5 s
            return answers

        monkeypatch.setattr(broker, "answer_batch", slow_answer_batch)
        # Never started: stop() drains both requests as one window.
        alice = gateway.submit_range(0.0, 50.0, ALPHA, DELTA, consumer="alice")
        bob = gateway.submit_range(0.0, 50.0, ALPHA, DELTA, consumer="bob")
        gateway.stop()

        assert alice.result(timeout=5.0).consumer == "alice"
        with pytest.raises(DeadlineExceededError):
            bob.result(timeout=5.0)
        assert [e.consumer for e in broker.journal.entries()] == ["alice"]
        assert [t.consumer for t in broker.ledger.transactions] == ["alice"]
        counters = gateway.telemetry.snapshot()["counters"]
        assert counters["gateway.deadline_exceeded"] == 1
        # Only Alice's release (already committed) outlived its deadline.
        assert counters["gateway.post_deadline_release"] == 1
