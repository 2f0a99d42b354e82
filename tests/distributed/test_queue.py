"""Unit semantics of the lease/heartbeat/publish work queue.

Every test but the long-poll ones injects explicit ``now`` timestamps —
the queue's clock is a parameter precisely so expiry, backoff and
harvest ordering can be pinned deterministically, with no sleeps.  The
long-poll tests hold a real lease in a thread and time how soon it
answers after the change that should wake it.
"""

import queue as queue_module
import threading
import time

import pytest

from repro.distributed.queue import WorkQueue
from repro.exceptions import ConfigurationError
from repro.supervision import RetryPolicy


def make_queue(max_retries=2, backoff=0.5, lease_seconds=10.0):
    policy = RetryPolicy(max_retries=max_retries, backoff=backoff)
    return WorkQueue(policy=policy, lease_seconds=lease_seconds)


def drain(work_queue):
    events = []
    while True:
        try:
            events.append(work_queue.events.get_nowait())
        except queue_module.Empty:
            return events


class TestLeasing:
    def test_rejects_nonpositive_lease(self):
        with pytest.raises(ConfigurationError):
            make_queue(lease_seconds=0.0)

    def test_grants_in_enqueue_order(self):
        work_queue = make_queue()
        work_queue.add("b", b"second")
        work_queue.add("a", b"first")
        work_queue.seal()
        first = work_queue.lease("w1", now=0.0)
        second = work_queue.lease("w2", now=0.0)
        assert first["status"] == "ok" and first["task"] == "b"
        assert first["payload"] == b"second"
        assert second["task"] == "a"

    def test_empty_unsealed_queue_says_wait_not_done(self):
        # A worker racing the driver's enqueue loop must poll, not exit.
        work_queue = make_queue()
        assert work_queue.lease("w", now=0.0)["status"] == "wait"
        assert not work_queue.done()
        work_queue.seal()
        assert work_queue.lease("w", now=0.0)["status"] == "done"
        assert work_queue.done()

    def test_all_leased_says_wait(self):
        work_queue = make_queue()
        work_queue.add("t", b"x")
        work_queue.seal()
        assert work_queue.lease("w1", now=0.0)["status"] == "ok"
        answer = work_queue.lease("w2", now=1.0)
        assert answer["status"] == "wait"
        assert answer["retry_after"] >= 0.05


class TestHeartbeat:
    def test_heartbeat_extends_deadline(self):
        work_queue = make_queue(lease_seconds=10.0)
        work_queue.add("t", b"x")
        work_queue.seal()
        work_queue.lease("w", now=0.0)
        assert work_queue.heartbeat("t", "w", now=8.0)
        # Past the original deadline (10.0) but inside the renewed one.
        assert work_queue.expire(now=12.0) == 0
        assert work_queue.expire(now=18.1) == 1

    def test_heartbeat_from_wrong_worker_or_state_fails(self):
        work_queue = make_queue()
        work_queue.add("t", b"x")
        work_queue.seal()
        assert not work_queue.heartbeat("t", "w", now=0.0)  # not leased
        work_queue.lease("w", now=0.0)
        assert not work_queue.heartbeat("t", "impostor", now=1.0)
        assert not work_queue.heartbeat("ghost", "w", now=1.0)


class TestChargingAndBackoff:
    def test_expiry_charges_with_policy_backoff(self):
        work_queue = make_queue(max_retries=2, backoff=0.5, lease_seconds=5.0)
        work_queue.add("t", b"x")
        work_queue.seal()
        work_queue.lease("w", now=0.0)
        assert work_queue.expire(now=5.0) == 1
        events = drain(work_queue)
        assert len(events) == 1
        kind, task_id, error, attempt, delay = events[0]
        assert kind == "retried" and task_id == "t" and attempt == 1
        assert "lease expired" in error and "silent" in error
        assert delay == pytest.approx(0.5)  # policy.delay_for(1)
        # Re-enqueued but backing off: not leasable until not_before.
        assert work_queue.lease("w2", now=5.1)["status"] == "wait"
        assert work_queue.lease("w2", now=5.6)["status"] == "ok"

    def test_published_error_charges_like_expiry(self):
        work_queue = make_queue(max_retries=1, backoff=0.25)
        work_queue.add("t", b"x")
        work_queue.seal()
        work_queue.lease("w", now=0.0)
        assert work_queue.publish_error("t", "w", "ValueError: boom", now=1.0)
        kind, _, error, attempt, delay = drain(work_queue)[0]
        assert kind == "retried" and attempt == 1
        assert error == "ValueError: boom"
        assert delay == pytest.approx(0.25)

    def test_giveup_after_max_retries(self):
        work_queue = make_queue(max_retries=1, backoff=0.0001)
        work_queue.add("t", b"x")
        work_queue.seal()
        work_queue.lease("w", now=0.0)
        work_queue.publish_error("t", "w", "first", now=0.0)
        work_queue.lease("w", now=1.0)
        work_queue.publish_error("t", "w", "second", now=1.0)
        events = drain(work_queue)
        assert events[0][0] == "retried"
        assert events[1] == ("giveup", "t", "second", 2)
        assert work_queue.stats()["poisoned"] == 1
        assert work_queue.done()

    def test_unsupervised_policy_gives_up_on_first_failure(self):
        work_queue = make_queue(max_retries=0)
        work_queue.add("t", b"x")
        work_queue.seal()
        work_queue.lease("w", now=0.0)
        work_queue.publish_error("t", "w", "boom", now=0.0)
        assert drain(work_queue) == [("giveup", "t", "boom", 1)]


class TestPublishing:
    def test_result_completes_task(self):
        work_queue = make_queue()
        work_queue.add("t", b"x")
        work_queue.seal()
        work_queue.lease("w", now=0.0)
        assert work_queue.publish_result("t", "w", b"answer", now=2.0)
        assert drain(work_queue) == [("result", "t", b"answer")]
        assert work_queue.done()

    def test_late_survivor_result_is_harvested_once(self):
        # The lease expired and the task was re-enqueued — but the
        # "dead" worker finishes anyway.  Its result is harvested, and
        # a second publish (from the replacement worker) is dropped.
        work_queue = make_queue(max_retries=2, backoff=0.0001, lease_seconds=5.0)
        work_queue.add("t", b"x")
        work_queue.seal()
        work_queue.lease("slow", now=0.0)
        work_queue.expire(now=5.0)
        assert work_queue.publish_result("t", "slow", b"late", now=6.0)
        assert not work_queue.publish_result("t", "fast", b"dup", now=7.0)
        events = drain(work_queue)
        results = [event for event in events if event[0] == "result"]
        assert results == [("result", "t", b"late")]
        assert work_queue.done()

    def test_unknown_task_publish_is_dropped(self):
        work_queue = make_queue()
        work_queue.seal()
        assert not work_queue.publish_result("ghost", "w", b"x", now=0.0)
        assert not work_queue.publish_error("ghost", "w", "boom", now=0.0)

    def test_stats_counts_states(self):
        work_queue = make_queue()
        work_queue.add("a", b"1")
        work_queue.add("b", b"2")
        work_queue.seal()
        work_queue.lease("w", now=0.0)
        stats = work_queue.stats()
        assert stats == {
            "pending": 1,
            "leased": 1,
            "done": 0,
            "poisoned": 0,
            "total": 2,
            "sealed": 1,
        }


# --------------------------------------------------------------------------- #
#: How soon a held lease must answer after the change that wakes it.
PROMPT = 0.05

#: A hold long enough that a missed wake-up fails the timing assertions.
HOLD = 2.0


def held_lease(work_queue, worker="waiter", wait=HOLD):
    """Start ``lease(worker, wait=wait)`` in a thread, once it is waiting.

    Returns ``(thread, outcome)``; ``outcome`` gains the answer and the
    monotonic time it returned.
    """
    outcome = {}

    def run():
        outcome["answer"] = work_queue.lease(worker, wait=wait)
        outcome["at"] = time.monotonic()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    time.sleep(0.1)  # let it reach the condition wait
    assert thread.is_alive(), outcome
    return thread, outcome


def answered(thread, outcome, since):
    """The held lease's answer, asserting it came within PROMPT of ``since``."""
    thread.join(timeout=HOLD + 1.0)
    assert not thread.is_alive()
    assert outcome["at"] - since < PROMPT, outcome["at"] - since
    return outcome["answer"]


class TestLongPoll:
    def test_add_wakes_a_held_lease(self):
        work_queue = make_queue()
        thread, outcome = held_lease(work_queue)
        work_queue.add("t", b"x")
        answer = answered(thread, outcome, time.monotonic())
        assert answer["status"] == "ok" and answer["task"] == "t"

    def test_seal_wakes_a_held_lease_with_done(self):
        work_queue = make_queue()
        thread, outcome = held_lease(work_queue)
        work_queue.seal()
        assert answered(thread, outcome, time.monotonic()) == {"status": "done"}

    def test_final_publish_wakes_a_held_lease_with_done(self):
        # The campaign-end case: one worker holds the last task, the
        # other waits; the last publish must release the waiter at once.
        work_queue = make_queue()
        work_queue.add("t", b"x")
        work_queue.seal()
        assert work_queue.lease("busy")["status"] == "ok"
        thread, outcome = held_lease(work_queue)
        assert work_queue.publish_result("t", "busy", b"answer")
        assert answered(thread, outcome, time.monotonic()) == {"status": "done"}

    def test_expiry_charge_wakes_a_held_lease_with_the_task(self):
        work_queue = make_queue(backoff=0.0, lease_seconds=0.2)
        work_queue.add("t", b"x")
        work_queue.seal()
        assert work_queue.lease("silent")["status"] == "ok"
        thread, outcome = held_lease(work_queue)
        time.sleep(0.2)  # past the silent worker's deadline
        assert work_queue.expire() == 1
        answer = answered(thread, outcome, time.monotonic())
        assert answer["status"] == "ok" and answer["task"] == "t"

    def test_hold_ends_at_the_earliest_backoff(self):
        work_queue = make_queue(backoff=0.2)
        work_queue.add("t", b"x")
        work_queue.seal()
        work_queue.lease("w")
        work_queue.publish_error("t", "w", "boom")  # pending until +0.2 s
        ready_at = time.monotonic() + 0.2
        thread, outcome = held_lease(work_queue)
        assert answered(thread, outcome, ready_at)["status"] == "ok"

    def test_unanswered_hold_lasts_wait_and_says_retry_now(self):
        work_queue = make_queue()
        started = time.monotonic()
        answer = work_queue.lease("w", wait=0.2)
        elapsed = time.monotonic() - started
        assert answer == {"status": "wait", "retry_after": 0.0}
        assert 0.2 <= elapsed < 0.2 + PROMPT * 2, elapsed

    def test_wait_zero_never_blocks(self):
        work_queue = make_queue()
        started = time.monotonic()
        for now in (0.0, 1.0, 2.0):
            assert work_queue.lease("w", now=now)["status"] == "wait"
        work_queue.add("t", b"x")
        work_queue.lease("w1", now=3.0)
        assert work_queue.lease("w2", now=3.0)["retry_after"] >= 0.05
        assert time.monotonic() - started < PROMPT
