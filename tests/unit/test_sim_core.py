"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (AllOf, AnyOf, Event, Interrupt, Simulator,
                       SimulationError, Timeout)


class TestEvent:
    def test_event_starts_untriggered(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_callback_after_processed_still_runs(self, sim):
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["x"]


class TestTimeoutAndClock:
    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(5)
            return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_timeouts_fire_in_order(self, sim):
        order = []

        def waiter(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(waiter(3, "c"))
        sim.process(waiter(1, "a"))
        sim.process(waiter(2, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        order = []

        def waiter(tag):
            yield sim.timeout(1)
            order.append(tag)

        for tag in "abc":
            sim.process(waiter(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_stops_clock(self, sim):
        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        sim.run(until=10)
        assert sim.now == 10

    def test_run_until_past_raises(self, sim):
        sim.now = 5
        with pytest.raises(SimulationError):
            sim.run(until=1)


class TestProcess:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_exception_propagates(self, sim):
        def proc():
            yield sim.timeout(1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sim.run_process(proc())

    def test_yield_non_event_fails(self, sim):
        def proc():
            yield 42

        with pytest.raises(SimulationError):
            sim.run_process(proc())

    def test_wait_on_another_process(self, sim):
        def inner():
            yield sim.timeout(3)
            return "inner-result"

        def outer():
            value = yield sim.process(inner())
            return value, sim.now

        assert sim.run_process(outer()) == ("inner-result", 3.0)

    def test_failed_event_throws_into_waiter(self, sim):
        event = sim.event()

        def failer():
            yield sim.timeout(1)
            event.fail(RuntimeError("bad"))

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                return f"caught:{exc}"

        sim.process(failer())
        assert sim.run_process(waiter()) == "caught:bad"

    def test_interrupt_cancels_wait(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100)
                return "slept"
            except Interrupt as exc:
                return f"interrupted:{exc.cause}"

        proc = sim.process(sleeper())

        def killer():
            yield sim.timeout(2)
            proc.interrupt("reason")

        sim.process(killer())
        sim.run()
        assert proc.value == "interrupted:reason"

    def test_interrupt_dead_process_is_noop(self, sim):
        def quick():
            yield sim.timeout(1)

        proc = sim.process(quick())
        sim.run()
        proc.interrupt("late")  # must not raise
        sim.run()

    def test_unhandled_interrupt_fails_quietly(self, sim):
        def sleeper():
            yield sim.timeout(100)

        proc = sim.process(sleeper())

        def killer():
            yield sim.timeout(1)
            proc.interrupt("kill")

        sim.process(killer())
        sim.run()
        assert not proc.ok
        assert isinstance(proc.value, Interrupt)

    def test_unobserved_process_failure_raises_at_step(self, sim):
        def bad():
            yield sim.timeout(1)
            raise KeyError("unobserved")

        sim.process(bad())
        with pytest.raises(KeyError):
            sim.run()

    def test_defused_failure_does_not_crash(self, sim):
        def bad():
            yield sim.timeout(1)
            raise KeyError("defused")

        proc = sim.process(bad())
        proc.defused = True
        sim.run()
        assert not proc.ok

    def test_starved_process_detected(self, sim):
        def stuck():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="starved"):
            sim.run_process(stuck())


class TestConditions:
    def test_any_of_first_wins(self, sim):
        def proc():
            yield sim.any_of([sim.timeout(5), sim.timeout(2)])
            return sim.now

        assert sim.run_process(proc()) == 2.0

    def test_all_of_waits_for_all(self, sim):
        def proc():
            result = yield sim.all_of([sim.timeout(5, "a"), sim.timeout(2, "b")])
            return sorted(result.values()), sim.now

        assert sim.run_process(proc()) == (["a", "b"], 5.0)

    def test_empty_all_of_succeeds_immediately(self, sim):
        def proc():
            yield sim.all_of([])
            return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_any_of_fails_on_first_failure(self, sim):
        event = sim.event()

        def failer():
            yield sim.timeout(1)
            event.fail(ValueError("first"))

        def proc():
            try:
                yield sim.any_of([event, sim.timeout(10)])
            except ValueError:
                return "failed"

        sim.process(failer())
        assert sim.run_process(proc()) == "failed"

    def test_all_of_with_already_processed_member(self, sim):
        t1 = sim.timeout(1, "early")

        def proc():
            yield t1
            result = yield sim.all_of([t1, sim.timeout(4, "late")])
            return sim.now, len(result)

        assert sim.run_process(proc()) == (5.0, 2)


def _log_when_processed(event, log, tag):
    event.add_callback(lambda e: log.append(tag))


class TestReadyQueue:
    """Same-instant events keep the (time, scheduling order) order."""

    def test_heap_entry_due_now_precedes_ready_entries(self, sim):
        log = []
        first, second = sim.timeout(1), sim.timeout(1)
        woken = sim.event()

        def on_first(_):
            log.append("first")
            woken.succeed()     # scheduled at t=1, after `second` was

        first.add_callback(on_first)
        _log_when_processed(second, log, "second")
        _log_when_processed(woken, log, "woken")
        sim.run()
        assert log == ["first", "second", "woken"]

    def test_delay_too_small_to_move_the_clock_queues_behind_ready(self, sim):
        log = []
        woken = sim.event()

        def on_first(_):
            woken.succeed()
            assert sim.now + 1e-20 == sim.now
            _log_when_processed(sim.timeout(1e-20), log, "tiny")

        sim.timeout(1).add_callback(on_first)
        _log_when_processed(sim.timeout(1), log, "second")
        _log_when_processed(woken, log, "woken")
        sim.run()
        assert log == ["second", "woken", "tiny"]
        assert sim.now == 1.0

    def test_interrupt_before_start_lands_at_first_yield(self, sim):
        log = []

        def body():
            log.append("started")
            try:
                yield sim.timeout(5)
            except Interrupt as exc:
                log.append(f"interrupted:{exc.cause}@{sim.now}")

        sim.process(body()).interrupt("early")
        sim.run()
        assert log == ["started", "interrupted:early@0.0"]

    def test_pending_counts_timers_ready_events_and_deferred(self, sim):
        assert sim.pending == 0
        sim.timeout(3)
        done = sim.event().succeed()
        assert sim.pending == 2
        sim.step()                              # `done` processed
        done.add_callback(lambda e: None)       # deferred callback
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0


class TestDroppedTimers:
    """Timers nobody can be waiting for leave the schedule at once."""

    @staticmethod
    def _race(sim, deadline_s=10):
        """A process whose 1 s wait beats a deadline only it waits on."""
        deadline = sim.timeout(deadline_s, "deadline")

        def racer():
            result = yield sim.any_of([sim.timeout(1, "reply"), deadline])
            return sorted(result.values())

        return sim.process(racer()), deadline

    def test_interrupt_strands_no_timer(self, sim):
        before = sim.pending

        def sleeper():
            try:
                yield sim.timeout(10)
            except Interrupt:
                return "interrupted"

        proc = sim.process(sleeper())

        def killer():
            yield sim.timeout(1)
            proc.interrupt()

        sim.process(killer())
        sim.run(until=1)
        assert proc.value == "interrupted"
        assert sim.pending == before
        sim.run()
        assert sim.now == 1.0       # drained without visiting t=10

    def test_losing_deadline_is_dropped_not_reported(self, sim):
        proc, deadline = self._race(sim)
        sim.run(until=2)
        assert proc.value == ["reply"]
        assert sim.pending == 0
        assert not deadline.processed
        sim.run()
        assert sim.now == 2

    def test_loser_with_a_second_waiter_still_fires(self, sim):
        proc, deadline = self._race(sim)
        log = []
        _log_when_processed(deadline, log, "deadline")
        sim.run()
        assert proc.value == ["reply"]
        assert log == ["deadline"] and sim.now == 10.0

    def test_loser_shared_by_two_conditions_still_fires(self, sim):
        shared = sim.timeout(5, "shared")
        fast = sim.any_of([sim.timeout(1, "fast"), shared])
        slow = sim.any_of([sim.timeout(9, "slow"), shared])
        sim.run()
        assert sorted(fast.value.values()) == ["fast"]
        assert sorted(slow.value.values()) == ["shared"]

    def test_waiting_again_on_a_dropped_timer_brings_it_back(self, sim):
        proc, deadline = self._race(sim)
        sim.run(until=2)

        def late_waiter():
            value = yield deadline
            return value, sim.now

        assert sim.run_process(late_waiter()) == ("deadline", 10.0)

    def test_dropped_timer_behind_the_clock_counts_as_processed(self, sim):
        proc, deadline = self._race(sim)
        sim.run(until=20)
        assert deadline.processed

        def late_waiter():
            value = yield deadline
            return value, sim.now

        assert sim.run_process(late_waiter()) == ("deadline", 20.0)

    def test_revival_at_its_own_instant_keeps_scheduling_order(self, sim):
        # `deadline` (t=3) was scheduled before `marker` (t=3): whoever
        # waits on it again while `marker` runs finds it processed, and
        # whoever does so while `early` (scheduled first) runs does not.
        log = []
        early = sim.timeout(3)
        proc, deadline = self._race(sim, deadline_s=3)
        marker = sim.timeout(3)
        early.add_callback(lambda e: log.append(("early", deadline.processed)))
        marker.add_callback(lambda e: log.append(("marker", deadline.processed)))
        sim.run()
        assert log == [("early", False), ("marker", True)]

    def test_cancel_takes_a_callback_timer_off_the_schedule(self, sim):
        fired = []
        deadline = sim.timeout(10)
        deadline.add_callback(fired.append)
        sim.timeout(1)
        assert sim.pending == 2
        deadline.cancel()
        deadline.cancel()               # idempotent
        assert sim.pending == 1
        sim.run()
        assert fired == [] and sim.now == 1.0 and sim.pending == 0

    def test_cancel_of_a_due_now_or_processed_timer(self, sim):
        fired = []
        zero = sim.timeout(0)           # ready queue, not the heap
        zero.add_callback(fired.append)
        zero.cancel()
        done = sim.timeout(1)
        sim.run()
        done.cancel()                   # already processed: nothing to do
        assert fired == [] and sim.pending == 0

    def test_cancelled_timer_comes_back_for_a_new_waiter(self, sim):
        deadline = sim.timeout(10, "deadline")
        deadline.add_callback(lambda e: None)
        deadline.cancel()
        fired = []
        deadline.add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [10.0]

    def test_interrupting_a_sleeper_on_a_cancelled_timer_drops_once(self, sim):
        nap = sim.timeout(10)

        def sleeper():
            yield nap

        proc = sim.process(sleeper())
        sim.run(until=1)
        nap.cancel()
        proc.interrupt()
        sim.run(until=2)
        assert not proc.is_alive and sim.pending == 0

    def test_peek_skips_dropped_entries(self, sim):
        self._race(sim, deadline_s=5)
        sim.timeout(7)
        sim.run(until=2)
        assert sim.peek() == 7.0

    def test_run_until_neither_stops_short_nor_overshoots(self, sim):
        self._race(sim, deadline_s=5)
        fired = []
        _log_when_processed(sim.timeout(8), fired, 8)
        _log_when_processed(sim.timeout(20), fired, 20)
        sim.run(until=2)
        sim.run(until=10)       # dropped entry (t=5) at the top of the heap
        assert sim.now == 10 and fired == [8]
        sim.run(until=15)
        assert sim.now == 15 and fired == [8]

    def test_step_on_only_dropped_entries_is_an_empty_schedule(self, sim):
        self._race(sim)
        sim.run(until=2)
        assert sim.pending == 0
        with pytest.raises(SimulationError, match="empty schedule"):
            sim.step()

    def test_compaction_keeps_the_heap_list_and_the_order(self, sim):
        heap = sim._heap
        fired = []

        def burst():
            yield sim.timeout(1)
            won = sim.event()
            for i in range(200):
                sim.any_of([won, sim.timeout(50 + i)])
                if i % 2:
                    _log_when_processed(sim.timeout(2 + i % 3), fired, 2 + i % 3)
            # One step processes `won`: 200 lost races, a compaction.
            won.succeed()
            yield sim.timeout(5)
            return len(heap)

        entries_left = sim.run_process(burst())
        assert sim._heap is heap
        assert entries_left < 100           # the 200 deadlines were swept
        assert fired == sorted(fired) and len(fired) == 100
        sim.run()
        assert sim.now == 6.0
