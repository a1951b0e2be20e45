"""Tests for the actor runtime: mailboxes, hierarchy, supervision, timers."""

import pytest

from repro.dataport import (
    Actor,
    ActorSystem,
    SupervisionDirective,
    SupervisorStrategy,
)
from repro.simclock import Scheduler, SimClock


class Echo(Actor):
    def __init__(self):
        super().__init__()
        self.seen = []

    def receive(self, message, sender):
        self.seen.append(message)


class Crasher(Actor):
    started = 0

    def __init__(self):
        super().__init__()
        type(self).started += 1
        self.seen = []

    def receive(self, message, sender):
        if message == "boom":
            raise RuntimeError("crash")
        self.seen.append(message)


def make_system():
    return ActorSystem(Scheduler(SimClock(start=0)))


class TestBasics:
    def test_tell_delivers(self):
        system = make_system()
        ref = system.spawn(Echo, "echo")
        ref.tell("hello")
        assert system.actor_instance(ref).seen == ["hello"]

    def test_fifo_across_actors(self):
        system = make_system()
        log = []

        class A(Actor):
            def receive(self, message, sender):
                log.append(("a", message))
                if message == "first":
                    b_ref.tell("from-a")
                    log.append(("a-done", message))

        class B(Actor):
            def receive(self, message, sender):
                log.append(("b", message))

        a_ref = system.spawn(A, "a")
        b_ref = system.spawn(B, "b")
        a_ref.tell("first")
        # Run-to-completion: A finishes before B's message is processed.
        assert log == [("a", "first"), ("a-done", "first"), ("b", "from-a")]

    def test_dead_letters(self):
        system = make_system()
        ref = system.spawn(Echo, "echo")
        system.stop(ref)
        ref.tell("lost")
        assert len(system.dead_letters) == 1
        assert system.dead_letters[0].message == "lost"

    def test_duplicate_names_rejected(self):
        system = make_system()
        system.spawn(Echo, "echo")
        with pytest.raises(ValueError):
            system.spawn(Echo, "echo")

    def test_name_with_slash_rejected(self):
        with pytest.raises(ValueError):
            make_system().spawn(Echo, "a/b")

    def test_paths(self):
        system = make_system()
        ref = system.spawn(Echo, "echo")
        assert ref.path == "dataport:///echo"
        assert ref.name == "echo"


class TestHierarchy:
    def test_spawn_children(self):
        system = make_system()

        class Parent(Actor):
            def pre_start(self):
                self.child = self.context.spawn(Echo, "kid")

            def receive(self, message, sender):
                self.child.tell(message)

        parent = system.spawn(Parent, "parent")
        parent.tell("down")
        child_ref = system.actor_of("dataport:///parent/kid")
        assert child_ref is not None
        assert system.actor_instance(child_ref).seen == ["down"]

    def test_stop_cascades_to_children(self):
        system = make_system()

        class Parent(Actor):
            def pre_start(self):
                self.context.spawn(Echo, "kid")

            def receive(self, message, sender):
                pass

        parent = system.spawn(Parent, "parent")
        assert system.actor_of("dataport:///parent/kid") is not None
        system.stop(parent)
        assert system.actor_of("dataport:///parent/kid") is None


class TestSupervision:
    def setup_method(self):
        Crasher.started = 0

    def test_restart_on_failure(self):
        system = make_system()
        ref = system.spawn(Crasher, "c")
        ref.tell("ok")
        ref.tell("boom")
        ref.tell("after")
        assert Crasher.started == 2  # initial + one restart
        assert system.actor_instance(ref).seen == ["after"]  # state reset

    def test_restart_budget_exhaustion_stops(self):
        system = make_system()
        ref = system.spawn(Crasher, "c")
        for _ in range(5):
            ref.tell("boom")
        # Default budget: 3 restarts, then STOP.
        assert system.actor_instance(ref) is None
        ref.tell("late")
        assert system.dead_letters

    def test_stop_directive(self):
        system = make_system()

        class StopParent(Actor):
            def pre_start(self):
                self.kid = self.context.spawn(Crasher, "kid")

            def receive(self, message, sender):
                self.kid.tell(message)

            def supervisor_strategy(self):
                return SupervisorStrategy(directive=SupervisionDirective.STOP)

        parent = system.spawn(StopParent, "parent")
        parent.tell("boom")
        assert system.actor_of("dataport:///parent/kid") is None

    def test_escalate_directive(self):
        system = make_system()
        stopped = []

        class EscalateParent(Actor):
            def pre_start(self):
                self.kid = self.context.spawn(Crasher, "kid")

            def receive(self, message, sender):
                self.kid.tell(message)

            def post_stop(self):
                stopped.append("parent")

            def supervisor_strategy(self):
                return SupervisorStrategy(
                    directive=SupervisionDirective.ESCALATE, max_restarts=0
                )

        parent = system.spawn(EscalateParent, "parent")
        parent.tell("boom")
        # Escalation reaches the root, whose default strategy restarts
        # the parent (children are rebuilt fresh).
        assert system.actor_of("dataport:///parent") is not None

    def test_restart_window_slides(self):
        sched = Scheduler(SimClock(start=0))
        system = ActorSystem(sched)
        ref = system.spawn(Crasher, "c")
        for _ in range(3):
            ref.tell("boom")
        sched.clock.advance_to(7200)  # new budget window
        ref.tell("boom")
        assert system.actor_instance(ref) is not None  # still alive


class TestTimers:
    def test_schedule_tell_every(self):
        sched = Scheduler(SimClock(start=0))
        system = ActorSystem(sched)
        ref = system.spawn(Echo, "echo")
        actor = system.actor_instance(ref)
        actor.context.schedule_tell_every(10, "tick")
        sched.run_until(35)
        assert actor.seen == ["tick"] * 3

    def test_context_now_tracks_clock(self):
        sched = Scheduler(SimClock(start=500))
        system = ActorSystem(sched)
        ref = system.spawn(Echo, "echo")
        assert system.actor_instance(ref).context.now == 500
