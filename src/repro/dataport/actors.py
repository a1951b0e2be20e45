"""A deterministic actor runtime (the Akka role in the paper).

Paper §2.3: the dataport "is built with the Akka framework, which
facilitates the creation of fault-tolerant applications based on the
actor model.  Actors are independent, supervised processes that
encapsulate data and control logic and communicate via messages."

This module reproduces the parts the dataport depends on:

- actors with mailboxes and run-to-completion message processing;
- a parent/child hierarchy ("actors are organized hierarchically");
- supervision: a failing actor is restarted/stopped/escalated per its
  parent's strategy, with a restart budget;
- timers bound to the simulation scheduler.

Delivery is deterministic: one system-wide FIFO dispatch queue, drained
run-to-completion whenever a message enters from outside.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..simclock import EventHandle, Scheduler


class SupervisionDirective(enum.Enum):
    """What a supervisor does with a failed child."""

    RESTART = "restart"
    STOP = "stop"
    ESCALATE = "escalate"


@dataclass(frozen=True)
class SupervisorStrategy:
    """Restart budget: at most ``max_restarts`` within ``window_s``.

    When the budget is exhausted the directive degrades to STOP.
    """

    directive: SupervisionDirective = SupervisionDirective.RESTART
    max_restarts: int = 3
    window_s: int = 3600


@dataclass(frozen=True)
class DeadLetter:
    """A message that could not be delivered."""

    target: str
    message: Any
    reason: str


class Actor:
    """Base class; subclass and override :meth:`receive`.

    Lifecycle hooks: :meth:`pre_start` runs on spawn and after each
    restart; :meth:`post_stop` runs when the actor stops for good.
    """

    def __init__(self) -> None:
        # Populated by the system before pre_start.
        self.context: ActorContext = None  # type: ignore[assignment]

    # -- lifecycle -------------------------------------------------------
    def pre_start(self) -> None:  # pragma: no cover - default no-op
        pass

    def post_stop(self) -> None:  # pragma: no cover - default no-op
        pass

    # -- behaviour -------------------------------------------------------
    def receive(self, message: Any, sender: "ActorRef | None") -> None:
        raise NotImplementedError

    # -- supervision -----------------------------------------------------
    def supervisor_strategy(self) -> SupervisorStrategy:
        """Strategy applied to *children* of this actor."""
        return SupervisorStrategy()


@dataclass(frozen=True)
class ActorRef:
    """Location-transparent handle to an actor."""

    path: str
    _system: "ActorSystem" = field(repr=False, compare=False)

    def tell(self, message: Any, sender: "ActorRef | None" = None) -> None:
        self._system._enqueue(self, message, sender)

    @property
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]


class ActorContext:
    """Per-actor view of the system, available as ``self.context``."""

    def __init__(self, system: "ActorSystem", cell: "_Cell") -> None:
        self._system = system
        self._cell = cell

    @property
    def self_ref(self) -> ActorRef:
        return self._cell.ref

    @property
    def parent(self) -> ActorRef | None:
        return self._cell.parent.ref if self._cell.parent else None

    @property
    def system(self) -> "ActorSystem":
        return self._system

    @property
    def now(self) -> int:
        return self._system.scheduler.clock.now()

    def spawn(self, factory: Callable[[], Actor], name: str) -> ActorRef:
        return self._system._spawn(factory, name, parent=self._cell)

    def stop(self, ref: ActorRef | None = None) -> None:
        self._system.stop(ref or self.self_ref)

    def schedule_tell_every(
        self, interval_s: int, message: Any, to: ActorRef | None = None
    ) -> EventHandle:
        target = to or self.self_ref
        handle = self._system.scheduler.call_every(
            interval_s, lambda now: target.tell(message)
        )
        self._cell.timers.append(handle)
        return handle


class _Cell:
    """Internal actor bookkeeping."""

    __slots__ = (
        "ref",
        "factory",
        "actor",
        "parent",
        "children",
        "stopped",
        "restart_times",
        "timers",
    )

    def __init__(
        self,
        ref: ActorRef,
        factory: Callable[[], Actor],
        parent: "_Cell | None",
    ) -> None:
        self.ref = ref
        self.factory = factory
        self.actor: Actor | None = None
        self.parent = parent
        self.children: dict[str, _Cell] = {}
        self.stopped = False
        self.restart_times: list[int] = []
        self.timers: list[EventHandle] = []


class ActorSystem:
    """The deterministic actor runtime.

    Messages are processed in FIFO order across the whole system, one at
    a time, run to completion.  A message sent while another is being
    processed is queued behind it — exactly the semantics tests need for
    reproducibility.
    """

    def __init__(self, scheduler: Scheduler | None = None, name: str = "dataport") -> None:
        self.name = name
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self._cells: dict[str, _Cell] = {}
        self._queue: deque[tuple[ActorRef, Any, ActorRef | None]] = deque()
        self._dispatching = False
        self.dead_letters: list[DeadLetter] = []
        self.processed = 0
        root_ref = ActorRef(f"{name}://", self)
        self._root = _Cell(root_ref, Actor, None)

    # -- spawning ----------------------------------------------------------
    def spawn(self, factory: Callable[[], Actor], name: str) -> ActorRef:
        """Create a top-level actor."""
        return self._spawn(factory, name, parent=self._root)

    def _spawn(
        self, factory: Callable[[], Actor], name: str, parent: _Cell
    ) -> ActorRef:
        if "/" in name:
            raise ValueError(f"actor name may not contain '/': {name!r}")
        path = f"{parent.ref.path}/{name}"  # root "name://" -> "name:///child"
        if name in parent.children:
            raise ValueError(f"duplicate child name {name!r} under {parent.ref.path}")
        ref = ActorRef(path, self)
        cell = _Cell(ref, factory, parent)
        parent.children[name] = cell
        self._cells[path] = cell
        self._start(cell)
        return ref

    def _start(self, cell: _Cell) -> None:
        actor = cell.factory()
        actor.context = ActorContext(self, cell)
        cell.actor = actor
        actor.pre_start()

    # -- messaging ---------------------------------------------------------
    def _enqueue(self, target: ActorRef, message: Any, sender: ActorRef | None) -> None:
        self._queue.append((target, message, sender))
        if not self._dispatching:
            self.dispatch_all()

    def dispatch_all(self) -> int:
        """Drain the dispatch queue; returns messages processed."""
        if self._dispatching:
            return 0
        self._dispatching = True
        n = 0
        try:
            while self._queue:
                target, message, sender = self._queue.popleft()
                self._deliver(target, message, sender)
                n += 1
        finally:
            self._dispatching = False
        self.processed += n
        return n

    def _deliver(self, target: ActorRef, message: Any, sender: ActorRef | None) -> None:
        cell = self._cells.get(target.path)
        if cell is None or cell.stopped or cell.actor is None:
            self.dead_letters.append(
                DeadLetter(target.path, message, "no such actor")
            )
            return
        try:
            cell.actor.receive(message, sender)
        except Exception as exc:  # supervision boundary
            self._handle_failure(cell, exc)

    # -- supervision ---------------------------------------------------------
    def _handle_failure(self, cell: _Cell, exc: Exception) -> None:
        parent = cell.parent
        strategy = (
            parent.actor.supervisor_strategy()
            if parent is not None and parent.actor is not None
            else SupervisorStrategy()
        )
        directive = strategy.directive
        if directive is SupervisionDirective.RESTART:
            now = self.scheduler.clock.now()
            cell.restart_times = [
                t for t in cell.restart_times if t >= now - strategy.window_s
            ]
            if len(cell.restart_times) >= strategy.max_restarts:
                directive = SupervisionDirective.STOP
            else:
                cell.restart_times.append(now)
                self._restart(cell, exc)
                return
        if directive is SupervisionDirective.STOP:
            self.stop(cell.ref)
            return
        # ESCALATE: treat the parent as failed.
        if parent is not None and parent is not self._root:
            self._handle_failure(parent, exc)
        else:
            self.stop(cell.ref)

    def _restart(self, cell: _Cell, exc: Exception) -> None:
        # Akka semantics: a restart replaces the actor instance and its
        # children; pre_start rebuilds the subtree from scratch.
        for child in list(cell.children.values()):
            self.stop(child.ref)
        for timer in cell.timers:
            timer.cancel()
        cell.timers.clear()
        old = cell.actor
        if old is not None:
            try:
                old.post_stop()
            except Exception:
                pass
        self._start(cell)

    # -- stopping --------------------------------------------------------------
    def stop(self, ref: ActorRef) -> None:
        cell = self._cells.get(ref.path)
        if cell is None or cell.stopped:
            return
        for child in list(cell.children.values()):
            self.stop(child.ref)
        cell.stopped = True
        for timer in cell.timers:
            timer.cancel()
        if cell.actor is not None:
            try:
                cell.actor.post_stop()
            except Exception:
                pass
        if cell.parent is not None:
            cell.parent.children.pop(cell.ref.name, None)
        del self._cells[ref.path]

    # -- introspection ------------------------------------------------------
    def actor_of(self, path: str) -> ActorRef | None:
        cell = self._cells.get(path)
        return cell.ref if cell else None

    def actor_instance(self, ref: ActorRef) -> Actor | None:
        """The live actor object (tests and status views only)."""
        cell = self._cells.get(ref.path)
        return cell.actor if cell and not cell.stopped else None

    def actor_count(self) -> int:
        return len(self._cells)
