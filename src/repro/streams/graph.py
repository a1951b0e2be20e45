"""Dataflow graphs: named stages, automation, live rewiring.

The demo lets attendees "change the dependency of the data flow to
evaluate the flexibility of the data stream analysis" — a
:class:`FlowGraph` holds named operators as a DAG (a successor map,
ordered by the stdlib's :mod:`graphlib`), supports connect/disconnect at
runtime, validates acyclicity, and can bind sources to MQTT topics for
automation.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Callable

from ..mqtt import Broker, Message
from .operators import Event, Operator


class FlowGraphError(ValueError):
    """Invalid graph operation (unknown stage, cycle, duplicate name)."""


class FlowGraph:
    """A named, rewirable operator DAG."""

    def __init__(self, name: str = "flow") -> None:
        self.name = name
        self._stages: dict[str, Operator] = {}
        self._successors: dict[str, set[str]] = {}

    # -- construction -----------------------------------------------------
    def add(self, stage_name: str, operator: Operator) -> Operator:
        if stage_name in self._stages:
            raise FlowGraphError(f"duplicate stage name: {stage_name}")
        self._stages[stage_name] = operator
        self._successors[stage_name] = set()
        return operator

    def connect(self, upstream: str, downstream: str) -> None:
        """Add an edge; refuses cycles."""
        up = self._stage(upstream)
        down = self._stage(downstream)
        self._successors[upstream].add(downstream)
        try:
            self._sorter().prepare()
        except CycleError:
            self._successors[upstream].remove(downstream)
            raise FlowGraphError(
                f"edge {upstream} -> {downstream} would create a cycle"
            ) from None
        up.to(down)

    def disconnect(self, upstream: str, downstream: str) -> None:
        up = self._stage(upstream)
        down = self._stage(downstream)
        if downstream not in self._successors[upstream]:
            raise FlowGraphError(f"no edge {upstream} -> {downstream}")
        self._successors[upstream].remove(downstream)
        up.disconnect(down)

    def _sorter(self) -> TopologicalSorter:
        sorter = TopologicalSorter()
        for name, successors in self._successors.items():
            sorter.add(name)
            for successor in successors:
                sorter.add(successor, name)
        return sorter

    def _stage(self, name: str) -> Operator:
        try:
            return self._stages[name]
        except KeyError:
            raise FlowGraphError(f"unknown stage: {name}") from None

    def stage(self, name: str) -> Operator:
        return self._stage(name)

    # -- execution ----------------------------------------------------------
    def push(self, source_name: str, event: Event) -> None:
        stage = self._stage(source_name)
        stage.push(event)

    def flush(self) -> None:
        """Flush all sources (roots) so windows/segments close."""
        for name in self.roots():
            self._stages[name].flush()

    # -- automation -----------------------------------------------------------
    def bind_mqtt(
        self,
        broker: Broker,
        topic_filter: str,
        source_name: str,
        extract: Callable[[Message], Event | None],
        client_id: str | None = None,
    ) -> None:
        """Drive a source from an MQTT subscription (paper: "automation").

        ``extract`` turns a broker message into an event (or None to
        skip); every matching publish then flows through the graph with
        no manual pushes.
        """
        source = self._stage(source_name)
        client = broker.connect(client_id or f"flow-{self.name}-{source_name}")

        def handler(message: Message) -> None:
            event = extract(message)
            if event is not None:
                source.push(event)

        client.subscribe(topic_filter, handler)

    # -- introspection -----------------------------------------------------------
    def roots(self) -> list[str]:
        fed = {s for successors in self._successors.values() for s in successors}
        return sorted(n for n in self._successors if n not in fed)

    def leaves(self) -> list[str]:
        return sorted(n for n, successors in self._successors.items() if not successors)

    def topological_order(self) -> list[str]:
        return list(self._sorter().static_order())

    def edges(self) -> list[tuple[str, str]]:
        return sorted(
            (u, v) for u, successors in self._successors.items() for v in successors
        )

    def describe(self) -> str:
        """ASCII rendering of the DAG in topological order."""
        lines = [f"flow graph '{self.name}':"]
        for name in self.topological_order():
            succ = sorted(self._successors[name])
            arrow = f" -> {', '.join(succ)}" if succ else " (sink)"
            op = self._stages[name]
            lines.append(
                f"  {name} [{type(op).__name__}: in={op.received} out={op.emitted}]{arrow}"
            )
        return "\n".join(lines)
