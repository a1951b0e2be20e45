"""Stream processing: operators, segmentation, chaining, automation."""

from .graph import FlowGraph, FlowGraphError
from .operators import (
    Event,
    Filter,
    Map,
    Operator,
    Segmenter,
    Sink,
    Source,
    TumblingWindow,
    chain,
)

__all__ = [
    "Event",
    "Filter",
    "FlowGraph",
    "FlowGraphError",
    "Map",
    "Operator",
    "Segmenter",
    "Sink",
    "Source",
    "TumblingWindow",
    "chain",
]
