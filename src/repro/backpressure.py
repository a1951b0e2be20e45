"""The full-queue vocabulary shared by the fan-in lanes and the server.

A leaf module (stdlib only): :mod:`repro.region.queue` bounds batch
queues with it and :mod:`repro.serve.server` bounds tenant admission
lanes with it, and neither has to import the other's package to say
``block`` / ``drop-oldest`` / ``spill``.
"""

from __future__ import annotations

import enum


class Backpressure(enum.Enum):
    """What a full queue does with the overflow."""

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    SPILL = "spill"

    @classmethod
    def coerce(cls, value: "Backpressure | str") -> "Backpressure":
        if isinstance(value, Backpressure):
            return value
        try:
            return cls(value)
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown backpressure policy {value!r}; pick one of {options}"
            ) from None
