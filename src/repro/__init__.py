"""repro: reproduction of "Analysis and Visualization of Urban Emission
Measurements in Smart Cities" (Ahlers et al., EDBT 2018).

The Carbon Track & Trace (CTT) smart-city air-quality ecosystem, built
from scratch: low-cost sensor simulation, LoRaWAN backbone, MQTT bus,
an OpenTSDB-style time-series database, the actor-based "dataport"
monitoring system with digital twins, external data integration
(Table 1), analytics (calibration, battery, CO2 dynamics), and
visualization (network map, dashboards, CityGML, wall display).

Quick start::

    from repro.core import CttEcosystem, trondheim_deployment
    eco = CttEcosystem([trondheim_deployment()])
    eco.start()
    eco.run(6 * 3600)  # six simulated hours
    print(eco.city("trondheim").delivery_stats())

``import repro`` itself is cheap: subpackages load on first use
(``repro.tsdb``, ``from repro import serve``), so a store process never
imports the domain model.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Every subpackage, resolved on first attribute access (PEP 562): a
#: process imports what it runs, so ``import repro.tsdb`` loads the
#: store and not the domain model (``core`` -> ``analytics`` -> scipy).
_SUBPACKAGES = (
    "analytics",
    "core",
    "dataport",
    "geo",
    "integration",
    "lorawan",
    "mqtt",
    "region",
    "replication",
    "sensors",
    "serve",
    "simclock",
    "streams",
    "tsdb",
    "viz",
)

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        # The import system binds the submodule on this package, so each
        # name comes through here once.
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBPACKAGES})
