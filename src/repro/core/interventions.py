"""Decision support: intervention what-ifs (paper intro + future work).

The paper motivates high-granularity sensing with "impact assessment of
measures ranging from small-scale such as closing down certain streets
(and being able to observe spillover and evasion effects in surrounding
parts of the city) to large-scale such as changes in public transport";
"integration into decision support systems is a far goal."

This module implements that assessment loop against the simulated city:

1. define an intervention (street closure / traffic reduction);
2. apply it to the environment's road network (closed traffic partly
   *evades* onto the remaining roads — the spillover effect);
3. evaluate pollutant fields at the sensor locations before/after;
4. report per-location deltas so a policymaker sees both the local win
   and the spillover cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..geo import GeoPoint
from ..sensors.environment import RoadSegment, UrbanEnvironment


@dataclass(frozen=True)
class StreetClosure:
    """Close (or throttle) one road; traffic evades to the others.

    ``evasion_fraction`` of the removed traffic reappears spread over the
    remaining roads (weighted by their existing volume); the rest
    genuinely disappears (trips not taken, mode shift).
    """

    road_name: str
    reduction: float = 1.0  # 1.0 = full closure
    evasion_fraction: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.reduction <= 1.0:
            raise ValueError(f"reduction must be in (0, 1]: {self.reduction}")
        if not 0.0 <= self.evasion_fraction <= 1.0:
            raise ValueError(
                f"evasion_fraction must be in [0, 1]: {self.evasion_fraction}"
            )


@dataclass(frozen=True)
class TransitImprovement:
    """Large-scale measure: all road traffic scales down uniformly."""

    traffic_reduction: float  # e.g. 0.15 = 15 % fewer vehicle-km

    def __post_init__(self) -> None:
        if not 0.0 < self.traffic_reduction < 1.0:
            raise ValueError(
                f"traffic_reduction must be in (0, 1): {self.traffic_reduction}"
            )


Intervention = StreetClosure | TransitImprovement


def apply_intervention(
    roads: list[RoadSegment], intervention: Intervention
) -> list[RoadSegment]:
    """New road list with the intervention's traffic redistribution."""
    if isinstance(intervention, TransitImprovement):
        factor = 1.0 - intervention.traffic_reduction
        return [replace(r, traffic_weight=r.traffic_weight * factor) for r in roads]

    target = next((r for r in roads if r.name == intervention.road_name), None)
    if target is None:
        raise ValueError(f"unknown road: {intervention.road_name!r}")
    removed = target.traffic_weight * intervention.reduction
    evaded = removed * intervention.evasion_fraction
    others = [r for r in roads if r.name != intervention.road_name]
    total_other = sum(r.traffic_weight for r in others)
    out = [replace(target, traffic_weight=target.traffic_weight - removed)]
    for r in others:
        share = (r.traffic_weight / total_other) if total_other > 0 else (
            1.0 / len(others) if others else 0.0
        )
        out.append(replace(r, traffic_weight=r.traffic_weight + evaded * share))
    # Preserve original ordering.
    by_name = {r.name: r for r in out}
    return [by_name[r.name] for r in roads]


@dataclass(frozen=True)
class LocationImpact:
    """Before/after pollutant levels at one probe location."""

    label: str
    location: GeoPoint
    no2_before: float
    no2_after: float
    pm10_before: float
    pm10_after: float

    @property
    def no2_delta(self) -> float:
        return self.no2_after - self.no2_before

    @property
    def improved(self) -> bool:
        return self.no2_delta < 0.0


@dataclass(frozen=True)
class ImpactAssessment:
    """The decision-support artifact: per-location deltas + the verdict."""

    intervention: Intervention
    impacts: tuple[LocationImpact, ...]

    @property
    def spillover_locations(self) -> list[LocationImpact]:
        """Locations that got *worse* — the evasion cost."""
        return [i for i in self.impacts if i.no2_delta > 0.25]

    @property
    def net_no2_delta(self) -> float:
        return float(np.mean([i.no2_delta for i in self.impacts]))

    def summary(self) -> str:
        lines = [f"intervention: {self.intervention}"]
        for i in sorted(self.impacts, key=lambda x: x.no2_delta):
            arrow = "improved " if i.improved else (
                "SPILLOVER" if i.no2_delta > 0.25 else "unchanged"
            )
            lines.append(
                f"  {i.label:<14} NO2 {i.no2_before:6.1f} -> {i.no2_after:6.1f} "
                f"({i.no2_delta:+5.1f})  {arrow}"
            )
        lines.append(
            f"  net mean NO2 change: {self.net_no2_delta:+.2f} ug/m3 over "
            f"{len(self.impacts)} locations "
            f"({len(self.spillover_locations)} spillover)"
        )
        return "\n".join(lines)


def assess_intervention(
    environment: UrbanEnvironment,
    intervention: Intervention,
    probes: dict[str, GeoPoint],
    timestamps: list[int],
) -> ImpactAssessment:
    """Evaluate an intervention over probe locations and times.

    Builds a counterfactual environment with the redistributed road
    network (same seed: weather and background identical, so deltas
    isolate the traffic effect) and averages pollutant fields over the
    given timestamps (pick rush hours for the strongest signal).
    """
    if not probes:
        raise ValueError("need at least one probe location")
    if not timestamps:
        raise ValueError("need at least one timestamp")
    counterfactual_roads = apply_intervention(
        list(environment.field.roads), intervention
    )
    counterfactual = UrbanEnvironment(
        environment.city,
        environment.center,
        seed=environment.seed,
        roads=counterfactual_roads,
        mean_temp_c=environment.weather.mean_temp_c,
    )
    impacts = []
    for label, loc in sorted(probes.items()):
        no2_b = float(np.mean([environment.no2_ugm3(t, loc) for t in timestamps]))
        no2_a = float(
            np.mean([counterfactual.no2_ugm3(t, loc) for t in timestamps])
        )
        pm_b = float(np.mean([environment.pm10_ugm3(t, loc) for t in timestamps]))
        pm_a = float(
            np.mean([counterfactual.pm10_ugm3(t, loc) for t in timestamps])
        )
        impacts.append(
            LocationImpact(
                label=label,
                location=loc,
                no2_before=no2_b,
                no2_after=no2_a,
                pm10_before=pm_b,
                pm10_after=pm_a,
            )
        )
    return ImpactAssessment(intervention=intervention, impacts=tuple(impacts))
