"""Dashboards (paper Fig. 6): the Zeppelin-over-OpenTSDB role.

"The dashboard is implemented using Apache Zeppelin as the visualization
platform and accesses the data from the OpenTSDB time series database.
The mapped sensors show the real-time data and analytic results for each
location."

A :class:`Dashboard` is a grid of panels, each bound to a TSDB query (or
a live-value/analytic callable).  Rendering pulls fresh data, so calling
``render_text``/``render_html`` repeatedly gives the "real-time" view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..analytics.aqi import caqi
from ..tsdb import Query, TimeSeriesStore
from .render import horizontal_bar, value_color
from .timeseries import Chart


@dataclass
class TimeseriesPanel:
    """A line chart bound to one TSDB query."""

    title: str
    query: Query

    def _result(self, db: TimeSeriesStore):
        return db.run(self.query)

    def render_text(
        self, db: TimeSeriesStore, width: int = 72, result=None
    ) -> str:
        chart = Chart(self.title, width=width)
        for series in self._result(db) if result is None else result:
            chart.add_result(series)
        return chart.render_text()

    def render_html(self, db: TimeSeriesStore, result=None) -> str:
        chart = Chart(self.title)
        for series in self._result(db) if result is None else result:
            chart.add_result(series)
        return chart.render_svg()


@dataclass
class GaugePanel:
    """Latest value per series of one metric (the map tiles of Fig. 6)."""

    title: str
    metric: str
    tags: dict = field(default_factory=dict)
    vmax: float | None = None
    unit: str = ""

    def _rows(self, db: TimeSeriesStore) -> list[tuple[str, float]]:
        latest = db.last(self.metric, self.tags)
        rows = []
        for key, (ts, value) in sorted(latest.items(), key=lambda kv: str(kv[0])):
            label = key.tag("node") or key.tag("source") or str(key)
            rows.append((label, value))
        return rows

    def render_text(self, db: TimeSeriesStore, width: int = 72) -> str:
        rows = self._rows(db)
        vmax = self.vmax or (max((v for _, v in rows), default=1.0) or 1.0)
        lines = [f"== {self.title} =="]
        if not rows:
            lines.append("  (no data)")
        for label, value in rows:
            bar = horizontal_bar(value, vmax, width=24)
            lines.append(f"  {label:<12} {bar} {value:8.1f} {self.unit}")
        return "\n".join(lines)

    def render_html(self, db: TimeSeriesStore) -> str:
        rows = self._rows(db)
        vmax = self.vmax or (max((v for _, v in rows), default=1.0) or 1.0)
        cells = "".join(
            f'<div class="gauge"><span class="label">{label}</span>'
            f'<span class="value" style="color:{value_color(value, 0, vmax)}">'
            f"{value:.1f} {self.unit}</span></div>"
            for label, value in rows
        )
        return f'<div class="panel"><h3>{self.title}</h3>{cells or "(no data)"}</div>'


@dataclass
class AqiPanel:
    """Per-node CAQI tiles computed from the latest pollutant values."""

    title: str
    city: str | None = None

    _METRICS = {
        "no2_ugm3": "air.no2.ugm3",
        "pm10_ugm3": "air.pm10.ugm3",
        "pm25_ugm3": "air.pm25.ugm3",
    }

    def compute(self, db: TimeSeriesStore) -> dict[str, dict]:
        tags = {"city": self.city} if self.city else {}
        per_node: dict[str, dict[str, float]] = {}
        for quantity, metric in self._METRICS.items():
            for key, (_ts, value) in db.last(metric, tags).items():
                node = key.tag("node") or str(key)
                per_node.setdefault(node, {})[quantity] = value
        out = {}
        for node, concentrations in sorted(per_node.items()):
            try:
                result = caqi(concentrations)
            except ValueError:
                continue
            out[node] = {
                "index": result.index,
                "band": result.band,
                "dominant": result.dominant,
            }
        return out

    def render_text(self, db: TimeSeriesStore, width: int = 72) -> str:
        lines = [f"== {self.title} =="]
        tiles = self.compute(db)
        if not tiles:
            lines.append("  (no data)")
        for node, info in tiles.items():
            lines.append(
                f"  {node:<12} CAQI {info['index']:6.1f}  "
                f"{info['band']:<10} (dominant: {info['dominant']})"
            )
        return "\n".join(lines)

    def render_html(self, db: TimeSeriesStore) -> str:
        tiles = self.compute(db)
        cells = "".join(
            f'<div class="tile {info["band"]}"><b>{node}</b> '
            f'{info["index"]:.0f} ({info["band"]})</div>'
            for node, info in tiles.items()
        )
        return f'<div class="panel"><h3>{self.title}</h3>{cells or "(no data)"}</div>'


@dataclass
class TextPanel:
    """Free-form analytic output (a callable returning text)."""

    title: str
    producer: Callable[[TimeSeriesStore], str]

    def render_text(self, db: TimeSeriesStore, width: int = 72) -> str:
        return f"== {self.title} ==\n{self.producer(db)}"

    def render_html(self, db: TimeSeriesStore) -> str:
        return (
            f'<div class="panel"><h3>{self.title}</h3>'
            f"<pre>{self.producer(db)}</pre></div>"
        )


Panel = TimeseriesPanel | GaugePanel | AqiPanel | TextPanel


@dataclass
class Dashboard:
    """A named collection of panels over one TSDB."""

    title: str
    db: TimeSeriesStore
    panels: list[Panel] = field(default_factory=list)

    def add(self, panel: Panel) -> "Dashboard":
        self.panels.append(panel)
        return self

    def prefetch_results(self) -> dict[int, object]:
        """One batched ``run_many`` for every panel-bound query.

        The whole dashboard plans as a single batch: panels sharing
        series share scans and alignments, and duplicate queries
        execute once.  Returns panel-index → result.
        """
        bound = [
            (i, p.query)
            for i, p in enumerate(self.panels)
            if isinstance(p, TimeseriesPanel)
        ]
        if not bound:
            return {}
        results = self.db.run_many([q for _, q in bound])
        return {i: r for (i, _), r in zip(bound, results)}

    def _render_panels(
        self,
        renderer: str,
        width: int | None = None,
        prefetched: dict[int, object] | None = None,
    ) -> list[str]:
        results = self.prefetch_results() if prefetched is None else prefetched
        parts = []
        for i, panel in enumerate(self.panels):
            kwargs = {} if width is None else {"width": width}
            if isinstance(panel, TimeseriesPanel):
                kwargs["result"] = results.get(i)
            parts.append(getattr(panel, renderer)(self.db, **kwargs))
        return parts

    def render_text(
        self, width: int = 72, *, prefetched: dict[int, object] | None = None
    ) -> str:
        return "\n\n".join(
            [
                f"### {self.title} ###",
                *self._render_panels("render_text", width, prefetched),
            ]
        )

    def render_html(
        self, *, prefetched: dict[int, object] | None = None
    ) -> str:
        body = "\n".join(self._render_panels("render_html", None, prefetched))
        return (
            "<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{self.title}</title>"
            "<style>body{font-family:monospace;background:#f7f7f7}"
            ".panel{background:#fff;border:1px solid #ccc;margin:8px;"
            "padding:8px;display:inline-block;vertical-align:top}"
            ".tile{display:inline-block;margin:4px;padding:6px;"
            "border-radius:4px;background:#eee}"
            ".very_low{background:#aaf0c9}.low{background:#d7f0aa}"
            ".medium{background:#f8e08e}.high{background:#f5b680}"
            ".very_high{background:#f08a8a}</style></head><body>"
            f"<h1>{self.title}</h1>\n{body}\n</body></html>"
        )


def batch_prefetch(dashboards: list["Dashboard"]) -> list[dict[int, object]]:
    """Prefetch panel results for several dashboards in one pass.

    Panels are grouped by their dashboard's store and each store gets a
    single ``run_many`` batch — the wall display's N dashboards over one
    TSDB cost one planning pass instead of one per panel.  Returns one
    panel-index → result mapping per dashboard.
    """
    out: list[dict[int, object]] = [{} for _ in dashboards]
    by_store: dict[int, tuple[object, list[tuple[int, int, object]]]] = {}
    for di, dash in enumerate(dashboards):
        for pi, panel in enumerate(dash.panels):
            if isinstance(panel, TimeseriesPanel):
                by_store.setdefault(id(dash.db), (dash.db, []))[1].append(
                    (di, pi, panel.query)
                )
    for store, items in by_store.values():
        results = store.run_many([q for _, _, q in items])
        for (di, pi, _), res in zip(items, results):
            out[di][pi] = res
    return out
