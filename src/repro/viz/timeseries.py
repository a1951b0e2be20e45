"""Time-series charts: the building block of every dashboard panel."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..tsdb import ResultSeries
from .render import SvgDocument, TextCanvas

_SERIES_COLORS = ("steelblue", "#e67e22", "#2ecc71", "#9b59b6", "#e74c3c",
                  "#16a085")


@dataclass
class Chart:
    """A multi-series line chart rendering to text or SVG."""

    title: str
    width: int = 72
    height: int = 14
    series: list[tuple[str, np.ndarray, np.ndarray]] = field(default_factory=list)

    def add(self, label: str, timestamps: np.ndarray, values: np.ndarray) -> None:
        ts = np.asarray(timestamps, dtype=np.int64)
        vs = np.asarray(values, dtype=float)
        if ts.shape != vs.shape:
            raise ValueError("timestamps and values must be aligned")
        self.series.append((label, ts, vs))

    def add_result(self, result_series: ResultSeries, label: str | None = None) -> None:
        self.add(
            label or result_series.label(),
            result_series.timestamps,
            result_series.values,
        )

    def _extent(self) -> tuple[int, int, float, float] | None:
        all_ts = [ts for _, ts, vs in self.series if ts.size]
        all_vs = [vs[np.isfinite(vs)] for _, ts, vs in self.series]
        all_vs = [v for v in all_vs if v.size]
        if not all_ts or not all_vs:
            return None
        t0 = int(min(ts.min() for ts in all_ts))
        t1 = int(max(ts.max() for ts in all_ts))
        lo = float(min(v.min() for v in all_vs))
        hi = float(max(v.max() for v in all_vs))
        if hi == lo:
            hi = lo + 1.0
        if t1 == t0:
            t1 = t0 + 1
        return t0, t1, lo, hi

    # -- text -----------------------------------------------------------
    def render_text(self) -> str:
        extent = self._extent()
        canvas = TextCanvas(self.width, self.height)
        canvas.frame(self.title)
        if extent is None:
            canvas.text(2, self.height // 2, "(no data)")
            return canvas.render()
        t0, t1, lo, hi = extent
        plot_w = self.width - 12
        plot_h = self.height - 4
        markers = "*o+x%@"
        for s_idx, (label, ts, vs) in enumerate(self.series):
            marker = markers[s_idx % len(markers)]
            # Columnar rasterization: map all points to cells in two
            # numpy expressions, then draw each *distinct* cell once.
            mask = np.isfinite(vs)
            if not mask.any():
                continue
            t = ts[mask].astype(np.float64)
            v = vs[mask]
            xs = 10 + ((t - t0) / (t1 - t0) * (plot_w - 1)).astype(np.intp)
            ys = (
                1 + plot_h - 1
                - ((v - lo) / (hi - lo) * (plot_h - 1)).astype(np.intp)
            )
            cells = np.unique(np.stack([xs, ys], axis=1), axis=0)
            for x, y in cells.tolist():
                canvas.set(x, y, marker)
        canvas.text(1, 1, f"{hi:9.1f}")
        canvas.text(1, self.height - 3, f"{lo:9.1f}")
        legend = "  ".join(
            f"{markers[i % len(markers)]}={label[:18]}"
            for i, (label, _, _) in enumerate(self.series)
        )
        canvas.text(2, self.height - 2, legend[: self.width - 4])
        return canvas.render()

    # -- svg ----------------------------------------------------------------
    def render_svg(self, px_width: int = 640, px_height: int = 240) -> str:
        svg = SvgDocument(px_width, px_height)
        svg.rect(0, 0, px_width, px_height, fill="white", stroke="#999")
        svg.text(8, 16, self.title, size=13)
        extent = self._extent()
        if extent is None:
            svg.text(px_width / 2, px_height / 2, "(no data)", anchor="middle")
            return svg.render()
        t0, t1, lo, hi = extent
        margin_l, margin_r, margin_t, margin_b = 52, 10, 26, 22
        pw = px_width - margin_l - margin_r
        ph = px_height - margin_t - margin_b

        def sx(t: float) -> float:
            return margin_l + (t - t0) / (t1 - t0) * pw

        def sy(v: float) -> float:
            return margin_t + (1.0 - (v - lo) / (hi - lo)) * ph

        # Axes + gridlines.
        svg.line(margin_l, margin_t, margin_l, margin_t + ph, stroke="#555")
        svg.line(margin_l, margin_t + ph, margin_l + pw, margin_t + ph, stroke="#555")
        for frac in (0.0, 0.5, 1.0):
            v = lo + frac * (hi - lo)
            svg.line(margin_l, sy(v), margin_l + pw, sy(v), stroke="#eee")
            svg.text(margin_l - 4, sy(v) + 4, f"{v:.1f}", size=10, anchor="end")

        for i, (label, ts, vs) in enumerate(self.series):
            color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
            # Columnar projection: both screen-space transforms run as
            # whole-array expressions; only the final string assembly
            # touches Python objects.
            mask = np.isfinite(vs)
            px = margin_l + (ts[mask].astype(np.float64) - t0) / (t1 - t0) * pw
            py = margin_t + (1.0 - (vs[mask] - lo) / (hi - lo)) * ph
            points = list(zip(px.tolist(), py.tolist()))
            if len(points) >= 2:
                svg.polyline(points, stroke=color)
            elif points:
                svg.circle(points[0][0], points[0][1], 2.5, fill=color)
            svg.text(
                margin_l + 6 + 150 * i, margin_t - 8, label[:22], size=10, fill=color
            )
        return svg.render()
