"""Visualizations: charts, dashboards, network map, city model, wall."""

from .citygml_view import (
    attach_sensor_values,
    city_model_geojson,
    render_city_svg,
    siting_suggestions,
)
from .dashboard import (
    AqiPanel,
    Dashboard,
    GaugePanel,
    Panel,
    TextPanel,
    TimeseriesPanel,
)
from .network_map import render_svg_map, render_text_map, to_geojson
from .render import (
    COLOR_RAMP,
    SvgDocument,
    TextCanvas,
    horizontal_bar,
    sparkline,
    value_color,
)
from .timeseries import Chart
from .wall import WallDisplay, render_alarm_panel

__all__ = [
    "AqiPanel",
    "COLOR_RAMP",
    "Chart",
    "Dashboard",
    "GaugePanel",
    "Panel",
    "SvgDocument",
    "TextCanvas",
    "TextPanel",
    "TimeseriesPanel",
    "WallDisplay",
    "attach_sensor_values",
    "city_model_geojson",
    "horizontal_bar",
    "render_alarm_panel",
    "render_city_svg",
    "render_svg_map",
    "render_text_map",
    "siting_suggestions",
    "sparkline",
    "to_geojson",
    "value_color",
]
