"""External data integration: connectors for every Table 1 source class."""

from .base import Connector, Observation, SourceType
from .catalog import TABLE1, Catalog, SourceDescriptor, render_table1
from .citygml import (
    Building,
    CityGmlError,
    CityModel,
    generate_city_model,
    parse_citygml,
    write_citygml,
)
from .harmonize import (
    EXT_PREFIX,
    Harmonizer,
    SyncReport,
    observation_metric,
    observation_tags,
)
from .here_traffic import (
    HereTrafficConnector,
    UPDATE_INTERVAL_S,
    intensity_to_jam_factor,
)
from .national_stats import (
    DEFAULT_SECTORS,
    Municipality,
    NationalStatsConnector,
)
from .nilu import NiluStation, STATION_QUANTITIES
from .oco2 import Oco2Connector, REPEAT_CYCLE_S, SOUNDING_SIGMA_PPM
from .traffic_counts import CountingCampaign, MunicipalCountsConnector

__all__ = [
    "Building",
    "Catalog",
    "CityGmlError",
    "CityModel",
    "Connector",
    "CountingCampaign",
    "DEFAULT_SECTORS",
    "EXT_PREFIX",
    "Harmonizer",
    "HereTrafficConnector",
    "Municipality",
    "MunicipalCountsConnector",
    "NationalStatsConnector",
    "NiluStation",
    "Observation",
    "Oco2Connector",
    "REPEAT_CYCLE_S",
    "SOUNDING_SIGMA_PPM",
    "STATION_QUANTITIES",
    "SourceDescriptor",
    "SourceType",
    "SyncReport",
    "TABLE1",
    "UPDATE_INTERVAL_S",
    "generate_city_model",
    "intensity_to_jam_factor",
    "observation_metric",
    "observation_tags",
    "parse_citygml",
    "render_table1",
    "write_citygml",
]
