"""Analytics: calibration, outliers, imputation, battery, CO2 dynamics, AQI."""

from .aqi import AqiResult, BANDS, band, caqi, sub_index
from .battery import (
    BatteryDelta,
    ChargeBalance,
    DepletionEstimate,
    battery_deltas,
    charge_balance,
    estimate_depletion,
)
from .calibration import (
    AccuracyReport,
    CalibrationError,
    LinearCalibration,
    NetworkCalibration,
    accuracy,
    fit_colocation,
    propagate_network,
)
from .dispersion import (
    GaussianPlume,
    StabilityClass,
    interpolate_field,
)
from .co2_dynamics import (
    CorrelationStudy,
    DiurnalComparison,
    FactorAttribution,
    correlation_study,
    diurnal_comparison,
    factor_attribution,
)
from .grounding import (
    GroundingReport,
    OverpassComparison,
    ground_against_satellite,
)
from .imputation import (
    Gap,
    GapReport,
    diurnal_impute,
    diurnal_profile,
    gap_report,
    interpolate_gaps,
)
from .outliers import (
    DriftReport,
    OutlierReport,
    StuckRun,
    drift_against_peers,
    rolling_mad_outliers,
    stuck_values,
)
from .patterns import (
    AnomalousPeriod,
    WeeklyProfile,
    anomalous_days,
    weekly_profile,
)

__all__ = [
    "AccuracyReport",
    "AnomalousPeriod",
    "AqiResult",
    "BANDS",
    "BatteryDelta",
    "CalibrationError",
    "ChargeBalance",
    "CorrelationStudy",
    "DepletionEstimate",
    "DiurnalComparison",
    "DriftReport",
    "FactorAttribution",
    "Gap",
    "GapReport",
    "GaussianPlume",
    "GroundingReport",
    "LinearCalibration",
    "OverpassComparison",
    "ground_against_satellite",
    "StabilityClass",
    "interpolate_field",
    "NetworkCalibration",
    "OutlierReport",
    "StuckRun",
    "WeeklyProfile",
    "accuracy",
    "anomalous_days",
    "band",
    "battery_deltas",
    "caqi",
    "charge_balance",
    "correlation_study",
    "diurnal_comparison",
    "diurnal_impute",
    "diurnal_profile",
    "drift_against_peers",
    "estimate_depletion",
    "factor_attribution",
    "fit_colocation",
    "gap_report",
    "interpolate_gaps",
    "propagate_network",
    "rolling_mad_outliers",
    "stuck_values",
    "sub_index",
    "weekly_profile",
]
