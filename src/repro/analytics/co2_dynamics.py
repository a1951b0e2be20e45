"""CO2-dynamics study (paper Fig. 5).

The paper's finding: "we can conclude for this sensor location that
traffic is not the only factor that accounts for the dynamics of the CO2
emission as they exhibit different patterns, and have no apparent
correlation.  In fact, CO2 emission dynamic is a more complex issue that
may be affected by many factors, including traffic, wind speed,
temperature, humidity and other weather conditions, as well as daily and
seasonal patterns."

This module runs that study end-to-end: correlation between CO2 and the
jam factor (expected: low), plus a multi-factor linear attribution that
shows adding weather covariates explains far more variance than traffic
alone — the quantitative version of "a more complex issue".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CorrelationStudy:
    """Fig. 5's headline numbers."""

    pearson_r: float
    spearman_rho: float
    best_lag_s: int
    best_lag_r: float
    n: int

    @property
    def no_apparent_correlation(self) -> bool:
        """The paper's qualitative claim, operationalized: |r| < 0.5 at
        every lag tested (traffic never becomes a strong predictor)."""
        return abs(self.pearson_r) < 0.5 and abs(self.best_lag_r) < 0.5


def _correlation(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(x, y)[0, 1])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks
    (the "average" tie rule)."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def correlation_study(
    co2: np.ndarray,
    jam: np.ndarray,
    cadence_s: int,
    max_lag_s: int = 7200,
) -> CorrelationStudy:
    """Correlate CO2 against the traffic jam factor, scanning lags.

    Lags are scanned in both directions (traffic leading or trailing) so
    a delayed response cannot masquerade as "no correlation".  Spearman's
    rho is the Pearson correlation of the two series' average ranks.
    """
    co2 = np.asarray(co2, dtype=float)
    jam = np.asarray(jam, dtype=float)
    if co2.shape != jam.shape:
        raise ValueError("series must be aligned")
    mask = np.isfinite(co2) & np.isfinite(jam)
    x, y = co2[mask], jam[mask]
    if x.size < 10:
        raise ValueError(f"need >= 10 aligned samples, got {x.size}")
    pearson_r = _correlation(x, y)
    spearman_rho = _correlation(_average_ranks(x), _average_ranks(y))

    max_lag = max_lag_s // cadence_s
    best_lag, best_r = 0, pearson_r
    for lag in range(-max_lag, max_lag + 1):
        if lag == 0:
            continue
        if lag > 0:
            a, b = co2[lag:], jam[: co2.size - lag]
        else:
            a, b = co2[:lag], jam[-lag:]
        m = np.isfinite(a) & np.isfinite(b)
        if m.sum() < 10:
            continue
        r = _correlation(a[m], b[m])
        if abs(r) > abs(best_r):
            best_lag, best_r = lag, r
    return CorrelationStudy(
        pearson_r=pearson_r,
        spearman_rho=spearman_rho,
        best_lag_s=best_lag * cadence_s,
        best_lag_r=best_r,
        n=int(x.size),
    )


@dataclass(frozen=True)
class FactorAttribution:
    """Variance explained by nested factor sets."""

    r2_traffic_only: float
    r2_full: float
    coefficients: dict[str, float]
    n: int

    @property
    def complex_dynamics(self) -> bool:
        """The paper's conclusion: weather and daily patterns add a lot
        of explanatory power beyond traffic alone."""
        return self.r2_full > self.r2_traffic_only + 0.2


def _ols_r2(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((target - pred) ** 2))
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return coef, r2


def factor_attribution(
    co2: np.ndarray,
    factors: dict[str, np.ndarray],
    timestamps: np.ndarray,
) -> FactorAttribution:
    """Fit CO2 against traffic alone, then against the full factor set.

    ``factors`` must include ``"jam_factor"``; other keys (wind,
    temperature, humidity, ...) join the full model, as do sin/cos
    harmonics of the hour of day (the "daily patterns").
    """
    if "jam_factor" not in factors:
        raise ValueError('factors must include "jam_factor"')
    co2 = np.asarray(co2, dtype=float)
    ts = np.asarray(timestamps, dtype=np.int64)

    columns = {name: np.asarray(col, dtype=float) for name, col in factors.items()}
    mask = np.isfinite(co2)
    for col in columns.values():
        mask &= np.isfinite(col)
    if mask.sum() < 20:
        raise ValueError("need >= 20 complete rows")
    y = co2[mask]
    n = int(mask.sum())

    def standardize(col: np.ndarray) -> np.ndarray:
        sd = col.std()
        return (col - col.mean()) / sd if sd > 0 else col * 0.0

    ones = np.ones(n)
    jam = standardize(columns["jam_factor"][mask])
    _, r2_traffic = _ols_r2(np.column_stack([ones, jam]), y)

    names = ["jam_factor"] + sorted(k for k in columns if k != "jam_factor")
    cols = [standardize(columns[k][mask]) for k in names]
    hod = (ts[mask] % 86400) / 86400.0 * 2.0 * np.pi
    design = np.column_stack(
        [ones, *cols, np.sin(hod), np.cos(hod)]
    )
    coef, r2_full = _ols_r2(design, y)
    coefficients = {name: float(c) for name, c in zip(names, coef[1 : 1 + len(names)])}
    coefficients["sin_hod"] = float(coef[-2])
    coefficients["cos_hod"] = float(coef[-1])
    return FactorAttribution(
        r2_traffic_only=float(max(0.0, r2_traffic)),
        r2_full=float(max(0.0, r2_full)),
        coefficients=coefficients,
        n=n,
    )


@dataclass(frozen=True)
class DiurnalComparison:
    """Fig. 5's visual core: the two normalized daily patterns differ."""

    co2_profile: np.ndarray  # 24 normalized hourly means
    jam_profile: np.ndarray
    profile_correlation: float
    co2_peak_hour: int
    jam_peak_hour: int


def diurnal_comparison(
    co2: np.ndarray,
    jam: np.ndarray,
    timestamps: np.ndarray,
) -> DiurnalComparison:
    """Hourly mean profiles of both series, normalized to [0, 1]."""
    from .imputation import diurnal_profile

    ts = np.asarray(timestamps, dtype=np.int64)
    co2_prof = diurnal_profile(np.asarray(co2, float), ts, bins=24)
    jam_prof = diurnal_profile(np.asarray(jam, float), ts, bins=24)

    def norm(p: np.ndarray) -> np.ndarray:
        lo, hi = np.nanmin(p), np.nanmax(p)
        return (p - lo) / (hi - lo) if hi > lo else p * 0.0

    co2_n, jam_n = norm(co2_prof), norm(jam_prof)
    mask = np.isfinite(co2_n) & np.isfinite(jam_n)
    r = (
        float(np.corrcoef(co2_n[mask], jam_n[mask])[0, 1])
        if mask.sum() >= 3
        else float("nan")
    )
    return DiurnalComparison(
        co2_profile=co2_n,
        jam_profile=jam_n,
        profile_correlation=r,
        co2_peak_hour=int(np.nanargmax(co2_prof)),
        jam_peak_hour=int(np.nanargmax(jam_prof)),
    )
