"""Pattern understanding: weekly profiles and anomalous periods.

Paper §2.4 lists "understanding of patterns" among the ongoing analyses,
and the citizens' demo lets attendees "browse historic data in the
system to investigate anomalous emission levels".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeeklyProfile:
    """Mean value per (day-of-week, hour) cell; Monday = row 0."""

    matrix: np.ndarray  # shape (7, 24)

    def weekday_vs_weekend_ratio(self) -> float:
        weekday = np.nanmean(self.matrix[:5])
        weekend = np.nanmean(self.matrix[5:])
        return float(weekday / weekend) if weekend else float("nan")


def weekly_profile(values: np.ndarray, timestamps: np.ndarray) -> WeeklyProfile:
    v = np.asarray(values, dtype=float)
    ts = np.asarray(timestamps, dtype=np.int64)
    # Epoch (1970-01-01) was a Thursday = ISO weekday 3.
    dow = ((ts // 86400) + 3) % 7
    hod = (ts % 86400) // 3600
    # One bincount per statistic instead of 168 boolean-mask scans: each
    # sample lands in its (day, hour) cell index in a single pass.
    cell = (dow * 24 + hod).astype(np.intp)
    finite = np.isfinite(v)
    sums = np.bincount(cell[finite], weights=v[finite], minlength=168)
    counts = np.bincount(cell[finite], minlength=168)
    matrix = np.full(168, np.nan)
    occupied = counts > 0
    matrix[occupied] = sums[occupied] / counts[occupied]
    return WeeklyProfile(matrix.reshape(7, 24))


@dataclass(frozen=True)
class AnomalousPeriod:
    """A day whose mean sits far from the typical day."""

    day_start: int
    mean_value: float
    z_score: float


def anomalous_days(
    values: np.ndarray,
    timestamps: np.ndarray,
    threshold: float = 2.5,
) -> list[AnomalousPeriod]:
    """Days whose daily mean deviates > ``threshold`` robust sigmas.

    This is the "investigate anomalous emission levels" browsing aid:
    it returns candidate days, most anomalous first.
    """
    v = np.asarray(values, dtype=float)
    ts = np.asarray(timestamps, dtype=np.int64)
    day_keys = ts // 86400
    # Daily means via one inverse-index bincount pass (no per-day scans).
    days, inverse = np.unique(day_keys, return_inverse=True)
    finite = np.isfinite(v)
    sums = np.bincount(inverse[finite], weights=v[finite], minlength=days.size)
    counts = np.bincount(inverse[finite], minlength=days.size)
    means_arr = np.full(days.size, np.nan)
    occupied = counts > 0
    means_arr[occupied] = sums[occupied] / counts[occupied]
    finite = means_arr[np.isfinite(means_arr)]
    if finite.size < 3:
        return []
    med = np.median(finite)
    mad = np.median(np.abs(finite - med))
    sigma = max(1.4826 * mad, 1e-9)
    out = [
        AnomalousPeriod(
            day_start=int(d * 86400),
            mean_value=float(m),
            z_score=float((m - med) / sigma),
        )
        for d, m in zip(days, means_arr)
        if np.isfinite(m) and abs((m - med) / sigma) >= threshold
    ]
    out.sort(key=lambda a: -abs(a.z_score))
    return out
