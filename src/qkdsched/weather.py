"""Hourly cloud cover and scheduler-input filtering.

Cloud cover arrives as hourly values per station and day (columns h00..h23).
Within the simulation it is piecewise constant: the value at hour H holds
for every slot starting in [H:00, H+1:00). Filtering removes links whose
cloud cover strictly exceeds a threshold from the scheduler input so the
slots can serve somebody else instead. One keep rule (:func:`kept`) decides
for an estimate table's rows and, before any estimate is built, for a
scenario's visibility rows.
"""

from __future__ import annotations

import csv
import datetime as _dt

import numpy as np

from .channel import EstimateTable, slot_hour
from .orbit import VisibilityTable
from .scenario import Scenario


class WeatherError(ValueError):
    pass


def load_clouds(path, date: _dt.date) -> dict:
    """station_id -> (24,) hourly cloud cover on ``date``, from a clouds CSV
    (station_id, date, h00..h23). Every row of every date is checked (cover
    in [0, 1], one row per date and station); rows of other dates are then
    ignored."""
    hour_cols = [f"h{h:02d}" for h in range(24)]
    by_date: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = ["station_id", "date"] + hour_cols
        if reader.fieldnames != need:
            raise WeatherError(f"{path}: expected columns {need}")
        for row in reader:
            row_date = _dt.date.fromisoformat(row["date"])
            sid = int(row["station_id"])
            day = by_date.setdefault(row_date, {})
            if sid in day:
                raise WeatherError(f"{path}: duplicate station {sid} for {row_date}")
            values = np.array([float(row[c]) for c in hour_cols])
            if not np.all((values >= 0.0) & (values <= 1.0)):   # NaN included
                raise WeatherError(f"{path}: station {sid} cloud cover out of [0, 1]")
            day[sid] = values
    if date not in by_date:
        raise WeatherError(f"{path}: no rows for {date}")
    return by_date[date]


def cloud_matrix(hourly: dict, scenario: Scenario) -> np.ndarray:
    """Dense (n_stations, n_slots) cloud-cover array for estimate building
    from :func:`load_clouds`' map, wrapping past the stored day; a station
    without a row reads clear sky."""
    time = scenario.time
    hours = slot_hour(np.arange(time.slot_count), time.slot_duration_s)
    out = np.zeros((scenario.n_stations, time.slot_count))
    for i, st in enumerate(scenario.stations):
        if st.station_id in hourly:
            out[i] = hourly[st.station_id][hours]
    return out


def check_threshold(threshold: float) -> None:
    """Raise WeatherError for a threshold :func:`kept` refuses."""
    if not 0.0 <= threshold <= 1.0:
        raise WeatherError("filter threshold out of [0, 1]")


def kept(cloud, threshold: float) -> np.ndarray:
    """The filter's keep rule: True where cloud cover is at most ``threshold``.

    Equality stays in: a link at exactly the threshold is still offered to
    the schedulers. ``cloud`` may be an estimate table's cloud column or a
    whole :func:`cloud_matrix`.
    """
    check_threshold(threshold)
    return np.asarray(cloud) <= threshold


def _keep_or_take(rows, keep: np.ndarray):
    """``rows`` itself when ``keep`` keeps every row, else its kept rows."""
    return rows if keep.all() else rows.take(keep)


def filter_visibility(visibility: VisibilityTable, clouds: np.ndarray,
                      threshold: float) -> VisibilityTable:
    """The visibility rows whose cloud cover (``clouds[station, slot]``, as
    :func:`cloud_matrix` lays it out) :func:`kept` keeps, or the input
    itself when it keeps every row. Estimating these rows gives, bit for
    bit, the table :func:`apply_filter` cuts from the estimates of every
    row, without building that table.
    """
    return _keep_or_take(visibility,
                         kept(clouds, threshold)[visibility.station, visibility.slot])


def apply_filter(estimates: EstimateTable, threshold: float) -> EstimateTable:
    """Drop rows whose cloud cover strictly exceeds ``threshold`` (:func:`kept`).

    Returns a new table of the kept rows, or the input itself when every
    row passes (as in an already filtered dump); the input is never changed.
    """
    return _keep_or_take(estimates, kept(estimates.cloud, threshold))
