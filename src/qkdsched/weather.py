"""Cloud-cover series and scheduler-input filtering.

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
from dataclasses import dataclass

import numpy as np

from .channel import EstimateTable, slot_hour
from .orbit import VisibilityTable
from .scenario import Scenario


class WeatherError(ValueError):
    pass


@dataclass
class CloudSeries:
    """Hourly cloud cover per station for one day.

    ``hourly`` maps station_id -> float array of shape (24,), values in
    [0, 1]. Stations absent from the map are treated as clear sky.
    """

    date: _dt.date
    hourly: dict


def load_clouds(path, date: _dt.date = None) -> CloudSeries:
    """Read a clouds CSV (station_id, date, h00..h23).

    With ``date`` given, only matching rows are kept; otherwise all rows
    must share one date. A station may appear at most once per date.
    """
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
    if date is not None:
        if date not in by_date:
            raise WeatherError(f"{path}: no rows for {date}")
        return CloudSeries(date=date, hourly=by_date[date])
    if not by_date:
        raise WeatherError(f"{path}: no rows")
    if len(by_date) > 1:
        raise WeatherError(f"{path}: multiple dates present, pass an explicit date")
    only_date, hourly = by_date.popitem()
    return CloudSeries(date=only_date, hourly=hourly)


def cloud_matrix(series: CloudSeries, scenario: Scenario) -> np.ndarray:
    """Dense (n_stations, n_slots) cloud-cover array for estimate building,
    wrapping past the stored day; a station without a row reads clear sky."""
    time = scenario.time
    hours = slot_hour(np.arange(time.slot_count), time.slot_duration_s)
    out = np.zeros((scenario.n_stations, time.slot_count))
    for i, st in enumerate(scenario.stations):
        series_g = series.hourly.get(st.station_id)
        if series_g is not None:
            out[i] = series_g[hours]
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


def filter_visibility(visibility: VisibilityTable, clouds: np.ndarray,
                      threshold: float) -> VisibilityTable:
    """The visibility rows whose cloud cover (``clouds[station, slot]``, as
    :func:`cloud_matrix` lays it out) :func:`kept` keeps, or the input
    itself when it keeps every row. Estimating these rows gives, bit for
    bit, the table :func:`apply_filter` cuts from the estimates of every
    row, without building that table.
    """
    keep = kept(clouds, threshold)[visibility.station, visibility.slot]
    if keep.all():
        return visibility
    return visibility.take(keep)


def apply_filter(estimates: EstimateTable, threshold: float = 0.8) -> EstimateTable:
    """Drop rows whose cloud cover strictly exceeds ``threshold`` (:func:`kept`).

    Returns a new table of the kept rows, or the input itself when every
    row passes (as in an already filtered dump); the input is never changed.
    """
    keep = kept(estimates.cloud, threshold)
    if keep.all():
        return estimates
    return estimates.take(keep)
