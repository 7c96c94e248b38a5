import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from qkdsched import weather
from conftest import make_table


def _clouds_csv(tmp_path, rows):
    header = "station_id,date," + ",".join(f"h{h:02d}" for h in range(24))
    path = tmp_path / "clouds.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def _row(sid, date, values):
    return f"{sid},{date}," + ",".join(str(v) for v in values)


def test_load_clouds_basic(tmp_path):
    path = _clouds_csv(tmp_path, [_row(1, "2022-03-15", [0.1] * 24),
                                  _row(2, "2022-03-15", [0.9] * 24)])
    series = weather.load_clouds(path)
    assert series.date == dt.date(2022, 3, 15)
    assert series.hourly[1][0] == 0.1
    assert series.hourly[2][23] == 0.9


def test_load_clouds_date_filter(tmp_path):
    path = _clouds_csv(tmp_path, [_row(1, "2022-03-15", [0.1] * 24),
                                  _row(1, "2022-06-15", [0.5] * 24)])
    series = weather.load_clouds(path, date=dt.date(2022, 6, 15))
    assert series.hourly[1][0] == 0.5
    with pytest.raises(weather.WeatherError, match="multiple dates"):
        weather.load_clouds(path)
    with pytest.raises(weather.WeatherError, match="no rows"):
        weather.load_clouds(path, date=dt.date(2022, 9, 15))


def test_load_clouds_validation(tmp_path):
    bad_cols = tmp_path / "bad.csv"
    bad_cols.write_text("station_id,date,h00\n1,2022-03-15,0.5\n")
    with pytest.raises(weather.WeatherError, match="columns"):
        weather.load_clouds(bad_cols)

    for bad in (1.5, "nan"):
        path = _clouds_csv(tmp_path, [_row(1, "2022-03-15", [bad] * 24)])
        with pytest.raises(weather.WeatherError, match=r"\[0, 1\]"):
            weather.load_clouds(path)

    path = _clouds_csv(tmp_path, [_row(1, "2022-03-15", [0.1] * 24),
                                  _row(1, "2022-03-15", [0.2] * 24)])
    with pytest.raises(weather.WeatherError, match="duplicate"):
        weather.load_clouds(path)


def test_cloud_matrix_piecewise_constant(tmp_path, toy_scenario):
    values = [round(h / 24.0, 3) for h in range(24)]
    series = weather.load_clouds(_clouds_csv(tmp_path, [_row(1, "2022-03-15", values)]))
    station = toy_scenario.stations[0]
    # 600 s slots: six per hour, so slot 144 starts the next day
    scenario = replace(toy_scenario, stations=(station, replace(station, station_id=99)),
                       time=replace(toy_scenario.time, slot_duration_s=600.0, slot_count=145))
    matrix = weather.cloud_matrix(series, scenario)
    assert matrix.shape == (2, 145)
    assert matrix[0, [0, 5, 6, 143]].tolist() == [values[0], values[0], values[1], values[23]]
    # wraps past the stored day
    assert matrix[0, 144] == values[0]
    # a station without a row reads clear sky
    assert not matrix[1].any()


def test_apply_filter_strictness():
    table = make_table(4, 1, 2, [(0, 0, 0, 5.0), (1, 0, 1, 3.0), (2, 0, 0, 2.0)])
    table.cloud = np.array([0.8, 0.81, 0.2])
    kept = weather.apply_filter(table, threshold=0.8)
    # strictly-above goes, exactly-at stays
    assert len(kept) == 2
    assert set(zip(kept.slot.tolist(), kept.station.tolist())) == {(0, 0), (2, 0)}
    # input untouched
    assert len(table) == 3
    with pytest.raises(weather.WeatherError):
        weather.apply_filter(table, threshold=1.2)


def test_apply_filter_returns_the_input_when_every_row_passes():
    table = make_table(4, 1, 2, [(0, 0, 0, 5.0), (1, 0, 1, 3.0), (2, 0, 0, 2.0)])
    table.cloud = np.array([0.8, 0.0, 0.2])
    assert weather.apply_filter(table, threshold=0.8) is table
    assert len(weather.apply_filter(table, threshold=0.7)) == 2
