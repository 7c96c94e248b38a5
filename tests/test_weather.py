import datetime as dt
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qkdsched.cli as cli
from qkdsched import weather
from qkdsched.channel import build_estimates, read_estimates_csv, write_estimates_csv
from qkdsched.orbit import build_visibility
from qkdsched.scenario import load_scenario
from conftest import make_table


MARCH_15 = dt.date(2022, 3, 15)


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
    hourly = weather.load_clouds(path, MARCH_15)
    assert sorted(hourly) == [1, 2]
    assert hourly[1][0] == 0.1
    assert hourly[2][23] == 0.9


def test_load_clouds_date_filter(tmp_path):
    path = _clouds_csv(tmp_path, [_row(1, "2022-03-15", [0.1] * 24),
                                  _row(1, "2022-06-15", [0.5] * 24)])
    hourly = weather.load_clouds(path, date=dt.date(2022, 6, 15))
    assert hourly[1][0] == 0.5
    with pytest.raises(weather.WeatherError, match="no rows"):
        weather.load_clouds(path, date=dt.date(2022, 9, 15))


def test_load_clouds_validation(tmp_path):
    bad_cols = tmp_path / "bad.csv"
    bad_cols.write_text("station_id,date,h00\n1,2022-03-15,0.5\n")
    with pytest.raises(weather.WeatherError, match="columns"):
        weather.load_clouds(bad_cols, MARCH_15)

    for bad in (1.5, "nan"):
        path = _clouds_csv(tmp_path, [_row(1, "2022-03-15", [bad] * 24)])
        with pytest.raises(weather.WeatherError, match=r"\[0, 1\]"):
            weather.load_clouds(path, MARCH_15)

    path = _clouds_csv(tmp_path, [_row(1, "2022-03-15", [0.1] * 24),
                                  _row(1, "2022-03-15", [0.2] * 24)])
    with pytest.raises(weather.WeatherError, match="duplicate"):
        weather.load_clouds(path, MARCH_15)


def test_load_clouds_checks_rows_of_other_dates(tmp_path):
    """Rows of a date the run does not read are checked, then ignored."""
    good = _row(1, "2022-03-15", [0.1] * 24)
    for other in ([_row(1, "2022-06-15", [1.5] * 24)],
                  [_row(1, "2022-06-15", [0.1] * 24), _row(1, "2022-06-15", [0.2] * 24)]):
        with pytest.raises(weather.WeatherError):
            weather.load_clouds(_clouds_csv(tmp_path, [good] + other), MARCH_15)
    hourly = weather.load_clouds(_clouds_csv(tmp_path, [good, _row(2, "2022-06-15", [0.5] * 24)]),
                                 MARCH_15)
    assert list(hourly) == [1]


def test_cloud_matrix_piecewise_constant(tmp_path, toy_scenario):
    values = [round(h / 24.0, 3) for h in range(24)]
    hourly = weather.load_clouds(_clouds_csv(tmp_path, [_row(1, "2022-03-15", values)]),
                                 MARCH_15)
    station = toy_scenario.stations[0]
    # 600 s slots: six per hour, so slot 144 starts the next day
    scenario = replace(toy_scenario, stations=(station, replace(station, station_id=99)),
                       time=replace(toy_scenario.time, slot_duration_s=600.0, slot_count=145))
    matrix = weather.cloud_matrix(hourly, scenario)
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


def test_threshold_one_keeps_a_table_read_from_disk(tmp_path):
    """Every input path holds cloud cover to [0, 1], so a threshold of 1
    returns a table read from disk itself."""
    table = make_table(4, 1, 2, [(0, 0, 0, 5.0), (1, 0, 1, 3.0), (2, 0, 0, 2.0)])
    table.cloud = np.array([1.0, 0.0, 0.999])
    write_estimates_csv(table, tmp_path / "t.csv")
    read = read_estimates_csv(tmp_path / "t.csv")
    assert len(read) == 3 and weather.apply_filter(read, 1.0) is read


def test_kept_is_the_filter_rule():
    cloud = np.array([[0.8, 0.81], [0.2, 1.0]])
    assert weather.kept(cloud, 0.8).tolist() == [[True, False], [True, False]]
    assert weather.kept(cloud, 1.0).all()
    with pytest.raises(weather.WeatherError, match="threshold"):
        weather.kept(cloud, -0.1)


# ------------------------------------------- the scenario run filters first

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _global_cut(slots):
    scn = load_scenario(SCENARIOS / "global_a500.ini")
    return replace(scn, time=replace(scn.time, slot_count=slots))


def _station_clouds(tmp_path, scn, values):
    """A clouds file holding ``values[i % len(values)]`` all day for the
    i-th station."""
    return _clouds_csv(tmp_path, [
        _row(st.station_id, scn.time.epoch, [values[i % len(values)]] * 24)
        for i, st in enumerate(scn.stations)])


def _run_table(monkeypatch, tmp_path, scenario_path, clouds_path, *flags):
    """The table a ``run --scenario`` hands its scheduler."""
    seen, run_greedy = [], cli.run_greedy
    monkeypatch.setattr(cli, "run_greedy", lambda table: seen.append(table) or run_greedy(table))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(scenario_path), "--clouds", str(clouds_path),
                     "--schedulers", "greedy", *flags, "--out", str(out), "--force"]) == 0
    return seen[0]


@pytest.mark.parametrize("dump", [True, False], ids=["dump", "no-dump"])
@pytest.mark.parametrize("case", ["toy", "global-cut"])
def test_scenario_run_table_equals_filtered_estimates(monkeypatch, tmp_path, case, dump):
    """A scenario run estimates only the rows the filter keeps, and its table
    equals the filter applied to the whole estimate table, column for column
    and bit for bit; links exactly at the threshold stay. The sample clouds
    put the toy's links at 0.2, 0.3 and 0.4, so its threshold is 0.3."""
    if case == "toy":
        path, scn = SCENARIOS / "toy_equator.ini", load_scenario(SCENARIOS / "toy_equator.ini")
        clouds_path, threshold = SCENARIOS / "clouds_sample.csv", 0.3
    else:
        path, scn, threshold = SCENARIOS / "global_a500.ini", _global_cut(600), 0.8
        monkeypatch.setattr(cli, "load_scenario", lambda _: scn)
        clouds_path = _station_clouds(tmp_path, scn, [0.8, 0.9, 0.3, 0.81, 0.8, 0.0, 1.0])
    got = _run_table(monkeypatch, tmp_path, path, clouds_path,
                     "--filter-threshold", str(threshold),
                     *(["--dump-estimates"] if dump else []))
    clouds = weather.cloud_matrix(weather.load_clouds(clouds_path, date=scn.time.epoch), scn)
    full = build_estimates(scn, build_visibility(scn), clouds)
    want = weather.apply_filter(full, threshold)
    assert 0 < len(want) < len(full)
    assert (want.cloud == threshold).sum() > 100
    assert got.columns == (want.columns if dump else want.columns[:5])
    for name in got.columns + ("transmitters", "receivers", "sat_ids", "station_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.n_slots, got.n_sats, got.n_stations) == \
        (want.n_slots, want.n_sats, want.n_stations)


@pytest.mark.parametrize("report_columns", [True, False], ids=["dump", "no-dump"])
def test_filtered_scenario_table_peak_memory(monkeypatch, tmp_path, report_columns):
    """tracemalloc sees numpy's buffers. Scanning a 10800-slot global_a500
    cut, one station of eleven overcast, and building its filtered table
    peaks at 0.90 (with the report columns a dump needs) and 1.06 (without)
    times the visibility plus the finished table, both below 1.2. Estimating
    every row and filtering the table afterwards peaks at 1.58 and 1.38
    times, so that copy cannot come back unnoticed."""
    scn = _global_cut(10800)
    vis = build_visibility(scn)
    clouds_path = _station_clouds(tmp_path, scn, [0.9] + [0.5] * 10)
    monkeypatch.setattr(cli, "load_scenario", lambda _: scn)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = cli._scenario_table(SCENARIOS / "global_a500.ini", clouds_path, 0.8,
                                    report_columns)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    vis_bytes = sum(getattr(vis, name).nbytes
                    for name in ("slot", "sat", "station", "elevation_deg", "distance_km"))
    table_bytes = sum(getattr(table, name).nbytes for name in table.columns)
    assert 0.8 * len(vis) < len(table) < len(vis)
    assert peak <= 1.2 * (vis_bytes + table_bytes), peak / (vis_bytes + table_bytes)
