import math

import numpy as np
import pytest

from qkdsched import orbit
from conftest import (reference_elevation_distance, reference_propagate,
                      reference_station_position)
from qkdsched.scenario import (ChannelParams, GroundStation, SatelliteSpec,
                               Scenario, TimeGrid, build_polar_constellation)


def test_orbital_period_value():
    # hand arithmetic: 2*pi*sqrt((6371+500)^3 / 398600.4418)
    assert orbit.orbital_period(500.0) == pytest.approx(5668.2, abs=0.5)


def test_position_repeats_after_one_period():
    period = orbit.orbital_period(500.0)
    p0 = reference_propagate(37.0, 12.0, 500.0, 100.0)
    p1 = reference_propagate(37.0, 12.0, 500.0, 100.0 + period)
    assert np.linalg.norm(p0 - p1) < 1e-3


def test_propagate_reference_points():
    # anomaly 0: on the equator at the ascending node
    p = reference_propagate(30.0, 0.0, 500.0, 0.0)
    r = orbit.EARTH_RADIUS_KM + 500.0
    assert p[2] == 0.0
    assert np.allclose(p, [r * math.cos(math.radians(30)),
                           r * math.sin(math.radians(30)), 0.0])
    # anomaly 90: over the north pole regardless of the node
    p = reference_propagate(123.0, 90.0, 500.0, 0.0)
    assert np.allclose(p, [0.0, 0.0, r], atol=1e-9)


def test_station_position_rotates_at_sidereal_rate():
    p0 = reference_station_position(40.0, -74.0, 0.0)
    assert np.linalg.norm(p0) == pytest.approx(orbit.EARTH_RADIUS_KM)
    p1 = reference_station_position(40.0, -74.0, orbit.SIDEREAL_DAY_S)
    assert np.allclose(p0, p1, atol=1e-6)
    # a quarter sidereal day moves the station 90 degrees in right ascension
    pq = reference_station_position(0.0, 0.0, orbit.SIDEREAL_DAY_S / 4.0)
    assert np.allclose(pq, [0.0, orbit.EARTH_RADIUS_KM, 0.0], atol=1e-6)


def test_elevation_overhead():
    st = reference_station_position(0.0, 0.0, 0.0)
    sat = st * (orbit.EARTH_RADIUS_KM + 500.0) / orbit.EARTH_RADIUS_KM
    elev, dist = reference_elevation_distance(sat, st)
    assert elev == pytest.approx(90.0)
    assert dist == pytest.approx(500.0)


def test_elevation_horizon_sign():
    st = reference_station_position(0.0, 0.0, 0.0)
    # satellite on the opposite side of the planet sits far below the horizon
    elev, _ = reference_elevation_distance(-st * 1.1, st)
    assert elev < 0


def _small_scenario(n_rings=2, per_ring=2, slots=240, altitude=500.0,
                    min_elev=20.0):
    stations = (
        GroundStation(station_id=1, name="a", latitude_deg=40.7, longitude_deg=-74.0,
                      zenith_transmissivity={s: 0.6 for s in ("mar", "jun", "sep", "dec")},
                      background_noise={b: 1e-7 for b in (0, 6, 12, 18)}),
        GroundStation(station_id=2, name="b", latitude_deg=-33.9, longitude_deg=151.2,
                      zenith_transmissivity={s: 0.6 for s in ("mar", "jun", "sep", "dec")},
                      background_noise={b: 1e-7 for b in (0, 6, 12, 18)}),
        GroundStation(station_id=3, name="c", latitude_deg=51.5, longitude_deg=-0.1,
                      zenith_transmissivity={s: 0.6 for s in ("mar", "jun", "sep", "dec")},
                      background_noise={b: 1e-7 for b in (0, 6, 12, 18)}),
    )
    return Scenario(
        satellites=build_polar_constellation(n_rings, per_ring, altitude),
        stations=stations,
        sat_spec=SatelliteSpec(altitude_km=altitude, source_rate_hz=1e9),
        time=TimeGrid(slot_duration_s=30.0, slot_count=slots),
        channel=ChannelParams(),
        min_elevation_deg=min_elev,
    )


def test_visibility_matches_scalar_geometry():
    """The vectorised scan must agree with the scalar per-triple path."""
    scn = _small_scenario()
    table = orbit.build_visibility(scn)

    listed = {(int(t), int(s), int(g)): (e, d)
              for t, s, g, e, d in zip(table.slot, table.sat, table.station,
                                       table.elevation_deg, table.distance_km)}
    for t in range(scn.time.slot_count):
        tt = t * scn.time.slot_duration_s
        for si, sat in enumerate(scn.satellites):
            sat_pos = reference_propagate(sat.raan_deg, sat.anomaly_deg,
                                          scn.sat_spec.altitude_km, tt)
            for gi, st in enumerate(scn.stations):
                st_pos = reference_station_position(st.latitude_deg,
                                                    st.longitude_deg, tt)
                elev, dist = reference_elevation_distance(sat_pos, st_pos)
                key = (t, si, gi)
                if elev >= scn.min_elevation_deg:
                    assert key in listed, f"missing visible triple {key}"
                    assert listed[key][0] == pytest.approx(elev, abs=1e-6)
                    assert listed[key][1] == pytest.approx(dist, abs=1e-6)
                else:
                    assert key not in listed, f"spurious triple {key}"


def test_visibility_sorted_and_tau():
    scn = _small_scenario()
    table = orbit.build_visibility(scn)
    order = np.lexsort((table.station, table.sat, table.slot))
    assert np.array_equal(order, np.arange(len(table)))
    # tau counts distinct slots per satellite
    for s in range(scn.n_sats):
        mask = table.sat == s
        assert table.tau[s] == len(np.unique(table.slot[mask]))


@pytest.mark.parametrize("chunk", [1, 7, 50])
def test_visibility_sorted_across_chunks(monkeypatch, chunk):
    # the scan emits rows in table order chunk by chunk, with no final sort
    scn = _small_scenario()
    whole = orbit.build_visibility(scn)
    assert scn.time.slot_count <= orbit._CHUNK
    monkeypatch.setattr(orbit, "_CHUNK", chunk)
    table = orbit.build_visibility(scn)
    order = np.lexsort((table.station, table.sat, table.slot))
    assert np.array_equal(order, np.arange(len(table)))
    for name in ("slot", "sat", "station"):
        assert np.array_equal(getattr(table, name), getattr(whole, name)), name
    for name in ("elevation_deg", "distance_km"):
        assert getattr(table, name) == pytest.approx(getattr(whole, name), rel=1e-12)


def test_threshold_inclusive_edge():
    """A satellite exactly at the cutoff dot product is kept."""
    # verify the closed-form cutoff against the direct elevation formula
    cut = orbit._dot_threshold(500.0, 20.0)
    r = orbit.EARTH_RADIUS_KM + 500.0
    re = orbit.EARTH_RADIUS_KM
    dist = math.sqrt(r * r + re * re - 2.0 * cut)
    sin_el = (cut - re * re) / (dist * re)
    assert math.degrees(math.asin(sin_el)) == pytest.approx(20.0, abs=1e-9)


def test_higher_altitude_sees_more():
    low = orbit.build_visibility(_small_scenario(altitude=500.0))
    high = orbit.build_visibility(_small_scenario(altitude=1000.0))
    assert len(high) > len(low)


def test_regional_day_mean_usable_slots():
    """Four-station regional network, 400 sats at 1000 km, one full day.

    The published figure for this layout is about 2487 usable seconds per
    satellite; the scan should land within 15% despite differing frame
    conventions.
    """
    from pathlib import Path

    from qkdsched.scenario import load_scenario

    scn = load_scenario(Path(__file__).resolve().parent.parent
                        / "scenarios" / "regional_a1000.ini")
    table = orbit.build_visibility(scn)
    mean_usable = float(table.tau.mean())
    assert 2487 * 0.85 <= mean_usable <= 2487 * 1.15
