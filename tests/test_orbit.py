import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkdsched import orbit
from conftest import (reference_elevation_distance, reference_propagate,
                      reference_scan, reference_station_position,
                      reference_usable_slot_counts)
from qkdsched.scenario import (ChannelParams, GroundStation, Satellite,
                               SatelliteSpec, Scenario, TimeGrid,
                               build_polar_constellation, load_scenario)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


def _station(station_id, lat, lon):
    return GroundStation(
        station_id=station_id, name=str(station_id), latitude_deg=lat, longitude_deg=lon,
        zenith_transmissivity={s: 0.6 for s in ("mar", "jun", "sep", "dec")},
        background_noise={b: 1e-7 for b in (0, 6, 12, 18)})


def _small_scenario(n_rings=2, per_ring=2, slots=240, altitude=500.0,
                    min_elev=20.0, slot_s=30.0):
    stations = (_station(1, 40.7, -74.0), _station(2, -33.9, 151.2),
                _station(3, 51.5, -0.1))
    return Scenario(
        satellites=build_polar_constellation(n_rings, per_ring, altitude),
        stations=stations,
        sat_spec=SatelliteSpec(altitude_km=altitude, source_rate_hz=1e9),
        time=TimeGrid(slot_duration_s=slot_s, slot_count=slots),
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
    tau = orbit.usable_slot_counts(table.slot, table.sat, table.n_sats)
    for s in range(scn.n_sats):
        mask = table.sat == s
        assert tau[s] == len(np.unique(table.slot[mask]))


_COLUMNS = ("slot", "sat", "station", "elevation_deg", "distance_km")


def _same_bytes(a, b):
    for name in _COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("slot_s, slots", [(1.0, 7200), (30.0, 240), (300.0, 240)])
def test_scan_matches_reference_on_small_scenario(slot_s, slots):
    # 30-slot blocks, one-slot blocks of 30 s, and one-slot blocks longer
    # than 30 s
    scn = _small_scenario(slot_s=slot_s, slots=slots)
    want = reference_scan(scn)
    assert len(want) > 0
    _same_bytes(orbit.build_visibility(scn), want)


@pytest.mark.parametrize("per_ring", [1, 2])
def test_scan_matches_reference_on_tiny_constellations(per_ring):
    # with two satellites, a block with one candidate takes the other one
    # along to keep its dot products those of a gemm
    scn = _small_scenario(n_rings=1, per_ring=per_ring, slot_s=1.0, slots=7200)
    want = reference_scan(scn)
    assert len(want) > 0
    _same_bytes(orbit.build_visibility(scn), want)


def test_scan_finds_a_block_seen_at_its_last_slot_only():
    # the last satellite rises over the station at slot 179, the last of the
    # 30-slot block [150, 180); the others stay on the far side of the Earth
    scn = _small_scenario(slot_s=1.0, slots=1200)
    far = tuple(Satellite(k, 0, k, 0.0, 160.0 + 10.0 * k) for k in range(5))
    scn = dataclasses.replace(scn, stations=(_station(1, 0.0, 0.0),),
                              satellites=far + (Satellite(5, 0, 5, 0.0, -20.67),))
    want = reference_scan(scn)
    block = want.slot[(want.slot >= 150) & (want.slot < 180)]
    assert block.tolist() == [179] and set(want.sat.tolist()) == {5}
    _same_bytes(orbit.build_visibility(scn), want)


def test_scan_matches_reference_on_global_cut():
    scn = load_scenario(SCENARIOS / "global_a500.ini")
    scn = dataclasses.replace(scn, time=dataclasses.replace(scn.time, slot_count=2400))
    want = reference_scan(scn)
    assert len(want) > 0
    _same_bytes(orbit.build_visibility(scn), want)


@settings(max_examples=60, deadline=None)
@given(rings=st.integers(1, 4), per_ring=st.integers(1, 5),
       altitude=st.floats(300.0, 2000.0), min_elev=st.floats(0.01, 60.0),
       stations=st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
                         min_size=1, max_size=4),
       slot_s=st.floats(0.5, 400.0), slots=st.integers(1, 600))
def test_scan_matches_reference_property(rings, per_ring, altitude, min_elev,
                                         stations, slot_s, slots):
    scn = _small_scenario(n_rings=rings, per_ring=per_ring, slots=slots,
                          altitude=altitude, min_elev=min_elev, slot_s=slot_s)
    scn = dataclasses.replace(scn, stations=tuple(
        _station(i + 1, lat, lon) for i, (lat, lon) in enumerate(stations)))
    _same_bytes(orbit.build_visibility(scn), reference_scan(scn))


def test_scan_starts_no_process(monkeypatch):
    def refuse():
        raise AssertionError("the visibility scan forked")

    monkeypatch.setattr(os, "fork", refuse)
    scn = _small_scenario(slot_s=1.0, slots=5000)
    assert len(orbit.build_visibility(scn)) > 0


def test_usable_slot_counts_match_hash_formula(rng):
    for n_slots, n_sats, n_rows in ((1, 1, 0), (7, 3, 5), (50, 9, 400)):
        slot = np.sort(rng.integers(0, n_slots, n_rows))
        sat = rng.integers(0, n_sats, n_rows)
        order = np.lexsort((sat, slot))
        slot, sat = slot[order], sat[order]
        got = orbit.usable_slot_counts(slot, sat, n_sats)
        want = reference_usable_slot_counts(slot, sat, n_slots, n_sats)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


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
    scn = load_scenario(SCENARIOS / "regional_a1000.ini")
    table = orbit.build_visibility(scn)
    mean_usable = float(orbit.usable_slot_counts(table.slot, table.sat, table.n_sats).mean())
    assert 2487 * 0.85 <= mean_usable <= 2487 * 1.15
