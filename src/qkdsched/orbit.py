"""Orbit propagation and line-of-sight geometry.

Satellites fly circular polar orbits around a spherical Earth; ground
stations ride the rotating surface at the sidereal rate. Geometry is
evaluated at slot starts. The visibility table is the sparse list of
(slot, satellite, station) triples whose elevation clears the scenario
threshold, with the elevation and slant range attached.

The scan runs in one process and in two passes over blocks of about 30 s
of slots, after the coarse-step window search of Alfano, Negron & Moore,
"Rapid determination of satellite visibility periods", J. Astronautical
Sciences 40(2), 1992. A satellite-station dot product changes by at most
r * Re * (omega + omega_E) per second, so one coarse evaluation at a
block's centre bounds it at every slot of the block; the fine pass
evaluates the block's slots for the satellites whose bound reaches the
cutoff only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .scenario import Scenario

EARTH_RADIUS_KM = 6371.0
MU_KM3_S2 = 398600.4418
SIDEREAL_DAY_S = 86164.0905
EARTH_ROT_RAD_S = 2.0 * math.pi / SIDEREAL_DAY_S

# flight time per block of the scan; a satellite moves about 2 degrees of
# arc in it, so a block has few candidates besides the satellites in view
_BLOCK_S = 30.0
# blocks scanned together, by one coarse and one fine set of array
# operations; for 400 satellites and 11 stations, 32 of them hold 1.1 MB of
# coarse (block, S, G) dot products, where a whole day would take 101 MB,
# and their 30-s slots about 4 MB of fine ones
_GROUP_BLOCKS = 32


def orbital_angular_rate(altitude_km: float) -> float:
    """Mean motion of a circular orbit, rad/s."""
    r = EARTH_RADIUS_KM + altitude_km
    return math.sqrt(MU_KM3_S2 / r**3)


def orbital_period(altitude_km: float) -> float:
    return 2.0 * math.pi / orbital_angular_rate(altitude_km)


def usable_slot_counts(slot: np.ndarray, sat: np.ndarray, n_sats: int) -> np.ndarray:
    """Per-satellite count of distinct slots among the (slot, sat) rows.

    The rows must be sorted by slot and then satellite, as visibility and
    estimate tables are, so that each (slot, satellite) pair is one run of
    rows; the first row of each run is counted.
    """
    sat = np.asarray(sat, dtype=np.int64)
    key = np.asarray(slot, dtype=np.int64) * n_sats + sat
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return np.bincount(sat[first], minlength=n_sats)


@dataclass
class VisibilityTable:
    """Sparse above-threshold geometry, sorted by (slot, satellite, station).

    ``slot``/``sat``/``station`` hold positional indices (row i of
    ``scenario.stations``), not raw ids.
    """

    n_slots: int
    n_sats: int
    n_stations: int
    slot: np.ndarray
    sat: np.ndarray
    station: np.ndarray
    elevation_deg: np.ndarray
    distance_km: np.ndarray

    def __len__(self):
        return len(self.slot)

    def take(self, mask: np.ndarray) -> "VisibilityTable":
        """New table with the masked-in rows only."""
        return replace(self, **{name: getattr(self, name)[mask] for name in
                                ("slot", "sat", "station", "elevation_deg", "distance_km")})


def _dot_threshold(altitude_km: float, min_elevation_deg: float) -> float:
    """Cutoff on (satellite . station) above which elevation >= threshold.

    For fixed orbit radius r and station radius Re the elevation is a
    monotone function of the inertial dot product, so the cone test reduces
    to one comparison per pair.
    """
    r = EARTH_RADIUS_KM + altitude_km
    s = math.sin(math.radians(min_elevation_deg))
    re = EARTH_RADIUS_KM
    u = re * s * (math.sqrt(re * re * s * s + r * r - re * re) - re * s)
    return re * re + u


class _Geometry(NamedTuple):
    """The constellation and stations as the scan's arrays."""

    slot_s: float
    radius_km: float
    omega: float
    nu0: np.ndarray         # (S,) anomaly at t = 0
    cos_raan: np.ndarray    # (S,)
    sin_raan: np.ndarray    # (S,)
    lat: np.ndarray         # (G,)
    lon0: np.ndarray        # (G,)
    cutoff: float
    sin_thresh: float


def _dots(geo: _Geometry, sats: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(T, C, G) dot products of satellites with every station at the T
    times ``t``; row i of the (T, C) or (1, C) index array ``sats`` names
    the satellites of time i.

    Each entry is the same double whichever times and satellites are asked
    for, as long as C >= 2: numpy hands a one-row product to gemv, whose
    sums can differ from gemm's in the last bit.
    """
    r = geo.radius_km
    nu = geo.nu0[sats] + geo.omega * t[:, None]               # (T, C)
    cos_nu = np.cos(nu)
    # position = r * (cos nu * node + sin nu * z). Dropping the zero terms of
    # that sum (sin nu * 0 in x and y, cos nu * 0 in z) can change only the
    # sign of an exact zero coordinate, hence of an exact zero dot product,
    # and a zero dot never reaches the cutoff, which is positive
    sat_pos = np.empty(nu.shape + (3,))                      # (T, C, 3)
    np.multiply(cos_nu * geo.cos_raan[sats], r, out=sat_pos[:, :, 0])
    np.multiply(cos_nu * geo.sin_raan[sats], r, out=sat_pos[:, :, 1])
    np.multiply(np.sin(nu), r, out=sat_pos[:, :, 2])

    lon = geo.lon0[:, None] + EARTH_ROT_RAD_S * t[None, :]    # (G, T)
    st_pos = np.stack([
        np.cos(geo.lat)[:, None] * np.cos(lon),
        np.cos(geo.lat)[:, None] * np.sin(lon),
        np.broadcast_to(np.sin(geo.lat)[:, None], lon.shape),
    ], axis=2) * EARTH_RADIUS_KM                              # (G, T, 3)

    # batched (C x 3) @ (3 x G) per time
    return np.matmul(sat_pos, st_pos.transpose(1, 2, 0))


def _scan_slots(geo: _Geometry, sats: np.ndarray, start: int, stop: int) -> list:
    """The above-threshold triples of slots [start, stop) among the
    satellites of the (T, C) index array ``sats``, whose rows list each
    slot's satellites in order, in table order: slot, satellite, station,
    elevation and distance arrays."""
    r = geo.radius_km
    t = np.arange(start, stop, dtype=float) * geo.slot_s
    dots = _dots(geo, sats, t)
    # hits come in C order, (slot, satellite, station), and groups in slot
    # order, so the table needs no sort
    hit = np.flatnonzero(dots >= geo.cutoff)
    d = dots.reshape(-1)[hit]
    ti, ci = np.divmod(hit, dots.shape[1] * dots.shape[2])
    ci, gi = np.divmod(ci, dots.shape[2])
    dist = np.sqrt(r * r + EARTH_RADIUS_KM**2 - 2.0 * d)
    sin_el = (d - EARTH_RADIUS_KM**2) / (dist * EARTH_RADIUS_KM)
    elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
    # the squared cutoff can admit values a hair under threshold
    keep = sin_el >= geo.sin_thresh - 1e-12
    return [(ti + start)[keep], sats[ti, ci][keep], gi[keep], elev[keep], dist[keep]]


def build_visibility(scenario: Scenario) -> VisibilityTable:
    """Scan every slot and return the above-threshold triples.

    A coarse pass at the centre of each block of about ``_BLOCK_S`` seconds
    keeps as candidates the satellites whose largest dot product with any
    station, plus how far it can move within the block, reaches the cutoff;
    the fine pass scans the block's slots for those satellites only.
    """
    time = scenario.time
    alt = scenario.sat_spec.altitude_km
    n_slots, n_sats, n_g = time.slot_count, scenario.n_sats, scenario.n_stations

    raan = np.radians([s.raan_deg for s in scenario.satellites])
    geo = _Geometry(
        slot_s=time.slot_duration_s,
        radius_km=EARTH_RADIUS_KM + alt,
        omega=orbital_angular_rate(alt),
        nu0=np.radians([s.anomaly_deg for s in scenario.satellites]),
        cos_raan=np.cos(raan),
        sin_raan=np.sin(raan),
        lat=np.radians([g.latitude_deg for g in scenario.stations]),
        lon0=np.radians([g.longitude_deg for g in scenario.stations]),
        cutoff=_dot_threshold(alt, scenario.min_elevation_deg),
        sin_thresh=math.sin(math.radians(scenario.min_elevation_deg)),
    )

    # |d(sat . station)/dt| <= |sat'| |station| + |sat| |station'|
    #                        <= r Re omega + r Re omega_E cos(lat)
    drift = geo.radius_km * EARTH_RADIUS_KM * (geo.omega + EARTH_ROT_RAD_S)
    # far above the rounding of either pass's dot products
    slack = 1e-6 * geo.radius_km * EARTH_RADIUS_KM
    block = max(1, round(_BLOCK_S / geo.slot_s))
    starts = np.arange(0, n_slots, block)
    stops = np.minimum(starts + block, n_slots)
    centre = (starts + stops - 1) * (0.5 * geo.slot_s)
    margin = drift * (stops - 1 - starts) * (0.5 * geo.slot_s) + slack

    every_sat = np.arange(n_sats)[None, :]
    # the groups' slot, sat, station, elevation and distance pieces
    pieces = ([], [], [], [], [])
    for lo in range(0, len(starts), _GROUP_BLOCKS):
        part = slice(lo, lo + _GROUP_BLOCKS)
        peak = _dots(geo, every_sat, centre[part]).max(axis=2)
        reach = peak + margin[part, None] >= geo.cutoff            # (B, S)
        width = int(reach.sum(axis=1).max())
        if width == 1 and n_sats > 1:
            # a second column keeps the fine products gemms (see _dots)
            width = 2
        if width:
            # each block's candidates in satellite order, then satellites
            # that are none and so have no hit within the block
            sats = np.argsort(~reach, axis=1, kind="stable")[:, :width]
            sats = np.repeat(sats, stops[part] - starts[part], axis=0)
            hits = _scan_slots(geo, sats, int(starts[lo]), int(stops[part][-1]))
            for column in pieces:
                column.append(hits.pop(0))

    # one column at a time, each one's pieces freed before the next is joined
    columns = []
    for column, dtype in zip(pieces, (np.int64,) * 3 + (np.float64,) * 2):
        columns.append(np.concatenate(column).astype(dtype, copy=False)
                       if column else np.zeros(0, dtype=dtype))
        column.clear()
    slot, sat, station, elev, dist = columns

    return VisibilityTable(
        n_slots=n_slots, n_sats=n_sats, n_stations=n_g,
        slot=slot, sat=sat, station=station,
        elevation_deg=elev, distance_km=dist,
    )
