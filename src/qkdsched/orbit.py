"""Orbit propagation and line-of-sight geometry.

Satellites fly circular polar orbits around a spherical Earth; ground
stations ride the rotating surface at the sidereal rate. Geometry is
evaluated at slot starts. The visibility table is the sparse list of
(slot, satellite, station) triples whose elevation clears the scenario
threshold, with the elevation and slant range attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import Scenario

EARTH_RADIUS_KM = 6371.0
MU_KM3_S2 = 398600.4418
SIDEREAL_DAY_S = 86164.0905
EARTH_ROT_RAD_S = 2.0 * math.pi / SIDEREAL_DAY_S

# slots per numpy chunk when scanning a full day; keeps the (chunk, S, G)
# work arrays around a hundred MB for the 400-satellite case
_CHUNK = 2048


def orbital_angular_rate(altitude_km: float) -> float:
    """Mean motion of a circular orbit, rad/s."""
    r = EARTH_RADIUS_KM + altitude_km
    return math.sqrt(MU_KM3_S2 / r**3)


def orbital_period(altitude_km: float) -> float:
    return 2.0 * math.pi / orbital_angular_rate(altitude_km)


def usable_slot_counts(slot: np.ndarray, sat: np.ndarray, n_slots: int,
                       n_sats: int) -> np.ndarray:
    """Per-satellite count of distinct slots among the (slot, sat) rows."""
    out = np.zeros(n_sats, dtype=np.int64)
    key = np.asarray(sat, dtype=np.int64) * n_slots + slot
    sats, counts = np.unique(np.unique(key) // n_slots, return_counts=True)
    out[sats] = counts
    return out


@dataclass
class VisibilityTable:
    """Sparse above-threshold geometry, sorted by (slot, satellite, station).

    ``slot``/``sat``/``station`` hold positional indices (row i of
    ``scenario.stations``), not raw ids. ``tau`` counts, per satellite, the
    slots in which it sees at least one station (the usable-slot set used
    to normalise per-satellite rates).
    """

    n_slots: int
    n_sats: int
    n_stations: int
    slot: np.ndarray
    sat: np.ndarray
    station: np.ndarray
    elevation_deg: np.ndarray
    distance_km: np.ndarray
    tau: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.tau is None:
            self.tau = usable_slot_counts(self.slot, self.sat, self.n_slots, self.n_sats)

    def __len__(self):
        return len(self.slot)


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


def build_visibility(scenario: Scenario) -> VisibilityTable:
    """Scan every slot and return the above-threshold triples."""
    time = scenario.time
    alt = scenario.sat_spec.altitude_km
    r = EARTH_RADIUS_KM + alt
    omega = orbital_angular_rate(alt)
    n_slots, n_sats, n_g = time.slot_count, scenario.n_sats, scenario.n_stations

    raan = np.radians([s.raan_deg for s in scenario.satellites])
    nu0 = np.radians([s.anomaly_deg for s in scenario.satellites])
    node = np.stack([np.cos(raan), np.sin(raan), np.zeros_like(raan)], axis=1)  # (S, 3)
    lat = np.radians([g.latitude_deg for g in scenario.stations])
    lon0 = np.radians([g.longitude_deg for g in scenario.stations])

    cutoff = _dot_threshold(alt, scenario.min_elevation_deg)
    sin_thresh = math.sin(math.radians(scenario.min_elevation_deg))

    out_slot, out_sat, out_g, out_elev, out_dist = [], [], [], [], []
    for start in range(0, n_slots, _CHUNK):
        stop = min(start + _CHUNK, n_slots)
        t = np.arange(start, stop, dtype=float) * time.slot_duration_s  # (T,)

        nu = nu0[:, None] + omega * t[None, :]                    # (S, T)
        sat_pos = (np.cos(nu)[..., None] * node[:, None, :]
                   + np.sin(nu)[..., None] * np.array([0.0, 0.0, 1.0]))
        sat_pos *= r                                              # (S, T, 3)

        lon = lon0[:, None] + EARTH_ROT_RAD_S * t[None, :]        # (G, T)
        st_pos = np.stack([
            np.cos(lat)[:, None] * np.cos(lon),
            np.cos(lat)[:, None] * np.sin(lon),
            np.broadcast_to(np.sin(lat)[:, None], lon.shape),
        ], axis=2) * EARTH_RADIUS_KM                              # (G, T, 3)

        # batched (S x 3) @ (3 x G) per slot
        dots = np.matmul(sat_pos.transpose(1, 0, 2), st_pos.transpose(1, 2, 0))  # (T, S, G)
        # hits come in C order, (slot, satellite, station), and chunks in slot
        # order, so the table needs no sort
        ti, si, gi = np.nonzero(dots >= cutoff)
        if len(ti) == 0:
            continue
        d = dots[ti, si, gi]
        dist = np.sqrt(r * r + EARTH_RADIUS_KM**2 - 2.0 * d)
        sin_el = (d - EARTH_RADIUS_KM**2) / (dist * EARTH_RADIUS_KM)
        elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
        # the squared cutoff can admit values a hair under threshold
        keep = sin_el >= sin_thresh - 1e-12
        out_slot.append((ti + start)[keep])
        out_sat.append(si[keep])
        out_g.append(gi[keep])
        out_elev.append(elev[keep])
        out_dist.append(dist[keep])

    if out_slot:
        slot = np.concatenate(out_slot).astype(np.int64)
        sat = np.concatenate(out_sat).astype(np.int64)
        station = np.concatenate(out_g).astype(np.int64)
        elev = np.concatenate(out_elev)
        dist = np.concatenate(out_dist)
    else:
        slot = sat = station = np.zeros(0, dtype=np.int64)
        elev = dist = np.zeros(0)

    return VisibilityTable(
        n_slots=n_slots, n_sats=n_sats, n_stations=n_g,
        slot=slot, sat=sat, station=station,
        elevation_deg=elev, distance_km=dist,
    )
