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
from typing import NamedTuple

import numpy as np

from . import workers
from .scenario import Scenario

EARTH_RADIUS_KM = 6371.0
MU_KM3_S2 = 398600.4418
SIDEREAL_DAY_S = 86164.0905
EARTH_ROT_RAD_S = 2.0 * math.pi / SIDEREAL_DAY_S

# slots in flight at once when scanning a full day, shared evenly by the
# scan's workers; for 400 satellites and 11 stations the (chunk, S, G) dot
# products of all of them take 72 MB, and each worker's other arrays about
# 20 MB more
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


class _Geometry(NamedTuple):
    """What a chunk of the scan needs; small enough to send to a worker."""

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


def _scan_chunk(geo: _Geometry, start: int, stop: int) -> tuple:
    """The above-threshold triples of slots [start, stop), in table order:
    slot, satellite, station, elevation and distance arrays."""
    r = geo.radius_km
    t = np.arange(start, stop, dtype=float) * geo.slot_s      # (T,)

    nu = geo.nu0[:, None] + geo.omega * t[None, :]            # (S, T)
    cos_nu = np.cos(nu)
    # position = r * (cos nu * node + sin nu * z), written slot-major for the
    # batched product below. Dropping the zero terms of that sum (sin nu * 0
    # in x and y, cos nu * 0 in z) can change only the sign of an exact zero
    # coordinate, hence of an exact zero dot product, and a zero dot never
    # reaches the cutoff, which is positive
    sat_pos = np.empty((len(t), len(nu), 3))                 # (T, S, 3)
    np.multiply(cos_nu * geo.cos_raan[:, None], r, out=sat_pos[:, :, 0].T)
    np.multiply(cos_nu * geo.sin_raan[:, None], r, out=sat_pos[:, :, 1].T)
    np.multiply(np.sin(nu), r, out=sat_pos[:, :, 2].T)

    lon = geo.lon0[:, None] + EARTH_ROT_RAD_S * t[None, :]    # (G, T)
    st_pos = np.stack([
        np.cos(geo.lat)[:, None] * np.cos(lon),
        np.cos(geo.lat)[:, None] * np.sin(lon),
        np.broadcast_to(np.sin(geo.lat)[:, None], lon.shape),
    ], axis=2) * EARTH_RADIUS_KM                              # (G, T, 3)

    # batched (S x 3) @ (3 x G) per slot
    dots = np.matmul(sat_pos, st_pos.transpose(1, 2, 0))      # (T, S, G)
    # hits come in C order, (slot, satellite, station), and chunks in slot
    # order, so the table needs no sort
    ti, si, gi = np.nonzero(dots >= geo.cutoff)
    d = dots[ti, si, gi]
    dist = np.sqrt(r * r + EARTH_RADIUS_KM**2 - 2.0 * d)
    sin_el = (d - EARTH_RADIUS_KM**2) / (dist * EARTH_RADIUS_KM)
    elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
    # the squared cutoff can admit values a hair under threshold
    keep = sin_el >= geo.sin_thresh - 1e-12
    return ((ti + start)[keep], si[keep], gi[keep], elev[keep], dist[keep])


def build_visibility(scenario: Scenario) -> VisibilityTable:
    """Scan every slot and return the above-threshold triples.

    The slots are scanned in chunks; with more than one usable CPU the
    chunks go to one forked worker per CPU, each with an equal share of
    ``_CHUNK`` slots at a time.
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

    ctx = workers.fork_context()
    n_workers = workers.usable_cpus() if ctx is not None else 1
    size = max(1, _CHUNK // n_workers)
    tasks = [(geo, a, min(a + size, n_slots)) for a in range(0, n_slots, size)]
    if ctx is None or len(tasks) < 2:
        parts = [_scan_chunk(*task) for task in tasks]
    else:
        with ctx.Pool(min(n_workers, len(tasks))) as pool:
            parts = pool.starmap(_scan_chunk, tasks, chunksize=1)

    if parts:
        slot, sat, station, elev, dist = (np.concatenate(c) for c in zip(*parts))
        slot, sat, station = (a.astype(np.int64, copy=False)
                              for a in (slot, sat, station))
    else:
        slot = sat = station = np.zeros(0, dtype=np.int64)
        elev = dist = np.zeros(0)

    return VisibilityTable(
        n_slots=n_slots, n_sats=n_sats, n_stations=n_g,
        slot=slot, sat=sat, station=station,
        elevation_deg=elev, distance_km=dist,
    )
