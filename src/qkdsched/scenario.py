"""Scenario definition and loading.

A scenario bundles everything a simulation run needs: the satellite
constellation, the ground stations with their local atmosphere and noise
tables, the time grid, and the optical hardware parameters. Scenarios are
loaded from an INI-style text file whose sections reference CSV side tables
for per-station data.
"""

from __future__ import annotations

import csv
import configparser
import datetime as _dt
from dataclasses import dataclass, field
from pathlib import Path

SEASONS = ("mar", "jun", "sep", "dec")

# hour-of-day buckets for the background noise profile; values hold from
# each bucket start until the next one
NOISE_BUCKETS = (0, 6, 12, 18)


class ScenarioError(ValueError):
    """Raised when a scenario file or one of its side tables is invalid."""


@dataclass(frozen=True)
class GroundStation:
    """One optical ground station.

    Attributes
    ----------
    station_id : int
        Unique id, also used in CSV side tables.
    name : str
        Human-readable label.
    latitude_deg, longitude_deg : float
        Geodetic coordinates on a spherical Earth.
    receivers : int
        Number of satellites the station can link with in one slot.
    zenith_transmissivity : dict
        Season key ("mar"/"jun"/"sep"/"dec") -> one-way zenith atmospheric
        transmissivity in (0, 1].
    background_noise : dict
        Bucket start hour (0/6/12/18) -> background detection probability
        per detection window.
    """

    station_id: int
    name: str
    latitude_deg: float
    longitude_deg: float
    receivers: int = 1
    zenith_transmissivity: dict = field(default_factory=dict)
    background_noise: dict = field(default_factory=dict)

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ScenarioError(
                f"station {self.station_id}: latitude {self.latitude_deg} out of [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ScenarioError(
                f"station {self.station_id}: longitude {self.longitude_deg} out of [-180, 180]")
        if self.receivers < 1:
            raise ScenarioError(f"station {self.station_id}: receivers must be >= 1")
        for season, value in self.zenith_transmissivity.items():
            if not 0.0 < value <= 1.0:
                raise ScenarioError(
                    f"station {self.station_id}: zenith transmissivity {value} for "
                    f"{season} out of (0, 1]")
        for bucket, prob in self.background_noise.items():
            if not 0.0 <= prob <= 1.0:
                raise ScenarioError(
                    f"station {self.station_id}: background prob {prob} at h{bucket:02d} "
                    f"out of [0, 1]")


@dataclass(frozen=True)
class Satellite:
    """One satellite of a polar constellation (circular orbit)."""

    sat_id: int
    ring: int
    slot_in_ring: int
    raan_deg: float          # right ascension of the ascending node
    anomaly_deg: float       # angular position along the ring at t = 0


@dataclass(frozen=True)
class SatelliteSpec:
    """Hardware shared by every satellite in the constellation."""

    altitude_km: float
    transmitters: int = 1
    source_rate_hz: float = 1e9
    optics_transmissivity: float = 1.0
    dark_count_prob: float = 0.0

    def __post_init__(self):
        if self.altitude_km <= 0:
            raise ScenarioError("altitude_km must be positive")
        if self.transmitters < 1:
            raise ScenarioError("transmitters must be >= 1")
        if self.source_rate_hz <= 0:
            raise ScenarioError("source_rate_hz must be positive")
        if not 0.0 < self.optics_transmissivity <= 1.0:
            raise ScenarioError("optics_transmissivity out of (0, 1]")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ScenarioError("dark_count_prob out of [0, 1)")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform slot grid covering the simulated horizon."""

    slot_duration_s: float
    slot_count: int
    epoch: _dt.date = _dt.date(2022, 3, 15)

    def __post_init__(self):
        if self.slot_duration_s <= 0:
            raise ScenarioError("slot_duration_s must be positive")
        if self.slot_count < 1:
            raise ScenarioError("slot_count must be >= 1")

    @property
    def horizon_s(self) -> float:
        return self.slot_duration_s * self.slot_count

    def season(self) -> str:
        """Representative season key for the epoch month."""
        month = self.epoch.month
        if month in (2, 3, 4):
            return "mar"
        if month in (5, 6, 7):
            return "jun"
        if month in (8, 9, 10):
            return "sep"
        return "dec"


@dataclass(frozen=True)
class ChannelParams:
    """Optical-link parameters that do not depend on geometry."""

    transmit_divergence_urad: float = 10.0   # far-field half angle
    receiver_aperture_m: float = 1.0
    detector_efficiency: float = 0.5
    sifting_factor: float = 0.5
    intrinsic_error_rate: float = 0.01

    def __post_init__(self):
        if self.transmit_divergence_urad <= 0:
            raise ScenarioError("transmit_divergence_urad must be positive")
        if self.receiver_aperture_m <= 0:
            raise ScenarioError("receiver_aperture_m must be positive")
        for name in ("detector_efficiency", "sifting_factor"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ScenarioError(f"{name} out of (0, 1]")
        if not 0.0 <= self.intrinsic_error_rate < 0.5:
            raise ScenarioError("intrinsic_error_rate out of [0, 0.5)")


@dataclass(frozen=True)
class Scenario:
    """Fully resolved input for one simulation run."""

    satellites: tuple
    stations: tuple
    sat_spec: SatelliteSpec
    time: TimeGrid
    channel: ChannelParams
    min_elevation_deg: float = 20.0

    def __post_init__(self):
        ids = [g.station_id for g in self.stations]
        if len(ids) != len(set(ids)):
            raise ScenarioError("duplicate station ids")
        if not 0.0 < self.min_elevation_deg < 90.0:
            raise ScenarioError("min_elevation_deg out of (0, 90)")

    @property
    def n_sats(self) -> int:
        return len(self.satellites)

    @property
    def n_stations(self) -> int:
        return len(self.stations)


def build_polar_constellation(rings: int, sats_per_ring: int,
                              altitude_km: float) -> tuple:
    """Evenly phased polar constellation.

    Ring planes are spread over 180 degrees of right ascension (polar rings
    180 degrees apart cover the same great circle), satellites within a ring
    over the full 360 degrees of anomaly. Rings carry no relative phase
    offset.
    """
    if rings < 1 or sats_per_ring < 1:
        raise ScenarioError("rings and sats_per_ring must be >= 1")
    if altitude_km <= 0:
        raise ScenarioError("altitude_km must be positive")
    sats = []
    for ring in range(rings):
        raan = 180.0 * ring / rings
        for k in range(sats_per_ring):
            anomaly = 360.0 * k / sats_per_ring
            sats.append(Satellite(
                sat_id=ring * sats_per_ring + k,
                ring=ring,
                slot_in_ring=k,
                raan_deg=raan,
                anomaly_deg=anomaly,
            ))
    return tuple(sats)


def _require(cfg: configparser.ConfigParser, section: str, key: str) -> str:
    if not cfg.has_section(section):
        raise ScenarioError(f"missing section [{section}]")
    if not cfg.has_option(section, key):
        raise ScenarioError(f"missing key '{key}' in section [{section}]")
    return cfg.get(section, key)


def _read_atmosphere_csv(path: Path) -> dict:
    """station_id -> {season -> zenith transmissivity}."""
    table: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"station_id", "season", "zenith_transmissivity"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ScenarioError(f"{path}: expected columns {sorted(need)}")
        for row in reader:
            season = row["season"].strip().lower()
            if season not in SEASONS:
                raise ScenarioError(f"{path}: unknown season '{season}'")
            sid = int(row["station_id"])
            table.setdefault(sid, {})[season] = float(row["zenith_transmissivity"])
    return table


def _read_noise_csv(path: Path) -> dict:
    """station_id -> {bucket hour -> background detection probability}."""
    table: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"station_id", "hour_bucket", "background_prob"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ScenarioError(f"{path}: expected columns {sorted(need)}")
        for row in reader:
            bucket = int(row["hour_bucket"])
            if bucket not in NOISE_BUCKETS:
                raise ScenarioError(f"{path}: hour_bucket {bucket} not in {NOISE_BUCKETS}")
            sid = int(row["station_id"])
            table.setdefault(sid, {})[bucket] = float(row["background_prob"])
    return table


def load_scenario(path) -> Scenario:
    """Parse a scenario file and its CSV side tables.

    The file uses INI syntax with four sections: [constellation],
    [ground_stations], [time] and [hardware]. Station entries are lines of
    the form ``g<N> = id, name, lat, lon, receivers``; the keys
    ``atmosphere_csv`` and ``noise_csv`` point at the per-station side
    tables (paths relative to the scenario file).
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    cfg = configparser.ConfigParser()
    try:
        cfg.read(path)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    rings = int(_require(cfg, "constellation", "rings"))
    per_ring = int(_require(cfg, "constellation", "sats_per_ring"))
    altitude = float(_require(cfg, "constellation", "altitude_km"))
    min_elev = float(cfg.get("constellation", "min_elevation_deg", fallback="20.0"))

    slot_duration = float(_require(cfg, "time", "slot_duration_s"))
    slot_count = int(_require(cfg, "time", "slot_count"))
    epoch_text = _require(cfg, "time", "epoch").strip()
    try:
        epoch = _dt.date.fromisoformat(epoch_text)
    except ValueError as exc:
        raise ScenarioError(f"bad epoch date '{epoch_text}': {exc}") from exc

    spec = SatelliteSpec(
        altitude_km=altitude,
        transmitters=int(cfg.get("hardware", "transmitters_per_satellite", fallback="1")),
        source_rate_hz=float(_require(cfg, "hardware", "source_rate_hz")),
        optics_transmissivity=float(cfg.get("hardware", "optics_transmissivity",
                                            fallback="1.0")),
        dark_count_prob=float(cfg.get("hardware", "dark_count_prob", fallback="0.0")),
    )
    channel = ChannelParams(
        transmit_divergence_urad=float(_require(cfg, "hardware", "transmit_divergence_urad")),
        receiver_aperture_m=float(_require(cfg, "hardware", "receiver_aperture_m")),
        detector_efficiency=float(_require(cfg, "hardware", "detector_efficiency")),
        sifting_factor=float(_require(cfg, "hardware", "sifting_factor")),
        intrinsic_error_rate=float(_require(cfg, "hardware", "intrinsic_error_rate")),
    )

    if not cfg.has_section("ground_stations"):
        raise ScenarioError("missing section [ground_stations]")
    atmo_path = path.parent / _require(cfg, "ground_stations", "atmosphere_csv")
    noise_path = path.parent / _require(cfg, "ground_stations", "noise_csv")
    if not atmo_path.exists():
        raise ScenarioError(f"atmosphere_csv not found: {atmo_path}")
    if not noise_path.exists():
        raise ScenarioError(f"noise_csv not found: {noise_path}")
    atmo = _read_atmosphere_csv(atmo_path)
    noise = _read_noise_csv(noise_path)

    stations = []
    for key, raw in cfg.items("ground_stations"):
        if key in ("atmosphere_csv", "noise_csv"):
            continue
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 5:
            raise ScenarioError(
                f"station entry '{key}' must be 'id, name, lat, lon, receivers'")
        sid = int(parts[0])
        if sid not in atmo:
            raise ScenarioError(f"station {sid}: no rows in {atmo_path.name}")
        if sid not in noise:
            raise ScenarioError(f"station {sid}: no rows in {noise_path.name}")
        missing = [s for s in SEASONS if s not in atmo[sid]]
        if missing:
            raise ScenarioError(f"station {sid}: missing seasons {missing} in atmosphere table")
        missing_b = [b for b in NOISE_BUCKETS if b not in noise[sid]]
        if missing_b:
            raise ScenarioError(f"station {sid}: missing noise buckets {missing_b}")
        stations.append(GroundStation(
            station_id=sid,
            name=parts[1],
            latitude_deg=float(parts[2]),
            longitude_deg=float(parts[3]),
            receivers=int(parts[4]),
            zenith_transmissivity=atmo[sid],
            background_noise=noise[sid],
        ))
    if not stations:
        raise ScenarioError("no stations defined in [ground_stations]")
    stations.sort(key=lambda g: g.station_id)

    return Scenario(
        satellites=build_polar_constellation(rings, per_ring, altitude),
        stations=tuple(stations),
        sat_spec=spec,
        time=TimeGrid(slot_duration_s=slot_duration, slot_count=slot_count, epoch=epoch),
        channel=channel,
        min_elevation_deg=min_elev,
    )
