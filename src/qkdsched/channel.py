"""Per-link channel estimates.

Turns geometry into the numbers the schedulers care about: expected photon
successes per slot, QBER, secret-key rate and the resulting secret-key bits
for every visible (slot, satellite, station) triple. The estimate table
built here is the single input artifact every scheduler and baseline
consumes, so filtering or editing it changes all of them consistently.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .scenario import NOISE_BUCKETS, Scenario
from .orbit import VisibilityTable, usable_slot_counts


def binary_entropy(p):
    """Shannon entropy of a Bernoulli(p) source, bits. h(0) = h(1) = 0."""
    p = np.asarray(p, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("binary_entropy defined on [0, 1]")
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    out[inner] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return out if out.ndim else float(out)


def key_rate(qber):
    """Asymptotic secret-key fraction 1 - 2 h(E), clamped at zero.

    Crosses zero a little above E = 0.11; beyond that the link yields
    nothing regardless of brightness.
    """
    e = np.asarray(qber, dtype=float)
    if np.any((e < 0.0) | (e > 0.5)):
        raise ValueError("qber out of [0, 0.5]")
    r = np.maximum(0.0, 1.0 - 2.0 * binary_entropy(e))
    return r if r.ndim else float(r)


def atmospheric_transmissivity(zenith_transmissivity, elevation_deg):
    """Zenith transmissivity raised to the cosecant of the elevation.

    Models the air-mass increase at slant angles; defined for elevation in
    (0, 90] degrees only.
    """
    z = np.asarray(zenith_transmissivity, dtype=float)
    el = np.asarray(elevation_deg, dtype=float)
    if np.any((z <= 0.0) | (z > 1.0)):
        raise ValueError("zenith transmissivity out of (0, 1]")
    if np.any((el <= 0.0) | (el > 90.0)):
        raise ValueError("elevation out of (0, 90] degrees")
    out = z ** (1.0 / np.sin(np.radians(el)))
    return out if out.ndim else float(out)


def far_field_distance_km(receiver_aperture_m: float,
                          divergence_half_angle_urad: float) -> float:
    """Range below which the beam still fits inside the receiver aperture."""
    if receiver_aperture_m <= 0 or divergence_half_angle_urad <= 0:
        raise ValueError("aperture and divergence must be positive")
    theta = divergence_half_angle_urad * 1e-6
    return receiver_aperture_m / (2.0 * theta) / 1000.0


def free_space_transmissivity(distance_km, receiver_aperture_m: float,
                              divergence_half_angle_urad: float):
    """Diffraction spill: (d0 / D)^2 capped at 1 inside the far-field range."""
    d0 = far_field_distance_km(receiver_aperture_m, divergence_half_angle_urad)
    d = np.asarray(distance_km, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive")
    out = np.minimum(1.0, (d0 / d) ** 2)
    return out if out.ndim else float(out)


def expected_successes(transmissivity, slot_duration_s: float, source_rate_hz: float,
                       detector_efficiency: float, sifting_factor: float):
    """Sifted detections per slot for a given end-to-end transmissivity."""
    eta = np.asarray(transmissivity, dtype=float)
    out = source_rate_hz * slot_duration_s * eta * detector_efficiency * sifting_factor
    return out if out.ndim else float(out)


def qber_estimate(signal_prob, noise_prob, intrinsic_error_rate: float):
    """Intrinsic error plus the half-random noise fraction, capped at 1/2.

    ``signal_prob`` and ``noise_prob`` are per-detection-window click
    probabilities; noise clicks carry no correlation so half of them land
    in the wrong bucket. A dead window pair (both zero) contributes only
    the intrinsic error.
    """
    s = np.asarray(signal_prob, dtype=float)
    n = np.asarray(noise_prob, dtype=float)
    denom = s + n
    frac = np.divide(n, denom, out=np.zeros_like(denom), where=denom > 0)
    e = np.minimum(0.5, intrinsic_error_rate + 0.5 * frac)
    return e if e.ndim else float(e)


# the columns only the ``estimates.csv`` writer reads, and every per-row
# column an EstimateTable may hold
REPORT_COLUMNS = ("transmissivity", "successes", "qber", "rate")
_COLUMNS = ("slot", "sat", "station", "cloud", "key_bits") + REPORT_COLUMNS


@dataclass
class EstimateTable:
    """Per-triple channel estimates, sorted by (slot, satellite, station).

    Index arrays are positional (row in the scenario's station tuple /
    satellite tuple) and must lie in range. ``key_bits`` already folds in cloud cover:
    (1 - cloud) * successes * rate. ``transmitters`` / ``receivers`` carry
    the per-slot link capacities the schedulers must respect. The
    ``REPORT_COLUMNS`` are read only by :func:`write_estimates_csv`; a
    table built without them holds None there.

    Rows given in table order are kept as given: the table takes ownership
    of a contiguous column instead of copying it, so the caller must not
    write into it afterwards. Rows in any other order are sorted into
    copies.
    """

    n_slots: int
    n_sats: int
    n_stations: int
    slot: np.ndarray
    sat: np.ndarray
    station: np.ndarray
    cloud: np.ndarray
    key_bits: np.ndarray
    transmissivity: np.ndarray = field(default=None)
    successes: np.ndarray = field(default=None)
    qber: np.ndarray = field(default=None)
    rate: np.ndarray = field(default=None)
    transmitters: np.ndarray = field(default=None)
    receivers: np.ndarray = field(default=None)
    sat_ids: np.ndarray = field(default=None)
    station_ids: np.ndarray = field(default=None)
    _bounds: np.ndarray = field(default=None, repr=False)
    _plan: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.transmitters is None:
            self.transmitters = np.ones(self.n_sats, dtype=np.int64)
        if self.receivers is None:
            self.receivers = np.ones(self.n_stations, dtype=np.int64)
        if self.sat_ids is None:
            self.sat_ids = np.arange(self.n_sats, dtype=np.int64)
        if self.station_ids is None:
            self.station_ids = np.arange(self.n_stations, dtype=np.int64)
        if len({getattr(self, name) is None for name in REPORT_COLUMNS}) > 1:
            raise ValueError(f"report columns {REPORT_COLUMNS} come all together or not at all")
        self._reindex()

    @property
    def columns(self) -> tuple:
        """Names of the per-row columns this table holds."""
        return _COLUMNS if self.rate is not None else _COLUMNS[:-len(REPORT_COLUMNS)]

    def _reindex(self):
        # one int64 key orders rows by (slot, satellite, station), and the
        # slot bounds cover every row, only while the indices are in range
        for what, index, n in (("slot", self.slot, self.n_slots),
                               ("satellite", self.sat, self.n_sats),
                               ("station", self.station, self.n_stations)):
            if np.any((index < 0) | (index >= n)):
                raise ValueError(f"{what} index out of range [0, {n})")
        key = ((np.asarray(self.slot, dtype=np.int64) * self.n_sats + self.sat)
               * self.n_stations + self.station)
        if np.all(key[1:] > key[:-1]):
            # already in table order without repeats, as the scan, take and
            # the reader deliver them: keep the columns, a contiguous one
            # without a copy
            for name in self.columns:
                setattr(self, name, np.ascontiguousarray(getattr(self, name)))
        else:
            order = np.argsort(key, kind="stable")
            for name in self.columns:
                setattr(self, name, getattr(self, name)[order])
            key = key[order]
            repeat = np.flatnonzero(key[1:] == key[:-1])
            if len(repeat):
                i = repeat[0]
                raise ValueError(
                    "duplicate estimate for (slot, satellite, station) "
                    f"({self.slot[i]}, {self.sat_ids[self.sat[i]]}, "
                    f"{self.station_ids[self.station[i]]})")
        self._bounds = np.searchsorted(self.slot, np.arange(self.n_slots + 1))

    def __len__(self):
        return len(self.slot)

    def slot_spans(self) -> tuple:
        """Row bounds (start, stop) of every occupied slot, in slot order."""
        t = np.flatnonzero(np.diff(self._bounds))
        return self._bounds[t], self._bounds[t + 1]

    @property
    def normalizer(self) -> float:
        """Largest per-slot key-bit figure; 1.0 for an all-zero table."""
        if len(self.key_bits) == 0:
            return 1.0
        m = float(self.key_bits.max())
        return m if m > 0 else 1.0

    def tau(self) -> np.ndarray:
        """Per-satellite count of slots with at least one usable link."""
        return usable_slot_counts(self.slot, self.sat, self.n_sats)

    def take(self, mask: np.ndarray) -> "EstimateTable":
        """New table with the masked-in rows only."""
        return EstimateTable(
            n_slots=self.n_slots, n_sats=self.n_sats, n_stations=self.n_stations,
            **{name: getattr(self, name)[mask] for name in self.columns},
            transmitters=self.transmitters.copy(), receivers=self.receivers.copy(),
            sat_ids=self.sat_ids.copy(), station_ids=self.station_ids.copy(),
        )


# rows estimated or parsed per step of build_estimates and read_estimates_csv;
# bounds their temporaries
_CHUNK_ROWS = 16384


def slot_hour(slot: np.ndarray, slot_duration_s: float) -> np.ndarray:
    """Hour of the day (0-23) in which each slot starts, wrapping daily."""
    return (np.asarray(slot, dtype=np.int64) * slot_duration_s // 3600).astype(np.int64) % 24


def noise_bucket(slot: np.ndarray, slot_duration_s: float) -> np.ndarray:
    """Bucket start hour (0/6/12/18) for each slot, wrapping daily."""
    return (slot_hour(slot, slot_duration_s) // 6) * 6


def build_estimates(scenario: Scenario, visibility: VisibilityTable,
                    cloud_matrix: np.ndarray = None, *,
                    report_columns: bool = True) -> EstimateTable:
    """Estimate every visible triple of the scenario.

    ``cloud_matrix`` is an optional (n_stations, n_slots) array of cloud
    cover in [0, 1]; omitted means clear sky. Each row's figures depend on
    that row alone, so the estimates of a filtered visibility table equal
    the same rows of the whole one, bit for bit. Without ``report_columns``
    the table holds no ``REPORT_COLUMNS``. The table shares the visibility
    table's index arrays. Rows are estimated ``_CHUNK_ROWS`` at a time
    into the finished columns, so the temporaries stay a chunk long.
    """
    spec, ch, time = scenario.sat_spec, scenario.channel, scenario.time
    season = time.season()
    if cloud_matrix is not None:
        cloud_matrix = np.asarray(cloud_matrix, dtype=float)
        if cloud_matrix.shape != (scenario.n_stations, time.slot_count):
            raise ValueError("cloud_matrix must be (n_stations, n_slots)")

    zenith = np.array([st.zenith_transmissivity[season] for st in scenario.stations])
    bg = np.array([[st.background_noise[b] for b in NOISE_BUCKETS]
                   for st in scenario.stations])
    n = len(visibility)
    names = ("cloud", "key_bits") + (REPORT_COLUMNS if report_columns else ())
    out = {name: np.empty(n) for name in names}
    for a in range(0, n, _CHUNK_ROWS):
        part = slice(a, a + _CHUNK_ROWS)
        g, t = visibility.station[part], visibility.slot[part]

        eta_atm = atmospheric_transmissivity(zenith[g], visibility.elevation_deg[part])
        eta_fs = free_space_transmissivity(visibility.distance_km[part],
                                           ch.receiver_aperture_m,
                                           ch.transmit_divergence_urad)
        eta = eta_fs * eta_atm * spec.optics_transmissivity
        lam = expected_successes(eta, time.slot_duration_s, spec.source_rate_hz,
                                 ch.detector_efficiency, ch.sifting_factor)

        bucket_idx = noise_bucket(t, time.slot_duration_s) // 6
        p_noise = bg[g, bucket_idx] + spec.dark_count_prob
        p_signal = eta * ch.detector_efficiency * ch.sifting_factor
        e = qber_estimate(p_signal, p_noise, ch.intrinsic_error_rate)
        r = key_rate(e)

        c = 0.0 if cloud_matrix is None else cloud_matrix[g, t]
        out["cloud"][part] = c
        out["key_bits"][part] = (1.0 - c) * lam * r
        if report_columns:
            for name, value in zip(REPORT_COLUMNS, (eta, lam, e, r)):
                out[name][part] = value

    return EstimateTable(
        n_slots=time.slot_count, n_sats=scenario.n_sats,
        n_stations=scenario.n_stations,
        slot=visibility.slot, sat=visibility.sat, station=visibility.station, **out,
        transmitters=np.full(scenario.n_sats, spec.transmitters, dtype=np.int64),
        receivers=np.array([st.receivers for st in scenario.stations], dtype=np.int64),
        sat_ids=np.array([sat.sat_id for sat in scenario.satellites], dtype=np.int64),
        station_ids=np.array([st.station_id for st in scenario.stations],
                             dtype=np.int64),
    )


_CSV_HEADER = ["slot", "satellite_id", "station_id", "transmissivity",
               "successes", "qber", "key_rate", "cloud", "key_bits"]
_CSV_REPORT = dict(zip(_CSV_HEADER[3:7], REPORT_COLUMNS))   # CSV name -> column
_CSV_DTYPE = np.dtype([(name, np.int64) for name in _CSV_HEADER[:3]]
                      + [(name, np.float64) for name in _CSV_HEADER[3:]])
# rows formatted per write; bounds the strings held at once
_WRITE_CHUNK_ROWS = 65536


def write_estimates_csv(table: EstimateTable, path, *, metadata: bool = True) -> None:
    """One row per estimated triple, raw ids, deterministic order.

    Lines end in CRLF and floats are written as their shortest round-trip
    ``repr``. With ``metadata``, a leading ``#`` line holds JSON with the
    table's ``n_slots``, ids and link capacities, which
    :func:`read_estimates_csv` restores. A table without its
    ``REPORT_COLUMNS`` cannot be written.
    """
    if table.rate is None:
        raise ValueError(f"the estimate table was built without its report columns "
                         f"{REPORT_COLUMNS}, which estimates.csv needs: build or read "
                         f"it with report_columns=True to write it")
    ints = (table.slot, table.sat_ids[table.sat], table.station_ids[table.station])
    floats = (table.transmissivity, table.successes, table.qber, table.rate)
    with open(path, "w", newline="") as fh:
        if metadata:
            fh.write("#" + json.dumps({
                "n_slots": int(table.n_slots),
                "sat_ids": table.sat_ids.tolist(),
                "station_ids": table.station_ids.tolist(),
                "transmitters": table.transmitters.tolist(),
                "receivers": table.receivers.tolist(),
            }) + "\r\n")
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        for a in range(0, len(table), _WRITE_CHUNK_ROWS):
            part = slice(a, a + _WRITE_CHUNK_ROWS)
            # repr of a tolist() float is repr(float(x)): the shortest round-trip text
            columns = ([map(str, c[part].tolist()) for c in ints]
                       + [map(repr, c[part].tolist()) for c in floats]
                       + [_repr_repeated(table.cloud[part]),
                          map(repr, table.key_bits[part].tolist())])
            fh.write("\r\n".join(map(",".join, zip(*columns))))
            fh.write("\r\n")


def _repr_repeated(values: np.ndarray) -> list:
    """``repr`` of every value of a column with few distinct values, each
    distinct bit pattern formatted once (so -0.0 stays apart from 0.0)."""
    bits, index = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64),
                            return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    return [text[i] for i in index.tolist()]


def read_estimates_csv(path, *, report_columns: bool = True) -> EstimateTable:
    """Rebuild an estimate table written by :func:`write_estimates_csv`.

    A leading ``#`` metadata line restores the slot count, the ids in their
    positional order and the link capacities. Without it, ids are remapped
    to dense positional indices in sorted-id order, the slot count ends at
    the last occupied slot and every link capacity is one. A wrong header,
    a row that does not parse as three integers and six floats, key bits
    that are not finite and non-negative, cloud cover outside [0, 1] and a
    table with neither rows nor a metadata line are errors. Every column is
    parsed and checked; without ``report_columns`` the table keeps none of
    the ``REPORT_COLUMNS``.
    """
    with open(path) as fh:
        line = fh.readline()
        meta = _read_metadata(line, path) if line.startswith("#") else {}
        if meta:
            line = fh.readline()
        if line.rstrip("\n").split(",") != _CSV_HEADER:
            raise ValueError(f"{path}: expected columns {_CSV_HEADER}")
        columns = _read_columns(fh, path, 2 if meta else 1,
                                [name for name in _CSV_HEADER
                                 if report_columns or name not in _CSV_REPORT])
    slot = columns["slot"]
    if not (meta or len(slot)):
        raise ValueError(f"{path}: empty estimate table")
    n_slots = meta["n_slots"] if meta else int(slot.max()) + 1
    if len(slot) and (slot.min() < 0 or slot.max() >= n_slots):
        raise ValueError(f"{path}: slots must lie in [0, {n_slots})")
    sat_ids, sat = _dense_ids(columns.pop("satellite_id"), meta.get("sat_ids"),
                              "satellite", path)
    station_ids, station = _dense_ids(columns.pop("station_id"), meta.get("station_ids"),
                                      "station", path)
    return EstimateTable(
        n_slots=n_slots, n_sats=len(sat_ids), n_stations=len(station_ids),
        slot=slot, sat=sat, station=station,
        cloud=columns["cloud"], key_bits=columns["key_bits"],
        **{name: columns.get(csv_name) for csv_name, name in _CSV_REPORT.items()},
        transmitters=meta.get("transmitters"), receivers=meta.get("receivers"),
        sat_ids=sat_ids, station_ids=station_ids,
    )


def _read_columns(fh, path, lines_read: int, names) -> dict:
    """The CSV columns ``names`` of the rows left in ``fh``, each as one
    contiguous array.

    The rows are parsed ``_CHUNK_ROWS`` lines at a time, so that only one
    chunk is ever held as records besides the columns, and every column is
    parsed. ``lines_read`` counts the lines before them, for the line
    numbers of an error.
    """
    pieces = {name: [] for name in names}
    with warnings.catch_warnings():
        # blank lines parse to no rows; the caller reports an empty table
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
            try:
                rows = np.loadtxt(lines, delimiter=",", dtype=_CSV_DTYPE, comments=None,
                                  ndmin=1)
            except ValueError as exc:
                raise ValueError(f"{path}: lines {lines_read + 1}-{lines_read + len(lines)}: "
                                 f"{exc}") from None
            bits, cloud = rows["key_bits"], rows["cloud"]
            bad = np.flatnonzero(~((bits >= 0) & (bits < np.inf) & (cloud >= 0) & (cloud <= 1)))
            if len(bad):
                line = lines_read + 1 + [k for k, text in enumerate(lines) if text.strip()][bad[0]]
                raise ValueError(f"{path}: line {line}: key bits must be finite and "
                                 "non-negative, and cloud cover in [0, 1]")
            lines_read += len(lines)
            for name, column in pieces.items():
                column.append(rows[name].copy())
    # one column at a time, each one's pieces freed before the next is joined
    columns = {}
    for name in names:
        column = pieces.pop(name)
        columns[name] = (np.concatenate(column) if column
                         else np.zeros(0, dtype=_CSV_DTYPE[name]))
    return columns


def _reject_float(text: str):
    raise ValueError(f"non-integer {text}")


def _read_metadata(line: str, path) -> dict:
    """The ``#`` line's slot count, and its ids and capacities as int64 arrays."""
    try:
        raw = json.loads(line[1:], parse_float=_reject_float)
        meta = {"n_slots": int(raw["n_slots"])}
        for key in ("sat_ids", "station_ids", "transmitters", "receivers"):
            meta[key] = np.array(raw[key], dtype=np.int64)
            if meta[key].ndim != 1:
                raise TypeError(f"'{key}' is not a list")
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: bad metadata line: {exc}") from None
    for ids, caps in (("sat_ids", "transmitters"), ("station_ids", "receivers")):
        if len(meta[ids]) != len(meta[caps]):
            raise ValueError(f"{path}: metadata needs one '{caps}' entry per '{ids}' entry")
        if len(np.unique(meta[ids])) != len(meta[ids]):
            raise ValueError(f"{path}: metadata repeats an id in '{ids}'")
        if np.any(meta[caps] < 1):
            raise ValueError(f"{path}: metadata '{caps}' must be at least 1")
    return meta


def _dense_ids(column: np.ndarray, ids, what: str, path) -> tuple:
    """The id array and each row's position in it: ``ids`` when given, else
    the column's distinct ids in sorted order."""
    values, inverse = np.unique(column, return_inverse=True)
    if ids is None:
        return values, inverse
    unknown = values[~np.isin(values, ids)]
    if len(unknown):
        raise ValueError(f"{path}: {what} id {unknown[0]} is not in the metadata line")
    order = np.argsort(ids)
    return ids, order[np.searchsorted(ids, values, sorter=order)][inverse]
