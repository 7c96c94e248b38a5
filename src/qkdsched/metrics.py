"""Run summaries, visibility histograms, and report artifacts.

A run's report is the plain dict :func:`summarize` returns and
:func:`write_report_json` dumps. Everything emitted here is deterministic
for a given input: dicts are written with sorted keys and no wall-clock
or host data is written, so two runs over the same scenario produce
byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .alloc import joint_capacity


def summarize(schedule, allocation, station_ids=None) -> dict:
    """The ``report.json`` object of a schedule and its pairwise allocation,
    pairs labelled ``"a-b"`` by station id, or by index when none are given.

    A pair without joint capacity in the pooled keys (through any single
    satellite) never had a chance at this schedule; it is listed as
    excluded and kept out of the min, which otherwise would pin every
    report at zero.
    """
    def label(pair):
        a, b = pair
        if station_ids is not None:
            a, b = int(station_ids[a]), int(station_ids[b])
        return f"{a}-{b}"

    pairs = allocation.pairs
    reachable = (joint_capacity(schedule.key_pool, pairs) > 0).any(axis=0).tolist()
    totals = allocation.totals.tolist()
    return {
        "schema_version": 1,
        "scheduler": schedule.metadata["scheduler"],
        "dimensions": {"slots": schedule.n_slots, "satellites": schedule.n_sats,
                       "stations": schedule.n_stations},
        "served": len(schedule.slot),
        "pool_total": int(schedule.key_pool.sum()),
        "pair_keys": {label(u): v for u, v in zip(pairs, totals)},
        "excluded_pairs": [label(u) for u, ok in sorted(zip(pairs, reachable))
                           if not ok],
        "min_key": min((v for v, ok in zip(totals, reachable) if ok), default=0),
        "total_key": sum(totals),
        "rounds": list(allocation.rounds),
        "metadata": dict(schedule.metadata),
    }


def choice_histograms(table) -> dict:
    """How many counterparts each side could choose from, slot by slot.

    ``table`` is any visibility-like record (slot/sat/station index arrays
    plus dimensions). Returns ``{"satellite": {k: mass}, "station": ...}``
    where mass counts (entity, slot) cells with exactly k choices; the zero
    bin is included, so each view's masses sum to entities times slots.
    """
    out = {}
    for view, entity, n_entities in (("satellite", table.sat, table.n_sats),
                                     ("station", table.station, table.n_stations)):
        cells = n_entities * table.n_slots
        # only the occupied cells are counted; the others make the zero bin,
        # which a table without cells does not have
        _, choices = np.unique(entity.astype(np.int64) * table.n_slots
                               + table.slot.astype(np.int64), return_counts=True)
        hist = np.bincount(choices, minlength=min(cells, 1))
        hist[:1] = cells - len(choices)
        out[view] = {int(k): int(m) for k, m in enumerate(hist) if m > 0 or k == 0}
    return out


def write_report_json(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_comparison_csv(path, reports) -> None:
    """One row per scheduler: headline numbers side by side."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        columns = ["scheduler", "served", "pool_total", "min_key", "total_key"]
        writer.writerow(columns + ["excluded_pairs"])
        for report in reports:
            writer.writerow([report[k] for k in columns]
                            + [len(report["excluded_pairs"])])


def write_histograms_csv(path, histograms: dict) -> None:
    """Choice histograms as plottable rows: view, choices, mass."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view", "choices", "mass"])
        for view in sorted(histograms):
            for k in sorted(histograms[view]):
                writer.writerow([view, k, histograms[view][k]])


# rows formatted per writerows call; bounds the Python objects held at once
_WRITE_CHUNK_ROWS = 65536


def _write_rows(path, header, columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for a in range(0, len(columns[0]), _WRITE_CHUNK_ROWS):
            part = slice(a, a + _WRITE_CHUNK_ROWS)
            writer.writerows(zip(*(c[part].tolist() for c in columns)))


def write_schedule_csv(path, schedule, estimates) -> None:
    """Served triples with raw identifiers, one row per decision."""
    _write_rows(path, ["slot", "satellite_id", "station_id"],
                [schedule.slot, estimates.sat_ids[schedule.sat],
                 estimates.station_ids[schedule.station]])


def write_pools_csv(path, schedule, estimates) -> None:
    """Whole key bits of every link served at least once, a zero-bit one
    included, in (satellite, station) index order."""
    links = np.unique(schedule.sat * schedule.n_stations + schedule.station)
    s, g = np.divmod(links, schedule.n_stations)
    _write_rows(path, ["satellite_id", "station_id", "key_bits"],
                [estimates.sat_ids[s], estimates.station_ids[g],
                 schedule.key_pool[s, g]])


def write_allocation_csv(path, allocation, estimates) -> None:
    """Positive pairwise bits in (satellite, station a, station b) index order."""
    ends = np.asarray(allocation.pairs, dtype=np.int64).reshape(-1, 2)
    s, u = np.nonzero(allocation.bits)
    order = np.lexsort((ends[u, 1], ends[u, 0], s))
    s, u = s[order], u[order]
    g_of = estimates.station_ids
    _write_rows(path, ["satellite_id", "station_a", "station_b", "key_bits"],
                [estimates.sat_ids[s], g_of[ends[u, 0]], g_of[ends[u, 1]],
                 allocation.bits[s, u]])
