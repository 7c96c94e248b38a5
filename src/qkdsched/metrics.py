"""Run summaries, visibility histograms, and report artifacts.

Everything emitted here is deterministic for a given input: dictionaries
are sorted before serialization and no wall-clock or host data is written,
so two runs over the same scenario produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RunReport:
    """Outcome of one scheduler plus allocation pipeline."""

    scheduler: str
    n_slots: int
    n_sats: int
    n_stations: int
    served: int                 # scheduled (slot, satellite, station) entries
    pool_total: int             # whole key bits pooled across links
    pair_totals: dict           # (a, b) -> pairwise key bits
    excluded_pairs: list        # pairs with no joint capacity entering phase 2
    min_key: int                # worst pair among the non-excluded ones
    total_key: int
    rounds: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    runtime_s: float = None     # in-memory only, never serialized

    def to_dict(self, station_ids=None) -> dict:
        def label(pair):
            a, b = pair
            if station_ids is not None:
                a, b = int(station_ids[a]), int(station_ids[b])
            return f"{a}-{b}"

        return {
            "schema_version": 1,
            "scheduler": self.scheduler,
            "dimensions": {"slots": self.n_slots, "satellites": self.n_sats,
                           "stations": self.n_stations},
            "served": self.served,
            "pool_total": self.pool_total,
            "pair_keys": {label(u): int(v)
                          for u, v in sorted(self.pair_totals.items())},
            "excluded_pairs": [label(u) for u in sorted(self.excluded_pairs)],
            "min_key": self.min_key,
            "total_key": self.total_key,
            "rounds": self.rounds,
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
        }


def joint_capacity(key_pool: dict, pairs) -> dict:
    """Per-pair key bits reachable through any single satellite."""
    by_sat: dict = {}
    for (s, g), v in key_pool.items():
        by_sat.setdefault(s, {})[g] = int(v)
    out = {}
    for (a, b) in pairs:
        out[(a, b)] = sum(min(link.get(a, 0), link.get(b, 0))
                          for link in by_sat.values())
    return out


def summarize(schedule, allocation, scheduler: str = None) -> RunReport:
    """Collapse a schedule and its pairwise allocation into one report.

    A pair without joint capacity in the pooled keys never had a chance at
    this schedule; it is listed as excluded and kept out of the min, which
    otherwise would pin every report at zero.
    """
    caps = joint_capacity(schedule.key_pool, allocation.pairs)
    excluded = [u for u in allocation.pairs if caps[u] == 0]
    active = [u for u in allocation.pairs if caps[u] > 0]
    totals = {u: int(allocation.totals.get(u, 0)) for u in allocation.pairs}
    return RunReport(
        scheduler=scheduler or schedule.metadata.get("scheduler", "unknown"),
        n_slots=schedule.n_slots, n_sats=schedule.n_sats,
        n_stations=schedule.n_stations, served=int(len(schedule.slot)),
        pool_total=int(sum(schedule.key_pool.values())),
        pair_totals=totals, excluded_pairs=excluded,
        min_key=min((totals[u] for u in active), default=0),
        total_key=sum(totals.values()),
        rounds=list(allocation.rounds),
        metadata=dict(schedule.metadata),
    )


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
        cells = np.bincount(entity.astype(np.int64) * table.n_slots
                            + table.slot.astype(np.int64),
                            minlength=n_entities * table.n_slots)
        hist = np.bincount(cells)
        out[view] = {int(k): int(m) for k, m in enumerate(hist) if m > 0 or k == 0}
    return out


def write_report_json(path, report: RunReport, station_ids=None) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(station_ids), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_comparison_csv(path, reports) -> None:
    """One row per scheduler: headline numbers side by side."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheduler", "served", "pool_total", "min_key",
                         "total_key", "excluded_pairs"])
        for report in reports:
            writer.writerow([
                report.scheduler, report.served, report.pool_total,
                report.min_key, report.total_key, len(report.excluded_pairs),
            ])


def write_histograms_csv(path, histograms: dict) -> None:
    """Choice histograms as plottable rows: view, choices, mass."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["view", "choices", "mass"])
        for view in sorted(histograms):
            for k in sorted(histograms[view]):
                writer.writerow([view, k, histograms[view][k]])


def write_schedule_csv(path, schedule, estimates) -> None:
    """Served triples with raw identifiers, one row per decision."""
    sat_of, g_of = estimates.sat_ids, estimates.station_ids
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "satellite_id", "station_id"])
        for t, s, g in zip(schedule.slot, schedule.sat, schedule.station):
            writer.writerow([int(t), int(sat_of[s]), int(g_of[g])])


def write_pools_csv(path, schedule, estimates) -> None:
    sat_of, g_of = estimates.sat_ids, estimates.station_ids
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["satellite_id", "station_id", "key_bits"])
        for (s, g), v in sorted(schedule.key_pool.items()):
            writer.writerow([int(sat_of[s]), int(g_of[g]), int(v)])


def write_allocation_csv(path, allocation, estimates) -> None:
    sat_of, g_of = estimates.sat_ids, estimates.station_ids
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["satellite_id", "station_a", "station_b", "key_bits"])
        for (s, a, b), v in sorted(allocation.bits.items()):
            writer.writerow([int(sat_of[s]), int(g_of[a]), int(g_of[b]), int(v)])
