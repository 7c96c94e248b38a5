import dataclasses
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkdsched import channel
from qkdsched.channel import EstimateTable
from qkdsched.orbit import VisibilityTable, build_visibility, usable_slot_counts
from qkdsched.scenario import load_scenario

from conftest import (bisect_root, make_table, random_table,
                      reference_slot_spans, reference_usable_slot_counts,
                      reference_write_estimates_csv)

FLOAT_COLUMNS = ("transmissivity", "successes", "qber", "rate", "cloud", "key_bits")
COLUMNS = ("slot", "sat", "station") + FLOAT_COLUMNS
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# hand-computed: -0.05*log2(0.05) - 0.95*log2(0.95)
H_005 = 0.28639695711595625


def test_entropy_endpoints():
    assert channel.binary_entropy(0.0) == 0.0
    assert channel.binary_entropy(1.0) == 0.0
    assert channel.binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


def test_entropy_hand_value():
    assert channel.binary_entropy(0.05) == pytest.approx(H_005, abs=1e-12)


def test_entropy_symmetry_and_domain():
    xs = np.linspace(0.0, 1.0, 101)
    h = channel.binary_entropy(xs)
    assert np.allclose(h, h[::-1], atol=1e-12)
    with pytest.raises(ValueError):
        channel.binary_entropy(-0.01)
    with pytest.raises(ValueError):
        channel.binary_entropy(1.01)


def test_key_rate_hand_values():
    assert channel.key_rate(0.0) == 1.0
    assert channel.key_rate(0.05) == pytest.approx(1.0 - 2.0 * H_005, abs=1e-12)
    # entropy at 0.25 already exceeds 1/2, so the rate clamps
    assert channel.key_rate(0.25) == 0.0
    assert channel.key_rate(0.5) == 0.0


def test_key_rate_zero_crossing_matches_bisection():
    # oracle: root of 1 - 2 h(E) found by plain bisection on the raw formula
    def raw(e):
        return 1.0 - 2.0 * channel.binary_entropy(e)

    root = bisect_root(raw, 0.05, 0.2)
    assert root == pytest.approx(0.1100, abs=5e-4)
    assert channel.key_rate(root - 1e-3) > 0.0
    assert channel.key_rate(root + 1e-3) == 0.0


@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_key_rate_monotone_nonincreasing(a, b):
    lo, hi = min(a, b), max(a, b)
    assert channel.key_rate(lo) >= channel.key_rate(hi) - 1e-12


def test_atmospheric_hand_value():
    # elevation 30 deg doubles the air mass: 0.7^2
    assert channel.atmospheric_transmissivity(0.7, 30.0) == pytest.approx(0.49, abs=1e-12)
    assert channel.atmospheric_transmissivity(0.7, 90.0) == pytest.approx(0.7, abs=1e-15)


def test_atmospheric_monotone_in_elevation():
    els = np.linspace(5.0, 90.0, 50)
    vals = channel.atmospheric_transmissivity(0.6, els)
    assert np.all(np.diff(vals) > 0)


def test_atmospheric_domain():
    with pytest.raises(ValueError):
        channel.atmospheric_transmissivity(0.7, 0.0)
    with pytest.raises(ValueError):
        channel.atmospheric_transmissivity(0.7, 90.5)
    with pytest.raises(ValueError):
        channel.atmospheric_transmissivity(0.0, 45.0)


def test_free_space_cap_and_falloff():
    # aperture 1 m at 10 urad half angle -> far field at 50 km
    assert channel.far_field_distance_km(1.0, 10.0) == pytest.approx(50.0)
    assert channel.free_space_transmissivity(30.0, 1.0, 10.0) == 1.0
    assert channel.free_space_transmissivity(50.0, 1.0, 10.0) == pytest.approx(1.0)
    assert channel.free_space_transmissivity(100.0, 1.0, 10.0) == pytest.approx(0.25)
    assert channel.free_space_transmissivity(500.0, 1.0, 10.0) == pytest.approx(0.01)


def test_expected_successes_chain():
    # 1 GHz source, 1 s slot, eta 1e-3, detector 0.5, sifting 0.5
    lam = channel.expected_successes(1e-3, 1.0, 1e9, 0.5, 0.5)
    assert lam == pytest.approx(250_000.0)


def test_qber_composition():
    e = channel.qber_estimate(3e-6, 1e-6, 0.01)
    assert e == pytest.approx(0.01 + 0.5 * 0.25, abs=1e-15)
    # noise-dominated link saturates at 1/2
    assert channel.qber_estimate(0.0, 1e-6, 0.02) == pytest.approx(0.5)
    # dead link: intrinsic only
    assert channel.qber_estimate(0.0, 0.0, 0.02) == pytest.approx(0.02)


def test_noise_bucket_boundaries():
    slots = np.array([0, 5, 6, 11, 12, 17, 18, 23, 24])
    buckets = channel.noise_bucket(slots, 3600.0)
    assert list(buckets) == [0, 0, 6, 6, 12, 12, 18, 18, 0]


def _one_row_visibility(elev, dist):
    return VisibilityTable(
        n_slots=4, n_sats=1, n_stations=1,
        slot=np.array([2], dtype=np.int64), sat=np.array([0], dtype=np.int64),
        station=np.array([0], dtype=np.int64),
        elevation_deg=np.array([elev]), distance_km=np.array([dist]),
    )


def test_build_estimates_composition(toy_scenario):
    vis = _one_row_visibility(90.0, toy_scenario.sat_spec.altitude_km)
    table = channel.build_estimates(toy_scenario, vis)
    ch, spec, time = toy_scenario.channel, toy_scenario.sat_spec, toy_scenario.time

    d0 = channel.far_field_distance_km(ch.receiver_aperture_m, ch.transmit_divergence_urad)
    eta_fs = min(1.0, (d0 / spec.altitude_km) ** 2)
    zenith = toy_scenario.stations[0].zenith_transmissivity[time.season()]
    eta = eta_fs * zenith * spec.optics_transmissivity
    lam = eta * spec.source_rate_hz * time.slot_duration_s * \
        ch.detector_efficiency * ch.sifting_factor
    p_sig = eta * ch.detector_efficiency * ch.sifting_factor
    p_noise = toy_scenario.stations[0].background_noise[0] + spec.dark_count_prob
    e = min(0.5, ch.intrinsic_error_rate + 0.5 * p_noise / (p_sig + p_noise))

    assert len(table) == 1
    assert table.transmissivity[0] == pytest.approx(eta, rel=1e-12)
    assert table.successes[0] == pytest.approx(lam, rel=1e-12)
    assert table.qber[0] == pytest.approx(e, rel=1e-12)
    assert table.key_bits[0] == pytest.approx(lam * channel.key_rate(e), rel=1e-12)


def test_build_estimates_is_the_same_in_chunks():
    scn = load_scenario(SCENARIOS / "toy_equator.ini")
    vis = build_visibility(scn)
    clouds = np.random.default_rng(2).random((scn.n_stations, scn.time.slot_count))
    want = channel.build_estimates(scn, vis, clouds)
    assert len(want) > 7 * 50
    with mock.patch.object(channel, "_CHUNK_ROWS", 7):
        _assert_bitwise_equal(channel.build_estimates(scn, vis, clouds), want)


def test_build_estimates_cloud_scaling(toy_scenario):
    vis = _one_row_visibility(60.0, 700.0)
    clear = channel.build_estimates(toy_scenario, vis)
    clouds = np.zeros((toy_scenario.n_stations, toy_scenario.time.slot_count))
    clouds[0, 2] = 0.25
    cloudy = channel.build_estimates(toy_scenario, vis, cloud_matrix=clouds)
    assert cloudy.key_bits[0] == pytest.approx(0.75 * clear.key_bits[0], rel=1e-12)
    assert cloudy.cloud[0] == 0.25


@pytest.mark.parametrize("report_columns", [True, False])
def test_filtered_visibility_estimates_equal_the_masked_rows_bitwise(report_columns):
    """Estimating only some visibility rows gives the full table's values
    for those rows, bit for bit, in chunks that keep none, some or all of
    their rows; without report columns the table holds only the others."""
    scn = load_scenario(SCENARIOS / "toy_equator.ini")
    vis = build_visibility(scn)
    rng = np.random.default_rng(4)
    clouds = rng.random((scn.n_stations, scn.time.slot_count))
    keep = rng.random(len(vis)) < 0.6
    keep[:14] = False
    keep[14:21] = True
    full = channel.build_estimates(scn, vis, clouds)
    with mock.patch.object(channel, "_CHUNK_ROWS", 7):
        got = channel.build_estimates(scn, vis.take(keep), clouds,
                                      report_columns=report_columns)
    want = full.take(keep)
    assert 0 < len(got) < len(full)
    if report_columns:
        _assert_bitwise_equal(got, want)
    else:
        assert got.columns == ("slot", "sat", "station", "cloud", "key_bits")
        for name in channel.REPORT_COLUMNS:
            assert getattr(got, name) is None, name
        for name in got.columns:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_table_without_report_columns_cannot_be_dumped(tmp_path, toy_scenario):
    table = channel.build_estimates(toy_scenario, _one_row_visibility(45.0, 800.0),
                                    report_columns=False)
    path = tmp_path / "est.csv"
    with pytest.raises(ValueError, match=r"built without its report columns .*"
                                         r"report_columns=True"):
        channel.write_estimates_csv(table, path)
    assert not path.exists()


def test_reader_without_report_columns_still_checks_them(tmp_path):
    table = _random_estimates(np.random.default_rng(6), 40)
    path = tmp_path / "est.csv"
    channel.write_estimates_csv(table, path)
    back = channel.read_estimates_csv(path, report_columns=False)
    for name in channel.REPORT_COLUMNS:
        assert getattr(back, name) is None, name
    for name in back.columns:
        assert getattr(back, name).tobytes() == getattr(table, name).tobytes(), name
    with pytest.raises(ValueError, match="built without its report columns"):
        channel.write_estimates_csv(back, tmp_path / "again.csv")
    # every column is still parsed: a bad report-only value fails either way
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[5] = "x"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    for report_columns in (True, False):
        with pytest.raises(ValueError, match="est.csv: lines 3-"):
            channel.read_estimates_csv(path, report_columns=report_columns)


def test_report_columns_come_all_together_or_not_at_all():
    zeros = np.zeros(1)
    index = {"slot": np.zeros(1, dtype=np.int64), "sat": np.zeros(1, dtype=np.int64),
             "station": np.zeros(1, dtype=np.int64)}
    with pytest.raises(ValueError, match="all together or not at all"):
        EstimateTable(n_slots=1, n_sats=1, n_stations=1, **index, cloud=zeros,
                      key_bits=zeros, qber=zeros)
    bare = EstimateTable(n_slots=1, n_sats=1, n_stations=1, **index, cloud=zeros,
                         key_bits=zeros)
    assert len(bare.take(np.array([True]))) == 1 and bare.take(np.array([True])).rate is None


def _assert_bitwise_equal(got, want):
    for name in ("slot", "sat", "station", "sat_ids", "station_ids", "transmitters",
                 "receivers") + FLOAT_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert (got.n_slots, got.n_sats, got.n_stations) == \
        (want.n_slots, want.n_sats, want.n_stations)


def test_estimates_csv_round_trip(tmp_path, toy_scenario):
    table = channel.build_estimates(toy_scenario, _one_row_visibility(45.0, 800.0))
    path = tmp_path / "est.csv"
    channel.write_estimates_csv(table, path)
    _assert_bitwise_equal(channel.read_estimates_csv(path), table)


def _random_estimates(rng, n_rows, values=None, clouds=None):
    """Table of up to ``n_rows`` rows over 5 satellites and 4 stations with
    unsorted ids, capacities of 1-3, a satellite and a trailing slot with no
    rows; float columns drawn from ``values`` or spread over many decades,
    and the cloud column from ``clouds`` when given. Without ``values``,
    key bits are non-negative and cloud cover lies in [0, 1], as the
    reader requires."""
    n_slots = n_rows // 4 + 3
    keys = rng.choice((n_slots - 1) * 4 * 4, size=min(n_rows, (n_slots - 1) * 16),
                      replace=False)
    slot, sat, station = keys // 16, keys // 4 % 4, keys % 4

    def column():
        if values is not None:
            return rng.choice(np.asarray(values, dtype=float), size=len(keys))
        return rng.choice([-1.0, 1.0], len(keys)) * 10.0 ** rng.uniform(-12, 17, len(keys))

    floats = {name: column() for name in FLOAT_COLUMNS}
    if values is None:
        floats["key_bits"] = np.abs(floats["key_bits"])
        floats["cloud"] = 10.0 ** rng.uniform(-12, 0, len(keys))
    if clouds is not None:
        floats["cloud"] = rng.choice(np.asarray(clouds, dtype=float), size=len(keys))
    return EstimateTable(
        n_slots=n_slots, n_sats=5, n_stations=4, slot=slot, sat=sat, station=station,
        **floats,
        transmitters=rng.integers(1, 4, 5), receivers=rng.integers(1, 4, 4),
        sat_ids=np.array([40, 7, 12, 3, 99]), station_ids=np.array([5, 2, 8, 1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 7),
       st.sampled_from([None, (1e-05, 2.5e-07, 1e+16, 0.0, -0.0, 0.1, 3.0),
                        (math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308)]),
       st.sampled_from([None, (0.0, -0.0, 0.25, 0.8, 0.1 + 0.2),
                        (0.513, 1e-05, math.nan, 0.513000000000001)]))
@example(seed=0, n_rows=33, chunk=7, values=(1e-05, 2.5e-07, 1e+16, 0.0, -0.0), clouds=None)
@example(seed=1, n_rows=40, chunk=6, values=None, clouds=(0.0, -0.0, 0.25, 0.8, 0.1 + 0.2))
def test_writer_matches_csv_writer_bytes(tmp_path_factory, seed, n_rows, chunk, values,
                                         clouds):
    """The chunked writer's data lines are the ``csv.writer`` bytes, across
    chunk boundaries, for floats in exponent form and signed zeros, and for
    a cloud column of a few repeated values."""
    table = _random_estimates(np.random.default_rng(seed), n_rows, values, clouds)
    tmp = tmp_path_factory.mktemp("w")
    reference_write_estimates_csv(table, tmp / "ref.csv")
    with mock.patch.object(channel, "_WRITE_CHUNK_ROWS", chunk):
        channel.write_estimates_csv(table, tmp / "new.csv")
        channel.write_estimates_csv(table, tmp / "bare.csv", metadata=False)
    want = (tmp / "ref.csv").read_bytes()
    meta, data = (tmp / "new.csv").read_bytes().split(b"\r\n", 1)
    assert meta.startswith(b"#") and data == want
    assert (tmp / "bare.csv").read_bytes() == want


def test_writer_chunk_boundary_at_full_size(tmp_path):
    table = _random_estimates(np.random.default_rng(3), channel._WRITE_CHUNK_ROWS + 5)
    assert len(table) > channel._WRITE_CHUNK_ROWS
    reference_write_estimates_csv(table, tmp_path / "ref.csv")
    channel.write_estimates_csv(table, tmp_path / "new.csv", metadata=False)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 7))
def test_round_trip_restores_metadata_bitwise(tmp_path_factory, seed, n_rows, chunk):
    """With its metadata line a dump reads back as the same table, in
    contiguous columns, across chunk boundaries: ids in their positional
    order, capacities, empty satellites and slots."""
    table = _random_estimates(np.random.default_rng(seed), n_rows)
    path = tmp_path_factory.mktemp("rt") / "est.csv"
    channel.write_estimates_csv(table, path)
    with mock.patch.object(channel, "_CHUNK_ROWS", chunk):
        back = channel.read_estimates_csv(path)
    _assert_bitwise_equal(back, table)
    for name in COLUMNS:
        assert getattr(back, name).flags.c_contiguous, name


def test_parse_error_names_the_lines_of_its_chunk(tmp_path):
    path = tmp_path / "est.csv"
    # with two rows a chunk, the header is line 1 and the chunks are lines
    # 2-3, 4-5 and 6-7
    path.write_text(",".join(channel._CSV_HEADER) + "\n"
                    + "".join(f"{t},1,1,0.0,3.0,0.0,1.0,0.0,3.0\n" for t in (0, 1, 2, 3, 4, 5.5)))
    with mock.patch.object(channel, "_CHUNK_ROWS", 2), \
            pytest.raises(ValueError, match=r"est\.csv: lines 6-7: .*'5\.5'"):
        channel.read_estimates_csv(path)


def test_bare_table_reads_with_sorted_dense_ids(tmp_path):
    table = _random_estimates(np.random.default_rng(5), 30)
    path = tmp_path / "bare.csv"
    channel.write_estimates_csv(table, path, metadata=False)
    back = channel.read_estimates_csv(path)
    raw = (table.slot, table.sat_ids[table.sat], table.station_ids[table.station])
    got = (back.slot, back.sat_ids[back.sat], back.station_ids[back.station])
    order = np.lexsort(raw[::-1])
    back_order = np.lexsort(got[::-1])
    for a, b in zip(raw, got):
        assert np.array_equal(a[order], b[back_order])
    assert back.sat_ids.tolist() == sorted(set(raw[1].tolist()))
    assert back.station_ids.tolist() == sorted(set(raw[2].tolist()))
    assert back.n_slots == int(table.slot.max()) + 1
    assert back.transmitters.tolist() == [1] * back.n_sats
    assert back.receivers.tolist() == [1] * back.n_stations
    for name in FLOAT_COLUMNS:
        assert getattr(back, name)[back_order].tobytes() == \
            getattr(table, name)[order].tobytes(), name


def test_normalizer_all_zero_guard():
    from conftest import make_table
    t = make_table(3, 1, 2, [(0, 0, 0, 0.0), (1, 0, 1, 0.0)])
    assert t.normalizer == 1.0


def test_build_estimates_empty_visibility(toy_scenario):
    empty = np.zeros(0, dtype=np.int64)
    vis = VisibilityTable(n_slots=toy_scenario.time.slot_count, n_sats=1, n_stations=1,
                          slot=empty, sat=empty, station=empty,
                          elevation_deg=np.zeros(0), distance_km=np.zeros(0))
    clouds = np.zeros((toy_scenario.n_stations, toy_scenario.time.slot_count))
    for cloud_matrix in (None, clouds):
        table = channel.build_estimates(toy_scenario, vis, cloud_matrix=cloud_matrix)
        assert len(table) == 0
        for name in ("transmissivity", "successes", "qber", "rate", "cloud", "key_bits"):
            assert getattr(table, name).shape == (0,), name
        tau = usable_slot_counts(vis.slot, vis.sat, vis.n_sats)
        assert table.tau().tolist() == tau.tolist() == [0]


def test_slot_spans_and_tau_match_hash_formulas(rng):
    tables = [make_table(3, 2, 2, []), make_table(5, 1, 1, [(4, 0, 0, 1.0)])]
    tables += [random_table(rng, n_slots=40, n_sats=5, n_stations=4, density=d)
               for d in (0.02, 0.5, 1.0)]
    for table in tables:
        for got, want in zip(table.slot_spans(), reference_slot_spans(table)):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        want = reference_usable_slot_counts(table.slot, table.sat, table.n_slots,
                                            table.n_sats)
        assert table.tau().dtype == want.dtype
        assert table.tau().tolist() == want.tolist()


def test_estimate_table_rejects_duplicate_triple():
    from conftest import make_table
    # make_table hands its rows over in table order, so the repeat is adjacent
    with pytest.raises(ValueError, match=r"duplicate estimate for \(slot, satellite, "
                                         r"station\) \(0, 1, 1\)"):
        make_table(2, 2, 2, [(1, 0, 0, 2.0), (0, 1, 1, 5.0), (0, 1, 1, 1.0)])
    # the same link in another slot is no repeat
    assert len(make_table(2, 2, 2, [(0, 1, 1, 5.0), (1, 1, 1, 1.0)])) == 2


def _index_table(slot, sat, station, n_sats=3, n_stations=3):
    zeros = np.zeros(len(slot))
    return EstimateTable(
        n_slots=4, n_sats=n_sats, n_stations=n_stations, slot=np.array(slot),
        sat=np.array(sat), station=np.array(station), transmissivity=zeros,
        successes=zeros, qber=zeros, rate=zeros, cloud=zeros,
        key_bits=np.arange(len(slot), dtype=float))


def test_estimate_table_sorts_shuffled_rows():
    rng = np.random.default_rng(11)
    n = 60
    slot, sat, station = rng.integers(0, 4, n), rng.integers(0, 3, n), rng.integers(0, 3, n)
    _, first = np.unique(slot * 9 + sat * 3 + station, return_index=True)
    keep = rng.permutation(first)
    slot, sat, station = slot[keep], sat[keep], station[keep]
    table = _index_table(slot, sat, station)
    order = np.lexsort((station, sat, slot))
    assert not np.array_equal(order, np.arange(len(order)))
    for name, column in (("slot", slot), ("sat", sat), ("station", station),
                         ("key_bits", np.arange(len(slot), dtype=float))):
        assert np.array_equal(getattr(table, name), column[order]), name


def test_shuffled_duplicates_name_the_first_in_table_order():
    with pytest.raises(ValueError, match=r"\(1, 0, 1\)"):
        _index_table([2, 1, 2, 1, 0], [2, 0, 2, 0, 2], [2, 1, 2, 1, 0])


@pytest.mark.parametrize("sat, station, message", [
    ([0, 3], [0, 0], r"satellite index out of range \[0, 3\)"),
    ([0, -1], [0, 0], "satellite index"),
    ([0, 0], [0, 3], "station index"),
    ([0, 0], [-1, 0], "station index"),
])
def test_estimate_table_rejects_out_of_range_index(sat, station, message):
    # out-of-range indices would make the single sort key alias other rows
    with pytest.raises(ValueError, match=message):
        _index_table([0, 1], sat, station)


@pytest.mark.parametrize("slot", [[0, 5], [-3, 1]])
def test_estimate_table_rejects_out_of_range_slot(slot):
    # a slot outside [0, n_slots) falls outside every slot's row range
    with pytest.raises(ValueError, match=r"slot index out of range \[0, 4\)"):
        _index_table(slot, [0, 0], [0, 0])


def test_in_order_columns_are_taken_without_a_sort():
    rows = np.arange(4, dtype=float)
    columns = {"slot": np.array([0, 0, 1, 3]), "sat": np.array([0, 2, 1, 0]),
               "station": np.array([1, 0, 2, 2]),
               **{name: rows + 10.0 * k for k, name in enumerate(FLOAT_COLUMNS)}}
    with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
        table = EstimateTable(n_slots=4, n_sats=3, n_stations=3, **columns)
        spy.assert_not_called()
        for name, column in columns.items():
            assert getattr(table, name) is column, name
        # the spy sees the sort of rows out of order
        EstimateTable(n_slots=4, n_sats=3, n_stations=3,
                      **{name: column[::-1] for name, column in columns.items()})
        spy.assert_called_once()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_row_order_builds_the_sorted_columns(data):
    keys = sorted(data.draw(st.lists(st.integers(0, 5 * 3 * 4 - 1), unique=True,
                                     max_size=40)))
    order = np.array(data.draw(st.permutations(range(len(keys)))), dtype=np.int64)
    values = st.floats(allow_nan=True, allow_infinity=True)
    keys = np.array(keys, dtype=np.int64)
    columns = {"slot": keys // 12, "sat": keys // 4 % 3, "station": keys % 4}
    for name in FLOAT_COLUMNS:
        columns[name] = np.array(data.draw(st.lists(values, min_size=len(keys),
                                                    max_size=len(keys))), dtype=float)
    want = EstimateTable(n_slots=5, n_sats=3, n_stations=4, **columns)
    got = EstimateTable(n_slots=5, n_sats=3, n_stations=4,
                        **{name: column[order] for name, column in columns.items()})
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_build_estimates_peak_memory_on_global_cut():
    # tracemalloc sees numpy's buffers: the build's peak above its inputs
    # stays within 1.6 times the finished table's columns
    scn = load_scenario(SCENARIOS / "global_a500.ini")
    scn = dataclasses.replace(scn, time=dataclasses.replace(scn.time, slot_count=2400))
    vis = build_visibility(scn)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = channel.build_estimates(scn, vis)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    column_bytes = sum(getattr(table, name).nbytes for name in COLUMNS)
    assert len(table) == len(vis) > 50000
    assert peak <= 1.6 * column_bytes, peak / column_bytes
