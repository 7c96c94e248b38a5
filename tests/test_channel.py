import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkdsched import channel
from qkdsched.orbit import VisibilityTable

from conftest import bisect_root


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


def test_build_estimates_cloud_scaling(toy_scenario):
    vis = _one_row_visibility(60.0, 700.0)
    clear = channel.build_estimates(toy_scenario, vis)
    clouds = np.zeros((toy_scenario.n_stations, toy_scenario.time.slot_count))
    clouds[0, 2] = 0.25
    cloudy = channel.build_estimates(toy_scenario, vis, cloud_matrix=clouds)
    assert cloudy.key_bits[0] == pytest.approx(0.75 * clear.key_bits[0], rel=1e-12)
    assert cloudy.cloud[0] == 0.25


def test_estimates_csv_round_trip(tmp_path, toy_scenario):
    table = channel.build_estimates(toy_scenario, _one_row_visibility(45.0, 800.0))
    path = tmp_path / "est.csv"
    channel.write_estimates_csv(table, path)
    back = channel.read_estimates_csv(path)
    assert len(back) == len(table)
    assert np.allclose(back.key_bits, table.key_bits)
    assert np.allclose(back.qber, table.qber)
    assert back.slot[0] == table.slot[0]


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
        assert table.tau().tolist() == vis.tau.tolist() == [0]


def test_estimate_table_rejects_duplicate_triple():
    from conftest import make_table
    with pytest.raises(ValueError, match=r"\(0, 1, 1\)"):
        make_table(2, 2, 2, [(1, 0, 0, 2.0), (0, 1, 1, 5.0), (0, 1, 1, 1.0)])
    # the same link in another slot is no repeat
    assert len(make_table(2, 2, 2, [(0, 1, 1, 5.0), (1, 1, 1, 1.0)])) == 2
