import math
import re

import numpy as np
import pytest

from roadeye.geoloc import (
    DegenerateGcpError,
    EcefPos,
    GcpCorrespondence,
    GeodeticPos,
    WGS84,
    Wgs84Params,
    ecef_to_geodetic,
    ecef_to_geodetic_points,
    enu_to_ecef_transform,
    estimate_ecef_transform,
    geodetic_latitude,
    geodetic_to_ecef,
    georeference_tracks,
    load_gcp_file,
)
from roadeye.geometry import RigidTransform
from roadeye.wire import PhaseStamps, WireFormatError, decode_frame, encode_frame

from conftest import detections, random_rigid

SEMI_MINOR = WGS84.R * (1.0 - WGS84.f)


# --- constants --------------------------------------------------------------

def test_wgs84_eccentricity_identity():
    w = WGS84
    assert abs(w.e2 - (1.0 - (1.0 - w.f) ** 2)) <= 1e-15
    custom = Wgs84Params(R=6378137.0, f=1.0 / 300.0)
    assert abs(custom.e2 - (1.0 - (1.0 - custom.f) ** 2)) <= 1e-15


# --- ECEF <-> geodetic ------------------------------------------------------

def test_equatorial_surface_point():
    g = ecef_to_geodetic(EcefPos(WGS84.R, 0.0, 0.0))
    assert g.lat == pytest.approx(0.0, abs=1e-12)
    assert g.lon == pytest.approx(0.0, abs=1e-12)
    assert g.alt == pytest.approx(0.0, abs=1e-9)


def test_longitude_quadrants():
    g = ecef_to_geodetic(EcefPos(1.0e6, 1.0e6, 2.0e6))
    assert g.lon == pytest.approx(45.0, abs=1e-12)
    g = ecef_to_geodetic(EcefPos(-1.0e6, 1.0e6, 2.0e6))
    assert g.lon == pytest.approx(135.0, abs=1e-12)
    g = ecef_to_geodetic(EcefPos(-1.0e6, -1.0e6, 2.0e6))
    assert g.lon == pytest.approx(-135.0, abs=1e-12)


def test_longitude_invariant_under_xy_scaling(rng):
    for _ in range(200):
        x, y = rng.uniform(-1e7, 1e7, 2)
        z = rng.uniform(-5e6, 5e6)
        base = ecef_to_geodetic(EcefPos(x, y, z)).lon
        for c in (0.5, 2.0, 10.0):
            scaled = ecef_to_geodetic(EcefPos(c * x, c * y, z)).lon
            assert scaled == pytest.approx(base, abs=1e-12)


def test_polar_axis_point():
    g = ecef_to_geodetic(EcefPos(0.0, 0.0, SEMI_MINOR))
    assert g.lat == 90.0
    assert g.lon == 0.0
    assert g.alt == pytest.approx(0.0, abs=1e-9)
    g = ecef_to_geodetic(EcefPos(0.0, 0.0, -SEMI_MINOR - 50.0))
    assert g.lat == -90.0
    assert g.alt == pytest.approx(50.0, abs=1e-9)
    # The array form takes the same polar branch, point by point.
    polar = [(0.0, 0.0, SEMI_MINOR), (0.0, 0.0, -SEMI_MINOR - 50.0), (1e-10, -1e-10, 7.0e6)]
    lat, lon, alt = ecef_to_geodetic_points(np.array(polar + [(WGS84.R, 0.0, 0.0)]))
    for k, p in enumerate(polar):
        g = ecef_to_geodetic(EcefPos(*p))
        assert (lat[k], lon[k], alt[k]) == (g.lat, g.lon, g.alt)
    assert (lat[3], lon[3]) == (0.0, 0.0)


def test_near_center_rejected():
    with pytest.raises(ValueError, match="within 1 m of Earth's center"):
        ecef_to_geodetic(EcefPos(0.1, 0.2, 0.3))
    # One such point rejects the whole array.
    with pytest.raises(ValueError, match="within 1 m of Earth's center"):
        ecef_to_geodetic_points(np.array([[WGS84.R, 0.0, 0.0], [0.1, 0.2, 0.3]]))


def test_array_form_matches_scalar_oracle():
    # Acceptance criterion 2's domain and sample size.
    rng = np.random.default_rng(20240811)
    lat = rng.uniform(-89.9, 89.9, 10000)
    lon = rng.uniform(-180.0, 180.0, 10000)
    alt = rng.uniform(-100.0, 9000.0, 10000)
    ecef = [geodetic_to_ecef(GeodeticPos(*g)) for g in zip(lat, lon, alt)]
    got = ecef_to_geodetic_points(np.array([(e.X, e.Y, e.Z) for e in ecef]))
    oracle = [ecef_to_geodetic(e) for e in ecef]
    assert np.max(np.abs(got[0] - [g.lat for g in oracle])) <= 1e-12
    assert np.max(np.abs(got[1] - [g.lon for g in oracle])) <= 1e-12
    assert np.max(np.abs(got[2] - [g.alt for g in oracle])) <= 1e-6


def test_forward_equator_and_pole():
    e = geodetic_to_ecef(GeodeticPos(0.0, 0.0, 0.0))
    assert np.allclose([e.X, e.Y, e.Z], [WGS84.R, 0.0, 0.0], atol=1e-9)
    e = geodetic_to_ecef(GeodeticPos(90.0, 45.0, 0.0))
    assert np.allclose([e.X, e.Y], [0.0, 0.0], atol=1e-6)
    assert e.Z == pytest.approx(SEMI_MINOR, abs=1e-6)


def test_roundtrip_seeded_sample(rng):
    for _ in range(2000):
        lat = rng.uniform(-89.9, 89.9)
        lon = rng.uniform(-180.0, 180.0)
        alt = rng.uniform(-100.0, 9000.0)
        e = geodetic_to_ecef(GeodeticPos(lat, lon, alt))
        g = ecef_to_geodetic(e)
        assert abs(g.lat - lat) <= 1e-9
        assert abs(math.remainder(g.lon - lon, 360.0)) <= 1e-9
        assert abs(g.alt - alt) <= 1e-6


def test_bowring_iteration_bound(rng):
    for _ in range(500):
        lat = rng.uniform(-89.9, 89.9)
        lon = rng.uniform(-180.0, 180.0)
        alt = rng.uniform(-10000.0, 10000.0)
        e = geodetic_to_ecef(GeodeticPos(lat, lon, alt))
        _, iterations = geodetic_latitude(e.Z, math.hypot(e.X, e.Y))
        assert iterations <= 5


def test_geodetic_pos_ranges():
    with pytest.raises(ValueError):
        GeodeticPos(91.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GeodeticPos(0.0, -180.0, 0.0)
    GeodeticPos(0.0, 180.0, 0.0)


# --- GCP registration -------------------------------------------------------

def _random_gcps(rng, t, n=10, noise=0.0):
    pts = rng.uniform(-50, 50, (n, 3))
    out = t.apply_points(pts)
    if noise > 0:
        out = out + rng.normal(0.0, noise, out.shape)
    return [GcpCorrespondence(p, EcefPos(*q)) for p, q in zip(pts, out)]


def test_gcp_fit_recovers_known_transform(rng):
    for _ in range(100):
        t = random_rigid(rng, t_scale=100.0)
        fit = estimate_ecef_transform(_random_gcps(rng, t))
        assert np.max(np.abs(fit.transform.matrix - t.matrix)) <= 1e-9
        assert fit.rms <= 1e-9


def test_gcp_fit_rejects_too_few():
    with pytest.raises(DegenerateGcpError):
        estimate_ecef_transform([
            GcpCorrespondence([0, 0, 0], EcefPos(1, 0, 0)),
            GcpCorrespondence([1, 0, 0], EcefPos(2, 0, 0)),
        ])


def test_gcp_fit_rejects_collinear():
    triple = [
        GcpCorrespondence([float(k), 0.0, 0.0], EcefPos(float(k), 1.0, 0.0))
        for k in range(3)
    ]
    with pytest.raises(DegenerateGcpError, match="collinear"):
        estimate_ecef_transform(triple)
    many = [
        GcpCorrespondence([float(k), 2.0 * k, -k], EcefPos(float(k), 1.0, 0.0))
        for k in range(6)
    ]
    with pytest.raises(DegenerateGcpError, match="collinear"):
        estimate_ecef_transform(many)


def test_gcp_fit_noise_rms(rng):
    t = random_rigid(rng, t_scale=100.0)
    fit = estimate_ecef_transform(_random_gcps(rng, t, n=10, noise=0.02))
    assert fit.rms <= 0.05
    fit.transform.validate()  # output satisfies the rigid invariants


def test_gcp_file_parsing(tmp_path):
    path = tmp_path / "gcps.txt"
    path.write_text(
        "# lidar x y z, ecef X Y Z\n"
        "1.0 2.0 3.0 6378137.0 10.0 20.0\n"
        "\n"
        "4.0 5.0 6.0 6378140.0 30.0 40.0  # inline comment\n"
    )
    gcps = load_gcp_file(path)
    assert len(gcps) == 2
    assert np.allclose(gcps[0].lidar_point, [1.0, 2.0, 3.0])
    assert gcps[1].ecef_point.X == 6378140.0


def test_gcp_file_bad_field_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3 4 5\n")
    with pytest.raises(ValueError, match="line|:1"):
        load_gcp_file(path)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize("column", [0, 5])
def test_gcp_file_non_finite_field_names_the_line(tmp_path, field, column):
    values = ["4.0", "5.0", "6.0", "6378140.0", "30.0", "40.0"]
    values[column] = field
    path = tmp_path / "gcps.txt"
    path.write_text("# lidar x y z, ecef X Y Z\n1.0 2.0 3.0 6378137.0 10.0 20.0\n"
                    + " ".join(values) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: fields must be finite"):
        load_gcp_file(path)


# --- georeferencing ---------------------------------------------------------

def _track(x, y, z, theta=0.0, tid=1):
    """One tracked DETECTION row."""
    return detections([((x, y, z, 2.0, 4.5, 1.6, theta), 0, 1.0, tid)])


def test_georeference_trivial_composition():
    p_ecef = RigidTransform.from_translation([WGS84.R, 0.0, 0.0])
    msgs = georeference_tracks(_track(0.0, 0.0, 0.0), p_ecef, t=2.5)
    assert len(msgs) == 1
    m = msgs[0]
    assert m["lat"] == pytest.approx(0.0, abs=1e-9)
    assert m["lon"] == pytest.approx(0.0, abs=1e-9)
    assert m["alt"] == pytest.approx(0.0, abs=1e-6)
    assert m["t"] == 2.5
    assert m["id"] == 1


def test_georeference_preserves_ids_and_order(rng):
    p_ecef = enu_to_ecef_transform(GeodeticPos(40.0, -105.0, 1600.0))
    tracks = np.concatenate(
        [_track(rng.uniform(-40, 40), rng.uniform(-40, 40), 0.8, tid=k) for k in range(12)]
    )
    msgs = georeference_tracks(tracks, p_ecef)
    assert msgs["id"].tolist() == list(range(12))


def test_georeference_matches_composed_calls(rng):
    for _ in range(50):
        p_cali = random_rigid(rng, t_scale=5.0)
        p_ecef = enu_to_ecef_transform(
            GeodeticPos(rng.uniform(-60, 60), rng.uniform(-180, 180), rng.uniform(0, 2000))
        )
        track = _track(rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(-2, 2),
                       theta=rng.uniform(-3, 3))
        msgs = georeference_tracks(track, p_ecef @ p_cali.inverse(), t=1.0)
        box = track[0].box
        # Oracle: the two transforms applied one after the other, then the
        # scalar geodetic conversion.
        ecef = p_ecef.apply_point(p_cali.inverse().apply_point([box.x, box.y, box.z]))
        g = ecef_to_geodetic(EcefPos(*ecef))
        assert msgs[0]["lat"] == pytest.approx(g.lat, abs=1e-12)
        assert msgs[0]["lon"] == pytest.approx(g.lon, abs=1e-12)
        assert msgs[0]["alt"] == pytest.approx(g.alt, abs=1e-9)
        yaw = (p_ecef @ p_cali.inverse()).yaw
        expected_heading = (90.0 - math.degrees(box.theta + yaw)) % 360.0
        assert float(msgs[0]["theta"]) == pytest.approx(expected_heading, abs=1e-3)


def test_georeference_rejects_ids_beyond_i32():
    # Georeferencing keeps the tracker's ids as they are; the wire refuses
    # one its i32 column cannot hold.
    p_ecef = RigidTransform.from_translation([WGS84.R, 0.0, 0.0])
    rows = georeference_tracks(_track(0.0, 0.0, 0.0, tid=2 ** 31 - 1), p_ecef)
    assert decode_frame(encode_frame(rows, PhaseStamps())).messages[0].id == 2 ** 31 - 1
    rows = georeference_tracks(_track(0.0, 0.0, 0.0, tid=2 ** 31), p_ecef)
    assert rows["id"].tolist() == [2 ** 31]
    with pytest.raises(WireFormatError, match="record 0: id 2147483648 .*i32"):
        encode_frame(rows, PhaseStamps())


def test_georeference_heading_convention():
    # Identity-yaw chain: heading east (theta 0) -> compass 90 degrees.
    p_ecef = RigidTransform.from_translation([WGS84.R, 0.0, 0.0])
    msgs = georeference_tracks(_track(0.0, 0.0, 0.0, theta=0.0), p_ecef)
    assert float(msgs[0]["theta"]) == pytest.approx(90.0)
    msgs = georeference_tracks(_track(0.0, 0.0, 0.0, theta=math.pi / 2), p_ecef)
    assert float(msgs[0]["theta"]) == pytest.approx(0.0)


def test_enu_transform_is_rigid_and_centered():
    g = GeodeticPos(40.0, -105.0, 1600.0)
    t = enu_to_ecef_transform(g)
    t.validate()
    e = geodetic_to_ecef(g)
    assert np.allclose(t.translation, [e.X, e.Y, e.Z])
    # +z (up) maps outward: the transformed up point is farther from center.
    up = t.apply_point([0.0, 0.0, 100.0])
    assert np.linalg.norm(up) > np.linalg.norm(t.translation)
