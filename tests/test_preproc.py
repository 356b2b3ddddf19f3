import math

import numpy as np
import pytest

from roadeye.geoloc import GeodeticPos, enu_to_ecef_transform
from roadeye.geometry import NonRigidTransformError, RigidTransform, rotation_aligning
from roadeye.preproc import (
    CalibrationError,
    GeofenceBounds,
    apply_transform,
    estimate_ground_calibration,
    geofence,
)
from roadeye.scene import PointCloudFrame, read_frames, write_frames

from conftest import random_rigid


def _frame(pts, t=0.0):
    pts = np.asarray(pts, dtype=float)
    if pts.shape[1] == 3:
        pts = np.column_stack([pts, np.full(len(pts), 0.5)])
    return PointCloudFrame(t=t, points=pts)


def test_bounds_validation():
    with pytest.raises(ValueError):
        GeofenceBounds(x_min=1.0, x_max=-1.0)


def test_geofence_excludes_out_of_range_x():
    frame = _frame([[60.0, 0.0, -2.0, 0.5]])
    assert len(geofence(frame, GeofenceBounds())) == 0


def test_geofence_retains_interior_point():
    frame = _frame([[0.0, 0.0, -1.0, 0.3]])
    out = geofence(frame, GeofenceBounds())
    assert len(out) == 1
    assert np.array_equal(out.points, frame.points)


def test_geofence_boundary_is_closed():
    frame = _frame([[51.2, -51.2, 0.0, 0.1], [51.2000001, 0.0, -1.0, 0.1]])
    out = geofence(frame, GeofenceBounds())
    assert len(out) == 1
    assert out.points[0, 0] == 51.2


def test_geofence_matches_bruteforce_filter(rng):
    pts = np.column_stack([
        rng.uniform(-80, 80, 10000),
        rng.uniform(-80, 80, 10000),
        rng.uniform(-10, 5, 10000),
        rng.uniform(0, 1, 10000),
    ])
    frame = _frame(pts)
    b = GeofenceBounds()
    out = geofence(frame, b)
    expected = [
        p for p in pts
        if b.x_min <= p[0] <= b.x_max and b.y_min <= p[1] <= b.y_max
        and b.z_min <= p[2] <= b.z_max
    ]
    assert np.array_equal(out.points, np.array(expected).reshape(-1, 4))
    assert out.t == frame.t


def test_geofence_idempotent(rng):
    pts = np.column_stack([rng.uniform(-60, 60, (2000, 3)), rng.uniform(0, 1, (2000, 1))])
    frame = _frame(pts)
    b = GeofenceBounds()
    once = geofence(frame, b)
    twice = geofence(once, b)
    assert np.array_equal(once.points, twice.points)


def test_apply_identity():
    frame = _frame(np.random.default_rng(0).uniform(-10, 10, (100, 4)))
    out = apply_transform(frame, RigidTransform())
    assert np.array_equal(out.points, frame.points)


def test_apply_translation():
    frame = _frame([[1.0, 2.0, -4.74, 0.9]])
    t = RigidTransform.from_translation([0.0, 0.0, 4.74])
    out = apply_transform(frame, t)
    assert np.allclose(out.points[0], [1.0, 2.0, 0.0, 0.9])


def test_apply_transform_preserves_distances(rng):
    pts = rng.uniform(-50, 50, (1000, 3))
    frame = _frame(pts)
    t = random_rigid(rng)
    out = apply_transform(frame, t)
    a = pts[:100]
    b = out.xyz[:100]
    d_before = np.linalg.norm(a[:, None] - a[None, :], axis=-1)
    d_after = np.linalg.norm(b[:, None] - b[None, :], axis=-1)
    assert np.max(np.abs(d_before - d_after)) <= 1e-9
    assert np.array_equal(out.points[:, 3], frame.points[:, 3])


def test_apply_rejects_non_rigid():
    frame = _frame([[0.0, 0.0, 0.0, 0.5]])
    m = np.eye(4)
    m[0, 0] = 1.5
    t = RigidTransform.__new__(RigidTransform)
    t.matrix = m  # bypass constructor validation
    with pytest.raises(NonRigidTransformError):
        apply_transform(frame, t)


def _level_reference(points, t):
    """Leveling as the row-major formula `pts @ R.T + t`, row by row."""
    out = np.array(points, order="C")
    out[:, :3] = points[:, :3] @ t.rotation.T + t.translation
    return out


def _fence_reference(points, b):
    """The geofence as a boolean row gather, `points[mask]`."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    mask = ((x >= b.x_min) & (x <= b.x_max) & (y >= b.y_min) & (y <= b.y_max)
            & (z >= b.z_min) & (z <= b.z_max))
    return points[mask]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _leveling(rng):
    """A sensor-leveling transform: a small tilt and a lift of a few metres."""
    normal = np.array([*rng.uniform(-0.1, 0.1, 2), 1.0])
    r = rotation_aligning(normal, np.array([0.0, 0.0, 1.0]))
    return RigidTransform.from_rotation_translation(r, [0.0, 0.0, rng.uniform(-1.0, 1.0)])


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_level_and_fence_match_row_major_reference(seed, order):
    rng = np.random.default_rng(seed)
    n = 5000
    pts = np.column_stack([rng.uniform(-70, 70, (n, 2)), rng.uniform(-7, 2, n),
                           rng.uniform(0, 1, n)])
    # Float32 values, as frames are read from a file.
    frame = _frame(np.array(pts.astype(np.float32), dtype=float, order=order))
    t, b = _leveling(rng), GeofenceBounds()
    leveled = apply_transform(frame, t)
    fenced = geofence(leveled, b)
    assert _same_bits(leveled.points, _level_reference(frame.points, t))
    expected = _fence_reference(_level_reference(frame.points, t), b)
    assert 0 < len(expected) < n
    assert _same_bits(fenced.points, expected)
    # Both frames stay column-major, so later passes read contiguous columns.
    assert leveled.points.T.flags.c_contiguous and fenced.points.T.flags.c_contiguous
    assert _same_bits(geofence(frame, b).points, _fence_reference(frame.points, b))


@pytest.mark.parametrize("pts", [np.empty((0, 4)), [[60.0, 0.0, -2.0, 0.5], [0.0, -52.0, -1.0, 0.1],
                                                    [0.0, 0.0, 0.5, 0.2], [0.0, 0.0, -9.0, 0.3]]],
                         ids=["empty", "all-outside"])
def test_level_and_fence_of_a_frame_that_keeps_nothing(pts):
    frame = _frame(pts)
    t = RigidTransform.from_translation([0.0, 0.0, 0.25])
    leveled = apply_transform(frame, t)
    assert _same_bits(leveled.points, _level_reference(frame.points, t))
    fenced = geofence(leveled, GeofenceBounds())
    assert fenced.points.shape == (0, 4)
    assert _same_bits(fenced.points, _fence_reference(leveled.points, GeofenceBounds()))


@pytest.mark.parametrize("order", ["C", "F"])
def test_geofence_keeps_points_on_each_closed_bound(order):
    b = GeofenceBounds()
    rows = []
    for axis, name in enumerate("xyz"):
        for side, outward in (("min", -np.inf), ("max", np.inf)):
            on = [0.0, 0.0, -1.0, 0.5]
            on[axis] = getattr(b, f"{name}_{side}")
            off = list(on)
            off[axis] = np.nextafter(on[axis], outward)
            rows += [off, on]
    points = np.array(rows, order=order)
    out = geofence(_frame(points), b)
    assert _same_bits(out.points, points[1::2])
    assert _same_bits(out.points, _fence_reference(points, b))


@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_points_matches_row_major_reference_at_ecef_scale(rng, order):
    t = enu_to_ecef_transform(GeodeticPos(40.0, -105.0, 1600.0))
    enu = np.array(rng.uniform(-500.0, 500.0, (2000, 3)), order=order)
    assert _same_bits(t.apply_points(enu), enu @ t.rotation.T + t.translation)
    ecef = t.apply_points(enu)
    back = t.inverse()
    assert _same_bits(back.apply_points(ecef), ecef @ back.rotation.T + back.translation)


def test_leveled_frame_file_roundtrip(tmp_path, rng):
    frame = _frame(np.column_stack([rng.uniform(-40, 40, (500, 3)), rng.uniform(0, 1, 500)]))
    leveled = apply_transform(frame, _leveling(rng))
    assert leveled.points.T.flags.c_contiguous
    write_frames([leveled], tmp_path / "leveled.bin")
    row_major = PointCloudFrame(t=leveled.t, points=np.ascontiguousarray(leveled.points))
    write_frames([row_major], tmp_path / "row_major.bin")
    assert (tmp_path / "leveled.bin").read_bytes() == (tmp_path / "row_major.bin").read_bytes()
    back = read_frames(tmp_path / "leveled.bin")[0]
    assert _same_bits(back.points, leveled.points.astype(np.float32))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_frame_levels_and_calibrates_like_its_float64_copy(seed, order):
    # Frames arrive as float32; calibration and leveling widen them to
    # float64 themselves, so the result is the float64 copy's, bit for bit.
    rng = np.random.default_rng(seed)
    ground = np.column_stack([rng.uniform(-40, 40, (3000, 2)), rng.normal(-4.74, 0.02, 3000)])
    objects = np.column_stack([rng.uniform(-40, 40, (800, 2)), rng.uniform(-4.7, -2.5, 800)])
    xyz = np.vstack([ground, objects]) @ _leveling(rng).rotation.T
    pts = np.column_stack([xyz, rng.uniform(0, 1, len(xyz))]).astype(np.float32)
    f32 = PointCloudFrame(t=0.0, points=np.array(pts, order=order))
    f64 = PointCloudFrame(t=0.0, points=np.array(pts, dtype=np.float64, order=order))
    assert f32.points.dtype == np.float32
    cal = estimate_ground_calibration(f32, 4.74, seed)
    assert _same_bits(cal.matrix, estimate_ground_calibration(f64, 4.74, seed).matrix)
    leveled = apply_transform(f32, cal)
    assert leveled.points.dtype == np.float64 and leveled.points.T.flags.c_contiguous
    assert _same_bits(leveled.points, apply_transform(f64, cal).points)
    assert _same_bits(leveled.points, _level_reference(f64.points, cal))


def _ground_frame(rng, n=2000, tilt=None, extra=None):
    """Flat ground at z = -4.74 in the sensor frame, optional rigid tilt."""
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.uniform(-40, 40, n)
    pts[:, 1] = rng.uniform(-40, 40, n)
    pts[:, 2] = -4.74
    if extra is not None:
        pts = np.vstack([pts, extra])
    if tilt is not None:
        pts = pts @ tilt.T
    return _frame(pts)


def test_calibration_untilted_is_identity(rng):
    frame = _ground_frame(rng)
    t = estimate_ground_calibration(frame, 4.74)
    assert np.allclose(t.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(t.translation, 0.0, atol=1e-9)


def test_calibration_recovers_known_pitch(rng):
    pitch = math.radians(15.0)
    c, s = math.cos(pitch), math.sin(pitch)
    tilt = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    # Boxes above ground so the stratum still isolates the plane.
    extra = rng.uniform(-5, 5, (200, 3)) + [0, 0, -2.0]
    frame = _ground_frame(rng, tilt=tilt, extra=extra)
    t = estimate_ground_calibration(frame, 4.74)
    # Recovered rotation inverts the tilt within 0.1 degrees.
    residual = t.rotation @ tilt
    angle = math.degrees(math.acos(min(1.0, (np.trace(residual) - 1.0) / 2.0)))
    assert angle <= 0.1


def test_calibration_consistency_rms(rng):
    pitch = math.radians(8.0)
    c, s = math.cos(pitch), math.sin(pitch)
    tilt = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    frame = _ground_frame(rng, tilt=tilt)
    t = estimate_ground_calibration(frame, 4.74)
    out = apply_transform(frame, t)
    rms = float(np.sqrt(np.mean((out.xyz[:, 2] + 4.74) ** 2)))
    assert rms <= 0.05


def test_calibration_noise_frame_fails(rng):
    pts = rng.uniform(-50, 50, (3000, 3))
    with pytest.raises(CalibrationError):
        estimate_ground_calibration(_frame(pts), 4.74)


def test_calibration_needs_enough_points(rng):
    pts = rng.uniform(-50, 50, (60, 3))  # stratum of 18 < 50
    with pytest.raises(ValueError, match="50"):
        estimate_ground_calibration(_frame(pts), 4.74)


def test_calibration_deterministic(rng):
    pitch = math.radians(5.0)
    c, s = math.cos(pitch), math.sin(pitch)
    tilt = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    frame = _ground_frame(rng, tilt=tilt)
    a = estimate_ground_calibration(frame, 4.74, seed=3)
    b = estimate_ground_calibration(frame, 4.74, seed=3)
    assert np.array_equal(a.matrix, b.matrix)
