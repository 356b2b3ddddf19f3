import math

import numpy as np
import pytest

from roadeye.geometry import NonRigidTransformError, RigidTransform
from roadeye.preproc import (
    CalibrationError,
    GeofenceBounds,
    apply_transform,
    estimate_ground_calibration,
    geofence,
)
from roadeye.scene import PointCloudFrame

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
