"""Geofencing and sensor self-calibration (L-Coor to H-Coor).

Calibration fits the ground plane with seeded RANSAC over the lowest-z
stratum of a frame as the sensor delivers it, then builds the rigid transform
that levels the ground at z = -mount_height with the minimal normal-to-up
rotation (no yaw injected). The geofence crops leveled frames, so its bounds
hold in H-Coor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform, rotation_aligning
from .scene import AREA_HALF_EXTENT, PointCloudFrame

RANSAC_ITERATIONS = 200
RANSAC_INLIER_THRESHOLD = 0.1  # m
GROUND_STRATUM_FRACTION = 0.3
MIN_INLIER_RATIO = 0.3
MIN_GROUND_POINTS = 50


class CalibrationError(RuntimeError):
    """Ground-plane fit failed (too few points or inlier ratio below 0.3)."""


@dataclass
class GeofenceBounds:
    """Crop bounds in H-Coor: level, sensor at the origin, ground at -mount_height."""

    x_min: float = -AREA_HALF_EXTENT
    x_max: float = AREA_HALF_EXTENT
    y_min: float = -AREA_HALF_EXTENT
    y_max: float = AREA_HALF_EXTENT
    z_min: float = -5.0
    z_max: float = 0.0

    def __post_init__(self):
        for axis in "xyz":
            lo, hi = getattr(self, f"{axis}_min"), getattr(self, f"{axis}_max")
            if not lo < hi:
                raise ValueError(f"{axis}_min={lo} must be < {axis}_max={hi}")

    def contains(self, xyz: np.ndarray) -> np.ndarray:
        """Closed-interval membership mask for an (N, 3) array."""
        x, y, z = np.asarray(xyz, dtype=float).T
        return (
            (x >= self.x_min) & (x <= self.x_max)
            & (y >= self.y_min) & (y <= self.y_max)
            & (z >= self.z_min) & (z <= self.z_max)
        )


def geofence(frame: PointCloudFrame, bounds: GeofenceBounds) -> PointCloudFrame:
    """Keep exactly the points inside all closed bounds, order preserved.
    The points are gathered column by column, so a column-major frame, as
    `apply_transform` returns, stays column-major."""
    keep = np.flatnonzero(bounds.contains(frame.xyz))
    return PointCloudFrame(t=frame.t, points=frame.points.T.take(keep, axis=1).T)


def _fit_plane(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares plane n.x = d through points; n unit, d signed offset."""
    centroid = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    n = vt[-1]
    return n, float(n @ centroid)


def estimate_ground_calibration(
    frame: PointCloudFrame,
    mount_height: float,
    seed: int = 0,
) -> RigidTransform:
    """RANSAC-fit the ground plane and return the leveling transform.

    The result maps the fitted plane onto z = -mount_height with the plane
    normal sent to +z. Raises CalibrationError when fewer than 30% of the
    candidate points support the best plane.
    """
    xyz = np.asarray(frame.xyz, dtype=float)  # float32 as read; RANSAC works in float64
    k = int(np.ceil(GROUND_STRATUM_FRACTION * len(xyz)))
    if k < MIN_GROUND_POINTS:
        raise ValueError(
            f"need at least {MIN_GROUND_POINTS} points in the lowest-z stratum, have {k}"
        )
    order = np.argsort(xyz[:, 2], kind="stable")
    cand = xyz[order[:k]]

    rng = np.random.default_rng(seed & 0xFFFFFFFF)
    best_count = -1
    best_mask = None
    for _ in range(RANSAC_ITERATIONS):
        idx = rng.choice(k, size=3, replace=False)
        p0, p1, p2 = cand[idx]
        n = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            continue
        n = n / norm
        d = n @ p0
        mask = np.abs(cand @ n - d) <= RANSAC_INLIER_THRESHOLD
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
    if best_count < MIN_INLIER_RATIO * k:
        raise CalibrationError(
            f"plane-fit inlier ratio {best_count / k:.3f} below {MIN_INLIER_RATIO}"
        )

    n, d = _fit_plane(cand[best_mask])
    # Orient the normal toward the sensor at the L-Coor origin (ground below).
    if d > 0:
        n, d = -n, -d
    r = rotation_aligning(n, np.array([0.0, 0.0, 1.0]))
    # Rotation preserves n.x = d, so the plane lands at z = d; shift to -h.
    tz = -mount_height - d
    return RigidTransform.from_rotation_translation(r, [0.0, 0.0, tz])


def apply_transform(frame: PointCloudFrame, t: RigidTransform) -> PointCloudFrame:
    """Left-multiply every point in homogeneous form; reflectivity unchanged.
    The result is float64 and column-major, so later passes read contiguous
    columns. Float32 points are cast straight into that block, which is the
    only full-frame float64 copy leveling makes."""
    t.validate()
    block = np.empty((4, len(frame)))
    block[:] = frame.points.T
    block[:3] = t.apply_points(block[:3].T).T
    return PointCloudFrame(t=frame.t, points=block.T)
