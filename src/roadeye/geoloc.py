"""Geodetic conversion of tracked boxes: sensor frame -> ECEF -> lat/lon/alt.

The ECEF-to-geodetic direction runs the iterated reduced-latitude scheme
(Bowring): per point to convergence in `ecef_to_geodetic`, the oracle, and
a fixed number of steps over whole arrays in `ecef_to_geodetic_points`,
which georeferencing uses. The forward closed form, `geodetic_to_ecef`, is
their test oracle; it also places the surveyed sensor in
`enu_to_ecef_transform`, the pipeline's path without GCPs, and carries
decoded positions to ENU in `roadeye eval`. The sensor-to-ECEF transform
comes either from ground-control-point correspondences or from a surveyed
sensor location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform
from .wire import RECORD, quantize_heading

BOWRING_TOL = 1e-12  # rad
BOWRING_MAX_ITER = 10
# Latitude evaluations of the array form: three agree with the converged
# scalar to ~1e-14 deg and ~2e-9 m from -100 m to 9 km altitude.
BOWRING_STEPS = 3
POLAR_S_EPS = 1e-9  # m, below this X-Y radius the longitude is undefined
GEO_RECORD = np.dtype([(name, "<i8" if name == "id" else RECORD[name]) for name in RECORD.names])


class DegenerateGcpError(ValueError):
    """Fewer than 3 correspondences, or all of them collinear."""


@dataclass(frozen=True)
class Wgs84Params:
    R: float = 6378137.0  # equatorial radius, m
    f: float = 1.0 / 298.257223563  # flattening

    @property
    def e2(self) -> float:
        """Square of the first eccentricity, 1 - (1 - f)^2."""
        return 1.0 - (1.0 - self.f) ** 2


WGS84 = Wgs84Params()


@dataclass
class EcefPos:
    X: float
    Y: float
    Z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.X, self.Y, self.Z], dtype=float)


@dataclass
class GeodeticPos:
    lat: float  # degrees, [-90, 90]
    lon: float  # degrees, (-180, 180]
    alt: float  # meters above ellipsoid

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 < self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside (-180, 180]")


@dataclass
class GcpCorrespondence:
    lidar_point: np.ndarray  # (3,) L-Coor meters
    ecef_point: EcefPos

    def __post_init__(self):
        self.lidar_point = np.asarray(self.lidar_point, dtype=float)


@dataclass
class TransformFit:
    transform: RigidTransform
    rms: float  # m, residual of the fitted correspondences


def geodetic_latitude(z: float, s: float) -> tuple[float, int]:
    """Iterate the reduced-latitude update until |dphi| < 1e-12 rad.

    Returns (phi radians, number of phi evaluations).
    """
    f, e2, r = WGS84.f, WGS84.e2, WGS84.R
    beta = math.atan2(z, (1.0 - f) * s)
    phi_prev = None
    iterations = 0
    for _ in range(BOWRING_MAX_ITER):
        sb, cb = math.sin(beta), math.cos(beta)
        phi = math.atan2(
            z + e2 * (1.0 - f) / (1.0 - e2) * r * sb ** 3,
            s - e2 * r * cb ** 3,
        )
        iterations += 1
        if phi_prev is not None and abs(phi - phi_prev) < BOWRING_TOL:
            break
        phi_prev = phi
        beta = math.atan2((1.0 - f) * math.sin(phi), math.cos(phi))
    return phi, iterations


def ecef_to_geodetic(p: EcefPos) -> GeodeticPos:
    """Geodetic position from ECEF via the iterated reduced latitude."""
    x, y, z = p.X, p.Y, p.Z
    if math.sqrt(x * x + y * y + z * z) < 1.0:
        raise ValueError("point within 1 m of Earth's center")
    s = math.hypot(x, y)
    if s < POLAR_S_EPS:
        lat = math.copysign(90.0, z)
        return GeodeticPos(lat=lat, lon=0.0, alt=abs(z) - WGS84.R * (1.0 - WGS84.f))
    lon = math.atan2(y, x)
    phi, _ = geodetic_latitude(z, s)
    n = WGS84.R / math.sqrt(1.0 - WGS84.e2 * math.sin(phi) ** 2)
    alt = s * math.cos(phi) + (z + WGS84.e2 * n * math.sin(phi)) * math.sin(phi) - n
    return GeodeticPos(lat=math.degrees(phi), lon=math.degrees(lon), alt=alt)


def ecef_to_geodetic_points(xyz: np.ndarray):
    """(lat deg, lon deg, alt m) arrays for (n, 3) ECEF points: the scalar
    conversion's rules, with BOWRING_STEPS latitude evaluations per point."""
    x, y, z = np.asarray(xyz, dtype=float).reshape(-1, 3).T
    if np.any(x * x + y * y + z * z < 1.0):
        raise ValueError("point within 1 m of Earth's center")
    f, e2, r = WGS84.f, WGS84.e2, WGS84.R
    s = np.hypot(x, y)
    beta = np.arctan2(z, (1.0 - f) * s)
    for _ in range(BOWRING_STEPS):
        phi = np.arctan2(
            z + e2 * (1.0 - f) / (1.0 - e2) * r * np.sin(beta) ** 3,
            s - e2 * r * np.cos(beta) ** 3,
        )
        beta = np.arctan2((1.0 - f) * np.sin(phi), np.cos(phi))
    sin_phi = np.sin(phi)
    n = r / np.sqrt(1.0 - e2 * sin_phi ** 2)
    alt = s * np.cos(phi) + (z + e2 * n * sin_phi) * sin_phi - n
    polar = s < POLAR_S_EPS
    lat = np.where(polar, np.copysign(90.0, z), np.degrees(phi))
    lon = np.where(polar, 0.0, np.degrees(np.arctan2(y, x)))
    alt = np.where(polar, np.abs(z) - r * (1.0 - f), alt)
    return lat, lon, alt


def geodetic_to_ecef(g: GeodeticPos) -> EcefPos:
    """Closed-form forward transform (oracle for the iterative inverse)."""
    phi = math.radians(g.lat)
    lam = math.radians(g.lon)
    n = WGS84.R / math.sqrt(1.0 - WGS84.e2 * math.sin(phi) ** 2)
    cp = math.cos(phi)
    return EcefPos(
        X=(n + g.alt) * cp * math.cos(lam),
        Y=(n + g.alt) * cp * math.sin(lam),
        Z=(n * (1.0 - WGS84.e2) + g.alt) * math.sin(phi),
    )


def enu_to_ecef_transform(origin: GeodeticPos) -> RigidTransform:
    """Rigid transform from a local east-north-up frame at `origin` to ECEF."""
    phi = math.radians(origin.lat)
    lam = math.radians(origin.lon)
    sp, cp = math.sin(phi), math.cos(phi)
    sl, cl = math.sin(lam), math.cos(lam)
    east = np.array([-sl, cl, 0.0])
    north = np.array([-sp * cl, -sp * sl, cp])
    up = np.array([cp * cl, cp * sl, sp])
    r = np.column_stack([east, north, up])
    t = geodetic_to_ecef(origin).as_array()
    return RigidTransform.from_rotation_translation(r, t)


def estimate_ecef_transform(gcps: list[GcpCorrespondence]) -> TransformFit:
    """Least-squares rigid registration of L-Coor points onto ECEF points.

    Centroid alignment plus SVD of the cross-covariance, with the reflection
    corrected to determinant +1. No scale term.
    """
    if len(gcps) < 3:
        raise DegenerateGcpError(f"need >= 3 correspondences, have {len(gcps)}")
    a = np.array([g.lidar_point for g in gcps], dtype=float)
    b = np.array([g.ecef_point.as_array() for g in gcps], dtype=float)
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    sv = np.linalg.svd(ac, compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1.0):
        raise DegenerateGcpError("correspondences are collinear")
    h = ac.T @ bc
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = b.mean(axis=0) - r @ a.mean(axis=0)
    transform = RigidTransform.from_rotation_translation(r, t)
    residual = transform.apply_points(a) - b
    rms = float(np.sqrt(np.mean(np.sum(residual * residual, axis=1))))
    return TransformFit(transform=transform, rms=rms)


def load_gcp_file(path) -> list[GcpCorrespondence]:
    """Read correspondences: six decimal fields per line, '#' comments."""
    gcps = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.split()
            if len(fields) != 6:
                raise ValueError(
                    f"{path}:{lineno}: expected 6 fields (lidar x y z, ecef X Y Z), "
                    f"got {len(fields)}"
                )
            vals = [float(v) for v in fields]
            gcps.append(
                GcpCorrespondence(
                    lidar_point=np.array(vals[:3]),
                    ecef_point=EcefPos(*vals[3:]),
                )
            )
    return gcps


def georeference_tracks(
    tracks: np.ndarray,
    h_to_ecef: RigidTransform,
    t: float = 0.0,
) -> np.ndarray:
    """Package tracked H-Coor DETECTION rows as `GEO_RECORD` rows: RECORD's
    fields, but the tracker's i8 ids, which `encode_frame` casts and checks.

    `h_to_ecef` maps H-Coor to ECEF and is built once per calibration.
    Heading is re-expressed clockwise from north: 90 deg minus the box
    heading plus the transform's z-yaw, wrapped into [0, 360).
    """
    box = np.asarray(tracks)["box"]
    out = np.empty(len(tracks), GEO_RECORD)
    out["t"] = t
    out["id"] = tracks["id"]
    ecef = h_to_ecef.apply_points(np.column_stack([box["x"], box["y"], box["z"]]))
    out["lat"], out["lon"], out["alt"] = ecef_to_geodetic_points(ecef)
    for name in ("w", "l", "h"):
        out[name] = box[name]
    out["theta"] = quantize_heading(90.0 - np.degrees(box["theta"] + h_to_ecef.yaw))
    out["cls"] = tracks["cls"]
    return out
