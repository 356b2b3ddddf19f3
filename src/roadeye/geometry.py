"""Shared geometric primitives: oriented boxes, rigid transforms, angles."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerance for the orthonormality / determinant checks on rigid transforms.
RIGID_TOL = 1e-9
_BOTTOM_ROW = np.array([0.0, 0.0, 0.0, 1.0])
_IDENTITY3 = np.eye(3)


class ObjectClass(enum.Enum):
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"


# The integer code of a class, in record arrays and files, is its index here.
CLASSES = (ObjectClass.VEHICLE, ObjectClass.PEDESTRIAN)


def normalize_angle(theta: float) -> float:
    """Wrap an angle in radians into (-pi, pi]."""
    r = math.remainder(theta, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """normalize_angle over an array, bit-equal to it on every finite input:
    `fmod` is exact, and so is each 2 pi correction (Sterbenz's lemma)."""
    r = np.fmod(theta, TWO_PI)
    r = np.where(r > math.pi, r - TWO_PI, r)
    return np.where(r <= -math.pi, r + TWO_PI, r)


def plan_pairs(
    a_xy: np.ndarray, b_xy: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair (i, j) whose plan-view `np.hypot` distance d between a[i]
    and b[j] (first two columns) is at most `reach`, as arrays (i, j, d) in
    ascending i. Candidates come from an x-window search over b sorted by x."""
    order = np.argsort(b_xy[:, 0])
    b_x = b_xy[order, 0]
    pad = 1.001 * reach + 1e-6  # the window ends may round; the exact test follows
    lo = np.searchsorted(b_x, a_xy[:, 0] - pad)
    counts = np.searchsorted(b_x, a_xy[:, 0] + pad, "right") - lo
    i = np.repeat(np.arange(len(a_xy)), counts)
    j = order[np.arange(len(i)) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    d = np.hypot(a_xy[i, 0] - b_xy[j, 0], a_xy[i, 1] - b_xy[j, 1])
    near = d <= reach
    return i[near], j[near], d[near]


def connected_components(n: int, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Component label per node of the undirected graph on nodes 0..n-1 with
    edges (r[k], c[k]). Labels count up from 0 in the order of each
    component's smallest node, as `scipy.sparse.csgraph` numbers them.

    Union-find in array passes: each edge whose ends have different roots
    hooks the larger root onto the smaller, then pointer jumping flattens
    every tree to depth one. Roots only ever point lower, so a component's
    final root is its smallest node. Every node starts as its own root, so
    the first round hooks the edges' own ends."""
    parent = np.arange(n)
    pr, pc = r, c
    while True:
        np.minimum.at(parent, np.maximum(pr, pc), np.minimum(pr, pc))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        pr, pc = parent[r], parent[c]
        split = np.flatnonzero(pr != pc)
        if not len(split):
            break
        r, c, pr, pc = r[split], c[split], pr[split], pc[split]
    is_root = parent == np.arange(n)
    return (np.cumsum(is_root) - 1)[parent]


@dataclass
class OrientedBox3D:
    """Axis-up oriented box: center (x, y, z), extents (w, l, h), yaw theta.

    The length axis l points along the heading theta, w is lateral, h vertical.
    theta is normalized into (-pi, pi] on construction.
    """

    x: float
    y: float
    z: float
    w: float
    l: float
    h: float
    theta: float

    def __post_init__(self):
        if not (self.w > 0 and self.l > 0 and self.h > 0):
            raise ValueError(f"box dims must be positive, got w={self.w} l={self.l} h={self.h}")
        self.theta = normalize_angle(self.theta)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def footprint_diagonal(self) -> float:
        return math.hypot(self.w, self.l)


class NonRigidTransformError(ValueError):
    """Raised when a 4x4 matrix fails the rigid-transform contract."""


@dataclass
class RigidTransform:
    """4x4 homogeneous rigid transform (orthonormal rotation, det +1)."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.validate()

    def validate(self):
        m = self.matrix
        if m.shape != (4, 4):
            raise NonRigidTransformError(f"expected 4x4 matrix, got shape {m.shape}")
        # `<=` is false for NaN, so a NaN in the bottom row fails its check.
        if not (np.abs(m[3] - _BOTTOM_ROW) <= RIGID_TOL).all():
            raise NonRigidTransformError("bottom row must be [0, 0, 0, 1]")
        finite = np.isfinite(m[:3]).all()
        r = m[:3, :3]
        # A non-finite rotation entry would make r.T @ r warn; it is refused first.
        if not (finite or np.isfinite(r).all()) or not (
            np.abs(r.T @ r - _IDENTITY3) <= RIGID_TOL
        ).all():
            raise NonRigidTransformError("rotation block is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > RIGID_TOL:
            raise NonRigidTransformError("rotation block determinant is not +1 within 1e-9")
        if not finite:
            raise NonRigidTransformError("translation must be finite")

    @classmethod
    def from_rotation_translation(cls, rotation: np.ndarray, translation) -> "RigidTransform":
        m = np.eye(4)
        m[:3, :3] = np.asarray(rotation, dtype=float)
        m[:3, 3] = np.asarray(translation, dtype=float)
        return cls(m)

    @classmethod
    def from_translation(cls, translation) -> "RigidTransform":
        return cls.from_rotation_translation(np.eye(3), translation)

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:3, 3]

    @property
    def yaw(self) -> float:
        """Rotation about +z extracted as atan2(R10, R00)."""
        return math.atan2(self.matrix[1, 0], self.matrix[0, 0])

    def inverse(self) -> "RigidTransform":
        r = self.rotation.T
        return RigidTransform.from_rotation_translation(r, -r @ self.translation)

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        """self @ other: apply `other` first, then self."""
        return RigidTransform(self.matrix @ other.matrix)

    def apply_point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.rotation @ p + self.translation

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        """Transform an (N, 3) array of points. The result is column-major:
        its transpose, one row per axis, is contiguous."""
        out = self.rotation @ np.asarray(pts, dtype=float).T
        out += self.translation[:, None]
        return out.T


def rotation_about_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_aligning(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal rotation taking unit vector a onto unit vector b (Rodrigues)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    v = np.cross(a, b)
    s = np.linalg.norm(v)
    c = float(np.dot(a, b))
    if s < 1e-12:
        if c > 0.0:
            return np.eye(3)
        # Antiparallel: rotate by pi about any axis orthogonal to a.
        axis = np.cross(a, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-6:
            axis = np.cross(a, [0.0, 1.0, 0.0])
        axis = axis / np.linalg.norm(axis)
        k = _skew(axis)
        return np.eye(3) + 2.0 * (k @ k)
    k = _skew(v)
    return np.eye(3) + k + k @ k * ((1.0 - c) / (s * s))


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )

