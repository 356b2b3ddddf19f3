"""3D multi-object tracking: 2D motion association with ID lift to 3D.

`DETECTION` rows are flattened to plan-view boxes, associated frame to frame
by a constant-velocity Kalman filter plus Hungarian matching on center
distance, and the resulting IDs are written back into the rows' `id` column
through a Euclidean gate. Live tracks are held as stacked arrays, one row per
track in creation order, so each frame is a handful of batched array
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import plan_distances

GATE_COST = 1.0e9  # cost assigned to pairs outside the association gate
MIN_BOX2D_EXTENT = 0.05


class Box2D(NamedTuple):
    x: float
    y: float
    w: float
    l: float


@dataclass(frozen=True)
class Track2D:
    """Read-only snapshot of one live track."""

    id: int
    mean: np.ndarray  # (6,) x, y, w, l, vx, vy
    cov: np.ndarray  # (6, 6)
    hits: int
    misses: int
    confirmed: bool

    @property
    def box(self) -> Box2D:
        x, y, w, l = self.mean[:4].tolist()
        return Box2D(x, y, max(w, MIN_BOX2D_EXTENT), max(l, MIN_BOX2D_EXTENT))


@dataclass
class TrackerConfig:
    d_o: float = 2.0  # m, lift gate
    gate_assoc: float = 3.0  # m, association gate
    n_init: int = 3
    max_age: int = 5
    process_noise: float = 0.1
    measurement_noise: float = 0.1

    def __post_init__(self):
        if self.d_o <= 0:
            raise ValueError("d_o must be positive")
        if self.n_init < 1 or self.max_age < 1:
            raise ValueError("n_init and max_age must be >= 1")


# Constant-velocity model over (x, y, w, l, vx, vy); dt is one frame.
_F = np.eye(6)
_F[0, 4] = 1.0
_F[1, 5] = 1.0
_H = np.zeros((4, 6))
_H[:4, :4] = np.eye(4)


def _initial_covariance(cfg: TrackerConfig) -> np.ndarray:
    r = cfg.measurement_noise
    return np.diag([r * r, r * r, r * r, r * r, 100.0 * r * r, 100.0 * r * r])


def _process_noise(cfg: TrackerConfig) -> np.ndarray:
    q = cfg.process_noise
    # Dims are modeled static: tiny process noise only.
    return np.diag([0.25 * q * q, 0.25 * q * q, 0.01 * q * q, 0.01 * q * q, q * q, q * q])


class Tracker2D:
    """Single-owner association state; one instance per frame stream.

    Row i of `mean`, `cov`, `ids`, `hits`, `misses` and `confirmed` is the
    i-th live track in creation order.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.mean = np.empty((0, 6))
        self.cov = np.empty((0, 6, 6))
        self.ids = np.empty(0, dtype=np.int64)
        self.hits = np.empty(0, dtype=np.int64)
        self.misses = np.empty(0, dtype=np.int64)
        self.confirmed = np.empty(0, dtype=bool)
        self.next_id = 0
        self.last_t: float | None = None
        self.last_assignment_cost = 0.0  # summed matched center distance

    @property
    def tracks(self) -> list[Track2D]:
        """Snapshots of the live tracks, in creation order."""
        return [
            Track2D(int(i), m.copy(), c.copy(), int(h), int(s), bool(k))
            for i, m, c, h, s, k in zip(
                self.ids, self.mean, self.cov, self.hits, self.misses, self.confirmed
            )
        ]

    def follows(self, t: float) -> bool:
        """Whether a frame at time `t` may be tracked next: it must be later
        than the last tracked frame."""
        return self.last_t is None or t > self.last_t

    def associate(self, boxes: np.ndarray) -> None:
        """Predict, match `boxes` (n, 4: x, y, w, l), update, and manage the
        track lifecycle."""
        from scipy.optimize import linear_sum_assignment

        cfg = self.config
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        self.mean = self.mean @ _F.T
        self.cov = _F @ self.cov @ _F.T + _process_noise(cfg)

        dist = plan_distances(self.mean[:, :2], boxes[:, :2], cfg.gate_assoc)
        rows, cols = linear_sum_assignment(np.where(dist <= cfg.gate_assoc, dist, GATE_COST))
        in_gate = dist[rows, cols] <= cfg.gate_assoc
        rows, cols = rows[in_gate], cols[in_gate]
        self.last_assignment_cost = float(dist[rows, cols].sum())

        # Batched Kalman update; H selects the first four state components.
        r = cfg.measurement_noise
        cov = self.cov[rows]
        k = cov[:, :, :4] @ np.linalg.inv(cov[:, :4, :4] + np.eye(4) * (r * r))
        innovation = boxes[cols] - self.mean[rows, :4]
        self.mean[rows] += (k @ innovation[:, :, None])[:, :, 0]
        cov = (np.eye(6) - k @ _H) @ cov
        self.cov[rows] = 0.5 * (cov + cov.transpose(0, 2, 1))

        matched = np.zeros(len(self.ids), dtype=bool)
        matched[rows] = True
        self.hits = np.where(matched, self.hits + 1, 0)
        self.misses = np.where(matched, 0, self.misses + 1)
        self.confirmed |= self.hits >= cfg.n_init
        live = self.misses < cfg.max_age

        born = np.ones(len(boxes), dtype=bool)
        born[cols] = False
        n_new = int(born.sum())
        new_ids = np.arange(self.next_id, self.next_id + n_new)
        self.next_id += n_new
        self.mean = np.concatenate([self.mean[live], np.pad(boxes[born], ((0, 0), (0, 2)))])
        self.cov = np.concatenate(
            [self.cov[live], np.broadcast_to(_initial_covariance(cfg), (n_new, 6, 6))]
        )
        self.ids = np.concatenate([self.ids[live], new_ids])
        self.hits = np.concatenate([self.hits[live], np.ones(n_new, dtype=np.int64)])
        self.misses = np.concatenate([self.misses[live], np.zeros(n_new, dtype=np.int64)])
        self.confirmed = np.concatenate([self.confirmed[live], np.full(n_new, cfg.n_init <= 1)])


def project_to_2d(dets: np.ndarray) -> np.ndarray:
    """(n, 4) plan-view boxes x, y, w, l of DETECTION rows; drops z, h,
    theta and class."""
    box = np.asarray(dets)["box"]  # plain-array field access, also for a recarray
    return np.column_stack([box["x"], box["y"], box["w"], box["l"]])


def lift_to_3d(
    dets: np.ndarray,
    track_ids: np.ndarray,
    track_xy: np.ndarray,
    d_o: float,
) -> np.ndarray:
    """Track id per DETECTION row: the first track, in row order, strictly
    inside the plan-distance gate d_o. Unmatched rows get -1."""
    if d_o <= 0:
        raise ValueError("d_o must be positive")
    track_ids = np.asarray(track_ids)
    track_xy = np.asarray(track_xy, dtype=float).reshape(-1, 2)
    dist = plan_distances(project_to_2d(dets), track_xy, d_o)
    inside = dist < d_o
    hit = inside.any(axis=1)
    chosen = np.full(len(dets), -1, dtype=np.int64)
    if hit.any():
        chosen[hit] = track_ids[np.argmax(inside[hit], axis=1)]
    return chosen


def track_frame(tracker: Tracker2D, dets: np.ndarray, t: float) -> np.ndarray:
    """One tracking step at frame time `t`: project to 2D, associate, lift
    IDs back to 3D; returns a copy of the DETECTION rows with `id` filled in."""
    if not tracker.follows(t):
        raise ValueError(f"out-of-order timestamp {t} after {tracker.last_t}")
    tracker.last_t = t
    tracker.associate(project_to_2d(dets))
    out = dets.copy()
    cfg = tracker.config
    out["id"] = lift_to_3d(dets, tracker.ids, tracker.mean[:, :2], cfg.d_o)
    return out
