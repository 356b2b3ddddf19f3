"""Oriented 3D detection: pluggable backends plus box-encoding/loss math.

Two detector backends share one output type, an array of `DETECTION` rows:
a ground-truth oracle with configurable corruption, and a voxel-clustering
baseline. Both work in whole-frame array passes: the cluster detector builds
its voxel graph from one sort of the voxel keys and fits every cluster's box
in the same segment reductions. The class is decided here, once: the oracle
keeps each true box's class, and cluster and clutter boxes take `size_class`.
It travels on the wire to the onboard side, which derives none. The residual
encoding and the localization / classification / direction losses are
standalone functions usable without either backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CLASSES, ObjectClass, OrientedBox3D, connected_components, wrap_angles,
)
from .preproc import GeofenceBounds
from .scene import AGENT, PEDESTRIAN_DIM_RANGE, VEHICLE_DIM_RANGE, ScenarioConfig

# A cluster or clutter box under both limits is a pedestrian, else a vehicle.
PEDESTRIAN_MAX_FOOTPRINT = 1.2  # m, longer side
PEDESTRIAN_MAX_HEIGHT = 2.2  # m
MIN_CLUSTER_EXTENT = 0.05  # m, keeps degenerate clusters within box invariants
# Oracle clutter (w, l, h) ranges: the hull of every simulated class's ranges.
CLUTTER_DIM_RANGE = tuple((min(v[0], p[0]), max(v[1], p[1]))
                          for v, p in zip(VEHICLE_DIM_RANGE, PEDESTRIAN_DIM_RANGE))

# One detected object per row: the box as `OrientedBox3D` names it, the class
# as an index into CLASSES, the score, and the track id (-1 until tracked). A
# row reads its fields as attributes (`d.box.x`, `d.id`); an array, by name.
BOX = np.dtype([(name, "<f8") for name in ("x", "y", "z", "w", "l", "h", "theta")])
DETECTION = np.dtype((np.record, [("box", BOX), ("cls", "u1"), ("score", "<f8"), ("id", "<i8")]))


def size_class(box) -> np.ndarray:
    """Class codes, indices into CLASSES, for BOX rows: pedestrian iff the
    footprint stays under PEDESTRIAN_MAX_FOOTPRINT and the height under
    PEDESTRIAN_MAX_HEIGHT, vehicle otherwise."""
    pedestrian = ((np.maximum(box["w"], box["l"]) < PEDESTRIAN_MAX_FOOTPRINT)
                  & (box["h"] < PEDESTRIAN_MAX_HEIGHT))
    return np.where(pedestrian, CLASSES.index(ObjectClass.PEDESTRIAN),
                    CLASSES.index(ObjectClass.VEHICLE))


@dataclass
class Detection:
    """One scored box as an object; the pipeline carries `DETECTION` rows."""

    box: OrientedBox3D
    cls: ObjectClass
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass
class DetectorNoise:
    """Corruption model for the oracle backend."""

    sigma_pos: float = 0.0  # m, per axis
    sigma_dim: float = 0.0  # m, per axis
    sigma_theta: float = 0.0  # rad
    p_miss: float = 0.0
    fp_rate: float = 0.0  # expected clutter boxes per frame

    def __post_init__(self):
        if not 0.0 <= self.p_miss <= 1.0:
            raise ValueError(f"p_miss must be in [0, 1], got {self.p_miss}")
        for name in ("sigma_pos", "sigma_dim", "sigma_theta", "fp_rate"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass
class ClusterParams:
    voxel: float = 0.3  # m
    min_points: int = 10
    ground_z: float = -ScenarioConfig.mount_height  # m, ground height in H-Coor

    def __post_init__(self):
        if not self.voxel > 0:  # NaN fails too
            raise ValueError(f"voxel must be positive, got {self.voxel}")
        if not self.min_points >= 1:
            raise ValueError(f"min_points must be >= 1, got {self.min_points}")
        if not math.isfinite(self.ground_z):
            raise ValueError(f"ground_z must be finite, got {self.ground_z}")


@dataclass
class BoxResiduals:
    """Normalized offsets / log-ratios of a target box against an anchor."""

    dx: float
    dy: float
    dz: float
    dw: float
    dl: float
    dh: float
    dtheta: float

    def __post_init__(self):
        if not -1.0 <= self.dtheta <= 1.0:
            raise ValueError(f"dtheta {self.dtheta} outside [-1, 1]")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.dx, self.dy, self.dz, self.dw, self.dl, self.dh, self.dtheta)


@dataclass
class LossWeights:
    beta_loc: float = 2.0
    beta_cls: float = 1.0
    beta_dir: float = 0.2
    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        for name in ("beta_loc", "beta_cls", "beta_dir", "alpha", "gamma"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


def truth_boxes(agents) -> np.ndarray:
    """The boxes of `AGENT` rows as DETECTION rows, in order: the centre,
    dims and heading, the class, score 1 and id -1, copied column by column."""
    agents = np.asarray(agents, AGENT)
    out = np.empty(len(agents), DETECTION)
    box = out["box"]
    for name in ("x", "y", "z", "w", "l", "h"):
        box[name] = agents[name]
    box["theta"] = agents["heading"]
    out["cls"] = agents["cls"]
    out["score"] = 1.0
    out["id"] = -1
    return out


def _clutter(rng: np.random.Generator, bounds: GeofenceBounds, n: int) -> np.ndarray:
    """n clutter boxes inside `bounds`: the bottom is drawn, not the centre,
    so each box lies between the geofence floor and ceiling."""
    out = np.empty(n, DETECTION)
    box = out["box"]
    for name, (lo, hi) in zip("wlh", CLUTTER_DIM_RANGE):
        box[name] = rng.uniform(lo, hi, n)
    box["h"] = np.minimum(box["h"], bounds.z_max - bounds.z_min)
    box["x"] = rng.uniform(bounds.x_min, bounds.x_max, n)
    box["y"] = rng.uniform(bounds.y_min, bounds.y_max, n)
    box["z"] = rng.uniform(bounds.z_min, bounds.z_max - box["h"]) + box["h"] / 2.0
    box["theta"] = wrap_angles(rng.uniform(-math.pi, math.pi, n))
    out["cls"] = size_class(box)
    out["score"] = rng.uniform(0.0, 1.0, n)
    out["id"] = -1
    return out


def detect_oracle(
    agents,
    noise: DetectorNoise,
    seed,
    bounds: GeofenceBounds | None = None,
) -> np.ndarray:
    """Ground-truth detector: box `AGENT` rows, as `step_scenario` and the
    ground-truth reader give them, with `truth_boxes`; then drop, perturb,
    and add Poisson clutter. Boxes come out in the frame of `agents`,
    survivors first and in order; clutter lies inside `bounds`, which must
    be given in that same frame. The pipeline passes agents moved into
    H-Coor and the geofence, whose bounds hold in H-Coor (level, sensor at
    the origin, ground at -mount_height). Deterministic under `seed`. With
    all-zero noise the survivors equal the truth boxes exactly.
    """
    rng = np.random.default_rng(seed)
    if bounds is None:
        bounds = GeofenceBounds()
    truth = truth_boxes(agents)
    dets = truth[rng.random(len(truth)) >= noise.p_miss] if noise.p_miss > 0 else truth
    box = dets["box"]
    if noise.sigma_pos > 0:
        for name, offset in zip("xyz", rng.normal(0.0, noise.sigma_pos, (len(dets), 3)).T):
            box[name] += offset
    if noise.sigma_dim > 0:
        for name, offset in zip("wlh", rng.normal(0.0, noise.sigma_dim, (len(dets), 3)).T):
            box[name] = np.maximum(box[name] + offset, MIN_CLUSTER_EXTENT)
    if noise.sigma_theta > 0:
        box["theta"] = wrap_angles(box["theta"] + rng.normal(0.0, noise.sigma_theta, len(dets)))
    clutter = _clutter(rng, bounds, int(rng.poisson(noise.fp_rate)))
    return np.concatenate([dets, clutter])


# Key offset of the dx = -1 voxel in each (dy, dz) row above a voxel's own:
# (+1, 0), (-1, +1), (0, +1) and (+1, +1). With the +x step these are the 13
# neighbours whose key is larger, half of the undirected 26-neighbourhood.
_ROW_OFFSETS = np.array([(dy << 21) + (dz << 42) - 1
                         for dy, dz in ((1, 0), (-1, 1), (0, 1), (1, 1))])


def _voxel_components(vox: np.ndarray) -> np.ndarray:
    """26-connected component label per input voxel coordinate row.

    Each voxel is keyed x + y<<21 + z<<42. With every coordinate below 2^20
    a step of -1 or +1 on an axis never carries into the next field, so the
    three x-neighbours of a (y, z) row are consecutive keys, and a key built
    with a coordinate of -1 or 2^20 matches no voxel. One sort gives the
    nodes, the sorted unique keys. A node's 13 neighbours with a larger key
    are the +x voxel, which can only be the next node, and three consecutive
    keys in each of the rows in `_ROW_OFFSETS`, all found from one sorted
    search per row. Labels are numbered by each component's smallest key."""
    # Column by column: numpy reduces a strided column far faster than axis 0.
    x, y, z = (c - c.min() for c in vox.astype(np.int64, copy=False).T)
    if max(x.max(), y.max(), z.max()) >= (1 << 20):
        raise ValueError(
            "voxel grid spans over 2^20 cells per axis; geofence the frame "
            "or use a larger voxel size"
        )
    keys = x + (y << 21) + (z << 42)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    first = np.empty(len(keys), bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    uniq = sorted_keys[first]
    inverse = np.empty(len(keys), np.intp)
    inverse[order] = np.cumsum(first) - 1
    n = len(uniq)
    step = np.flatnonzero(uniq[1:] == uniq[:-1] + 1)
    rows, cols = [step], [step + 1]
    padded = np.append(uniq, -1)  # a search may return n; no wanted key is negative
    for offset in _ROW_OFFSETS:
        want = uniq + offset
        pos = np.searchsorted(uniq, want)
        for _ in range(3):  # dx = -1, 0, +1: a hit moves on to the next key
            hit = padded[pos] == want
            node = np.flatnonzero(hit)
            rows.append(node)
            cols.append(pos[node])
            pos += hit
            want += 1
    return connected_components(n, np.concatenate(rows), np.concatenate(cols))[inverse]


def detect_cluster(frame_h, params: ClusterParams) -> np.ndarray:
    """Voxel connected-component detector over a leveled (H-Coor) frame.

    Points more than 0.2 m above `ground_z` are labelled by 26-connected
    voxel components; each component of at least `min_points` points becomes
    one box. Every box is fitted in the same array passes: a stable sort by
    label puts each kept component's points in one contiguous segment, in
    input order, and `reduceat` over the segments gives the centroids, the
    plan-view covariances and the extents along the covariance's major axis
    (theta) and across it, each at least MIN_CLUSTER_EXTENT. Rows come in
    label order, score min(1, points / 100), class by `size_class`, id -1."""
    xyz = frame_h.xyz
    pts = xyz[xyz[:, 2] > params.ground_z + 0.2]
    if len(pts) == 0:
        return np.empty(0, DETECTION)
    labels = _voxel_components(np.floor(pts / params.voxel).astype(np.int64))
    counts = np.bincount(labels)
    sizes = counts[counts >= params.min_points]
    # reduceat needs non-empty segments: only kept points are sorted.
    member_idx = np.flatnonzero(counts[labels] >= params.min_points)
    member = pts[member_idx[np.argsort(labels[member_idx], kind="stable")]]
    starts = np.cumsum(sizes) - sizes
    centroid = np.add.reduceat(member, starts) / sizes[:, None]
    dx, dy = (member[:, :2] - np.repeat(centroid[:, :2], sizes, axis=0)).T
    sxx, sxy, syy = (np.add.reduceat(np.column_stack([dx * dx, dx * dy, dy * dy]), starts)
                     / sizes[:, None]).T
    evals, evecs = np.linalg.eigh(np.stack([sxx, sxy, sxy, syy], axis=1).reshape(-1, 2, 2))
    major = evecs[np.arange(len(sizes)), :, np.argmax(evals, axis=1)]
    mx, my = np.repeat(major, sizes, axis=0).T
    # Along the major axis, across it, and up: each one's span is an extent.
    proj = np.column_stack([dx * mx + dy * my, dy * mx - dx * my, member[:, 2]])
    extent = np.maximum(np.maximum.reduceat(proj, starts) - np.minimum.reduceat(proj, starts),
                        MIN_CLUSTER_EXTENT)
    dets = np.empty(len(sizes), DETECTION)
    box = dets["box"]
    box["x"], box["y"], box["z"] = centroid.T
    box["l"], box["w"], box["h"] = extent.T
    box["theta"] = wrap_angles(np.arctan2(major[:, 1], major[:, 0]))
    dets["cls"] = size_class(box)
    dets["score"] = np.minimum(1.0, sizes / 100.0)
    dets["id"] = -1
    return dets


# ---------------------------------------------------------------------------
# Residual encoding and losses.
# ---------------------------------------------------------------------------

def encode_box_residuals(gt: OrientedBox3D, anchor: OrientedBox3D) -> BoxResiduals:
    """Planar offsets over the anchor footprint diagonal, log dim ratios,
    and the sine of the heading difference."""
    if not (gt.w > 0 and gt.l > 0 and gt.h > 0):
        raise ValueError("ground-truth dims must be positive")
    d_a = anchor.footprint_diagonal
    return BoxResiduals(
        dx=(gt.x - anchor.x) / d_a,
        dy=(gt.y - anchor.y) / d_a,
        dz=(gt.z - anchor.z) / anchor.h,
        dw=math.log(gt.w / anchor.w),
        dl=math.log(gt.l / anchor.l),
        dh=math.log(gt.h / anchor.h),
        dtheta=math.sin(gt.theta - anchor.theta),
    )


def decode_box_residuals(
    r: BoxResiduals, anchor: OrientedBox3D, dir_flipped: bool = False
) -> OrientedBox3D:
    """Invert the residual encoding; adds pi when the direction bit is set."""
    if abs(r.dtheta) > 1.0:
        raise ValueError(f"dtheta {r.dtheta} outside [-1, 1]")
    d_a = anchor.footprint_diagonal
    theta = anchor.theta + math.asin(r.dtheta)
    if dir_flipped:
        theta += math.pi
    return OrientedBox3D(
        x=anchor.x + r.dx * d_a,
        y=anchor.y + r.dy * d_a,
        z=anchor.z + r.dz * anchor.h,
        w=anchor.w * math.exp(r.dw),
        l=anchor.l * math.exp(r.dl),
        h=anchor.h * math.exp(r.dh),
        theta=theta,
    )


def direction_flipped(gt_theta: float, anchor_theta: float) -> bool:
    """Direction bit: set when the headings disagree by more than a quarter turn."""
    return math.cos(gt_theta - anchor_theta) < 0.0


def smooth_l1(x: float) -> float:
    ax = abs(x)
    return 0.5 * x * x if ax < 1.0 else ax - 0.5


def localization_loss(r: BoxResiduals, target: BoxResiduals) -> float:
    """Sum of smooth-L1 over the seven residual-component differences."""
    return sum(smooth_l1(a - b) for a, b in zip(r.as_tuple(), target.as_tuple()))


def focal_loss(p: float, weights: LossWeights = LossWeights()) -> float:
    """-alpha * (1 - p)^gamma * log(p) for a class probability p in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p {p} outside (0, 1]")
    return -weights.alpha * (1.0 - p) ** weights.gamma * math.log(p)


def direction_loss(logit_pos: float, logit_neg: float, flipped: bool) -> float:
    """Two-class softmax cross-entropy against the flip label."""
    m = max(logit_pos, logit_neg)
    lse = m + math.log(math.exp(logit_pos - m) + math.exp(logit_neg - m))
    return lse - (logit_neg if flipped else logit_pos)


def total_loss(
    loc: float, cls: float, dir: float, n_pos: int, weights: LossWeights = LossWeights()
) -> float:
    """(beta_loc*loc + beta_cls*cls + beta_dir*dir) / n_pos."""
    if n_pos < 1:
        raise ValueError("n_pos must be >= 1")
    return (weights.beta_loc * loc + weights.beta_cls * cls + weights.beta_dir * dir) / n_pos
