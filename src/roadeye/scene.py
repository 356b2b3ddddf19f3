"""Synthetic intersection traffic and point-cloud frame sampling.

Agents follow polyline routes at constant speed inside a 102.4 m square
surveillance area. Frames are sampled from agent box surfaces plus a flat
ground plane and expressed in the sensor (L-Coor) frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import ObjectClass, OrientedBox3D, RigidTransform, normalize_angle, rotation_about_z

AREA_HALF_EXTENT = 51.2  # m, half side of the surveillance square

# (w, l, h) closed ranges per class, meters.
VEHICLE_DIM_RANGE = ((1.5, 2.6), (3.5, 12.0), (1.3, 4.5))
PEDESTRIAN_DIM_RANGE = ((0.4, 0.9), (0.4, 0.9), (1.4, 2.0))

FRAME_MAGIC = b"CMMF"
GROUND_TRUTH_MAGIC = b"CMMG"


class FrameFormatError(ValueError):
    """Malformed frame or ground-truth file; message names the byte offset."""


def dim_range(cls: ObjectClass):
    return VEHICLE_DIM_RANGE if cls is ObjectClass.VEHICLE else PEDESTRIAN_DIM_RANGE


@dataclass
class AgentState:
    """Pose snapshot of one simulated traffic agent."""

    agent_id: int
    cls: ObjectClass
    center: np.ndarray  # (3,) world-frame meters
    dims: tuple[float, float, float]  # (w, l, h)
    heading: float  # radians, (-pi, pi]
    speed: float  # m/s

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        w, l, h = self.dims
        lo_hi = dim_range(self.cls)
        for name, v, (lo, hi) in zip("wlh", (w, l, h), lo_hi):
            if not (lo <= v <= hi):
                raise ValueError(
                    f"{self.cls.value} dim {name}={v} outside [{lo}, {hi}]"
                )
        self.heading = normalize_angle(self.heading)

    def as_box(self) -> OrientedBox3D:
        w, l, h = self.dims
        return OrientedBox3D(*self.center, w, l, h, self.heading)


@dataclass
class AgentSpec:
    """Route definition for one agent: class, waypoints, constant speed."""

    cls: ObjectClass
    route: np.ndarray  # (K, 2) waypoints, world xy
    speed: float
    dims: tuple[float, float, float] | None = None  # sampled per class if None

    def __post_init__(self):
        self.route = np.asarray(self.route, dtype=float).reshape(-1, 2)
        if len(self.route) < 1:
            raise ValueError("route needs at least one waypoint")
        if np.any(np.abs(self.route) > AREA_HALF_EXTENT):
            raise ValueError(f"route leaves the {2 * AREA_HALF_EXTENT} m square")
        if self.speed < 0:
            raise ValueError("speed must be nonnegative")


@dataclass
class ScenarioConfig:
    agents: list[AgentSpec] = field(default_factory=list)
    duration: float = 10.0
    tick: float = 0.1
    sensor_pose: RigidTransform | None = None  # world -> L-Coor; None = pure -z shift
    mount_height: float = 4.74
    points_per_agent: int = 400
    ground_point_density: float = 0.2  # points / m^2
    rng_seed: int = 0

    def __post_init__(self):
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.sensor_pose is None:
            self.sensor_pose = RigidTransform.from_translation([0.0, 0.0, -self.mount_height])

    def frame_times(self) -> np.ndarray:
        n = int(round(self.duration / self.tick))
        return np.arange(n) * self.tick


@dataclass
class PointCloudFrame:
    """Timestamped point set; columns x, y, z, reflectivity."""

    t: float
    points: np.ndarray  # (N, 4) float64, i in [0, 1]

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 4)

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class GroundTruthFrame:
    t: float
    agents: list[AgentState]


def _agent_dims(spec: AgentSpec, index: int, seed: int) -> tuple[float, float, float]:
    if spec.dims is not None:
        return spec.dims
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0xD1135, index])
    lo_hi = dim_range(spec.cls)
    return tuple(rng.uniform(lo, hi) for lo, hi in lo_hi)


def _walk_route(route: np.ndarray, distance: float) -> tuple[np.ndarray, float]:
    """Position and tangent heading after walking `distance` along a polyline.

    Clamps at the final waypoint; the heading there is the last segment's.
    """
    if len(route) == 1:
        return route[0].copy(), 0.0
    segs = np.diff(route, axis=0)
    lengths = np.hypot(segs[:, 0], segs[:, 1])
    d = min(distance, float(np.sum(lengths)))
    acc = 0.0
    heading = 0.0
    pos = route[-1].copy()
    for i, (seg, length) in enumerate(zip(segs, lengths)):
        if length <= 0:
            continue
        heading = float(np.arctan2(seg[1], seg[0]))
        if d <= acc + length:
            pos = route[i] + (d - acc) / length * seg
            return pos, heading
        acc += length
    return pos, heading


def step_scenario(config: ScenarioConfig, t: float) -> list[AgentState]:
    """Agent states at time t: arc-length advance speed*t along each route."""
    if not (0.0 <= t <= config.duration):
        raise ValueError(f"t={t} outside [0, {config.duration}]")
    states = []
    for i, spec in enumerate(config.agents):
        pos, heading = _walk_route(spec.route, spec.speed * t)
        dims = _agent_dims(spec, i, config.rng_seed)
        center = np.array([pos[0], pos[1], dims[2] / 2.0])
        states.append(AgentState(i, spec.cls, center, dims, heading, spec.speed))
    return states


def sample_box_surface(box: OrientedBox3D, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample n points on the box surface (exact, float64)."""
    w, l, h = box.w, box.l, box.h
    # Face pairs: normal +-length (area w*h), +-lateral (l*h), +-up (l*w).
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    local = np.empty((n, 3))
    for f in range(6):
        m = faces == f
        if not np.any(m):
            continue
        axis, sign = divmod(f, 2)
        s = 1.0 if sign == 0 else -1.0
        if axis == 0:  # +-x (length) faces, spanned by (y, z)
            local[m, 0] = s * l / 2.0
            local[m, 1] = u[m] * w
            local[m, 2] = v[m] * h
        elif axis == 1:  # +-y (lateral) faces, spanned by (x, z)
            local[m, 0] = u[m] * l
            local[m, 1] = s * w / 2.0
            local[m, 2] = v[m] * h
        else:  # +-z faces, spanned by (x, y)
            local[m, 0] = u[m] * l
            local[m, 1] = v[m] * w
            local[m, 2] = s * h / 2.0
    return local @ rotation_about_z(box.theta).T + box.center


def surface_distance(box: OrientedBox3D, pts: np.ndarray) -> np.ndarray:
    """Distance of points to the box surface (0 when exactly on it)."""
    local = (np.asarray(pts, dtype=float) - box.center) @ rotation_about_z(box.theta)
    half = np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    q = np.abs(local) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.abs(np.max(np.minimum(q, 0.0), axis=1))
    return np.where(np.all(q <= 0, axis=1), inside, outside)


def _agent_point_count(base: int, range_m: float, attenuate: bool = True) -> int:
    if not attenuate:
        return base
    return int(round(base / max(1.0, range_m * range_m / 100.0)))


def sample_point_cloud(
    agents: list[AgentState],
    config: ScenarioConfig,
    frame_index: int = 0,
    t: float = 0.0,
    attenuate: bool = True,
) -> PointCloudFrame:
    """Sample one frame in L-Coor: agent surfaces plus ground plane points.

    Per-agent counts fall off with 1/max(1, range^2/100). Output coordinates
    and reflectivities are quantized to the float32 grid so frame files
    round-trip bit-exactly.
    """
    rng = np.random.default_rng([config.rng_seed & 0xFFFFFFFF, 0x5CE4E, frame_index])
    sensor_world = config.sensor_pose.inverse().translation
    chunks = []
    for agent in agents:
        r = float(np.linalg.norm(agent.center - sensor_world))
        n = _agent_point_count(config.points_per_agent, r, attenuate)
        if n > 0:
            chunks.append(sample_box_surface(agent.as_box(), n, rng))
    n_ground = int(round(config.ground_point_density * (2 * AREA_HALF_EXTENT) ** 2))
    if n_ground > 0:
        g = np.zeros((n_ground, 3))
        g[:, 0] = rng.uniform(-AREA_HALF_EXTENT, AREA_HALF_EXTENT, n_ground)
        g[:, 1] = rng.uniform(-AREA_HALF_EXTENT, AREA_HALF_EXTENT, n_ground)
        chunks.append(g)
    if chunks:
        world = np.vstack(chunks)
        lcoor = config.sensor_pose.apply_points(world)
        refl = rng.uniform(0.0, 1.0, len(world))
        pts = np.column_stack([lcoor, refl]).astype(np.float32).astype(np.float64)
    else:
        pts = np.empty((0, 4))
    return PointCloudFrame(t=t, points=pts)


# ---------------------------------------------------------------------------
# Frame file I/O. Layout: magic "CMMF", u32 LE frame count; per frame
# f64 LE timestamp, u32 LE point count, then 4 x f32 LE per point.
# ---------------------------------------------------------------------------

def write_frames(frames: list[PointCloudFrame], path) -> None:
    for a, b in zip(frames, frames[1:]):
        if b.t < a.t:
            raise ValueError(f"frame timestamps decrease: {a.t} -> {b.t}")
    with open(path, "wb") as f:
        f.write(FRAME_MAGIC)
        f.write(struct.pack("<I", len(frames)))
        for fr in frames:
            f.write(struct.pack("<dI", fr.t, len(fr.points)))
            f.write(fr.points.astype("<f4").tobytes())


def _need(buf: bytes, offset: int, count: int, what: str) -> None:
    if offset + count > len(buf):
        raise FrameFormatError(
            f"truncated file: need {count} bytes for {what} at byte {offset}, "
            f"have {len(buf) - offset}"
        )


def read_frames(path) -> list[PointCloudFrame]:
    with open(path, "rb") as f:
        buf = f.read()
    off = 0
    _need(buf, off, 8, "header")
    if buf[:4] != FRAME_MAGIC:
        raise FrameFormatError(f"bad magic at byte 0: {buf[:4]!r}")
    (count,) = struct.unpack_from("<I", buf, 4)
    off = 8
    frames = []
    for k in range(count):
        _need(buf, off, 12, f"frame {k} header")
        t, n = struct.unpack_from("<dI", buf, off)
        off += 12
        _need(buf, off, 16 * n, f"frame {k} points")
        pts = np.frombuffer(buf, dtype="<f4", count=4 * n, offset=off).reshape(n, 4)
        off += 16 * n
        if frames and t < frames[-1].t:
            raise FrameFormatError(f"frame {k} timestamp decreases ({frames[-1].t} -> {t})")
        frames.append(PointCloudFrame(t=t, points=pts.astype(np.float64)))
    if off != len(buf):
        raise FrameFormatError(f"trailing bytes at byte {off}")
    return frames


# Ground-truth files use the same container conventions with box records:
# magic "CMMG", u32 LE frame count; per frame f64 LE timestamp, u32 LE agent
# count, then records of (i32 id, u8 class, 7 x f64 box, f64 speed) LE.

_GT_RECORD = struct.Struct("<iB7dd")


def write_ground_truth(frames: list[GroundTruthFrame], path) -> None:
    with open(path, "wb") as f:
        f.write(GROUND_TRUTH_MAGIC)
        f.write(struct.pack("<I", len(frames)))
        for fr in frames:
            f.write(struct.pack("<dI", fr.t, len(fr.agents)))
            for a in fr.agents:
                cls_code = 0 if a.cls is ObjectClass.VEHICLE else 1
                w, l, h = a.dims
                f.write(
                    _GT_RECORD.pack(
                        a.agent_id, cls_code, a.center[0], a.center[1], a.center[2],
                        w, l, h, a.heading, a.speed,
                    )
                )


def read_ground_truth(path) -> list[GroundTruthFrame]:
    with open(path, "rb") as f:
        buf = f.read()
    off = 0
    _need(buf, off, 8, "header")
    if buf[:4] != GROUND_TRUTH_MAGIC:
        raise FrameFormatError(f"bad magic at byte 0: {buf[:4]!r}")
    (count,) = struct.unpack_from("<I", buf, 4)
    off = 8
    frames = []
    for k in range(count):
        _need(buf, off, 12, f"frame {k} header")
        t, n = struct.unpack_from("<dI", buf, off)
        off += 12
        agents = []
        for j in range(n):
            _need(buf, off, _GT_RECORD.size, f"frame {k} agent {j}")
            aid, cls_code, x, y, z, w, l, h, heading, speed = _GT_RECORD.unpack_from(buf, off)
            off += _GT_RECORD.size
            cls = ObjectClass.VEHICLE if cls_code == 0 else ObjectClass.PEDESTRIAN
            agents.append(AgentState(aid, cls, np.array([x, y, z]), (w, l, h), heading, speed))
        frames.append(GroundTruthFrame(t=t, agents=agents))
    if off != len(buf):
        raise FrameFormatError(f"trailing bytes at byte {off}")
    return frames
