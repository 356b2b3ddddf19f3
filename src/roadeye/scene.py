"""Synthetic intersection traffic and point-cloud frame sampling.

Agents follow polyline routes at constant speed inside a 102.4 m square
surveillance area. Frames are sampled from agent box surfaces plus a flat
ground plane and expressed in the sensor (L-Coor) frame.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import CLASSES, ObjectClass, OrientedBox3D, RigidTransform, normalize_angle
from .geometry import rotation_about_z

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


def check_dims(cls: ObjectClass, dims) -> tuple:
    """`dims` as a tuple; ValueError unless it is three numbers (w, l, h)
    inside the class's closed ranges."""
    if not isinstance(dims, (tuple, list)) or len(dims) != 3:
        raise ValueError(f"dims must be 3 numbers (w, l, h), got {dims!r}")
    for name, v, (lo, hi) in zip("wlh", dims, dim_range(cls)):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"dim {name} must be a number, got {v!r}")
        if not (lo <= v <= hi):
            raise ValueError(f"{cls.value} dim {name}={v} outside [{lo}, {hi}]")
    return tuple(dims)


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
        self.dims = check_dims(self.cls, self.dims)
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
        if self.dims is not None:
            self.dims = check_dims(self.cls, self.dims)


@dataclass
class ScenarioConfig:
    """The simulated scene. World x points east, y north, and the origin lies
    on the ground below the sensor, which is pitched about y, then yawed."""

    agents: list[AgentSpec] = field(default_factory=list)
    duration: float = 10.0
    tick: float = 0.1
    mount_height: float = 4.74
    points_per_agent: int = 400
    ground_point_density: float = 0.2  # points / m^2
    sensor_pitch_deg: float = 0.0
    sensor_yaw_deg: float = 0.0
    rng_seed: int = 0
    sensor_pose: RigidTransform = field(init=False)  # world -> L-Coor

    def __post_init__(self):
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        pitch = math.radians(self.sensor_pitch_deg)
        cp, sp = math.cos(pitch), math.sin(pitch)
        pitch_rot = [[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]]
        rot = rotation_about_z(math.radians(self.sensor_yaw_deg)) @ pitch_rot
        self.sensor_pose = RigidTransform.from_rotation_translation(
            rot, rot @ [0.0, 0.0, -self.mount_height])

    def frame_times(self) -> np.ndarray:
        n = int(round(self.duration / self.tick))
        return np.arange(n) * self.tick


@dataclass
class PointCloudFrame:
    """Timestamped point set; columns x, y, z, reflectivity. `points` may be
    in either memory order: frames as read are row-major, leveled and fenced
    frames column-major."""

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


# Face 2k and 2k+1 are normal to local axis k (x length, y lateral, z up),
# on its + and - side; the other two axes, in order, take u and v.
_FACE_SPAN = np.array([[1, 2], [0, 2], [0, 1]])


def sample_box_surface(box: OrientedBox3D, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample n points on the box surface (exact, float64)."""
    dims = np.array([box.l, box.w, box.h])
    areas = np.repeat(dims[_FACE_SPAN].prod(axis=1), 2)
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    axis, side = np.divmod(faces, 2)
    (a, b), rows = _FACE_SPAN[axis].T, np.arange(n)
    local = np.empty((n, 3))
    local[rows, axis] = np.where(side == 0, 1.0, -1.0) * dims[axis] / 2.0
    local[rows, a] = u * dims[a]
    local[rows, b] = v * dims[b]
    return local @ rotation_about_z(box.theta).T + box.center


def _agent_point_count(base: int, range_m: float) -> int:
    return int(round(base / max(1.0, range_m * range_m / 100.0)))


def sample_point_cloud(
    agents: list[AgentState],
    config: ScenarioConfig,
    frame_index: int = 0,
    t: float = 0.0,
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
        n = _agent_point_count(config.points_per_agent, r)
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


def scenario_frames(config: ScenarioConfig):
    """Yield (agent states, sampled frame) at each of the scenario's frame times."""
    for k, t in enumerate(config.frame_times()):
        agents = step_scenario(config, float(t))
        yield agents, sample_point_cloud(agents, config, frame_index=k, t=float(t))


# ---------------------------------------------------------------------------
# Frame and ground-truth files share one container, all little-endian:
# 4-byte magic, u32 frame count; per frame f64 timestamp, u32 record count,
# then the records. Frame files ("CMMF") hold `_POINT` records, ground-truth
# files ("CMMG") hold packed `_GT_RECORD` records.
# ---------------------------------------------------------------------------

_FILE_HEADER = struct.Struct("<4sI")  # magic, frame count
_FRAME_HEADER = struct.Struct("<dI")
_POINT = np.dtype(("<f4", (4,)))  # x, y, z, reflectivity
_GT_RECORD = np.dtype([
    ("id", "<i4"), ("cls", "u1"), ("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
    ("w", "<f8"), ("l", "<f8"), ("h", "<f8"), ("heading", "<f8"), ("speed", "<f8"),
])


def _write_container(path, magic: bytes, frames: list, records) -> None:
    """Write `frames` (each with a `.t`), `records(frame)` giving each one's array."""
    for a, b in zip(frames, frames[1:]):
        if b.t < a.t:
            raise ValueError(f"frame timestamps decrease: {a.t} -> {b.t}")
    with open(path, "wb") as f:
        f.write(_FILE_HEADER.pack(magic, len(frames)))
        for fr in frames:
            recs = records(fr)
            f.write(_FRAME_HEADER.pack(fr.t, len(recs)))
            f.write(recs.tobytes())


def _need(buf: bytes, offset: int, count: int, what: str) -> None:
    if offset + count > len(buf):
        raise FrameFormatError(
            f"truncated file: need {count} bytes for {what} at byte {offset}, "
            f"have {len(buf) - offset}"
        )


def _read_container(path, magic: bytes, dtype: np.dtype) -> list[tuple[float, np.ndarray]]:
    """(timestamp, read-only record array) for each frame of a container file."""
    with open(path, "rb") as f:
        buf = f.read()
    _need(buf, 0, _FILE_HEADER.size, "header")
    found, count = _FILE_HEADER.unpack_from(buf)
    if found != magic:
        raise FrameFormatError(f"bad magic at byte 0: {found!r}")
    off = _FILE_HEADER.size
    frames = []
    for k in range(count):
        _need(buf, off, _FRAME_HEADER.size, f"frame {k} header")
        t, n = _FRAME_HEADER.unpack_from(buf, off)
        off += _FRAME_HEADER.size
        if not math.isfinite(t):
            raise FrameFormatError(f"frame {k} timestamp {t} is not finite")
        _need(buf, off, n * dtype.itemsize, f"frame {k} records")
        frames.append((t, np.frombuffer(buf, dtype=dtype, count=n, offset=off)))
        off += n * dtype.itemsize
    if off != len(buf):
        raise FrameFormatError(f"trailing bytes at byte {off}")
    return frames


def kept_frames(frames) -> list[int]:
    """Indices of the frames (each with a `.t`) a run keeps: each one later
    than the last kept frame, so the first of a repeated time is kept and a
    frame whose time goes back is dropped."""
    kept = []
    for k, fr in enumerate(frames):
        if not kept or fr.t > frames[kept[-1]].t:
            kept.append(k)
    return kept


def write_frames(frames: list[PointCloudFrame], path) -> None:
    _write_container(path, FRAME_MAGIC, frames, lambda fr: fr.points.astype("<f4"))


def read_frames(path) -> list[PointCloudFrame]:
    return [
        PointCloudFrame(t=t, points=pts.astype(np.float64))
        for t, pts in _read_container(path, FRAME_MAGIC, _POINT)
    ]


def _gt_records(fr: GroundTruthFrame) -> np.ndarray:
    rows = [
        (a.agent_id, CLASSES.index(a.cls), *a.center, *a.dims, a.heading, a.speed)
        for a in fr.agents
    ]
    return np.array(rows, dtype=_GT_RECORD)


def write_ground_truth(frames: list[GroundTruthFrame], path) -> None:
    _write_container(path, GROUND_TRUTH_MAGIC, frames, _gt_records)


def _gt_agent(aid, code, x, y, z, w, l, h, heading, speed) -> AgentState:
    """One ground-truth record as an agent; ValueError says what it breaks."""
    if code >= len(CLASSES):
        raise ValueError(f"cls {code} is not a class code (< {len(CLASSES)})")
    if not all(map(math.isfinite, (x, y, z, heading, speed))):
        raise ValueError(f"x, y, z, heading and speed must be finite, got "
                         f"{x}, {y}, {z}, {heading}, {speed}")
    return AgentState(aid, CLASSES[code], np.array([x, y, z]), (w, l, h), heading, speed)


def read_ground_truth(path) -> list[GroundTruthFrame]:
    """The frames of a ground-truth file. A record that is no valid agent (no
    class code, a position, heading or speed that is not finite, or dims
    outside its class's ranges) raises a FrameFormatError naming its frame
    and record."""
    out = []
    for k, (t, recs) in enumerate(_read_container(path, GROUND_TRUTH_MAGIC, _GT_RECORD)):
        agents = []
        for i, rec in enumerate(recs.tolist()):
            try:
                agents.append(_gt_agent(*rec))
            except ValueError as e:
                raise FrameFormatError(f"frame {k} record {i}: {e}") from None
        out.append(GroundTruthFrame(t=t, agents=agents))
    return out
