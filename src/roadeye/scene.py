"""Synthetic intersection traffic and point-cloud frame sampling.

Agents follow polyline routes at constant speed inside a 102.4 m square
surveillance area. Frames are sampled from agent box surfaces plus a flat
ground plane and expressed in the sensor (L-Coor) frame.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import CLASSES, ObjectClass, OrientedBox3D, RigidTransform, normalize_angle
from .geometry import rotation_about_z, wrap_angles

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


class AgentRow(np.record):
    """One ground-truth agent, an `AGENT` row: the id, the class as an index
    into CLASSES, the world-frame centre x, y, z in meters, the dims w, l, h,
    the heading in (-pi, pi] and the speed in m/s, each read as an attribute.
    `agent_id`, `center` and `dims` read them as the scalar, the (3,) array
    and the tuple that the per-agent code takes, and `as_box` gives the box."""

    agent_id = property(lambda self: int(self["id"]))
    center = property(lambda self: np.array([self["x"], self["y"], self["z"]]))
    dims = property(lambda self: (self["w"], self["l"], self["h"]))

    def as_box(self) -> OrientedBox3D:
        return OrientedBox3D(*self.item()[2:9])


# One agent per row, packed: 69 bytes, the ground-truth file's record.
AGENT = np.dtype((AgentRow, [
    ("id", "<i4"), ("cls", "u1"), ("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
    ("w", "<f8"), ("l", "<f8"), ("h", "<f8"), ("heading", "<f8"), ("speed", "<f8"),
]))


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
        if not np.all(np.isfinite(self.route)):
            raise ValueError("route points must be finite")
        if np.any(np.abs(self.route) > AREA_HALF_EXTENT):
            raise ValueError(f"route leaves the {2 * AREA_HALF_EXTENT} m square")
        if not 0 <= self.speed < math.inf:
            raise ValueError(f"speed must be nonnegative and finite, got {self.speed}")
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
        if not 0 < self.tick < math.inf:
            raise ValueError(f"tick must be positive and finite, got {self.tick}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be nonnegative and finite, got {self.duration}")
        for name in ("mount_height", "sensor_pitch_deg", "sensor_yaw_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("points_per_agent", "ground_point_density"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)}")
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
    frames column-major. Float32 points, as sampled and read, are kept as
    given; any other input becomes float64."""

    t: float
    points: np.ndarray  # (N, 4) float32 raw, float64 once leveled; i in [0, 1]

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.dtype != np.float32:
            pts = pts.astype(float, copy=False)
        self.points = pts.reshape(-1, 4)

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class GroundTruthFrame:
    """The agents at time t: `AGENT` rows, or a list of `AgentRow`s to write."""

    t: float
    agents: np.ndarray


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


def step_scenario(config: ScenarioConfig, t: float) -> np.ndarray:
    """The agents at time t as `AGENT` rows, in spec order with the spec's
    index as id: arc-length advance speed*t along each route, the box resting
    on the ground, the heading in (-pi, pi]."""
    if not (0.0 <= t <= config.duration):
        raise ValueError(f"t={t} outside [0, {config.duration}]")
    rows = []
    for i, spec in enumerate(config.agents):
        (x, y), heading = _walk_route(spec.route, spec.speed * t)
        w, l, h = _agent_dims(spec, i, config.rng_seed)
        rows.append((i, CLASSES.index(spec.cls), x, y, h / 2.0, w, l, h,
                     normalize_angle(heading), spec.speed))
    return np.array(rows, AGENT)


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
    agents,
    config: ScenarioConfig,
    frame_index: int = 0,
    t: float = 0.0,
) -> PointCloudFrame:
    """Sample one frame in L-Coor: agent surfaces plus ground plane points.
    `agents` are `AgentRow`s, as an `AGENT` array or a list.

    Per-agent counts fall off with 1/max(1, range^2/100). Coordinates and
    reflectivities are float32, the frame file's precision, so frame files
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
        pts = np.column_stack([lcoor, refl]).astype(np.float32)
    else:
        pts = np.empty((0, 4), np.float32)
    return PointCloudFrame(t=t, points=pts)


def scenario_frames(config: ScenarioConfig):
    """Yield (agent rows, sampled frame) at each of the scenario's frame times."""
    for k, t in enumerate(config.frame_times()):
        agents = step_scenario(config, float(t))
        yield agents, sample_point_cloud(agents, config, frame_index=k, t=float(t))


# ---------------------------------------------------------------------------
# Frame and ground-truth files share one container, all little-endian:
# 4-byte magic, u32 frame count; per frame f64 timestamp, u32 record count,
# then the records. Frame files ("CMMF") hold `_POINT` records, ground-truth
# files ("CMMG") hold packed `AGENT` records.
# ---------------------------------------------------------------------------

_FILE_HEADER = struct.Struct("<4sI")  # magic, frame count
_FRAME_HEADER = struct.Struct("<dI")
_POINT = np.dtype(("<f4", (4,)))  # x, y, z, reflectivity


@contextlib.contextmanager
def _container_writer(path, magic: bytes, records):
    """Write a container file frame by frame: the block gets `write(frame)`
    for frames with a `.t`, `records(frame)` giving each one's array, and a
    time below the last one written is refused. The file is written beside
    `path` and moved onto it only when the block ends without an error, so a
    refused write leaves any file at `path` as it was."""
    part = f"{os.fspath(path)}.part"
    f = open(part, "wb")
    try:
        f.write(_FILE_HEADER.pack(magic, 0))  # the count is patched at the end
        count, last_t = 0, -math.inf

        def write(fr) -> None:
            nonlocal count, last_t
            if fr.t < last_t:
                raise ValueError(f"frame timestamps decrease: {last_t} -> {fr.t}")
            recs = records(fr)
            f.write(_FRAME_HEADER.pack(fr.t, len(recs)))
            f.write(recs.tobytes())
            count, last_t = count + 1, fr.t

        yield write
        f.seek(0)
        f.write(_FILE_HEADER.pack(magic, count))
        f.close()
        os.replace(part, path)
    except BaseException:
        f.close()
        with contextlib.suppress(OSError):
            os.unlink(part)
        raise


def _need(size: int, offset: int, count: int, what: str) -> None:
    if offset + count > size:
        raise FrameFormatError(
            f"truncated file: need {count} bytes for {what} at byte {offset}, "
            f"have {size - offset}"
        )


def _read_container(path, magic: bytes, dtype: np.dtype):
    """The frame times of a container file, and an iterator that reads its
    frames one at a time as (timestamp, read-only record array). The whole
    file's framing is checked first, from the headers alone, seeking past
    the records, so a malformed file raises here before any frame is read."""
    index = []  # (timestamp, byte offset, record count) per frame
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        _need(size, 0, _FILE_HEADER.size, "header")
        found, count = _FILE_HEADER.unpack(f.read(_FILE_HEADER.size))
        if found != magic:
            raise FrameFormatError(f"bad magic at byte 0: {found!r}")
        off = _FILE_HEADER.size
        for k in range(count):
            _need(size, off, _FRAME_HEADER.size, f"frame {k} header")
            f.seek(off)
            t, n = _FRAME_HEADER.unpack(f.read(_FRAME_HEADER.size))
            off += _FRAME_HEADER.size
            if not math.isfinite(t):
                raise FrameFormatError(f"frame {k} timestamp {t} is not finite")
            _need(size, off, n * dtype.itemsize, f"frame {k} records")
            index.append((t, off, n))
            off += n * dtype.itemsize
        if off != size:
            raise FrameFormatError(f"trailing bytes at byte {off}")

    def frames():
        with open(path, "rb") as f:
            for t, off, n in index:
                f.seek(off)
                yield t, np.frombuffer(f.read(n * dtype.itemsize), dtype=dtype, count=n)

    return [t for t, _, _ in index], frames()


def kept_frames(times) -> list[int]:
    """Indices of the frame times a run keeps: each one later than the last
    kept time, so the first of a repeated time is kept and a frame whose time
    goes back is dropped."""
    kept = []
    for k, t in enumerate(times):
        if not kept or t > times[kept[-1]]:
            kept.append(k)
    return kept


def _point_records(fr: PointCloudFrame) -> np.ndarray:
    return fr.points.astype("<f4", copy=False)


def write_frames(frames, path) -> None:
    """Write an iterable of frames to a frame file, one frame at a time."""
    with _container_writer(path, FRAME_MAGIC, _point_records) as write:
        for fr in frames:
            write(fr)


def stream_frames(path):
    """The frame times of a frame file, and an iterator over its frames read
    one at a time. Points are the file's float32 records, read-only, with no
    copy."""
    times, records = _read_container(path, FRAME_MAGIC, _POINT)
    return times, (PointCloudFrame(t=t, points=pts) for t, pts in records)


def read_frames(path) -> list[PointCloudFrame]:
    return list(stream_frames(path)[1])


def _gt_records(fr: GroundTruthFrame) -> np.ndarray:
    return np.asarray(fr.agents, AGENT)


def write_ground_truth(frames, path) -> None:
    """Write an iterable of ground-truth frames, one frame at a time."""
    with _container_writer(path, GROUND_TRUTH_MAGIC, _gt_records) as write:
        for fr in frames:
            write(fr)


def write_scenario(config: ScenarioConfig, frames_path, gt_path) -> int:
    """Simulate `config` into a frame file and a ground-truth file, writing
    each frame as it is sampled; returns the frame count. Neither file is
    replaced unless both are written whole."""
    count = 0
    with (_container_writer(frames_path, FRAME_MAGIC, _point_records) as write_frame,
          _container_writer(gt_path, GROUND_TRUTH_MAGIC, _gt_records) as write_gt):
        for agents, frame in scenario_frames(config):
            write_frame(frame)
            write_gt(GroundTruthFrame(t=frame.t, agents=agents))
            count += 1
    return count


# Closed (w, l, h) ranges per class code, one row per entry of CLASSES.
_DIM_LO, _DIM_HI = np.array([dim_range(c) for c in CLASSES]).transpose(2, 0, 1)


def _check_agent(code, x, y, z, w, l, h, heading, speed) -> None:
    """The rule for one agent record, its values after the id as Python numbers:
    ValueError says the first thing it breaks."""
    if code >= len(CLASSES):
        raise ValueError(f"cls {code} is not a class code (< {len(CLASSES)})")
    if not all(map(math.isfinite, (x, y, z, heading, speed))):
        raise ValueError(f"x, y, z, heading and speed must be finite, got "
                         f"{x}, {y}, {z}, {heading}, {speed}")
    check_dims(CLASSES[code], (w, l, h))


def checked_agents(rows) -> np.ndarray:
    """`rows` as `AGENT` rows that are valid agents: a class code, a finite
    position, heading and speed, and dims inside the class's ranges. The
    whole array is checked with masks; the first record that fails is run
    through the one-record rule, and the ValueError names it and the rule's
    reason. If a heading lies outside (-pi, pi], a copy's heading column goes
    through `wrap_angles`, which keeps in-range headings bit for bit."""
    rows = np.asarray(rows, AGENT)
    code = rows["cls"]
    ok = code < len(CLASSES)
    for name in ("x", "y", "z", "heading", "speed"):
        ok &= np.isfinite(rows[name])
    known = np.minimum(code, len(CLASSES) - 1)
    for j, name in enumerate("wlh"):
        v = rows[name]
        ok &= (_DIM_LO[known, j] <= v) & (v <= _DIM_HI[known, j])
    if not ok.all():
        i = int(np.argmin(ok))
        try:
            _check_agent(*rows[i].item()[1:])
        except ValueError as e:
            raise ValueError(f"record {i}: {e}") from None
    heading = rows["heading"]
    if not ((heading > -math.pi) & (heading <= math.pi)).all():
        rows = rows.copy()
        rows["heading"] = wrap_angles(heading)
    return rows


def _gt_frame(k: int, t: float, recs: np.ndarray) -> GroundTruthFrame:
    try:
        return GroundTruthFrame(t=t, agents=checked_agents(recs))
    except ValueError as e:
        raise FrameFormatError(f"frame {k} {e}") from None


def stream_ground_truth(path):
    """The frame times of a ground-truth file, and an iterator over its
    frames read one at a time, each frame's agents one `AGENT` array. A
    record that is no valid agent (see `checked_agents`)
    raises a FrameFormatError naming its frame and record when its frame is
    read."""
    times, records = _read_container(path, GROUND_TRUTH_MAGIC, AGENT)
    return times, (_gt_frame(k, t, recs) for k, (t, recs) in enumerate(records))


def read_ground_truth(path) -> list[GroundTruthFrame]:
    return list(stream_ground_truth(path)[1])
