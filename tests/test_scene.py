import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from roadeye import scene
from roadeye.geometry import CLASSES, ObjectClass, OrientedBox3D, normalize_angle, rotation_about_z
from roadeye.scene import (
    AgentSpec,
    FrameFormatError,
    GroundTruthFrame,
    PEDESTRIAN_DIM_RANGE,
    PointCloudFrame,
    ScenarioConfig,
    VEHICLE_DIM_RANGE,
    kept_frames,
    read_frames,
    read_ground_truth,
    sample_box_surface,
    sample_point_cloud,
    step_scenario,
    write_frames,
    write_ground_truth,
)

from conftest import agent

VEHICLE_DIMS = (2.0, 4.5, 1.6)
PED_DIMS = (0.6, 0.6, 1.7)


def _single_vehicle_config(**kw):
    spec = AgentSpec(
        cls=ObjectClass.VEHICLE,
        route=[[-45.0, 0.0], [45.0, 0.0]],
        speed=10.0,
        dims=VEHICLE_DIMS,
    )
    return ScenarioConfig(agents=[spec], duration=5.0, **kw)


def test_straight_route_advance():
    cfg = _single_vehicle_config()
    states = step_scenario(cfg, 1.0)
    assert states[0].center[0] == pytest.approx(-45.0 + 10.0)
    assert states[0].center[1] == pytest.approx(0.0)
    assert states[0].heading == pytest.approx(0.0)


def test_t_zero_is_spawn():
    cfg = _single_vehicle_config()
    states = step_scenario(cfg, 0.0)
    assert states[0].center[0] == pytest.approx(-45.0)
    assert states[0].center[2] == pytest.approx(VEHICLE_DIMS[2] / 2)


def test_t_out_of_range():
    cfg = _single_vehicle_config()
    with pytest.raises(ValueError):
        step_scenario(cfg, -0.1)
    with pytest.raises(ValueError):
        step_scenario(cfg, 5.1)


def _arc_walk_oracle(route, distance, step=1e-4):
    """Brute-force arc-length walk in tiny steps."""
    route = np.asarray(route, dtype=float)
    pos = route[0].copy()
    heading = 0.0
    remaining = distance
    for a, b in zip(route[:-1], route[1:]):
        seg = b - a
        length = float(np.hypot(*seg))
        heading = math.atan2(seg[1], seg[0])
        walked = 0.0
        direction = seg / length
        while walked + step < length:
            if remaining <= step / 2:
                return pos, heading
            pos = pos + direction * step
            walked += step
            remaining -= step
        pos = b.copy()
    return pos, heading


def test_turn_heading_matches_arc_walk_oracle():
    route = [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]
    spec = AgentSpec(cls=ObjectClass.VEHICLE, route=route, speed=2.0, dims=VEHICLE_DIMS)
    cfg = ScenarioConfig(agents=[spec], duration=10.0)
    # Midpoint of the second segment: arc distance 15 m at t = 7.5 s.
    states = step_scenario(cfg, 7.5)
    pos, heading = _arc_walk_oracle(route, 15.0)
    assert states[0].heading == pytest.approx(heading, abs=1e-9)
    assert np.allclose(states[0].center[:2], pos, atol=1e-3)
    assert states[0].heading == pytest.approx(math.pi / 2)


def test_route_clamps_at_end():
    cfg = _single_vehicle_config()
    states = step_scenario(cfg, 5.0)  # 50 m along a 90 m route
    assert states[0].center[0] == pytest.approx(5.0)
    states_end = step_scenario(
        ScenarioConfig(agents=cfg.agents, duration=100.0), 100.0
    )
    assert states_end[0].center[0] == pytest.approx(45.0)


def test_agent_dims_validated():
    with pytest.raises(ValueError, match=re.escape("vehicle dim w=0.5 outside [1.5, 2.6]")):
        agent(0, ObjectClass.VEHICLE, np.zeros(3), (0.5, 4.0, 1.5), 0.0, 0.0)
    with pytest.raises(ValueError, match=re.escape("pedestrian dim w=2.0 outside [0.4, 0.9]")):
        agent(0, ObjectClass.PEDESTRIAN, np.zeros(3), (2.0, 0.6, 1.7), 0.0, 0.0)


# The ground-truth record as it was packed one agent at a time, before agents
# became AGENT rows: the layout the references below are built in.
_PER_AGENT_RECORD = np.dtype([
    ("id", "<i4"), ("cls", "u1"), ("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
    ("w", "<f8"), ("l", "<f8"), ("h", "<f8"), ("heading", "<f8"), ("speed", "<f8"),
])


def _per_agent_step(config, t):
    """step_scenario's rows as the per-agent simulator built them: one agent
    object per spec, its heading through normalize_angle, packed one by one."""
    rows = []
    for i, spec in enumerate(config.agents):
        pos, heading = scene._walk_route(spec.route, spec.speed * t)
        dims = scene._agent_dims(spec, i, config.rng_seed)
        center = np.asarray(np.array([pos[0], pos[1], dims[2] / 2.0]), dtype=float)
        rows.append((i, CLASSES.index(spec.cls), *center, *dims, normalize_angle(heading),
                     spec.speed))
    return np.array(rows, dtype=_PER_AGENT_RECORD)


def test_step_scenario_rows_are_bit_equal_to_the_per_agent_simulator():
    rng = np.random.default_rng(5)
    specs = [
        AgentSpec(cls=CLASSES[k % 2], route=rng.uniform(-50, 50, (4, 2)), speed=rng.uniform(0, 9))
        for k in range(30)
    ]
    # Due west along y = -0.0: arctan2 gives -pi, which normalises to pi.
    specs.append(AgentSpec(cls=ObjectClass.VEHICLE, route=[[10.0, 0.0], [-10.0, -0.0]], speed=1.0))
    specs.append(AgentSpec(cls=ObjectClass.PEDESTRIAN, route=[[3.0, 4.0]], speed=0.0,
                           dims=(0.5, 0.5, 2.0)))
    cfg = ScenarioConfig(agents=specs, duration=8.0, rng_seed=17)
    for t in (0.0, 0.1, 2.5, 8.0):
        rows = step_scenario(cfg, t)
        assert rows.dtype == scene.AGENT and rows.dtype.itemsize == 69
        assert rows.tobytes() == _per_agent_step(cfg, t).tobytes()
    assert step_scenario(cfg, 1.0)[30].heading == math.pi
    empty = step_scenario(ScenarioConfig(agents=[], duration=1.0), 0.5)
    assert empty.dtype == scene.AGENT and empty.shape == (0,)


def test_read_headings_are_normalised_as_the_per_agent_reader_did(tmp_path):
    headings = [3 * math.pi / 2, -7.0, math.pi, -math.pi, 0.3, -math.pi + 1e-15, 1e6,
                -2 * math.pi, 1e15, -1e300]
    records = np.array([(k, 0, k, 1.0, 0.8, 2.0, 4.5, 1.6, h, 3.0) for k, h in enumerate(headings)],
                       _PER_AGENT_RECORD)
    path = tmp_path / "gt.bin"
    write_ground_truth([GroundTruthFrame(t=0.0, agents=records.view(scene.AGENT))], path)
    (back,) = read_ground_truth(path)
    # Each agent object normalised its heading, in range or not.
    reference = records.copy()
    reference["heading"] = [normalize_angle(h) for h in headings]
    assert back.agents.tobytes() == reference.tobytes()
    assert back.agents["heading"][0] == -math.pi / 2 and back.agents["heading"][3] == math.pi


def test_ground_truth_frame_with_two_bad_records_names_the_first(tmp_path):
    # Record 1 breaks both the finite rule and its dims, record 3 the class
    # code: the message names record 1, with the reason the one-record rule
    # checks first.
    car = agent(0, ObjectClass.VEHICLE, [1.0, 2.0, 0.8], VEHICLE_DIMS, 0.0, 5.0)
    rows = np.array([car] * 4)
    rows[1]["speed"], rows[1]["w"] = math.nan, 9.0
    rows[3]["cls"] = 7
    path = tmp_path / "gt.bin"
    write_ground_truth([GroundTruthFrame(t=0.0, agents=rows)], path)
    with pytest.raises(FrameFormatError, match=re.escape(
            "frame 0 record 1: x, y, z, heading and speed must be finite, got "
            "1.0, 2.0, 0.8, 0.0, nan")):
        read_ground_truth(path)


def test_sampled_dims_within_class_ranges():
    specs = [
        AgentSpec(cls=ObjectClass.VEHICLE, route=[[0.0, 0.0]], speed=0.0),
        AgentSpec(cls=ObjectClass.PEDESTRIAN, route=[[5.0, 5.0]], speed=0.0),
    ]
    cfg = ScenarioConfig(agents=specs, duration=1.0, rng_seed=99)
    for state, lo_hi in zip(step_scenario(cfg, 0.5), (VEHICLE_DIM_RANGE, PEDESTRIAN_DIM_RANGE)):
        for v, (lo, hi) in zip(state.dims, lo_hi):
            assert lo <= v <= hi


def test_route_outside_square_rejected():
    with pytest.raises(ValueError):
        AgentSpec(cls=ObjectClass.VEHICLE, route=[[0.0, 0.0], [60.0, 0.0]], speed=1.0)


@pytest.mark.parametrize("route, speed, match", [
    ([[0.0, 0.0], [math.nan, 1.0]], 1.0, "route points must be finite"),
    ([[0.0, math.inf]], 1.0, "route points must be finite"),
    ([[0.0, 0.0]], math.nan, "speed must be nonnegative and finite"),
    ([[0.0, 0.0]], math.inf, "speed must be nonnegative and finite"),
])
def test_non_finite_route_or_speed_rejected(route, speed, match):
    # Accepted, they made `simulate` write ground truth its own reader refuses.
    with pytest.raises(ValueError, match=match):
        AgentSpec(cls=ObjectClass.VEHICLE, route=route, speed=speed)


@pytest.mark.parametrize("field, value", [
    ("tick", math.nan), ("tick", math.inf), ("duration", math.nan), ("duration", math.inf),
    ("mount_height", math.nan), ("mount_height", -math.inf),
    ("points_per_agent", -400), ("ground_point_density", -0.1),
    ("ground_point_density", math.nan), ("sensor_pitch_deg", math.nan),
    ("sensor_yaw_deg", math.inf),
])
def test_non_finite_timing_or_mount_height_rejected(field, value):
    # Accepted, they failed later with numpy's message or the sensor pose's,
    # a tick of inf gave a scene of no frames, and a negative point count
    # gave frames of ground points only.
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value}"):
        ScenarioConfig(**{field: value})


def _surface_distance(box: OrientedBox3D, pts: np.ndarray) -> np.ndarray:
    """Distance of points to the box surface (0 when exactly on it)."""
    local = (np.asarray(pts, dtype=float) - box.center) @ rotation_about_z(box.theta)
    half = np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    q = np.abs(local) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.abs(np.max(np.minimum(q, 0.0), axis=1))
    return np.where(np.all(q <= 0, axis=1), inside, outside)


def test_surface_points_on_box():
    rng = np.random.default_rng(5)
    box = OrientedBox3D(3.0, -2.0, 0.8, 2.0, 4.5, 1.6, 0.7)
    pts = sample_box_surface(box, 2000, rng)
    assert np.max(_surface_distance(box, pts)) <= 1e-9


def _sample_box_surface_reference(box, n, rng):
    """Face by face, one branch per axis: the form the face table replaced."""
    w, l, h = box.w, box.l, box.h
    areas = np.array([w * h, w * h, l * h, l * h, l * w, l * w])
    faces = rng.choice(6, size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=n)
    v = rng.uniform(-0.5, 0.5, size=n)
    local = np.empty((n, 3))
    for f in range(6):
        m = faces == f
        axis, sign = divmod(f, 2)
        s = 1.0 if sign == 0 else -1.0
        if axis == 0:
            local[m] = np.column_stack([np.full(m.sum(), s * l / 2.0), u[m] * w, v[m] * h])
        elif axis == 1:
            local[m] = np.column_stack([u[m] * l, np.full(m.sum(), s * w / 2.0), v[m] * h])
        else:
            local[m] = np.column_stack([u[m] * l, v[m] * w, np.full(m.sum(), s * h / 2.0)])
    return local @ rotation_about_z(box.theta).T + box.center


def test_surface_sampling_matches_per_axis_reference():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        box = OrientedBox3D(*rng.uniform(-40, 40, 3), *rng.uniform(0.4, 12.0, 3),
                            rng.uniform(-math.pi, math.pi))
        n = int(rng.integers(0, 500))
        got = sample_box_surface(box, n, np.random.default_rng(seed))
        assert np.array_equal(got, _sample_box_surface_reference(box, n, np.random.default_rng(seed)))


def test_empty_frame_without_agents_or_ground():
    cfg = ScenarioConfig(agents=[], duration=1.0, ground_point_density=0.0)
    frame = sample_point_cloud([], cfg)
    assert len(frame) == 0


def test_sampled_and_read_frames_are_float32_and_read_only(tmp_path):
    # Frames keep the file's precision from the sampler to leveling; a read
    # frame's points are the file's bytes, not a copy.
    cfg = _single_vehicle_config(ground_point_density=0.05)
    frame = sample_point_cloud(step_scenario(cfg, 1.0), cfg, frame_index=3, t=1.0)
    empty = sample_point_cloud([], dataclasses.replace(cfg, ground_point_density=0.0), t=2.0)
    assert frame.points.dtype == empty.points.dtype == np.float32
    assert empty.points.shape == (0, 4)
    path = tmp_path / "frames.bin"
    write_frames([frame, empty], path)
    back = read_frames(path)
    assert [fr.points.dtype for fr in back] == [np.float32, np.float32]
    assert back[0].points.tobytes() == frame.points.tobytes()
    assert not back[0].points.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        back[0].points[0, 0] = 0.0


def test_point_cloud_frame_keeps_float32_and_widens_the_rest():
    f32 = np.arange(8, dtype=np.float32).reshape(2, 4)
    kept = PointCloudFrame(t=0.0, points=f32).points
    assert kept.dtype == np.float32 and np.shares_memory(kept, f32)
    for given in (f32.astype(np.float16), f32.astype(np.int32), f32.tolist()):
        pts = PointCloudFrame(t=0.0, points=given).points
        assert pts.dtype == np.float64
        assert np.array_equal(pts, f32)
    f64 = np.asfortranarray(f32, dtype=np.float64)
    assert np.shares_memory(PointCloudFrame(t=0.0, points=f64).points, f64)


def test_range_attenuation_monotone():
    near = agent(0, ObjectClass.VEHICLE, [10.0, 0, 0.8], VEHICLE_DIMS, 0.0, 0.0)
    far = agent(1, ObjectClass.VEHICLE, [50.0, 0, 0.8], VEHICLE_DIMS, 0.0, 0.0)
    cfg = ScenarioConfig(agents=[], duration=1.0, ground_point_density=0.0)
    frame = sample_point_cloud([near, far], cfg)
    n_near = int(np.sum(np.abs(frame.xyz[:, 0] - 10.0) < 5.0))
    n_far = int(np.sum(np.abs(frame.xyz[:, 0] - 50.0) < 5.0))
    assert n_near >= n_far
    # Count follows base / max(1, r^2/100) with r the 3D range to the sensor.
    sensor = cfg.sensor_pose.inverse().translation
    for state, n in ((near, n_near), (far, n_far)):
        r = float(np.linalg.norm(state.center - sensor))
        assert n == round(cfg.points_per_agent / max(1.0, r * r / 100.0))


def test_reflectivity_in_unit_interval():
    cfg = _single_vehicle_config(ground_point_density=0.1)
    frame = sample_point_cloud(step_scenario(cfg, 1.0), cfg, frame_index=3, t=1.0)
    assert np.all(frame.points[:, 3] >= 0.0)
    assert np.all(frame.points[:, 3] <= 1.0)


def test_frames_deterministic_under_seed():
    cfg_a = _single_vehicle_config(rng_seed=42, ground_point_density=0.05)
    cfg_b = _single_vehicle_config(rng_seed=42, ground_point_density=0.05)
    for k, t in enumerate(cfg_a.frame_times()):
        fa = sample_point_cloud(step_scenario(cfg_a, float(t)), cfg_a, k, float(t))
        fb = sample_point_cloud(step_scenario(cfg_b, float(t)), cfg_b, k, float(t))
        assert fa.t == fb.t
        assert np.array_equal(fa.points, fb.points)


def test_sensor_pose_applied():
    cfg = ScenarioConfig(agents=[], duration=1.0, ground_point_density=0.1, mount_height=4.74)
    frame = sample_point_cloud([], cfg)
    # Untilted default pose puts the ground plane at z = -mount_height.
    assert np.allclose(frame.xyz[:, 2], -4.74, atol=1e-5)


def test_sensor_pose_built_from_angles():
    # Pitch about the sensor's y axis, then yaw about z, with the sensor at
    # mount height above the world origin.
    cfg = ScenarioConfig(mount_height=4.74, sensor_pitch_deg=5.0, sensor_yaw_deg=30.0)
    assert np.allclose(cfg.sensor_pose.apply_point([0.0, 0.0, 4.74]), 0.0)
    up = cfg.sensor_pose.rotation @ [0.0, 0.0, 1.0]
    assert math.degrees(math.acos(up[2])) == pytest.approx(5.0)
    assert math.degrees(cfg.sensor_pose.yaw) == pytest.approx(30.0)
    level = dataclasses.replace(cfg, sensor_pitch_deg=0.0)  # replace rebuilds the pose
    assert np.allclose(level.sensor_pose.rotation, rotation_about_z(math.radians(30.0)))


def _random_frames(rng, n=3):
    frames = []
    for k in range(n):
        pts = rng.uniform(-50, 50, (rng.integers(0, 200), 4))
        pts[:, 3] = rng.uniform(0, 1, len(pts))
        pts = pts.astype(np.float32).astype(np.float64)
        frames.append(PointCloudFrame(t=float(k) * 0.1, points=pts))
    return frames


def test_frame_file_roundtrip(tmp_path, rng):
    frames = _random_frames(rng)
    path = tmp_path / "frames.bin"
    write_frames(frames, path)
    back = read_frames(path)
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert a.t == b.t
        assert np.array_equal(a.points, b.points)


def test_empty_frame_list_roundtrip(tmp_path):
    path = tmp_path / "empty.bin"
    write_frames([], path)
    assert read_frames(path) == []
    assert path.read_bytes()[:8] == b"CMMF\x00\x00\x00\x00"


def test_truncated_file_rejected(tmp_path, rng):
    frames = _random_frames(rng, n=2)
    path = tmp_path / "frames.bin"
    write_frames(frames, path)
    data = path.read_bytes()
    cut = path.with_suffix(".cut")
    cut.write_bytes(data[:-7])  # mid point record
    with pytest.raises(FrameFormatError, match="byte"):
        read_frames(cut)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE\x00\x00\x00\x00")
    with pytest.raises(FrameFormatError, match="magic"):
        read_frames(path)


def test_trailing_bytes_rejected(tmp_path, rng):
    path = tmp_path / "frames.bin"
    write_frames(_random_frames(rng, n=1), path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FrameFormatError, match="trailing"):
        read_frames(path)


def test_decreasing_timestamps_rejected(tmp_path, rng):
    frames = _random_frames(rng, n=2)
    frames[1].t = frames[0].t - 1.0
    with pytest.raises(ValueError, match="decrease"):
        write_frames(frames, tmp_path / "bad.bin")


@pytest.mark.parametrize("k, t", [(0, math.nan), (1, math.nan), (2, math.inf)])
def test_non_finite_frame_time_rejected(tmp_path, rng, k, t):
    # A NaN time passes the order check (`t < previous` is false for NaN).
    frames = _random_frames(rng, n=3)
    frames[k].t = t
    path = tmp_path / "frames.bin"
    write_frames(frames, path)
    with pytest.raises(FrameFormatError, match=f"frame {k} timestamp {t} is not finite"):
        read_frames(path)


def test_ground_truth_roundtrip(tmp_path):
    cfg = _single_vehicle_config()
    gt = [GroundTruthFrame(t=float(t), agents=step_scenario(cfg, float(t))) for t in (0.0, 1.0)]
    path = tmp_path / "gt.bin"
    write_ground_truth(gt, path)
    back = read_ground_truth(path)
    assert len(back) == 2
    for a, b in zip(gt, back):
        assert a.t == b.t
        for sa, sb in zip(a.agents, b.agents):
            assert sa.agent_id == sb.agent_id
            assert sa.cls == sb.cls
            assert np.allclose(sa.center, sb.center)
            assert sa.dims == sb.dims
            assert sa.heading == sb.heading


def test_ground_truth_decreasing_timestamps_rejected(tmp_path):
    # The writer refuses a time that goes back; the reader passes it on, and
    # `kept_frames` drops that frame.
    cfg = _single_vehicle_config()
    gt = [GroundTruthFrame(t=float(t), agents=step_scenario(cfg, float(t))) for t in (0.0, 1.0, 2.0)]
    with pytest.raises(ValueError, match="decrease"):
        write_ground_truth(gt[::-1], tmp_path / "bad.gt")
    path = tmp_path / "gt.bin"
    write_ground_truth(gt, path)
    data = bytearray(path.read_bytes())
    # Frame 1's header follows the 8-byte file header, frame 0's 12-byte
    # header and its 69-byte agent records.
    struct.pack_into("<d", data, 8 + 12 + 69 * len(gt[0].agents), -1.0)
    path.write_bytes(bytes(data))
    back = read_ground_truth(path)
    assert [g.t for g in back] == [0.0, -1.0, 2.0]
    assert kept_frames([g.t for g in back]) == [0, 2]


def test_ground_truth_non_finite_time_rejected(tmp_path):
    cfg = _single_vehicle_config()
    gt = [GroundTruthFrame(t=t, agents=step_scenario(cfg, 0.0)) for t in (0.0, math.nan, 1.0)]
    path = tmp_path / "gt.bin"
    write_ground_truth(gt, path)
    with pytest.raises(FrameFormatError, match="frame 1 timestamp nan is not finite"):
        read_ground_truth(path)


def test_ground_truth_unknown_class_code_rejected(tmp_path):
    cfg = _single_vehicle_config()
    gt = [GroundTruthFrame(t=float(t), agents=step_scenario(cfg, float(t))) for t in (0.0, 1.0)]
    path = tmp_path / "gt.bin"
    write_ground_truth(gt, path)
    data = bytearray(path.read_bytes())
    # Frame 1's first record starts after the file header, frame 0 and frame
    # 1's header; its class byte follows the i32 id.
    data[8 + 12 + 69 * len(gt[0].agents) + 12 + 4] = 7
    path.write_bytes(bytes(data))
    with pytest.raises(FrameFormatError, match="frame 1 record 0: cls 7 is not a class code"):
        read_ground_truth(path)


@pytest.mark.parametrize("field, value", [
    ("x", math.nan), ("y", math.inf), ("z", -math.inf), ("heading", math.nan),
    ("speed", math.inf), ("w", 9.0), ("l", 0.1), ("h", math.nan),
])
def test_ground_truth_invalid_agent_rejected(tmp_path, field, value):
    if field in ("w", "l", "h"):
        lo, hi = VEHICLE_DIM_RANGE["wlh".index(field)]
        reason = re.escape(f"vehicle dim {field}={value} outside [{lo}, {hi}]")
    else:
        reason = "x, y, z, heading and speed must be finite"
    cfg = _single_vehicle_config()
    gt = [GroundTruthFrame(t=float(t), agents=step_scenario(cfg, float(t))) for t in (0.0, 1.0)]
    path = tmp_path / "gt.bin"
    write_ground_truth(gt, path)
    data = bytearray(path.read_bytes())
    # Frame 1's first record starts after the file header, frame 0 and frame
    # 1's header; its f64 fields follow the i32 id and the u8 class.
    at = 8 + 12 + 69 * len(gt[0].agents) + 12 + 5
    struct.pack_into("<d", data, at + 8 * "x y z w l h heading speed".split().index(field), value)
    path.write_bytes(bytes(data))
    with pytest.raises(FrameFormatError, match=f"frame 1 record 0: {reason}"):
        read_ground_truth(path)
