import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from roadeye.geometry import ObjectClass, OrientedBox3D, rotation_about_z
from roadeye.scene import (
    AgentSpec,
    AgentState,
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
    with pytest.raises(ValueError):
        AgentState(0, ObjectClass.VEHICLE, np.zeros(3), (0.5, 4.0, 1.5), 0.0, 0.0)
    with pytest.raises(ValueError):
        AgentState(0, ObjectClass.PEDESTRIAN, np.zeros(3), (2.0, 0.6, 1.7), 0.0, 0.0)


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


def test_range_attenuation_monotone():
    near = AgentState(0, ObjectClass.VEHICLE, np.array([10.0, 0, 0.8]), VEHICLE_DIMS, 0.0, 0.0)
    far = AgentState(1, ObjectClass.VEHICLE, np.array([50.0, 0, 0.8]), VEHICLE_DIMS, 0.0, 0.0)
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
    assert kept_frames(back) == [0, 2]


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
