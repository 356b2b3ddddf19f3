import dataclasses
import hashlib
import json
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from roadeye.cli import main
from roadeye.config import ConfigError, DEFAULTS, load_config
from roadeye.scene import read_frames, read_ground_truth

REPO_ROOT = Path(__file__).parent.parent


# --- config ------------------------------------------------------------------

def test_defaults_load_without_file():
    cfg = load_config()
    assert cfg.seed == 0
    assert cfg["tracker.d_o"] == 2.0
    assert cfg["geofence.x_max"] == 51.2


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tracker": {"d_zero": 1.0}}))
    with pytest.raises(ConfigError, match="tracker.d_zero"):
        load_config(path)


def test_unknown_top_level_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trackers": {}}))
    with pytest.raises(ConfigError, match="trackers"):
        load_config(path)


def test_type_mismatch_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tracker": {"d_o": "wide"}}))
    with pytest.raises(ConfigError, match="tracker.d_o"):
        load_config(path)


def test_invalid_json_diagnosed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 5}))
    cfg = load_config(path, overrides={"seed": 9})
    assert cfg.seed == 9


def _nested(dotted, value):
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


@pytest.mark.parametrize("dotted, value", [
    ("seed", 1.5),
    ("scene.points_per_agent", 400.5),
    ("detector.cluster.min_points", 10.9),
    ("tracker.max_age", 4.9),
    ("relay.max_subscribers", 16.0),
    ("relay.queue_frames", True),
])
def test_integer_key_takes_only_integers(dotted, value):
    # A cast would silently truncate: max_age 4.9 would drop a track after 4 misses.
    with pytest.raises(ConfigError, match=dotted.replace(".", r"\.") + ": expected an integer"):
        load_config(overrides=_nested(dotted, value))


@pytest.mark.parametrize("value", [7, 0, ["gcps.txt"]])
def test_gcp_file_takes_string_or_null(value):
    with pytest.raises(ConfigError, match=r"geoloc\.gcp_file: expected a string or null"):
        load_config(overrides={"geoloc": {"gcp_file": value}})
    for ok in (None, "gcps.txt"):
        assert load_config(overrides={"geoloc": {"gcp_file": ok}})["geoloc.gcp_file"] == ok


@pytest.mark.parametrize("value", [[800.0], [1, 2, 3], ["a", "b"], [800.0, None], "800x800"])
def test_list_key_takes_a_list_of_its_defaults_items(value):
    # A list default takes a list of its length, each item checked against
    # the default's item; [800.0] used to load and map to a 1-item viewport.
    with pytest.raises(ConfigError, match=r"onboard\.viewport"):
        load_config(overrides={"onboard": {"viewport": value}})
    viewport = load_config(overrides={"onboard": {"viewport": [640, 480.0]}}).pixel_map().viewport
    assert viewport == (640, 480.0)


def test_sample_config_matches_defaults():
    sample = json.loads((REPO_ROOT / "config.sample.json").read_text())
    assert sample == DEFAULTS


def test_settings_defaults_do_not_drift():
    # Each settings object the config builds equals its no-argument form.
    from roadeye.detect import ClusterParams, DetectorNoise
    from roadeye.geoloc import GeodeticPos
    from roadeye.onboard import EgoSimulator
    from roadeye.preproc import GeofenceBounds
    from roadeye.relay import RelayServer
    from roadeye.track import TrackerConfig

    cfg = load_config()
    assert cfg.geofence_bounds() == GeofenceBounds()
    assert cfg.detector_noise() == DetectorNoise()
    assert cfg.cluster_params() == ClusterParams()
    assert cfg.tracker_config() == TrackerConfig()

    # The two constructors that keep defaults of their own, for callers
    # without a config, agree with the config's values.
    server = RelayServer()
    assert server.max_subscribers == cfg["relay.max_subscribers"]
    assert server.queue_size == cfg["relay.queue_frames"]
    ego = EgoSimulator(start=GeodeticPos(0.0, 0.0, 0.0))
    for key in ("heading", "speed", "rate_hz", "noise_std"):
        assert getattr(ego, key) == cfg[f"onboard.ego.{key}"], key

    # The sample loads, and its leaves have the defaults' types: dict
    # equality takes 0 == 0.0, but the integer rule follows the default's type.
    sample_path = REPO_ROOT / "config.sample.json"
    load_config(sample_path)

    def leaf_types(node):
        if isinstance(node, dict):
            return {k: leaf_types(v) for k, v in node.items()}
        if isinstance(node, list):
            return [leaf_types(v) for v in node]
        return type(node).__name__

    assert leaf_types(json.loads(sample_path.read_text())) == leaf_types(DEFAULTS)


def test_typed_accessors():
    cfg = load_config()
    assert cfg.geofence_bounds().x_min == -51.2
    assert cfg.tracker_config().max_age == 5
    assert cfg.detector_noise().p_miss == 0.0
    assert cfg.cluster_params().ground_z == -4.74
    scenario = cfg.scenario()
    assert len(scenario.agents) == 4
    assert scenario.sensor_pose.apply_point([0.0, 0.0, 4.74]) == pytest.approx([0.0, 0.0, 0.0])
    assert cfg.pixel_map().viewport == (800.0, 800.0)
    ego = cfg.ego_simulator()
    assert (ego.start.lat, ego.start.lon, ego.start.alt) == (39.99975, -105.0, 0.0)
    assert (ego.heading, ego.speed, ego.rate_hz, ego.noise_std, ego.seed) == (0.0, 0.0, 8.0, 0.0, 0)


def test_bad_agent_spec_diagnosed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"scene": {"agents": [{"class": "dragon", "route": [[0, 0]], "speed": 1.0}]}}
    ))
    with pytest.raises(ConfigError, match=r"agents\[0\]"):
        load_config(path).scenario()


_VEHICLE = {"class": "vehicle", "route": [[0.0, 0.0]], "speed": 1.0}


@pytest.mark.parametrize("agents, match", [
    ([{**_VEHICLE, "dim": [2.0, 4.0, 1.5]}], r"scene\.agents\[0\]\.dim$"),
    ([{**_VEHICLE, "speed": True}], r"scene\.agents\[0\]\.speed: expected a number"),
    ([{**_VEHICLE, "dims": [2.0, 4.0]}], r"scene\.agents\[0\]: dims must be 3 numbers"),
    ([{**_VEHICLE, "dims": [2.0, 20.0, 1.5]}], r"scene\.agents\[0\]: vehicle dim l=20.0 outside"),
    ({"x": 1}, r"scene\.agents: expected a list"),
    ([5], r"scene\.agents\[0\]: expected an object"),
], ids=["unknown-key", "bool-speed", "two-dims", "dims-out-of-range", "not-a-list", "not-an-object"])
def test_agent_entry_checked_at_load(tmp_path, agents, match):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scene": {"agents": agents}}))
    with pytest.raises(ConfigError, match=match):
        load_config(path).scenario()


# --- CLI ---------------------------------------------------------------------

def _run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "roadeye", *argv], capture_output=True, text=True
    )


def _write_cfg(tmp_path, extra=None):
    data = {"scene": {"duration": 1.0}}
    if extra:
        data.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def test_usage_error_exits_1():
    r = _run("no-such-command")
    assert r.returncode == 1
    r = _run()
    assert r.returncode == 1


def test_stage_named_diagnostic(tmp_path):
    # A frame too sparse to calibrate fails inside the preprocess stage.
    from roadeye.scene import PointCloudFrame, write_frames
    from roadeye.scene import write_ground_truth, GroundTruthFrame
    import numpy as np

    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "sparse.bin"
    pts = np.random.default_rng(0).uniform(-10, 0, (30, 4)).astype(np.float32).astype(float)
    pts[:, 3] = 0.5
    write_frames([PointCloudFrame(t=0.0, points=pts)], frames)
    write_ground_truth([GroundTruthFrame(t=0.0, agents=[])], str(frames) + ".gt")
    r = _run("--config", str(cfg), "perceive", "--frames", str(frames),
             "--gt", str(frames) + ".gt", "--out", str(tmp_path / "r.bin"))
    assert r.returncode == 2
    assert "preprocess" in r.stderr


def test_runtime_error_exits_2(tmp_path):
    cfg = _write_cfg(tmp_path)
    r = _run("--config", str(cfg), "perceive", "--frames", str(tmp_path / "missing.bin"),
             "--out", str(tmp_path / "out.bin"))
    assert r.returncode == 2
    assert "error" in r.stderr


def test_config_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"wat": 1}))
    r = _run("--config", str(bad), "simulate", "--out", str(tmp_path / "f.bin"))
    assert r.returncode == 2
    assert "wat" in r.stderr


def test_simulate_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert main(["--config", str(cfg), "simulate", "--out", str(a)]) == 0
    assert main(["--config", str(cfg), "simulate", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.bin.gt").read_bytes() == (tmp_path / "b.bin.gt").read_bytes()


def test_simulate_seed_changes_bytes(tmp_path):
    cfg = _write_cfg(tmp_path)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    main(["--config", str(cfg), "simulate", "--out", str(a)])
    main(["--config", str(cfg), "--seed", "7", "simulate", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_simulate_zero_duration_gives_empty_valid_files(tmp_path):
    cfg = _write_cfg(tmp_path, {"scene": {"duration": 0.0}})
    out = tmp_path / "f.bin"
    assert main(["--config", str(cfg), "simulate", "--out", str(out)]) == 0
    assert read_frames(out) == []
    assert read_ground_truth(str(out) + ".gt") == []


def test_ground_truth_agent_count_matches_config(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "f.bin"
    main(["--config", str(cfg), "simulate", "--out", str(out)])
    gt = read_ground_truth(str(out) + ".gt")
    n_config = len(json.loads((REPO_ROOT / "config.sample.json").read_text())["scene"]["agents"])
    assert all(len(fr.agents) == n_config for fr in gt)
    assert len(gt) == 10


def test_perceive_file_out_and_eval_perfect(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    results = tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    assert main(["--config", str(cfg), "perceive", "--frames", str(frames),
                 "--gt", str(frames) + ".gt", "--out", str(results)]) == 0
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "eval", "--gt", str(frames) + ".gt",
                 "--results", str(results), "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["precision"] == 1.0
    assert data["recall"] == 1.0
    assert data["miss"] == 0.0


def test_perceive_deterministic_bytes(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    outs = []
    for name in ("r1.bin", "r2.bin"):
        out = tmp_path / name
        main(["--config", str(cfg), "perceive", "--frames", str(frames),
              "--gt", str(frames) + ".gt", "--out", str(out)])
        outs.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert outs[0] == outs[1]


def test_negative_seed_runs_end_to_end(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames, results = tmp_path / "f.bin", tmp_path / "r.bin"
    assert main(["--config", str(cfg), "--seed", "-1", "simulate", "--out", str(frames)]) == 0
    assert main(["--config", str(cfg), "--seed", "-1", "perceive", "--frames", str(frames),
                 "--gt", str(frames) + ".gt", "--out", str(results)]) == 0
    assert len(results.read_bytes()) > 0


def test_perceive_skips_a_repeated_frame(tmp_path, capsys):
    from roadeye.scene import write_frames, write_ground_truth

    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    fr, gt = read_frames(frames), read_ground_truth(str(frames) + ".gt")
    repeated = tmp_path / "repeated.bin"
    write_frames(fr[:5] + fr[4:], repeated)
    write_ground_truth(gt[:5] + gt[4:], str(repeated) + ".gt")
    outs = []
    for src in (frames, repeated):
        out = tmp_path / f"{src.stem}.out"
        assert main(["--config", str(cfg), "perceive", "--frames", str(src),
                     "--gt", str(src) + ".gt", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[1] == outs[0]
    assert "perceived 10 frames, skipped 1" in capsys.readouterr().err


def test_perceive_empty_frame_file(tmp_path):
    from roadeye.scene import write_frames

    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "empty.bin"
    write_frames([], frames)
    from roadeye.scene import write_ground_truth
    write_ground_truth([], str(frames) + ".gt")
    out = tmp_path / "r.bin"
    assert main(["--config", str(cfg), "perceive", "--frames", str(frames),
                 "--gt", str(frames) + ".gt", "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_perceive_with_gcp_file(tmp_path):
    # GCPs sampled from the surveyed-location transform reproduce it, so the
    # fitted chain stays consistent with the default run at eval tolerance.
    from roadeye.config import load_config
    from roadeye.geoloc import enu_to_ecef_transform

    cfg_obj = load_config()
    t = enu_to_ecef_transform(cfg_obj.sensor_geodetic())
    lines = []
    pts = [(0.0, 0.0, 0.0), (30.0, 0.0, 1.0), (0.0, 25.0, 2.0), (-20.0, 15.0, 0.5)]
    for p in pts:
        q = t.apply_point(p)
        lines.append(f"{p[0]} {p[1]} {p[2]} {q[0]:.6f} {q[1]:.6f} {q[2]:.6f}")
    gcp_path = tmp_path / "gcps.txt"
    gcp_path.write_text("\n".join(lines) + "\n")
    cfg = _write_cfg(tmp_path, {"geoloc": {"gcp_file": str(gcp_path)}})
    frames = tmp_path / "f.bin"
    results = tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    assert main(["--config", str(cfg), "perceive", "--frames", str(frames),
                 "--gt", str(frames) + ".gt", "--out", str(results)]) == 0
    report = tmp_path / "report.json"
    main(["--config", str(cfg), "eval", "--gt", str(frames) + ".gt",
          "--results", str(results), "--json", str(report)])
    assert json.loads(report.read_text())["recall"] == 1.0


def test_eval_scores_yawed_sensor_georeferenced_by_gcps(tmp_path):
    # GCPs surveyed for a 30 deg yawed sensor: lidar points through the
    # simulator's pose, ECEF from the world frame, which is ENU about the
    # ground below the sensor. The decoded positions are exact; eval used to
    # map them back through the pipeline's unyawed chain and matched nothing.
    import numpy as np

    from roadeye.geoloc import enu_to_ecef_transform
    from roadeye.geometry import RigidTransform

    scene = {"duration": 1.0, "sensor_yaw_deg": 30.0}
    cfg_obj = load_config(overrides={"scene": scene})
    scenario = cfg_obj.scenario()
    ground_to_sensor = RigidTransform.from_translation([0.0, 0.0, -scenario.mount_height])
    world_to_ecef = enu_to_ecef_transform(cfg_obj.sensor_geodetic()) @ ground_to_sensor
    world = np.array([(0.0, 0.0, 0.0), (30.0, 0.0, 1.0), (0.0, 25.0, 2.0), (-20.0, 15.0, 0.5)])
    rows = np.column_stack([scenario.sensor_pose.apply_points(world),
                            world_to_ecef.apply_points(world)])
    gcp_path = tmp_path / "gcps.txt"
    gcp_path.write_text("".join(" ".join(f"{v:.6f}" for v in row) + "\n" for row in rows))
    cfg = _write_cfg(tmp_path, {"scene": scene, "geoloc": {"gcp_file": str(gcp_path)}})
    frames = tmp_path / "f.bin"
    results = tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    assert main(["--config", str(cfg), "perceive", "--frames", str(frames),
                 "--gt", str(frames) + ".gt", "--out", str(results)]) == 0
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "eval", "--gt", str(frames) + ".gt",
                 "--results", str(results), "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["recall"] == 1.0
    assert data["precision"] == 1.0


def _cluster_eval_kept_shares(tmp_path, monkeypatch, pitch_deg):
    """Simulate, perceive and eval the default 2 s scene with the cluster
    backend at voxel 1.2; return the eval recall and the share of points the
    geofence keeps in each frame."""
    from roadeye import pipeline as pipeline_mod
    from roadeye.preproc import geofence

    shares = []

    def counting_geofence(frame, bounds):
        out = geofence(frame, bounds)
        shares.append(len(out) / len(frame))
        return out

    monkeypatch.setattr(pipeline_mod, "geofence", counting_geofence)
    run = tmp_path / f"pitch{pitch_deg}"
    run.mkdir()
    cfg = _write_cfg(run, {"scene": {"duration": 2.0, "sensor_pitch_deg": pitch_deg},
                           "detector": {"backend": "cluster", "cluster": {"voxel": 1.2}}})
    frames, results, report = run / "f.bin", run / "r.bin", run / "report.json"
    assert main(["--config", str(cfg), "simulate", "--out", str(frames)]) == 0
    assert main(["--config", str(cfg), "perceive", "--frames", str(frames),
                 "--out", str(results)]) == 0
    assert main(["--config", str(cfg), "eval", "--gt", str(frames) + ".gt",
                 "--results", str(results), "--json", str(report)]) == 0
    return json.loads(report.read_text())["recall"], shares


def test_geofence_bounds_hold_for_a_pitched_sensor(tmp_path, monkeypatch):
    # The bounds hold in H-Coor. Cropping the L-Coor frame before leveling
    # kept 53 % of the points at a 5 deg pitch and cut recall 0.84 -> 0.54.
    level_recall, _ = _cluster_eval_kept_shares(tmp_path, monkeypatch, 0.0)
    pitched_recall, shares = _cluster_eval_kept_shares(tmp_path, monkeypatch, 5.0)
    assert len(shares) == 20
    assert min(shares) >= 0.99
    assert abs(pitched_recall - level_recall) <= 0.02


def test_perceive_rejects_sensor_yaw_without_gcps(tmp_path, capsys):
    # Without GCPs the pipeline takes the sensor x axis to point east, so a
    # yawed sensor would georeference every object 2 r sin(yaw / 2) off.
    cfg = _write_cfg(tmp_path, {"scene": {"duration": 0.2, "sensor_yaw_deg": 30.0}})
    frames = tmp_path / "f.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    capsys.readouterr()
    assert main(["--config", str(cfg), "perceive", "--frames", str(frames),
                 "--gt", str(frames) + ".gt", "--out", str(tmp_path / "r.bin")]) == 2
    err = capsys.readouterr().err
    assert "scene.sensor_yaw_deg" in err and "geoloc.gcp_file" in err


def test_perceive_oracle_requires_gt(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    r = _run("--config", str(cfg), "perceive", "--frames", str(frames),
             "--out", str(tmp_path / "r.bin"))
    assert r.returncode == 2
    assert "gt" in r.stderr.lower()


def test_perceive_tap_writes_json_lines(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    tap = tmp_path / "tap.jsonl"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    main(["--config", str(cfg), "--tap", str(tap), "perceive", "--frames", str(frames),
          "--gt", str(frames) + ".gt", "--out", str(tmp_path / "r.bin")])
    lines = tap.read_text().strip().splitlines()
    assert lines
    rec = json.loads(lines[0])
    assert set(rec) == {"t", "id", "lat", "lon", "alt", "w", "l", "h", "theta", "cls"}
    # The default scene has vehicles and a pedestrian; the oracle keeps their classes.
    assert {json.loads(line)["cls"] for line in lines} == {0, 1}


def test_perceive_without_output_keeps_tap_file(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    tap = tmp_path / "tap.jsonl"
    tap.write_text("earlier run\n")
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    assert main(["--config", str(cfg), "--tap", str(tap), "perceive", "--frames", str(frames),
                 "--gt", str(frames) + ".gt"]) == 2
    assert tap.read_text() == "earlier run\n"


def test_perceive_unreachable_relay_keeps_output_files(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    out, tap = tmp_path / "out.bin", tmp_path / "tap.jsonl"
    out.write_bytes(b"earlier frames")
    tap.write_text("earlier run\n")
    with socket.socket() as s:  # a port that was bound and then closed
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    r = _run("--config", str(cfg), "--tap", str(tap), "perceive", "--frames", str(frames),
             "--gt", str(frames) + ".gt", "--out", str(out), "--relay", f"127.0.0.1:{port}")
    assert r.returncode == 2
    assert out.read_bytes() == b"earlier frames"
    assert tap.read_text() == "earlier run\n"


def test_perceive_wall_stamps(tmp_path):
    # Wall-clock stamps break byte determinism but stay ordered per frame.
    from roadeye.wire import iter_frames_from_file, decode_frame

    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    out = tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    main(["--config", str(cfg), "perceive", "--frames", str(frames),
          "--gt", str(frames) + ".gt", "--out", str(out), "--wall-stamps"])
    for raw in iter_frames_from_file(out):
        s = decode_frame(raw).stamps
        assert s.t_sensor <= s.t_edge_in <= s.t_edge_out
        assert s.t_sensor > 1e9  # epoch seconds, not simulated time


def test_eval_zero_dist_threshold_rejected(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    results = tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    main(["--config", str(cfg), "perceive", "--frames", str(frames),
          "--gt", str(frames) + ".gt", "--out", str(results)])
    assert main(["--config", str(cfg), "eval", "--gt", str(frames) + ".gt",
                 "--results", str(results), "--dist-threshold", "0"]) == 2


def test_eval_scores_a_run_that_skipped_a_repeated_frame(tmp_path, capsys):
    from roadeye.scene import write_frames, write_ground_truth

    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    fr, gt = read_frames(frames), read_ground_truth(str(frames) + ".gt")
    repeated, results = tmp_path / "repeated.bin", tmp_path / "r.bin"
    write_frames(fr[:4] + fr[3:], repeated)
    write_ground_truth(gt[:4] + gt[3:], str(repeated) + ".gt")
    assert main(["--config", str(cfg), "perceive", "--frames", str(repeated),
                 "--gt", str(repeated) + ".gt", "--out", str(results)]) == 0
    report = tmp_path / "report.json"
    assert main(["--config", str(cfg), "eval", "--gt", str(repeated) + ".gt",
                 "--results", str(results), "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["precision"] == 1.0 and data["recall"] == 1.0
    # A truth file whose times are not the frames' is refused by both.
    shifted = tmp_path / "shifted.gt"
    write_ground_truth([dataclasses.replace(g, t=g.t + 0.05) for g in gt], shifted)
    capsys.readouterr()
    assert main(["--config", str(cfg), "perceive", "--frames", str(frames),
                 "--gt", str(shifted), "--out", str(tmp_path / "x.bin")]) == 2
    assert "frame 0 is at t=0.0 but its ground truth at t=0.05" in capsys.readouterr().err
    assert main(["--config", str(cfg), "eval", "--gt", str(shifted),
                 "--results", str(results)]) == 2
    assert "result frame 0 is at t=0.0 but its ground truth at t=0.05" in capsys.readouterr().err


def _patch_frame_time(path, k, t, record_bytes):
    """Set frame k's time in the bytes of a frame or ground-truth file."""
    data = bytearray(path.read_bytes())
    off = 8  # the file header: magic, frame count
    for _ in range(k):
        off += 12 + record_bytes * struct.unpack_from("<dI", data, off)[1]
    struct.pack_into("<d", data, off, t)
    path.write_bytes(bytes(data))


def test_perceive_and_eval_skip_a_frame_whose_time_goes_back(tmp_path, capsys):
    from roadeye.scene import write_frames, write_ground_truth

    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    fr, gt = read_frames(frames), read_ground_truth(str(frames) + ".gt")
    assert [f.t for f in fr[4:6]] == [0.4, 0.5]
    _patch_frame_time(frames, 5, 0.35, 16)
    _patch_frame_time(tmp_path / "f.bin.gt", 5, 0.35, 69)
    dropped = tmp_path / "dropped.bin"
    write_frames(fr[:5] + fr[6:], dropped)
    write_ground_truth(gt[:5] + gt[6:], str(dropped) + ".gt")
    runs = []
    for src in (frames, dropped):
        out, report = tmp_path / f"{src.stem}.out", tmp_path / f"{src.stem}.json"
        capsys.readouterr()
        assert main(["--config", str(cfg), "perceive", "--frames", str(src),
                     "--gt", str(src) + ".gt", "--out", str(out)]) == 0
        skipped = 1 if src == frames else 0
        assert (f"perceived 9 frames, skipped {skipped} not later than the last kept frame"
                in capsys.readouterr().err)
        assert main(["--config", str(cfg), "eval", "--gt", str(src) + ".gt",
                     "--results", str(out), "--json", str(report)]) == 0
        runs.append((out.read_bytes(), json.loads(report.read_text())["counts"]))
    assert runs[1] == runs[0]
    assert runs[0][1]["ground_truth"] == sum(len(g.agents) for g in gt[:5] + gt[6:])


def test_eval_detections_carry_each_record_class_and_id(tmp_path):
    from roadeye.cli import _messages_to_world_detections
    from roadeye.evaluate import match_detections
    from roadeye.wire import decode_frame, iter_frames_from_file

    cfg = _write_cfg(tmp_path)
    frames, results = tmp_path / "f.bin", tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    main(["--config", str(cfg), "perceive", "--frames", str(frames),
          "--gt", str(frames) + ".gt", "--out", str(results)])
    gt, seen = read_ground_truth(str(frames) + ".gt"), set()
    for raw, truth in zip(iter_frames_from_file(results), gt):
        msgs = decode_frame(raw).messages
        dets = _messages_to_world_detections(msgs, load_config(cfg))
        assert dets.cls.tolist() == [m.cls for m in msgs]
        assert dets.id.tolist() == [m.id for m in msgs]
        seen.update(zip(dets.cls.tolist(), dets.id.tolist()))
        # Matching reads neither field.
        blank = dets.copy()
        blank.cls, blank.id = 0, 0
        boxes = [a.as_box() for a in truth.agents]
        assert match_detections(boxes, dets) == match_detections(boxes, blank)
    assert {c for c, _ in seen} == {0, 1} and len({i for _, i in seen}) > 1


@pytest.mark.parametrize("order, skipped", [
    ([0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 1),
    ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9], 1),
    ([0, 1, 2, 3, 4, 4, 4, 5, 6, 7, 8, 9], 2),
], ids=["first-pair", "last-frame", "three-in-a-row"])
def test_perceive_and_eval_keep_the_same_frames(tmp_path, capsys, order, skipped):
    from roadeye.scene import kept_frames, write_frames, write_ground_truth

    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    fr, gt = read_frames(frames), read_ground_truth(str(frames) + ".gt")
    repeated = tmp_path / "repeated.bin"
    write_frames([fr[k] for k in order], repeated)
    write_ground_truth([gt[k] for k in order], str(repeated) + ".gt")
    first = [order.index(k) for k in range(10)]  # the first frame at each time
    assert kept_frames(read_frames(repeated)) == first
    assert kept_frames(read_ground_truth(str(repeated) + ".gt")) == first
    runs = []
    for src in (frames, repeated):
        out, report = tmp_path / f"{src.stem}.out", tmp_path / f"{src.stem}.json"
        capsys.readouterr()
        assert main(["--config", str(cfg), "perceive", "--frames", str(src),
                     "--gt", str(src) + ".gt", "--out", str(out)]) == 0
        assert f"skipped {skipped if src == repeated else 0} " in capsys.readouterr().err
        assert main(["--config", str(cfg), "eval", "--gt", str(src) + ".gt",
                     "--results", str(out), "--json", str(report)]) == 0
        runs.append((out.read_bytes(), json.loads(report.read_text())["counts"]))
    assert runs[1] == runs[0]


def test_eval_result_frame_count_mismatch_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    results = tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    main(["--config", str(cfg), "perceive", "--frames", str(frames),
          "--gt", str(frames) + ".gt", "--out", str(results)])
    from roadeye.wire import iter_frames_from_file

    short = tmp_path / "short.bin"
    short.write_bytes(b"".join(list(iter_frames_from_file(results))[:-1]))
    capsys.readouterr()
    assert main(["--config", str(cfg), "eval", "--gt", str(frames) + ".gt",
                 "--results", str(short)]) == 2
    assert "9 result frames but 10 ground-truth frames" in capsys.readouterr().err


_NO_SCIPY = """
import json, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
from roadeye.cli import main

cfg, cluster, frames = sys.argv[1:4]
codes = [
    main(["--config", cfg, "simulate", "--out", frames]),
    main(["--config", cfg, "perceive", "--frames", frames, "--gt", frames + ".gt",
          "--out", frames + ".oracle"]),
    main(["--config", cluster, "perceive", "--frames", frames, "--out", frames + ".cluster"]),
    main(["bench", "--frames", "3", "--points", "2000"]),
]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # No command needs scipy at run time: with every scipy import refused,
    # simulate, perceive on both backends and bench still succeed.
    cfg = _write_cfg(tmp_path)
    cluster = tmp_path / "cluster.json"
    cluster.write_text(json.dumps({"scene": {"duration": 1.0},
                                   "detector": {"backend": "cluster"}}))
    r = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(cfg), str(cluster),
                        str(tmp_path / "f.bin")], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.strip().splitlines()[-1]) == [[0, 0, 0, 0], []]


def test_eval_counts_mode(tmp_path):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"tp": 1389, "fp": 43, "ground_truth": 1661}))
    report = tmp_path / "report.json"
    r = _run("eval", "--counts", str(counts), "--json", str(report))
    assert r.returncode == 0
    assert "precision" in r.stdout
    data = json.loads(report.read_text())
    assert abs(100 * data["precision"] - 96.99) <= 0.01
    assert abs(100 * data["recall"] - 83.62) <= 0.01
    assert abs(100 * data["miss"] - 16.38) <= 0.01


def test_onboard_without_relay_reports_connection_refused(tmp_path):
    r = _run("onboard", "--out-dir", str(tmp_path / "renders"),
             "--connect", "127.0.0.1:1", "--connect-timeout", "0.5")
    assert r.returncode == 2
    assert "connect" in r.stderr.lower()


def test_onboard_renders_frames_that_arrive_already_stamped(tmp_path):
    # The codec carries an onboard stamp, so a relayed frame may hold one;
    # the subscriber overwrites it with its own arrival time.
    from roadeye.relay import RelayServer, connect_publisher
    from roadeye.wire import PhaseStamps, encode_frame

    renders = tmp_path / "renders"
    stamps = tmp_path / "stamps.jsonl"
    server = RelayServer().start()
    proc = None
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "roadeye", "onboard", "--out-dir", str(renders),
             "--connect", f"{server.host}:{server.port}", "--max-frames", "2",
             "--stamps", str(stamps)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert "connected" in proc.stdout.readline()
        deadline = time.monotonic() + 10.0
        while server.subscriber_count == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        with connect_publisher(f"{server.host}:{server.port}") as pub:
            pub.sendall(encode_frame([], PhaseStamps(1.0, 2.0, 3.0, 4.0), t_frame=0.0))
            pub.sendall(encode_frame([], PhaseStamps(1.0, 2.0, 3.0), t_frame=0.1))
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        server.stop()
    assert len(list(renders.glob("render_*.svg"))) == 2
    first, second = [json.loads(line) for line in stamps.read_text().splitlines()]
    assert first[:3] == [1.0, 2.0, 3.0]
    assert first[3] > 1e9  # the subscriber's wall clock, not the relayed 4.0
    assert second[3] > 1e9


def test_cluster_backend_end_to_end(tmp_path):
    # Two vehicles kept near the sensor so the attenuated surface clouds
    # stay dense enough for the connected-component detector.
    cfg = _write_cfg(tmp_path, {
        "detector": {"backend": "cluster", "cluster": {"voxel": 0.5, "min_points": 20}},
        "scene": {
            "duration": 1.0,
            "ground_point_density": 0.05,
            "points_per_agent": 800,
            "agents": [
                {"class": "vehicle", "route": [[-12.0, -3.5], [12.0, -3.5]], "speed": 8.0},
                {"class": "vehicle", "route": [[12.0, 3.5], [-12.0, 3.5]], "speed": 7.0},
            ],
        },
    })
    frames = tmp_path / "f.bin"
    results = tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    assert main(["--config", str(cfg), "perceive", "--frames", str(frames),
                 "--out", str(results)]) == 0
    report = tmp_path / "report.json"
    main(["--config", str(cfg), "eval", "--gt", str(frames) + ".gt",
          "--results", str(results), "--json", str(report)])
    data = json.loads(report.read_text())
    # Clustered surface points of clean synthetic boxes track ground truth.
    assert data["recall"] >= 0.9
    assert data["precision"] >= 0.9


def test_bench_times_no_set_up(tmp_path, monkeypatch):
    # A ground calibration that takes 0.3 s must not reach any timed stage.
    from roadeye import pipeline as pipeline_mod

    calibrate = pipeline_mod.estimate_ground_calibration

    def slow_calibration(*args):
        time.sleep(0.3)
        return calibrate(*args)

    monkeypatch.setattr(pipeline_mod, "estimate_ground_calibration", slow_calibration)
    report = tmp_path / "bench.json"
    assert main(["bench", "--frames", "6", "--points", "3000", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["stage_preprocess_p95_ms"] < 100.0
    assert data["phase2_p95_ms"] < 100.0
    assert data["frames"] == 5  # frame 0 runs once, untimed
    # Phase 1 is the timed pre-processor, phase 3 the timed onboard side.
    assert data["phase1_ms"] == data["stage_preprocess_ms"]
    assert data["phase3_ms"] == data["stage_onboard_ms"] > 0


def test_bench_json_keys_pinned(tmp_path):
    report = tmp_path / "bench.json"
    assert main(["bench", "--frames", "3", "--points", "2000", "--json", str(report)]) == 0
    stages = ("preprocess", "detection", "tracking", "geolocalization", "encoding", "onboard")
    assert list(json.loads(report.read_text())) == [
        "frames", "phase1_ms", "phase2_ms", "phase3_ms", "total_ms",
        "phase1_p95_ms", "phase2_p95_ms", "phase3_p95_ms", "total_p95_ms", "throughput_hz",
        *(key for name in stages for key in (f"stage_{name}_ms", f"stage_{name}_p95_ms")),
    ]
