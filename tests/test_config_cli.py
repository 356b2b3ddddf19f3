import hashlib
import json
import subprocess
import sys
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


def test_sample_config_matches_defaults():
    sample = json.loads((REPO_ROOT / "config.sample.json").read_text())
    assert sample == DEFAULTS


def test_typed_accessors():
    cfg = load_config()
    assert cfg.geofence_bounds().x_min == -51.2
    assert cfg.tracker_config().n_init == 3
    assert cfg.detector_noise().p_miss == 0.0
    assert cfg.cluster_params().ground_z == -4.74
    scenario = cfg.scenario()
    assert len(scenario.agents) == 4
    assert cfg.pixel_map().viewport == (800.0, 800.0)


def test_bad_agent_spec_diagnosed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"scene": {"agents": [{"class": "dragon", "route": [[0, 0]], "speed": 1.0}]}}
    ))
    with pytest.raises(ConfigError, match=r"agents\[0\]"):
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
    assert set(rec) == {"t", "id", "lat", "lon", "alt", "w", "l", "h", "theta"}


def test_perceive_without_output_keeps_tap_file(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    tap = tmp_path / "tap.jsonl"
    tap.write_text("earlier run\n")
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    assert main(["--config", str(cfg), "--tap", str(tap), "perceive", "--frames", str(frames),
                 "--gt", str(frames) + ".gt"]) == 2
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


def test_nearest_lift_mode_plumbed(tmp_path):
    cfg = _write_cfg(tmp_path, {"tracker": {"lift": "nearest"}})
    frames = tmp_path / "f.bin"
    out = tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    assert main(["--config", str(cfg), "perceive", "--frames", str(frames),
                 "--gt", str(frames) + ".gt", "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    main(["--config", str(cfg), "eval", "--gt", str(frames) + ".gt",
          "--results", str(out), "--json", str(report)])
    assert json.loads(report.read_text())["recall"] == 1.0


def test_eval_zero_dist_threshold_rejected(tmp_path):
    cfg = _write_cfg(tmp_path)
    frames = tmp_path / "f.bin"
    results = tmp_path / "r.bin"
    main(["--config", str(cfg), "simulate", "--out", str(frames)])
    main(["--config", str(cfg), "perceive", "--frames", str(frames),
          "--gt", str(frames) + ".gt", "--out", str(results)])
    assert main(["--config", str(cfg), "eval", "--gt", str(frames) + ".gt",
                 "--results", str(results), "--dist-threshold", "0"]) == 2


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
