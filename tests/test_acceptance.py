"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either derived from an in-test oracle or
asserted at its stated tolerance.
"""

import hashlib
import itertools
import json
import math
import socket
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import pdist

from roadeye.detect import (
    BoxResiduals,
    DetectorNoise,
    decode_box_residuals,
    detect_oracle,
    direction_flipped,
    encode_box_residuals,
    focal_loss,
    localization_loss,
    smooth_l1,
    total_loss,
)
from roadeye.evaluate import ConfusionCounts, compute_metrics
from roadeye.geoloc import (
    EcefPos,
    GcpCorrespondence,
    GeodeticPos,
    ecef_to_geodetic,
    estimate_ecef_transform,
    geodetic_latitude,
    geodetic_to_ecef,
)
from roadeye.geometry import ObjectClass, OrientedBox3D
from roadeye.onboard import build_pixel_map, gps_to_pixel, offset_geodetic
from roadeye.scene import AgentSpec, ScenarioConfig, step_scenario
from roadeye.track import GATE_COST, Tracker2D, TrackerConfig, track_frame
from roadeye.wire import PerceptionMessage, PhaseStamps, decode_frame, encode_frame

from conftest import random_rigid

VEHICLE_DIMS = (2.0, 4.5, 1.6)
PED_DIMS = (0.6, 0.6, 1.7)


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


# -- 1 ------------------------------------------------------------------------

def test_criterion_1_reported_rate_arithmetic():
    counts = ConfusionCounts(tp=1389, fp=43, fn=1661 - 1389)
    r = compute_metrics(counts)
    assert abs(100 * r.precision - 96.99) <= 0.01
    assert abs(100 * r.recall - 83.62) <= 0.01
    assert abs(100 * r.miss - 16.38) <= 0.01
    _passed(1, "precision/recall/miss reproduce the reference counts within 0.01 pp")


# -- 2 ------------------------------------------------------------------------

def test_criterion_2_geodetic_roundtrip_10k():
    rng = np.random.default_rng(20240811)
    worst_ang, worst_alt, worst_iter = 0.0, 0.0, 0
    for _ in range(10000):
        lat = rng.uniform(-89.9, 89.9)
        lon = rng.uniform(-180.0, 180.0)
        alt = rng.uniform(-100.0, 9000.0)
        e = geodetic_to_ecef(GeodeticPos(lat, lon, alt))
        g = ecef_to_geodetic(e)
        _, iters = geodetic_latitude(e.Z, math.hypot(e.X, e.Y))
        worst_ang = max(worst_ang, abs(g.lat - lat), abs(math.remainder(g.lon - lon, 360.0)))
        worst_alt = max(worst_alt, abs(g.alt - alt))
        worst_iter = max(worst_iter, iters)
    assert worst_ang <= 1e-9
    assert worst_alt <= 1e-6
    assert worst_iter <= 5
    _passed(2, f"10k roundtrips: angle err {worst_ang:.2e} deg, alt err {worst_alt:.2e} m, "
               f"max {worst_iter} iterations")


# -- 3 ------------------------------------------------------------------------

def test_criterion_3_rigid_transform_properties():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(1000):
        t = random_rigid(rng)
        pts = rng.uniform(-50.0, 50.0, (100, 3))
        d0 = pdist(pts)
        d1 = pdist(t.apply_points(pts))
        worst = max(worst, float(np.max(np.abs(d0 - d1))))
    assert worst <= 1e-9

    worst_fit = 0.0
    for _ in range(500):
        t = random_rigid(rng)
        pts = rng.uniform(-50.0, 50.0, (10, 3))
        gcps = [GcpCorrespondence(p, EcefPos(*t.apply_point(p))) for p in pts]
        fit = estimate_ecef_transform(gcps)
        worst_fit = max(worst_fit, float(np.max(np.abs(fit.transform.matrix - t.matrix))))
    assert worst_fit <= 1e-9
    _passed(3, f"isometry err {worst:.2e} m over 1000 clouds; "
               f"500 registrations recovered within {worst_fit:.2e}")


# -- 4 ------------------------------------------------------------------------

def _scripted_scenario():
    specs = [
        AgentSpec(ObjectClass.VEHICLE, [[-45.0, -6.0], [45.0, -6.0]], 8.0, VEHICLE_DIMS),
        AgentSpec(ObjectClass.VEHICLE, [[-45.0, -2.0], [45.0, -2.0]], 9.0, VEHICLE_DIMS),
        AgentSpec(ObjectClass.VEHICLE, [[45.0, 2.0], [-45.0, 2.0]], 7.5, VEHICLE_DIMS),
        AgentSpec(ObjectClass.VEHICLE, [[45.0, 6.0], [-45.0, 6.0]], 8.5, VEHICLE_DIMS),
        AgentSpec(ObjectClass.PEDESTRIAN, [[30.0, 10.0], [30.0, 25.0]], 1.2, PED_DIMS),
        AgentSpec(ObjectClass.PEDESTRIAN, [[-30.0, 10.0], [-30.0, 25.0]], 1.2, PED_DIMS),
    ]
    return ScenarioConfig(agents=specs, duration=10.0, tick=0.1)


def _exhaustive_assignment_min(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The least total cost over every assignment of a square matrix's rows
    to its columns, and the column each row takes in that assignment."""
    best, best_perm = math.inf, ()
    for perm in itertools.permutations(range(cost.shape[0])):
        total = sum(cost[i, j] for i, j in enumerate(perm))
        if total < best:
            best, best_perm = total, perm
    return best, best_perm


def test_criterion_4_tracking_fidelity():
    from roadeye.evaluate import count_id_switches

    cfg = _scripted_scenario()
    tracker = Tracker2D(TrackerConfig())
    assignment_frames = []
    frames = 0
    for t in cfg.frame_times():
        frames += 1
        agents = step_scenario(cfg, float(t))
        dets = detect_oracle(agents, DetectorNoise(), seed=0)

        # Exhaustive assignment oracle over the predicted track positions,
        # padded to a square matrix with GATE_COST.
        before = tracker.tracks
        predicted = [(tr.mean[0] + tr.mean[4], tr.mean[1] + tr.mean[5]) for tr in before]
        next_id = tracker.next_id
        tracks = track_frame(tracker, dets, float(t))
        n = max(len(predicted), len(dets))
        assert n <= 7
        gate = tracker.config.gate_assoc
        cost = np.full((n, n), GATE_COST)
        for r, (px, py) in enumerate(predicted):
            for c, d in enumerate(dets):
                dist = math.hypot(px - d.box.x, py - d.box.y)
                if dist <= gate:
                    cost[r, c] = dist
        _, perm = _exhaustive_assignment_min(cost)
        pairs = [(r, c) for r, c in enumerate(perm) if cost[r, c] < GATE_COST]
        if predicted:
            assert len(pairs) == len(dets) == len(predicted)  # scripted frames fully match
        assert tracker.last_assignment_cost == pytest.approx(
            sum(cost[r, c] for r, c in pairs), abs=1e-9
        )

        # Id oracle: each row carries the id of the track the assignment gave
        # it, or of the track it started (new ids in row order), while that
        # track's updated centre lies strictly within d_o of the row; else -1.
        assigned = {c: before[r].id for r, c in pairs}
        started = iter(range(next_id, next_id + len(dets)))
        centre = {tr.id: (tr.mean[0], tr.mean[1]) for tr in tracker.tracks}
        for c, (det, lifted) in enumerate(zip(dets, tracks)):
            tid = assigned[c] if c in assigned else next(started)
            x, y = centre[tid]
            inside = math.hypot(det.box.x - x, det.box.y - y) < tracker.config.d_o
            assert lifted.id == (tid if inside else -1)

        assignment_frames.append(
            [(a.agent_id, lifted.id) for a, lifted in zip(agents, tracks)]
        )
    assert frames == 100
    assert count_id_switches(assignment_frames) == 0
    final_ids = {tid for _, tid in assignment_frames[-1]}
    assert len(final_ids) == 6 and -1 not in final_ids
    _passed(4, "100 frames: zero id switches; assignment and ids match the oracles")


# -- 5 ------------------------------------------------------------------------

def test_criterion_5_loss_math():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(10000):
        anchor = OrientedBox3D(
            rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-5, 5),
            rng.uniform(0.5, 3.0), rng.uniform(0.5, 12.0), rng.uniform(0.5, 4.0),
            rng.uniform(-math.pi, math.pi),
        )
        delta = rng.uniform(-math.pi / 2, math.pi / 2)
        gt = OrientedBox3D(
            rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-5, 5),
            rng.uniform(0.5, 3.0), rng.uniform(0.5, 12.0), rng.uniform(0.5, 4.0),
            anchor.theta + delta,
        )
        r = encode_box_residuals(gt, anchor)
        out = decode_box_residuals(r, anchor, direction_flipped(gt.theta, anchor.theta))
        for a, b in zip(
            (out.x, out.y, out.z, out.w, out.l, out.h),
            (gt.x, gt.y, gt.z, gt.w, gt.l, gt.h),
        ):
            worst = max(worst, abs(a - b))
        worst = max(worst, abs(math.remainder(out.theta - gt.theta, 2 * math.pi)))
    assert worst <= 1e-12

    mpmath.mp.dps = 50
    worst_focal = 0.0
    for _ in range(500):
        p = float(rng.uniform(1e-6, 1.0))
        expected = float(
            -mpmath.mpf("0.25") * (1 - mpmath.mpf(p)) ** 2 * mpmath.log(mpmath.mpf(p))
        )
        worst_focal = max(worst_focal, abs(focal_loss(p) - expected))
    assert worst_focal <= 1e-12

    worst_loc = 0.0
    for _ in range(500):
        a = BoxResiduals(*rng.uniform(-3, 3, 6), rng.uniform(-1, 1))
        b = BoxResiduals(*rng.uniform(-3, 3, 6), rng.uniform(-1, 1))
        expected = mpmath.mpf(0)
        for x, y in zip(a.as_tuple(), b.as_tuple()):
            d = mpmath.mpf(x) - mpmath.mpf(y)
            expected += d * d / 2 if abs(d) < 1 else abs(d) - mpmath.mpf("0.5")
        worst_loc = max(worst_loc, abs(localization_loss(a, b) - float(expected)))
    assert worst_loc <= 1e-12

    # Hand computation with the default weights (2, 1, 0.2).
    assert total_loss(1.0, 1.0, 1.0, 1) == pytest.approx(3.2, abs=1e-15)
    assert total_loss(0.5, 2.0, 0.25, 2) == pytest.approx((2 * 0.5 + 1 * 2.0 + 0.2 * 0.25) / 2, abs=1e-15)
    assert smooth_l1(2.0) == 1.5
    _passed(5, f"roundtrip err {worst:.2e}; focal err {worst_focal:.2e}; "
               f"loc-loss err {worst_loc:.2e}; weighted total matches by hand")


# -- 6 ------------------------------------------------------------------------

def test_criterion_6_codec_roundtrip_1000_batches():
    rng = np.random.default_rng(20240811)
    for _ in range(1000):
        msgs = [
            PerceptionMessage(
                t=float(rng.uniform(0, 1000)),
                id=int(rng.integers(-1, 10000)),
                lat=float(rng.uniform(-90, 90)),
                lon=float(rng.uniform(-179.99, 180.0)),
                alt=float(rng.uniform(-100, 9000)),
                w=float(rng.uniform(0.4, 2.6)),
                l=float(rng.uniform(0.4, 12.0)),
                h=float(rng.uniform(1.3, 4.5)),
                theta=float(rng.uniform(0.0, 360.0)),
            )
            for _ in range(int(rng.integers(0, 10)))
        ]
        stamps = PhaseStamps(
            t_sensor=float(rng.uniform(0, 1)),
            t_edge_in=float(rng.uniform(1, 2)),
            t_edge_out=float(rng.uniform(2, 3)),
            t_onboard=None if rng.random() < 0.3 else float(rng.uniform(3, 4)),
        )
        t_frame = float(rng.uniform(0, 100))
        decoded = decode_frame(encode_frame(msgs, stamps, t_frame))
        assert decoded.messages == msgs
        assert decoded.stamps == stamps
        assert decoded.t_frame == t_frame
    _passed(6, "codec roundtrip exact on 1000 random batches")


def _free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def test_criterion_6_three_process_integration(tmp_path):
    port = _free_port()
    endpoint = f"127.0.0.1:{port}"
    n_frames = 20
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scene": {"duration": 2.0},
        "relay": {"bind": endpoint},
        "onboard": {"connect": endpoint},
    }))
    py = [sys.executable, "-m", "roadeye", "--config", str(cfg_path)]
    frames = tmp_path / "frames.bin"
    reference = tmp_path / "reference.bin"
    subprocess.run(py + ["simulate", "--out", str(frames)], check=True, capture_output=True)
    subprocess.run(
        py + ["perceive", "--frames", str(frames), "--gt", str(frames) + ".gt",
              "--out", str(reference)],
        check=True, capture_output=True,
    )

    relay = subprocess.Popen(py + ["relay"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    onboards = []
    try:
        assert "listening" in relay.stdout.readline()
        for k in (1, 2):
            p = subprocess.Popen(
                py + ["onboard", "--out-dir", str(tmp_path / f"renders{k}"),
                      "--record", str(tmp_path / f"rec{k}.bin"),
                      "--max-frames", str(n_frames)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            onboards.append(p)
        for p in onboards:
            assert "connected" in p.stdout.readline()
        subprocess.run(
            py + ["perceive", "--frames", str(frames), "--gt", str(frames) + ".gt",
                  "--relay", endpoint],
            check=True, capture_output=True, timeout=60,
        )
        for p in onboards:
            assert p.wait(timeout=60) == 0
    finally:
        relay.terminate()
        for p in onboards:
            if p.poll() is None:
                p.kill()
        relay.wait(timeout=10)

    ref_hash = hashlib.sha256(reference.read_bytes()).hexdigest()
    for k in (1, 2):
        rec = (tmp_path / f"rec{k}.bin").read_bytes()
        assert hashlib.sha256(rec).hexdigest() == ref_hash  # byte-identical delivery
        renders = sorted((tmp_path / f"renders{k}").glob("render_*.svg"))
        assert len(renders) == n_frames
    _passed(6, "relay delivered byte-identical frames to 2 subscribers; "
               f"{n_frames} render documents per subscriber")


# -- 7 ------------------------------------------------------------------------

def test_criterion_7_end_to_end_truth_run(tmp_path):
    py = [sys.executable, "-m", "roadeye"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scene": {"duration": 3.0}}))
    frames = tmp_path / "frames.bin"
    results = tmp_path / "results.bin"
    report = tmp_path / "report.json"
    subprocess.run(py + ["--config", str(cfg_path), "simulate", "--out", str(frames)],
                   check=True, capture_output=True)
    subprocess.run(
        py + ["--config", str(cfg_path), "perceive", "--frames", str(frames),
              "--gt", str(frames) + ".gt", "--out", str(results)],
        check=True, capture_output=True,
    )
    subprocess.run(
        py + ["--config", str(cfg_path), "eval", "--gt", str(frames) + ".gt",
              "--results", str(results), "--json", str(report)],
        check=True, capture_output=True,
    )
    data = json.loads(report.read_text())
    assert data["precision"] == 1.0
    assert data["recall"] == 1.0
    assert data["miss"] == 0.0
    _passed(7, "zero-noise oracle pipeline scores precision = recall = 1.0 exactly")


# -- 8 ------------------------------------------------------------------------

def test_criterion_8_bench_throughput(tmp_path):
    report_path = tmp_path / "bench.json"
    r = subprocess.run(
        [sys.executable, "-m", "roadeye", "bench", "--frames", "30",
         "--points", "20000", "--json", str(report_path)],
        check=True, capture_output=True, text=True,
    )
    data = json.loads(report_path.read_text())
    assert data["throughput_hz"] >= 10.0
    for key in ("phase1_ms", "phase2_ms", "phase3_ms"):
        assert key in data
    for stage in ("detection", "tracking", "geolocalization", "encoding"):
        assert f"stage_{stage}_ms" in data
    mean_points = float(r.stdout.split("mean points/frame:")[1].split()[0])
    assert mean_points >= 20000
    _passed(8, f"bench sustained {data['throughput_hz']:.1f} Hz on "
               f"{mean_points:.0f}-point frames with all three phases and the "
               "stage breakdown reported")


# -- 9 ------------------------------------------------------------------------

def test_criterion_9_reconstruction_anchor_fidelity():
    origin = GeodeticPos(40.0, -105.0, 0.0)
    ref_a = offset_geodetic(origin, -51.2, -51.2)
    ref_b = offset_geodetic(origin, 51.2, 51.2)
    pixel_map = build_pixel_map(ref_a, (0.0, 800.0), ref_b, (800.0, 0.0),
                                viewport=(800.0, 800.0))
    for gps, px in ((ref_a, (0.0, 800.0)), (ref_b, (800.0, 0.0))):
        u, v = gps_to_pixel(pixel_map, gps)
        assert math.hypot(u - px[0], v - px[1]) <= 1.0

    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(1000):
        east = rng.uniform(-51.2, 51.2)
        north = rng.uniform(-51.2, 51.2)
        g = offset_geodetic(origin, east, north)
        u, v = gps_to_pixel(pixel_map, g)
        # Independent equirectangular oracle about reference A.
        de = 6378137.0 * math.cos(math.radians(ref_a.lat)) * math.radians(g.lon - ref_a.lon)
        dn = 6378137.0 * math.radians(g.lat - ref_a.lat)
        eu = 0.0 + de / pixel_map.meters_per_pixel_x
        ev = 800.0 + dn / pixel_map.meters_per_pixel_y
        worst = max(worst, math.hypot(u - eu, v - ev))
        assert 0.0 <= u <= 800.0 and 0.0 <= v <= 800.0
    assert worst <= 1.0
    _passed(9, f"anchors within 1 px; 1000 in-viewport points within {worst:.2e} px of the oracle")
