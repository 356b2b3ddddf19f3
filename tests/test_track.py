import itertools
import math

import numpy as np
import pytest

from roadeye.detect import Detection, DetectorNoise, detect_oracle
from roadeye.geometry import ObjectClass, OrientedBox3D
from roadeye.scene import AgentSpec, ScenarioConfig, step_scenario
from roadeye.track import (
    Box2D,
    Tracker2D,
    TrackerConfig,
    lift_to_3d,
    project_to_2d,
    track_frame,
)

VEHICLE_DIMS = (2.0, 4.5, 1.6)
PED_DIMS = (0.6, 0.6, 1.7)


def _det(x, y, w=2.0, l=4.5, cls=ObjectClass.VEHICLE):
    h = 1.6 if cls is ObjectClass.VEHICLE else 1.7
    return Detection(box=OrientedBox3D(x, y, h / 2, w, l, h, 0.0), cls=cls, score=1.0)


# --- projection -------------------------------------------------------------

def _boxes(*rows):
    return np.array(rows, dtype=float).reshape(-1, 4)


def test_project_empty():
    assert project_to_2d([]).shape == (0, 4)


def test_project_drops_3d_fields():
    det = Detection(box=OrientedBox3D(1, 2, 3, 2, 4, 1.5, 0.3), cls=ObjectClass.VEHICLE, score=1.0)
    out = project_to_2d([det])
    assert out.tolist() == [[1.0, 2.0, 2.0, 4.0]]


def test_project_fieldwise(rng):
    dets = [_det(rng.uniform(-50, 50), rng.uniform(-50, 50),
                 w=rng.uniform(1.5, 2.6), l=rng.uniform(3.5, 12.0)) for _ in range(64)]
    out = project_to_2d(dets)
    assert out.shape == (len(dets), 4)
    for d, b in zip(dets, out):
        assert tuple(b) == (d.box.x, d.box.y, d.box.w, d.box.l)


# --- association ------------------------------------------------------------

def test_single_track_keeps_id_across_motion():
    tracker = Tracker2D(TrackerConfig(gate_assoc=2.0))
    tracker.associate(_boxes(0.0, 0.0, 2.0, 4.5))
    ids1 = tracker.ids.copy()
    tracker.associate(_boxes(0.5, 0.0, 2.0, 4.5))
    assert len(ids1) == len(tracker.ids) == 1
    assert ids1[0] == tracker.ids[0]


def test_two_distant_tracks_never_swap():
    tracker = Tracker2D(TrackerConfig())
    ids = set()
    for k in range(10):
        tracker.associate(_boxes(
            (-20.0 + 0.3 * k, 0.0, 2.0, 4.5),
            (20.0 - 0.3 * k, 0.0, 2.0, 4.5),
        ))
        assert len(tracker.ids) == 2
        ids.add(tuple(sorted(tracker.ids.tolist())))
    assert len(ids) == 1  # the same two ids every frame


def _bruteforce_min_assignment(cost: np.ndarray) -> float:
    n = cost.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, j] for i, j in enumerate(perm)))
    return best


def test_assignment_matches_bruteforce_permutations(rng):
    for trial in range(20):
        n = 5
        tracker = Tracker2D(TrackerConfig(gate_assoc=1e6, n_init=1))
        first = [(*rng.uniform(-40, 40, 2), 2.0, 4.5) for _ in range(n)]
        tracker.associate(_boxes(*first))
        second = [(*rng.uniform(-40, 40, 2), 2.0, 4.5) for _ in range(n)]
        # Predicted track positions after one no-velocity step equal the means.
        predicted = tracker.mean[:, :2].tolist()
        cost = np.array([
            [math.hypot(px - x, py - y) for x, y, _, _ in second] for px, py in predicted
        ])
        tracker.associate(_boxes(*second))
        assert tracker.last_assignment_cost == pytest.approx(
            _bruteforce_min_assignment(cost), abs=1e-9
        )


def test_track_lifecycle_confirmation_and_deletion():
    cfg = TrackerConfig(n_init=3, max_age=2)
    tracker = Tracker2D(cfg)
    det = _boxes(0.0, 0.0, 2.0, 4.5)
    tracker.associate(det)
    assert not tracker.confirmed[0]
    tracker.associate(det)
    assert not tracker.confirmed[0]
    tracker.associate(det)
    assert tracker.confirmed[0]
    tracker.associate(_boxes())
    assert tracker.misses[0] == 1
    assert tracker.confirmed[0]  # a confirmed track stays confirmed through misses
    tracker.associate(_boxes())
    assert len(tracker.ids) == 0  # deleted after max_age consecutive misses
    assert tracker.tracks == []


def test_ids_monotonic_never_reused():
    tracker = Tracker2D(TrackerConfig(n_init=1, max_age=1))
    seen = []
    for k in range(5):
        tracker.associate(_boxes(float(100 * k), 0.0, 1.0, 1.0))
        seen.extend(i for i in tracker.ids.tolist() if i not in seen)
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_covariance_stays_psd(rng):
    tracker = Tracker2D(TrackerConfig())
    for k in range(30):
        tracker.associate(_boxes(float(k) * 0.4 + rng.normal(0, 0.1), rng.normal(0, 0.1), 2.0, 4.5))
        for cov in tracker.cov:
            eig = np.linalg.eigvalsh(cov)
            assert np.all(eig >= -1e-9)
            assert np.allclose(cov, cov.T, atol=1e-12)


# --- lift -------------------------------------------------------------------

def test_lift_inside_gate():
    out = lift_to_3d([_det(0.0, 0.0)], [7], [[0.5, 0.0]], d_o=2.0)
    assert out[0].id == 7


def test_lift_outside_gate_gives_sentinel():
    out = lift_to_3d([_det(0.0, 0.0)], [7], [[3.0, 0.0]], d_o=2.0)
    assert out[0].id == -1


def test_lift_first_vs_nearest():
    ids, xy = [1, 2], [[1.5, 0.0], [0.2, 0.0]]
    first = lift_to_3d([_det(0.0, 0.0)], ids, xy, d_o=2.0, mode="first")
    nearest = lift_to_3d([_det(0.0, 0.0)], ids, xy, d_o=2.0, mode="nearest")
    assert first[0].id == 1
    assert nearest[0].id == 2


def test_lift_matches_bruteforce_scan(rng):
    for _ in range(25):
        dets = [_det(*rng.uniform(-20, 20, 2)) for _ in range(20)]
        ids = rng.permutation(100)[:20]
        xy = rng.uniform(-20, 20, (20, 2))
        first = lift_to_3d(dets, ids, xy, d_o=3.0)
        nearest = lift_to_3d(dets, ids, xy, d_o=3.0, mode="nearest")
        for det, lifted, closest in zip(dets, first, nearest):
            expected_first, expected_nearest, best = -1, -1, math.inf
            for tid, (x, y) in zip(ids, xy):
                dist = math.hypot(det.box.x - x, det.box.y - y)
                if dist < 3.0 and expected_first == -1:
                    expected_first = tid
                if dist < 3.0 and dist < best:
                    expected_nearest, best = tid, dist
            assert lifted.id == expected_first
            assert closest.id == expected_nearest
            assert lifted.box == det.box and lifted.cls is det.cls


def test_lift_preserves_cardinality_and_payload(rng):
    dets = [_det(*rng.uniform(-20, 20, 2)) for _ in range(9)]
    for mode in ("first", "nearest"):
        out = lift_to_3d(dets, np.empty(0, dtype=int), np.empty((0, 2)), d_o=2.0, mode=mode)
        assert len(out) == len(dets)
        assert all(tr.id == -1 for tr in out)
    assert lift_to_3d([], [3], [[0.0, 0.0]], d_o=2.0) == []


# --- batched filter ---------------------------------------------------------

def _single_track_kalman(mean, cov, z, cfg):
    """Textbook Kalman predict, then update unless z is None: the reference
    for the batched filter."""
    f = np.eye(6)
    f[0, 4] = f[1, 5] = 1.0
    h = np.eye(4, 6)
    q, r = cfg.process_noise, cfg.measurement_noise
    mean = f @ mean
    cov = f @ cov @ f.T + np.diag([0.25 * q * q] * 2 + [0.01 * q * q] * 2 + [q * q] * 2)
    if z is None:
        return mean, cov
    k = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + np.eye(4) * r * r)
    return mean + k @ (z - h @ mean), (np.eye(6) - k @ h) @ cov


def test_batched_update_matches_single_track_kalman(rng):
    cfg = TrackerConfig(gate_assoc=5.0)
    tracker = Tracker2D(cfg)
    start = np.column_stack([np.arange(8) * 20.0, np.zeros(8), np.full(8, 2.0), np.full(8, 4.5)])
    tracker.associate(start)
    expected = [(m, c) for m, c in zip(tracker.mean, tracker.cov)]
    for k in range(1, 6):
        # Track 3 misses every other frame; the rest move with noise.
        z = start + [0.8 * k, 0.3 * k, 0.0, 0.0] + rng.normal(0, 0.1, start.shape)
        seen = np.arange(8) != 3 if k % 2 else np.ones(8, dtype=bool)
        tracker.associate(z[seen])
        expected = [
            _single_track_kalman(mean, cov, z[i] if seen[i] else None, cfg)
            for i, (mean, cov) in enumerate(expected)
        ]
        assert tracker.ids.tolist() == list(range(8))
        for i, (mean, cov) in enumerate(expected):
            assert np.allclose(tracker.mean[i], mean, atol=1e-12)
            assert np.allclose(tracker.cov[i], cov, atol=1e-12)
    assert tracker.hits.tolist() == [6, 6, 6, 0, 6, 6, 6, 6]
    assert tracker.misses.tolist() == [0, 0, 0, 1, 0, 0, 0, 0]


def test_tracks_snapshots_follow_the_arrays():
    tracker = Tracker2D(TrackerConfig(n_init=2))
    tracker.associate(_boxes((0.0, 0.0, 2.0, 4.5), (30.0, 0.0, 0.6, 0.6)))
    tracker.associate(_boxes((0.4, 0.0, 2.0, 4.5)))
    snaps = tracker.tracks
    assert [tr.id for tr in snaps] == tracker.ids.tolist() == [0, 1]
    assert [tr.confirmed for tr in snaps] == [True, False]
    assert [(tr.hits, tr.misses) for tr in snaps] == [(2, 0), (0, 1)]
    for tr, mean in zip(snaps, tracker.mean):
        assert tr.box == Box2D(*mean[:4])  # the box is the mean, not a second copy
    snaps[0].mean[0] = 99.0  # snapshots are copies
    assert tracker.mean[0, 0] != 99.0


# --- full per-frame step ----------------------------------------------------

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


def test_scripted_run_zero_id_switches():
    from roadeye.evaluate import count_id_switches

    cfg = _scripted_scenario()
    tracker = Tracker2D(TrackerConfig())
    assignment_frames = []
    for t in cfg.frame_times():
        agents = step_scenario(cfg, float(t))
        dets = detect_oracle(agents, DetectorNoise(), seed=0)
        tracks = track_frame(tracker, dets, float(t))
        # Zero noise, zero clutter: detection k corresponds to agent k.
        assignment_frames.append([(a.agent_id, tr.id) for a, tr in zip(agents, tracks)])
    assert count_id_switches(assignment_frames) == 0
    final_ids = {tid for _, tid in assignment_frames[-1]}
    assert len(final_ids) == 6 and -1 not in final_ids


def test_no_detection_frame_increments_ages():
    tracker = Tracker2D(TrackerConfig())
    track_frame(tracker, [_det(0.0, 0.0)], 0.0)
    before = tracker.misses[0]
    out = track_frame(tracker, [], 0.1)
    assert out == []
    assert tracker.misses[0] == before + 1


def test_crossing_pedestrians_preserve_id_set():
    specs = [
        AgentSpec(ObjectClass.PEDESTRIAN, [[-5.0, 0.0], [5.0, 0.0]], 1.2, PED_DIMS),
        AgentSpec(ObjectClass.PEDESTRIAN, [[0.0, -5.0], [0.0, 5.0]], 1.2, PED_DIMS),
    ]
    cfg = ScenarioConfig(agents=specs, duration=8.0, tick=0.1)
    tracker = Tracker2D(TrackerConfig())
    first_ids = None
    for t in cfg.frame_times():
        agents = step_scenario(cfg, float(t))
        dets = detect_oracle(agents, DetectorNoise(), seed=0)
        tracks = track_frame(tracker, dets, float(t))
        ids = {tr.id for tr in tracks if tr.id != -1}
        if first_ids is None and len(ids) == 2:
            first_ids = ids
    assert first_ids is not None
    final = {tr.id for tr in track_frame(tracker, detect_oracle(step_scenario(cfg, 8.0), DetectorNoise(), 0), 8.0)}
    assert final == first_ids


def test_distinct_ids_for_separated_detections():
    cfg = _scripted_scenario()
    tracker = Tracker2D(TrackerConfig())
    d_o = tracker.config.d_o
    for t in cfg.frame_times():
        agents = step_scenario(cfg, float(t))
        dets = detect_oracle(agents, DetectorNoise(), seed=0)
        tracks = track_frame(tracker, dets, float(t))
        centers = [(d.box.x, d.box.y) for d in dets]
        pairwise_far = all(
            math.hypot(a[0] - b[0], a[1] - b[1]) > d_o
            for i, a in enumerate(centers) for b in centers[i + 1:]
        )
        if pairwise_far:
            assigned = [tr.id for tr in tracks if tr.id != -1]
            assert len(assigned) == len(set(assigned))


def test_out_of_order_timestamp_rejected():
    tracker = Tracker2D(TrackerConfig())
    track_frame(tracker, [_det(0.0, 0.0)], 1.0)
    with pytest.raises(ValueError, match="out-of-order"):
        track_frame(tracker, [_det(0.0, 0.0)], 0.5)


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(d_o=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(n_init=0)
    with pytest.raises(ValueError):
        TrackerConfig(lift="middle")
