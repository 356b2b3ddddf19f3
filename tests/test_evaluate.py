import itertools
import math

import numpy as np
import pytest

from roadeye.detect import Detection
from roadeye.evaluate import (
    ConfusionCounts,
    compute_metrics,
    count_id_switches,
    format_latency_report,
    format_metric_report,
    latency_report,
    match_centres,
    match_detections,
    plan_enu,
)
from roadeye.geoloc import GeodeticPos, geodetic_to_ecef
from roadeye.geometry import ObjectClass, OrientedBox3D
from roadeye.wire import RECORD


def _box(x, y):
    return OrientedBox3D(x, y, 0.8, 2.0, 4.5, 1.6, 0.0)


def _det(x, y):
    return Detection(box=_box(x, y), cls=ObjectClass.VEHICLE, score=1.0)


def _counts(c):
    return (c.tp, c.fp, c.fn)


# --- matching ----------------------------------------------------------------

def test_identical_sets_all_tp():
    xy = np.array([(0, 0), (10, 0), (0, 10)], dtype=float)
    c = match_centres(xy, xy, 2.0)
    assert _counts(c) == (3, 0, 0)
    assert c.ground_truth_total == 3


def test_empty_detections_all_fn():
    c = match_centres([(0, 0), (5, 5)], np.empty((0, 2)), 2.0)
    assert _counts(c) == (0, 0, 2)
    assert _counts(match_centres(np.empty((0, 2)), [(0, 0)], 2.0)) == (0, 1, 0)


def test_clutter_counts_fp():
    c = match_centres([(0, 0)], [(0.1, 0), (30, 30)], 2.0)
    assert _counts(c) == (1, 1, 0)


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_threshold_must_be_positive_and_finite(threshold):
    # A NaN gate used to match nothing and an infinite one everything.
    with pytest.raises(ValueError, match="positive and finite"):
        match_centres([(0, 0)], [(0, 0)], threshold)
    with pytest.raises(ValueError, match="positive and finite"):
        match_detections([_box(0, 0)], [_det(0, 0)], threshold)


def test_count_identities(rng):
    for _ in range(50):
        n_gt = int(rng.integers(0, 10))
        n_det = int(rng.integers(0, 10))
        c = match_centres(rng.uniform(-40, 40, (n_gt, 2)), rng.uniform(-40, 40, (n_det, 2)), 2.0)
        assert c.tp + c.fn == n_gt
        assert c.tp + c.fp == n_det


def _bruteforce_max_matching(gt_xy, det_xy, threshold):
    """Exhaustive maximum number of one-to-one pairs within the threshold."""
    best = 0
    n, m = len(gt_xy), len(det_xy)
    for k in range(min(n, m), -1, -1):
        for gs in itertools.combinations(range(n), k):
            for ds in itertools.permutations(range(m), k):
                ok = all(
                    math.hypot(gt_xy[i][0] - det_xy[j][0], gt_xy[i][1] - det_xy[j][1]) <= threshold
                    for i, j in zip(gs, ds)
                )
                if ok:
                    return k
    return best


def _pair_list_counts(gt_xy, det_xy, threshold):
    """The O(n*m) Python pair list `match_centres` replaced: every pair
    within the threshold, sorted by (distance, gt index, detection index),
    taken greedily."""
    pairs = []
    for i, (gx, gy) in enumerate(gt_xy):
        for j, (dx, dy) in enumerate(det_xy):
            dist = math.hypot(gx - dx, gy - dy)
            if dist <= threshold:
                pairs.append((dist, i, j))
    pairs.sort()
    used_gt, used_det = set(), set()
    for _, i, j in pairs:
        if i not in used_gt and j not in used_det:
            used_gt.add(i)
            used_det.add(j)
    tp = len(used_gt)
    return (tp, len(det_xy) - tp, len(gt_xy) - tp)


def _scenes(rng):
    """300 (gt, detection) centre-array scenes, some empty on either side.
    Half sit on a 0.5 m grid, where equal distances tie and pairs land
    exactly on the 2 m threshold."""
    for trial in range(300):
        n_gt = 0 if trial % 10 == 0 else int(rng.integers(0, 40))
        n_det = 0 if trial % 10 == 5 else int(rng.integers(0, 40))
        gt_xy, det_xy = rng.uniform(-15, 15, (n_gt, 2)), rng.uniform(-15, 15, (n_det, 2))
        if trial % 2:
            gt_xy, det_xy = np.round(gt_xy / 0.5) * 0.5, np.round(det_xy / 0.5) * 0.5
        yield gt_xy, det_xy


def test_counts_equal_pair_list_reference(rng):
    for gt_xy, det_xy in _scenes(rng):
        c = match_centres(gt_xy, det_xy, 2.0)
        assert _counts(c) == _pair_list_counts(gt_xy, det_xy, 2.0)
    # Three detections tie at 1 m from one truth centre: the lowest index wins.
    gt_xy = [(0, 0), (0, 3)]
    det_xy = [(1, 0), (0, 1), (-1, 0)]
    c = match_centres(gt_xy, det_xy, 2.0)
    assert _counts(c) == _pair_list_counts(gt_xy, det_xy, 2.0) == (2, 1, 0)


def test_match_detections_is_match_centres_on_the_object_centres(rng):
    # The object adapter: boxes and `Detection`s score as their centres do.
    for gt_xy, det_xy in _scenes(rng):
        boxes, dets = [_box(*p) for p in gt_xy], [_det(*p) for p in det_xy]
        assert match_detections(boxes, dets, 2.0) == match_centres(gt_xy, det_xy, 2.0)


def test_greedy_matches_exhaustive_on_small_instances(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        # Well-separated anchors with small perturbations keep distances
        # unambiguous, where greedy is provably optimal.
        anchors = rng.uniform(-40, 40, (max(n, m), 2))
        gt_xy = anchors[:n]
        det_xy = anchors[:m] + rng.normal(0, 0.3, (m, 2))
        c = match_centres(gt_xy, det_xy, 2.0)
        assert c.tp == _bruteforce_max_matching(gt_xy, det_xy, 2.0)


# --- ENU mapping ---------------------------------------------------------------

def test_plan_enu_matches_the_scalar_closed_form(rng):
    # Reference: `geodetic_to_ecef` per row, the offset from the origin
    # rotated into east and north one row at a time.
    for lat0, lon0, alt0 in [(40.0, -105.0, 1600.0), (-33.9, 151.2, 20.0), (0.0, 180.0, 0.0),
                             (89.5, -179.9, 3000.0)]:
        origin = GeodeticPos(lat0, lon0, alt0)
        o = geodetic_to_ecef(origin)
        sp, cp = math.sin(math.radians(lat0)), math.cos(math.radians(lat0))
        sl, cl = math.sin(math.radians(lon0)), math.cos(math.radians(lon0))
        rows = np.zeros(200, RECORD)
        rows["lat"] = np.clip(lat0 + rng.uniform(-0.01, 0.01, 200), -90.0, 90.0)
        rows["lon"] = lon0 + rng.uniform(-0.01, 0.0, 200)
        rows["alt"] = alt0 + rng.uniform(-10.0, 10.0, 200)
        got = plan_enu(rows, origin)
        assert got.shape == (200, 2)
        for (east, north), r in zip(got, rows):
            e = geodetic_to_ecef(GeodeticPos(float(r["lat"]), float(r["lon"]), float(r["alt"])))
            dx, dy, dz = e.X - o.X, e.Y - o.Y, e.Z - o.Z
            assert abs(east - (-sl * dx + cl * dy)) <= 1e-8
            assert abs(north - (-sp * cl * dx - sp * sl * dy + cp * dz)) <= 1e-8
    assert plan_enu(np.zeros(0, RECORD), origin).shape == (0, 2)
    # The origin itself, at any height, lies at (0, 0).
    above = np.array([(0.0, 0, lat0, lon0, alt0 + 50.0, 1, 1, 1, 0, 0)], RECORD)
    assert np.abs(plan_enu(above, origin)).max() <= 1e-8


# --- metrics -----------------------------------------------------------------

def test_reference_counts_reproduce_expected_rates():
    c = ConfusionCounts(tp=1389, fp=43, fn=1661 - 1389)
    r = compute_metrics(c)
    assert abs(100 * r.precision - 96.99) <= 0.01
    assert abs(100 * r.recall - 83.62) <= 0.01
    assert abs(100 * r.miss - 16.38) <= 0.01
    assert r.recall + r.miss == pytest.approx(1.0, abs=1e-12)


def test_undefined_precision_marker():
    r = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=3))
    assert r.precision is None
    assert r.recall == 0.0
    text = format_metric_report(ConfusionCounts(tp=0, fp=0, fn=3), r)
    assert "undefined" in text


def test_perfect_detector():
    r = compute_metrics(ConfusionCounts(tp=7, fp=0, fn=0))
    assert r.precision == 1.0
    assert r.recall == 1.0
    assert r.miss == 0.0


def test_counts_validation():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, fn=0)


def test_id_switch_counter():
    frames = [
        [(0, 5), (1, 6)],
        [(0, 5), (1, 6)],
        [(0, 5), (1, -1)],  # unassigned: no switch, memory kept
        [(0, 5), (1, 7)],   # 6 -> 7 is one switch
        [(0, 8), (1, 7)],   # 5 -> 8 is another
    ]
    assert count_id_switches(frames) == 2
    assert count_id_switches([]) == 0
    assert count_id_switches([[(0, -1)], [(0, 3)]]) == 0


def test_counts_addition():
    a = ConfusionCounts(tp=2, fp=1, fn=1)
    b = ConfusionCounts(tp=3, fp=0, fn=2)
    c = a + b
    assert (c.tp, c.fp, c.fn, c.ground_truth_total) == (5, 1, 3, 8)


# --- latency -----------------------------------------------------------------

# Dyadic seconds, so that every sum and product below is exact.
_SECONDS = {"preprocess": 2.0**-7, "detection": 2.0**-6, "tracking": 2.0**-7,
            "geolocalization": 2.0**-8, "encoding": 2.0**-8, "onboard": 2.0**-5}


def _stages(n):
    return {name: [s] * n for name, s in _SECONDS.items()}


def test_constructed_gaps_reported_exactly():
    r = latency_report(_stages(20), 1.0)
    assert r["frames"] == 20
    assert r["phase1_ms"] == r["phase1_p95_ms"] == r["stage_preprocess_ms"] == 7.8125
    assert r["phase2_ms"] == r["phase2_p95_ms"] == 31.25
    assert r["phase3_ms"] == r["phase3_p95_ms"] == r["stage_onboard_ms"] == 31.25
    assert r["total_ms"] == r["total_p95_ms"] == 70.3125


def test_throughput_of_scripted_run():
    assert latency_report(_stages(100), 10.0)["throughput_hz"] == 10.0
    assert latency_report(_stages(3), 0.5)["throughput_hz"] == 6.0


def test_stage_breakdown_present():
    # A phase is the median of per-frame sums, not the sum of stage medians.
    stages = _stages(3)
    stages["detection"] = [2.0**-10, 2.0**-9, 9 * 2.0**-10]
    stages["tracking"] = [9 * 2.0**-10, 2.0**-9, 2.0**-10]
    stages["geolocalization"] = stages["encoding"] = [0.0] * 3
    r = latency_report(stages, 1.0)
    assert r["stage_detection_ms"] == r["stage_tracking_ms"] == 1000 * 2.0**-9
    assert r["phase2_ms"] == 1000 * 10 * 2.0**-10
    assert [k for k in r if k.startswith("stage_")] == [
        f"stage_{name}{suffix}" for name in _SECONDS for suffix in ("_ms", "_p95_ms")
    ]


def test_empty_stamps_rejected():
    with pytest.raises(ValueError, match="no timed frames"):
        latency_report({name: [] for name in _SECONDS}, 1.0)
    with pytest.raises(ValueError, match="no timed frames"):
        latency_report({}, 1.0)


def test_latency_report_text_pinned():
    # Recorded from the report as `roadeye bench` prints it.
    stages = {
        "preprocess": [0.002 + 0.0001 * k for k in range(7)],
        "detection": [0.004, 0.006, 0.005, 0.009, 0.004, 0.007, 0.005],
        "tracking": [0.001 * (k % 3 + 1) for k in range(7)],
        "geolocalization": [0.0005] * 7,
        "encoding": [0.0002 * (7 - k) for k in range(7)],
        "onboard": [0.003, 0.004, 0.003, 0.005, 0.004, 0.003, 0.006],
    }
    assert format_latency_report(latency_report(stages, 0.35)) == (
        "frames: 7   throughput: 20.00 Hz\n"
        "phase 1 (sensor side):        median    2.300 ms   p95    2.570 ms\n"
        "phase 2 (edge-server side):   median    9.500 ms   p95   11.180 ms\n"
        "phase 3 (cloud/onboard side): median    4.000 ms   p95    5.700 ms\n"
        "total:                        median   15.300 ms   p95   17.940 ms\n"
        "stages:\n"
        "  preprocess       median    2.300 ms   p95    2.570 ms\n"
        "  detection        median    5.000 ms   p95    8.400 ms\n"
        "  tracking         median    2.000 ms   p95    3.000 ms\n"
        "  geolocalization  median    0.500 ms   p95    0.500 ms\n"
        "  encoding         median    0.800 ms   p95    1.340 ms\n"
        "  onboard          median    4.000 ms   p95    5.700 ms\n"
    )
