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
    match_detections,
)
from roadeye.geometry import ObjectClass, OrientedBox3D


def _box(x, y):
    return OrientedBox3D(x, y, 0.8, 2.0, 4.5, 1.6, 0.0)


def _det(x, y):
    return Detection(box=_box(x, y), cls=ObjectClass.VEHICLE, score=1.0)


# --- matching ----------------------------------------------------------------

def test_identical_sets_all_tp():
    gt = [_box(0, 0), _box(10, 0), _box(0, 10)]
    dets = [_det(0, 0), _det(10, 0), _det(0, 10)]
    c = match_detections(gt, dets, 2.0)
    assert (c.tp, c.fp, c.fn) == (3, 0, 0)
    assert c.ground_truth_total == 3


def test_empty_detections_all_fn():
    gt = [_box(0, 0), _box(5, 5)]
    c = match_detections(gt, [], 2.0)
    assert (c.tp, c.fp, c.fn) == (0, 0, 2)


def test_clutter_counts_fp():
    c = match_detections([_box(0, 0)], [_det(0.1, 0), _det(30, 30)], 2.0)
    assert (c.tp, c.fp, c.fn) == (1, 1, 0)


def test_count_identities(rng):
    for _ in range(50):
        n_gt = int(rng.integers(0, 10))
        n_det = int(rng.integers(0, 10))
        gt = [_box(*rng.uniform(-40, 40, 2)) for _ in range(n_gt)]
        dets = [_det(*rng.uniform(-40, 40, 2)) for _ in range(n_det)]
        c = match_detections(gt, dets, 2.0)
        assert c.tp + c.fn == n_gt
        assert c.tp + c.fp == n_det


def _bruteforce_max_matching(gt, dets, threshold):
    """Exhaustive maximum number of one-to-one pairs within the threshold."""
    best = 0
    n, m = len(gt), len(dets)
    for k in range(min(n, m), -1, -1):
        for gs in itertools.combinations(range(n), k):
            for ds in itertools.permutations(range(m), k):
                ok = all(
                    math.hypot(gt[i].x - dets[j].box.x, gt[i].y - dets[j].box.y) <= threshold
                    for i, j in zip(gs, ds)
                )
                if ok:
                    return k
    return best


def _pair_list_counts(gt, dets, threshold):
    """The O(n*m) Python pair list `match_detections` replaced: every pair
    within the threshold, sorted by (distance, gt index, detection index),
    taken greedily."""
    pairs = []
    for i, g in enumerate(gt):
        for j, d in enumerate(dets):
            dist = math.hypot(g.x - d.box.x, g.y - d.box.y)
            if dist <= threshold:
                pairs.append((dist, i, j))
    pairs.sort()
    used_gt, used_det = set(), set()
    for _, i, j in pairs:
        if i not in used_gt and j not in used_det:
            used_gt.add(i)
            used_det.add(j)
    tp = len(used_gt)
    return (tp, len(dets) - tp, len(gt) - tp)


def test_counts_equal_pair_list_reference(rng):
    for trial in range(300):
        n_gt = 0 if trial % 10 == 0 else int(rng.integers(0, 40))
        n_det = 0 if trial % 10 == 5 else int(rng.integers(0, 40))
        # Half the scenes sit on a 0.5 m grid, where equal distances tie and
        # pairs land exactly on the 2 m threshold.
        step = 0.5 if trial % 2 else None
        def xy():
            p = rng.uniform(-15, 15, 2)
            return np.round(p / step) * step if step else p
        gt = [_box(*xy()) for _ in range(n_gt)]
        dets = [_det(*xy()) for _ in range(n_det)]
        c = match_detections(gt, dets, 2.0)
        assert (c.tp, c.fp, c.fn) == _pair_list_counts(gt, dets, 2.0)
    # Three detections tie at 1 m from one truth box: the lowest index wins.
    gt = [_box(0, 0), _box(0, 3)]
    dets = [_det(1, 0), _det(0, 1), _det(-1, 0)]
    c = match_detections(gt, dets, 2.0)
    assert (c.tp, c.fp, c.fn) == _pair_list_counts(gt, dets, 2.0) == (2, 1, 0)


def test_greedy_matches_exhaustive_on_small_instances(rng):
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        # Well-separated anchors with small perturbations keep distances
        # unambiguous, where greedy is provably optimal.
        anchors = rng.uniform(-40, 40, (max(n, m), 2))
        gt = [_box(*anchors[i]) for i in range(n)]
        dets = [_det(*(anchors[j] + rng.normal(0, 0.3, 2))) for j in range(m)]
        c = match_detections(gt, dets, 2.0)
        assert c.tp == _bruteforce_max_matching(gt, dets, 2.0)


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
