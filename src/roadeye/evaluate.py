"""Detection accuracy bookkeeping and pipeline latency reporting.

Detections match ground truth greedily by ascending plan-view center
distance; precision, recall, and miss all use integer counts so a perfect
run reports exactly 1.0. Latency aggregates phase durations from per-frame
stamps taken on one clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import OrientedBox3D, plan_distances
from .wire import PhaseStamps

DEFAULT_MATCH_THRESHOLD = 2.0  # m, plan-view center distance


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int = 0
    ground_truth_total: int = 0

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.ground_truth_total == 0:
            self.ground_truth_total = self.tp + self.fn
        if self.tp + self.fn != self.ground_truth_total:
            raise ValueError("tp + fn must equal ground_truth_total")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            tn=self.tn + other.tn,
        )


@dataclass
class MetricReport:
    precision: float | None  # None marks an undefined metric
    recall: float | None
    miss: float | None

    def to_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "miss": self.miss}


def match_detections(
    gt: list[OrientedBox3D],
    dets,
    dist_threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> ConfusionCounts:
    """Greedy one-to-one matching by ascending plan-view center distance.

    `dets` holds anything with `box.x` and `box.y`: `Detection`s or
    DETECTION rows. Pairs within the threshold are taken in ascending
    (distance, gt index, detection index) order and count as TP; leftover
    detections are FP and leftover ground truth FN. TN stays 0: nothing
    proposes negatives.
    """
    if dist_threshold <= 0:
        raise ValueError("dist_threshold must be positive")
    gt_xy = np.array([(g.x, g.y) for g in gt], dtype=float).reshape(-1, 2)
    det_xy = np.array([(d.box.x, d.box.y) for d in dets], dtype=float).reshape(-1, 2)
    dist = plan_distances(gt_xy, det_xy, dist_threshold)
    i, j = np.nonzero(dist <= dist_threshold)
    order = np.lexsort((j, i, dist[i, j]))
    used_gt, used_det = set(), set()
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if a not in used_gt and b not in used_det:
            used_gt.add(a)
            used_det.add(b)
    tp = len(used_gt)
    return ConfusionCounts(tp=tp, fp=len(det_xy) - tp, fn=len(gt_xy) - tp)


def count_id_switches(frames) -> int:
    """Track-id changes per ground-truth object across a frame sequence.

    `frames` is an iterable of per-frame (truth_id, track_id) pair lists;
    a track_id of -1 means unassigned and neither counts as a switch nor
    updates the object's remembered id.
    """
    last: dict = {}
    switches = 0
    for pairs in frames:
        for truth, tid in pairs:
            if tid == -1:
                continue
            if truth in last and last[truth] != tid:
                switches += 1
            last[truth] = tid
    return switches


def compute_metrics(c: ConfusionCounts) -> MetricReport:
    """precision = tp/(tp+fp); recall = tp/gt; miss = fn/gt; None when undefined."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else None
    if c.ground_truth_total > 0:
        recall = c.tp / c.ground_truth_total
        miss = c.fn / c.ground_truth_total
    else:
        recall = miss = None
    return MetricReport(precision=precision, recall=recall, miss=miss)


def format_metric_report(c: ConfusionCounts, report: MetricReport) -> str:
    def pct(v):
        return "undefined" if v is None else f"{100.0 * v:.4f}%"

    return (
        f"ground truth: {c.ground_truth_total}\n"
        f"tp: {c.tp}  fp: {c.fp}  fn: {c.fn}  tn: {c.tn}\n"
        f"precision: {pct(report.precision)}\n"
        f"recall:    {pct(report.recall)}\n"
        f"miss:      {pct(report.miss)}\n"
    )


@dataclass
class StageStat:
    median_ms: float
    p95_ms: float


@dataclass
class LatencyReport:
    """Median/p95 phase durations in milliseconds plus throughput."""

    phase1_ms: float
    phase2_ms: float
    phase3_ms: float
    total_ms: float
    phase1_p95_ms: float
    phase2_p95_ms: float
    phase3_p95_ms: float
    total_p95_ms: float
    throughput_hz: float
    frames: int
    stage_breakdown: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "frames": self.frames,
            "phase1_ms": self.phase1_ms,
            "phase2_ms": self.phase2_ms,
            "phase3_ms": self.phase3_ms,
            "total_ms": self.total_ms,
            "phase1_p95_ms": self.phase1_p95_ms,
            "phase2_p95_ms": self.phase2_p95_ms,
            "phase3_p95_ms": self.phase3_p95_ms,
            "total_p95_ms": self.total_p95_ms,
            "throughput_hz": self.throughput_hz,
        }
        for name, stat in self.stage_breakdown.items():
            d[f"stage_{name}_ms"] = stat.median_ms
            d[f"stage_{name}_p95_ms"] = stat.p95_ms
        return d


def _stat(durations_s: list[float]) -> tuple[float, float]:
    arr = np.asarray(durations_s) * 1000.0
    return float(np.median(arr)), float(np.percentile(arr, 95))


def latency_report(
    stamps: list[PhaseStamps],
    stage_seconds: dict[str, list[float]] | None = None,
) -> LatencyReport:
    """Aggregate per-frame phase durations, all stamps on one clock.

    Phase 1 spans sensor to edge ingest, phase 2 the edge processing, and
    phase 3 edge egress to onboard display. `stage_seconds` maps a stage
    name to its per-frame wall seconds.
    """
    if not stamps:
        raise ValueError("no stamped frames to report on")
    p1, p2, p3, tot = [], [], [], []
    for k, s in enumerate(stamps):
        if s.t_sensor is None or s.t_edge_in is None or s.t_edge_out is None:
            raise ValueError(f"frame {k} is missing edge-side stamps")
        d1 = s.t_edge_in - s.t_sensor
        d2 = s.t_edge_out - s.t_edge_in
        if d1 < 0 or d2 < 0:
            raise ValueError(f"frame {k} stamps decrease within the edge clock domain")
        p1.append(d1)
        p2.append(d2)
        if s.t_onboard is not None:
            d3 = s.t_onboard - s.t_edge_out
            if d3 < 0:
                raise ValueError(f"frame {k} onboard stamp precedes edge-out")
            p3.append(d3)
            tot.append(s.t_onboard - s.t_sensor)
        else:
            tot.append(s.t_edge_out - s.t_sensor)
    sensors = [s.t_sensor for s in stamps]
    span = max(sensors) - min(sensors)
    throughput = (len(stamps) - 1) / span if len(stamps) > 1 and span > 0 else 0.0

    p1_med, p1_p95 = _stat(p1)
    p2_med, p2_p95 = _stat(p2)
    p3_med, p3_p95 = _stat(p3) if p3 else (0.0, 0.0)
    tot_med, tot_p95 = _stat(tot)
    breakdown = {}
    if stage_seconds:
        for name, durations in stage_seconds.items():
            if durations:
                med, p95 = _stat(list(durations))
                breakdown[name] = StageStat(median_ms=med, p95_ms=p95)
    return LatencyReport(
        phase1_ms=p1_med,
        phase2_ms=p2_med,
        phase3_ms=p3_med,
        total_ms=tot_med,
        phase1_p95_ms=p1_p95,
        phase2_p95_ms=p2_p95,
        phase3_p95_ms=p3_p95,
        total_p95_ms=tot_p95,
        throughput_hz=throughput,
        frames=len(stamps),
        stage_breakdown=breakdown,
    )


def format_latency_report(report: LatencyReport) -> str:
    lines = [
        f"frames: {report.frames}   throughput: {report.throughput_hz:.2f} Hz",
        f"phase 1 (sensor side):        median {report.phase1_ms:8.3f} ms   p95 {report.phase1_p95_ms:8.3f} ms",
        f"phase 2 (edge-server side):   median {report.phase2_ms:8.3f} ms   p95 {report.phase2_p95_ms:8.3f} ms",
    ]
    lines.append(
        f"phase 3 (cloud/onboard side): median {report.phase3_ms:8.3f} ms   p95 {report.phase3_p95_ms:8.3f} ms"
    )
    lines.append(
        f"total:                        median {report.total_ms:8.3f} ms   p95 {report.total_p95_ms:8.3f} ms"
    )
    if report.stage_breakdown:
        lines.append("phase 2 breakdown:")
        for name, stat in report.stage_breakdown.items():
            lines.append(f"  {name:<16} median {stat.median_ms:8.3f} ms   p95 {stat.p95_ms:8.3f} ms")
    return "\n".join(lines) + "\n"
