"""Detection accuracy bookkeeping and pipeline latency reporting.

Detections match ground truth greedily by ascending plan-view center
distance; precision, recall, and miss all use integer counts so a perfect
run reports exactly 1.0. Latency aggregates phase durations from per-frame
stamps taken on one clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import OrientedBox3D, plan_pairs
from .wire import PhaseStamps

DEFAULT_MATCH_THRESHOLD = 2.0  # m, plan-view center distance


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def ground_truth_total(self) -> int:
        return self.tp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
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
    detections are FP and leftover ground truth FN.
    """
    if dist_threshold <= 0:
        raise ValueError("dist_threshold must be positive")
    gt_xy = np.array([(g.x, g.y) for g in gt], dtype=float).reshape(-1, 2)
    det_xy = np.array([(d.box.x, d.box.y) for d in dets], dtype=float).reshape(-1, 2)
    i, j, d = plan_pairs(gt_xy, det_xy, dist_threshold)
    order = np.lexsort((j, i, d))
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
        f"tp: {c.tp}  fp: {c.fp}  fn: {c.fn}\n"
        f"precision: {pct(report.precision)}\n"
        f"recall:    {pct(report.recall)}\n"
        f"miss:      {pct(report.miss)}\n"
    )


def _ms(durations_s: list[float]) -> tuple[float, float]:
    """Median and p95 in milliseconds."""
    arr = np.asarray(durations_s) * 1000.0
    return float(np.median(arr)), float(np.percentile(arr, 95))


def latency_report(
    stamps: list[PhaseStamps],
    stage_seconds: dict[str, list[float]] | None = None,
) -> dict:
    """Aggregate per-frame phase durations, all stamps on one clock.

    Phase 1 spans sensor to edge ingest, phase 2 the edge processing, and
    phase 3 edge egress to onboard display. `stage_seconds` maps a stage
    name to its per-frame wall seconds. Returns the flat dict `roadeye
    bench --json` writes: median and p95 milliseconds per phase and per
    stage with samples, throughput and the frame count.
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

    phases = {"phase1": _ms(p1), "phase2": _ms(p2),
              "phase3": _ms(p3) if p3 else (0.0, 0.0), "total": _ms(tot)}
    report = {"frames": len(stamps)}
    report.update((f"{name}_ms", med) for name, (med, _) in phases.items())
    report.update((f"{name}_p95_ms", p95) for name, (_, p95) in phases.items())
    report["throughput_hz"] = (len(stamps) - 1) / span if len(stamps) > 1 and span > 0 else 0.0
    for name, durations in (stage_seconds or {}).items():
        if durations:
            report[f"stage_{name}_ms"], report[f"stage_{name}_p95_ms"] = _ms(durations)
    return report


def format_latency_report(report: dict) -> str:
    def row(label: str, key: str) -> str:
        return f"{label}median {report[key + '_ms']:8.3f} ms   p95 {report[key + '_p95_ms']:8.3f} ms"

    lines = [f"frames: {report['frames']}   throughput: {report['throughput_hz']:.2f} Hz"]
    for label, key in (("phase 1 (sensor side):", "phase1"), ("phase 2 (edge-server side):", "phase2"),
                       ("phase 3 (cloud/onboard side):", "phase3"), ("total:", "total")):
        lines.append(row(f"{label:<30}", key))
    stages = [key[len("stage_"):-len("_p95_ms")] for key in report
              if key.startswith("stage_") and key.endswith("_p95_ms")]
    if stages:
        lines.append("phase 2 breakdown:")
        lines.extend(row(f"  {name:<16} ", f"stage_{name}") for name in stages)
    return "\n".join(lines) + "\n"
