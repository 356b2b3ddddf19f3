"""Detection accuracy bookkeeping and pipeline latency reporting.

Detections match ground truth greedily by ascending plan-view center
distance; precision, recall, and miss all use integer counts so a perfect
run reports exactly 1.0. Latency sums each frame's timed stages into the
three phases `roadeye bench` reports: the pre-processor, the edge
perception chain and the onboard decode, reconstruct and render.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import OrientedBox3D, plan_pairs

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


# The stages each phase of `roadeye bench` sums: the paper's pre-processor,
# the edge perception chain, and the onboard side (decode, reconstruct and
# render, with no relay hop between).
PHASE_STAGES = {
    "phase1": ("preprocess",),
    "phase2": ("detection", "tracking", "geolocalization", "encoding"),
    "phase3": ("onboard",),
}
STAGES = tuple(name for names in PHASE_STAGES.values() for name in names)


def _ms(durations_s) -> tuple[float, float]:
    """Median and p95 in milliseconds."""
    arr = np.asarray(durations_s) * 1000.0
    return float(np.median(arr)), float(np.percentile(arr, 95))


def latency_report(stage_seconds: dict[str, list[float]], wall_seconds: float) -> dict:
    """Aggregate per-frame stage wall times into the bench report.

    `stage_seconds` maps each stage of PHASE_STAGES to its wall seconds, one
    per timed frame; `wall_seconds` is the wall time of the whole timed loop.
    Each phase is, frame by frame, the sum of its stages, and the total the
    sum of the phases. Returns the flat dict `roadeye bench --json` writes:
    median and p95 milliseconds per phase, throughput, then per stage.
    """
    frames = len(stage_seconds.get("preprocess", ()))
    if not frames:
        raise ValueError("no timed frames to report on")
    per_frame = {phase: sum(np.asarray(stage_seconds[name], dtype=float) for name in names)
                 for phase, names in PHASE_STAGES.items()}
    per_frame["total"] = sum(per_frame.values())
    phases = {name: _ms(seconds) for name, seconds in per_frame.items()}
    report = {"frames": frames}
    report.update((f"{name}_ms", med) for name, (med, _) in phases.items())
    report.update((f"{name}_p95_ms", p95) for name, (_, p95) in phases.items())
    report["throughput_hz"] = frames / wall_seconds
    for name in STAGES:
        report[f"stage_{name}_ms"], report[f"stage_{name}_p95_ms"] = _ms(stage_seconds[name])
    return report


def format_latency_report(report: dict) -> str:
    def row(label: str, key: str) -> str:
        return f"{label}median {report[key + '_ms']:8.3f} ms   p95 {report[key + '_p95_ms']:8.3f} ms"

    lines = [f"frames: {report['frames']}   throughput: {report['throughput_hz']:.2f} Hz"]
    for label, key in (("phase 1 (sensor side):", "phase1"), ("phase 2 (edge-server side):", "phase2"),
                       ("phase 3 (cloud/onboard side):", "phase3"), ("total:", "total")):
        lines.append(row(f"{label:<30}", key))
    lines.append("stages:")
    lines.extend(row(f"  {name:<16} ", f"stage_{name}") for name in STAGES)
    return "\n".join(lines) + "\n"
