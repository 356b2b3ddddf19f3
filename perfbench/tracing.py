"""In-memory spans and counters recorded around calls into roadeye's layers.

Nothing inside roadeye is instrumented: spans wrap the calls the benchmark
makes itself, and the functions `roadeye.pipeline` imports by name are
swapped for traced wrappers while a traced frame runs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Records (name, start, end, parent, frame) spans and per-frame counts."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.frame = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.frame)

    def count(self, name: str, value: float):
        self.counts[name].append(value)

    def durations_ms(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append((end - start) * 1e3)
        return out

    def self_ms(self) -> dict[str, list[float]]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append((end - start - child[k]) * 1e3)
        return out

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, frame in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "frame": frame}) + "\n")


def direct(name: str, fn, *args):
    """The untraced stand-in for Tracer.call."""
    return fn(*args)


class PipelinePatch:
    """Traced wrappers for the layer functions `roadeye.pipeline` imports."""

    def __init__(self, tracer: Tracer, pipeline_module):
        self.module = pipeline_module
        self.original = {}
        self.traced = {}
        t = tracer  # short name for the counters below

        def geofence_counts(args, out, _):
            t.count("preproc.points_in", len(args[0]))
            t.count("preproc.points_kept", len(out))

        def detect_counts(args, out, _):
            t.count("detect.detections", len(out))

        def track_counts(args, out, next_id_before):
            tracker = args[0]
            t.count("track.births", tracker.next_id - next_id_before)
            t.count("track.live_tracks", len(tracker.tracks))
            t.count("track.outputs", len(out))
            t.count("track.unlifted", sum(1 for tr in out if tr.id == -1))

        def geoloc_counts(args, out, _):
            t.count("geoloc.objects", len(out))

        def wire_counts(args, out, _):
            t.count("wire.bytes", len(out))

        spans = {
            "geofence": ("preproc.geofence", geofence_counts),
            "estimate_ground_calibration": ("preproc.calibrate", None),
            "apply_transform": ("preproc.level", None),
            "detect_cluster": ("detect.frame", detect_counts),
            "detect_oracle": ("detect.frame", detect_counts),
            "track_frame": ("track.frame", track_counts),
            "georeference_tracks": ("geoloc.georeference", geoloc_counts),
            "encode_frame": ("wire.encode", wire_counts),
        }
        for attr, (span, counts) in spans.items():
            fn = getattr(pipeline_module, attr)
            self.original[attr] = fn
            self.traced[attr] = _traced(tracer, span, fn, counts)

    def enable(self, on: bool):
        for attr, fn in (self.traced if on else self.original).items():
            setattr(self.module, attr, fn)


def _traced(tracer: Tracer, span: str, fn, counts):
    def traced(*args, **kwargs):
        # The tracker's id counter, read before the call, gives track births.
        before = getattr(args[0], "next_id", None)
        out = tracer.call(span, fn, *args, **kwargs)
        if counts is not None:
            counts(args, out, before)
        return out
    return traced
