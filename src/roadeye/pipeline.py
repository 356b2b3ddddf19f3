"""Edge-side processing chain: preprocess, detect, track, georeference, encode.

One EdgePipeline instance owns the tracker state and the calibration for a
frame stream. Stage wall-times are collected per frame for the latency
report; phase stamps default to the simulated frame clock so a given input
and seed always encode to identical bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .config import PipelineConfig
from .detect import detect_cluster, detect_oracle
from .geoloc import enu_to_ecef_transform, estimate_ecef_transform, georeference_tracks, load_gcp_file
from .geometry import RigidTransform, transform_box
from .preproc import apply_transform, estimate_ground_calibration, geofence
from .scene import AgentState, PointCloudFrame
from .track import Tracker2D, track_frame
from .wire import PhaseStamps, encode_frame, stamp_phase


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


@dataclass
class FrameResult:
    encoded: bytes
    stamps: PhaseStamps


class EdgePipeline:
    def __init__(self, config: PipelineConfig, p_cali: RigidTransform | None = None,
                 wall_stamps: bool = False):
        self.config = config
        self.bounds = config.geofence_bounds()
        self.backend = config["detector.backend"]
        if self.backend not in ("oracle", "cluster"):
            raise ValueError(f"unknown detector backend {self.backend!r}")
        self.noise = config.detector_noise()
        self.cluster_params = config.cluster_params()
        self.tracker = Tracker2D(config.tracker_config())
        self.mount_height = float(config["scene.mount_height"])
        self.wall_stamps = wall_stamps
        self.p_cali = p_cali
        self.p_ecef = self._build_p_ecef()
        self.sensor_pose = config.scenario().sensor_pose
        self.frame_index = 0
        self.stage_timers: dict[str, list[float]] = {}
        self._frame_stage_seconds: dict[str, float] = {}

    def _build_p_ecef(self) -> RigidTransform:
        gcp_file = self.config["geoloc.gcp_file"]
        if gcp_file:
            return estimate_ecef_transform(load_gcp_file(gcp_file)).transform
        return enu_to_ecef_transform(self.config.sensor_geodetic())

    def _now(self, frame_t: float) -> float:
        return time.time() if self.wall_stamps else frame_t

    def _timed(self, name: str, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as e:
            raise PipelineStageError(name, e) from e
        elapsed = time.perf_counter() - t0
        self._frame_stage_seconds[name] = self._frame_stage_seconds.get(name, 0.0) + elapsed
        return out

    def process(self, frame: PointCloudFrame, gt_agents: list[AgentState] | None = None) -> FrameResult:
        """Run one frame through the full edge chain and encode it."""
        self._frame_stage_seconds = {}
        stamps = stamp_phase(PhaseStamps(), "sensor", self._now(frame.t))
        stamps = stamp_phase(stamps, "edge_in", self._now(frame.t))

        fenced = self._timed("preprocess", geofence, frame, self.bounds)
        if self.p_cali is None:
            self.p_cali = self._timed(
                "preprocess", estimate_ground_calibration, fenced, self.mount_height,
                self.config.seed,
            )
        leveled = self._timed("preprocess", apply_transform, fenced, self.p_cali)

        if self.backend == "oracle":
            if gt_agents is None:
                raise PipelineStageError(
                    "detection", ValueError("oracle backend needs ground-truth agents")
                )
            world_to_h = self.p_cali @ self.sensor_pose
            seed = [self.config.seed & 0xFFFFFFFF, 0xDE7EC7, self.frame_index]
            dets = self._timed(
                "detection", self._oracle_detect, gt_agents, seed, world_to_h
            )
        else:
            dets = self._timed("detection", detect_cluster, leveled, self.cluster_params)

        tracks = self._timed("tracking", track_frame, self.tracker, dets, frame.t)
        msgs = self._timed(
            "geolocalization",
            lambda: georeference_tracks(tracks, self.p_cali, self.p_ecef, t=frame.t),
        )
        stamps = stamp_phase(stamps, "edge_out", self._now(frame.t))
        encoded = self._timed("encoding", encode_frame, msgs, stamps, frame.t)
        self.frame_index += 1
        for name, total in self._frame_stage_seconds.items():
            self.stage_timers.setdefault(name, []).append(total)
        return FrameResult(encoded=encoded, stamps=stamps)

    def _oracle_detect(self, gt_agents, seed, world_to_h):
        dets = detect_oracle(gt_agents, self.noise, seed, self.bounds)
        for d in dets:
            d.box = transform_box(d.box, world_to_h)
        return dets
