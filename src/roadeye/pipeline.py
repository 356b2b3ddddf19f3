"""Edge-side processing chain: preprocess, detect, track, georeference, encode.

One EdgePipeline instance owns the tracker state and the calibration for a
frame stream, and keeps nothing else per frame: each FrameResult carries its
encoded bytes and stage wall-times. The phase stamps the bytes carry default
to the simulated frame clock so a given input and seed always encode to
identical bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, PipelineConfig
from .detect import detect_cluster, detect_oracle
from .geoloc import enu_to_ecef_transform, estimate_ecef_transform, georeference_tracks, load_gcp_file
from .geometry import RigidTransform, wrap_angles
from .preproc import apply_transform, estimate_ground_calibration, geofence
from .scene import AGENT, PointCloudFrame
from .track import Tracker2D, track_frame
from .wire import PhaseStamps, encode_frame


# glibc's mallopt parameters (malloc.h), and the block size below which freed
# memory stays in the process for the next frame.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_REUSED_BLOCK_BYTES = 16 * 2**20


def _reuse_freed_frame_memory() -> None:
    """Keep the memory a frame frees for the next frame. glibc hands a freed
    block over its mmap threshold, and a free heap top over its trim
    threshold, back to the kernel; both start low and rise only as large
    blocks are freed. A stream read one frame at a time frees no large block,
    so without fixed thresholds each frame's leveled, fenced and detection
    arrays (0.6 MiB each at 20k points) would be faulted in afresh, hundreds
    of page faults a frame. A no-op where the C library has no mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _REUSED_BLOCK_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _REUSED_BLOCK_BYTES)


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


@dataclass
class FrameResult:
    encoded: bytes
    stage_seconds: dict[str, float]  # wall seconds this frame spent per stage


def _timed(seconds: dict[str, float], name: str, fn, *args):
    """Call fn(*args), adding its wall time to seconds[name]; a raise names the stage."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as e:
        raise PipelineStageError(name, e) from e
    seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0
    return out


class EdgePipeline:
    def __init__(self, config: PipelineConfig, wall_stamps: bool = False):
        _reuse_freed_frame_memory()
        self.config = config
        self.bounds = config.geofence_bounds()
        self.backend = config["detector.backend"]
        if self.backend not in ("oracle", "cluster"):
            raise ValueError(f"unknown detector backend {self.backend!r}")
        self.noise = config.detector_noise()
        self.cluster_params = config.cluster_params()
        self.tracker = Tracker2D(config.tracker_config())
        self.mount_height = config["scene.mount_height"]
        self.wall_stamps = wall_stamps
        self.sensor_pose = config.scenario().sensor_pose  # the oracle's view of the truth
        gcp_file = config["geoloc.gcp_file"]
        if not gcp_file and config["scene.sensor_yaw_deg"]:
            # Without GCPs H-Coor is taken as ENU about the sensor: leveling
            # recovers pitch from the ground, but nothing here observes yaw.
            raise ConfigError("scene.sensor_yaw_deg must be 0 when geoloc.gcp_file is null: "
                              "without ground control points the sensor yaw is unknown")
        # The GCP fit maps L-Coor, where the surveyed lidar points are, to ECEF.
        self.l_to_ecef = (estimate_ecef_transform(load_gcp_file(gcp_file)).transform
                          if gcp_file else None)
        self.p_cali = self.world_to_h = self.h_to_ecef = None
        self.frame_index = 0

    def _build_h_to_ecef(self) -> RigidTransform:
        if self.l_to_ecef is not None:
            return self.l_to_ecef @ self.p_cali.inverse()
        # H-Coor is level and east-aligned, and the sensor sits at p_cali's
        # translation, so H-Coor less that offset is ENU about the sensor.
        sensor_enu_to_ecef = enu_to_ecef_transform(self.config.sensor_geodetic())
        return sensor_enu_to_ecef @ RigidTransform.from_translation(-self.p_cali.translation)

    def _now(self, frame_t: float) -> float:
        return time.time() if self.wall_stamps else frame_t

    def process(self, frame: PointCloudFrame, gt_agents: np.ndarray | None = None) -> FrameResult:
        """Run one frame through the full edge chain and encode it; the oracle
        backend reads the frame's ground truth, `gt_agents`, as `AGENT` rows."""
        seconds: dict[str, float] = {}
        t_in = self._now(frame.t)

        if self.p_cali is None:
            # The first frame, as read, fixes the L→H calibration and the two
            # transforms that follow from it.
            self.p_cali = _timed(
                seconds, "preprocess", estimate_ground_calibration, frame, self.mount_height,
                self.config.seed,
            )
            self.world_to_h = self.p_cali @ self.sensor_pose
            self.h_to_ecef = self._build_h_to_ecef()
        # The geofence bounds hold in H-Coor, as for the oracle's clutter.
        leveled = _timed(seconds, "preprocess", apply_transform, frame, self.p_cali)
        fenced = _timed(seconds, "preprocess", geofence, leveled, self.bounds)

        if self.backend == "oracle":
            if gt_agents is None:
                raise PipelineStageError(
                    "detection", ValueError("oracle backend needs ground-truth agents")
                )
            seed = [self.config.seed & 0xFFFFFFFF, 0xDE7EC7, self.frame_index]
            truth = _timed(seconds, "detection", self._truth_in_h, gt_agents)
            dets = _timed(seconds, "detection", detect_oracle, truth, self.noise, seed, self.bounds)
        else:
            dets = _timed(seconds, "detection", detect_cluster, fenced, self.cluster_params)

        tracks = _timed(seconds, "tracking", track_frame, self.tracker, dets, frame.t)
        records = _timed(
            seconds, "geolocalization", georeference_tracks, tracks, self.h_to_ecef, frame.t
        )
        stamps = PhaseStamps(t_sensor=t_in, t_edge_in=t_in, t_edge_out=self._now(frame.t))
        encoded = _timed(seconds, "encoding", encode_frame, records, stamps, frame.t)
        self.frame_index += 1
        return FrameResult(encoded=encoded, stage_seconds=seconds)

    def _truth_in_h(self, gt_agents: np.ndarray) -> np.ndarray:
        """A copy of the `AGENT` rows moved into H-Coor, where the oracle's
        geofence and output live: centres through `world_to_h`, headings by its yaw."""
        truth = np.array(gt_agents, AGENT)
        xyz = self.world_to_h.apply_points(np.column_stack([truth["x"], truth["y"], truth["z"]]))
        truth["x"], truth["y"], truth["z"] = xyz.T
        truth["heading"] = wrap_angles(truth["heading"] + self.world_to_h.yaw)
        return truth
