"""Roadside LiDAR perception pipeline.

Synthetic intersection scenes, geofencing and self-calibration, pluggable
3D detection with verified box-encoding/loss math, motion-model tracking
that gives each detection the id of its associated track, WGS84
georeferencing, a binary message relay, onboard scene reconstruction, and an
evaluation harness.
"""

__version__ = "0.1.0"

from .geometry import ObjectClass, OrientedBox3D, RigidTransform
from .scene import PointCloudFrame, ScenarioConfig, sample_point_cloud, step_scenario
from .preproc import GeofenceBounds, apply_transform, estimate_ground_calibration, geofence
from .detect import BoxResiduals, Detection, LossWeights, detect_cluster, detect_oracle
from .track import Tracker2D, TrackerConfig, project_to_2d, track_frame
from .geoloc import (
    EcefPos,
    GeodeticPos,
    WGS84,
    Wgs84Params,
    ecef_to_geodetic,
    estimate_ecef_transform,
    geodetic_to_ecef,
    georeference_tracks,
)
from .wire import PerceptionMessage, PhaseStamps, decode_frame, encode_frame
from .relay import RelayServer, relay_serve
from .onboard import build_pixel_map, emit_render, gps_to_pixel, reconstruct_frame
from .evaluate import (
    ConfusionCounts,
    compute_metrics,
    count_id_switches,
    latency_report,
    match_detections,
)
