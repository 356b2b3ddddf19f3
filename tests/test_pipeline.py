"""EdgePipeline state: what one instance keeps across the frames of a stream."""

import itertools

import numpy as np
import pytest

from roadeye import pipeline as pipeline_mod
from roadeye.config import load_config
from roadeye.geoloc import GeodeticPos, enu_to_ecef_transform, geodetic_to_ecef
from roadeye.pipeline import EdgePipeline
from roadeye.scene import scenario_frames
from roadeye.wire import decode_frame

STAGES = {"preprocess", "detection", "tracking", "geolocalization", "encoding"}


def _container_sizes(pipeline: EdgePipeline) -> dict[str, int]:
    """Length of every list or dict held by the pipeline or its tracker, one level deep."""
    sizes = {}
    for owner in (pipeline, pipeline.tracker):
        for name, value in vars(owner).items():
            if not isinstance(value, (list, dict)):
                continue
            path = f"{type(owner).__name__}.{name}"
            sizes[path] = len(value)
            if isinstance(value, dict):
                for key, inner in value.items():
                    if isinstance(inner, (list, dict)):
                        sizes[f"{path}[{key!r}]"] = len(inner)
    return sizes


def test_pipeline_keeps_no_per_frame_history():
    # The default scene, lengthened by half a second to give 5 + 100 frames.
    cfg = load_config(overrides={"scene": {"duration": 10.5}})
    pipeline = EdgePipeline(cfg)
    frames = scenario_frames(cfg.scenario())
    for agents, frame in itertools.islice(frames, 5):
        pipeline.process(frame, agents)
    after_5 = _container_sizes(pipeline)
    n = 0
    for agents, frame in frames:
        result = pipeline.process(frame, agents)
        assert set(result.stage_seconds) == STAGES
        n += 1
    assert n == 100
    assert _container_sizes(pipeline) == after_5


def test_oracle_clutter_lies_inside_the_geofence(monkeypatch):
    cfg = load_config(overrides={
        "scene": {"duration": 2.0}, "detector": {"oracle": {"fp_rate": 20.0}},
    })
    seen = []
    track_frame = pipeline_mod.track_frame

    def recording_track_frame(tracker, dets, t):
        seen.append(dets)
        return track_frame(tracker, dets, t)

    monkeypatch.setattr(pipeline_mod, "track_frame", recording_track_frame)
    pipeline = EdgePipeline(cfg)
    for agents, frame in scenario_frames(cfg.scenario()):
        pipeline.process(frame, agents)
    seen = np.concatenate(seen)
    box = seen["box"]
    # Clutter scores are uniform in [0, 1); every agent detection scores 1.
    centers = np.column_stack([box["x"], box["y"], box["z"]])
    clutter = centers[seen["score"] < 1.0]
    agent_bottoms = (box["z"] - box["h"] / 2)[seen["score"] == 1.0].tolist()
    assert len(clutter) > 200 and agent_bottoms
    assert cfg.geofence_bounds().contains(clutter).all()
    assert agent_bottoms == pytest.approx([-cfg["scene.mount_height"]] * len(agent_bottoms))


def test_pitched_sensor_without_gcps_georeferences_in_true_enu():
    # Leveling removes the 5 deg pitch, so H-Coor less the sensor offset is
    # ENU about the sensor. Reading L-Coor as ENU instead put the decoded
    # centres 0.40 m off in plan and 3.93 m off vertically.
    cfg = load_config(overrides={"scene": {"duration": 2.0, "sensor_pitch_deg": 5.0}})
    pipeline = EdgePipeline(cfg)
    ecef_to_enu = enu_to_ecef_transform(cfg.sensor_geodetic()).inverse()
    n = 0
    for agents, frame in scenario_frames(cfg.scenario()):
        # True ENU about the sensor: the world frame less the mount height.
        truth = np.array([a.center for a in agents]) - [0.0, 0.0, cfg["scene.mount_height"]]
        for m in decode_frame(pipeline.process(frame, agents).encoded).messages:
            ecef = geodetic_to_ecef(GeodeticPos(m.lat, m.lon, m.alt)).as_array()
            enu = ecef_to_enu.apply_point(ecef)
            plan = np.hypot(*(truth[:, :2] - enu[:2]).T)
            k = int(np.argmin(plan))
            assert plan[k] <= 0.05
            assert abs(truth[k, 2] - enu[2]) <= 0.1
            n += 1
    assert n == 4 * 20


def test_an_id_beyond_i32_stops_the_frame_at_encoding():
    cfg = load_config(overrides={"scene": {"duration": 1.0}})
    pipeline = EdgePipeline(cfg)
    pipeline.tracker.next_id = 2 ** 31  # as after a very long run
    with pytest.raises(pipeline_mod.PipelineStageError, match="2147483648") as info:
        for agents, frame in scenario_frames(cfg.scenario()):
            pipeline.process(frame, agents)
    assert info.value.stage == "encoding"
