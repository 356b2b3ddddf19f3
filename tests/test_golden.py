"""Regression guard: `EdgePipeline` output bytes and `roadeye simulate`
file bytes under a fixed seed.

The pipeline digests were recorded before the tracker moved to stacked arrays
(the `cluster_crowd` one before the cluster detector grouped points with one
sort), the simulate digests before the frame and ground-truth writers shared
one container writer; any refactor of the edge chain or of the file formats
must keep them. `noisy_oracle_crowd` was re-recorded when the oracle's
clutter moved from under the road into the geofence, which changes the
altitude of every clutter message, and again when the oracle drew its miss,
noise and clutter as arrays, which changes the random stream behind them.
All three were re-recorded when georeferencing moved to the fixed-step array
Bowring iteration: every decoded field is unchanged except lat, lon and alt,
which move by at most 1.5e-14 deg and 1.9e-9 m.
All three were re-recorded when each record's id came from the assignment
instead of a second nearest-track search: only `id` moved.

The id-masked digests hash the same streams with every record's `id` set
to 0, so a tracker change that only renumbers records must keep them.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from roadeye.cli import main
from roadeye.config import DEFAULTS, load_config
from roadeye.pipeline import EdgePipeline
from roadeye.scene import scenario_frames
from roadeye.wire import HEADER_BYTES, RECORD


def _crowd_agents(n: int) -> list[dict]:
    """`n` agents on alternating east-west and north-south lanes 4 m apart."""
    agents = []
    for k in range(n):
        offset = -39.0 + 2.0 * k
        start, end = (-45.0, 45.0) if k % 4 < 2 else (45.0, -45.0)
        if k % 2 == 0:
            route = [[start, offset], [end, offset]]
        else:
            route = [[offset, start], [offset, end]]
        if k % 5 == 4:
            agents.append({"class": "pedestrian", "route": route, "speed": 1.2})
        else:
            agents.append({"class": "vehicle", "route": route, "speed": 3.0 + k % 7})
    return agents


PERCEIVE_SCENES = {
    "noisy_oracle_crowd": {
        "seed": 801,
        "scene": {"duration": 4.0, "points_per_agent": 50, "agents": _crowd_agents(40)},
        "detector": {"oracle": {"sigma_pos": 0.1, "p_miss": 0.05, "fp_rate": 2.0}},
    },
    "default_cluster": {"detector": {"backend": "cluster"}},
    "cluster_crowd": {
        "seed": 801,
        "scene": {"duration": 4.0, "agents": _crowd_agents(40)},
        "detector": {"backend": "cluster"},
    },
}


def _perceive(overrides: dict) -> tuple[str, str, int]:
    """sha256 of a perceive stream, sha256 of the same stream with every
    record's `id` set to 0, and the number of frames in which two records
    share a non-negative id."""
    cfg = load_config(overrides=overrides)
    pipeline = EdgePipeline(cfg)
    digest, masked = hashlib.sha256(), hashlib.sha256()
    repeats = 0
    for agents, frame in scenario_frames(cfg.scenario()):
        encoded = pipeline.process(frame, agents).encoded
        digest.update(encoded)
        rec = np.frombuffer(encoded, RECORD, offset=HEADER_BYTES).copy()
        ids = rec["id"][rec["id"] >= 0]
        repeats += len(np.unique(ids)) < len(ids)
        rec["id"] = 0
        masked.update(encoded[:HEADER_BYTES] + rec.tobytes())
    return digest.hexdigest(), masked.hexdigest(), repeats


@functools.lru_cache(maxsize=None)
def _perceive_scene(scene: str) -> tuple[str, str, int]:
    return _perceive(PERCEIVE_SCENES[scene])


STREAM_SHA256 = {
    "noisy_oracle_crowd": "2fa489c80f4e86d06a7355e1a1773a6ba7ec4fd19aa5f588ea847597b8bfb80c",
    "default_cluster": "0f477774e49fd996691daf9d0336ba42d1da7344161806c4bf4e596e2e80297b",
    "cluster_crowd": "de9cfb28605d560f7823f1122bc35beb0a124075db42979722be9b891ab515f0",
}
STREAM_SHA256_WITHOUT_IDS = {
    "noisy_oracle_crowd": "91b0a2a63c781399e65fa32a1263904f3428b45c4d672f3045835c7ccc9288ea",
    "default_cluster": "9fa346580730569ddb98062e8e5db3eb7501a7dc9c7ef1dedb813d65d38a1e03",
    "cluster_crowd": "4b0c5722593d1516b01fd5af9abb6a411ecae51c640c9883802a8dc1ee93f17e",
}


@pytest.mark.parametrize("scene", PERCEIVE_SCENES)
def test_perceive_stream_digest(scene):
    assert _perceive_scene(scene)[0] == STREAM_SHA256[scene]


@pytest.mark.parametrize("scene", PERCEIVE_SCENES)
def test_perceive_stream_digest_without_ids(scene):
    assert _perceive_scene(scene)[1] == STREAM_SHA256_WITHOUT_IDS[scene]


@pytest.mark.parametrize("scene", PERCEIVE_SCENES)
def test_perceive_ids_unique_within_each_frame(scene):
    assert _perceive_scene(scene)[2] == 0


# A value per tracker setting that changes the noisy_oracle_crowd stream; a
# setting with no entry here fails the test below until it gets one.
TRACKER_CHANGES = {
    "d_o": 0.05,
    "gate_assoc": 0.5,
    "max_age": 1,
    "process_noise": 10.0,
    "measurement_noise": 1.0,
}


@pytest.mark.parametrize("key", DEFAULTS["tracker"])
def test_every_tracker_setting_changes_the_stream(key):
    scene = "noisy_oracle_crowd"
    overrides = {**PERCEIVE_SCENES[scene], "tracker": {key: TRACKER_CHANGES[key]}}
    assert _perceive(overrides)[0] != STREAM_SHA256[scene]


@pytest.mark.parametrize(
    "config, frames_sha256, gt_sha256",
    [
        pytest.param(
            None,
            "2f09672aa8ec213580450a52395cf4fd842f1e86389121649d6469d6cd6d2fcc",
            "039f4e9ba32c58bcf94fa418ca73669b9258ea7a59b0800d01a16181005032c8",
            id="default",
        ),
        pytest.param(
            {"seed": 801, "scene": {"duration": 4.0, "agents": _crowd_agents(40)}},
            "fbedaad4ad6b6700f8a0fc78ac2378c3a29268c068ba3df97939509b01feef24",
            "896f9d0b7648c9a0fd428630bc1f346acd33baa591d3f35cd26e83814d4113f0",
            id="crowd",
        ),
    ],
)
def test_simulate_file_digests(tmp_path, config, frames_sha256, gt_sha256):
    argv = []
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)]
    out = tmp_path / "frames.bin"
    assert main([*argv, "simulate", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == frames_sha256
    assert hashlib.sha256((tmp_path / "frames.bin.gt").read_bytes()).hexdigest() == gt_sha256
