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

`STREAM_SHA256` and `STREAM_SHA256_WITHOUT_IDS` were recorded in the `CMM1`
layout, before each record carried its class, and are checked on the
streams as `_cmm1_layout` rebuilds that layout: every byte but `cls` is the
same as then. `STREAM_SHA256_CMM2` hashes the streams as sent.

The SVG digests hash what the onboard side draws from each stream: every
frame decoded, reconstructed with the config's pixel map and ego feed, and
rendered.
"""

import functools
import hashlib
import json
import struct
from typing import NamedTuple

import numpy as np
import pytest

from roadeye.cli import main
from roadeye.config import DEFAULTS, load_config
from roadeye.onboard import reconstruct_frame, render_svg
from roadeye.pipeline import EdgePipeline
from roadeye.scene import scenario_frames
from roadeye.wire import HEADER_BYTES, RECORD, RECORD_BYTES, decode_frame


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


def _cmm1_layout(frame: bytes) -> bytes:
    """A frame as the `CMM1` layout had it: that magic, every record without
    its last field, the one-byte `cls`, and the payload length one byte
    shorter per record."""
    assert RECORD.fields["cls"][1] == RECORD_BYTES - 1
    n = (len(frame) - HEADER_BYTES) // RECORD_BYTES
    (payload_len,) = struct.unpack_from("<I", frame, 4)
    records = np.frombuffer(frame, np.uint8, offset=HEADER_BYTES).reshape(n, RECORD_BYTES)
    return (b"CMM1" + struct.pack("<I", payload_len - n) + frame[8:HEADER_BYTES]
            + records[:, :-1].tobytes())


class _Run(NamedTuple):
    stream: str  # sha256 of the perceive stream
    cmm1: str  # sha256 of the stream in the CMM1 layout
    cmm1_without_ids: str  # the same, with every record's `id` set to 0
    repeats: int  # frames in which two records share a non-negative id
    svg: str  # sha256 of the SVG documents the frames render to


def _perceive(overrides: dict) -> _Run:
    cfg = load_config(overrides=overrides)
    pipeline = EdgePipeline(cfg)
    pixel_map, ego_feed = cfg.pixel_map(), cfg.ego_simulator()
    digest, cmm1, masked, svg = (hashlib.sha256() for _ in range(4))
    repeats = 0
    for agents, frame in scenario_frames(cfg.scenario()):
        encoded = pipeline.process(frame, agents).encoded
        digest.update(encoded)
        cmm1.update(_cmm1_layout(encoded))
        rec = np.frombuffer(encoded, RECORD, offset=HEADER_BYTES).copy()
        ids = rec["id"][rec["id"] >= 0]
        repeats += len(np.unique(ids)) < len(ids)
        rec["id"] = 0
        masked.update(_cmm1_layout(encoded[:HEADER_BYTES] + rec.tobytes()))
        decoded = decode_frame(encoded)
        render = reconstruct_frame(decoded.messages, ego_feed.state_at(decoded.t_frame), pixel_map)
        svg.update(render_svg(render).encode("utf-8"))
    return _Run(digest.hexdigest(), cmm1.hexdigest(), masked.hexdigest(), repeats,
                svg.hexdigest())


@functools.lru_cache(maxsize=None)
def _perceive_scene(scene: str) -> _Run:
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
STREAM_SHA256_CMM2 = {
    "noisy_oracle_crowd": "6e5aa8db4327723178a543fb5c579fce06b4ecbac59cef0a328bc735c70e4f18",
    "default_cluster": "f5a5cb1613d82b2f4cf709b9a55b00c98bea23100c5354129c84f5cba9596ec7",
    "cluster_crowd": "c66fcf158ab49f2ede577071a50213a3536c77cb31db320e59b4be65c5fabf3b",
}

SVG_SHA256 = {
    "noisy_oracle_crowd": "4fd427ab0caea657ff6e742d6cfc3dc587033608d201d9c6c56b28d55e3543e1",
    "default_cluster": "df0f403aec846866845e0eec898ae54242f2ca715a4e29e9efefb7c3fb2266ed",
    "cluster_crowd": "6299c0549d8ecebd9a34a303f40da6f219c18b105fb4fc9e9e65f1d1934b4ae4",
}


@pytest.mark.parametrize("scene", PERCEIVE_SCENES)
def test_perceive_stream_digest(scene):
    assert _perceive_scene(scene).cmm1 == STREAM_SHA256[scene]


@pytest.mark.parametrize("scene", PERCEIVE_SCENES)
def test_perceive_stream_digest_without_ids(scene):
    assert _perceive_scene(scene).cmm1_without_ids == STREAM_SHA256_WITHOUT_IDS[scene]


@pytest.mark.parametrize("scene", PERCEIVE_SCENES)
def test_perceive_stream_digest_with_classes(scene):
    assert _perceive_scene(scene).stream == STREAM_SHA256_CMM2[scene]


@pytest.mark.parametrize("scene", PERCEIVE_SCENES)
def test_perceive_ids_unique_within_each_frame(scene):
    assert _perceive_scene(scene).repeats == 0


@pytest.mark.parametrize("scene", PERCEIVE_SCENES)
def test_rendered_svg_digest(scene):
    assert _perceive_scene(scene).svg == SVG_SHA256[scene]


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
    assert _perceive(overrides).cmm1 != STREAM_SHA256[scene]


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
