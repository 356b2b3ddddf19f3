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
"""

import hashlib
import json

import pytest

from roadeye.cli import main
from roadeye.config import load_config
from roadeye.pipeline import EdgePipeline
from roadeye.scene import scenario_frames


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


def _stream_sha256(overrides: dict) -> str:
    cfg = load_config(overrides=overrides)
    pipeline = EdgePipeline(cfg)
    digest = hashlib.sha256()
    for agents, frame in scenario_frames(cfg.scenario()):
        digest.update(pipeline.process(frame, agents).encoded)
    return digest.hexdigest()


@pytest.mark.parametrize(
    "overrides, expected",
    [
        pytest.param(
            {
                "seed": 801,
                "scene": {"duration": 4.0, "points_per_agent": 50, "agents": _crowd_agents(40)},
                "detector": {"oracle": {"sigma_pos": 0.1, "p_miss": 0.05, "fp_rate": 2.0}},
            },
            "a4d7efc9aa74615343a4a8d173760b6531a450405a8108a58ce4260956a39ab1",
            id="noisy_oracle_crowd",
        ),
        pytest.param(
            {"detector": {"backend": "cluster"}},
            "15d137ecfafbead8e5b91a9ed68777fe453d96b628310beeca4707d7076b0f92",
            id="default_cluster",
        ),
        pytest.param(
            {
                "seed": 801,
                "scene": {"duration": 4.0, "agents": _crowd_agents(40)},
                "detector": {"backend": "cluster"},
            },
            "91df297aebdc52c4e2d772808b11fff1b74a22b67abd83569b4691dcac4f3883",
            id="cluster_crowd",
        ),
    ],
)
def test_perceive_stream_digest(overrides, expected):
    assert _stream_sha256(overrides) == expected


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
