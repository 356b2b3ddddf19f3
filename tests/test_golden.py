"""Regression guard: `EdgePipeline` output bytes under a fixed seed.

The digests were recorded before the tracker moved to stacked arrays; any
refactor of the edge chain must keep them.
"""

import hashlib

import pytest

from roadeye.config import load_config
from roadeye.pipeline import EdgePipeline
from roadeye.scene import sample_point_cloud, step_scenario


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
    scenario = cfg.scenario()
    pipeline = EdgePipeline(cfg)
    digest = hashlib.sha256()
    for k, t in enumerate(scenario.frame_times()):
        agents = step_scenario(scenario, float(t))
        frame = sample_point_cloud(agents, scenario, frame_index=k, t=float(t))
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
            "e63203bc47824a1f7aa8f4e90d4c5a0e6479723d5fcab2c2a86077674306f3b5",
            id="noisy_oracle_crowd",
        ),
        pytest.param(
            {"detector": {"backend": "cluster"}},
            "9297a4fa1f54ee9953e6dc474e2a50232388386e93a9681e99e08ab875edb4c6",
            id="default_cluster",
        ),
    ],
)
def test_perceive_stream_digest(overrides, expected):
    assert _stream_sha256(overrides) == expected
