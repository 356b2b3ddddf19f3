"""Benchmark workloads and their seeded inputs.

Each workload is a scene plus a detector configuration. Inputs are made
only through roadeye's public scene API (`step_scenario`,
`sample_point_cloud`, `write_frames`, `write_ground_truth`) and written as
a frame file, a ground-truth file and a config file; the chain under test
receives nothing else.

The frame file holds one replay period. The chain replays it back to back,
shifting frame times by one period per pass. Crowd agents drive a straight
lane segment out and back, with the segment length chosen so that the round
trip takes exactly one period; every pass therefore continues the previous
one without a jump. `dense_scan` keeps the default intersection routes, so
its four agents jump back to their start once per pass.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from roadeye.config import DEFAULTS, load_config
from roadeye.geometry import ObjectClass
from roadeye.scene import (
    AREA_HALF_EXTENT,
    GroundTruthFrame,
    dim_range,
    sample_point_cloud,
    step_scenario,
    write_frames,
    write_ground_truth,
)

TICK = 0.1  # s, the 10 Hz sensor
LANE_HALF_SPAN = 48.0  # m, lanes and segments stay inside the square
VEHICLE_SHARE = 0.8  # about four vehicles to each pedestrian
VEHICLE_SPEED = (4.0, 10.0)  # m/s
PEDESTRIAN_SPEED = (0.8, 1.6)  # m/s


@dataclass(frozen=True)
class Workload:
    name: str
    agents: int | None  # None: the default four-agent intersection
    points: int  # target points per frame, ground included
    frames: int  # frames in the file, one replay period
    backend: str
    oracle_noise: dict = field(default_factory=dict)

    def tiny(self) -> "Workload":
        """The same workload shrunk for the smoke test."""
        agents = None if self.agents is None else max(8, self.agents // 20)
        return Workload(self.name, agents, max(3000, self.points // 20),
                        20, self.backend, self.oracle_noise)

    def params(self) -> dict:
        return {
            "agents": self.agents if self.agents is not None else len(DEFAULTS["scene"]["agents"]),
            "points_per_frame_target": self.points,
            "frames_per_pass": self.frames,
            "tick_s": TICK,
            "backend": self.backend,
            "oracle_noise": self.oracle_noise,
        }


# Each workload loads different layers, so a change to one layer should move
# the figures of the workload that stresses it and leave the others alone.
WORKLOADS = {
    w.name: w
    for w in (
        # Point-bound: scene read, preproc and the voxel graph dominate;
        # track, geoloc, wire and onboard see four objects. Not listed in
        # BENCHMARK.json: on a 2-core host its median latency swings by more
        # than a quarter from run to run, so it is run by hand only.
        Workload("dense_scan", agents=None, points=100_000, frames=50, backend="cluster"),
        # Object-bound: track association, geoloc, per-record wire and per-icon
        # onboard dominate; misses and clutter drive track births and deaths.
        Workload("crowd_oracle", agents=200, points=20_000, frames=60, backend="oracle",
                 oracle_noise={"sigma_pos": 0.1, "p_miss": 0.05, "fp_rate": 2.0}),
        # Many small clusters instead of a few large point sets, and fewer,
        # range-dependent detections for the tracker.
        Workload("crowd_cluster", agents=100, points=20_000, frames=60, backend="cluster"),
    )
}


def crowd_agents(n: int, period: float, seed: int) -> list[dict]:
    """`n` agents on straight east-west or north-south lanes, each driving a
    segment out and back once per `period` seconds.

    Segment midpoints take one cell each of a grid over the square. The
    agent in the k-th cell nearest the sensor gets the same class and the
    same speed and size strata under every seed: the few large vehicles
    near the sensor, which the cluster backend splits into several
    detections, would otherwise move precision by a fifth from seed to
    seed. The seed moves each value within its stratum, each midpoint
    within its cell, and each lane's axis and direction.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0xC20D])
    side = int(np.ceil(np.sqrt(n)))
    cell = 2 * LANE_HALF_SPAN / side
    centre_range = np.hypot(*(np.indices((side, side)) + 0.5 - side / 2).reshape(2, -1))
    by_range = np.argsort(centre_range + 1e-6 * rng.random(side * side), kind="stable")
    cells = by_range[np.round(np.linspace(0, side * side - 1, n)).astype(int)]
    vehicles = round(VEHICLE_SHARE * n)
    # Vehicles and pedestrians interleave evenly along the range order.
    is_vehicle = np.diff(np.floor(np.arange(n + 1) * vehicles / n)) > 0
    agents = []
    for j in range(n):
        vehicle = bool(is_vehicle[j])
        count = vehicles if vehicle else n - vehicles
        rank = int(np.sum(is_vehicle[:j] == vehicle))
        # Per quantity (speed, w, l, h), a fixed stratum spread along range;
        # the steps are primes, so each quantity takes every stratum once.
        strata = rank * np.array([13, 17, 23, 29]) % count
        u = (strata + rng.random(4)) / count
        lo, hi = VEHICLE_SPEED if vehicle else PEDESTRIAN_SPEED
        speed = float(lo + (hi - lo) * u[0])
        cls = ObjectClass.VEHICLE if vehicle else ObjectClass.PEDESTRIAN
        dims = [float(a + (b - a) * x) for (a, b), x in zip(dim_range(cls), u[1:])]
        half = speed * period / 4.0  # the segment is half the round trip
        row, col = divmod(int(cells[j]), side)
        mid = -LANE_HALF_SPAN + cell * (np.array([col, row]) + rng.random(2))
        along = int(rng.integers(2))  # 0: east-west lane, 1: north-south lane
        centre = float(np.clip(mid[along], -LANE_HALF_SPAN + half, LANE_HALF_SPAN - half))
        a, b = mid.copy(), mid.copy()
        a[along], b[along] = centre - half, centre + half
        if rng.random() < 0.5:
            a, b = b, a
        agents.append({
            "class": cls.value,
            "route": [a.tolist(), b.tolist(), a.tolist()],
            "speed": speed,
            "dims": dims,
        })
    return agents


def default_agents() -> list[dict]:
    """The default intersection with every box at the middle of its class's
    size range: with four agents, seeded sizes would swing precision by more
    than a fifth from seed to seed."""
    agents = copy.deepcopy(DEFAULTS["scene"]["agents"])
    for a in agents:
        a["dims"] = [(lo + hi) / 2.0 for lo, hi in dim_range(ObjectClass(a["class"]))]
    return agents


def workload_config(w: Workload, seed: int) -> dict:
    """Config overrides for the chain; the ground density is filled in later."""
    period = w.frames * TICK
    agents = default_agents() if w.agents is None else crowd_agents(w.agents, period, seed)
    return {
        "seed": seed,
        "scene": {"duration": period, "tick": TICK, "sensor_yaw_deg": 0.0,
                  "ground_point_density": 0.0, "agents": agents},
        "detector": {"backend": w.backend, "oracle": dict(w.oracle_noise)},
    }


def write_inputs(w: Workload, seed: int, work: Path) -> dict:
    """Write config.json, frames.bin and frames.bin.gt into `work`.

    Ground density is set so that frame 0 holds about `w.points` points.
    Returns a summary including one sha256 over the three files.
    """
    overrides = workload_config(w, seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(overrides))
    scenario = load_config(cfg_path).scenario()
    agents0 = step_scenario(scenario, 0.0)
    agent_points = len(sample_point_cloud(agents0, scenario, frame_index=0, t=0.0))
    area = (2 * AREA_HALF_EXTENT) ** 2
    overrides["scene"]["ground_point_density"] = max(0, w.points - agent_points) / area
    cfg_path.write_text(json.dumps(overrides))
    scenario = load_config(cfg_path).scenario()

    frames, gt = [], []
    for k, t in enumerate(scenario.frame_times()):
        agents = agents0 if k == 0 else step_scenario(scenario, float(t))
        frames.append(sample_point_cloud(agents, scenario, frame_index=k, t=float(t)))
        gt.append(GroundTruthFrame(t=float(t), agents=agents))
    frames_path = work / "frames.bin"
    write_frames(frames, frames_path)
    write_ground_truth(gt, str(frames_path) + ".gt")

    digest = hashlib.sha256()
    for name in ("config.json", "frames.bin", "frames.bin.gt"):
        digest.update((work / name).read_bytes())
    return {
        "frames": len(frames),
        "period_s": scenario.duration,
        "mean_points_per_frame": float(np.mean([len(f) for f in frames])),
        "inputs_sha256": digest.hexdigest(),
    }
