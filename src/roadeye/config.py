"""Pipeline configuration: one JSON file, one defaults tree, strict keys.

Each setting has one home, the dataclass or module constant the pipeline runs
on. DEFAULTS reads the geofence, detector noise and cluster, tracker, numeric
scene (sensor angles included) and eval values from GeofenceBounds,
DetectorNoise, ClusterParams, TrackerConfig, ScenarioConfig and
evaluate.DEFAULT_MATCH_THRESHOLD, and the viewport from onboard.VIEWPORT; the
accessors build those objects from their sections by field name. The other
keys (seed, agents, geoloc, relay, the rest of onboard) have their defaults
here. config.sample.json in the repository root mirrors DEFAULTS (enforced by
a test). Unknown keys are rejected with their full dotted path, and a value
must have its default's type: an integer default takes only integers, a float
one only finite numbers (`json` reads NaN and Infinity), a null one a string
or null, and a list one a list of its length, item by item. Each
scene.agents entry is checked when the scenario is built: it takes only
class, route (finite points), speed (a finite number) and dims (null, or
three numbers inside the class's ranges).
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict, dataclass

from .detect import ClusterParams, DetectorNoise
from .evaluate import DEFAULT_MATCH_THRESHOLD
from .geoloc import GeodeticPos
from .geometry import ObjectClass
from .onboard import VIEWPORT, EgoSimulator, PixelMap, build_pixel_map
from .preproc import GeofenceBounds
from .scene import AgentSpec, ScenarioConfig
from .track import TrackerConfig


class ConfigError(ValueError):
    """Invalid configuration; the message carries the dotted key path."""


# The numeric scene keys, each the ScenarioConfig field of the same name.
_SCENE_FIELDS = ("duration", "tick", "mount_height", "points_per_agent", "ground_point_density",
                 "sensor_pitch_deg", "sensor_yaw_deg")


def _fields(settings, *derived: str) -> dict:
    """A settings dataclass's values by field name, less the fields that
    come from another section."""
    return {k: v for k, v in asdict(settings).items() if k not in derived}


# The default scenario: three vehicles on separate lanes plus one crossing
# pedestrian, 10 s at 10 Hz. Reference points span the surveillance square
# corners at +-51.2 m around the default sensor location (40 N, 105 W).
DEFAULTS = {
    "seed": 0,
    "scene": {
        **{k: getattr(ScenarioConfig, k) for k in _SCENE_FIELDS},
        "agents": [
            {"class": "vehicle", "route": [[-45.0, -3.5], [45.0, -3.5]], "speed": 8.0},
            {"class": "vehicle", "route": [[45.0, 3.5], [-45.0, 3.5]], "speed": 7.0},
            {"class": "vehicle", "route": [[-3.5, -45.0], [-3.5, 45.0]], "speed": 6.0},
            {"class": "pedestrian", "route": [[10.0, -8.0], [10.0, 8.0]], "speed": 1.2},
        ],
    },
    "geofence": _fields(GeofenceBounds()),
    "detector": {
        "backend": "oracle",
        "oracle": _fields(DetectorNoise()),
        "cluster": _fields(ClusterParams(), "ground_z"),
    },
    "tracker": _fields(TrackerConfig()),
    "geoloc": {
        "gcp_file": None,
        "sensor_lat": 40.0,
        "sensor_lon": -105.0,
        "sensor_alt": 1600.0,
    },
    "relay": {
        "bind": "127.0.0.1:7700",
        "max_subscribers": 16,
        "queue_frames": 64,
    },
    "onboard": {
        "connect": "127.0.0.1:7700",
        "ref_a": {"lat": 39.99954006257453, "lon": -105.00060040566784, "u": 0.0, "v": 800.0},
        "ref_b": {"lat": 40.00045993742547, "lon": -104.99939959433216, "u": 800.0, "v": 0.0},
        "viewport": list(VIEWPORT),
        "ego": {
            "lat": 39.99975,
            "lon": -105.0,
            "heading": 0.0,
            "speed": 0.0,
            "rate_hz": 8.0,
            "noise_std": 0.0,
        },
    },
    "eval": {
        "dist_threshold": DEFAULT_MATCH_THRESHOLD,
    },
}

# Keys whose values are free-form (not validated against the default shape).
_OPEN_KEYS = {"scene.agents"}
_AGENT_KEYS = ("class", "route", "speed", "dims")


def _check_keys(user: dict, defaults: dict, path: str = ""):
    for key, value in user.items():
        dotted = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {dotted}")
        if dotted not in _OPEN_KEYS:
            _check_value(value, defaults[key], dotted)


def _check_value(value, d, dotted: str):
    if isinstance(d, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{dotted}: expected an object")
        _check_keys(value, d, dotted)
    elif isinstance(d, list):
        if not isinstance(value, list) or len(value) != len(d):
            raise ConfigError(f"{dotted}: expected a list of {len(d)} items")
        for k, (item, d_item) in enumerate(zip(value, d)):
            _check_value(item, d_item, f"{dotted}[{k}]")
    elif isinstance(d, int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{dotted}: expected an integer")
    elif isinstance(d, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{dotted}: expected a number")
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int past a float's range
            raise ConfigError(f"{dotted}: expected a finite number, got {value}")
    elif isinstance(d, str):
        if not isinstance(value, str):
            raise ConfigError(f"{dotted}: expected a string")
    elif d is None:
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{dotted}: expected a string or null")


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass
class PipelineConfig:
    """Validated, merged configuration with typed accessors per module."""

    data: dict

    def __getitem__(self, dotted: str):
        node = self.data
        for part in dotted.split("."):
            node = node[part]
        return node

    @property
    def seed(self) -> int:
        return self.data["seed"]

    def merged(self, overrides: dict) -> PipelineConfig:
        """A copy with `overrides` merged in, checked as a config file is."""
        _check_keys(overrides, DEFAULTS)
        return PipelineConfig(data=_merge(self.data, overrides))

    def scenario(self) -> ScenarioConfig:
        s = self.data["scene"]
        if not isinstance(s["agents"], list):
            raise ConfigError("scene.agents: expected a list")
        agents = []
        for k, a in enumerate(s["agents"]):
            path = f"scene.agents[{k}]"
            if not isinstance(a, dict):
                raise ConfigError(f"{path}: expected an object")
            for key in a:
                if key not in _AGENT_KEYS:
                    raise ConfigError(f"unknown config key: {path}.{key}")
            _check_value(a.get("speed"), 0.0, f"{path}.speed")
            try:
                agents.append(AgentSpec(cls=ObjectClass(a["class"]), route=a["route"],
                                        speed=float(a["speed"]), dims=a.get("dims")))
            except (KeyError, ValueError) as e:
                raise ConfigError(f"{path}: {e}") from None
        return ScenarioConfig(agents=agents, rng_seed=self.seed, **{k: s[k] for k in _SCENE_FIELDS})

    def geofence_bounds(self) -> GeofenceBounds:
        return GeofenceBounds(**self.data["geofence"])

    def detector_noise(self) -> DetectorNoise:
        return DetectorNoise(**self.data["detector"]["oracle"])

    def cluster_params(self) -> ClusterParams:
        return ClusterParams(
            **self.data["detector"]["cluster"], ground_z=-self.data["scene"]["mount_height"]
        )

    def tracker_config(self) -> TrackerConfig:
        return TrackerConfig(**self.data["tracker"])

    def sensor_geodetic(self) -> GeodeticPos:
        g = self.data["geoloc"]
        return GeodeticPos(lat=g["sensor_lat"], lon=g["sensor_lon"], alt=g["sensor_alt"])

    def pixel_map(self) -> PixelMap:
        o = self.data["onboard"]
        a, b = o["ref_a"], o["ref_b"]
        return build_pixel_map(
            ref_a_gps=GeodeticPos(lat=a["lat"], lon=a["lon"], alt=0.0),
            ref_a_px=(a["u"], a["v"]),
            ref_b_gps=GeodeticPos(lat=b["lat"], lon=b["lon"], alt=0.0),
            ref_b_px=(b["u"], b["v"]),
            viewport=tuple(o["viewport"]),
        )

    def ego_simulator(self) -> EgoSimulator:
        """The ego GPS feed: `onboard.ego` by name, its lat/lon as the start."""
        ego = dict(self.data["onboard"]["ego"])
        start = GeodeticPos(lat=ego.pop("lat"), lon=ego.pop("lon"), alt=0.0)
        return EgoSimulator(start=start, seed=self.seed, **ego)


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Merge defaults <- file <- overrides, rejecting unknown keys."""
    cfg = PipelineConfig(data=copy.deepcopy(DEFAULTS))
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: top level must be an object")
        cfg = cfg.merged(user)
    if overrides:
        cfg = cfg.merged(overrides)
    return cfg
