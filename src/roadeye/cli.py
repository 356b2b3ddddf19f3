"""Command-line entry point: simulate, perceive, relay, onboard, eval, bench.

All subcommands share one JSON config (--config) and one seed (--seed).
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import onboard as onboard_mod
from .config import ConfigError, PipelineConfig, load_config
from .evaluate import (
    ConfusionCounts,
    compute_metrics,
    format_latency_report,
    format_metric_report,
    latency_report,
    match_detections,
)
from .detect import DETECTION
from .geoloc import GeodeticPos, geodetic_to_ecef
from .geometry import ObjectClass
from .pipeline import EdgePipeline, PipelineStageError
from .relay import connect_publisher, connect_subscriber, relay_serve
from .scene import (
    GroundTruthFrame,
    kept_frames,
    read_frames,
    read_ground_truth,
    scenario_frames,
    write_frames,
    write_ground_truth,
)
from .wire import decode_frame, iter_frames_from_file, read_frame_bytes

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _open_tap(stack: contextlib.ExitStack, path: str | None):
    """Open the message tap; a file is closed with `stack`, stdout never is."""
    if path is None:
        return None
    if path == "-":
        return sys.stdout
    return stack.enter_context(open(path, "w"))


def _tap_messages(tap, msgs):
    if tap is None:
        return
    for m in msgs:
        tap.write(json.dumps(m._asdict()) + "\n")
    tap.flush()


def cmd_simulate(cfg: PipelineConfig, args) -> int:
    frames, gt = [], []
    for agents, frame in scenario_frames(cfg.scenario()):
        frames.append(frame)
        gt.append(GroundTruthFrame(t=frame.t, agents=agents))
    write_frames(frames, args.out)
    gt_path = args.gt if args.gt else str(args.out) + ".gt"
    write_ground_truth(gt, gt_path)
    print(f"wrote {len(frames)} frames to {args.out}, ground truth to {gt_path}")
    return EXIT_OK


def cmd_perceive(cfg: PipelineConfig, args) -> int:
    if not (args.out or args.relay):
        raise ValueError("need --out FILE and/or --relay HOST:PORT")
    frames = read_frames(args.frames)
    gt = read_ground_truth(args.gt) if args.gt else None
    if cfg["detector.backend"] == "oracle" and gt is None:
        raise ValueError("oracle detector backend needs --gt GROUND_TRUTH")
    if gt is not None and len(gt) != len(frames):
        raise ValueError(f"{len(frames)} frames but {len(gt)} ground-truth frames")
    for k, (frame, truth) in enumerate(zip(frames, gt or ())):
        if truth.t != frame.t:
            raise ValueError(f"frame {k} is at t={frame.t} but its ground truth at t={truth.t}")
    pipeline = EdgePipeline(cfg, wall_stamps=args.wall_stamps)
    with contextlib.ExitStack() as stack:
        # Connect first: an unreachable relay must not truncate the output files.
        pub = stack.enter_context(connect_publisher(args.relay)) if args.relay else None
        out_f = stack.enter_context(open(args.out, "wb")) if args.out else None
        tap = _open_tap(stack, args.tap)
        # A skipped frame's ground truth, paired by index, is skipped with it.
        kept = kept_frames(frames)
        for k in kept:
            result = pipeline.process(frames[k], gt[k].agents if gt else None)
            if out_f is not None:
                out_f.write(result.encoded)
            if pub is not None:
                pub.sendall(result.encoded)
            if tap is not None:
                _tap_messages(tap, decode_frame(result.encoded).messages)
    print(f"perceived {len(kept)} frames, skipped {len(frames) - len(kept)} "
          "not later than the last kept frame", file=sys.stderr)
    return EXIT_OK


def cmd_relay(cfg: PipelineConfig, args) -> int:
    bind = args.bind or cfg["relay.bind"]
    server = relay_serve(
        bind,
        max_subscribers=cfg["relay.max_subscribers"],
        queue_size=cfg["relay.queue_frames"],
    )
    print(f"relay listening on {server.host}:{server.port}", flush=True)
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def cmd_onboard(cfg: PipelineConfig, args) -> int:
    endpoint = args.connect or cfg["onboard.connect"]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pixel_map = cfg.pixel_map()
    ego_sim = cfg.ego_simulator()
    deadline = time.monotonic() + args.connect_timeout
    sock = None
    while sock is None:
        try:
            sock = connect_subscriber(endpoint)
        except OSError as e:
            if time.monotonic() >= deadline:
                raise ConnectionError(f"cannot connect to relay at {endpoint}: {e}") from None
            time.sleep(0.1)
    count = 0
    with contextlib.ExitStack() as stack:
        stack.enter_context(sock)
        print(f"connected to {endpoint}", flush=True)
        tap = _open_tap(stack, args.tap)
        record_f = stack.enter_context(open(args.record, "wb")) if args.record else None
        stamps_f = stack.enter_context(open(args.stamps, "w")) if args.stamps else None
        while args.max_frames is None or count < args.max_frames:
            raw = read_frame_bytes(sock)
            if raw is None:
                break
            decoded = decode_frame(raw)
            stamps = replace(decoded.stamps, t_onboard=time.time())
            if record_f is not None:
                record_f.write(raw)
            ego = ego_sim.state_at(decoded.t_frame)
            frame = onboard_mod.reconstruct_frame(decoded.messages, ego, pixel_map)
            onboard_mod.emit_render(frame, out_dir / f"render_{count:06d}.svg")
            if stamps_f is not None:
                stamps_f.write(json.dumps(stamps.as_tuple()) + "\n")
            _tap_messages(tap, decoded.messages)
            count += 1
    print(f"rendered {count} frames to {out_dir}", flush=True)
    return EXIT_OK


def _messages_to_world_detections(msgs, cfg: PipelineConfig) -> np.recarray:
    """Decoded messages as world-frame DETECTION rows for evaluation: the box
    centres, which matching reads, and each record's class and id. The closed
    form shares no transform with the pipeline: ECEF offsets from the
    surveyed sensor location rotated into east, north and up, plus the mount
    height on up, since the world origin lies on the ground below the sensor."""
    sensor = cfg.sensor_geodetic()
    o = geodetic_to_ecef(sensor).as_array()
    sp, cp = math.sin(math.radians(sensor.lat)), math.cos(math.radians(sensor.lat))
    sl, cl = math.sin(math.radians(sensor.lon)), math.cos(math.radians(sensor.lon))
    ecef_to_enu = np.array([[-sl, cl, 0.0], [-sp * cl, -sp * sl, cp], [cp * cl, cp * sl, sp]])
    ecef = [geodetic_to_ecef(GeodeticPos(m.lat, m.lon, m.alt)).as_array() for m in msgs]
    east, north, up = ((np.reshape(ecef, (-1, 3)) - o) @ ecef_to_enu.T).T
    dets = np.zeros(len(msgs), DETECTION).view(np.recarray)
    dets.box.x, dets.box.y, dets.box.z = east, north, up + cfg["scene.mount_height"]
    dets.cls, dets.id = [m.cls for m in msgs], [m.id for m in msgs]
    return dets


def cmd_eval(cfg: PipelineConfig, args) -> int:
    threshold = args.dist_threshold
    if threshold is None:
        threshold = cfg["eval.dist_threshold"]
    if args.counts:
        with open(args.counts) as f:
            raw = json.load(f)
        counts = ConfusionCounts(
            tp=int(raw["tp"]),
            fp=int(raw["fp"]),
            fn=int(raw["ground_truth"]) - int(raw["tp"]),
        )
    else:
        if not (args.gt and args.results):
            raise ValueError("need --gt and --results, or --counts")
        # The truth frames `perceive` kept pair with the results in order.
        gt_all = read_ground_truth(args.gt)
        gt_frames = [gt_all[k] for k in kept_frames(gt_all)]
        counts = ConfusionCounts(tp=0, fp=0, fn=0)
        n_results = 0
        for raw in iter_frames_from_file(args.results):
            if n_results < len(gt_frames):
                decoded, truth = decode_frame(raw), gt_frames[n_results]
                if decoded.t_frame != truth.t:
                    raise ValueError(f"result frame {n_results} is at t={decoded.t_frame} "
                                     f"but its ground truth at t={truth.t}")
                dets = _messages_to_world_detections(decoded.messages, cfg)
                boxes = [a.as_box() for a in truth.agents]
                counts = counts + match_detections(boxes, dets, threshold)
            n_results += 1
        if n_results != len(gt_frames):
            raise ValueError(
                f"{n_results} result frames but {len(gt_frames)} ground-truth frames"
            )
    report = compute_metrics(counts)
    text = format_metric_report(counts, report)
    print(text, end="")
    if args.json:
        payload = {"counts": {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn,
                              "ground_truth": counts.ground_truth_total}}
        payload.update(report.to_dict())
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    return EXIT_OK


def cmd_bench(cfg: PipelineConfig, args) -> int:
    from .scene import AREA_HALF_EXTENT, AgentSpec

    # Dense synthetic load: a ring of circulating vehicles over a ground
    # plane sized to the requested point budget.
    agents = []
    for k in range(8):
        angle = k * np.pi / 4.0
        r0 = 25.0
        start = (r0 * np.cos(angle), r0 * np.sin(angle))
        end = (-start[0], -start[1])
        agents.append(AgentSpec(cls=ObjectClass.VEHICLE, route=[start, end], speed=8.0))
    # Ground density carries the full budget; agent surface points ride on top.
    area = (2 * AREA_HALF_EXTENT) ** 2
    density = max(0.0, args.points / area)
    scene = cfg.scenario()
    scenario = replace(scene, agents=agents, duration=args.frames * scene.tick,
                       ground_point_density=density)
    frames = [frame for _, frame in scenario_frames(scenario)]
    mean_points = sum(len(f) for f in frames) / max(1, len(frames))

    pipeline = EdgePipeline(cfg.merged({"detector": {"backend": "cluster"}}))
    pixel_map, ego_sim = cfg.pixel_map(), cfg.ego_simulator()
    pipeline.process(frames[0])  # untimed: the ground calibration
    stage_seconds = {}
    t_loop = time.perf_counter()
    for frame in frames[1:]:
        result = pipeline.process(frame)
        # The onboard side in process: decode, reconstruct and render, no file.
        t0 = time.perf_counter()
        decoded = decode_frame(result.encoded)
        ego = ego_sim.state_at(decoded.t_frame)
        onboard_mod.render_svg(onboard_mod.reconstruct_frame(decoded.messages, ego, pixel_map))
        result.stage_seconds["onboard"] = time.perf_counter() - t0
        for name, seconds in result.stage_seconds.items():
            stage_seconds.setdefault(name, []).append(seconds)
    report = latency_report(stage_seconds, time.perf_counter() - t_loop)
    print(f"frames: {len(frames)}   mean points/frame: {mean_points:.0f}")
    print(format_latency_report(report), end="")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="roadeye", description=__doc__)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--tap", help="JSON-lines message tap ('-' for stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a frame file and ground truth")
    p.add_argument("--out", required=True, help="frame file path")
    p.add_argument("--gt", help="ground-truth path (default: OUT.gt)")

    p = sub.add_parser("perceive", help="run the edge pipeline over a frame file")
    p.add_argument("--frames", required=True, help="input frame file")
    p.add_argument("--gt", help="ground-truth file (required for the oracle backend)")
    p.add_argument("--out", help="write encoded frames to this file")
    p.add_argument("--relay", help="publish encoded frames to HOST:PORT")
    p.add_argument("--wall-stamps", action="store_true",
                   help="stamp wall-clock times instead of the simulated clock")

    p = sub.add_parser("relay", help="run the fan-out relay service")
    p.add_argument("--bind", help="HOST:PORT (default from config)")

    p = sub.add_parser("onboard", help="subscribe, reconstruct, and emit renders")
    p.add_argument("--out-dir", required=True, help="render output directory")
    p.add_argument("--connect", help="relay HOST:PORT (default from config)")
    p.add_argument("--max-frames", type=int, help="exit after this many frames")
    p.add_argument("--record", help="append received raw frames to this file")
    p.add_argument("--stamps", help="write per-frame phase stamps as JSON lines")
    p.add_argument("--connect-timeout", type=float, default=5.0)

    p = sub.add_parser("eval", help="score results against ground truth")
    p.add_argument("--gt", help="ground-truth file")
    p.add_argument("--results", help="encoded-frames file from perceive")
    p.add_argument("--counts", help="JSON file with tp/fp/ground_truth counts")
    p.add_argument("--dist-threshold", type=float, help="matching gate, meters")
    p.add_argument("--json", help="also write the report as JSON")

    p = sub.add_parser("bench", help="throughput and latency on synthetic frames")
    p.add_argument("--frames", type=int, default=50)
    p.add_argument("--points", type=int, default=20000)
    p.add_argument("--json", help="also write the report as JSON")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "perceive": cmd_perceive,
    "relay": cmd_relay,
    "onboard": cmd_onboard,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {"seed": args.seed} if args.seed is not None else None
        cfg = load_config(args.config, overrides)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"roadeye {args.command}: config error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except PipelineStageError as e:
        print(f"roadeye {args.command}: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_OK
    except Exception as e:
        print(f"roadeye {args.command}: error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
