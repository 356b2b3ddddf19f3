"""Command-line entry point: simulate, perceive, relay, onboard, eval, bench.

All subcommands share one JSON config (--config) and one seed (--seed).
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

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
from .detect import Detection
from .geoloc import geodetic_to_ecef, GeodeticPos, enu_to_ecef_transform
from .geometry import ObjectClass, OrientedBox3D
from .pipeline import EdgePipeline, PipelineStageError
from .relay import connect_publisher, connect_subscriber, relay_serve
from .scene import (
    GroundTruthFrame,
    read_frames,
    read_ground_truth,
    sample_point_cloud,
    step_scenario,
    write_frames,
    write_ground_truth,
)
from .wire import decode_frame, iter_frames_from_file, read_frame_bytes, stamp_phase

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _open_tap(path: str | None):
    if path is None:
        return None
    if path == "-":
        return sys.stdout
    return open(path, "w")


def _tap_messages(tap, msgs):
    if tap is None:
        return
    for m in msgs:
        tap.write(json.dumps(m.to_dict()) + "\n")
    tap.flush()


def cmd_simulate(cfg: PipelineConfig, args) -> int:
    scenario = cfg.scenario()
    frames, gt = [], []
    for k, t in enumerate(scenario.frame_times()):
        agents = step_scenario(scenario, float(t))
        frames.append(sample_point_cloud(agents, scenario, frame_index=k, t=float(t)))
        gt.append(GroundTruthFrame(t=float(t), agents=agents))
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
    pipeline = EdgePipeline(cfg, wall_stamps=args.wall_stamps)
    tap = _open_tap(args.tap)
    out_f = open(args.out, "wb") if args.out else None
    pub = connect_publisher(args.relay) if args.relay else None
    try:
        for k, frame in enumerate(frames):
            result = pipeline.process(frame, gt[k].agents if gt else None)
            if out_f is not None:
                out_f.write(result.encoded)
            if pub is not None:
                pub.sendall(result.encoded)
            if tap is not None:
                _tap_messages(tap, decode_frame(result.encoded).messages)
    finally:
        if out_f is not None:
            out_f.close()
        if pub is not None:
            pub.close()
        if tap is not None and tap is not sys.stdout:
            tap.close()
    print(f"perceived {len(frames)} frames", file=sys.stderr)
    return EXIT_OK


def cmd_relay(cfg: PipelineConfig, args) -> int:
    bind = args.bind or cfg["relay.bind"]
    server = relay_serve(
        bind,
        max_subscribers=int(cfg["relay.max_subscribers"]),
        queue_size=int(cfg["relay.queue_frames"]),
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
    ego_cfg = cfg["onboard.ego"]
    ego_sim = onboard_mod.EgoSimulator(
        start=GeodeticPos(lat=float(ego_cfg["lat"]), lon=float(ego_cfg["lon"]), alt=0.0),
        heading=float(ego_cfg["heading"]),
        speed=float(ego_cfg["speed"]),
        rate_hz=float(ego_cfg["rate_hz"]),
        noise_std=float(ego_cfg["noise_std"]),
        seed=cfg.seed,
    )
    deadline = time.monotonic() + args.connect_timeout
    sock = None
    while sock is None:
        try:
            sock = connect_subscriber(endpoint)
        except OSError as e:
            if time.monotonic() >= deadline:
                raise ConnectionError(f"cannot connect to relay at {endpoint}: {e}") from None
            time.sleep(0.1)
    print(f"connected to {endpoint}", flush=True)
    tap = _open_tap(args.tap)
    record_f = open(args.record, "wb") if args.record else None
    stamps_f = open(args.stamps, "w") if args.stamps else None
    count = 0
    try:
        while args.max_frames is None or count < args.max_frames:
            raw = read_frame_bytes(sock)
            if raw is None:
                break
            decoded = decode_frame(raw)
            stamps = stamp_phase(decoded.stamps, "onboard", time.time())
            if record_f is not None:
                record_f.write(raw)
            ego = ego_sim.state_at(decoded.t_frame)
            frame = onboard_mod.reconstruct_frame(decoded.messages, ego, pixel_map)
            onboard_mod.emit_render(frame, out_dir / f"render_{count:06d}.svg")
            if stamps_f is not None:
                stamps_f.write(json.dumps(stamps.as_tuple()) + "\n")
            _tap_messages(tap, decoded.messages)
            count += 1
    finally:
        sock.close()
        if record_f is not None:
            record_f.close()
        if stamps_f is not None:
            stamps_f.close()
        if tap is not None and tap is not sys.stdout:
            tap.close()
    print(f"rendered {count} frames to {out_dir}", flush=True)
    return EXIT_OK


def _messages_to_world_detections(msgs, inv_transform) -> list[Detection]:
    """Map decoded messages back to world-frame boxes for evaluation."""
    dets = []
    for m in msgs:
        p = inv_transform.apply_point(
            geodetic_to_ecef(GeodeticPos(lat=m.lat, lon=m.lon, alt=m.alt)).as_array()
        )
        box = OrientedBox3D(p[0], p[1], p[2], m.w, m.l, m.h, 0.0)
        dets.append(Detection(box=box, cls=ObjectClass.VEHICLE, score=1.0))
    return dets


def cmd_eval(cfg: PipelineConfig, args) -> int:
    threshold = args.dist_threshold
    if threshold is None:
        threshold = float(cfg["eval.dist_threshold"])
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
        gt_frames = read_ground_truth(args.gt)
        sensor_pose = cfg.scenario().sensor_pose
        p_ecef = enu_to_ecef_transform(cfg.sensor_geodetic())
        inv = (p_ecef @ sensor_pose).inverse()
        counts = ConfusionCounts(tp=0, fp=0, fn=0)
        results = list(iter_frames_from_file(args.results))
        if len(results) != len(gt_frames):
            raise ValueError(
                f"{len(results)} result frames but {len(gt_frames)} ground-truth frames"
            )
        for raw, gt in zip(results, gt_frames):
            decoded = decode_frame(raw)
            dets = _messages_to_world_detections(decoded.messages, inv)
            boxes = [a.as_box() for a in gt.agents]
            counts = counts + match_detections(boxes, dets, threshold)
    report = compute_metrics(counts)
    text = format_metric_report(counts, report)
    print(text, end="")
    if args.json:
        payload = {"counts": {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn,
                              "tn": counts.tn, "ground_truth": counts.ground_truth_total}}
        payload.update(report.to_dict())
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    return EXIT_OK


def cmd_bench(cfg: PipelineConfig, args) -> int:
    import numpy as np

    from .scene import AgentSpec, ScenarioConfig

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
    area = (2 * 51.2) ** 2
    density = max(0.0, args.points / area)
    scenario = ScenarioConfig(
        agents=agents,
        duration=args.frames * 0.1,
        tick=0.1,
        mount_height=float(cfg["scene.mount_height"]),
        points_per_agent=400,
        ground_point_density=density,
        rng_seed=cfg.seed,
    )
    frames = []
    for k, t in enumerate(scenario.frame_times()):
        ag = step_scenario(scenario, float(t))
        frames.append(sample_point_cloud(ag, scenario, frame_index=k, t=float(t)))
    mean_points = sum(len(f) for f in frames) / max(1, len(frames))

    import copy

    bench_cfg = PipelineConfig(data=copy.deepcopy(cfg.data))
    bench_cfg.data["detector"]["backend"] = "cluster"
    pipeline = EdgePipeline(bench_cfg, wall_stamps=True)
    stamps_out = []
    for frame in frames:
        result = pipeline.process(frame)
        decoded = decode_frame(result.encoded)  # stands in for the onboard side
        stamps_out.append(stamp_phase(result.stamps, "onboard", time.time()))
    report = latency_report(stamps_out, pipeline.stage_timers, same_clock=True)
    print(f"frames: {len(frames)}   mean points/frame: {mean_points:.0f}")
    print(format_latency_report(report), end="")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report.to_dict(), f, indent=2)
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
