"""One fresh interpreter running the roadeye chain over a workload's files.

    python3 chain.py --work DIR --mode setup|run --seconds S --trace 0|1

The chain is scene.read_frames -> EdgePipeline.process -> publisher socket
-> in-process relay.RelayServer -> subscriber socket wire.read_frame_bytes
-> wire.decode_frame -> onboard.reconstruct_frame -> onboard.emit_render,
closed loop with one frame in flight. `setup` stops after the first SVG;
`run` then replays the file back to back for S seconds, and at least once.
The last line of stdout is a JSON report; `time.monotonic()` at the first
SVG lets the parent measure set-up from before it started this process.

With --trace 1, frame 0 and every even frame after it run traced, the odd
frames untraced, so the two latency sets compare under the same host drift.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HOP_TIMEOUT_S = 5.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import roadeye.cli  # noqa: F401  (the start-up every subcommand pays)
    import_s = time.perf_counter() - t0

    from roadeye import pipeline as pipeline_mod
    from roadeye.config import load_config
    from roadeye.onboard import EgoSimulator, emit_render, reconstruct_frame
    from roadeye.geoloc import GeodeticPos
    from roadeye.relay import RelayServer, connect_publisher, connect_subscriber
    from roadeye.scene import PointCloudFrame, read_frames, read_ground_truth
    from roadeye.wire import decode_frame, read_frame_bytes

    from tracing import PipelinePatch, Tracer, direct

    tracer = Tracer() if args.trace else None
    patch = PipelinePatch(tracer, pipeline_mod) if tracer else None
    call = tracer.call if tracer else direct

    work = args.work
    cfg = load_config(work / "config.json")
    t_read = time.perf_counter()
    frames = call("scene.read", read_frames, work / "frames.bin")
    gt = call("scene.read", read_ground_truth, work / "frames.bin.gt")
    read_s = time.perf_counter() - t_read
    period = len(frames) * float(cfg["scene.tick"])

    server = RelayServer(host="127.0.0.1", port=0).start()
    endpoint = f"127.0.0.1:{server.port}"
    pub = connect_publisher(endpoint)
    sub = connect_subscriber(endpoint)
    deadline = time.monotonic() + HOP_TIMEOUT_S
    while server.subscriber_count < 1:  # frames sent before this would be lost
        if time.monotonic() > deadline:
            raise TimeoutError("relay did not register the subscriber")
        time.sleep(0.001)
    sub.settimeout(HOP_TIMEOUT_S)

    pipe = pipeline_mod.EdgePipeline(cfg)
    pixel_map = cfg.pixel_map()
    ego_cfg = cfg["onboard.ego"]
    ego_sim = EgoSimulator(
        start=GeodeticPos(lat=float(ego_cfg["lat"]), lon=float(ego_cfg["lon"]), alt=0.0),
        heading=float(ego_cfg["heading"]), speed=float(ego_cfg["speed"]),
        rate_hz=float(ego_cfg["rate_hz"]), noise_std=float(ego_cfg["noise_std"]),
        seed=cfg.seed,
    )
    svg_path = work / f"render-{os.getpid()}.svg"
    stream_sha = hashlib.sha256()
    svg_sha = hashlib.sha256()
    first_pass_msgs = {}  # file frame index -> decoded (lat, lon, alt, w, l, h)
    latencies, traced_flags = [], []
    failures: Counter[str] = Counter()
    lost = 0
    svg_written = 0.0  # time.monotonic() when the latest SVG was written

    def step(k: int, traced: bool) -> bool:
        """One frame through the whole chain; False when any check fails."""
        nonlocal lost, svg_written
        i, p = k % len(frames), k // len(frames)
        frame = frames[i] if p == 0 else PointCloudFrame(
            t=frames[i].t + p * period, points=frames[i].points)
        c = call if traced else direct
        if patch:
            tracer.frame = k
            patch.enable(traced)
        try:
            t_start = time.perf_counter()
            result = c("pipeline.process", pipe.process, frame, gt[i].agents)
            raw = c("relay.hop", _hop, pub, sub, result.encoded, read_frame_bytes)
            decoded = c("wire.decode", decode_frame, raw)
            ego = ego_sim.state_at(decoded.t_frame)
            render = c("onboard.reconstruct", reconstruct_frame,
                       decoded.messages, ego, pixel_map)
            c("onboard.render", emit_render, render, svg_path)
            t_end = time.perf_counter()
            svg_written = time.monotonic()
        except TimeoutError:
            lost += 1
            failures["relay_timeout"] += 1
            return False
        except Exception as e:  # any stage raising fails the frame
            failures[type(e).__name__] += 1
            return False
        try:
            svg = svg_path.read_bytes()
            svg_path.unlink()
        except FileNotFoundError:
            svg = b""
        if raw != result.encoded:
            failures["relay_bytes_differ"] += 1
            return False
        if not svg.endswith(b"</svg>\n"):
            failures["no_svg"] += 1
            return False
        if traced and tracer:
            tracer.count("onboard.icons", len(render.icons))
            tracer.count("onboard.svg_bytes", len(svg))
        if p == 0:
            stream_sha.update(raw)
            svg_sha.update(svg)
            first_pass_msgs[i] = [(m.lat, m.lon, m.alt, m.w, m.l, m.h)
                                  for m in decoded.messages]
        if k > 0:
            latencies.append((t_end - t_start) * 1e3)
            traced_flags.append(traced)
        return True

    attempted = 1
    ok = step(0, traced=tracer is not None)
    t_first_svg = svg_written
    frame0 = {"stream_sha256": stream_sha.hexdigest(), "svg_sha256": svg_sha.hexdigest()}
    failed = 0 if ok else 1
    done_at = [time.perf_counter()]

    if args.mode == "run":
        t_loop = time.perf_counter()
        k = 1
        while k < len(frames) or time.perf_counter() - t_loop < args.seconds:
            attempted += 1
            if step(k, traced=tracer is not None and k % 2 == 0):
                done_at.append(time.perf_counter())
            else:
                failed += 1
            k += 1
    if patch:
        patch.enable(False)
    pub.close()
    sub.close()
    server.stop()

    report = {
        "mode": args.mode,
        "import_s": import_s,
        "read_s": read_s,
        "t_first_svg": t_first_svg,
        "frame0": frame0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "frames_lost": lost,
        "relay_frames_in": server.sequence,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "file_mb": (work / "frames.bin").stat().st_size / 2**20,
        "points_per_frame": sum(len(f) for f in frames) / len(frames),
    }
    if args.mode == "run":
        report.update({
            "latencies_ms": latencies,
            "traced": traced_flags,
            "frame_rate_hz": ((len(done_at) - 1) / (done_at[-1] - done_at[0])
                              if len(done_at) > 1 else None),
            "stream_sha256": stream_sha.hexdigest(),
            "svg_sha256": svg_sha.hexdigest(),
            "first_pass_frames": len(first_pass_msgs),
        })
        report.update(truth_path(cfg, gt, first_pass_msgs, call))
    if tracer:
        tracer.write(work / f"spans-{args.mode}-{os.getpid()}.jsonl")
        report["span_ms"] = tracer.durations_ms()
        report["self_ms"] = {"pipeline.process": tracer.self_ms().get("pipeline.process", [])}
        report["counts"] = dict(tracer.counts)
    print(json.dumps(report))
    return 0


def _hop(pub, sub, encoded: bytes, read_frame_bytes) -> bytes:
    """Publisher sendall until the subscriber holds the whole frame."""
    pub.sendall(encoded)
    raw = read_frame_bytes(sub)
    if raw is None:
        raise ConnectionError("relay closed the subscriber stream")
    return raw


def truth_path(cfg, gt, first_pass_msgs, call) -> dict:
    """Precision and recall of the decoded first pass against the GT file.

    Decoded lat/lon go through the closed-form geodetic_to_ecef and then into
    local east/north metres about the configured sensor location. GT world
    boxes are east (x) and north (y) of the sensor as they stand, because
    every workload mounts the sensor above the world origin at yaw 0. No
    transform the pipeline builds is reused.
    """
    from roadeye.detect import Detection
    from roadeye.evaluate import ConfusionCounts, match_detections
    from roadeye.geoloc import GeodeticPos, geodetic_to_ecef
    from roadeye.geometry import ObjectClass, OrientedBox3D

    origin = cfg.sensor_geodetic()
    o = geodetic_to_ecef(origin)
    sp, cp = math.sin(math.radians(origin.lat)), math.cos(math.radians(origin.lat))
    sl, cl = math.sin(math.radians(origin.lon)), math.cos(math.radians(origin.lon))
    threshold = float(cfg["eval.dist_threshold"])
    total = ConfusionCounts(tp=0, fp=0, fn=0)
    for k, msgs in first_pass_msgs.items():
        dets = []
        for lat, lon, alt, w, l, h in msgs:
            e = geodetic_to_ecef(GeodeticPos(lat=lat, lon=lon, alt=alt))
            dx, dy, dz = e.X - o.X, e.Y - o.Y, e.Z - o.Z
            east = -sl * dx + cl * dy
            north = -sp * cl * dx - sp * sl * dy + cp * dz
            box = OrientedBox3D(east, north, 0.0, w, l, h, 0.0)
            dets.append(Detection(box=box, cls=ObjectClass.VEHICLE, score=1.0))
        boxes = [a.as_box() for a in gt[k].agents]
        total = total + call("evaluate.match", match_detections, boxes, dets, threshold)
    return {
        "tp": total.tp, "fp": total.fp, "fn": total.fn,
        "precision": total.tp / (total.tp + total.fp) if total.tp + total.fp else None,
        "recall": total.tp / (total.tp + total.fn) if total.tp + total.fn else None,
    }


if __name__ == "__main__":
    sys.exit(main())
