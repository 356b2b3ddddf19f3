"""Decoder hardening: malformed inputs must fail with the codec's own
error type at every truncation point, never with a stray struct/index
exception, and mutated bytes must either decode validly or be rejected."""

import numpy as np
import pytest

from roadeye.detect import ClusterParams, detect_cluster
from roadeye.geometry import ObjectClass
from roadeye.scene import (
    AgentState,
    FrameFormatError,
    GroundTruthFrame,
    PointCloudFrame,
    read_frames,
    read_ground_truth,
    write_frames,
    write_ground_truth,
)
from roadeye.wire import (
    PerceptionMessage,
    PhaseStamps,
    WireFormatError,
    decode_frame,
    encode_frame,
)


def _wire_frame(rng):
    msgs = [
        PerceptionMessage(t=1.0, id=k, lat=40.0, lon=-105.0, alt=1600.0,
                          w=2.0, l=4.5, h=1.6, theta=90.0)
        for k in range(3)
    ]
    return encode_frame(msgs, PhaseStamps(1.0, 2.0, 3.0, 4.0), t_frame=5.0)


def test_wire_rejects_every_truncation(rng):
    data = _wire_frame(rng)
    for cut in range(len(data)):
        with pytest.raises(WireFormatError):
            decode_frame(data[:cut])


def test_wire_mutation_fuzz(rng):
    data = bytearray(_wire_frame(rng))
    for _ in range(500):
        mutated = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
        try:
            decoded = decode_frame(bytes(mutated))
        except WireFormatError:
            continue
        # Survivors must still satisfy every message invariant: they re-encode
        # through the same gate and decode to themselves.
        again = encode_frame(decoded.messages, decoded.stamps, decoded.t_frame)
        assert decode_frame(again).messages == decoded.messages


def test_frame_file_rejects_every_truncation(tmp_path, rng):
    pts = rng.uniform(-10, 10, (5, 4)).astype(np.float32).astype(np.float64)
    frames = [PointCloudFrame(t=0.0, points=pts), PointCloudFrame(t=0.1, points=pts[:2])]
    path = tmp_path / "frames.bin"
    write_frames(frames, path)
    data = path.read_bytes()
    cut_path = tmp_path / "cut.bin"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        with pytest.raises(FrameFormatError):
            read_frames(cut_path)


def test_ground_truth_file_rejects_every_truncation(tmp_path):
    car = AgentState(7, ObjectClass.VEHICLE, [1.0, 2.0, 0.8], (2.0, 4.5, 1.6), 0.3, 8.0)
    walker = AgentState(8, ObjectClass.PEDESTRIAN, [-3.0, 5.0, 0.9], (0.6, 0.6, 1.8), -1.2, 1.2)
    frames = [GroundTruthFrame(t=0.0, agents=[car, walker]), GroundTruthFrame(t=0.1, agents=[car])]
    path = tmp_path / "gt.bin"
    write_ground_truth(frames, path)
    data = path.read_bytes()
    assert len(read_ground_truth(path)) == 2
    cut_path = tmp_path / "cut.gt"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        with pytest.raises(FrameFormatError):
            read_ground_truth(cut_path)


def test_cluster_guards_unbounded_grid():
    pts = np.array([[0.0, 0.0, 0.0, 0.5], [1.0e9, 0.0, 0.0, 0.5]])
    frame = PointCloudFrame(t=0.0, points=pts)
    with pytest.raises(ValueError, match="voxel grid"):
        detect_cluster(frame, ClusterParams(voxel=0.3, min_points=1, ground_z=-1.0))
