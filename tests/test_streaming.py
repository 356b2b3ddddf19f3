"""`perceive`, `simulate` and `eval` hold one frame at a time, and the
container reader and writer that let them.

The memory tests run each command in a fresh interpreter and read its own
peak, `VmHWM` from /proc/self/status at exit. `ru_maxrss` would not do: on
Linux a child's starts from the high-water mark of the process that spawned
it, here pytest's.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roadeye.cli import main
from roadeye.scene import (
    AGENT,
    FrameFormatError,
    GroundTruthFrame,
    PointCloudFrame,
    read_frames,
    read_ground_truth,
    stream_frames,
    stream_ground_truth,
    write_frames,
    write_ground_truth,
)
from roadeye.wire import PhaseStamps, encode_frame

# About 30k points a frame (480 KB as float32, 960 KB as float64), so that
# four times the frames would add tens of MiB to a run that held them all.
DENSE_SCENE = {"duration": 1.5, "ground_point_density": 2.9}
# The peak of a run over four times the frames may exceed the 1x run's by
# this much. Measured: 4x - 1x = +0.0 MiB for perceive and +0.5 MiB for
# simulate; runs that held every frame read +59.5 MiB and +43.0 MiB.
PEAK_MARGIN_MIB = 8.0

_PEAK = """
import sys
from roadeye.cli import main
code = main(sys.argv[1:])
hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(int(hwm.split()[1]) / 1024.0)
sys.exit(code)
"""

needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="reads VmHWM from /proc/self/status")


def _peak_mib(*argv) -> float:
    """Peak resident MiB of one roadeye command in a fresh interpreter."""
    r = subprocess.run([sys.executable, "-c", _PEAK, *map(str, argv)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return float(r.stdout.strip().splitlines()[-1])


def _config(tmp_path, name, scene, backend="cluster"):
    path = tmp_path / name
    path.write_text(json.dumps({"scene": scene, "detector": {"backend": backend}}))
    return path


@needs_proc
def test_perceive_peak_memory_does_not_grow_with_the_file(tmp_path):
    cfg = _config(tmp_path, "cfg.json", DENSE_SCENE)
    short, long = tmp_path / "short.bin", tmp_path / "long.bin"
    assert main(["--config", str(cfg), "simulate", "--out", str(short)]) == 0
    times, _ = stream_frames(short)
    period = len(times) * 0.1
    # Four passes of the short file, each shifted by one period.
    write_frames((PointCloudFrame(t=fr.t + p * period, points=fr.points)
                  for p in range(4) for fr in stream_frames(short)[1]), long)
    assert len(stream_frames(long)[0]) == 4 * len(times) == 60
    peaks = [_peak_mib("--config", cfg, "perceive", "--frames", path,
                       "--out", tmp_path / "results.bin") for path in (short, long)]
    assert peaks[1] <= peaks[0] + PEAK_MARGIN_MIB, peaks


@needs_proc
def test_simulate_peak_memory_does_not_grow_with_the_duration(tmp_path):
    peaks = []
    for duration in (1.5, 6.0):
        cfg = _config(tmp_path, f"cfg{duration}.json", {**DENSE_SCENE, "duration": duration})
        out = tmp_path / f"sim{duration}.bin"
        peaks.append(_peak_mib("--config", cfg, "simulate", "--out", out))
        assert len(stream_frames(out)[0]) == round(duration * 10)
    assert peaks[1] <= peaks[0] + PEAK_MARGIN_MIB, peaks


_FAULTS = """
import json, resource, sys
from roadeye.config import load_config
from roadeye.pipeline import EdgePipeline
from roadeye.scene import stream_frames
pipeline = EdgePipeline(load_config(sys.argv[1]))
faults = []
for frame in stream_frames(sys.argv[2])[1]:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pipeline.process(frame)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


# 2,000 agents a frame (138 KB of records): a run that held every frame's
# agents as per-agent objects would grow by tens of MiB over 60 more frames.
CROWD_AGENTS = 2000


def _crowd_truth(path, n_frames, rng):
    """A ground-truth file of n_frames frames, 0.1 s apart, of CROWD_AGENTS
    cars each, and a results file with one empty result frame per frame."""
    rows = np.zeros(CROWD_AGENTS, AGENT)
    rows["id"] = np.arange(CROWD_AGENTS)
    rows["x"], rows["y"] = rng.uniform(-50, 50, (2, CROWD_AGENTS))
    rows["z"], rows["w"], rows["l"], rows["h"], rows["speed"] = 0.8, 2.0, 4.5, 1.6, 5.0
    times = 0.1 * np.arange(n_frames)
    write_ground_truth((GroundTruthFrame(t=float(t), agents=rows) for t in times), path)
    results = Path(f"{path}.results")
    results.write_bytes(b"".join(encode_frame([], PhaseStamps(), float(t)) for t in times))
    return results


@needs_proc
def test_eval_peak_memory_does_not_grow_with_the_file(tmp_path, rng):
    # Measured: 33.2 and 32.5 MiB; a run that read the whole file into
    # per-agent objects peaked at 53.5 and 117.7 MiB.
    peaks = []
    for n_frames in (20, 80):
        gt = tmp_path / f"crowd{n_frames}.gt"
        results = _crowd_truth(gt, n_frames, rng)
        peaks.append(_peak_mib("eval", "--gt", gt, "--results", results))
    assert peaks[1] <= peaks[0] + PEAK_MARGIN_MIB, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's allocator")
def test_streamed_frames_reuse_the_memory_the_last_frame_freed(tmp_path):
    # A stream read frame by frame frees no large block, so glibc's mmap and
    # trim thresholds would stay low and every frame would fault its arrays
    # in afresh. Measured at 30k points a frame, from frame 5 on: 0-124
    # minor faults a frame (median 0) with the thresholds the pipeline fixes,
    # 328-483 without them.
    cfg = _config(tmp_path, "cfg.json", DENSE_SCENE)
    frames = tmp_path / "f.bin"
    assert main(["--config", str(cfg), "simulate", "--out", str(frames)]) == 0
    r = subprocess.run([sys.executable, "-c", _FAULTS, str(cfg), str(frames)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    faults = json.loads(r.stdout.strip().splitlines()[-1])
    assert np.median(faults[5:]) <= 64, faults


def test_stream_frames_reads_no_frame_until_asked(tmp_path, rng):
    path = tmp_path / "f.bin"
    frames = [PointCloudFrame(t=0.1 * k, points=rng.uniform(-5, 5, (k + 1, 4)).astype(np.float32))
              for k in range(3)]
    write_frames(frames, path)
    times, stream = stream_frames(path)
    assert times == [fr.t for fr in frames]
    path.unlink()  # the file is opened again only when the first frame is read
    with pytest.raises(FileNotFoundError):
        next(stream)


def test_stream_frames_checks_the_whole_file_before_the_first_frame(tmp_path, rng):
    path = tmp_path / "f.bin"
    write_frames([PointCloudFrame(t=0.1 * k, points=rng.uniform(-5, 5, (4, 4)).astype(np.float32))
                  for k in range(3)], path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FrameFormatError, match="trailing bytes"):
        stream_frames(path)


@pytest.mark.parametrize("writer, frame", [
    (write_frames, lambda t: PointCloudFrame(t=t, points=np.zeros((2, 4), np.float32))),
    (write_ground_truth, lambda t: GroundTruthFrame(t=t, agents=[])),
], ids=["frames", "ground-truth"])
def test_refused_write_leaves_the_file_as_it_was(tmp_path, writer, frame):
    # The time goes back at the third frame, after two have been written.
    path = tmp_path / "out.bin"
    path.write_bytes(b"earlier file")
    with pytest.raises(ValueError, match="decrease: 0.2 -> 0.1"):
        writer((frame(t) for t in (0.0, 0.2, 0.1)), path)
    assert path.read_bytes() == b"earlier file"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_simulate_refused_midway_leaves_both_files_as_they_were(tmp_path, monkeypatch):
    from roadeye import scene

    calls = []

    def failing_sample(*args, **kwargs):
        if len(calls) == 3:
            raise RuntimeError("sampler failed")
        calls.append(1)
        return sample(*args, **kwargs)

    sample = scene.sample_point_cloud
    monkeypatch.setattr(scene, "sample_point_cloud", failing_sample)
    out = tmp_path / "f.bin"
    out.write_bytes(b"earlier frames")
    (tmp_path / "f.bin.gt").write_bytes(b"earlier truth")
    cfg = _config(tmp_path, "cfg.json", {"duration": 1.0}, backend="oracle")
    assert main(["--config", str(cfg), "simulate", "--out", str(out)]) == 2
    assert out.read_bytes() == b"earlier frames"
    assert (tmp_path / "f.bin.gt").read_bytes() == b"earlier truth"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "f.bin", "f.bin.gt"]


def _simulated(tmp_path):
    cfg = _config(tmp_path, "cfg.json", {"duration": 1.0}, backend="oracle")
    frames = tmp_path / "f.bin"
    assert main(["--config", str(cfg), "simulate", "--out", str(frames)]) == 0
    return cfg, frames, Path(str(frames) + ".gt")


def _bad_record(frames, gt):
    # Frame 7's first record gets class code 9: its class byte follows the
    # 8-byte file header, frames 0-6, frame 7's 12-byte header and the i32 id.
    offset = 8 + sum(12 + 69 * len(fr.agents) for fr in read_ground_truth(gt)[:7]) + 12 + 4
    data = bytearray(gt.read_bytes())
    data[offset] = 9
    gt.write_bytes(bytes(data))
    return "frame 7 record 0: cls 9 is not a class code"


def _fewer_truths(frames, gt):
    write_ground_truth(read_ground_truth(gt)[:-1], gt)
    return "10 frames but 9 ground-truth frames"


def _shifted_truth(frames, gt):
    truth = read_ground_truth(gt)
    truth[9].t = 5.0
    write_ground_truth(truth, gt)
    return f"frame 9 is at t={stream_frames(frames)[0][9]} but its ground truth at t=5.0"


def _truncated_frames(frames, gt):
    frames.write_bytes(frames.read_bytes()[:-5])
    return "truncated file"


@pytest.mark.parametrize("spoil", [_bad_record, _fewer_truths, _shifted_truth, _truncated_frames])
def test_perceive_refuses_before_any_output_opens(tmp_path, capsys, spoil):
    cfg, frames, gt = _simulated(tmp_path)
    message = spoil(frames, gt)
    out, tap = tmp_path / "out.bin", tmp_path / "tap.jsonl"
    out.write_bytes(b"earlier frames")
    tap.write_text("earlier run\n")
    capsys.readouterr()
    assert main(["--config", str(cfg), "--tap", str(tap), "perceive", "--frames", str(frames),
                 "--gt", str(gt), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert out.read_bytes() == b"earlier frames"
    assert tap.read_text() == "earlier run\n"


def test_read_frames_is_the_list_of_the_stream(tmp_path):
    cfg, frames, gt = _simulated(tmp_path)
    listed, (times, stream) = read_frames(frames), stream_frames(frames)
    streamed = list(stream)
    assert [fr.t for fr in listed] == times == [fr.t for fr in streamed]
    assert all(a.points.tobytes() == b.points.tobytes() for a, b in zip(listed, streamed))
    truth_times, truths = stream_ground_truth(gt)
    assert truth_times == times == [fr.t for fr in truths]
