"""Binary perception-message codec and the phase stamps each frame carries.

Frame layout, all little-endian:
  magic "CMM1" | u32 payload length | f64 frame time | 4 x f64 phase stamps
  | u32 record count | records.
Record (the packed 52-byte `RECORD` dtype): f64 t, i32 id, f64 lat, f64 lon,
f64 alt, f32 w, f32 l, f32 h, f32 theta. Unset phase stamps travel as NaN.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

WIRE_MAGIC = b"CMM1"
_HEADER = struct.Struct("<4sI")
_FRAME_META = struct.Struct("<d4dI")
# Named and ordered as the `PerceptionMessage` fields: a decoded row is its
# argument list.
RECORD = np.dtype([
    ("t", "<f8"), ("id", "<i4"), ("lat", "<f8"), ("lon", "<f8"), ("alt", "<f8"),
    ("w", "<f4"), ("l", "<f4"), ("h", "<f4"), ("theta", "<f4"),
])

HEADER_BYTES = _HEADER.size + _FRAME_META.size  # 52
RECORD_BYTES = RECORD.itemsize  # 52
_MAX_READ = 1 << 20  # bytes asked of one recv/read, whatever a header claims


class WireFormatError(ValueError):
    """Rejected frame bytes; the message names the offset and field."""


def _f32(v: float) -> float:
    return float(np.float32(v))


@dataclass
class PerceptionMessage:
    """One georeferenced object record crossing the wire.

    Dims and heading are quantized to float32 on construction so encoded
    frames round-trip field-exactly.
    """

    t: float
    id: int
    lat: float
    lon: float
    alt: float
    w: float
    l: float
    h: float
    theta: float  # degrees clockwise from north, [0, 360)

    def __post_init__(self):
        self.w = _f32(self.w)
        self.l = _f32(self.l)
        self.h = _f32(self.h)
        theta = _f32(self.theta % 360.0)
        self.theta = 0.0 if theta == 360.0 else theta
        self.validate()

    def validate(self):
        if not -90.0 <= self.lat <= 90.0:
            raise WireFormatError(f"lat {self.lat} outside [-90, 90]")
        if not -180.0 < self.lon <= 180.0:
            raise WireFormatError(f"lon {self.lon} outside (-180, 180]")
        if not 0.0 <= self.theta < 360.0:
            raise WireFormatError(f"theta {self.theta} outside [0, 360)")
        if not (0.0 < self.w < math.inf and 0.0 < self.l < math.inf and 0.0 < self.h < math.inf):
            raise WireFormatError("dims must be positive and finite")
        if not (math.isfinite(self.t) and math.isfinite(self.alt)):
            raise WireFormatError(f"t {self.t} and alt {self.alt} must be finite")
        if not -(2 ** 31) <= self.id < 2 ** 31:
            raise WireFormatError(f"id {self.id} does not fit in i32")

    def to_dict(self) -> dict:
        return {
            "t": self.t, "id": self.id, "lat": self.lat, "lon": self.lon,
            "alt": self.alt, "w": self.w, "l": self.l, "h": self.h,
            "theta": self.theta,
        }


@dataclass
class PhaseStamps:
    """One wall-clock stamp per pipeline phase boundary, seconds."""

    t_sensor: float | None = None
    t_edge_in: float | None = None
    t_edge_out: float | None = None
    t_onboard: float | None = None

    def as_tuple(self) -> tuple:
        return (self.t_sensor, self.t_edge_in, self.t_edge_out, self.t_onboard)


def encode_frame(msgs: list[PerceptionMessage], stamps: PhaseStamps, t_frame: float = 0.0) -> bytes:
    """Serialize one frame; refuses messages violating their invariants."""
    for m in msgs:
        m.validate()
    stamp_vals = [math.nan if s is None else s for s in stamps.as_tuple()]
    meta = _FRAME_META.pack(t_frame, *stamp_vals, len(msgs))
    records = np.array(
        [(m.t, m.id, m.lat, m.lon, m.alt, m.w, m.l, m.h, m.theta) for m in msgs], dtype=RECORD
    ).tobytes()
    return _HEADER.pack(WIRE_MAGIC, len(meta) + len(records)) + meta + records


@dataclass
class DecodedFrame:
    messages: list[PerceptionMessage]
    stamps: PhaseStamps
    t_frame: float


def decode_frame(data: bytes) -> DecodedFrame:
    """Exact inverse of encode_frame; rejects malformed bytes outright."""
    if len(data) < _HEADER.size:
        raise WireFormatError(f"truncated header at byte {len(data)}: need {_HEADER.size} bytes")
    magic, payload_len = _HEADER.unpack_from(data, 0)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic at offset 0: {magic!r}")
    if len(data) != _HEADER.size + payload_len:
        raise WireFormatError(
            f"length mismatch at offset 4: header says {payload_len} payload bytes, "
            f"frame has {len(data) - _HEADER.size}"
        )
    off = _HEADER.size
    if payload_len < _FRAME_META.size:
        raise WireFormatError(f"truncated frame meta at byte {off}")
    t_frame, s0, s1, s2, s3, count = _FRAME_META.unpack_from(data, off)
    off += _FRAME_META.size
    expected = _FRAME_META.size + count * RECORD_BYTES
    if payload_len != expected:
        raise WireFormatError(
            f"record area mismatch at byte {off}: {count} records need "
            f"{expected} payload bytes, header says {payload_len}"
        )
    msgs = []
    for k, row in enumerate(np.frombuffer(data, dtype=RECORD, count=count, offset=off).tolist()):
        try:
            # Construction wraps theta into [0, 360); on the wire it must already be there.
            if not 0.0 <= row[-1] < 360.0:
                raise WireFormatError(f"theta {row[-1]} outside [0, 360)")
            msgs.append(PerceptionMessage(*row))
        except WireFormatError as e:
            raise WireFormatError(f"record {k} at byte {off + k * RECORD_BYTES}: {e}") from None
    stamps = PhaseStamps(
        *(None if math.isnan(v) else v for v in (s0, s1, s2, s3))
    )
    return DecodedFrame(messages=msgs, stamps=stamps, t_frame=t_frame)


def _read_exact(read, n: int) -> bytes | None:
    """n bytes through `read` (a bound socket recv or file read); None on EOF
    before the first byte."""
    buf = bytearray()
    while len(buf) < n:
        chunk = read(min(n - len(buf), _MAX_READ))
        if not chunk:
            if not buf:
                return None
            raise WireFormatError(f"stream truncated after {len(buf)} of {n} bytes")
        buf += chunk
    return bytes(buf)


def _read_frame(read) -> bytes | None:
    """One length-delimited frame through `read`; None on clean EOF."""
    header = _read_exact(read, _HEADER.size)
    if header is None:
        return None
    magic, payload_len = _HEADER.unpack(header)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic at offset 0: {magic!r}")
    payload = _read_exact(read, payload_len)
    if payload is None:
        raise WireFormatError(f"stream truncated inside payload at byte {_HEADER.size}")
    return header + payload


def read_frame_bytes(sock) -> bytes | None:
    """Read one length-delimited frame from a socket; None on clean EOF."""
    return _read_frame(sock.recv)


def iter_frames_from_file(path):
    """Yield raw frame byte strings from a concatenated-frames file, one at a time."""
    with open(path, "rb") as f:
        while (frame := _read_frame(f.read)) is not None:
            yield frame
