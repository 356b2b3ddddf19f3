"""Binary perception-message codec and the phase stamps each frame carries.

Frame layout, all little-endian:
  magic "CMM2" | u32 payload length | f64 frame time | 4 x f64 phase stamps
  | u32 record count | records.
Record (the packed 53-byte `RECORD` dtype): f64 t, i32 id, f64 lat, f64 lon,
f64 alt, f32 w, f32 l, f32 h, f32 theta, u8 cls. `cls` is the class the edge
decided, an index into `geometry.CLASSES`; the receiver reads it and derives
none. Unset phase stamps travel as NaN.

Message construction, `encode_frame` and `decode_frame` make `RECORD` rows
only through `to_records`, so they refuse the same rows with one error. A
decoded frame keeps the checked rows where the bytes hold them; its messages
are a `MessageView` over them, built one by one only as they are read.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import CLASSES

WIRE_MAGIC = b"CMM2"
_HEADER = struct.Struct("<4sI")
_FRAME_META = struct.Struct("<d4dI")
RECORD = np.dtype([
    ("t", "<f8"), ("id", "<i4"), ("lat", "<f8"), ("lon", "<f8"), ("alt", "<f8"),
    ("w", "<f4"), ("l", "<f4"), ("h", "<f4"), ("theta", "<f4"), ("cls", "u1"),
])

HEADER_BYTES = _HEADER.size + _FRAME_META.size  # 52
RECORD_BYTES = RECORD.itemsize  # 53
_MAX_READ = 1 << 20  # bytes asked of one recv/read, whatever a header claims


class WireFormatError(ValueError):
    """Rejected frame bytes; the message names the offset and field."""


def quantize_heading(theta):
    """Degrees clockwise from north on the float32 grid the wire carries,
    wrapped into [0, 360); a value that rounds up to 360 becomes 0."""
    q = np.asarray(np.remainder(theta, 360.0), dtype=np.float32)
    return np.where(q == np.float32(360.0), np.float32(0.0), q)


# Every rule a record obeys, as (test over RECORD columns, reason template).
_RULES = (
    (lambda r: (r["lat"] >= -90.0) & (r["lat"] <= 90.0), "lat {lat} outside [-90, 90]"),
    (lambda r: (r["lon"] > -180.0) & (r["lon"] <= 180.0), "lon {lon} outside (-180, 180]"),
    (lambda r: (r["theta"] >= 0.0) & (r["theta"] < 360.0), "theta {theta} outside [0, 360)"),
    (lambda r: np.all([(r[k] > 0.0) & (r[k] < np.inf) for k in "wlh"], axis=0),
     "dims must be positive and finite"),
    (lambda r: np.isfinite(r["t"]) & np.isfinite(r["alt"]), "t {t} and alt {alt} must be finite"),
    (lambda r: r["cls"] < len(CLASSES), f"cls {{cls}} is not a class code (< {len(CLASSES)})"),
)


def _is_number(v) -> bool:
    """Whether a value, as given, is an int or a float (numpy's included),
    never a bool or a str."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _is_float(v) -> bool:
    """Whether a value, as given, is a number a float can hold: not a Python
    int past the largest float, which the cast would refuse."""
    return _is_number(v) and not (isinstance(v, int) and abs(v) > sys.float_info.max)


# Per float column, the least magnitude whose cast into it overflows to
# infinity: float32's largest value is 2**128 - 2**104, and a float64 half an
# ulp past it or more rounds up.
_OVERFLOW = {n: 2.0**128 - 2.0**103 if RECORD[n] == np.float32 else math.inf
             for n in RECORD.names if RECORD[n].kind == "f"}


def _numbers(rows, name: str) -> np.ndarray | bool:
    """Per row, whether its `name` is a number RECORD's column takes, judged
    on the value as given, before a cast could parse, truncate, wrap or
    overflow it: an integer that fits the column for `id` and `cls`, any
    number a float holds for the rest, short of `_OVERFLOW`, or not finite.
    An array column is judged by its dtype, and by its values only where
    RECORD's column cannot hold every value of that dtype."""
    column = RECORD[name]
    integer = column.kind in "iu"
    if isinstance(rows, np.ndarray):
        dtype = rows.dtype[name]
        if dtype.kind not in ("iu" if integer else "iuf"):
            return False
        if np.can_cast(dtype, column):
            return True
        if not integer:
            size = np.abs(rows[name])
            return ~((size >= _OVERFLOW[name]) & (size < math.inf))
        info = np.iinfo(column)
        return (rows[name] >= info.min) & (rows[name] <= info.max)
    values = [r[RECORD.names.index(name)] for r in rows]
    if not integer:
        return np.array([_is_float(v) and not _OVERFLOW[name] <= abs(float(v)) < math.inf
                         for v in values], bool)
    info = np.iinfo(column)
    return np.array([_is_number(v) and isinstance(v, (int, np.integer))
                     and info.min <= v <= info.max for v in values], bool)


_NUMBERS = tuple(
    (lambda r, n=n: _numbers(r, n),
     f"{n} {{{n}!r}} is not "
     + {"id": "an i32 integer", "cls": "a u8 integer"}.get(n, f"a number a {RECORD[n].name} holds"))
    for n in RECORD.names
)


def to_records(rows, offset: int | None = None) -> np.ndarray:
    """`rows`, tuples in RECORD's field order (messages among them) or an
    array with RECORD's field names, as RECORD rows; the only way rows become
    records. `_NUMBERS` judge the rows as given, then the cast records must
    keep `_RULES`. The WireFormatError names the first record that fails, and
    with `offset`, where record 0 starts, the byte where that record starts.
    A `MessageView` is judged as its array of rows."""
    if isinstance(rows, MessageView):
        rows = np.asarray(rows, RECORD)
    for rules in (_NUMBERS, _RULES):
        ok = np.empty((len(rules), len(rows)), bool)
        for i, (rule, _) in enumerate(rules):
            ok[i] = rule(rows)
        if not ok.all():
            k = int(np.argmin(ok.all(axis=0)))
            row = rows[k].item() if isinstance(rows, np.ndarray) else rows[k]
            reason = rules[int(np.argmin(ok[:, k]))][1].format(**dict(zip(RECORD.names, row)))
            at = "" if offset is None else f" at byte {offset + k * RECORD_BYTES}"
            raise WireFormatError(f"record {k}{at}: {reason}")
        rows = np.asarray(rows, RECORD)
    return rows


class PerceptionMessage(namedtuple("PerceptionMessage", RECORD.names)):
    """One georeferenced object record crossing the wire: the Python view of
    one `RECORD` row, fields as the dtype's; `theta` is degrees clockwise from
    north and `cls` indexes `CLASSES`, vehicle by default. Construction wraps
    the heading into [0, 360) on the float32 grid, then passes the row through
    `to_records`, so encoded frames round-trip field-exactly. `_make` builds a
    message from a row as it stands; `encode_frame` checks it.
    """

    __slots__ = ()

    def __new__(_cls, t, id, lat, lon, alt, w, l, h, theta, cls=0):
        if _is_float(theta) and math.isfinite(theta):  # the gate refuses anything else as given
            theta = quantize_heading(theta)[()]
        rec = to_records([(t, id, lat, lon, alt, w, l, h, theta, cls)])
        return _cls._make(rec.item())


@dataclass
class PhaseStamps:
    """One wall-clock stamp per pipeline phase boundary, seconds."""

    t_sensor: float | None = None
    t_edge_in: float | None = None
    t_edge_out: float | None = None
    t_onboard: float | None = None

    def as_tuple(self) -> tuple:
        return (self.t_sensor, self.t_edge_in, self.t_edge_out, self.t_onboard)


def encode_frame(msgs, stamps: PhaseStamps, t_frame: float = 0.0) -> bytes:
    """Serialize one frame of messages, or of rows with RECORD's field names,
    through `to_records`, which refuses what a record cannot hold."""
    rec = to_records(msgs)
    stamp_vals = [math.nan if s is None else s for s in stamps.as_tuple()]
    meta = _FRAME_META.pack(t_frame, *stamp_vals, len(rec))
    return _HEADER.pack(WIRE_MAGIC, len(meta) + rec.nbytes) + meta + rec.tobytes()


class MessageView(Sequence):
    """Read-only sequence of `PerceptionMessage`s over checked `RECORD` rows.

    Indexing and iteration build messages only as they are read; a slice is
    a view over the same rows. `==` compares message by message with any
    sequence, a list of messages included. `np.asarray(view, RECORD)`
    returns the rows themselves, with no copy, and `to_records` judges them
    as that array."""

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return MessageView(self._rows[k])
        return PerceptionMessage._make(self._rows[k].item())

    def __iter__(self):
        return map(PerceptionMessage._make, self._rows.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"MessageView({list(self)!r})"

    def __array__(self, dtype=None, copy=None):
        return self._rows.astype(RECORD if dtype is None else dtype, copy=bool(copy))


@dataclass
class DecodedFrame:
    messages: MessageView
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
    rec = to_records(np.frombuffer(data, dtype=RECORD, count=count, offset=off), off)
    stamps = PhaseStamps(
        *(None if math.isnan(v) else v for v in (s0, s1, s2, s3))
    )
    return DecodedFrame(messages=MessageView(rec), stamps=stamps, t_frame=t_frame)


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
