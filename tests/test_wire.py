import math
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from roadeye.wire import (
    HEADER_BYTES,
    PerceptionMessage,
    PhaseStamps,
    RECORD,
    RECORD_BYTES,
    WireFormatError,
    decode_frame,
    encode_frame,
    iter_frames_from_file,
    read_frame_bytes,
    to_records,
)


def _msg(rng=None, **kw):
    base = dict(t=1.5, id=3, lat=40.0, lon=-105.0, alt=1600.0,
                w=2.0, l=4.5, h=1.6, theta=90.0, cls=0)
    if rng is not None:
        base.update(
            t=float(rng.uniform(0, 100)),
            id=int(rng.integers(-1, 1000)),
            lat=float(rng.uniform(-90, 90)),
            lon=float(rng.uniform(-179.9, 180)),
            alt=float(rng.uniform(-100, 9000)),
            w=float(rng.uniform(0.4, 2.6)),
            l=float(rng.uniform(0.4, 12.0)),
            h=float(rng.uniform(1.3, 4.5)),
            theta=float(rng.uniform(0, 360)),
            cls=int(rng.integers(0, 2)),
        )
    base.update(kw)
    return PerceptionMessage(**base)


def _stamps():
    return PhaseStamps(t_sensor=1.0, t_edge_in=1.01, t_edge_out=1.05, t_onboard=None)


def test_empty_frame_is_52_bytes():
    data = encode_frame([], _stamps(), t_frame=0.0)
    assert len(data) == 52
    assert data[:4] == b"CMM2"
    assert HEADER_BYTES == 52


def test_encoded_length_formula(rng):
    for n in (0, 1, 2, 7):
        msgs = [_msg(rng) for _ in range(n)]
        data = encode_frame(msgs, _stamps(), t_frame=1.0)
        assert len(data) == HEADER_BYTES + RECORD_BYTES * n


def test_roundtrip_random_batches(rng):
    for _ in range(300):
        msgs = [_msg(rng) for _ in range(int(rng.integers(0, 12)))]
        stamps = PhaseStamps(
            t_sensor=float(rng.uniform(0, 10)),
            t_edge_in=float(rng.uniform(10, 20)),
            t_edge_out=float(rng.uniform(20, 30)),
            t_onboard=None if rng.random() < 0.5 else float(rng.uniform(30, 40)),
        )
        t_frame = float(rng.uniform(0, 100))
        data = encode_frame(msgs, stamps, t_frame)
        decoded = decode_frame(data)
        assert encode_frame(decoded.messages, decoded.stamps, decoded.t_frame) == data
        assert decoded.messages == msgs
        assert decoded.stamps == stamps
        assert decoded.t_frame == t_frame


def test_decoded_messages_are_a_view_over_the_frame_bytes(rng):
    msgs = [_msg(rng) for _ in range(5)]
    data = encode_frame(msgs, _stamps(), 2.0)
    view = decode_frame(data).messages
    assert view == msgs and msgs == view and view == tuple(msgs)
    assert view != msgs[:4] and msgs[::-1] != view
    assert len(view) == 5 and view[-1] == msgs[-1] and view[1:3] == msgs[1:3]
    assert [type(m) for m in [*view, view[-2]]] == [PerceptionMessage] * 6
    assert list(view) == msgs
    rows = np.asarray(view, RECORD)
    assert np.shares_memory(rows, np.frombuffer(data, np.uint8))
    assert rows.tobytes() == data[HEADER_BYTES:]
    assert encode_frame(view, _stamps(), 2.0) == data


def test_fixture_byte_dump():
    # Hand-assembled frame: one record, stamps (1, 2, 3, NaN), t_frame 9.
    msg = _msg(t=9.0, id=42, lat=12.5, lon=99.25, alt=88.0, w=2.0, l=4.0, h=1.5, theta=180.0,
               cls=1)
    expected = bytearray()
    expected += b"CMM2"
    payload = bytearray()
    payload += struct.pack("<d", 9.0)
    for v in (1.0, 2.0, 3.0, math.nan):
        payload += struct.pack("<d", v)
    payload += struct.pack("<I", 1)
    payload += struct.pack("<d", 9.0)
    payload += struct.pack("<i", 42)
    payload += struct.pack("<d", 12.5)
    payload += struct.pack("<d", 99.25)
    payload += struct.pack("<d", 88.0)
    payload += struct.pack("<f", 2.0)
    payload += struct.pack("<f", 4.0)
    payload += struct.pack("<f", 1.5)
    payload += struct.pack("<f", 180.0)
    payload += struct.pack("<B", 1)
    assert len(payload) == 44 + 53  # frame meta, then one record
    expected += struct.pack("<I", len(payload))
    expected += payload
    got = encode_frame([msg], PhaseStamps(1.0, 2.0, 3.0, None), t_frame=9.0)
    assert got == bytes(expected)
    back = decode_frame(bytes(expected))
    assert back.messages == [msg]


def test_wrong_magic_rejected():
    data = bytearray(encode_frame([], _stamps()))
    data[:4] = b"XXXX"
    with pytest.raises(WireFormatError, match="offset 0"):
        decode_frame(bytes(data))


def test_truncated_frame_rejected(rng):
    data = encode_frame([_msg(rng)], _stamps(), t_frame=1.0)
    with pytest.raises(WireFormatError):
        decode_frame(data[:-5])
    with pytest.raises(WireFormatError):
        decode_frame(data[:3])


def test_trailing_bytes_rejected(rng):
    data = encode_frame([_msg(rng)], _stamps(), t_frame=1.0)
    with pytest.raises(WireFormatError, match="mismatch"):
        decode_frame(data + b"zz")


def test_record_count_mismatch_rejected():
    data = bytearray(encode_frame([], _stamps(), t_frame=1.0))
    struct.pack_into("<I", data, len(data) - 4, 3)  # claim 3 records, supply none
    with pytest.raises(WireFormatError, match="record"):
        decode_frame(bytes(data))


def test_encode_refuses_invalid_message(rng):
    msg = _msg(rng)._replace(lat=123.0)  # a row built past construction-time checks
    with pytest.raises(WireFormatError, match="lat"):
        encode_frame([msg], _stamps())


@pytest.mark.parametrize("bad_id", [2 ** 31, -(2 ** 31) - 1])
def test_out_of_range_id_past_construction_rejected(bad_id):
    msg = _msg()._replace(id=bad_id)
    with pytest.raises(WireFormatError, match="i32"):
        encode_frame([msg], _stamps())


@pytest.mark.parametrize("field, value", [
    ("id", 3.9), ("cls", 1.5), ("id", True), ("cls", 300), ("cls", -1), ("id", "7"),
    ("id", 2 ** 31),
])
def test_integer_fields_refuse_what_their_column_cannot_hold(field, value):
    # A bare cast into RECORD would truncate, wrap or choke on each value.
    with pytest.raises(WireFormatError, match=f"record 0: {field} {value!r} "):
        _msg(**{field: value})
    msgs = [_msg(), _msg()._replace(**{field: value})]  # record 1 skips construction
    with pytest.raises(WireFormatError, match=f"record 1: {field} {value!r} "):
        encode_frame(msgs, _stamps())


def test_integer_fields_take_integer_types_only():
    msg = _msg(id=np.int64(7), cls=np.uint8(1))
    assert (msg.id, msg.cls) == (7, 1)
    # An array of rows is judged by its column's dtype: a float id is refused
    # even where every value is whole.
    rows = np.array([_msg(), _msg()], RECORD)
    floats = rows.astype([(n, "<f8" if n == "id" else RECORD[n]) for n in RECORD.names])
    with pytest.raises(WireFormatError, match="record 0: id 3.0 "):
        encode_frame(floats, _stamps())


@pytest.mark.parametrize("field, value", [
    ("lat", "40"), ("lon", True), ("theta", True), ("theta", "90"), ("alt", np.bool_(True)),
    ("w", None), ("t", [1.5]),
    pytest.param("lat", 2**2000, id="lat-int-past-float"),
    pytest.param("theta", -(2**2000), id="theta-int-past-float"),
    pytest.param("w", 1e300, id="w-past-float32"),
    pytest.param("l", np.float64(-3.5e38), id="l-past-float32"),
    pytest.param("h", 10**39, id="h-int-past-float32"),
])
def test_float_fields_refuse_what_is_not_a_number(field, value):
    # A bare cast into RECORD would parse the string or take the bool as 1,
    # and raise OverflowError on an int past the largest float.
    reason = re.escape(f"{field} {value!r} is not a number")
    with pytest.raises(WireFormatError, match=f"record 0: {reason}"):
        _msg(**{field: value})
    msgs = [_msg(), _msg()._replace(**{field: value})]  # record 1 skips construction
    with pytest.raises(WireFormatError, match=f"record 1: {reason}"):
        encode_frame(msgs, _stamps())


def test_float32_fields_refuse_a_finite_value_the_cast_would_overflow():
    # float32's largest value is 2**128 - 2**104; from half an ulp past it,
    # the cast rounds to infinity and numpy warns. Judged before the cast.
    overflow = 2.0**128 - 2.0**103
    rows = np.array([_msg(), _msg()], RECORD)
    wide = rows.astype([(n, "<f8" if n in ("w", "theta") else RECORD[n]) for n in RECORD.names])
    for field, value in (("theta", -overflow), ("w", overflow), ("w", 1e300)):
        bad = wide.copy()
        bad[field][1] = value
        with pytest.raises(WireFormatError, match=f"record 1: {field} .* not a number a float32"):
            encode_frame(bad, _stamps())
    # One ulp short of it rounds to the largest float32, and infinity casts
    # without overflow; the record rules judge both.
    wide["w"][1] = np.nextafter(overflow, 0.0)
    assert decode_frame(encode_frame(wide, _stamps())).messages[1].w == np.finfo(np.float32).max
    wide["w"][1] = np.inf
    with pytest.raises(WireFormatError, match="record 1: dims must be positive and finite"):
        encode_frame(wide, _stamps())
    assert _msg(w=np.nextafter(overflow, 0.0)).w == np.finfo(np.float32).max


def test_float_fields_take_any_number():
    msg = _msg(t=np.float32(1.5), lat=40, lon=np.int64(-105), w=np.float16(2.0), theta=np.int32(90))
    assert msg[:4] == (1.5, 3, 40.0, -105.0) and (msg.w, msg.theta) == (2.0, 90.0)
    # An array column is judged by its dtype: integers and floats pass, a bool
    # or string column is refused whatever its values.
    rows = np.array([_msg(), _msg()], RECORD)
    ints = rows.astype([(n, "<i8" if n == "alt" else RECORD[n]) for n in RECORD.names])
    assert decode_frame(encode_frame(ints, _stamps())).messages == [_msg(), _msg()]
    for dtype in ("?", "U8"):
        other = rows.astype([(n, dtype if n == "lat" else RECORD[n]) for n in RECORD.names])
        with pytest.raises(WireFormatError, match="record 0: lat .* is not a number"):
            encode_frame(other, _stamps())


class _Uncompared(np.ndarray):
    """An array whose values must not be compared."""

    def __ge__(self, other):
        raise AssertionError("values compared")

    __le__ = __ge__


def test_integer_columns_the_record_holds_are_judged_by_dtype_alone():
    data = encode_frame([_msg(), _msg(id=-7, cls=1)], _stamps())
    rows = np.frombuffer(data, RECORD, offset=HEADER_BYTES)
    assert to_records(rows.view(_Uncompared), HEADER_BYTES).tolist() == rows.tolist()
    # A narrower integer column needs no value check either; a wider one, or
    # a bool one, is still judged.
    narrow = rows.astype([(n, "<i2" if n == "id" else RECORD[n]) for n in RECORD.names])
    assert to_records(narrow.view(_Uncompared))["id"].tolist() == [3, -7]
    wide = rows.astype([(n, "<i8" if n == "id" else RECORD[n]) for n in RECORD.names])
    wide["id"][1] = 2 ** 31
    with pytest.raises(WireFormatError, match="record 1: id 2147483648 is not an i32"):
        to_records(wide)
    bools = rows.astype([(n, "?" if n == "cls" else RECORD[n]) for n in RECORD.names])
    with pytest.raises(WireFormatError, match="record 0: cls False is not a u8"):
        to_records(bools)


def test_decode_rejects_invalid_payload_values():
    data = bytearray(encode_frame([_msg()], _stamps(), t_frame=1.0))
    # Overwrite lat (offset: header 52 + t 8 + id 4 = 64) with 200 degrees.
    struct.pack_into("<d", data, 64, 200.0)
    with pytest.raises(WireFormatError, match="record 0"):
        decode_frame(bytes(data))


# Byte offsets of record 0 fields in a frame: header 52, then t, id, lat, lon,
# alt, w, l, h, theta, cls.
_T_AT, _ALT_AT, _W_AT, _THETA_AT, _CLS_AT = 52, 80, 88, 100, 104


@pytest.mark.parametrize("theta", [400.0, -10.0, 360.0])
def test_decode_rejects_out_of_range_theta(theta):
    data = bytearray(encode_frame([_msg()], _stamps(), t_frame=1.0))
    struct.pack_into("<f", data, _THETA_AT, theta)
    with pytest.raises(WireFormatError, match="record 0"):
        decode_frame(bytes(data))


@pytest.mark.parametrize(
    "field, fmt, at, value",
    [("alt", "<d", _ALT_AT, math.nan), ("t", "<d", _T_AT, math.inf), ("w", "<f", _W_AT, math.inf)],
)
def test_non_finite_values_rejected(field, fmt, at, value):
    with pytest.raises(WireFormatError, match="finite"):
        _msg(**{field: value})
    data = bytearray(encode_frame([_msg()], _stamps(), t_frame=1.0))
    struct.pack_into(fmt, data, at, value)
    with pytest.raises(WireFormatError, match="record 0"):
        decode_frame(bytes(data))


@pytest.mark.parametrize("code", [2, 255])
def test_decode_rejects_unknown_class_code(code):
    data = bytearray(encode_frame([_msg(cls=k % 2) for k in range(3)], _stamps(), t_frame=1.0))
    struct.pack_into("<B", data, _CLS_AT + 2 * 53, code)
    with pytest.raises(WireFormatError, match=f"record 2 at byte {52 + 2 * 53}: cls {code}"):
        decode_frame(bytes(data))


def test_message_class_code_checked():
    nine = dict(t=1.5, id=3, lat=40.0, lon=-105.0, alt=1600.0, w=2.0, l=4.5, h=1.6, theta=90.0)
    assert PerceptionMessage(**nine).cls == 0  # vehicle
    assert PerceptionMessage(**nine, cls=1).cls == 1
    with pytest.raises(WireFormatError, match="cls 2"):
        PerceptionMessage(**nine, cls=2)
    msg = PerceptionMessage(**nine)._replace(cls=2)  # past construction-time checks
    with pytest.raises(WireFormatError, match="cls 2"):
        encode_frame([msg], _stamps())
    for code in (-1, 256):  # beyond u8
        with pytest.raises(WireFormatError):
            PerceptionMessage(**nine, cls=code)
        with pytest.raises(WireFormatError):
            encode_frame([PerceptionMessage(**nine)._replace(cls=code)], _stamps())


def test_message_invariant_validation():
    with pytest.raises(WireFormatError):
        _msg(lat=90.5)
    with pytest.raises(WireFormatError):
        _msg(lon=-180.0)
    with pytest.raises(WireFormatError):
        _msg(w=0.0)
    with pytest.raises(WireFormatError):
        _msg(id=2 ** 31)
    m = _msg(theta=360.0)  # wraps to 0
    assert m.theta == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_message_refuses_a_non_finite_heading_as_given(theta):
    # Wrapping inf into [0, 360) gives NaN and a numpy warning; the gate
    # judges the heading as given instead.
    with pytest.raises(WireFormatError, match=f"theta {theta} outside"):
        _msg(theta=theta)


def test_message_f32_quantization():
    m = _msg(w=2.1, theta=123.456)
    assert m.w == float(np.float32(2.1))
    assert m.theta == float(np.float32(123.456))


def test_iter_frames_from_file(tmp_path, rng):
    frames = [encode_frame([_msg(rng)], _stamps(), t_frame=float(k)) for k in range(5)]
    path = tmp_path / "stream.bin"
    path.write_bytes(b"".join(frames))
    assert list(iter_frames_from_file(path)) == frames
    path.write_bytes(b"".join(frames) + frames[0][:10])
    with pytest.raises(WireFormatError, match="truncated"):
        list(iter_frames_from_file(path))
    path.write_bytes(b"".join(frames) + frames[0][:-1])
    with pytest.raises(WireFormatError, match="truncated"):
        list(iter_frames_from_file(path))
    # A header claiming ~4 GiB of payload fails on the missing bytes, without
    # asking the file for the claimed length in one read.
    path.write_bytes(b"CMM2" + struct.pack("<I", 0xFFFFFFF0) + bytes(100))
    with pytest.raises(WireFormatError, match="truncated"):
        list(iter_frames_from_file(path))


def test_frame_reader_reassembles_short_reads(rng):
    frames = [encode_frame([_msg(rng)] * k, _stamps(), t_frame=float(k)) for k in range(4)]
    stream = b"".join(frames)
    pos = 0

    def read(n):  # hands out at most 3 bytes per call, like a slow socket
        nonlocal pos
        chunk = stream[pos:pos + min(n, 3)]
        pos += len(chunk)
        return chunk

    sock = SimpleNamespace(recv=read)
    assert [read_frame_bytes(sock) for _ in frames] == frames
    assert read_frame_bytes(sock) is None
