import hashlib
import logging
import socket
import threading
import time

import pytest

from roadeye.relay import (ROLE_SUBSCRIBER, RelayServer, connect_publisher, connect_subscriber,
                           relay_serve)
from roadeye.wire import PerceptionMessage, PhaseStamps, encode_frame, read_frame_bytes


def _frames(n, records=1):
    msgs = [
        PerceptionMessage(t=0.0, id=k, lat=40.0, lon=-105.0, alt=1600.0,
                          w=2.0, l=4.5, h=1.6, theta=90.0)
        for k in range(records)
    ]
    return [encode_frame(msgs, PhaseStamps(float(k), float(k), float(k), None), t_frame=float(k))
            for k in range(n)]


def _endpoint(server):
    return f"{server.host}:{server.port}"


def _collect(sock, n, timeout=10.0):
    sock.settimeout(timeout)
    out = []
    for _ in range(n):
        try:
            frame = read_frame_bytes(sock)
        except TimeoutError:
            break
        if frame is None:
            break
        out.append(frame)
    return out


def _shrink_send_buffers(server):
    """Give the relay's socket to each registered subscriber a 4 KiB send
    buffer, so the sender to one that never reads blocks after a few KB."""
    for sub in server._subscribers:
        sub.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)


def test_broadcast_order_and_bytes():
    server = RelayServer().start()
    try:
        subs = [connect_subscriber(_endpoint(server)) for _ in range(2)]
        time.sleep(0.2)
        pub = connect_publisher(_endpoint(server))
        frames = _frames(10)
        for f in frames:
            pub.sendall(f)
        pub.close()
        hashes = [hashlib.sha256(f).hexdigest() for f in frames]
        for sub in subs:
            got = _collect(sub, 10)
            assert [hashlib.sha256(f).hexdigest() for f in got] == hashes
            sub.close()
    finally:
        server.stop()


def test_late_joiner_gets_no_replay():
    server = RelayServer().start()
    try:
        early = connect_subscriber(_endpoint(server))
        time.sleep(0.2)
        pub = connect_publisher(_endpoint(server))
        frames = _frames(10)
        for f in frames[:5]:
            pub.sendall(f)
        # Wait until the early subscriber holds the first half.
        got_early = _collect(early, 5)
        late = connect_subscriber(_endpoint(server))
        time.sleep(0.3)
        for f in frames[5:]:
            pub.sendall(f)
        pub.close()
        got_late = _collect(late, 10, timeout=3.0)
        got_early += _collect(early, 5)
        assert got_early == frames
        assert got_late == frames[5:]
        early.close()
        late.close()
    finally:
        server.stop()


def test_stalled_subscriber_dropped_others_unaffected():
    # Tiny queue and send buffer so a non-reading subscriber overflows fast.
    server = RelayServer(queue_size=2).start()
    try:
        stalled = connect_subscriber(_endpoint(server))
        healthy = connect_subscriber(_endpoint(server))
        time.sleep(0.2)
        assert server.subscriber_count == 2
        _shrink_send_buffers(server)
        pub = connect_publisher(_endpoint(server))
        frames = _frames(12, records=2000)  # ~100 KB each
        received = []
        stalled.settimeout(10.0)
        for f in frames:
            pub.sendall(f)
            received.extend(_collect(healthy, 1))
        pub.close()
        deadline = time.time() + 5.0
        while server.subscriber_count > 1 and time.time() < deadline:
            time.sleep(0.05)
        assert server.subscriber_count == 1  # stalled one was dropped
        assert received == frames  # healthy subscriber got everything, in order
        healthy.close()
        stalled.close()
    finally:
        server.stop()


def test_publisher_reconnect():
    server = RelayServer().start()
    try:
        sub = connect_subscriber(_endpoint(server))
        time.sleep(0.2)
        frames = _frames(4)
        pub1 = connect_publisher(_endpoint(server))
        for f in frames[:2]:
            pub1.sendall(f)
        assert _collect(sub, 2) == frames[:2]
        pub1.close()
        time.sleep(0.3)
        pub2 = connect_publisher(_endpoint(server))
        for f in frames[2:]:
            pub2.sendall(f)
        pub2.close()
        assert _collect(sub, 2) == frames[2:]
        sub.close()
    finally:
        server.stop()


def _relay_records(caplog, n):
    """Relay n frames to one subscriber; return the relay's log records up
    to the publisher's disconnect line."""
    caplog.clear()
    server = RelayServer().start()
    try:
        sub = connect_subscriber(_endpoint(server))
        time.sleep(0.2)
        pub = connect_publisher(_endpoint(server))
        pub_peer = "%s:%d" % pub.getsockname()
        frames = _frames(n)
        for f in frames:
            pub.sendall(f)
        assert _collect(sub, n) == frames
        pub.close()
        deadline = time.monotonic() + 5.0
        while not any(f"publisher {pub_peer} disconnected" in r.getMessage()
                      for r in caplog.records):
            assert time.monotonic() < deadline, "no publisher disconnect logged"
            time.sleep(0.01)
        records = [r for r in caplog.records if r.name == "roadeye.relay"]
        sub.close()
    finally:
        server.stop()
    return records


def test_relay_logs_no_line_per_frame(caplog):
    caplog.set_level(logging.INFO, logger="roadeye.relay")
    few = _relay_records(caplog, 5)
    many = _relay_records(caplog, 50)
    assert len(many) == len(few)
    assert any("after relay frame 50" in r.getMessage() for r in many)


def test_second_concurrent_publisher_rejected():
    server = RelayServer().start()
    try:
        pub1 = connect_publisher(_endpoint(server))
        time.sleep(0.2)
        pub2 = connect_publisher(_endpoint(server))
        time.sleep(0.3)
        # The relay closes the second publisher connection.
        pub2.settimeout(2.0)
        assert pub2.recv(1) == b""
        pub1.close()
        pub2.close()
    finally:
        server.stop()


def test_subscriber_limit():
    server = RelayServer(max_subscribers=1).start()
    try:
        keep = connect_subscriber(_endpoint(server))
        time.sleep(0.2)
        extra = connect_subscriber(_endpoint(server))
        extra.settimeout(2.0)
        assert extra.recv(1) == b""
        keep.close()
        extra.close()
    finally:
        server.stop()


@pytest.mark.parametrize("field", ["max_subscribers", "queue_size"])
@pytest.mark.parametrize("value", [0, -1])
def test_limits_below_one_refused(field, value):
    # A queue of size 0 has no bound: a slow subscriber was never dropped.
    limits = {"max_subscribers": 16, "queue_size": 64, field: value}
    server = None
    try:
        with pytest.raises(ValueError, match=rf"^{field} must be >= 1, got {value}$"):
            server = relay_serve("127.0.0.1:0", **limits)
    finally:
        if server is not None:
            server.stop()


def test_every_relay_socket_sends_without_nagle_delay():
    # A frame held back by Nagle waits for the peer's delayed ACK (40 ms on Linux).
    server = RelayServer().start()
    try:
        sub = connect_subscriber(_endpoint(server))
        pub = connect_publisher(_endpoint(server))
        deadline = time.time() + 5.0
        while server.subscriber_count < 1 and time.time() < deadline:
            time.sleep(0.01)
        relay_side = server._subscribers[0].sock
        for sock in (pub, sub, relay_side):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        pub.close()
        sub.close()
    finally:
        server.stop()


def test_bad_handshakes_closed_subscriber_unaffected():
    server = RelayServer().start()
    try:
        sub = connect_subscriber(_endpoint(server))
        # The relay registers the subscriber on its own thread after the handshake.
        deadline = time.time() + 5.0
        while server.subscriber_count < 1 and time.time() < deadline:
            time.sleep(0.01)
        short = socket.create_connection((server.host, server.port))
        short.sendall(ROLE_SUBSCRIBER[:2])
        short.shutdown(socket.SHUT_WR)  # 2 role bytes, then end of stream
        unknown = socket.create_connection((server.host, server.port))
        unknown.sendall(b"XXXX")
        for bad in (short, unknown):
            bad.settimeout(2.0)
            assert bad.recv(1) == b""  # the relay closed it
            bad.close()
        assert server.subscriber_count == 1
        pub = connect_publisher(_endpoint(server))
        frames = _frames(5)
        for f in frames:
            pub.sendall(f)
        pub.close()
        assert _collect(sub, 5) == frames
        sub.close()
    finally:
        server.stop()


def test_bind_failure_raises():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    # SO_REUSEADDR does not allow two live listeners on one port.
    with pytest.raises(OSError):
        RelayServer(port=port).start()
    blocker.close()


def test_stop_ends_every_thread_and_frees_the_port():
    before = set(threading.enumerate())
    server = RelayServer().start()
    stalled = socket.socket()
    socks = [stalled]
    try:
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # and never reads
        stalled.connect((server.host, server.port))
        stalled.sendall(ROLE_SUBSCRIBER)
        sub = connect_subscriber(_endpoint(server))
        socks.append(sub)
        deadline = time.monotonic() + 5.0
        while server.subscriber_count < 2:
            assert time.monotonic() < deadline, "subscribers not registered"
            time.sleep(0.01)
        _shrink_send_buffers(server)
        pub = connect_publisher(_endpoint(server))
        socks.append(pub)
        frames = _frames(10, records=2000)  # ~1 MB in all, fewer than the 64-frame queue
        for f in frames:
            pub.sendall(f)
        # Once the reading subscriber has every frame, the stalled one's
        # sender is blocked in sendall on the first.
        assert _collect(sub, len(frames)) == frames
        stopper = threading.Thread(target=server.stop)  # a hung stop() fails, not hangs
        stopper.start()
        stopper.join(1.0)
        assert not stopper.is_alive(), "stop() took over 1 s"
        assert [t for t in threading.enumerate() if t not in before | {stopper}] == []
        RelayServer(port=server.port).start().stop()
    finally:
        for sock in socks:
            sock.close()
        server.stop()
