"""Fan-out relay: one publisher stream, N subscribers, verbatim frames.

Clients identify with a 4-byte role handshake ("PUB0" / "SUB0"). Complete
frames from the publisher are forwarded byte-identically to every connected
subscriber through bounded per-subscriber queues; a subscriber whose queue
overflows is dropped so slow consumers cannot stall the rest.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading

from .wire import WireFormatError, _read_exact, read_frame_bytes

log = logging.getLogger(__name__)

ROLE_PUBLISHER = b"PUB0"
ROLE_SUBSCRIBER = b"SUB0"
HANDSHAKE_TIMEOUT = 5.0


class _Subscriber:
    def __init__(self, sock: socket.socket, peer: str, queue_size: int):
        self.sock = sock
        self.peer = peer
        self.queue: queue.Queue[bytes | None] = queue.Queue(maxsize=queue_size)
        self.alive = True


class RelayServer:
    """Threaded byte-stream relay; start() binds and returns immediately."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_subscribers: int = 16,
        queue_size: int = 64,
        so_sndbuf: int | None = None,
    ):
        self.host = host
        self.port = port
        self.max_subscribers = max_subscribers
        self.queue_size = queue_size
        self.so_sndbuf = so_sndbuf
        self.sequence = 0
        self._listener: socket.socket | None = None
        self._subscribers: list[_Subscriber] = []
        self._publisher_connected = False
        self._lock = threading.Lock()
        self._stopping = threading.Event()

    def start(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(16)
        self._listener = listener
        self.port = listener.getsockname()[1]
        threading.Thread(target=self._accept_loop, name="relay-accept", daemon=True).start()
        log.info("relay listening on %s:%d", self.host, self.port)
        return self

    def stop(self):
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            subs = list(self._subscribers)
        for sub in subs:
            self._drop_subscriber(sub)

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return
            _no_delay(sock)
            peer = f"{addr[0]}:{addr[1]}"
            threading.Thread(
                target=self._handshake, args=(sock, peer), daemon=True
            ).start()

    def _handshake(self, sock: socket.socket, peer: str):
        sock.settimeout(HANDSHAKE_TIMEOUT)
        try:
            role = _read_exact(sock.recv, len(ROLE_PUBLISHER))
        except (OSError, WireFormatError):
            sock.close()
            return
        sock.settimeout(None)
        if role == ROLE_PUBLISHER:
            with self._lock:
                if self._publisher_connected:
                    log.warning("rejecting second publisher from %s", peer)
                    sock.close()
                    return
                self._publisher_connected = True
            self._publisher_loop(sock, peer)
        elif role == ROLE_SUBSCRIBER:
            with self._lock:
                if len(self._subscribers) >= self.max_subscribers:
                    log.warning("subscriber limit reached, rejecting %s", peer)
                    sock.close()
                    return
                if self.so_sndbuf is not None:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, self.so_sndbuf)
                sub = _Subscriber(sock, peer, self.queue_size)
                self._subscribers.append(sub)
            log.info("subscriber %s connected", peer)
            self._subscriber_loop(sub)
        else:
            log.warning("unknown role %r from %s", role, peer)
            sock.close()

    def _publisher_loop(self, sock: socket.socket, peer: str):
        log.info("publisher %s connected", peer)
        try:
            while not self._stopping.is_set():
                frame = read_frame_bytes(sock)
                if frame is None:
                    break
                self.sequence += 1
                self._broadcast(frame)
        except (OSError, ValueError) as e:
            log.warning("publisher %s error: %s", peer, e)
        finally:
            sock.close()
            with self._lock:
                self._publisher_connected = False
            log.info("publisher %s disconnected after relay frame %d, awaiting reconnect",
                     peer, self.sequence)

    def _broadcast(self, frame: bytes):
        with self._lock:
            subs = list(self._subscribers)
        for sub in subs:
            try:
                sub.queue.put_nowait(frame)
            except queue.Full:
                log.warning("subscriber %s overflowed %d-frame queue, dropping",
                            sub.peer, self.queue_size)
                self._drop_subscriber(sub)

    def _subscriber_loop(self, sub: _Subscriber):
        try:
            while sub.alive:
                frame = sub.queue.get()
                if frame is None:
                    break
                sub.sock.sendall(frame)
        except OSError as e:
            log.info("subscriber %s send failed: %s", sub.peer, e)
        finally:
            self._drop_subscriber(sub)

    def _drop_subscriber(self, sub: _Subscriber):
        with self._lock:
            if sub in self._subscribers:
                self._subscribers.remove(sub)
        if sub.alive:
            sub.alive = False
            try:
                sub.queue.put_nowait(None)
            except queue.Full:
                pass
            try:
                sub.sock.close()
            except OSError:
                pass

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)


def relay_serve(bind_endpoint: str, max_subscribers: int, queue_size: int) -> RelayServer:
    """Bind a relay at "host:port" and return the running service."""
    host, _, port = bind_endpoint.rpartition(":")
    server = RelayServer(
        host=host or "127.0.0.1",
        port=int(port),
        max_subscribers=max_subscribers,
        queue_size=queue_size,
    )
    return server.start()


def connect_publisher(endpoint: str, timeout: float = 5.0) -> socket.socket:
    sock = _connect(endpoint, timeout)
    sock.sendall(ROLE_PUBLISHER)
    return sock


def connect_subscriber(endpoint: str, timeout: float = 5.0) -> socket.socket:
    sock = _connect(endpoint, timeout)
    sock.sendall(ROLE_SUBSCRIBER)
    return sock


def _connect(endpoint: str, timeout: float) -> socket.socket:
    host, _, port = endpoint.rpartition(":")
    sock = socket.create_connection((host or "127.0.0.1", int(port)), timeout=timeout)
    sock.settimeout(None)
    _no_delay(sock)
    return sock


def _no_delay(sock: socket.socket) -> None:
    """Send each write at once. Every frame goes out in one sendall, so
    Nagle's algorithm can only hold a frame back until the peer's delayed
    ACK for the previous one arrives, up to 40 ms on Linux."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
