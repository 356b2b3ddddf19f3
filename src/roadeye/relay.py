"""Fan-out relay: one publisher stream, N subscribers, verbatim frames.

Clients identify with a 4-byte role handshake ("PUB0" / "SUB0"). Complete
frames from the publisher are forwarded byte-identically to every connected
subscriber through bounded per-subscriber queues; a subscriber whose queue
overflows is dropped so slow consumers cannot stall the rest.
"""

from __future__ import annotations

import contextlib
import logging
import queue
import socket
import socketserver
import threading

from .wire import WireFormatError, _read_exact, read_frame_bytes

log = logging.getLogger(__name__)

ROLE_PUBLISHER = b"PUB0"
ROLE_SUBSCRIBER = b"SUB0"
HANDSHAKE_TIMEOUT = 5.0
CONNECT_TIMEOUT = 5.0  # s, for a client's TCP connect
POLL_INTERVAL = 0.05  # s, how often the serving thread looks for shutdown()


class _Subscriber:
    def __init__(self, sock: socket.socket, peer: str, queue_size: int):
        self.sock = sock
        self.peer = peer
        self.queue: queue.Queue[bytes | None] = queue.Queue(maxsize=queue_size)
        self.alive = True


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    request_queue_size = 16
    handlers: list[threading.Thread] = []  # replaced, never appended to

    def process_request(self, request, client_address):
        # Daemon threads, so a process that never calls stop() can exit; the
        # mixin's server_close() would join only non-daemon ones.
        t = threading.Thread(target=self.process_request_thread,
                             args=(request, client_address), daemon=True)
        self.handlers = [h for h in self.handlers if h.is_alive()] + [t]
        t.start()


class RelayServer:
    """Threaded byte-stream relay; start() binds and returns immediately."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_subscribers: int = 16,
        queue_size: int = 64,
    ):
        # A queue of size 0 has no bound, so a slow subscriber would never be
        # dropped; no subscriber fits a limit of 0.
        for name, value in (("max_subscribers", max_subscribers), ("queue_size", queue_size)):
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.host = host
        self.port = port
        self.max_subscribers = max_subscribers
        self.queue_size = queue_size
        self.sequence = 0
        self._server: _Server | None = None
        self._serving: threading.Thread | None = None
        self._subscribers: list[_Subscriber] = []
        self._publisher: socket.socket | None = None
        self._lock = threading.Lock()

    def start(self):
        self._server = _Server((self.host, self.port), self._handshake)
        self.port = self._server.server_address[1]
        self._serving = threading.Thread(target=self._server.serve_forever, args=(POLL_INTERVAL,),
                                         name="relay-serve", daemon=True)
        self._serving.start()
        log.info("relay listening on %s:%d", self.host, self.port)
        return self

    def stop(self):
        """Close every connection, join every relay thread and free the port; a
        no-op unless started. A client yet to send its role holds it up to HANDSHAKE_TIMEOUT."""
        with self._lock:  # from here on, _handshake admits no one
            server, self._server = self._server, None
        if server is None:
            return
        server.shutdown()
        self._serving.join()
        for sub in list(self._subscribers):
            self._drop_subscriber(sub)
        if (pub := self._publisher) is not None:
            _shut(pub)
        server.server_close()
        for t in server.handlers:
            t.join()

    def _handshake(self, sock: socket.socket, addr: tuple, _server: _Server):
        """The server's request handler: serves one connection in its thread."""
        _no_delay(sock)
        peer = "%s:%d" % addr
        sock.settimeout(HANDSHAKE_TIMEOUT)
        try:
            role = _read_exact(sock.recv, len(ROLE_PUBLISHER))
        except (OSError, WireFormatError):
            return
        sock.settimeout(None)
        if role == ROLE_PUBLISHER:
            with self._lock:
                if self._server is None:
                    return
                if self._publisher is not None:
                    log.warning("rejecting second publisher from %s", peer)
                    return
                self._publisher = sock
            self._publisher_loop(sock, peer)
        elif role == ROLE_SUBSCRIBER:
            with self._lock:
                if self._server is None:
                    return
                if len(self._subscribers) >= self.max_subscribers:
                    log.warning("subscriber limit reached, rejecting %s", peer)
                    return
                sub = _Subscriber(sock, peer, self.queue_size)
                self._subscribers.append(sub)
            log.info("subscriber %s connected", peer)
            self._subscriber_loop(sub)
        else:
            log.warning("unknown role %r from %s", role, peer)

    def _publisher_loop(self, sock: socket.socket, peer: str):
        log.info("publisher %s connected", peer)
        try:
            while (frame := read_frame_bytes(sock)) is not None:
                self.sequence += 1
                self._broadcast(frame)
        except (OSError, ValueError) as e:
            log.warning("publisher %s error: %s", peer, e)
        finally:
            with self._lock:
                self._publisher = None
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
            while sub.alive and (frame := sub.queue.get()) is not None:
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
            with contextlib.suppress(queue.Full):
                sub.queue.put_nowait(None)
            _shut(sub.sock)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)


def relay_serve(bind_endpoint: str, max_subscribers: int, queue_size: int) -> RelayServer:
    """Bind a relay at "host:port" and return the running service."""
    host, _, port = bind_endpoint.rpartition(":")
    return RelayServer(host or "127.0.0.1", int(port), max_subscribers, queue_size).start()


def connect_publisher(endpoint: str) -> socket.socket:
    sock = _connect(endpoint)
    sock.sendall(ROLE_PUBLISHER)
    return sock


def connect_subscriber(endpoint: str) -> socket.socket:
    sock = _connect(endpoint)
    sock.sendall(ROLE_SUBSCRIBER)
    return sock


def _connect(endpoint: str) -> socket.socket:
    host, _, port = endpoint.rpartition(":")
    sock = socket.create_connection((host or "127.0.0.1", int(port)), timeout=CONNECT_TIMEOUT)
    sock.settimeout(None)
    _no_delay(sock)
    return sock


def _no_delay(sock: socket.socket) -> None:
    """Send each write at once. Every frame goes out in one sendall, so
    Nagle's algorithm can only hold a frame back until the peer's delayed
    ACK for the previous one arrives, up to 40 ms on Linux."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _shut(sock: socket.socket) -> None:
    """Wake a thread blocked in recv or sendall; on Linux, close() does not."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
