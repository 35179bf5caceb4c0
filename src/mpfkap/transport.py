"""Frame exchange between two processes: shared directory or TCP.

The file transport drops each frame into the shared directory under
"<role>.<kind>.frame" (through wire.replacing) and polls for the peer's
file; it refuses a directory that already holds a frame of its role's,
left by an earlier session.  The TCP transport is a minimal length-prefixed exchange: bob
listens, alice connects, one peer at a time, no retries beyond the
connect deadline.  Both read a frame through _read_frame, which refuses
one longer than the payload limits they are given (wire.payload_limits)
before buffering it; the file transport reads only a regular file.

One poll schedule, _polls, serves the file transport waiting for a frame
and alice retrying her connect: FIRST_POLL, then twice as long each time
up to POLL_INTERVAL: 1, 2, 4, 4, 4, ... ms.  A frame is seen at most ~4 ms
after it lands, and a long wait costs one check per 4 ms, a stat call or
a refused connect each.  Only a tcp: transport imports socket.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING

from .errors import FrameError, ProtocolError, TransportError
from .wire import HEADER_LEN, check_header, decode_frame, encode_frame, open_regular, replacing

if TYPE_CHECKING:
    import socket

ROLES = ("alice", "bob")
FIRST_POLL = 0.001
POLL_INTERVAL = 0.004
DEFAULT_TIMEOUT = 15.0


def peer_of(role: str) -> str:
    if role not in ROLES:
        raise TransportError(f"unknown role {role!r}")
    return "bob" if role == "alice" else "alice"


class FileTransport:
    """Exchange frames through files in a shared directory."""

    def __init__(
        self, directory: str, role: str, limits: dict[str, int], timeout: float = DEFAULT_TIMEOUT
    ):
        self.directory = directory
        self.role = role
        self.limits = limits
        self.peer = peer_of(role)
        self.timeout = timeout
        if not os.path.isdir(directory):
            problem = "is not a directory" if os.path.exists(directory) else "does not exist"
            raise TransportError(f"transport directory {directory!r} {problem}")
        # a frame of our own is an earlier session's: the peer would read it
        # as this one's, and the two sides would end with different keys
        try:
            stale = sorted(n for n in os.listdir(directory)
                           if n.startswith(role + ".") and n.endswith(".frame"))
        except OSError as exc:
            raise TransportError(f"cannot list {directory}: {exc}") from exc
        if stale:
            raise TransportError(
                f"{os.path.join(directory, stale[0])} is left from an earlier session; "
                "each session needs a fresh exchange directory"
            )

    def send(self, kind: str, payload: bytes) -> None:
        final = os.path.join(self.directory, f"{self.role}.{kind}.frame")
        try:
            with replacing(final) as fh:
                fh.write(encode_frame(kind, payload))
        except OSError as exc:
            raise TransportError(f"cannot write {final}: {exc}") from exc

    def recv(self, kind: str) -> bytes:
        path = os.path.join(self.directory, f"{self.peer}.{kind}.frame")
        err_path = os.path.join(self.directory, f"{self.peer}.error.frame")
        for _ in _polls(self.timeout):
            for found in (path, err_path):
                if os.path.exists(found):
                    return _expect_kind(self._read(found), kind)
        raise TransportError(f"timed out waiting for {path}")

    def _read(self, path: str) -> bytes:
        # one byte past the header's length is enough for decode_frame to
        # refuse a longer file, and a file that grows is never buffered whole
        try:
            with open_regular(path, FrameError, "peer frame") as fh:
                return _read_frame(fh.read, self.limits, 1)
        except OSError as exc:
            raise TransportError(f"cannot read {path}: {exc}") from exc

    def close(self) -> None:
        pass


class TcpTransport:
    """Length-prefixed frame exchange over one TCP connection.

    Bob binds and accepts a single peer; Alice connects, retrying until
    the deadline so start order does not matter.
    """

    def __init__(
        self,
        host: str,
        port: int,
        role: str,
        limits: dict[str, int],
        timeout: float = DEFAULT_TIMEOUT,
    ):
        import socket  # here, so that file: runs never pay for it

        self.role = role
        self.limits = limits
        self.timeout = timeout
        self._listener: socket.socket | None = None
        self._sock: socket.socket | None = None
        if role == "bob":
            try:
                self._listener = socket.create_server((host, port))
                self._listener.settimeout(timeout)
            except OSError as exc:
                raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc
        elif role == "alice":
            for _ in _polls(timeout):
                try:
                    self._sock = socket.create_connection((host, port), timeout=timeout)
                    break
                except OSError as exc:
                    refused = exc
            else:
                raise TransportError(f"cannot connect to {host}:{port}: {refused}") from refused
            self._sock.settimeout(timeout)
        else:
            raise TransportError(f"unknown role {role!r}")

    def _conn(self) -> socket.socket:
        if self._sock is None:
            assert self._listener is not None
            try:
                self._sock, _ = self._listener.accept()
            except TimeoutError as exc:
                raise TransportError("timed out waiting for the peer to connect") from exc
            self._sock.settimeout(self.timeout)
        return self._sock

    def send(self, kind: str, payload: bytes) -> None:
        try:
            self._conn().sendall(encode_frame(kind, payload))
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def recv(self, kind: str) -> bytes:
        try:
            conn = self._conn()
            data = _read_frame(lambda n: _read_exact(conn, n), self.limits, 0)
        except TimeoutError as exc:
            raise TransportError("timed out waiting for a frame") from exc
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        return _expect_kind(data, kind)

    def close(self) -> None:
        for s in (self._sock, self._listener):
            if s is not None:
                try:
                    s.close()
                except OSError:
                    pass
        self._sock = None
        self._listener = None


def _polls(timeout: float):
    """Yield at once, then after waits of 1, 2, 4, 4, ... ms, until timeout seconds pass."""
    deadline = time.monotonic() + timeout
    delay = FIRST_POLL
    while True:
        yield
        if time.monotonic() > deadline:
            return
        time.sleep(delay)
        delay = min(2 * delay, POLL_INTERVAL)


def _read_frame(read, limits: dict[str, int], slack: int) -> bytes:
    """A peer frame from read(n): its header, which check_header validates before
    any payload byte is read, then at most the payload length plus slack bytes."""
    header = bytes(read(HEADER_LEN))
    return header + read(check_header(header, limits) + slack)


def _read_exact(conn: socket.socket, n: int) -> bytearray:
    """Fill an n-byte buffer in place, however the peer splits its sends."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = conn.recv_into(view[got:])
        if not k:
            raise TransportError("connection closed mid-frame")
        got += k
    return buf


def _expect_kind(data: bytes, kind: str) -> bytes:
    got, payload = decode_frame(data)
    if got == "error":
        raise ProtocolError(f"peer reported: {payload.decode('utf-8', 'replace')}")
    if got != kind:
        raise ProtocolError(f"expected a {kind} frame, peer sent {got}")
    return payload


def open_transport(
    spec: str, role: str, limits: dict[str, int], timeout: float = DEFAULT_TIMEOUT
):
    """Parse "file:DIR" or "tcp:HOST:PORT" into a transport instance.

    limits maps each frame kind to its largest legal payload.
    """
    if spec.startswith("file:"):
        return FileTransport(spec[len("file:") :], role, limits, timeout)
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:") :]
        host, sep, port = rest.rpartition(":")
        if not sep or not host:
            raise TransportError(f"tcp transport needs tcp:HOST:PORT, got {spec!r}")
        try:
            port_no = int(port)
        except ValueError:
            port_no = -1
        if not 0 < port_no <= 65535:  # port 0 would listen where no peer can find it
            raise TransportError(f"bad port in {spec!r}")
        return TcpTransport(host, port_no, role, limits, timeout)
    raise TransportError(f"unknown transport {spec!r} (use file:DIR or tcp:HOST:PORT)")
