"""Child processes: spawn, wait with a deadline, kill what overruns.

Each child is reaped with os.wait4, so its max-RSS is its own and not
the lifetime maximum that RUSAGE_CHILDREN would report.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
from dataclasses import dataclass, field

from layers import now


@dataclass
class Child:
    role: str
    argv: list[str]
    err_path: str
    proc: subprocess.Popen | None = None
    spawned: float = 0.0
    exited: float = 0.0
    code: int | None = None
    timed_out: bool = False
    max_rss_kib: int = 0
    stderr: str = field(default="", repr=False)


def spawn(child: Child, env: dict, cwd: str, spawn_time: float | None = None) -> None:
    """Start child; stdout is discarded and stderr kept in child.err_path."""
    with open(child.err_path, "wb") as err:
        child.spawned = spawn_time if spawn_time is not None else now()
        child.proc = subprocess.Popen(
            child.argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )


def reap(children: list[Child], deadline: float) -> None:
    """Wait until every child exits or the deadline passes; kill the rest."""
    fds = {os.pidfd_open(c.proc.pid): c for c in children}
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    pending = len(fds)
    try:
        while pending:
            left = deadline - now()
            if left <= 0:
                break
            for fd, _ in poller.poll(left * 1000):
                poller.unregister(fd)
                _collect(fds[fd])
                pending -= 1
        for c in fds.values():
            if c.code is None:
                c.timed_out = True
                c.proc.kill()
                _collect(c)
    finally:
        for fd in fds:
            os.close(fd)
    for c in children:
        with open(c.err_path, encoding="utf-8", errors="replace") as fh:
            c.stderr = fh.read()


def _collect(c: Child) -> None:
    _, status, usage = os.wait4(c.proc.pid, 0)
    c.exited = now()
    c.code = os.waitstatus_to_exitcode(status)
    c.proc.returncode = c.code  # reaped here; keeps Popen from waiting again
    c.max_rss_kib = usage.ru_maxrss


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]
