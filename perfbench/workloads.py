"""The benchmark's workloads and the operations it times.

Every workload runs the real CLI in fresh processes, one operation in
flight at a time (a closed loop with one client).  A session is bob plus
alice, two processes, which is what a 2-core machine can run at once; a
setup is one process.  The program sees only inputs generated from the
workload seed.

Why each workload exists:

  rdmpf-tcp    rdmpf handshake, dim 8, 2 rounds, p = 2^64-59, exp_max
               10^4, over tcp.  The double-action kernel is almost all of
               the protocol time here: the workload for kernel work.
  kem-rounds   KEM over rdmpf, dim 2, 128 rounds, p = 2^64-59, exp_max
               2^63, over file:.  Private matrix powers dominate and the
               kernel is minor, so kernel work should leave it alone while
               matrix-power work shows; two file-poll hops, HMAC masking
               and 4 KiB token lists sit on its blocking path.
  rmpf-smallp  rmpf handshake, 96x8, p = 65537, over file:.  The same
               double-action layer with a rectangular shape, 16-bit
               scalar-scaled exponents and index bound 8, where a kernel
               tuned for 64-bit exponents may lose; fixed costs
               (interpreter start, parameter load, polling) are large.
  setup-floor  setup at dim 100, p = 2^64-59, the recommended parameter
               floor.  Base sampling dominates; the layers it shows (setup
               matrix powers, rank checks, parameter JSON) are invisible
               in the other three.  Its operation is one setup.

Correctness: handshake keys are compared with the direct-formula
reference in reference.py, computed from the private values the
benchmark injects.  The KEM refuses injected values, so KEM frames and
keys, and the bytes of every parameter file, are compared with SHA-256
values recorded by record.py; the workload seed only picks among the
recorded inputs, so every seed is covered.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field

import layers
import reference
from layers import now
from procs import Child, free_port, reap, spawn

P64 = 2**64 - 59
RDMPF_EXP_MAX = 10**4
SETUP_POOL = tuple(range(1, 9))
KEM_SESSION_POOL = tuple(range(16))
HANDSHAKE_POOL = 4  # distinct injected inputs per run
KEM_FRAMES = ("bob.kem-close-b.frame", "alice.kem-encap-msg.frame")
KEM_AUTH = ("alice@perfbench", "bob@perfbench")
ROLES = ("bob", "alice")  # start order: bob listens or opens the exchange


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "handshake", "kem" or "setup"
    setup_args: tuple[str, ...]
    transport: str = "file"  # "file" or "tcp"
    setup_repeats: int = 15  # setups timed for setup_s, cycling through SETUP_POOL
    op_timeout: float = 30.0

    @property
    def protocol(self) -> str:
        return self.setup_args[self.setup_args.index("--protocol") + 1]


def _rdmpf(dim: int, rounds: int, exp_max: int = RDMPF_EXP_MAX) -> tuple[str, ...]:
    return ("--protocol", "rdmpf", "--p", str(P64), "--dim", str(dim),
            "--rounds", str(rounds), "--exp-max", str(exp_max))


def _rmpf(rows: int, cols: int) -> tuple[str, ...]:
    return ("--protocol", "rmpf", "--p", "65537", "--rows", str(rows), "--cols", str(cols))


WORKLOADS = {
    "rdmpf-tcp": Workload("rdmpf-tcp", "handshake", _rdmpf(8, 2), transport="tcp"),
    "kem-rounds": Workload("kem-rounds", "kem", _rdmpf(2, 128, 2**63)),
    "rmpf-smallp": Workload("rmpf-smallp", "handshake", _rmpf(96, 8)),
    "setup-floor": Workload(
        "setup-floor", "setup", _rdmpf(100, 1), setup_repeats=2, op_timeout=120.0),
}

# The same workloads at a size the benchmark's own tests can afford.
SMOKE = {
    "rdmpf-tcp": Workload("rdmpf-tcp", "handshake", _rdmpf(3, 2), transport="tcp",
                          setup_repeats=2),
    "kem-rounds": Workload("kem-rounds", "kem", _rdmpf(2, 4, 2**63), setup_repeats=2),
    "rmpf-smallp": Workload("rmpf-smallp", "handshake", _rmpf(5, 3), setup_repeats=2),
    "setup-floor": Workload("setup-floor", "setup", _rdmpf(5, 1), setup_repeats=2),
}


def record_key(wl: Workload, smoke: bool) -> str:
    return wl.name + ("/smoke" if smoke else "")


def sha256_file(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


@dataclass
class Op:
    """One timed operation: a session or a setup."""

    seconds: float
    ok: bool
    check: str  # "reference", "recorded-sha256" or "unrecorded"
    error: str  # empty when ok
    children: list[Child]
    digests: dict = field(default_factory=dict)
    spans: list[list[dict]] | None = None
    missing: list[str] = field(default_factory=list)

    @property
    def max_rss_kib(self) -> int:
        return max((c.max_rss_kib for c in self.children), default=0)


class Bench:
    """Runs one workload's operations from a checkout's root directory.

    program is the command that starts the CLI; tests substitute a fake
    party to show that wrong or late outputs count as failures.
    """

    def __init__(self, root: str, wl: Workload, seed: int, records: dict | None,
                 program: list[str] | None = None):
        self.root = root
        self.wl = wl
        self.seed = seed
        self.records = records or {}
        self.program = program or [sys.executable, "-m", "mpfkap"]
        work_root = os.path.join(root, ".bench_work")
        os.makedirs(work_root, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.setup_order = random.Random(f"{wl.name}/{seed}/setups").sample(
            SETUP_POOL, len(SETUP_POOL))
        self.kem_order = random.Random(f"{wl.name}/{seed}/kem").sample(
            KEM_SESSION_POOL, len(KEM_SESSION_POOL))
        self.params: str | None = None  # parameter file the sessions use
        self.setup_seed: int | None = None
        self.doc: dict | None = None
        self._inputs: dict[int, tuple[dict, bytes]] = {}

    def use_params(self, path: str, setup_seed: int) -> None:
        self.params, self.setup_seed = path, setup_seed
        self.doc = reference.load_params(path)

    def close(self, keep: bool) -> None:
        if not keep:
            shutil.rmtree(self.work, ignore_errors=True)

    # --- running the CLI ----------------------------------------------------

    def _run(self, sdir: str, roles_argv: list[tuple[str, list[str]]], env: dict,
             traced: bool) -> tuple[float, list[Child]]:
        """Start the processes in order, wait for all; returns the start time."""
        children = []
        start = now()
        for role, argv in roles_argv:
            err = os.path.join(sdir, f"{role}.err")
            if traced:
                t = now()
                argv = [sys.executable, os.path.join(self.root, "perfbench", "party.py"),
                        os.path.join(sdir, f"{role}.trace"), repr(t), "--", *argv]
                child = Child(role, argv, err)
                spawn(child, env, sdir, t)
            else:
                child = Child(role, [*self.program, *argv], err)
                spawn(child, env, sdir)
            children.append(child)
        reap(children, start + self.wl.op_timeout)
        return start, children

    def vectors(self) -> Child:
        sdir = tempfile.mkdtemp(prefix="vectors-", dir=self.work)
        _, (child,) = self._run(sdir, [("vectors", ["vectors"])], self.env, False)
        return child

    @staticmethod
    def _exit_error(children: list[Child]) -> str:
        for c in children:
            if c.timed_out:
                return f"{c.role} timed out and was killed"
        for c in children:
            if c.code != 0:
                return f"{c.role} exited {c.code}: {c.stderr.strip()[-300:]}"
        return ""

    def _finish(self, start: float, sdir: str, children: list[Child], error: str,
                check: str, digests: dict, traced: bool) -> Op:
        op = Op(now() - start, not error, check, error, children, digests)
        if traced and not error:
            op.spans = []
            for c in children:
                spans, missing = layers.load(os.path.join(sdir, f"{c.role}.trace"))
                op.spans.append(spans)
                op.missing = sorted(set(op.missing) | set(missing))
        return op

    def _compare_recorded(self, recorded: dict | None, digests: dict) -> tuple[str, str]:
        if recorded is None:
            return "unrecorded", ""
        bad = [k for k, v in recorded.items() if digests.get(k) != v]
        if bad:
            return "recorded-sha256", (
                f"SHA-256 of {', '.join(bad)} differs from the recorded value")
        return "recorded-sha256", ""

    # --- operations -----------------------------------------------------------

    def setup_op(self, setup_seed: int, traced: bool = False) -> tuple[Op, str]:
        """Run `mpfkap setup`; returns the op and the directory holding the file."""
        sdir = tempfile.mkdtemp(prefix="setup-", dir=self.work)
        out = os.path.join(sdir, "params.json")
        argv = ["setup", *self.wl.setup_args, "--seed", str(setup_seed), "--out", out]
        start, children = self._run(sdir, [("setup", argv)], self.env, traced)
        error = self._exit_error(children)
        digests = {"json": sha256_file(out), "bin": sha256_file(out[: -len(".json")] + ".bin")}
        recorded = self.records.get("setup", {}).get(str(setup_seed))
        check, mismatch = self._compare_recorded(recorded, digests)
        return self._finish(start, sdir, children, error or mismatch, check, digests,
                            traced), sdir

    def session_op(self, index: int, traced: bool = False) -> tuple[Op, str]:
        if self.wl.op == "kem":
            return self._kem_session(index, traced)
        return self._handshake(index, traced)

    def _transport(self, sdir: str) -> str:
        if self.wl.transport == "tcp":
            return f"tcp:127.0.0.1:{free_port()}"
        xdir = os.path.join(sdir, "exchange")  # fresh for every session
        os.mkdir(xdir)
        return f"file:{xdir}"

    def handshake_inputs(self, index: int) -> tuple[dict, bytes]:
        """Injected privates for both roles and the key both must write.

        Sessions cycle through HANDSHAKE_POOL inputs, so the reference is
        computed at most that many times in a run.
        """
        index %= HANDSHAKE_POOL
        if index not in self._inputs:
            self._inputs[index] = self._draw_inputs(index)
        return self._inputs[index]

    def _draw_inputs(self, index: int) -> tuple[dict, bytes]:
        doc = self.doc
        rng = random.Random(f"{self.wl.name}/{self.seed}/{index}")
        while True:
            if self.wl.protocol == "rdmpf":
                def draw():
                    vals = [[rng.randint(1, doc["exp_max"]) for _ in range(doc["rounds"])]
                            for _ in range(2)]
                    return tuple(vals)

                privs = {"alice": draw(), "bob": draw()}
                expected = reference.rdmpf_session_key(doc, privs["alice"], privs["bob"])
            else:
                privs = {r: (rng.randrange(1, doc["p"] - 1), rng.randrange(1, doc["p"] - 1))
                         for r in ("alice", "bob")}
                expected = reference.rmpf_key_file(doc, privs["alice"], privs["bob"])
            if expected is not None:  # the CLI rejects a token with a zero entry
                return privs, expected

    def _inject_args(self, priv) -> list[str]:
        if self.wl.protocol == "rdmpf":
            ls, rs = priv
            return ["--inject", "rand_l=" + ",".join(map(str, ls)),
                    "--inject", "rand_r=" + ",".join(map(str, rs))]
        return ["--inject", f"lambda={priv[0]}", "--inject", f"omega={priv[1]}"]

    def _handshake(self, index: int, traced: bool) -> tuple[Op, str]:
        privs, expected = self.handshake_inputs(index)
        sdir = tempfile.mkdtemp(prefix="session-", dir=self.work)
        spec = self._transport(sdir)
        roles_argv = [
            (role, ["handshake", "--role", role, "--params", self.params, "--transport", spec,
                    "--out", os.path.join(sdir, f"{role}.key"), "--test-mode",
                    "--timeout", str(self.wl.op_timeout), *self._inject_args(privs[role])])
            for role in ROLES
        ]
        start, children = self._run(sdir, roles_argv, self.env, traced)
        error = self._exit_error(children) or _compare_keys(sdir, expected)
        return self._finish(start, sdir, children, error, "reference", {}, traced), sdir

    def _kem_session(self, index: int, traced: bool) -> tuple[Op, str]:
        session_seed = self.kem_order[index % len(self.kem_order)]
        sdir = tempfile.mkdtemp(prefix="session-", dir=self.work)
        eta0 = os.path.join(sdir, "eta0.bin")
        with open(eta0, "wb") as fh:
            fh.write(hashlib.sha512(f"perfbench-eta0/{session_seed}".encode()).digest())
        spec = self._transport(sdir)
        env = dict(self.env, MPFKAP_SEED=str(session_seed))
        roles_argv = [
            (role, ["kem", "--role", role, "--params", self.params, "--eta0", eta0,
                    "--auth-a", KEM_AUTH[0], "--auth-b", KEM_AUTH[1], "--transport", spec,
                    "--out", os.path.join(sdir, f"{role}.key"), "--test-mode",
                    "--timeout", str(self.wl.op_timeout)])
            for role in ROLES
        ]
        start, children = self._run(sdir, roles_argv, env, traced)
        error = self._exit_error(children) or _compare_keys(sdir, None)
        xdir = spec[len("file:"):]
        digests = {name: sha256_file(os.path.join(xdir, name)) for name in KEM_FRAMES}
        digests["key"] = sha256_file(os.path.join(sdir, "alice.key"))
        recorded = self.records.get("kem", {}).get(f"{self.setup_seed}/{session_seed}")
        check, mismatch = self._compare_recorded(recorded, digests)
        return self._finish(start, sdir, children, error or mismatch, check, digests,
                            traced), sdir


def _compare_keys(sdir: str, expected: bytes | None) -> str:
    """Both key files must exist, be byte-identical and match the reference."""
    keys = {}
    for role in ROLES:
        try:
            with open(os.path.join(sdir, f"{role}.key"), "rb") as fh:
                keys[role] = fh.read()
        except FileNotFoundError:
            return f"{role} wrote no key file"
    if keys["alice"] != keys["bob"]:
        return "alice and bob hold different keys"
    if expected is not None and keys["alice"] != expected:
        return "both parties hold the same key, but it differs from the reference"
    return ""
