"""Command-line surface: setup, handshake, kem, bench, vectors.

Exit codes: 0 success, 2 parameter error, 3 protocol error, 4 transport
error.  Test mode (--test-mode) enables deterministic seeding (from the
MPFKAP_SEED environment variable or the parameter file) and accepts
injected private values for transcript replays; production runs refuse
both.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys

from . import rmpf  # keygen, derive_key: looked up at each call, as perfbench's trace wraps them
from .errors import (
    ParameterError,
    ProtocolError,
    SerializationError,
    TransportError,
)
from .kem import (
    KEY_BYTES,
    NONCE_BYTES,
    KemContext,
    KemMessage,
    auth_tag,
    kem_decapsulate,
    kem_encapsulate,
    kem_initiate,
)
from .rdmpf import RdmpfSession, RdmpfSetup
from .transport import DEFAULT_TIMEOUT, open_transport
from .wire import (
    ERROR_PAYLOAD_MAX,
    decode_token_list,
    encode_matrix,
    encode_token_list,
    generate_paramset,
    load_paramset,
    payload_limits,
    save_paramset,
)

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_PROTOCOL = 3
EXIT_TRANSPORT = 4

SEED_ENV = "MPFKAP_SEED"
# the known-answer vectors' prime (known_answers.P); that module loads
# only for the vectors command
DEFAULT_P = 65537
# the longest --timeout in seconds; socket.settimeout refuses values of
# about 1e10 s and more, so tcp: needs a bound that file: does not
MAX_TIMEOUT = 10**6


def _timeout(text: str) -> float:
    """--timeout's type: a number of seconds above 0 and at most MAX_TIMEOUT."""
    seconds = float(text)  # argparse reports a ValueError as an invalid value
    if not seconds > 0:  # nan too
        raise argparse.ArgumentTypeError(f"needs a finite number of seconds > 0, got {text!r}")
    if seconds > MAX_TIMEOUT:
        raise argparse.ArgumentTypeError(
            f"needs at most {MAX_TIMEOUT} seconds, which both transports accept, got {text!r}"
        )
    return seconds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpfkap",
        description="Matrix-power-function key agreement protocols and KEM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_setup = sub.add_parser("setup", help="generate a shared parameter file")
    p_setup.add_argument("--protocol", choices=("rmpf", "rdmpf"), required=True)
    p_setup.add_argument("--p", type=int, default=DEFAULT_P, help="prime modulus")
    p_setup.add_argument("--rows", type=int, help="rmpf: matrix rows (must exceed cols)")
    p_setup.add_argument("--cols", type=int, help="rmpf: matrix cols")
    p_setup.add_argument("--dim", type=int, help="rdmpf: square dimension")
    p_setup.add_argument("--exp-max", type=int, default=10000, help="rdmpf: exponent ceiling")
    p_setup.add_argument("--rounds", type=int, default=1, help="rdmpf: session rounds")
    p_setup.add_argument("--sigma", type=int, default=1, help="rdmpf: shared session constant")
    p_setup.add_argument("--seed", type=int, help="embed a test-mode seed in the file")
    p_setup.add_argument("--out", required=True, help="output path (JSON; .bin mirror added)")
    p_setup.set_defaults(func=_cmd_setup)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--role", choices=("alice", "bob"), required=True)
    common.add_argument("--params", required=True, help="parameter file (JSON or binary)")
    common.add_argument(
        "--transport", required=True, help="file:DIR or tcp:HOST:PORT (bob listens)"
    )
    common.add_argument("--out", required=True, help="where to write the agreed key")
    common.add_argument("--timeout", type=_timeout, default=DEFAULT_TIMEOUT)
    common.add_argument(
        "--test-mode", action="store_true", help="deterministic seeding; handshake: allow --inject"
    )

    p_hs = sub.add_parser("handshake", parents=[common], help="run one key agreement")
    p_hs.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="inject private values (test mode only); rmpf: lambda=, omega=; "
        "rdmpf: rand_l=v1,v2,..., rand_r=v1,v2,...",
    )
    p_hs.set_defaults(func=_cmd_handshake)

    p_kem = sub.add_parser("kem", parents=[common], help="run the KEM over rdmpf")
    p_kem.add_argument("--eta0", required=True, help="64-byte shared root nonce file")
    p_kem.add_argument("--auth-a", required=True, help="initiating party identity (tag = SHA3-256)")
    p_kem.add_argument("--auth-b", required=True, help="responding party identity (tag = SHA3-256)")
    p_kem.set_defaults(func=_cmd_kem)

    p_bench = sub.add_parser("bench", help="parameter-sensitivity timings")
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument(
        "--point",
        action="append",
        metavar="DIM:P:EXPMAX",
        help="grid point, repeatable (default: the standard sensitivity grid)",
    )
    p_bench.add_argument("--out", help="write CSV here (default stdout)")
    p_bench.set_defaults(func=_cmd_bench)

    p_vec = sub.add_parser("vectors", help="replay every known-answer vector")
    p_vec.set_defaults(func=_cmd_vectors)

    return parser


def _refuse_directory(path: str) -> None:
    """Refuse an --out that names a directory, before any work is done for it."""
    if os.path.isdir(path):
        raise ParameterError(f"--out {path} is a directory")


def _cmd_setup(args) -> int:
    _refuse_directory(args.out)
    rng = random.Random(args.seed) if args.seed is not None else random.SystemRandom()
    ps, setup = generate_paramset(
        args.protocol,
        args.p,
        rng,
        rows=args.rows,
        cols=args.cols,
        dim=args.dim,
        exp_max=args.exp_max,
        rounds=args.rounds,
        sigma=args.sigma,
        seed=args.seed,
    )
    for warning in setup.floor_warnings():
        print(f"warning: {warning}", file=sys.stderr)
    json_path, bin_path = save_paramset(ps, args.out)
    print(f"wrote {json_path} and {bin_path}")
    return EXIT_OK


def _parse_injections(args, protocol: str) -> dict:
    if args.inject and not args.test_mode:
        raise ParameterError("--inject requires --test-mode")
    out: dict = {}
    allowed = {"rmpf": ("lambda", "omega"), "rdmpf": ("rand_l", "rand_r")}[protocol]
    for item in args.inject:
        name, sep, value = item.partition("=")
        if not sep or name not in allowed:
            raise ParameterError(
                f"bad injection {item!r}; {protocol} accepts {', '.join(allowed)}"
            )
        try:
            if protocol == "rmpf":
                out[name] = int(value)
            else:
                out[name] = [int(v) for v in value.split(",")]
        except ValueError as exc:
            raise ParameterError(f"bad injection value in {item!r}") from exc
    return out


def _session_rng(args, ps) -> random.Random:
    if not args.test_mode:
        return random.SystemRandom()
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ParameterError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    else:
        seed = ps.seed if ps.seed is not None else 0
    return random.Random(f"{seed}/{args.role}")


def _exchange(args, setup, what: str, steps) -> int:
    """Open --out, then the transport; run steps(transport) and write the key it returns.

    Callers check their own arguments first, so a bad value sends no
    frame; a ProtocolError sends the peer an error frame and propagates.
    """
    with _key_file(args.out) as out:
        transport = open_transport(args.transport, args.role, payload_limits(setup), args.timeout)
        try:
            key = steps(transport)
        except ProtocolError as exc:
            _report_error(transport, exc)
            raise
        finally:
            transport.close()
        out.write(key)
    print(f"wrote {len(key)}-byte {what} to {args.out}")
    return EXIT_OK


def _cmd_handshake(args) -> int:
    ps = load_paramset(args.params)
    setup = ps.build_setup()
    inject = _parse_injections(args, ps.protocol)
    rng = _session_rng(args, ps)
    return _exchange(
        args, setup, "key", lambda transport: _handshake(setup, rng, transport, args.role, inject)
    )


def _handshake(
    setup: rmpf.RmpfSetup | RdmpfSetup, rng, transport, role: str, inject: dict
) -> bytes:
    """Exchange one token list (alice sends first) and return the key bytes."""
    if isinstance(setup, rmpf.RmpfSetup):
        priv, token = rmpf.keygen(setup, rng, inject.get("lambda"), inject.get("omega"))
        tokens = [token]
    else:
        injected = None
        if inject:
            ls, rs = inject.get("rand_l"), inject.get("rand_r")
            if ls is None or rs is None or len(ls) != len(rs):
                raise ParameterError("rdmpf injection needs matching rand_l and rand_r lists")
            injected = list(zip(ls, rs))
        session = RdmpfSession(setup, rng, injected)
        tokens = session.tokens
    payload = encode_token_list(tokens)
    if role == "alice":
        transport.send("token-list", payload)
        peer_payload = transport.recv("token-list")
    else:
        peer_payload = transport.recv("token-list")
        transport.send("token-list", payload)
    peer_mats = decode_token_list(peer_payload, setup.params.p)
    if len(peer_mats) != len(tokens):
        raise ProtocolError(
            f"peer sent {len(peer_mats)} token matrices, expected {len(tokens)}"
        )
    if isinstance(setup, rmpf.RmpfSetup):
        return encode_matrix(rmpf.derive_key(priv, peer_mats[0], setup))
    return session.derive(peer_mats)


def _cmd_kem(args) -> int:
    ps = load_paramset(args.params)
    if ps.protocol != "rdmpf":
        raise ParameterError("the KEM runs over rdmpf parameter sets")
    setup = ps.build_setup()
    rng = _session_rng(args, ps)
    with open(args.eta0, "rb") as fh:
        eta0 = fh.read()
    ctx = KemContext(eta0, auth_tag(args.auth_a), auth_tag(args.auth_b))

    def steps(transport) -> bytes:
        session = RdmpfSession(setup, rng)  # while the peer generates its own
        if args.role == "bob":
            transport.send("kem-close-b", kem_initiate(ctx, session))
            payload = transport.recv("kem-encap-msg")
            return kem_decapsulate(ctx, session, _parse_encap_payload(payload))
        k, msg = kem_encapsulate(ctx, session, transport.recv("kem-close-b"), rng)
        transport.send("kem-encap-msg", msg.encap + msg.eta_m + msg.close_a)
        return k

    return _exchange(args, setup, "encapsulated key", steps)


def _parse_encap_payload(payload: bytes) -> KemMessage:
    if len(payload) < KEY_BYTES + NONCE_BYTES:
        raise ProtocolError(f"encapsulation message truncated at {len(payload)} bytes")
    return KemMessage(
        encap=payload[:KEY_BYTES],
        eta_m=payload[KEY_BYTES : KEY_BYTES + NONCE_BYTES],
        close_a=payload[KEY_BYTES + NONCE_BYTES :],
    )


@contextlib.contextmanager
def _key_file(path: str):
    """The key output, opened before the exchange so that a bad --out sends no frame.

    The key goes to <path>.tmp and replaces path only when the run
    succeeds; a failed run removes the temporary file and leaves path
    as it was.
    """
    _refuse_directory(path)
    tmp = path + ".tmp"
    try:
        fh = open(tmp, "wb")
    except OSError as exc:
        raise ParameterError(f"cannot write the key to {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _report_error(transport, exc: Exception) -> None:
    try:
        transport.send("error", str(exc).encode()[:ERROR_PAYLOAD_MAX])
    except Exception:
        pass


def _cmd_bench(args) -> int:
    from . import bench as bench_mod  # only this command pays for its imports
    if args.point:
        points = []
        for spec in args.point:
            try:
                dim, p, exp_max = (int(v) for v in spec.split(":"))
            except ValueError as exc:
                raise ParameterError(f"bad grid point {spec!r}, need DIM:P:EXPMAX") from exc
            points.append((dim, p, exp_max))
    else:
        points = list(bench_mod.TABLE_GRID)
    records = bench_mod.bench_rdmpf(points, trials=args.trials)
    baseline = bench_mod.BASELINE_POINT if bench_mod.BASELINE_POINT in points else None
    csv_text, summary = bench_mod.bench_report(records, baseline)
    print(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote {args.out}")
    else:
        print(csv_text, end="")
    return EXIT_OK


def _cmd_vectors(args) -> int:
    from . import known_answers  # only this command pays for its import
    results = known_answers.check_all()
    width = max(len(label) for label, _ in results)
    failures = 0
    for label, ok in results:
        print(f"{label:<{width}}  {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} vectors passed")
    return EXIT_OK if failures == 0 else EXIT_PROTOCOL


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, SerializationError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except OSError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
