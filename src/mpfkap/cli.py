"""Command-line surface: setup, handshake, kem, bench, vectors.

handshake drives an RmpfSession or an RdmpfSession through one path.
Exit codes: 0 on success; a failure exits with the code its error class
declares (mpfkap.errors), and an OSError no command mapped exits 2.
Test mode (--test-mode) enables deterministic seeding (from the
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

from .errors import MpfKapError, ParameterError, ProtocolError
from .kem import NONCE_BYTES, KemContext, auth_tag, kem_decapsulate, kem_encapsulate, kem_initiate
from .rdmpf import RdmpfSession
from .rmpf import RmpfSession
from .transport import DEFAULT_TIMEOUT, open_transport
from .wire import (
    ERROR_PAYLOAD_MAX,
    decode_token_list,
    encode_matrix,
    encode_token_list,
    generate_paramset,
    load_paramset,
    mirror_path,
    open_regular,
    paramset_files,
    payload_limits,
    replacing,
    save_paramset,
)

EXIT_OK = 0

SEED_ENV = "MPFKAP_SEED"
# the known-answer vectors' prime (known_answers.P); that module loads
# only for the vectors command
DEFAULT_P = 65537
# the longest --timeout in seconds; socket.settimeout refuses values of
# about 1e10 s and more, so tcp: needs a bound that file: does not
MAX_TIMEOUT = 10**6
# each protocol's party, its (first, second) --inject names, and its key
# file's bytes from the key the party derives; the lambda looks encode_matrix
# up when called, so perfbench's trace of cli.encode_matrix counts the rmpf key
PARTIES = {
    "rmpf": (RmpfSession, ("lambda", "omega"), lambda key: encode_matrix(key)),
    "rdmpf": (RdmpfSession, ("rand_l", "rand_r"), bytes),
}


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
        help="inject private values (test mode only), both names; rmpf: lambda=, omega=; "
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


@contextlib.contextmanager
def _writing_out(path: str, files):
    """Open files(--out), the temporary files, before the work they save; an OSError names --out.

    An --out that is a directory, names no file or is in no directory is
    refused first.
    """
    if os.path.isdir(path):
        raise ParameterError(f"--out {path} is a directory")
    folder, name = os.path.split(path)
    if not name:
        raise ParameterError(f"--out {path!r} names no file")
    if not os.path.isdir(folder or "."):
        raise ParameterError(f"--out {path}: no directory {folder or '.'}")
    try:
        with files(path) as opened:
            yield opened
    except OSError as exc:
        raise ParameterError(f"cannot write --out {path}: {exc.strerror}") from exc


@contextlib.contextmanager
def _reading(option: str, path: str):
    """Name option and path in an OSError raised while path is read, as _writing_out does."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot read {option} {path!r}: {exc.strerror}") from exc


def _cmd_setup(args) -> int:
    with _writing_out(args.out, paramset_files) as files:
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
        for warning in setup.params.floor_warnings():
            print(f"warning: {warning}", file=sys.stderr)
        save_paramset(ps, files)
    print(f"wrote {args.out} and {mirror_path(args.out)}")
    return EXIT_OK


def _parse_injections(args, protocol: str) -> list[tuple[int, int]] | None:
    """The injected private pairs, one per round: zipped lists of the protocol's two names."""
    if not args.inject:
        return None
    if not args.test_mode:
        raise ParameterError("--inject requires --test-mode")
    names = PARTIES[protocol][1]
    lists: dict = {}
    for item in args.inject:
        name, sep, value = item.partition("=")
        if not sep or name not in names:
            raise ParameterError(f"bad injection {item!r}; {protocol} accepts {', '.join(names)}")
        try:
            lists[name] = [int(v) for v in value.split(",")]
        except ValueError as exc:
            raise ParameterError(f"bad injection value in {item!r}") from exc
    firsts, seconds = (lists.get(name, ()) for name in names)
    if not firsts or len(firsts) != len(seconds):
        raise ParameterError(f"--inject needs {names[0]}= and {names[1]}= with as many values")
    return list(zip(firsts, seconds))


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

    The key replaces --out only when the run succeeds.  Callers check
    their own arguments first, so a bad value sends no frame; a
    ProtocolError sends the peer an error frame and propagates.
    """
    with _writing_out(args.out, replacing) as out:
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
    with _reading("--params", args.params):
        ps = load_paramset(args.params)
    setup = ps.build_setup()
    inject = _parse_injections(args, ps.protocol)
    rng = _session_rng(args, ps)
    party, _, key_file = PARTIES[ps.protocol]
    return _exchange(
        args, setup, "key",
        lambda transport: key_file(_handshake(party(setup, rng, inject), transport, args.role)),
    )


def _handshake(session, transport, role: str):
    """Exchange token lists (alice sends first); return the key session derives."""
    payload = encode_token_list(session.tokens)
    if role == "alice":
        transport.send("token-list", payload)
        peer_payload = transport.recv("token-list")
    else:
        peer_payload = transport.recv("token-list")
        transport.send("token-list", payload)
    return session.derive(decode_token_list(peer_payload, session.setup.params.p))


def _cmd_kem(args) -> int:
    with _reading("--params", args.params):
        ps = load_paramset(args.params)
    if ps.protocol != "rdmpf":
        raise ParameterError(f"--params {args.params!r}: the KEM runs over rdmpf parameter sets")
    setup = ps.build_setup()
    rng = _session_rng(args, ps)
    with _reading("--eta0", args.eta0), open_regular(args.eta0, ParameterError, "--eta0") as fh:
        eta0 = fh.read(NONCE_BYTES + 1)  # one byte more is enough to refuse a longer file
    # an identity is its argument's bytes, also when they are not UTF-8
    tags = (auth_tag(os.fsencode(identity)) for identity in (args.auth_a, args.auth_b))
    ctx = KemContext(eta0, *tags)

    def steps(transport) -> bytes:
        session = RdmpfSession(setup, rng)  # while the peer generates its own
        if args.role == "bob":
            transport.send("kem-close-b", kem_initiate(ctx, session))
            return kem_decapsulate(ctx, session, transport.recv("kem-encap-msg"))
        k, message = kem_encapsulate(ctx, session, transport.recv("kem-close-b"), rng)
        transport.send("kem-encap-msg", message)
        return k

    return _exchange(args, setup, "encapsulated key", steps)


def _report_error(transport, exc: Exception) -> None:
    try:
        transport.send("error", str(exc).encode()[:ERROR_PAYLOAD_MAX])
    except Exception:
        pass


def _cmd_bench(args) -> int:
    to_file = args.out is not None
    with _writing_out(args.out, replacing) if to_file else contextlib.nullcontext() as out:
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
        if to_file:
            out.write(csv_text.encode("utf-8"))
    print(summary)
    if to_file:
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
    return EXIT_OK if failures == 0 else ProtocolError.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MpfKapError as exc:
        failure = exc
    except OSError as exc:
        failure = ParameterError(exc)
    print(f"{failure.kind} error: {failure}", file=sys.stderr)
    return failure.exit_code


if __name__ == "__main__":
    sys.exit(main())
