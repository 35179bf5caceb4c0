"""The exit-code contract, swept over every subcommand's options.

Each case changes one option of a command that would otherwise run, and
checks that the failure:

- exits with the code its error class declares (2, 3 or 4, never 1);
  argparse's own refusals exit 2, as ParameterError does;
- prints no traceback, and one line (after argparse's usage text) that
  names the option or the path given;
- leaves no key, frame or temporary file behind.

Cases run in process through cli.main, except the ones that could hang
or exhaust memory if they regressed: a pipe where a file belongs, and a
set whose frames outgrow the 4-byte length field.  Those run one at a
time in a child process with a hard timeout and a cap on its address
space.
"""

import errno
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import save_params, write_known_rmpf_params
from mpfkap import cli, wire
from mpfkap.errors import ParameterError, ProtocolError, TransportError
from mpfkap.wire import generate_paramset

BIG = "1" + "0" * 400  # 10^400: an int argparse accepts, and no field holds
NUMBERS = ("", "0", "-1", BIG, "nan", "inf", "text")
ARGPARSE = None  # argparse refuses the value: exit 2, its usage text, then one line

# each command as it would run, with {s} the shared files and {d} the case's directory
COMMANDS = {
    "setup": ["setup", "--protocol", "rdmpf", "--dim", "2", "--seed", "1",
              "--out", "{d}/p.json"],
    "setup-rmpf": ["setup", "--protocol", "rmpf", "--rows", "3", "--cols", "2", "--seed", "1",
                   "--out", "{d}/p.json"],
    "handshake": ["handshake", "--role", "alice", "--params", "{s}/rmpf.json",
                  "--transport", "file:{d}/xch", "--out", "{d}/k", "--timeout", "0.05",
                  "--test-mode"],
    "kem": ["kem", "--role", "alice", "--params", "{s}/rdmpf.json", "--eta0", "{s}/eta0",
            "--auth-a", "a", "--auth-b", "b", "--transport", "file:{d}/xch", "--out", "{d}/k",
            "--timeout", "0.05"],
    "bench": ["bench", "--point", "2:7:10", "--out", "{d}/b.csv"],
}
TWO_PARTY = ("handshake", "kem")
ALL_OUT = ("setup", "handshake", "kem", "bench")


def case(command, option, value, error, named=None):
    """One row: command with option set to value fails with error, in a line naming named.

    named defaults to the value for a path and to the option otherwise;
    a scalar option is also named by its field name (--exp-max, exp_max).
    """
    if named is None:
        named = value if "/" in value else option
    return pytest.param(command, option, value, error, named,
                        id=f"{command}{option}={value.replace(BIG, '10^400')!r}")


def argv_for(command, changes, shared, work):
    argv = list(COMMANDS[command])
    for option, value in changes:
        if option in argv:
            argv[argv.index(option) + 1] = value
        else:
            argv += [option, value]
    return [a.replace("{s}", str(shared)).replace("{d}", str(work)) for a in argv]


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """Good and damaged inputs, read by every case and written by none."""
    s = tmp_path_factory.mktemp("shared")
    write_known_rmpf_params(s / "rmpf.json")
    ps, _ = generate_paramset("rdmpf", 65537, random.Random(1), dim=2, exp_max=100, rounds=1)
    save_params(ps, str(s / "rdmpf.json"))
    (s / "eta0").write_bytes(bytes(64))
    (s / "eta0-short").write_bytes(bytes(63))
    (s / "adir").mkdir()
    (s / "afile").write_bytes(b"x")
    frame, text = (s / "rdmpf.bin").read_bytes(), (s / "rdmpf.json").read_text()
    (s / "truncated.bin").write_bytes(frame[:-5])
    (s / "long.bin").write_bytes(frame + bytes(5))
    (s / "truncated.json").write_text(text[:-5])
    (s / "non-utf8.json").write_bytes(b"\xff\xfe" + text.encode())
    (s / "nested.json").write_text("[" * 100_000)
    (s / "empty.json").write_bytes(b"")
    for name, dim in (("dim-past-frame.json", 2**32 - 1), ("dim-past-field.json", 2**32)):
        doc = json.loads(text)
        doc["dim"] = dim
        (s / name).write_text(json.dumps(doc))
    return s


def listing(path):
    return sorted(os.path.relpath(os.path.join(root, name), path)
                  for root, dirs, files in os.walk(path) for name in dirs + files)


def check_failure(code, err, error, named, option):
    declared = ParameterError if error is ARGPARSE else error
    assert code == declared.exit_code, err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if not line.startswith(("usage: ", " "))]
    assert len(lines) == 1, err
    if error is ARGPARSE:
        assert f": error: argument {option}: " in lines[0]
    else:
        assert lines[0].startswith(f"{error.kind} error: ")
    names = {named, named.lstrip("-").replace("-", "_")}
    assert any(n in lines[0] for n in names), (names, lines[0])


CASES = [
    # every number-typed option, at the values no run can use
    *(case("setup", option, value,
           ARGPARSE if value in ("", "nan", "inf", "text") else ParameterError)
      for option in ("--p", "--dim", "--exp-max", "--rounds", "--sigma", "--seed")
      for value in NUMBERS if (option, value) != ("--seed", "0")),
    *(case("setup-rmpf", option, value,
           ARGPARSE if value in ("", "nan", "inf", "text") else ParameterError)
      for option in ("--rows", "--cols") for value in NUMBERS),
    *(case(command, "--timeout", value, ARGPARSE)
      for command in TWO_PARTY for value in NUMBERS),
    *(case("bench", "--trials", value,
           ARGPARSE if value in ("", "nan", "inf", "text") else ParameterError)
      for value in NUMBERS),
    *(case("bench", "--point", value, ParameterError, named="grid point")
      for value in (*NUMBERS, "2:7", "2:7:10:1", "1:7:10", "2:4:10", "2:2:10", "2:7:1",
                    f"{BIG}:7:10", f"2:7:{BIG}", f"2:{2**64 - 59}:{2**64}")),
    case("setup", "--protocol", "", ARGPARSE),
    # each frame field at its limit, where no set is valid, and one past it
    case("setup", "--p", str(2**64 - 1), ParameterError),
    *(case("setup", option, str(2**64), ParameterError)
      for option in ("--p", "--exp-max", "--sigma", "--seed")),
    *(case("setup", option, str(2**32), ParameterError) for option in ("--dim", "--rounds")),
    *(case("setup-rmpf", option, str(2**32), ParameterError) for option in ("--rows", "--cols")),
    # the two-party commands' own options
    *(case(command, "--role", value, ARGPARSE)
      for command in TWO_PARTY for value in ("", "carol")),
    *(case("handshake", "--inject", value, ParameterError, named=repr(value))
      for value in ("", "lambda", "lambda=", "lambda=x", "omega=nan", "rand_l=1", "nope=1")),
    case("kem", "--params", "{s}/rmpf.json", ParameterError, named="rdmpf parameter sets"),
    *(case(command, "--transport", value, TransportError,
           named=(value[len("file:"):] if value.startswith("file:") else value) or "''")
      for command in TWO_PARTY
      for value in ("", "udp:x", "file:", "file:{s}/missing", "file:{s}/missing/x",
                    "file:{s}/afile", "tcp:", "tcp:127.0.0.1", "tcp::5", "tcp:127.0.0.1:0",
                    "tcp:127.0.0.1:-1", "tcp:127.0.0.1:65536", f"tcp:127.0.0.1:{BIG}",
                    "tcp:127.0.0.1:x")),
    # files: empty, missing, in a missing directory, a directory, damaged
    *(case(command, "--params", value, ParameterError, named=value or "''")
      for command in TWO_PARTY
      for value in ("", "{s}/missing", "{s}/missing/p.json", "{s}/adir", "{s}/afile/p.json",
                    "{s}/truncated.bin", "{s}/long.bin", "{s}/truncated.json",
                    "{s}/non-utf8.json", "{s}/nested.json", "{s}/empty.json",
                    "{s}/dim-past-frame.json", "{s}/dim-past-field.json")),
    *(case("kem", "--eta0", value, ParameterError, named=value or "''")
      for value in ("", "{s}/missing", "{s}/missing/eta0", "{s}/adir")),
    *(case("kem", "--eta0", value, ParameterError, named="--eta0")
      for value in ("{s}/eta0-short", "{s}/afile")),
    *(case(command, "--out", value, ParameterError, named=value or "''")
      for command in ALL_OUT
      for value in ("", "{s}/adir", "{d}/", "{s}/missing/k", "{s}/afile/k")),
]


@pytest.mark.parametrize("command, option, value, error, named", CASES)
def test_failure_in_process(shared, tmp_path, capsys, command, option, value, error, named):
    (tmp_path / "xch").mkdir()
    argv = argv_for(command, [(option, value)], shared, tmp_path)
    named = named.replace("{s}", str(shared)).replace("{d}", str(tmp_path))
    before = listing(shared)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    check_failure(code, capsys.readouterr().err, error, named, option)
    assert listing(tmp_path) == ["xch"]
    assert listing(shared) == before


@pytest.mark.parametrize("command", ALL_OUT)
def test_read_only_out(shared, tmp_path, capsys, monkeypatch, command):
    # as on a read-only file system: the temporary file cannot be created
    def read_only(path, mode="r", *args, **kwargs):
        if "w" in mode:
            raise OSError(errno.EROFS, os.strerror(errno.EROFS), path)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(wire, "open", read_only, raising=False)
    (tmp_path / "xch").mkdir()
    out = str(tmp_path / "k")
    code = cli.main(argv_for(command, [("--out", out)], shared, tmp_path))
    check_failure(code, capsys.readouterr().err, ParameterError, out, "--out")
    assert listing(tmp_path) == ["xch"]


@pytest.mark.parametrize("command, option, value", [
    ("handshake", "--params", "{s}/missing"), ("kem", "--params", "{s}/missing/p.json"),
    ("kem", "--params", "{s}/rmpf.json"), ("kem", "--eta0", "{s}/missing"),
    ("kem", "--eta0", "{s}/afile/eta0")])
def test_unreadable_file_names_its_option_and_path(shared, tmp_path, capsys, command, option,
                                                   value):
    (tmp_path / "xch").mkdir()
    code = cli.main(argv_for(command, [(option, value)], shared, tmp_path))
    err = capsys.readouterr().err
    path = value.replace("{s}", str(shared))
    check_failure(code, err, ParameterError, path, option)
    assert f"{option} {path!r}" in err
    assert listing(tmp_path) == ["xch"]


def inject_argv(shared, work, *items):
    """The handshake on the known rmpf set, with one --inject per item."""
    return argv_for("handshake", [], shared, work) + [a for item in items for a in ("--inject", item)]


@pytest.mark.parametrize("lam, omega", [(0, 5), (5, 0), (5, 65536), (65536, 5)])
def test_injected_scalar_outside_1_to_p_minus_2_sends_nothing(shared, tmp_path, capsys, lam,
                                                              omega):
    # 0 or p-1 makes a private matrix zero: its token would carry no secret
    (tmp_path / "xch").mkdir()
    code = cli.main(inject_argv(shared, tmp_path, f"lambda={lam}", f"omega={omega}"))
    err = capsys.readouterr().err
    check_failure(code, err, ParameterError, "lambda", "--inject")
    assert "lambda and omega must lie in [1, p-2]" in err
    assert listing(tmp_path) == ["xch"]


@pytest.mark.parametrize("items", [("lambda=5",), ("omega=5",), ("lambda=5,6", "omega=7")])
def test_rmpf_injection_needs_both_names(shared, tmp_path, capsys, items):
    (tmp_path / "xch").mkdir()
    code = cli.main(inject_argv(shared, tmp_path, *items))
    err = capsys.readouterr().err
    check_failure(code, err, ParameterError, "--inject", "--inject")
    assert "lambda=" in err and "omega=" in err
    assert listing(tmp_path) == ["xch"]


def test_identity_that_is_not_utf8_is_its_bytes(shared, tmp_path, capsys, monkeypatch):
    # a non-UTF-8 argument reaches Python as a lone surrogate; its tag is
    # taken over the argument's bytes, so the run goes on to the transport
    tagged = []
    monkeypatch.setattr(cli, "auth_tag", lambda identity: tagged.append(identity) or bytes(32))
    argv = argv_for("kem", [("--auth-a", "\udcff"), ("--transport", "file:{d}/missing")],
                    shared, tmp_path)
    assert cli.main(argv) == TransportError.exit_code
    assert "missing' does not exist" in capsys.readouterr().err
    assert tagged == [b"\xff", b"b"]


@pytest.mark.parametrize("option, value", [
    ("--p", str(2**64 - 59)), ("--exp-max", str(2**64 - 1)), ("--sigma", str(2**64 - 1)),
    ("--seed", str(2**64 - 1)), ("--seed", "0")])
def test_scalar_at_its_field_limit_is_accepted(shared, tmp_path, option, value):
    assert cli.main(argv_for("setup", [(option, value)], shared, tmp_path)) == 0
    assert listing(tmp_path) == ["p.bin", "p.json"]


# a child process: an address-space cap, then the installed entry point
CHILD = ("import resource, sys; cap = 512 << 20; "
         "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
         "from mpfkap.__main__ import run; run()")


def run_child(argv):
    """Run the CLI in a capped child; a hang or a memory blowup fails the case."""
    r = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                       timeout=10)
    return r.returncode, r.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command, option", [
    ("handshake", "--params"), ("kem", "--params"), ("kem", "--eta0")])
def test_pipe_where_a_file_belongs(shared, tmp_path, command, option):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    (tmp_path / "xch").mkdir()
    code, err = run_child(argv_for(command, [(option, str(fifo))], shared, tmp_path))
    check_failure(code, err, ParameterError, str(fifo), option)
    assert listing(tmp_path) == ["pipe", "xch"]


# each field's limit, and one past the largest shape whose frames fit in
# 2^32 - 1 bytes: 3 * (8 + 8·dim²) + 42 for a seeded rdmpf setup frame
# (dim 13377), 4 + rounds * (8 + 8·dim²) for a dim-2 token list (rounds
# 107374182), 3 * (8 + 8·rows·cols) + 26 for a seeded rmpf setup frame
# (rows·cols 178956968)
@pytest.mark.parametrize("command, changes", [
    ("setup", (("--dim", str(2**32 - 1)),)),
    ("setup", (("--dim", "13378"),)),
    ("setup", (("--rounds", str(2**32 - 1)),)),
    ("setup", (("--rounds", "107374183"),)),
    ("setup-rmpf", (("--rows", str(2**32 - 1)), ("--cols", "1"))),
    ("setup-rmpf", (("--rows", "178956969"), ("--cols", "1"))),
    ("setup-rmpf", (("--rows", "2"), ("--cols", str(2**32 - 1)))),
])
def test_set_too_large_for_its_frames_refused_before_sampling(shared, tmp_path, command,
                                                               changes):
    code, err = run_child(argv_for(command, changes, shared, tmp_path))
    check_failure(code, err, ParameterError, changes[-1][0], changes[-1][0])
    assert listing(tmp_path) == []


def test_rounds_at_the_token_list_limit_accepted(shared, tmp_path):
    code, err = run_child(argv_for("setup", (("--rounds", "107374182"),), shared, tmp_path))
    assert code == 0, err
    assert listing(tmp_path) == ["p.bin", "p.json"]


def test_a_failed_vectors_run_exits_with_protocol_errors_code(monkeypatch, capsys):
    from mpfkap import known_answers

    monkeypatch.setattr(known_answers, "check_all", lambda: [("one", True), ("two", False)])
    assert cli.main(["vectors"]) == ProtocolError.exit_code == 3
    assert "1/2 vectors passed" in capsys.readouterr().out
