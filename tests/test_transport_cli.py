import hashlib
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time

import pytest

from conftest import run_cli, spawn_cli, wait_cli, write_known_rmpf_params
from mpfkap import FrameError, Matrix, ProtocolError, TransportError
from mpfkap import known_answers as ka
from mpfkap.transport import POLL_INTERVAL, FileTransport, TcpTransport, open_transport
from mpfkap import cli, rdmpf
from mpfkap.wire import (
    ERROR_PAYLOAD_MAX,
    FRAME_KINDS,
    MAGIC,
    VERSION,
    ParamSet,
    encode_frame,
    encode_matrix,
    generate_paramset,
    load_paramset,
    payload_limits,
    save_paramset,
)

# the known 5x3 rmpf setup: one token list of 4 + 8 + 15*8 = 132 bytes
LIMITS = payload_limits(ka.rmpf_setup())


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestTransportParsing:
    def test_unknown_scheme(self):
        with pytest.raises(TransportError):
            open_transport("carrier-pigeon:coop", "alice", LIMITS)

    def test_bad_tcp_spec(self):
        with pytest.raises(TransportError):
            open_transport("tcp:no-port-here", "alice", LIMITS)
        with pytest.raises(TransportError):
            open_transport("tcp:host:not-a-number", "alice", LIMITS)

    def test_missing_directory(self):
        with pytest.raises(TransportError):
            open_transport("file:/definitely/not/a/dir", "alice", LIMITS)


class TestTcpFraming:
    @staticmethod
    def bob_and_peer():
        bob = TcpTransport("127.0.0.1", 0, "bob", LIMITS, timeout=10)
        peer = socket.create_connection(bob._listener.getsockname(), timeout=10)
        peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return bob, peer

    def test_frame_in_one_byte_chunks(self):
        payload = encode_matrix(Matrix.from_rows([[1, 2], [3, 4]], 7))
        frame = encode_frame("token-list", payload)
        bob, peer = self.bob_and_peer()

        def drip():
            for i in range(len(frame)):
                peer.sendall(frame[i : i + 1])
                time.sleep(0.002)

        sender = threading.Thread(target=drip)
        sender.start()
        try:
            assert bob.recv("token-list") == payload
        finally:
            sender.join(10)
            peer.close()
            bob.close()
        assert not sender.is_alive()

    def test_oversized_length_refused_before_buffering(self):
        # a bare header claiming 2^32-1 payload bytes: refused on the
        # length field alone, with nothing read or allocated past it
        bob, peer = self.bob_and_peer()
        try:
            assert LIMITS["token-list"] == 132
            for kind in ("token-list", "error"):
                header = MAGIC + bytes([VERSION, FRAME_KINDS[kind]]) + b"\xff\xff\xff\xff"
                peer.sendall(header)
                with pytest.raises(ProtocolError, match="claims 4294967295 payload bytes"):
                    bob.recv("token-list")
            # one byte over the limit is refused too, a setup frame always
            peer.sendall(encode_frame("token-list", bytes(133))[:10])
            with pytest.raises(ProtocolError, match="at most 132"):
                bob.recv("token-list")
            peer.sendall(encode_frame("setup", b"")[:10])
            with pytest.raises(ProtocolError, match="never sends a setup frame"):
                bob.recv("token-list")
        finally:
            peer.close()
            bob.close()

    def test_peer_closes_mid_payload(self):
        frame = encode_frame("token-list", bytes(40))
        bob, peer = self.bob_and_peer()
        try:
            peer.sendall(frame[:25])
            peer.close()
            with pytest.raises(TransportError, match="closed mid-frame"):
                bob.recv("token-list")
        finally:
            bob.close()


class TestFileFrames:
    def test_oversized_frame_file_refused(self, tmp_path):
        bob = FileTransport(str(tmp_path), "bob", LIMITS, timeout=1)
        frame = tmp_path / "alice.token-list.frame"
        frame.write_bytes(encode_frame("token-list", bytes(133)))
        with pytest.raises(ProtocolError, match="claims 133 payload bytes.*at most 132"):
            bob.recv("token-list")
        frame.write_bytes(encode_frame("token-list", bytes(132)))
        assert bob.recv("token-list") == bytes(132)
        # a file longer than its length field says
        frame.write_bytes(encode_frame("token-list", bytes(132)) + bytes(1000))
        with pytest.raises(ProtocolError, match="says 132 payload bytes, frame carries 133"):
            bob.recv("token-list")
        frame.unlink()
        (tmp_path / "alice.error.frame").write_bytes(encode_frame("error", bytes(1025)))
        with pytest.raises(ProtocolError, match="at most 1024"):
            bob.recv("token-list")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_frame_file_refused(self, tmp_path):
        bob = FileTransport(str(tmp_path), "bob", LIMITS, timeout=1)
        os.symlink("/dev/zero", tmp_path / "alice.token-list.frame")
        with pytest.raises(ProtocolError, match="is not a regular file"):
            bob.recv("token-list")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_frame_pipe_read_no_further_than_its_length(self, tmp_path):
        # a legal header, then bytes without end: bob refuses the pipe
        # without reading it; the writer gives up after 16 MiB so a reader
        # that buffers to EOF fails, not hangs
        bob = FileTransport(str(tmp_path), "bob", LIMITS, timeout=1)
        fifo = tmp_path / "alice.token-list.frame"
        os.mkfifo(fifo)
        written = []

        def writer():
            with open(fifo, "wb", buffering=0) as fh:
                try:
                    fh.write(encode_frame("token-list", bytes(132)))
                    for _ in range(256):
                        written.append(fh.write(bytes(1 << 16)))
                except BrokenPipeError:
                    pass

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        try:
            with pytest.raises(ProtocolError, match="is not a regular file"):
                bob.recv("token-list")
        finally:
            # bob may have come and gone before the writer opened its end
            release_fifo(t, fifo, os.O_RDONLY)
        assert not t.is_alive()
        assert sum(written) < 1 << 24

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_without_writer_refused_at_once(self, tmp_path):
        # a blocking open of a pipe's read end waits for a writer, past
        # any timeout; recv runs on a thread so a regression fails here
        bob = FileTransport(str(tmp_path), "bob", LIMITS, timeout=1)
        fifo = tmp_path / "alice.token-list.frame"
        os.mkfifo(fifo)
        raised = []

        def receive():
            try:
                bob.recv("token-list")
            except Exception as exc:
                raised.append(exc)

        t = threading.Thread(target=receive, daemon=True)
        t.start()
        t.join(10)
        blocked = t.is_alive()
        release_fifo(t, fifo, os.O_WRONLY)
        assert not blocked and not t.is_alive()
        assert isinstance(raised[0], FrameError)
        assert f"peer frame {fifo} is not a regular file" in str(raised[0])

    def test_directory_as_peer_frame_exits_3(self, tmp_path):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        xch = tmp_path / "xch"
        xch.mkdir()
        (xch / "alice.token-list.frame").mkdir()
        r = run_cli(["handshake", "--role", "bob", "--params", params,
                     "--transport", f"file:{xch}", "--out", str(tmp_path / "k"),
                     "--test-mode", "--timeout", "5"], timeout=30)
        assert r.returncode == 3, r.stderr
        assert f"peer frame {xch / 'alice.token-list.frame'} is not a regular file" in r.stderr
        assert not (tmp_path / "k").exists()

    def test_own_frame_from_an_earlier_session_refused(self, tmp_path):
        # the peer would read this frame as the new session's; a peer's
        # frame, a half-written frame of our own and other files do not count
        for name in ("bob.token-list.frame", "alice.token-list.frame.tmp", "notes.txt"):
            (tmp_path / name).write_bytes(b"")
        FileTransport(str(tmp_path), "alice", LIMITS)
        (tmp_path / "alice.error.frame").write_bytes(b"")
        with pytest.raises(TransportError, match=f"{tmp_path / 'alice.error.frame'} is left"
                                                 " from an earlier session"):
            FileTransport(str(tmp_path), "alice", LIMITS)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "alice.error.frame", "alice.token-list.frame.tmp", "bob.token-list.frame",
            "notes.txt"]

    def test_removed_exchange_directory_is_a_transport_error(self, tmp_path):
        xch = tmp_path / "xch"
        xch.mkdir()
        alice = FileTransport(str(xch), "alice", LIMITS, timeout=0.1)
        shutil.rmtree(xch)
        with pytest.raises(TransportError, match="cannot write .*alice.token-list.frame"):
            alice.send("token-list", b"")
        with pytest.raises(TransportError, match="timed out"):
            alice.recv("token-list")


# a poll sleeps 1 ms, then twice as long each time, up to POLL_INTERVAL
SCHEDULE = [0.001, 0.002, 0.004]


@pytest.fixture
def sleeps(monkeypatch):
    """Every time.sleep the transport makes, each still slept."""
    slept = []
    real = time.sleep

    def spy(seconds):
        slept.append(seconds)
        real(seconds)

    monkeypatch.setattr("mpfkap.transport.time.sleep", spy)
    return slept


def assert_schedule(slept):
    assert POLL_INTERVAL == SCHEDULE[-1]
    assert slept[: len(SCHEDULE)] == SCHEDULE[: len(slept)]
    assert all(s == POLL_INTERVAL for s in slept[len(SCHEDULE) :])


class TestPollSchedule:
    def test_file_recv_backs_off_to_the_poll_interval(self, tmp_path, sleeps):
        bob = FileTransport(str(tmp_path), "bob", LIMITS, timeout=0.5)
        with pytest.raises(TransportError, match="timed out waiting for"):
            bob.recv("token-list")
        # 0.003 s of doubling, then 4 ms steps to the deadline
        assert len(sleeps) > len(SCHEDULE)
        assert_schedule(sleeps)

    def test_file_deadline_exits_4(self, tmp_path, sleeps):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        code = cli.main([
            "handshake", "--role", "bob", "--params", params,
            "--transport", f"file:{tmp_path}", "--out", str(tmp_path / "k"),
            "--test-mode", "--timeout", "0.2",
        ])
        assert code == cli.EXIT_TRANSPORT == 4
        assert len(sleeps) >= len(SCHEDULE)
        assert_schedule(sleeps)

    def test_alice_connect_retry_backs_off(self, sleeps):
        with pytest.raises(TransportError, match="cannot connect"):
            TcpTransport("127.0.0.1", free_port(), "alice", LIMITS, timeout=0.5)
        assert len(sleeps) > len(SCHEDULE)
        assert_schedule(sleeps)

    def test_frame_written_during_the_first_polls_is_returned(self, tmp_path, sleeps):
        alice = FileTransport(str(tmp_path), "alice", LIMITS, timeout=10)
        bob = FileTransport(str(tmp_path), "bob", LIMITS, timeout=10)
        # a Timer waits on a condition, not time.sleep, so only bob's sleeps are seen
        writer = threading.Timer(0.005, alice.send, ("token-list", b"early"))
        writer.start()
        try:
            assert bob.recv("token-list") == b"early"
        finally:
            writer.join(10)
        assert not writer.is_alive()
        assert sum(sleeps) < 1
        assert_schedule(sleeps)


def release_fifo(thread, fifo, other_end):
    """Open and close fifo's other end until thread, stuck opening it, goes.

    other_end is os.O_RDONLY or os.O_WRONLY; this bounds a failing test
    instead of leaving a thread blocked in open().
    """
    deadline = time.monotonic() + 10
    while thread.is_alive() and time.monotonic() < deadline:
        try:
            os.close(os.open(fifo, other_end | os.O_NONBLOCK))
        except OSError:  # a non-blocking writer needs a reader
            pass
        thread.join(0.05)


class TestErrorReport:
    def test_long_message_cut_to_the_error_limit(self):
        # a peer refuses error frames over ERROR_PAYLOAD_MAX, so our own
        # reports must fit it
        sent = []

        class Recorder:
            def send(self, kind, payload):
                sent.append((kind, payload))

        cli._report_error(Recorder(), ProtocolError("x" * 5000))
        assert sent == [("error", b"x" * ERROR_PAYLOAD_MAX)]
        assert LIMITS["error"] == ERROR_PAYLOAD_MAX


class TestSetupCommand:
    def test_seeded_setup_reproducible(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["setup", "--protocol", "rmpf", "--p", "65537", "--rows", "5",
                "--cols", "3", "--seed", "123"]
        r1 = run_cli(args + ["--out", str(out1)])
        r2 = run_cli(args + ["--out", str(out2)])
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_rows_must_exceed_cols(self, tmp_path):
        r = run_cli(["setup", "--protocol", "rmpf", "--rows", "3", "--cols", "3",
                     "--out", str(tmp_path / "p.json")])
        assert r.returncode == 2

    def test_floor_warning_emitted(self, tmp_path):
        r = run_cli(["setup", "--protocol", "rdmpf", "--dim", "5", "--p", "65537",
                     "--rounds", "1", "--out", str(tmp_path / "p.json")])
        assert r.returncode == 0
        assert "order of 100" in r.stderr
        assert "2^64" in r.stderr

    def test_setup_bytes_pinned(self, tmp_path):
        # SHA-256 of both output files for fixed seeds: setup sampling and
        # both parameter-file formats must not drift, at a 17-bit prime
        # and at the 64-bit wire floor
        pinned = {
            "rmpf": (["--protocol", "rmpf", "--p", "65537",
                      "--rows", "5", "--cols", "3", "--seed", "123"],
                     "bd4ae03409fc51c50f4a1bb6ca56e55144fd0df020c3efdaaf793875231bab6d",
                     "c704accbb9fbb9f891fc230d86ef96e32f5cc1e1c0cf175de4681c03611ffdce"),
            "rdmpf": (["--protocol", "rdmpf", "--p", "65537",
                       "--dim", "3", "--rounds", "2", "--seed", "4"],
                      "35b4bb3975a650e82bbb2e115b49b40cb2df18141e347fd6914065f65f8ad8a9",
                      "a6593a8dfc2b3803be2c28e5b25be5f187c55e199f8b212cc2d8ce66e4fc5fa2"),
            "rdmpf-floor-prime": (["--protocol", "rdmpf", "--p", str(2**64 - 59),
                                   "--dim", "24", "--rounds", "2", "--seed", "7"],
                                  "499b773ec7c6f4c5e04cb237c34f2d0806fc6c3475e1a1e950ff0c6e068f2c00",
                                  "aa22b2d0fdcf2509f15a3eab33c3e83d54477f4b4eba7da22bb01b29f4dae5bd"),
        }
        for name, (args, json_sha, bin_sha) in pinned.items():
            out = tmp_path / f"{name}.json"
            r = run_cli(["setup", *args, "--out", str(out)])
            assert r.returncode == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha
            bin_bytes = (tmp_path / f"{name}.bin").read_bytes()
            assert hashlib.sha256(bin_bytes).hexdigest() == bin_sha

    def test_prime_beyond_the_word_writes_nothing(self, tmp_path):
        # 2^64+13 is prime but does not fit the setup frame's 8-byte field
        r = run_cli(["setup", "--protocol", "rdmpf", "--p", str(2**64 + 13),
                     "--dim", "3", "--rounds", "1", "--seed", "1",
                     "--out", str(tmp_path / "big.json")])
        assert r.returncode == 2
        assert f"p={2**64 + 13} does not fit the setup frame's 8-byte field" in r.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sigma", ("0", "65536"))
    def test_sigma_multiple_of_p_minus_1_writes_nothing(self, tmp_path, sigma):
        # such a sigma makes every token all ones: unrelated sessions
        # would derive the same key
        r = run_cli(["setup", "--protocol", "rdmpf", "--p", "65537", "--dim", "3",
                     "--rounds", "1", "--sigma", sigma, "--seed", "1",
                     "--out", str(tmp_path / "p.json")])
        assert r.returncode == 2
        assert f"parameter error: sigma={sigma} is a multiple of p-1=65536" in r.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, cause", [
        (("--exp-max", "1"), "exp_max must be >= 2, got 1"),
        (("--rounds", "0"), "rounds must be >= 1, got 0"),
        (("--sigma", "0"), f"sigma=0 is a multiple of p-1={2**64 - 60}"),
    ])
    def test_floor_setup_scalars_refused(self, tmp_path, option, cause):
        # test_wire checks that the library refuses these before its first draw
        r = run_cli(["setup", "--protocol", "rdmpf", "--p", str(2**64 - 59), "--dim", "100",
                     "--seed", "1", *option, "--out", str(tmp_path / "p.json")])
        assert r.returncode == 2
        assert f"parameter error: {cause}" in r.stderr
        assert "Traceback" not in r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_unsamplable_base_is_parameter_error(self, tmp_path):
        # at dim 2, p=5 no sampled base passes the order screens; no peer
        # is involved, so this is a parameter error, not a protocol error
        r = run_cli(["setup", "--protocol", "rdmpf", "--dim", "2", "--p", "5",
                     "--rounds", "1", "--exp-max", "10", "--seed", "1",
                     "--out", str(tmp_path / "p.json")])
        assert r.returncode == 2
        assert "parameter error: no usable rank-deficient base" in r.stderr

    def test_directory_out_refused_before_sampling(self, tmp_path, monkeypatch):
        # refused with a message naming --out, and nothing is written next
        # to the directory: no <dir>.tmp, no .bin mirror
        out = tmp_path / "params"
        out.mkdir()
        r = run_cli(["setup", "--protocol", "rdmpf", "--p", "65537", "--dim", "2",
                     "--seed", "1", "--out", str(out)])
        assert r.returncode == 2
        assert f"parameter error: --out {out} is a directory" in r.stderr
        assert sorted(tmp_path.iterdir()) == [out] and not any(out.iterdir())
        monkeypatch.setattr(cli, "generate_paramset", None)  # no draw before the check
        assert cli.main(["setup", "--protocol", "rdmpf", "--dim", "2", "--out", str(out)]) == 2

    def test_setup_loadable(self, tmp_path):
        out = tmp_path / "p.json"
        r = run_cli(["setup", "--protocol", "rdmpf", "--dim", "3", "--rounds", "2",
                     "--seed", "5", "--out", str(out)])
        assert r.returncode == 0
        ps = load_paramset(str(out))
        assert ps.build_setup().rounds == 2


class TestHandshakeCommand:
    def test_rmpf_replay_writes_known_key(self, tmp_path):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        xch = tmp_path / "xch"
        xch.mkdir()
        bob = spawn_cli([
            "handshake", "--role", "bob", "--params", params,
            "--transport", f"file:{xch}", "--out", str(tmp_path / "bob.key"),
            "--test-mode",
            "--inject", f"lambda={ka.RMPF_LAMBDA_B}", "--inject", f"omega={ka.RMPF_OMEGA_B}",
        ])
        alice = run_cli([
            "handshake", "--role", "alice", "--params", params,
            "--transport", f"file:{xch}", "--out", str(tmp_path / "alice.key"),
            "--test-mode",
            "--inject", f"lambda={ka.RMPF_LAMBDA_A}", "--inject", f"omega={ka.RMPF_OMEGA_A}",
        ])
        assert wait_cli(bob, 60) == 0
        assert alice.returncode == 0
        expected = encode_matrix(Matrix.from_rows(ka.RMPF_KEY, ka.P))
        assert (tmp_path / "alice.key").read_bytes() == expected
        assert (tmp_path / "bob.key").read_bytes() == expected

    def test_reused_exchange_directory_exits_4_on_both_sides(self, tmp_path):
        # a completed session leaves both roles' frames; a second session
        # run one side at a time in the same directory used to read the
        # first one's frames and exit 0 on both sides with different keys
        params = tmp_path / "p.json"
        assert run_cli(["setup", "--protocol", "rdmpf", "--dim", "3", "--seed", "5",
                        "--out", str(params)]).returncode == 0
        xch = tmp_path / "xch"
        xch.mkdir()

        def argv(role, out):
            return ["handshake", "--role", role, "--params", str(params),
                    "--transport", f"file:{xch}", "--out", str(tmp_path / out),
                    "--test-mode", "--timeout", "2"]

        bob = spawn_cli(argv("bob", "b1.key"))
        assert run_cli(argv("alice", "a1.key")).returncode == 0
        assert wait_cli(bob, 60) == 0
        assert (tmp_path / "a1.key").read_bytes() == (tmp_path / "b1.key").read_bytes()
        frames = sorted(p.name for p in xch.iterdir())
        for role in ("bob", "alice"):
            r = run_cli(argv(role, f"{role[0]}2.key"))
            assert r.returncode == 4, r.stderr
            assert f"{xch / (role + '.token-list.frame')} is left from an earlier session" \
                in r.stderr
        assert not any(p.name.startswith(("a2", "b2")) for p in tmp_path.iterdir())
        assert sorted(p.name for p in xch.iterdir()) == frames

    def test_injection_requires_test_mode(self, tmp_path):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        xch = tmp_path / "xch"
        xch.mkdir()
        r = run_cli([
            "handshake", "--role", "alice", "--params", params,
            "--transport", f"file:{xch}", "--out", str(tmp_path / "k"),
            "--inject", "lambda=5",
        ])
        assert r.returncode == 2

    def test_negative_injected_exponent_exits_2(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli(["setup", "--protocol", "rdmpf", "--dim", "3", "--rounds", "2",
                        "--seed", "77", "--out", str(out)]).returncode == 0
        xch = tmp_path / "xch"
        xch.mkdir()
        for rand_l in ("-1,4", "4,-1"):
            r = run_cli(["handshake", "--role", "alice", "--params", str(out),
                         "--transport", f"file:{xch}", "--out", str(tmp_path / "k"),
                         "--test-mode", "--inject", f"rand_l={rand_l}",
                         "--inject", "rand_r=5,6"])
            assert r.returncode == 2
            assert "exponent must be non-negative" in r.stderr
        assert list(xch.iterdir()) == []

    def test_peer_absent_times_out(self, tmp_path):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        xch = tmp_path / "xch"
        xch.mkdir()
        r = run_cli([
            "handshake", "--role", "alice", "--params", params,
            "--transport", f"file:{xch}", "--out", str(tmp_path / "k"),
            "--test-mode", "--timeout", "0.3",
        ])
        assert r.returncode == 4

    def test_unwritable_out_sends_no_frame(self, tmp_path):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        xch = tmp_path / "xch"
        xch.mkdir()
        alice = run_cli([
            "handshake", "--role", "alice", "--params", params,
            "--transport", f"file:{xch}", "--out", str(tmp_path / "missing" / "alice.key"),
            "--test-mode",
        ])
        assert alice.returncode == 2
        assert "missing" in alice.stderr
        assert list(xch.iterdir()) == []
        bob_key = tmp_path / "bob.key"
        bob_key.write_bytes(b"earlier key")
        bob = run_cli([
            "handshake", "--role", "bob", "--params", params,
            "--transport", f"file:{xch}", "--out", str(bob_key),
            "--test-mode", "--timeout", "0.3",
        ])
        assert bob.returncode == 4
        # a failed run leaves the key path as it was and no temporary file
        assert bob_key.read_bytes() == b"earlier key"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bob.key", "params.bin", "params.json", "xch"]

    @pytest.mark.parametrize("timeout", ("-1", "0", "nan"))
    @pytest.mark.parametrize("scheme", ("file", "tcp"))
    def test_bad_timeout_exits_2_before_the_transport_opens(self, tmp_path, scheme, timeout):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        xch = tmp_path / "xch"
        xch.mkdir()
        spec = f"file:{xch}" if scheme == "file" else f"tcp:127.0.0.1:{free_port()}"
        r = run_cli([
            "handshake", "--role", "bob", "--params", params, "--transport", spec,
            "--out", str(tmp_path / "k"), "--test-mode", "--timeout", timeout,
        ], timeout=30)
        assert r.returncode == 2, r.stderr
        assert f"--timeout: needs a finite number of seconds > 0, got '{timeout}'" in r.stderr
        assert "Traceback" not in r.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.bin", "params.json", "xch"]
        assert list(xch.iterdir()) == []

    @pytest.mark.parametrize("timeout", ("1e10", "1e300", "inf"))
    @pytest.mark.parametrize("scheme", ("file", "tcp"))
    def test_too_long_timeout_exits_2_before_the_transport_opens(self, tmp_path, scheme,
                                                                  timeout):
        # socket.settimeout overflows at about 1e10 s; file: would just wait
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        xch = tmp_path / "xch"
        xch.mkdir()
        spec = f"file:{xch}" if scheme == "file" else f"tcp:127.0.0.1:{free_port()}"
        r = run_cli([
            "handshake", "--role", "bob", "--params", params, "--transport", spec,
            "--out", str(tmp_path / "k"), "--test-mode", "--timeout", timeout,
        ], timeout=30)
        assert r.returncode == 2, r.stderr
        assert (f"--timeout: needs at most {cli.MAX_TIMEOUT} seconds, which both transports "
                f"accept, got '{timeout}'") in r.stderr
        assert "Traceback" not in r.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.bin", "params.json", "xch"]
        assert list(xch.iterdir()) == []

    def test_longest_timeout_opens_both_tcp_ends(self):
        seconds = cli._timeout(str(cli.MAX_TIMEOUT))
        assert seconds == cli.MAX_TIMEOUT
        bob = TcpTransport("127.0.0.1", 0, "bob", LIMITS, timeout=seconds)
        try:
            host, port = bob._listener.getsockname()[:2]
            alice = TcpTransport(host, port, "alice", LIMITS, timeout=seconds)
            alice.close()
        finally:
            bob.close()

    @pytest.mark.parametrize("port", ["65536", "-1", "0"])
    @pytest.mark.parametrize("role", ["bob", "alice"])
    def test_port_out_of_range_exits_4_before_a_socket_opens(self, tmp_path, monkeypatch,
                                                             capsys, role, port):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")

        def no_socket(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(TcpTransport, "__init__", no_socket)
        spec = f"tcp:127.0.0.1:{port}"
        code = cli.main(["handshake", "--role", role, "--params", params, "--transport", spec,
                         "--out", str(tmp_path / "k"), "--test-mode", "--timeout", "5"])
        assert code == 4
        assert f"transport error: bad port in {spec!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.bin", "params.json"]

    def test_tcp_listener_times_out(self, tmp_path):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        r = run_cli([
            "handshake", "--role", "bob", "--params", params,
            "--transport", f"tcp:127.0.0.1:{free_port()}", "--out", str(tmp_path / "k"),
            "--test-mode", "--timeout", "0.3",
        ])
        assert r.returncode == 4

    def test_tcp_oversized_header_exits_3(self, tmp_path):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        port = free_port()
        bob = spawn_cli([
            "handshake", "--role", "bob", "--params", params,
            "--transport", f"tcp:127.0.0.1:{port}", "--out", str(tmp_path / "k"),
            "--test-mode", "--timeout", "20",
        ])
        deadline = time.monotonic() + 20
        while True:
            try:
                peer = socket.create_connection(("127.0.0.1", port), timeout=20)
                break
            except OSError:
                assert time.monotonic() < deadline, "bob never listened"
                time.sleep(0.05)
        with peer:
            peer.sendall(MAGIC + bytes([VERSION, FRAME_KINDS["token-list"]]) + b"\xff" * 4)
            out, err = bob.communicate(timeout=30)
        assert bob.returncode == 3, err
        assert "claims 4294967295 payload bytes" in err
        assert "Traceback" not in err
        assert not (tmp_path / "k").exists()

    def test_rdmpf_seeded_loopback(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli(["setup", "--protocol", "rdmpf", "--dim", "3", "--rounds", "2",
                        "--seed", "77", "--out", str(out)]).returncode == 0
        xch = tmp_path / "xch"
        xch.mkdir()
        bob = spawn_cli(["handshake", "--role", "bob", "--params", str(out),
                         "--transport", f"file:{xch}", "--out", str(tmp_path / "b.key"),
                         "--test-mode"])
        alice = run_cli(["handshake", "--role", "alice", "--params", str(out),
                         "--transport", f"file:{xch}", "--out", str(tmp_path / "a.key"),
                         "--test-mode"])
        assert wait_cli(bob, 60) == 0 and alice.returncode == 0
        a = (tmp_path / "a.key").read_bytes()
        assert a == (tmp_path / "b.key").read_bytes()
        assert len(a) == 64


    def test_rdmpf_zero_in_w_agrees(self, tmp_path):
        # a parameter file with a zero in w is refused at load, on both
        # sides, before the transport opens: no frame reaches the directory
        rows = {"w": [[1, 4], [4, 0]], "base_xu": [[6, 5], [6, 5]],
                "base_yv": [[1, 5], [1, 5]]}
        ps = ParamSet(protocol="rdmpf", p=7,
                      fields={"dim": 2, "exp_max": 12, "rounds": 2, "sigma": 1}, seed=5,
                      matrices={k: Matrix.from_rows(v, 7) for k, v in rows.items()})
        params, _ = save_paramset(ps, str(tmp_path / "p.json"))
        xch = tmp_path / "xch"
        xch.mkdir()
        for role in ("bob", "alice"):
            r = run_cli(["handshake", "--role", role, "--params", params,
                         "--transport", f"file:{xch}", "--out", str(tmp_path / f"{role}.key"),
                         "--test-mode", "--timeout", "5"])
            assert r.returncode == 2, (role, r.stderr)
            assert "w must have entries" in r.stderr
        assert not any(xch.iterdir())


    def test_sigma_multiple_of_p_minus_1_refused_at_load(self, tmp_path):
        # a file that setup would refuse, written by hand, is refused on
        # both sides before the transport opens
        ps, _ = generate_paramset("rdmpf", 65537, random.Random(1), dim=3, exp_max=100,
                                  rounds=1)
        ps = ParamSet("rdmpf", 65537, {**ps.fields, "sigma": 0}, ps.matrices)
        params, _ = save_paramset(ps, str(tmp_path / "p.json"))
        xch = tmp_path / "xch"
        xch.mkdir()
        for role in ("bob", "alice"):
            r = run_cli(["handshake", "--role", role, "--params", params,
                         "--transport", f"file:{xch}", "--out", str(tmp_path / f"{role}.key"),
                         "--test-mode", "--timeout", "5"])
            assert r.returncode == 2, (role, r.stderr)
            assert "sigma=0 is a multiple of p-1=65536" in r.stderr
        assert not any(xch.iterdir())

    def test_json_prime_beyond_the_word_refused_on_both_sides(self, tmp_path):
        # 2^64+13 is prime and the known rmpf matrices are a setup under it,
        # but no setup frame holds it: both sides refuse the JSON file, as
        # they would its binary mirror, before the transport opens
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        doc = json.loads((tmp_path / "params.json").read_text())
        doc["p"] = 2**64 + 13
        (tmp_path / "params.json").write_text(json.dumps(doc))
        xch = tmp_path / "xch"
        xch.mkdir()
        for role in ("bob", "alice"):
            r = run_cli(["handshake", "--role", role, "--params", params,
                         "--transport", f"file:{xch}", "--out", str(tmp_path / f"{role}.key"),
                         "--test-mode", "--timeout", "5"])
            assert r.returncode == 2, (role, r.stderr)
            assert f"p={2**64 + 13} does not fit the setup frame's 8-byte field" in r.stderr
        assert not any(xch.iterdir())


class TestKemCommand:
    @staticmethod
    def _setup_files(tmp_path, eta0_bytes=b"\xab" * 64):
        params = tmp_path / "p.json"
        assert run_cli(["setup", "--protocol", "rdmpf", "--dim", "3", "--rounds", "1",
                        "--seed", "9", "--out", str(params)]).returncode == 0
        eta0 = tmp_path / "eta0.bin"
        eta0.write_bytes(eta0_bytes)
        return params, eta0

    def test_loopback_k_files_match(self, tmp_path):
        # the same seeds over both transports: four equal keys, byte for byte
        params, eta0 = self._setup_files(tmp_path)
        xch = tmp_path / "xch"
        xch.mkdir()
        keys = []
        for name, spec in (("file", f"file:{xch}"), ("tcp", f"tcp:127.0.0.1:{free_port()}")):
            common = ["--params", str(params), "--eta0", str(eta0),
                      "--auth-a", "alice@example", "--auth-b", "bob@example",
                      "--transport", spec, "--test-mode"]
            keys += [tmp_path / f"{name}-bob.k", tmp_path / f"{name}-alice.k"]
            bob = spawn_cli(["kem", "--role", "bob", "--out", str(keys[-2])] + common)
            alice = run_cli(["kem", "--role", "alice", "--out", str(keys[-1])] + common)
            assert wait_cli(bob, 60) == 0 and alice.returncode == 0, alice.stderr
            assert "wrote 64-byte encapsulated key to" in alice.stdout
        first = keys[0].read_bytes()
        assert len(first) == 64
        assert all(k.read_bytes() == first for k in keys)

    def test_reused_exchange_directory_exits_4_on_both_sides(self, tmp_path):
        # the KEM's frames have their own names; each role still finds
        # its own frame from the first session and refuses to start
        params, eta0 = self._setup_files(tmp_path)
        xch = tmp_path / "xch"
        xch.mkdir()

        def argv(role, out):
            return ["kem", "--role", role, "--params", str(params), "--eta0", str(eta0),
                    "--auth-a", "a", "--auth-b", "b", "--transport", f"file:{xch}",
                    "--out", str(tmp_path / out), "--test-mode", "--timeout", "2"]

        bob = spawn_cli(argv("bob", "b1.k"))
        assert run_cli(argv("alice", "a1.k")).returncode == 0
        assert wait_cli(bob, 60) == 0
        for role, frame in (("bob", "bob.kem-close-b.frame"),
                            ("alice", "alice.kem-encap-msg.frame")):
            r = run_cli(argv(role, f"{role[0]}2.k"))
            assert r.returncode == 4, r.stderr
            assert f"{xch / frame} is left from an earlier session" in r.stderr
        assert not any(p.name.startswith(("a2", "b2")) for p in tmp_path.iterdir())

    def test_unwritable_out_sends_no_frame(self, tmp_path):
        params, eta0 = self._setup_files(tmp_path)
        xch = tmp_path / "xch"
        xch.mkdir()
        common = ["--params", str(params), "--eta0", str(eta0),
                  "--auth-a", "alice@example", "--auth-b", "bob@example",
                  "--transport", f"file:{xch}", "--test-mode"]
        alice = run_cli(["kem", "--role", "alice",
                         "--out", str(tmp_path / "missing" / "a.k")] + common)
        assert alice.returncode == 2
        assert "missing" in alice.stderr
        assert list(xch.iterdir()) == []
        bob = run_cli(["kem", "--role", "bob", "--out", str(tmp_path / "b.k"),
                       "--timeout", "0.3"] + common)
        assert bob.returncode == 4
        assert not any(p.name.startswith("b.k") for p in tmp_path.iterdir())
        assert [p.name for p in xch.iterdir()] == ["bob.kem-close-b.frame"]

    def test_alice_runs_her_rounds_before_close_b(self, tmp_path, monkeypatch, capsys):
        # bob runs 1 round and alice 2, so his close_b is half the length
        # she expects; she has generated her tokens by the time she asks
        # for it, and still refuses it with exit 3 and an error frame
        files = {}
        for rounds in (1, 2):
            files[rounds] = tmp_path / f"r{rounds}.json"
            r = run_cli(["setup", "--protocol", "rdmpf", "--dim", "3", "--rounds", str(rounds),
                         "--seed", "9", "--out", str(files[rounds])])
            assert r.returncode == 0
        eta0 = tmp_path / "eta0.bin"
        eta0.write_bytes(b"\xab" * 64)
        xch = tmp_path / "xch"
        xch.mkdir()
        common = ["--eta0", str(eta0), "--auth-a", "a", "--auth-b", "b",
                  "--transport", f"file:{xch}", "--test-mode", "--timeout", "30"]
        bob = spawn_cli(["kem", "--role", "bob", "--params", str(files[1]),
                         "--out", str(tmp_path / "b.k")] + common)

        events = []
        keygen, recv = rdmpf.round_keygen, FileTransport.recv

        def spy_keygen(setup, pairs):
            rounds = keygen(setup, pairs)
            events.append(("tokens", len(rounds)))
            return rounds

        def spy_recv(transport, kind):
            events.append(("recv", kind))
            return recv(transport, kind)

        monkeypatch.setattr(rdmpf, "round_keygen", spy_keygen)
        monkeypatch.setattr(FileTransport, "recv", spy_recv)
        rc = cli.main(["kem", "--role", "alice", "--params", str(files[2]),
                       "--out", str(tmp_path / "a.k")] + common)
        assert rc == 3
        assert events == [("tokens", 2), ("recv", "kem-close-b")]
        assert "close_b is 72 bytes, expected 144" in capsys.readouterr().err
        assert (xch / "alice.error.frame").is_file()
        assert wait_cli(bob, 60) == 3
        assert not any(p.name.startswith(("a.k", "b.k")) for p in tmp_path.iterdir())

    def test_tcp_rounds_mismatch_exits_3_on_both_sides(self, tmp_path):
        # bob runs 1 round and alice 2: alice refuses his close_b and
        # reports it in an error frame, which bob reads in place of her message
        files = {}
        for rounds in (1, 2):
            files[rounds] = tmp_path / f"r{rounds}.json"
            r = run_cli(["setup", "--protocol", "rdmpf", "--dim", "3", "--rounds", str(rounds),
                         "--seed", "9", "--out", str(files[rounds])])
            assert r.returncode == 0
        eta0 = tmp_path / "eta0.bin"
        eta0.write_bytes(b"\xab" * 64)
        common = ["--eta0", str(eta0), "--auth-a", "a", "--auth-b", "b",
                  "--transport", f"tcp:127.0.0.1:{free_port()}", "--test-mode",
                  "--timeout", "30"]
        bob = spawn_cli(["kem", "--role", "bob", "--params", str(files[1]),
                         "--out", str(tmp_path / "b.k")] + common)
        alice = run_cli(["kem", "--role", "alice", "--params", str(files[2]),
                         "--out", str(tmp_path / "a.k")] + common)
        _, bob_err = bob.communicate(timeout=60)
        assert alice.returncode == 3
        assert "protocol error: close_b is 72 bytes, expected 144" in alice.stderr
        assert bob.returncode == 3
        assert "protocol error: peer reported: close_b is 72 bytes, expected 144" in bob_err
        assert not any(p.name.startswith(("a.k", "b.k")) for p in tmp_path.iterdir())

    def test_mismatched_eta0_diverges(self, tmp_path):
        params, eta0_a = self._setup_files(tmp_path)
        eta0_b = tmp_path / "eta0b.bin"
        eta0_b.write_bytes(b"\xcd" * 64)
        xch = tmp_path / "xch"
        xch.mkdir()

        def args(role, eta0, out):
            return ["kem", "--role", role, "--params", str(params), "--eta0", str(eta0),
                    "--auth-a", "a", "--auth-b", "b",
                    "--transport", f"file:{xch}", "--test-mode", "--out", str(out)]

        bob = spawn_cli(args("bob", eta0_b, tmp_path / "b.k"))
        alice = run_cli(args("alice", eta0_a, tmp_path / "a.k"))
        bob_rc = wait_cli(bob, 60)
        # each party either derives a different K or rejects the garbled list
        if alice.returncode == 0 and bob_rc == 0:
            assert (tmp_path / "a.k").read_bytes() != (tmp_path / "b.k").read_bytes()
        else:
            assert 3 in (alice.returncode, bob_rc)

    def test_malformed_eta0_rejected(self, tmp_path):
        params, _ = self._setup_files(tmp_path)
        short = tmp_path / "short.bin"
        short.write_bytes(b"\x01" * 10)
        xch = tmp_path / "xch"
        xch.mkdir()
        r = run_cli(["kem", "--role", "alice", "--params", str(params),
                     "--eta0", str(short), "--auth-a", "a", "--auth-b", "b",
                     "--transport", f"file:{xch}", "--out", str(tmp_path / "k"),
                     "--test-mode"])
        assert r.returncode == 2
        assert "parameter error: eta0 must be 64 bytes, got 10" in r.stderr
        assert list(xch.iterdir()) == []

    def test_kem_has_no_inject_option(self, tmp_path):
        params, eta0 = self._setup_files(tmp_path)
        r = run_cli(["kem", "--role", "alice", "--params", str(params),
                     "--eta0", str(eta0), "--auth-a", "a", "--auth-b", "b",
                     "--transport", f"file:{tmp_path}", "--out", str(tmp_path / "k"),
                     "--test-mode", "--inject", "rand_l=1"])
        assert r.returncode == 2
        assert "unrecognized arguments: --inject" in r.stderr

    def test_kem_requires_rdmpf_params(self, tmp_path):
        params, _ = write_known_rmpf_params(tmp_path / "params.json")
        eta0 = tmp_path / "eta0.bin"
        eta0.write_bytes(b"\x00" * 64)
        xch = tmp_path / "xch"
        xch.mkdir()
        r = run_cli(["kem", "--role", "alice", "--params", params,
                     "--eta0", str(eta0), "--auth-a", "a", "--auth-b", "b",
                     "--transport", f"file:{xch}", "--out", str(tmp_path / "k")])
        assert r.returncode == 2


    def test_mismatched_round_counts_protocol_error(self, tmp_path):
        # the same seed under two different round counts (rdmpf) or row
        # counts (rmpf): the peer list check must fail with exit 3 on a side
        cases = {
            "rdmpf-rounds": (["--protocol", "rdmpf", "--dim", "3", "--rounds", "1"],
                             ["--protocol", "rdmpf", "--dim", "3", "--rounds", "2"]),
            "rmpf-shape": (["--protocol", "rmpf", "--rows", "5", "--cols", "3"],
                           ["--protocol", "rmpf", "--rows", "6", "--cols", "3"]),
        }
        for name, (bob_setup, alice_setup) in cases.items():
            one, two = tmp_path / f"{name}-1.json", tmp_path / f"{name}-2.json"
            for setup_args, out in ((bob_setup, one), (alice_setup, two)):
                r = run_cli(["setup", *setup_args, "--seed", "4", "--out", str(out)])
                assert r.returncode == 0
            xch = tmp_path / f"{name}-xch"
            xch.mkdir()
            bob = spawn_cli(["handshake", "--role", "bob", "--params", str(one),
                             "--transport", f"file:{xch}", "--out", str(tmp_path / "b.key"),
                             "--test-mode", "--timeout", "5"])
            alice = run_cli(["handshake", "--role", "alice", "--params", str(two),
                             "--transport", f"file:{xch}", "--out", str(tmp_path / "a.key"),
                             "--test-mode", "--timeout", "5"])
            rc = {alice.returncode, wait_cli(bob, 60)}
            assert 3 in rc and 2 not in rc, (name, rc)

    def test_env_seed_overrides(self, tmp_path):
        import os

        params = tmp_path / "p.json"
        assert run_cli(["setup", "--protocol", "rdmpf", "--dim", "3", "--rounds", "1",
                        "--seed", "1", "--out", str(params)]).returncode == 0

        def pair(seed_env, tag):
            env = dict(os.environ)
            if seed_env is not None:
                env["MPFKAP_SEED"] = seed_env
            xch = tmp_path / f"xch{tag}"
            xch.mkdir()
            bob = spawn_cli(["handshake", "--role", "bob", "--params", str(params),
                             "--transport", f"file:{xch}",
                             "--out", str(tmp_path / f"b{tag}.key"), "--test-mode"], env=env)
            alice = run_cli(["handshake", "--role", "alice", "--params", str(params),
                             "--transport", f"file:{xch}",
                             "--out", str(tmp_path / f"a{tag}.key"), "--test-mode"], env=env)
            assert wait_cli(bob, 60) == 0 and alice.returncode == 0
            return (tmp_path / f"a{tag}.key").read_bytes()

        env_one = pair("99", "e1")
        env_two = pair("99", "e2")
        file_seed = pair(None, "f")
        assert env_one == env_two
        assert env_one != file_seed


class TestBenchCommand:
    def test_tiny_grid_csv(self, tmp_path):
        csv_path = tmp_path / "bench.csv"
        r = run_cli(["bench", "--point", "2:7:10", "--point", "3:7:10",
                     "--trials", "10", "--out", str(csv_path)], timeout=180)
        assert r.returncode == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "dim,p,expMax,trials,median_s,ratio_vs_baseline"
        assert len(lines) == 3
        assert "timed operation" in r.stdout

    def test_bad_point_spec(self):
        assert run_cli(["bench", "--point", "nope"]).returncode == 2

    @pytest.mark.parametrize("argv, cause", [
        (["--trials", "0"], "need at least 10 trials, got 0"),
        (["--trials", "3"], "need at least 10 trials, got 3"),
        (["--point", "2:7:10", "--point", "3:7:10", "--point", "2:7:10"],
         "grid point 2:7:10 is given twice"),
    ])
    def test_bad_grid_exits_2_before_anything_is_timed(self, monkeypatch, capsys, argv, cause):
        from mpfkap import bench

        def no_workload(*args, **kwargs):
            raise AssertionError("a grid point was sampled")

        monkeypatch.setattr(bench, "_Workload", no_workload)
        assert cli.main(["bench", *argv]) == 2
        assert f"parameter error: {cause}" in capsys.readouterr().err


class TestVectorsCommand:
    def test_only_vectors_imports_known_answers(self):
        # the other commands start without the known-answer module; --p
        # still defaults to its prime
        code = ("import sys, mpfkap.cli as cli; "
                "print('mpfkap.known_answers' in sys.modules, cli.DEFAULT_P)")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=60)
        assert r.stdout.split() == ["False", str(ka.P)], r.stderr

    def test_all_pass(self):
        r = run_cli(["vectors"])
        assert r.returncode == 0
        assert "FAIL" not in r.stdout
        assert r.stdout.count("PASS") == 31
