import json
import os
import random
import struct
import threading

import pytest

from conftest import run_cli, save_params
from mpfkap import FrameError, Matrix, ParameterError
from mpfkap import known_answers as ka
from mpfkap import wire
from mpfkap.wire import (
    MAGIC,
    ParamSet,
    decode_frame,
    decode_matrix,
    decode_token_list,
    encode_frame,
    encode_matrix,
    encode_token_list,
    generate_paramset,
    load_paramset,
    open_regular,
    replacing,
)


def remade(ps, **changes):
    """ps with the given fields changed, built (and so checked) by ParamSet()."""
    now = dict(protocol=ps.protocol, p=ps.p, fields=ps.fields, matrices=ps.matrices, seed=ps.seed)
    return ParamSet(**{**now, **changes})


def known_rdmpf_paramset():
    p = ka.P
    return ParamSet(
        protocol="rdmpf",
        p=p,
        fields={"dim": 5, "exp_max": ka.RDMPF_EXP_MAX, "rounds": ka.RDMPF_ROUNDS, "sigma": 1},
        matrices={
            "w": Matrix.from_rows(ka.RDMPF_W, p),
            "base_xu": Matrix.from_rows(ka.RDMPF_BASE_XU, p),
            "base_yv": Matrix.from_rows(ka.RDMPF_BASE_YV, p),
        },
    )


class TestFrames:
    def test_round_trip(self):
        rng = random.Random(50)
        for _ in range(100):
            kind = rng.choice(["setup", "token-list", "kem-close-b", "kem-encap-msg", "error"])
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
            assert decode_frame(encode_frame(kind, payload)) == (kind, payload)

    def test_truncated(self):
        frame = encode_frame("token-list", b"payload")
        with pytest.raises(FrameError):
            decode_frame(frame[:-1])

    def test_header_too_short(self):
        with pytest.raises(FrameError):
            decode_frame(b"MPFX\x01")

    def test_wrong_magic(self):
        frame = bytearray(encode_frame("token-list", b"x"))
        frame[0] ^= 0xFF
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_wrong_version(self):
        frame = bytearray(encode_frame("token-list", b"x"))
        frame[4] = 9
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_unknown_kind(self):
        frame = bytearray(encode_frame("token-list", b"x"))
        frame[5] = 0x7F
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_trailing_bytes(self):
        frame = encode_frame("token-list", b"x") + b"junk"
        with pytest.raises(FrameError):
            decode_frame(frame)

    def test_unknown_kind_on_encode(self):
        with pytest.raises(ParameterError):
            encode_frame("bogus", b"")


class TestMatrixCodec:
    def test_round_trip(self):
        m = Matrix.from_rows(ka.RMPF_BASE, ka.P)
        decoded, rest = decode_matrix(encode_matrix(m), ka.P)
        assert decoded == m and rest == b""

    def test_entry_range_checked(self):
        for entry in (65537, 70000):  # p itself, and above it
            m = Matrix.from_rows([[1, entry]], 2**17)
            with pytest.raises(FrameError, match="entry not reduced mod the session modulus"):
                decode_matrix(encode_matrix(m), 65537)

    def test_truncation_detected(self):
        data = encode_matrix(Matrix.from_rows([[1, 2], [3, 4]], 7))
        with pytest.raises(FrameError):
            decode_matrix(data[:-3], 7)

    def test_token_list_round_trip(self):
        rng = random.Random(51)
        mats = [
            Matrix.from_rows([[rng.randrange(7) for _ in range(2)] for _ in range(2)], 7)
            for _ in range(3)
        ]
        assert decode_token_list(encode_token_list(mats), 7) == mats

    def test_token_list_trailing_rejected(self):
        data = encode_token_list([Matrix.identity(2, 7)]) + b"\x00"
        with pytest.raises(FrameError):
            decode_token_list(data, 7)


class TestParamSet:
    def test_rmpf_json_round_trip(self):
        rng = random.Random(52)
        ps, _ = generate_paramset("rmpf", 65537, rng, rows=5, cols=3, seed=11)
        again = ParamSet.from_json(ps.to_json())
        assert again.protocol == "rmpf"
        assert again.p == 65537
        assert again.seed == 11
        assert again.matrices == ps.matrices

    def test_rdmpf_json_round_trip(self):
        rng = random.Random(53)
        ps, _ = generate_paramset("rdmpf", 65537, rng, dim=3, exp_max=500, rounds=2, sigma=5)
        again = ParamSet.from_json(ps.to_json())
        assert again.fields == {"dim": 3, "exp_max": 500, "rounds": 2, "sigma": 5}
        assert again.matrices == ps.matrices

    def test_json_text_is_json_dumps(self):
        # oracle: the document as a dict, written by json.dumps(indent=2)
        rng = random.Random(55)
        sets = [known_rdmpf_paramset()]
        for protocol, p, kwargs in (
            ("rdmpf", 65537, dict(dim=3, exp_max=500, rounds=2, sigma=5, seed=4)),
            ("rdmpf", 2**64 - 59, dict(dim=2, exp_max=2**63, rounds=128, sigma=1)),
            ("rmpf", 65537, dict(rows=5, cols=3, seed=0)),
            ("rmpf", 7, dict(rows=2, cols=1)),
        ):
            sets.append(generate_paramset(protocol, p, rng, **kwargs)[0])
        for ps in sets:
            layout = wire._LAYOUTS[ps.protocol]
            doc = {"format": wire.PARAMSET_FORMAT, "version": wire.PARAMSET_VERSION,
                   "protocol": ps.protocol, "p": ps.p}
            doc.update((name, ps.fields[name]) for name, _ in layout.fields)
            doc.update((name, ps.matrices[name].to_rows()) for name in layout.matrices)
            if ps.seed is not None:
                doc["seed"] = ps.seed
            assert ps.to_json() == json.dumps(doc, indent=2) + "\n"

    def test_binary_mirror_round_trip(self):
        rng = random.Random(54)
        for kwargs in (
            dict(rows=4, cols=2),
            dict(rows=4, cols=2, seed=3),
        ):
            ps, _ = generate_paramset("rmpf", 65537, rng, **kwargs)
            again = ParamSet.from_frame(ps.to_frame())
            assert again.matrices == ps.matrices
            assert again.seed == ps.seed
        ps, _ = generate_paramset("rdmpf", 997, rng, dim=3, exp_max=100, rounds=1)
        again = ParamSet.from_frame(ps.to_frame())
        assert again.matrices == ps.matrices
        assert again.fields == {"dim": 3, "exp_max": 100, "rounds": 1, "sigma": 1}

    def test_save_and_sniff_both_forms(self, tmp_path):
        rng = random.Random(55)
        ps, _ = generate_paramset("rdmpf", 65537, rng, dim=3, exp_max=500, rounds=1)
        json_path, bin_path = save_params(ps, str(tmp_path / "params.json"))
        from_json = load_paramset(json_path)
        from_bin = load_paramset(bin_path)
        assert from_json.matrices == from_bin.matrices == ps.matrices
        with open(bin_path, "rb") as fh:
            assert fh.read(4) == MAGIC

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        # the library call, past the CLI's own check: a directory in the
        # way of either form fails its replace, which removes both .tmp
        # files.  The mirror is replaced first, so a failed mirror leaves
        # no new JSON, and a failed JSON replace leaves the new mirror.
        ps, _ = generate_paramset("rdmpf", 65537, random.Random(56), dim=2, exp_max=50,
                                  rounds=1)
        (tmp_path / "a").mkdir()
        with pytest.raises(OSError):
            save_params(ps, str(tmp_path / "a"))
        (tmp_path / "b.bin").mkdir()
        with pytest.raises(OSError):
            save_params(ps, str(tmp_path / "b.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "a.bin", "b.bin"]
        assert load_paramset(str(tmp_path / "a.bin")).matrices == ps.matrices

    def test_failed_mirror_leaves_the_old_pair(self, tmp_path, monkeypatch):
        rng = random.Random(58)
        old, _ = generate_paramset("rdmpf", 65537, rng, dim=2, exp_max=50, rounds=1)
        new, _ = generate_paramset("rdmpf", 65537, rng, dim=2, exp_max=50, rounds=1)
        json_path, bin_path = save_params(old, str(tmp_path / "c.json"))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        replace = wire.os.replace

        def failing_mirror(src, dst):
            if dst.endswith(".bin"):
                raise OSError("no room for the mirror")
            replace(src, dst)

        monkeypatch.setattr(wire.os, "replace", failing_mirror)
        with pytest.raises(OSError, match="no room"):
            save_params(new, json_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert load_paramset(json_path).matrices == old.matrices != new.matrices

    def test_build_setup_validates(self):
        # the record's shape is checked when it is made, the protocol's
        # rules when its setup is built
        with pytest.raises(ParameterError, match="exactly the scalars"):
            ParamSet(protocol="rmpf", p=65537, fields={"rows": 3, "cols": 2}, matrices={})
        square = Matrix.from_rows([[1, 2], [3, 4]], 65537)
        ps = ParamSet(protocol="rmpf", p=65537, fields={"rows": 2, "cols": 2},
                      matrices={"base": square, "x": square, "y": square})
        with pytest.raises(ParameterError, match="rows must exceed cols"):
            ps.build_setup()

    def test_declared_dims_must_match_matrices(self):
        rng = random.Random(57)
        rm, _ = generate_paramset("rmpf", 65537, rng, rows=4, cols=2)
        rd, _ = generate_paramset("rdmpf", 65537, rng, dim=3, exp_max=100, rounds=1)
        for ps, bad in ((rm, {"rows": 5}), (rm, {"cols": 3}), (rd, {"dim": 7})):
            ps = remade(ps, fields={**ps.fields, **bad})
            for loaded in (ParamSet.from_json(ps.to_json()), ParamSet.from_frame(ps.to_frame())):
                with pytest.raises(ParameterError, match="declares"):
                    loaded.build_setup()

    def test_zero_in_w_refused_at_load(self):
        rng = random.Random(58)
        ps, _ = generate_paramset("rdmpf", 65537, rng, dim=3, exp_max=100, rounds=1)
        flat = list(ps.matrices["w"].entries)
        flat[4] = 0
        w = Matrix(3, 3, tuple(flat), 65537)
        ps = remade(ps, matrices={**ps.matrices, "w": w})
        for loaded in (ParamSet.from_json(ps.to_json()), ParamSet.from_frame(ps.to_frame())):
            with pytest.raises(ParameterError, match="w must have entries"):
                loaded.build_setup()

    def test_bad_json_rejected(self):
        with pytest.raises(ParameterError):
            ParamSet.from_json("{not json")
        with pytest.raises(ParameterError):
            ParamSet.from_json('{"format": "something-else"}')

    def test_generate_checks_scalars_before_sampling(self, monkeypatch):
        # a scalar no setup frame holds is refused before the first draw
        drawn = []
        monkeypatch.setattr(wire, "sample_matrix", lambda *args, **kw: drawn.append(args))
        cases = [
            ("rdmpf", 2**64 + 13, dict(dim=100, exp_max=10000, rounds=1),
             f"p={2**64 + 13} does not fit the setup frame's 8-byte field"),
            ("rdmpf", 65537, dict(dim=3, exp_max=100, rounds=1, seed=-1), "seed=-1 does not fit"),
            ("rdmpf", 65537, dict(dim=3, rounds=1), "needs an integer 'exp_max', got None"),
            ("rmpf", 65537, dict(rows=2**32, cols=3), "rows=4294967296 does not fit"),
            ("rmpf", 65537, dict(rows=True, cols=3), "needs an integer 'rows', got True"),
        ]
        for protocol, p, kwargs, cause in cases:
            with pytest.raises(ParameterError, match=cause):
                generate_paramset(protocol, p, random.Random(1), **kwargs)
        assert drawn == []

    def test_generate_checks_setup_scalars_before_the_first_draw(self):
        # RdmpfSetup's scalar checks run before a dim-100 setup is sampled
        p = 2**64 - 59
        cases = [
            (dict(exp_max=1, rounds=1, sigma=1), "exp_max must be >= 2, got 1"),
            (dict(exp_max=10000, rounds=0, sigma=1), "rounds must be >= 1, got 0"),
            (dict(exp_max=10000, rounds=1, sigma=0), f"sigma=0 is a multiple of p-1={p - 1}"),
            (dict(exp_max=10000, rounds=1, sigma=p - 1), f"sigma={p - 1} is a multiple of p-1"),
        ]
        for kwargs, cause in cases:
            rng = random.Random(1)
            state = rng.getstate()
            with pytest.raises(ParameterError, match=cause):
                generate_paramset("rdmpf", p, rng, dim=100, **kwargs)
            assert rng.getstate() == state

    def test_both_forms_accept_the_same_sets(self):
        # construction is the one check: a set that exists fits the frame
        ps = known_rdmpf_paramset()
        with pytest.raises(ParameterError, match="exactly the scalars"):
            remade(ps, fields={**ps.fields, "extra": 1})
        with pytest.raises(ParameterError, match="exp_max=18446744073709551616 does not fit"):
            remade(ps, fields={**ps.fields, "exp_max": 2**64})
        with pytest.raises(ParameterError, match="matrix 'w' must be a Matrix mod p=65537"):
            remade(ps, matrices={**ps.matrices, "w": Matrix.identity(5, 65539)})
        with pytest.raises(ParameterError, match="unknown protocol"):
            remade(ps, protocol="xmpf")
        seeded = remade(ps, seed=2**64 - 1)
        assert ParamSet.from_frame(seeded.to_frame()) == seeded
        assert ParamSet.from_json(seeded.to_json()) == seeded

    def test_generate_rejects_bad_dims(self):
        rng = random.Random(56)
        with pytest.raises(ParameterError):
            generate_paramset("rmpf", 65537, rng, rows=3, cols=3)
        with pytest.raises(ParameterError):
            generate_paramset("rmpf", 65537, rng, rows=3)

    def test_known_instance_as_paramset(self):
        ps = known_rdmpf_paramset()
        setup = ps.build_setup()
        assert setup.dim == 5
        again = ParamSet.from_frame(ps.to_frame())
        assert again.matrices == ps.matrices


def json_edit(change):
    def build(ps):
        doc = json.loads(ps.to_json())
        change(doc)
        return "params.json", json.dumps(doc).encode()

    return build


def frame_with_seed_flag(flag):
    def build(ps):
        frame = ps.to_frame()
        # after the header: protocol tag, p, the four rdmpf scalars, the flag
        at = 10 + struct.calcsize(">BQIQIQ")
        return "params.bin", frame[:at] + bytes([flag]) + frame[at + 1 :]

    return build


def frame_with_tag(tag):
    def build(ps):
        frame = ps.to_frame()
        # the payload's first byte, after the 10-byte header, is the protocol tag
        return "params.bin", frame[:10] + bytes([tag]) + frame[11:]

    return build


@pytest.mark.parametrize(
    "build, error, cause, code",
    [
        pytest.param(json_edit(lambda d: d.pop("dim")), ParameterError,
                     "needs an integer 'dim', got None", 2, id="dim-missing"),
        pytest.param(json_edit(lambda d: d.update(w=5)), ParameterError,
                     "needs matrix 'w' as a list of integer lists", 2, id="w-not-rows"),
        pytest.param(json_edit(lambda d: d.update(p="x")), ParameterError,
                     "needs an integer 'p', got 'x'", 2, id="p-string"),
        pytest.param(json_edit(lambda d: d.update(dim="3")), ParameterError,
                     "needs an integer 'dim', got '3'", 2, id="dim-string"),
        pytest.param(frame_with_tag(9), ParameterError, "params.bin: unknown protocol tag 9", 2,
                     id="bin-tag-9"),
        pytest.param(json_edit(lambda d: d.update(seed="x")), ParameterError,
                     "needs an integer 'seed', got 'x'", 2, id="seed-string"),
        pytest.param(json_edit(lambda d: d["w"][0].__setitem__(0, d["p"] + 1)), ParameterError,
                     "matrix 'w': matrix entry out of", 2, id="w-entry-above-p"),
        pytest.param(json_edit(lambda d: d["w"][0].__setitem__(0, -1)), ParameterError,
                     "matrix 'w': matrix entry out of", 2, id="w-entry-negative"),
        pytest.param(json_edit(lambda d: d["w"][1].pop()), ParameterError,
                     "matrix 'w': rows are missing or ragged", 2, id="w-ragged"),
        pytest.param(frame_with_seed_flag(7), ParameterError, "params.bin: unknown seed flag 7", 2,
                     id="bin-seed-flag-7"),
        pytest.param(json_edit(lambda d: d.update(protocol=["rdmpf"])), ParameterError,
                     "unknown protocol", 2, id="protocol-list"),
        pytest.param(lambda ps: ("params.json", b"\xff\xfe{}"), ParameterError,
                     "params.json is neither a setup frame nor UTF-8 text", 2, id="not-utf8"),
    ],
)
def test_malformed_parameter_file(tmp_path, build, error, cause, code):
    name, data = build(known_rdmpf_paramset())
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(error, match=cause):
        load_paramset(str(path)).build_setup()
    r = run_cli(["handshake", "--role", "alice", "--params", str(path),
                 "--transport", f"file:{tmp_path}", "--out", str(tmp_path / "key")])
    assert r.returncode == code
    assert cause in r.stderr
    assert "Traceback" not in r.stderr
    assert [p.name for p in tmp_path.iterdir()] == [name]  # no frame, no key


class TestReplacing:
    """replacing(path): <path>.tmp replaces path only when its block succeeds."""

    def test_success_replaces_the_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with replacing(str(path)) as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old"
        assert path.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_exception_in_the_block_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with pytest.raises(KeyError):
            with replacing(str(path)) as fh:
                fh.write(b"half")
                raise KeyError("stop")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_failed_replace_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out"
        path.write_bytes(b"old")

        def no_room(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(wire.os, "replace", no_room)
        with pytest.raises(OSError, match="No space left"):
            with replacing(str(path)) as fh:
                fh.write(b"new")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_failed_open_creates_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with replacing(str(tmp_path / "missing" / "out")):
                pass
        assert list(tmp_path.iterdir()) == []


class TestOpenRegular:
    """open_regular refuses whatever is not a regular file, without waiting on it."""

    def test_directory_refused(self, tmp_path):
        with pytest.raises(FrameError, match=f"peer frame {tmp_path} is not a regular file"):
            open_regular(str(tmp_path), FrameError, "peer frame")

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_device_refused(self):
        with pytest.raises(ParameterError, match="--eta0 /dev/null is not a regular file"):
            open_regular("/dev/null", ParameterError, "--eta0")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_without_writer_refused_at_once(self, tmp_path):
        # a blocking open would wait for a writer: the open runs on a
        # thread, and a writer end opened after 10 s releases a regression
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        raised = []

        def attempt():
            try:
                open_regular(str(fifo), ParameterError, "parameter file").close()
            except Exception as exc:
                raised.append(exc)

        t = threading.Thread(target=attempt, daemon=True)
        t.start()
        t.join(10)
        blocked = t.is_alive()
        if blocked:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            t.join(10)
        assert not blocked
        assert isinstance(raised[0], ParameterError)
        assert f"parameter file {fifo} is not a regular file" in str(raised[0])
