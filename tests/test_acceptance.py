"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated later.
"""

import random
import socket
import time
from contextlib import contextmanager

from conftest import run_cli, spawn_cli, wait_cli
from mpfkap import (
    FieldParams,
    KemContext,
    KemMessage,
    Matrix,
    MpfKapError,
    RdmpfSession,
    RmpfSetup,
    auth_tag,
    derive_key,
    generate_setup,
    kem_decapsulate,
    kem_encapsulate,
    kem_initiate,
    keygen,
    mat_mul_mod,
    mat_scalar_mul_mod,
    matrix_values,
    mpf_double,
    sample_matrix,
)
from mpfkap import known_answers as ka
from mpfkap.bench import bench_rdmpf, ratios_vs_baseline
from mpfkap.rdmpf import rdmpf
from mpfkap.wire import (
    FRAME_KINDS,
    MAGIC,
    VERSION,
    check_header,
    decode_frame,
    encode_frame,
    load_paramset,
    payload_limits,
)
from mpfkap.errors import FrameError
from one_sided import mpf_left, mpf_right, transpose


@contextmanager
def criterion(num, description):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\n[criterion {num}] {description}: {'PASS' if ok else 'FAIL'}")


def rand_exponents(rows, cols, em, rng):
    return Matrix.from_rows(
        [[rng.randrange(em) for _ in range(cols)] for _ in range(rows)], em
    )


def test_criterion_1_rectangular_golden_vectors():
    with criterion(1, "protocol-1 golden vectors, entry-exact, < 1 s"):
        start = time.perf_counter()
        setup = ka.rmpf_setup()
        em = setup.params.exp_modulus

        a1 = mat_scalar_mul_mod(ka.RMPF_LAMBDA_A, setup.x, em)
        b1 = mat_scalar_mul_mod(ka.RMPF_OMEGA_A, setup.y, em)
        assert a1.to_rows() == ka.RMPF_A1
        assert b1.to_rows() == ka.RMPF_B1

        priv_a, token_a = keygen(setup, random.Random(0), ka.RMPF_LAMBDA_A, ka.RMPF_OMEGA_A)
        priv_b, token_b = keygen(setup, random.Random(0), ka.RMPF_LAMBDA_B, ka.RMPF_OMEGA_B)
        assert token_a.to_rows() == ka.RMPF_TOKEN_A
        assert priv_b.a.to_rows() == ka.RMPF_A2
        assert priv_b.b.to_rows() == ka.RMPF_B2
        assert token_b.to_rows() == ka.RMPF_TOKEN_B

        key_a = derive_key(priv_a, token_b, setup)
        key_b = derive_key(priv_b, token_a, setup)
        assert key_a.to_rows() == ka.RMPF_KEY
        assert key_b.to_rows() == ka.RMPF_KEY
        assert key_a == key_b

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_2_rank_deficient_golden_vectors():
    with criterion(2, "protocol-2 golden vectors, both rounds, < 5 s"):
        start = time.perf_counter()
        setup = ka.rdmpf_setup()
        em = setup.params.exp_modulus

        from mpfkap import mat_pow_mod

        for vec in ka.RDMPF_ROUND_VECTORS:
            assert mat_pow_mod(setup.base_xu, vec.rand_x, em).to_rows() == vec.x
            assert mat_pow_mod(setup.base_yv, vec.rand_y, em).to_rows() == vec.y
            assert mat_pow_mod(setup.base_xu, vec.rand_u, em).to_rows() == vec.u
            assert mat_pow_mod(setup.base_yv, vec.rand_v, em).to_rows() == vec.v

        alice = RdmpfSession(setup, injected=[(v.rand_x, v.rand_y) for v in ka.RDMPF_ROUND_VECTORS])
        bob = RdmpfSession(setup, injected=[(v.rand_u, v.rand_v) for v in ka.RDMPF_ROUND_VECTORS])
        for idx, vec in enumerate(ka.RDMPF_ROUND_VECTORS):
            assert alice.tokens[idx].to_rows() == vec.token_a
            assert bob.tokens[idx].to_rows() == vec.token_b

        keys_a, keys_b = alice.round_keys(bob.tokens), bob.round_keys(alice.tokens)
        for idx, vec in enumerate(ka.RDMPF_ROUND_VECTORS):
            assert keys_a[idx].to_rows() == vec.key
            assert keys_b[idx].to_rows() == vec.key

        tokens_a, tokens_b = matrix_values(alice.tokens), matrix_values(bob.tokens)
        key_list_a, key_list_b = matrix_values(keys_a), matrix_values(keys_b)
        assert (tokens_a[0], tokens_a[-1]) == (53838, 19667)
        assert (tokens_b[0], tokens_b[-1]) == (29348, 13589)
        assert (key_list_a[0], key_list_a[-1]) == (20743, 12282)
        assert key_list_a == key_list_b
        assert len(tokens_a) == len(tokens_b) == len(key_list_a) == 50

        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f} s"


def test_criterion_3_session_digest():
    with criterion(3, "identical 64-byte SHA3-512 session keys + pinned digest"):
        setup = ka.rdmpf_setup()
        alice = RdmpfSession(setup, injected=[(v.rand_x, v.rand_y) for v in ka.RDMPF_ROUND_VECTORS])
        bob = RdmpfSession(setup, injected=[(v.rand_u, v.rand_v) for v in ka.RDMPF_ROUND_VECTORS])
        key_a = alice.derive(bob.tokens)
        key_b = bob.derive(alice.tokens)
        assert type(key_a) is bytes and len(key_a) == 64
        assert key_a == key_b
        # the digest depends on this library's canonical byte encoding
        # (no external encoding exists to match), so the pin is our own
        assert key_a.hex() == ka.PINNED_SESSION_DIGEST_HEX


def test_criterion_4_random_agreement_property():
    with criterion(4, "100+100 protocol-1 and 100 protocol-2 random runs, 0 failures"):
        rng = random.Random(0xACCE01)
        for rows, cols, p in ((3, 2, 7), (5, 3, 65537)):
            for _ in range(100):
                setup = RmpfSetup(
                    FieldParams(p),
                    sample_matrix(rows, cols, p, rng, mode="unit_entries"),
                    sample_matrix(rows, cols, p, rng, mode="unit_entries"),
                    sample_matrix(rows, cols, p, rng, mode="unit_entries"),
                )
                priv_a, token_a = keygen(setup, rng)
                priv_b, token_b = keygen(setup, rng)
                assert derive_key(priv_a, token_b, setup) == derive_key(priv_b, token_a, setup)

        for _ in range(100):
            dim = rng.choice((3, 5))
            rounds = rng.choice((1, 2, 3))
            sigma = rng.choice((1, rng.randrange(2, 65536)))
            setup = generate_setup(dim, 65537, 1000, rounds, rng, sigma=sigma)
            alice = RdmpfSession(setup, rng)
            bob = RdmpfSession(setup, rng)
            assert alice.derive(bob.tokens) == bob.derive(alice.tokens)


def test_criterion_5_lemma_suite():
    with criterion(5, "associativity/commutation on 1000+ instances; 10^4 oracle cases"):
        rng = random.Random(0xACCE05)

        # identity suite: >= 1000 square instances across p in {7, 65537}
        for trial in range(1000):
            p = 7 if trial % 2 else 65537
            em = p - 1
            n = rng.choice((2, 3))
            w = sample_matrix(n, n, p, rng, mode="unit_entries")
            x = rand_exponents(n, n, em, rng)
            y = rand_exponents(n, n, em, rng)

            # one-sided associativity, both sides
            assert mpf_left(y, mpf_left(x, w)) == mpf_left(mat_mul_mod(y, x, em), w)
            assert mpf_right(mpf_right(w, x), y) == mpf_right(w, mat_mul_mod(x, y, em))
            # two-sided associativity ties both one-sided actions to the double action
            assert (
                mpf_right(mpf_left(x, w), y)
                == mpf_left(x, mpf_right(w, y))
                == mpf_double(x, w, y, p)
            )
            # scalar-multiple transpose commutation
            a = mat_scalar_mul_mod(rng.randrange(1, p - 1), x, em)
            u = mat_scalar_mul_mod(rng.randrange(1, p - 1), x, em)
            assert mat_mul_mod(transpose(a), u, em) == mat_mul_mod(transpose(u), a, em)
            # exchange identity for scalar-multiple privates
            b1 = mat_scalar_mul_mod(rng.randrange(1, p - 1), y, em)
            b2 = mat_scalar_mul_mod(rng.randrange(1, p - 1), y, em)
            assert mpf_double(a, mpf_double(u, w, b2, p), b1, p) == mpf_double(
                u, mpf_double(a, w, b1, p), b2, p
            )

        # oracle suite: builtin pow with unreduced exponents, p = 7
        def oracle(xe, w, ye, p, r, sigma=1):
            out = []
            for i in range(xe.rows):
                row = []
                for j in range(xe.cols):
                    acc = 1
                    for k in range(r):
                        for l in range(r):
                            acc = acc * pow(w.at(k, l), sigma * xe.at(i, k) * ye.at(l, j), p) % p
                    row.append(acc)
                out.append(row)
            return out

        for case in range(5000):
            n = 2 if case % 2 else 3
            w = sample_matrix(n, n, 7, rng, mode="unit_entries")
            x = rand_exponents(n, n, 6, rng)
            y = rand_exponents(n, n, 6, rng)
            assert mpf_double(x, w, y, 7).to_rows() == oracle(x, w, y, 7, n)

        for case in range(5000):
            n = 2 if case % 2 else 3
            w = sample_matrix(n, n, 7, rng, mode="unit_entries")
            x = rand_exponents(n, n, 6, rng)
            y = rand_exponents(n, n, 6, rng)
            sigma = rng.randrange(0, 12)
            assert rdmpf(x, w, y, 7, sigma).to_rows() == oracle(x, w, y, 7, n, sigma)


def test_criterion_6_kem_round_trips_and_tampering():
    with criterion(6, "100 KEM loopbacks recover K; every tampered field breaks"):
        rng = random.Random(0xACCE06)

        for _ in range(100):
            dim = rng.choice((3, 5))
            rounds = rng.choice((1, 2, 3))
            setup = generate_setup(dim, 65537, 500, rounds, rng)
            ctx = KemContext(
                rng.getrandbits(512).to_bytes(64, "big"), auth_tag("a"), auth_tag("b")
            )
            bob = RdmpfSession(setup, rng)
            close_b = kem_initiate(ctx, bob)
            k, msg = kem_encapsulate(ctx, RdmpfSession(setup, rng), close_b, rng)
            assert kem_decapsulate(ctx, bob, msg) == k

        # tampering: flip one bit in each wire field, every trial must
        # yield a mismatched K or a protocol error
        for trial in range(100):
            field = ("close_b", "encap", "close_a", "eta_m")[trial % 4]
            setup = generate_setup(3, 65537, 500, 1, rng)
            ctx = KemContext(
                rng.getrandbits(512).to_bytes(64, "big"), auth_tag("a"), auth_tag("b")
            )
            bob = RdmpfSession(setup, rng)
            close_b = kem_initiate(ctx, bob)

            def flip(data):
                out = bytearray(data)
                out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
                return bytes(out)

            try:
                if field == "close_b":
                    k, msg = kem_encapsulate(ctx, RdmpfSession(setup, rng), flip(close_b), rng)
                else:
                    k, msg = kem_encapsulate(ctx, RdmpfSession(setup, rng), close_b, rng)
                    msg = KemMessage(
                        flip(msg.encap) if field == "encap" else msg.encap,
                        flip(msg.close_a) if field == "close_a" else msg.close_a,
                        flip(msg.eta_m) if field == "eta_m" else msg.eta_m,
                    )
                assert kem_decapsulate(ctx, bob, msg) != k
            except MpfKapError:
                pass


def test_criterion_7_bench_ratios():
    with criterion(7, "bench ratios: dim>100x, prime in (1,3), expMax<1.2"):
        records = bench_rdmpf(
            [(5, 997, 1000), (25, 997, 1000), (5, 4973, 1000), (5, 997, 5000)],
            trials=16,
            rng=random.Random(0xACCE07),
        )
        ratios = ratios_vs_baseline(records, baseline=(5, 997, 1000))
        dim_ratio = ratios[(25, 997, 1000)]
        prime_ratio = ratios[(5, 4973, 1000)]
        exp_ratio = ratios[(5, 997, 5000)]
        print(
            f"\n  dim 5->25 ratio {dim_ratio:.1f}; prime 997->4973 ratio "
            f"{prime_ratio:.3f}; expMax 1000->5000 ratio {exp_ratio:.3f}"
        )
        # a failing run prints every point's trials, in the order they ran
        samples = "".join(
            f"\n  {r.point}: median {r.median_s:.6g} s of {[float(f'{t:.4g}') for t in r.samples]}"
            for r in records
        )
        assert dim_ratio > 100, f"dim ratio {dim_ratio}{samples}"
        assert 1.0 < prime_ratio < 3.0, f"prime ratio {prime_ratio}{samples}"
        assert exp_ratio < 1.2, f"expMax ratio {exp_ratio}{samples}"


def test_criterion_8_transport_identical_keys_and_fuzz(tmp_path):
    with criterion(8, "file and tcp transports agree byte-for-byte; 10^4 frame fuzz"):
        params = tmp_path / "p.json"
        assert (
            run_cli(
                ["setup", "--protocol", "rdmpf", "--dim", "3", "--rounds", "2",
                 "--seed", "2024", "--out", str(params)]
            ).returncode
            == 0
        )

        # file transport
        xch = tmp_path / "xch"
        xch.mkdir()
        bob = spawn_cli(["handshake", "--role", "bob", "--params", str(params),
                         "--transport", f"file:{xch}", "--out", str(tmp_path / "bf.key"),
                         "--test-mode"])
        alice = run_cli(["handshake", "--role", "alice", "--params", str(params),
                         "--transport", f"file:{xch}", "--out", str(tmp_path / "af.key"),
                         "--test-mode"])
        assert wait_cli(bob, 90) == 0 and alice.returncode == 0

        # tcp transport, same seed
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        bob = spawn_cli(["handshake", "--role", "bob", "--params", str(params),
                         "--transport", f"tcp:127.0.0.1:{port}",
                         "--out", str(tmp_path / "bt.key"), "--test-mode"])
        time.sleep(0.3)
        alice = run_cli(["handshake", "--role", "alice", "--params", str(params),
                         "--transport", f"tcp:127.0.0.1:{port}",
                         "--out", str(tmp_path / "at.key"), "--test-mode"])
        assert wait_cli(bob, 90) == 0 and alice.returncode == 0

        af = (tmp_path / "af.key").read_bytes()
        assert af == (tmp_path / "bf.key").read_bytes()
        assert af == (tmp_path / "at.key").read_bytes()
        assert af == (tmp_path / "bt.key").read_bytes()
        assert len(af) == 64

        # frame fuzzing: 10^4 random and mutated near-valid frames, then
        # headers with a length field drawn up to 2^32-1, never crash; a
        # header passes check_header only with a length within its kind's
        # limit under this criterion's setup
        limits = payload_limits(load_paramset(str(params)).build_setup())
        kinds = {code: kind for kind, code in FRAME_KINDS.items()}
        rng = random.Random(0xACCE08)
        survived = passed = refused = 0
        for case in range(12_000):
            if case >= 10_000:
                length = rng.randrange(2 ** rng.randrange(1, 33))
                blob = (MAGIC + bytes([VERSION, rng.choice(list(kinds))])
                        + length.to_bytes(4, "big") + bytes(rng.randrange(0, 16)))
            elif case % 2:
                blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
            else:
                base = bytearray(
                    encode_frame("token-list", bytes(rng.randrange(256) for _ in range(16)))
                )
                for _ in range(rng.randrange(1, 4)):
                    base[rng.randrange(len(base))] ^= 1 << rng.randrange(8)
                blob = bytes(base)
            try:
                length = check_header(blob[:10], limits)
            except FrameError:
                refused += 1
            else:
                assert length <= limits[kinds[blob[5]]], blob[:10]
                passed += 1
            try:
                decode_frame(blob)
            except FrameError:
                pass
            survived += 1
        assert survived == 12_000
        assert passed > 100 and refused > 100, (passed, refused)
