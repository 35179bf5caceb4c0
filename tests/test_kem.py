import hashlib
import hmac as stdlib_hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfkap import (
    KemContext,
    KemMessage,
    MpfKapError,
    ParameterError,
    ProtocolError,
    RdmpfSession,
    auth_tag,
    canonical_bytes,
    generate_setup,
    hmac512,
    kem_decapsulate,
    kem_encapsulate,
    kem_initiate,
    mask_stream,
    matrix_values,
)
from mpfkap.kem import xor_bytes


def manual_hmac_sha3_512(key: bytes, msg: bytes) -> bytes:
    """Independent textbook HMAC over the 72-byte SHA3-512 block."""
    block = 72
    if len(key) > block:
        key = hashlib.sha3_512(key).digest()
    key = key + b"\x00" * (block - len(key))
    inner = hashlib.sha3_512(bytes(b ^ 0x36 for b in key) + msg).digest()
    return hashlib.sha3_512(bytes(b ^ 0x5C for b in key) + inner).digest()


def make_ctx(rng: random.Random) -> KemContext:
    eta0 = rng.getrandbits(512).to_bytes(64, "big")
    return KemContext(eta0, auth_tag("party-a"), auth_tag("party-b"))


def encapsulate(ctx, setup, rng, close_b):
    """Alice's move with a fresh session; eta_m and K come from rng after her exponents."""
    return kem_encapsulate(ctx, RdmpfSession(setup, rng), close_b, rng)


class TestHmac512:
    # key 00..3f with the standard sample message; tag cross-checked
    # against the textbook construction above and stdlib hmac
    KNOWN_KEY = bytes(range(64))
    KNOWN_MSG = b"Sample message for keylen<blocklen"
    KNOWN_TAG = bytes.fromhex(
        "4efd629d6c71bf86162658f29943b1c308ce27cdfa6db0d9c3ce81763f9cbce5"
        "f7ebe9868031db1a8f8eb7b6b95e5c5e3f657a8996c86a2f6527e307f0213196"
    )

    def test_known_vector(self):
        assert hmac512(self.KNOWN_KEY, self.KNOWN_MSG) == self.KNOWN_TAG
        assert manual_hmac_sha3_512(self.KNOWN_KEY, self.KNOWN_MSG) == self.KNOWN_TAG

    def test_block_size_assumption(self):
        assert hashlib.sha3_512().block_size == 72

    @settings(max_examples=100)
    @given(st.binary(max_size=100), st.binary(max_size=200))
    def test_matches_textbook_construction(self, key, msg):
        assert hmac512(key, msg) == manual_hmac_sha3_512(key, msg)

    def test_deterministic(self):
        assert hmac512(b"k", b"m") == hmac512(b"k", b"m")

    def test_message_sensitivity(self):
        assert hmac512(b"k", b"m0") != hmac512(b"k", b"m1")

    def test_matches_stdlib(self):
        rng = random.Random(40)
        for _ in range(20):
            key = rng.getrandbits(256).to_bytes(32, "big")
            msg = rng.getrandbits(400).to_bytes(50, "big")
            assert hmac512(key, msg) == stdlib_hmac.new(key, msg, hashlib.sha3_512).digest()


class TestMaskStream:
    def test_length_zero(self):
        assert mask_stream(b"k", b"c", 0) == b""

    def test_single_block(self):
        assert mask_stream(b"k", b"ctx", 64) == hmac512(b"k", b"ctx" + b"\x00" * 8)

    def test_multi_block_structure(self):
        stream = mask_stream(b"k", b"ctx", 130)
        assert stream[:64] == hmac512(b"k", b"ctx" + (0).to_bytes(8, "big"))
        assert stream[64:128] == hmac512(b"k", b"ctx" + (1).to_bytes(8, "big"))
        assert len(stream) == 130

    def test_deterministic(self):
        assert mask_stream(b"a", b"b", 100) == mask_stream(b"a", b"b", 100)

    @settings(max_examples=50)
    @given(st.binary(min_size=1, max_size=300))
    def test_masking_is_an_involution(self, data):
        key, ctx = b"key", b"context"
        masked = bytes(
            x ^ y for x, y in zip(data, mask_stream(key, ctx, len(data)))
        )
        unmasked = bytes(
            x ^ y for x, y in zip(masked, mask_stream(key, ctx, len(data)))
        )
        assert unmasked == data

    def test_negative_length(self):
        with pytest.raises(ParameterError):
            mask_stream(b"k", b"c", -1)


class TestXorBytes:
    @pytest.mark.parametrize("length", [0, 1, 63, 4096])
    def test_matches_the_bytewise_xor(self, length):
        # leading zero bytes must survive the integer round trip
        rng = random.Random(length)
        a = (bytes(2) + rng.randbytes(length))[:length]
        b = (bytes(1) + rng.randbytes(length))[:length]
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))
        assert xor_bytes(a, a) == bytes(length)

    def test_unequal_lengths_refused(self):
        with pytest.raises(ParameterError, match="xor needs equal lengths, got 3 and 2"):
            xor_bytes(b"abc", b"ab")


class TestContextValidation:
    def test_auth_tag_size(self):
        assert len(auth_tag("anyone")) == 32
        assert auth_tag(b"x") == auth_tag("x")

    def test_eta0_size_enforced(self):
        with pytest.raises(ParameterError):
            KemContext(b"\x00" * 63, b"\x00" * 32, b"\x00" * 32)

    def test_tag_sizes_enforced(self):
        with pytest.raises(ParameterError):
            KemContext(b"\x00" * 64, b"\x00" * 31, b"\x00" * 32)

    def test_message_sizes_enforced(self):
        with pytest.raises(ProtocolError):
            KemMessage(encap=b"\x00" * 63, close_a=b"", eta_m=b"\x00" * 64)
        with pytest.raises(ProtocolError):
            KemMessage(encap=b"\x00" * 64, close_a=b"", eta_m=b"\x00" * 10)


class TestRoundTrip:
    def test_loopback_recovers_k(self):
        rng = random.Random(41)
        setup = generate_setup(3, 65537, 500, 2, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(1))
        close_b = kem_initiate(ctx, bob)
        k, msg = encapsulate(ctx, setup, random.Random(2), close_b)
        assert kem_decapsulate(ctx, bob, msg) == k
        assert len(k) == 64

    @pytest.mark.parametrize("seed, dim, p, exp_max, rounds, digest", [
        (41, 3, 65537, 500, 2, "fe5596e7c73d2069c8b894b1e76452823b86fedea7ea283371422d7b31b8ee35"),
        (42, 3, 65537, 500, 1, "adebce3c172a27f5ae7f2eeba6496ec236350424fbdbe166469c46c01d8d7470"),
        (46, 3, 65537, 500, 1, "98819975bbe13a56cb14a883defe04614c05d1bb85d31e806b3cceed7ab6205d"),
        (48, 3, 65537, 500, 1, "6a846a0eb8c95e030efb58c3d676b7fd35385363a05cbe2c03e79159b7c84b4a"),
        (49, 3, 65537, 500, 2, "0acfdac48fb985b274ea11b18910e65e6471f02b35087cf2ea21271f459d797a"),
        (50, 2, 2**64 - 59, 2**63, 128,
         "2d13efb70de94173565c2ad1845aee20e22f51a0a87c3bded18122c2f17babdd"),
    ])
    def test_outputs_pinned(self, seed, dim, p, exp_max, rounds, digest):
        # SHA-256 of close_b, K, encap, eta_m and close_a, recorded when
        # each round raised its bases on its own and alice drew her
        # exponents after close_b arrived
        rng = random.Random(seed)
        setup = generate_setup(dim, p, exp_max, rounds, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(1))
        close_b = kem_initiate(ctx, bob)
        k, msg = encapsulate(ctx, setup, random.Random(2), close_b)
        assert kem_decapsulate(ctx, bob, msg) == k
        wire = close_b + k + msg.encap + msg.eta_m + msg.close_a
        assert hashlib.sha256(wire).hexdigest() == digest

    def test_close_b_is_xor_recoverable(self):
        rng = random.Random(42)
        setup = generate_setup(3, 65537, 500, 1, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(3))
        close_b = kem_initiate(ctx, bob)
        token_bytes = canonical_bytes(matrix_values(bob.tokens))
        keystream = mask_stream(ctx.eta0, ctx.auth_pair, len(token_bytes))
        assert bytes(a ^ b for a, b in zip(close_b, keystream)) == token_bytes
        # the masked difference IS the keystream: nothing token-shaped on the wire
        assert bytes(a ^ b for a, b in zip(close_b, token_bytes)) == keystream

    def test_seeded_initiate_deterministic(self):
        rng = random.Random(43)
        setup = generate_setup(3, 65537, 500, 2, rng)
        ctx = make_ctx(rng)
        one = kem_initiate(ctx, RdmpfSession(setup, random.Random(7)))
        two = kem_initiate(ctx, RdmpfSession(setup, random.Random(7)))
        assert one == two

    def test_zero_eta_m_still_round_trips(self):
        class ZeroNonceRng(random.Random):
            def __init__(self):
                super().__init__(8)
                self.wide_draws = 0

            def getrandbits(self, n):
                # the first 512-bit draw is eta_m; force it to zero
                # (smaller draws come from randint inside token generation)
                if n == 512:
                    self.wide_draws += 1
                    if self.wide_draws == 1:
                        return 0
                return super().getrandbits(n)

        rng = random.Random(44)
        setup = generate_setup(3, 65537, 500, 1, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(9))
        close_b = kem_initiate(ctx, bob)
        k, msg = encapsulate(ctx, setup, ZeroNonceRng(), close_b)
        assert msg.eta_m == b"\x00" * 64
        assert kem_decapsulate(ctx, bob, msg) == k

    def test_nonce_and_key_come_from_the_rng_passed(self):
        # eta_m and then K are the first two 512-bit draws of the rng
        # kem_encapsulate is given, whatever source drew the exponents
        rng = random.Random(47)
        setup = generate_setup(3, 65537, 500, 1, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(1))
        source, twin = random.Random(5), random.Random(5)
        k, msg = kem_encapsulate(ctx, RdmpfSession(setup, random.Random(2)),
                                 kem_initiate(ctx, bob), source)
        assert msg.eta_m == twin.getrandbits(512).to_bytes(64, "big")
        assert k == twin.getrandbits(512).to_bytes(64, "big")
        assert source.getstate() == twin.getstate()
        assert kem_decapsulate(ctx, bob, msg) == k

    def test_wrong_close_b_length(self):
        rng = random.Random(45)
        setup = generate_setup(3, 65537, 500, 1, rng)
        ctx = make_ctx(rng)
        with pytest.raises(ProtocolError):
            encapsulate(ctx, setup, random.Random(1), b"\x00" * 10)

    @staticmethod
    def tokens_with_p(setup):
        # a valid-length token list whose first value is p, outside [0, p)
        values = [1] * (setup.rounds * setup.dim * setup.dim)
        values[0] = setup.params.p
        return canonical_bytes(values)

    def test_close_b_token_equal_to_p_refused(self):
        rng = random.Random(45)
        setup = generate_setup(3, 65537, 500, 1, rng)
        ctx = make_ctx(rng)
        tokens = self.tokens_with_p(setup)
        close_b = xor_bytes(tokens, mask_stream(ctx.eta0, ctx.auth_pair, len(tokens)))
        with pytest.raises(ProtocolError, match=r"peer token value out of \[0, p\) range"):
            encapsulate(ctx, setup, random.Random(1), close_b)

    def test_close_a_token_equal_to_p_refused(self):
        rng = random.Random(45)
        setup = generate_setup(3, 65537, 500, 1, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(1))
        tokens, eta_m = self.tokens_with_p(setup), bytes(range(64))
        bound = xor_bytes(ctx.auth_pair, eta_m)
        close_a = xor_bytes(tokens, mask_stream(ctx.eta0, bound, len(tokens)))
        with pytest.raises(ProtocolError, match=r"peer token value out of \[0, p\) range"):
            kem_decapsulate(ctx, bob, KemMessage(bytes(64), close_a, eta_m))

    def test_truncated_close_a_rejected(self):
        rng = random.Random(46)
        setup = generate_setup(3, 65537, 500, 1, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(1))
        close_b = kem_initiate(ctx, bob)
        k, msg = encapsulate(ctx, setup, random.Random(2), close_b)
        truncated = KemMessage(msg.encap, msg.close_a[:-8], msg.eta_m)
        with pytest.raises(ProtocolError):
            kem_decapsulate(ctx, bob, truncated)

    def test_zero_entry_in_close_a_rejected(self):
        rng = random.Random(49)
        setup = generate_setup(3, 65537, 500, 2, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(1))
        close_b = kem_initiate(ctx, bob)
        _, msg = encapsulate(ctx, setup, random.Random(2), close_b)
        bound = bytes(a ^ b for a, b in zip(ctx.auth_pair, msg.eta_m))
        keystream = mask_stream(ctx.eta0, bound, len(msg.close_a))
        plain = bytearray(a ^ b for a, b in zip(msg.close_a, keystream))
        plain[8 * 13 : 8 * 14] = bytes(8)  # second round token, entry (1, 1)
        close_a = bytes(a ^ b for a, b in zip(plain, keystream))
        with pytest.raises(ProtocolError, match="zero"):
            kem_decapsulate(ctx, bob, KemMessage(msg.encap, close_a, msg.eta_m))

    def test_tampered_close_b_breaks_agreement(self):
        rng = random.Random(47)
        setup = generate_setup(3, 65537, 500, 1, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(1))
        close_b = kem_initiate(ctx, bob)
        tampered = bytearray(close_b)
        tampered[5] ^= 0x08
        try:
            k, msg = encapsulate(ctx, setup, random.Random(2), bytes(tampered))
            assert kem_decapsulate(ctx, bob, msg) != k
        except MpfKapError:
            pass  # strict parsing may reject the garbled token list outright

    def test_replaced_eta_m_changes_k(self):
        rng = random.Random(48)
        setup = generate_setup(3, 65537, 500, 1, rng)
        ctx = make_ctx(rng)
        bob = RdmpfSession(setup, random.Random(1))
        close_b = kem_initiate(ctx, bob)
        k, msg = encapsulate(ctx, setup, random.Random(2), close_b)
        swapped = KemMessage(msg.encap, msg.close_a, bytes(64))
        try:
            assert kem_decapsulate(ctx, bob, swapped) != k
        except MpfKapError:
            pass

    def test_nonce_binding(self):
        # changing eta_m must change both the close_a mask and the encap mask
        ctx = KemContext(bytes(64), auth_tag("a"), auth_tag("b"))
        eta1 = bytes(64)
        eta2 = b"\x01" + bytes(63)
        ctx1 = bytes(a ^ b for a, b in zip(ctx.auth_pair, eta1))
        ctx2 = bytes(a ^ b for a, b in zip(ctx.auth_pair, eta2))
        assert mask_stream(ctx.eta0, ctx1, 64) != mask_stream(ctx.eta0, ctx2, 64)
        key = b"\x42" * 64
        assert hmac512(key, ctx1) != hmac512(key, ctx2)
