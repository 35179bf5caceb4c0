"""Every byte parser, on inputs near valid ones: a value or an MpfKapError.

Each parser gets its own valid encodings, the same bytes after up to
three edits (bytes overwritten, inserted or deleted; a frame's length
field may then be set to its new payload length), and short random
strings.  Whatever decodes must encode back to the bytes it came from;
a parameter-file text, whose JSON may spell one value many ways,
must encode back to the same value, in to_json's own spelling.  The
examples are derandomized and bounded, so the suite stays deterministic.
"""

import json
import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from mpfkap import MpfKapError, RdmpfSession
from mpfkap.core import canonical_bytes, matrix_values
from mpfkap.kem import (
    KEY_BYTES,
    NONCE_BYTES,
    KemContext,
    _mask,
    _unmask_tokens,
    hmac512,
    kem_decapsulate,
    kem_encapsulate,
    kem_initiate,
    xor_bytes,
)
from mpfkap.wire import (
    HEADER_LEN,
    MAGIC,
    ParamSet,
    decode_frame,
    decode_token_list,
    encode_frame,
    encode_token_list,
    generate_paramset,
    generate_setup,
)

P = 2**64 - 59  # nearly every 8-byte word is below it, so edited matrices still decode
BOUNDED = settings(derandomize=True, max_examples=300, deadline=None, database=None)

_RNG = random.Random(2718)
RMPF, _ = generate_paramset("rmpf", P, _RNG, rows=3, cols=2, seed=7)
RDMPF, _ = generate_paramset("rdmpf", P, _RNG, dim=2, exp_max=100, rounds=2, sigma=3)
SETUP = generate_setup(2, P, 100, 2, _RNG)
TOKENS = [RDMPF.matrices["w"], RDMPF.matrices["base_xu"]]
MASK_KEY, MASK_CONTEXT = bytes(range(64)), b"context"
KEM_CTX = KemContext(MASK_KEY, bytes(32), bytes(range(32)))
BOB = RdmpfSession(SETUP, random.Random(1))
KEM_K, KEM_MESSAGE = kem_encapsulate(KEM_CTX, RdmpfSession(SETUP, random.Random(2)),
                                     kem_initiate(KEM_CTX, BOB), random.Random(3))


def near(*valid: bytes):
    """valid encodings, each also with up to three edits, and short random strings."""

    def edited(args):
        seed, edits, refit = args
        data = bytearray(seed)
        for op, at, chunk in edits:
            at = min(at, len(data))
            if op == "set":
                data[at : at + len(chunk)] = chunk
            elif op == "insert":
                data[at:at] = chunk
            else:
                del data[at : at + len(chunk)]
        if refit and data[:4] == MAGIC and len(data) >= HEADER_LEN:
            data[6:HEADER_LEN] = struct.pack(">I", len(data) - HEADER_LEN)
        return bytes(data)

    edit = st.tuples(st.sampled_from(("set", "insert", "delete")),
                     st.integers(0, max(map(len, valid))), st.binary(min_size=1, max_size=4))
    seeds = st.sampled_from(valid)
    edits = st.tuples(seeds, st.lists(edit, min_size=1, max_size=3), st.booleans())
    return st.one_of(seeds, edits.map(edited), st.binary(max_size=40))


def parsed(parse, data):
    """parse(data), or None when it raises an MpfKapError; any other exception fails."""
    try:
        return parse(data)
    except MpfKapError:
        return None


@BOUNDED
@given(near(encode_frame("token-list", encode_token_list(TOKENS)), encode_frame("error", b"x"),
            RDMPF.to_frame()))
def test_decode_frame(data):
    value = parsed(decode_frame, data)
    if value is not None:
        assert encode_frame(*value) == data


@BOUNDED
@given(near(encode_token_list(TOKENS), encode_token_list(TOKENS[:1])))
def test_decode_token_list(data):
    value = parsed(lambda d: decode_token_list(d, P), data)
    if value is not None:
        assert encode_token_list(value) == data


@BOUNDED
@given(near(RMPF.to_frame(), RDMPF.to_frame()))
def test_paramset_from_frame(data):
    value = parsed(ParamSet.from_frame, data)
    if value is not None:
        assert value.to_frame() == data


@BOUNDED
@given(near(RMPF.to_json().encode(), RDMPF.to_json().encode()))
def test_paramset_from_json(data):
    text = data.decode("utf-8", "replace")
    value = parsed(ParamSet.from_json, text)
    if value is not None:
        canonical = value.to_json()
        assert canonical == json.dumps(json.loads(canonical), indent=2) + "\n"
        assert ParamSet.from_json(canonical) == value == ParamSet.from_frame(value.to_frame())
        if text in (RMPF.to_json(), RDMPF.to_json()):
            assert canonical == text


@BOUNDED
@given(near(KEM_MESSAGE))
def test_kem_decapsulate(data):
    # whatever decapsulates is K unmasked by the fixed fields encap and
    # eta_m, with the shared key from the tokens masked in the rest
    value = parsed(lambda d: kem_decapsulate(KEM_CTX, BOB, d), data)
    if value is not None:
        head = KEY_BYTES + NONCE_BYTES
        bound = xor_bytes(KEM_CTX.auth_pair, data[KEY_BYTES:head])
        tokens = _unmask_tokens("close_a", data[head:], KEM_CTX.eta0, bound, SETUP)
        assert value == xor_bytes(data[:KEY_BYTES], hmac512(BOB.derive(tokens), bound))
    if data == KEM_MESSAGE:
        assert value == KEM_K


@BOUNDED
@given(near(_mask(canonical_bytes(matrix_values(TOKENS)), MASK_KEY, MASK_CONTEXT)))
def test_unmask_tokens(data):
    value = parsed(lambda d: _unmask_tokens("close_b", d, MASK_KEY, MASK_CONTEXT, SETUP), data)
    if value is not None:
        assert _mask(canonical_bytes(matrix_values(value)), MASK_KEY, MASK_CONTEXT) == data
