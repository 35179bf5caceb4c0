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

from mpfkap import MpfKapError
from mpfkap.cli import _parse_encap_payload
from mpfkap.core import canonical_bytes, matrix_values
from mpfkap.kem import KEY_BYTES, NONCE_BYTES, _mask, _unmask_tokens
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
@given(near(bytes(range(KEY_BYTES + NONCE_BYTES)) + canonical_bytes(matrix_values(TOKENS))))
def test_parse_encap_payload(data):
    value = parsed(_parse_encap_payload, data)
    if value is not None:
        assert value.encap + value.eta_m + value.close_a == data


@BOUNDED
@given(near(_mask(canonical_bytes(matrix_values(TOKENS)), MASK_KEY, MASK_CONTEXT)))
def test_unmask_tokens(data):
    value = parsed(lambda d: _unmask_tokens("close_b", d, MASK_KEY, MASK_CONTEXT, SETUP), data)
    if value is not None:
        assert _mask(canonical_bytes(matrix_values(value)), MASK_KEY, MASK_CONTEXT) == data
