"""Key encapsulation over the multi-round RDMPF key agreement.

All otherwise-public token traffic is masked with an HMAC-SHA3-512
keystream keyed by a 512-bit shared root nonce, and the encapsulated
512-bit key K is masked with an HMAC keyed by the agreed session digest.
Bob initiates (CloseB), Alice encapsulates ({Encap, CloseA, eta_m}), Bob
decapsulates.  Each party builds one RdmpfSession, which generates its
rounds, before it waits for the peer, since neither side's rounds need
anything from the other; every move takes that session.
"""

from __future__ import annotations

import random

from .core import WORD_BYTES, Record, canonical_bytes, canonical_values, matrix_values
from .errors import ParameterError, ProtocolError
from .rdmpf import RdmpfSession, RdmpfSetup, parse_token_list

NONCE_BYTES = 64  # eta_0 and eta_m are 512 bits
KEY_BYTES = 64  # encapsulated K is 512 bits
AUTH_TAG_BYTES = 32  # authA/authB are 256 bits


def hmac512(key: bytes, msg: bytes) -> bytes:
    """HMAC with SHA3-512 (64-byte tags, 72-byte block size)."""
    import hashlib  # on first hash: it loads OpenSSL, which setup never needs
    import hmac

    return hmac.new(key, msg, hashlib.sha3_512).digest()


def auth_tag(identity: bytes | str) -> bytes:
    """Derive a 256-bit public authentication tag from a party identity."""
    import hashlib  # on first hash, as in hmac512

    if isinstance(identity, str):
        identity = identity.encode()
    return hashlib.sha3_256(identity).digest()


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ParameterError(f"xor needs equal lengths, got {len(a)} and {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def mask_stream(key: bytes, context: bytes, length: int) -> bytes:
    """Counter-extended HMAC keystream truncated to length bytes.

    Block i is HMAC(key, context || i) with an 8-byte big-endian counter,
    so a single 64-byte block is exactly HMAC(key, context || 0).
    """
    if length < 0:
        raise ParameterError(f"length must be non-negative, got {length}")
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hmac512(key, context + counter.to_bytes(8, "big"))
        counter += 1
    return bytes(out[:length])


def _mask(data: bytes, key: bytes, context: bytes) -> bytes:
    """data XOR the mask_stream keyed by key over context; it is its own inverse."""
    return xor_bytes(data, mask_stream(key, context, len(data)))


class KemContext(Record):
    """Root nonce (shared secret) plus the two public authentication tags."""

    __slots__ = ("eta0", "auth_a", "auth_b")

    def __init__(self, eta0: bytes, auth_a: bytes, auth_b: bytes):
        if len(eta0) != NONCE_BYTES:
            raise ParameterError(f"eta0 must be {NONCE_BYTES} bytes, got {len(eta0)}")
        if len(auth_a) != AUTH_TAG_BYTES or len(auth_b) != AUTH_TAG_BYTES:
            raise ParameterError(f"auth tags must be {AUTH_TAG_BYTES} bytes each")
        self._set(eta0, auth_a, auth_b)

    @property
    def auth_pair(self) -> bytes:
        return self.auth_a + self.auth_b


class KemMessage(Record):
    """The encapsulation message Alice sends to Bob."""

    __slots__ = ("encap", "close_a", "eta_m")

    def __init__(self, encap: bytes, close_a: bytes, eta_m: bytes):
        if len(encap) != KEY_BYTES:
            raise ProtocolError(f"encap must be {KEY_BYTES} bytes, got {len(encap)}")
        if len(eta_m) != NONCE_BYTES:
            raise ProtocolError(f"eta_m must be {NONCE_BYTES} bytes, got {len(eta_m)}")
        self._set(encap, close_a, eta_m)


def _unmask_tokens(name: str, masked: bytes, key: bytes, context: bytes, setup: RdmpfSetup):
    """The peer's round tokens from its masked list, which must be exactly their size."""
    expected = setup.rounds * setup.dim * setup.dim * WORD_BYTES
    if len(masked) != expected:
        raise ProtocolError(f"{name} is {len(masked)} bytes, expected {expected}")
    values = canonical_values(_mask(masked, key, context))
    return parse_token_list(values, setup.dim, setup.rounds, setup.params.p)


def kem_initiate(ctx: KemContext, session: RdmpfSession) -> bytes:
    """Bob's opening move: close_b, his masked token list.

    session holds his rounds, as kem_encapsulate's holds alice's.
    """
    return _mask(canonical_bytes(matrix_values(session.tokens)), ctx.eta0, ctx.auth_pair)


def kem_encapsulate(
    ctx: KemContext, session: RdmpfSession, close_b: bytes, rng: random.Random
) -> tuple[bytes, KemMessage]:
    """Alice's move: agree on the session key and encapsulate a fresh K.

    session holds her rounds, which need nothing from close_b; eta_m and
    then K come from rng, which the CLI also drew her exponents from.
    """
    peer_tokens = _unmask_tokens("close_b", close_b, ctx.eta0, ctx.auth_pair, session.setup)
    shared = session.derive(peer_tokens)

    eta_m = rng.getrandbits(8 * NONCE_BYTES).to_bytes(NONCE_BYTES, "big")
    k = rng.getrandbits(8 * KEY_BYTES).to_bytes(KEY_BYTES, "big")

    bound_context = xor_bytes(ctx.auth_pair, eta_m)
    close_a = _mask(canonical_bytes(matrix_values(session.tokens)), ctx.eta0, bound_context)
    encap = xor_bytes(k, hmac512(shared, bound_context))
    return k, KemMessage(encap, close_a, eta_m)


def kem_decapsulate(ctx: KemContext, session: RdmpfSession, msg: KemMessage) -> bytes:
    """Bob's closing move: recover the peer tokens and unmask K."""
    bound_context = xor_bytes(ctx.auth_pair, msg.eta_m)
    peer_tokens = _unmask_tokens("close_a", msg.close_a, ctx.eta0, bound_context, session.setup)
    shared = session.derive(peer_tokens)
    return xor_bytes(msg.encap, hmac512(shared, bound_context))
