"""Matrix-power-function key agreement toolkit.

Implements two key agreement protocols over Z_p integer matrices (a
rectangular single-shot variant and a multi-round rank-deficient
variant), a KEM wrapper built from HMAC-SHA3-512 masking, and the wire
format plus CLI that let two processes run either protocol end to end.
"""

from .core import (
    FieldParams,
    Matrix,
    canonical_bytes,
    is_probable_prime,
    mat_mul_mod,
    mat_pow_mod,
    mat_scalar_mul_mod,
    matrix_values,
    rank_mod_p,
    sample_matrix,
)
from .errors import (
    FrameError,
    MpfKapError,
    ParameterError,
    ProtocolError,
    SerializationError,
    TransportError,
)
from .kem import (
    KemContext,
    auth_tag,
    hmac512,
    kem_decapsulate,
    kem_encapsulate,
    kem_initiate,
    mask_stream,
)
from .rdmpf import (
    RdmpfRoundPrivate,
    RdmpfSession,
    RdmpfSetup,
    parse_token_list,
    round_key,
    round_keygen,
    session_digest,
)
from .rmpf import (
    RmpfPrivate,
    RmpfSession,
    RmpfSetup,
    derive_key,
    keygen,
    mpf_double,
)
from .wire import generate_setup

__version__ = "0.1.0"

__all__ = [
    "FieldParams",
    "FrameError",
    "KemContext",
    "Matrix",
    "MpfKapError",
    "ParameterError",
    "ProtocolError",
    "RdmpfRoundPrivate",
    "RdmpfSession",
    "RdmpfSetup",
    "RmpfPrivate",
    "RmpfSession",
    "RmpfSetup",
    "SerializationError",
    "TransportError",
    "auth_tag",
    "canonical_bytes",
    "derive_key",
    "generate_setup",
    "hmac512",
    "is_probable_prime",
    "kem_decapsulate",
    "kem_encapsulate",
    "kem_initiate",
    "keygen",
    "mask_stream",
    "mat_mul_mod",
    "mat_pow_mod",
    "mat_scalar_mul_mod",
    "matrix_values",
    "mpf_double",
    "parse_token_list",
    "rank_mod_p",
    "round_key",
    "round_keygen",
    "sample_matrix",
    "session_digest",
]
