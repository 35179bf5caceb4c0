"""Canonical wire format: frames, matrix codec, and parameter-set files.

Frames are magic "MPFX" + version + kind + 4-byte big-endian length +
payload.  Matrices travel as two 4-byte dimension counts followed by the
canonical 8-byte entry encoding, row-major; the same layout serves setup
files, token lists, and key dumps.

Parameter sets are written twice: a human-readable JSON document (the
format documented below) and a binary mirror consisting of a single
setup frame.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import struct
from typing import NamedTuple, Sequence

from .core import (
    FieldParams,
    Matrix,
    Record,
    WORD_BYTES,
    canonical_bytes,
    canonical_values,
    rank_mod_p,
    sample_matrix,
)
from .errors import FrameError, ParameterError
from .kem import KEY_BYTES, NONCE_BYTES
from .rdmpf import RdmpfSetup, sample_rank_deficient_base
from .rmpf import RmpfSetup

MAGIC = b"MPFX"
VERSION = 1
HEADER_LEN = 10
MAX_PAYLOAD = 2**32 - 1
# longest error text a peer may send; longer messages are cut to it
ERROR_PAYLOAD_MAX = 1024

FRAME_KINDS = {
    "setup": 0x01,
    "token-list": 0x02,
    "kem-close-b": 0x03,
    "kem-encap-msg": 0x04,
    "error": 0x05,
}
_KIND_NAMES = {v: k for k, v in FRAME_KINDS.items()}

PARAMSET_FORMAT = "mpfkap-paramset"
PARAMSET_VERSION = 1

_PROTO_TAGS = {"rmpf": 1, "rdmpf": 2}
_TAG_PROTOS = {v: k for k, v in _PROTO_TAGS.items()}


def encode_frame(kind: str, payload: bytes) -> bytes:
    if kind not in FRAME_KINDS:
        raise ParameterError(f"unknown frame kind {kind!r}")
    if len(payload) > MAX_PAYLOAD:
        raise ParameterError("payload exceeds the 4-byte length field")
    return MAGIC + bytes([VERSION, FRAME_KINDS[kind]]) + struct.pack(">I", len(payload)) + payload


def _parse_header(data: bytes) -> tuple[str, int]:
    if len(data) < HEADER_LEN:
        raise FrameError(f"frame truncated at {len(data)} bytes")
    if data[:4] != MAGIC:
        raise FrameError("bad magic")
    if data[4] != VERSION:
        raise FrameError(f"unsupported version {data[4]}")
    kind = _KIND_NAMES.get(data[5])
    if kind is None:
        raise FrameError(f"unknown frame kind byte 0x{data[5]:02x}")
    (length,) = struct.unpack(">I", data[6:10])
    return kind, length


def decode_frame(data: bytes) -> tuple[str, bytes]:
    kind, length = _parse_header(data)
    if len(data) - HEADER_LEN != length:
        raise FrameError(
            f"length field says {length} payload bytes, frame carries {len(data) - HEADER_LEN}"
        )
    return kind, data[HEADER_LEN:]


def payload_limits(setup: RmpfSetup | RdmpfSetup) -> dict[str, int]:
    """The largest legal payload of each frame kind a peer sends under setup.

    Token lists and both KEM frames are sized by the setup's token
    matrices; an error frame carries at most ERROR_PAYLOAD_MAX bytes of
    text.  Setup frames never come from a peer, so they have no entry.
    """
    if isinstance(setup, RmpfSetup):
        count, entries = 1, setup.rows * setup.cols
    else:
        count, entries = setup.rounds, setup.dim * setup.dim
    tokens = count * entries * WORD_BYTES
    return {
        "token-list": 4 + count * 8 + tokens,
        "kem-close-b": tokens,
        "kem-encap-msg": KEY_BYTES + NONCE_BYTES + tokens,
        "error": ERROR_PAYLOAD_MAX,
    }


def check_header(header: bytes, limits: dict[str, int]) -> int:
    """Validate a peer frame's header against payload_limits; return its length.

    This runs before any payload byte is read or buffered.
    """
    kind, length = _parse_header(header)
    limit = limits.get(kind)
    if limit is None:
        raise FrameError(f"a peer never sends a {kind} frame")
    if length > limit:
        raise FrameError(
            f"{kind} frame claims {length} payload bytes, this setup allows at most {limit}"
        )
    return length


def encode_matrix(m: Matrix) -> bytes:
    return struct.pack(">II", m.rows, m.cols) + canonical_bytes(m.entries)


def decode_matrix(data: bytes, modulus: int) -> tuple[Matrix, bytes]:
    """Decode one matrix from the head of data; returns (matrix, rest)."""
    if len(data) < 8:
        raise FrameError("matrix header truncated")
    rows, cols = struct.unpack(">II", data[:8])
    if rows < 1 or cols < 1 or rows * cols > MAX_PAYLOAD // WORD_BYTES:
        raise FrameError(f"implausible matrix dimensions {rows}x{cols}")
    need = 8 + rows * cols * WORD_BYTES
    if len(data) < need:
        raise FrameError("matrix entries truncated")
    entries = canonical_values(data[8:need])
    if any(e >= modulus for e in entries):
        raise FrameError("matrix entry not reduced mod the session modulus")
    return Matrix(rows, cols, entries, modulus), data[need:]


def encode_token_list(mats: Sequence[Matrix]) -> bytes:
    out = struct.pack(">I", len(mats))
    for m in mats:
        out += encode_matrix(m)
    return out


def decode_token_list(data: bytes, modulus: int) -> list[Matrix]:
    if len(data) < 4:
        raise FrameError("token list header truncated")
    (count,) = struct.unpack(">I", data[:4])
    rest = data[4:]
    mats = []
    for _ in range(count):
        m, rest = decode_matrix(rest, modulus)
        mats.append(m)
    if rest:
        raise FrameError(f"{len(rest)} trailing bytes after token list")
    return mats


class _Layout(NamedTuple):
    """One protocol's parameter set, read by every codec and by build_setup.

    fields pairs each scalar, in file order, with its setup-frame struct
    code; scalar and matrix names are attribute names of setup, the
    protocol's setup class.  derived names the scalars setup reads off
    its matrices; defaults fills a scalar a JSON file or a caller omits.
    """

    fields: tuple[tuple[str, str], ...]
    matrices: tuple[str, ...]
    setup: type
    derived: tuple[str, ...]
    defaults: dict[str, int]


_LAYOUTS = {
    "rmpf": _Layout((("rows", "I"), ("cols", "I")), ("base", "x", "y"),
                    RmpfSetup, ("rows", "cols"), {}),
    "rdmpf": _Layout((("dim", "I"), ("exp_max", "Q"), ("rounds", "I"), ("sigma", "Q")),
                     ("w", "base_xu", "base_yv"), RdmpfSetup, ("dim",), {"sigma": 1}),
}


def _scalar_format(layout: _Layout) -> str:
    """Struct format of a setup payload's head: tag, p, scalars, seed flag."""
    return ">BQ" + "".join(code for _, code in layout.fields) + "B"


def _scalars(protocol, p, given: dict, seed) -> tuple[_Layout, dict[str, int]]:
    """Return the protocol's layout and its scalars, picked from given.

    A scalar given lacks takes the layout's default, or None.  Each one,
    p and a seed that is not None must be an int its setup-frame field
    holds.
    """
    layout = _LAYOUTS.get(protocol) if isinstance(protocol, str) else None
    if layout is None:
        raise ParameterError(f"unknown protocol {protocol!r:.40}")
    fields = {name: given.get(name, layout.defaults.get(name)) for name, _ in layout.fields}
    checks = [("p", "Q", p), *((name, code, fields[name]) for name, code in layout.fields)]
    if seed is not None:
        checks.append(("seed", "Q", seed))
    for name, code, value in checks:
        # JSON true/false load as bool, an int subclass
        if type(value) is not int:
            raise ParameterError(f"parameter set needs an integer {name!r}, got {value!r:.40}")
        size = struct.calcsize(code)
        if not 0 <= value < 1 << 8 * size:
            raise ParameterError(
                f"{name}={value} does not fit the setup frame's {size}-byte field"
            )
    return layout, fields


def _json_matrix(doc: dict, name: str, p: int) -> Matrix:
    """A matrix from its JSON rows, each entry as written: none is reduced mod p."""
    rows = doc.get(name)
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(type(e) is int for e in r) for r in rows
    ):
        raise ParameterError(f"parameter file needs matrix {name!r} as a list of integer lists")
    try:
        if len({len(r) for r in rows}) != 1:
            raise ParameterError("rows are missing or ragged")
        return Matrix(len(rows), len(rows[0]), tuple(e for r in rows for e in r), p)
    except ParameterError as exc:
        raise ParameterError(f"matrix {name!r}: {exc}") from exc


class ParamSet(Record):
    """Shared public parameters as they travel in files and setup frames.

    protocol is "rmpf" or "rdmpf"; fields holds the protocol's scalars and
    matrices its public matrices, both keyed by the names in the
    protocol's layout; seed is the test-mode seed or None.  Construction
    is the one check of a parameter set's shape, so every set that exists
    fits both file forms.
    """

    __slots__ = ("protocol", "p", "fields", "matrices", "seed")

    def __init__(
        self, protocol: str, p: int, fields: dict[str, int], matrices: dict[str, Matrix],
        seed: int | None = None
    ):
        layout, scalars = _scalars(protocol, p, fields, seed)
        if scalars != fields or sorted(matrices) != sorted(layout.matrices):
            raise ParameterError(
                f"a {protocol} parameter set has exactly the scalars {list(scalars)} "
                f"and the matrices {list(layout.matrices)}"
            )
        for name, m in matrices.items():
            if not isinstance(m, Matrix) or m.modulus != p:
                raise ParameterError(f"matrix {name!r} must be a Matrix mod p={p}")
        self._set(protocol, p, fields, matrices, seed)

    def build_setup(self) -> RmpfSetup | RdmpfSetup:
        """Instantiate (and thereby validate) the owning protocol's setup."""
        layout = _LAYOUTS[self.protocol]
        given = {n: v for n, v in self.fields.items() if n not in layout.derived}
        setup = layout.setup(
            FieldParams(self.p), *(self.matrices[n] for n in layout.matrices), **given
        )
        for name in layout.derived:
            if getattr(setup, name) != self.fields[name]:
                raise ParameterError(
                    f"parameter set declares {name} {self.fields[name]}, "
                    f"matrices give {getattr(setup, name)}"
                )
        return setup

    # --- JSON form -------------------------------------------------------

    def to_json(self) -> str:
        """The document exactly as json.dumps(doc, indent=2) + "\\n" writes it.

        Matrices go into the text one row string at a time: the
        pure-Python encoder that indent selects would hold one chunk per
        number and separator until its final join, several times the
        size of the text.
        """
        layout = _LAYOUTS[self.protocol]
        scalars: dict = {
            "format": PARAMSET_FORMAT,
            "version": PARAMSET_VERSION,
            "protocol": self.protocol,
            "p": self.p,
        }
        for name, _ in layout.fields:
            scalars[name] = self.fields[name]
        items = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in scalars.items())
        parts = ["{\n  ", ",\n  ".join(items)]
        for name in layout.matrices:
            m = self.matrices[name]
            sep = f",\n  {json.dumps(name)}: [\n    [\n      "
            for i in range(m.rows):
                parts += (sep, ",\n      ".join(map(str, m.row(i))))
                sep = "\n    ],\n    [\n      "
            parts.append("\n    ]\n  ]")
        if self.seed is not None:
            parts.append(f',\n  "seed": {json.dumps(self.seed)}')
        parts.append("\n}\n")
        return "".join(parts)

    @classmethod
    def from_json(cls, text: str) -> "ParamSet":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"parameter file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != PARAMSET_FORMAT:
            raise ParameterError("not a parameter-set document")
        if doc.get("version") != PARAMSET_VERSION:
            raise ParameterError(f"unsupported parameter-set version {doc.get('version')}")
        protocol, p, seed = doc.get("protocol"), doc.get("p"), doc.get("seed")
        # matrix entries are range-checked against p, so p is checked first
        layout, fields = _scalars(protocol, p, doc, seed)
        matrices = {name: _json_matrix(doc, name, p) for name in layout.matrices}
        return cls(protocol, p, fields, matrices, seed)

    # --- binary mirror -----------------------------------------------------

    def to_frame(self) -> bytes:
        layout = _LAYOUTS[self.protocol]
        scalars = [self.fields[name] for name, _ in layout.fields]
        head = (_PROTO_TAGS[self.protocol], self.p, *scalars, self.seed is not None)
        payload = struct.pack(_scalar_format(layout), *head)
        if self.seed is not None:
            payload += struct.pack(">Q", self.seed)
        for name in layout.matrices:
            payload += encode_matrix(self.matrices[name])
        return encode_frame("setup", payload)

    @classmethod
    def from_frame(cls, data: bytes) -> "ParamSet":
        kind, payload = decode_frame(data)
        if kind != "setup":
            raise FrameError(f"expected a setup frame, got {kind}")
        try:
            protocol = _TAG_PROTOS.get(payload[0])
            if protocol is None:
                raise FrameError(f"unknown protocol tag {payload[0]}")
            layout = _LAYOUTS[protocol]
            fmt = _scalar_format(layout)
            _, p, *values, seed_flag = struct.unpack_from(fmt, payload)
            if seed_flag > 1:
                raise FrameError(f"unknown seed flag {seed_flag}")
            off = struct.calcsize(fmt)
            seed = struct.unpack_from(">Q", payload, off)[0] if seed_flag else None
            rest = payload[off + 8 * seed_flag :]
            matrices = {}
            for name in layout.matrices:
                matrices[name], rest = decode_matrix(rest, p)
            if rest:
                raise FrameError(f"{len(rest)} trailing bytes after setup payload")
        except (IndexError, struct.error) as exc:
            raise FrameError(f"setup payload truncated: {exc}") from exc
        fields = dict(zip((name for name, _ in layout.fields), values))
        return cls(protocol, p, fields, matrices, seed)


def generate_paramset(
    protocol: str, p: int, rng: random.Random, seed: int | None = None, **fields: int | None
) -> tuple[ParamSet, RmpfSetup | RdmpfSetup]:
    """Sample public matrices for the requested protocol and validate them.

    The protocol's scalars are taken from fields (any others are ignored)
    and checked, with p and seed, before anything is sampled: against
    their frame fields, and for rdmpf by every RdmpfSetup check that
    needs no matrix.  Returns the parameter set and the setup that
    validated it.
    """
    layout, fields = _scalars(protocol, p, fields, seed)
    params = FieldParams(p)
    if protocol == "rmpf":
        matrices = {
            name: sample_matrix(fields["rows"], fields["cols"], p, rng, mode="unit_entries")
            for name in layout.matrices
        }
    else:
        RdmpfSetup.check_scalars(params, fields["exp_max"], fields["rounds"], fields["sigma"])
        dim = fields["dim"]
        while True:
            w = sample_matrix(dim, dim, p, rng, mode="unit_entries")
            if rank_mod_p(w, p) == dim:
                break
        matrices = {
            "w": w,
            "base_xu": sample_rank_deficient_base(dim, params, rng),
            "base_yv": sample_rank_deficient_base(dim, params, rng),
        }
    ps = ParamSet(protocol, p, fields, matrices, seed)
    return ps, ps.build_setup()


def generate_setup(
    dim: int, p: int, exp_max: int, rounds: int, rng: random.Random, sigma: int = 1
) -> RdmpfSetup:
    """The rdmpf setup that generate_paramset, and so `mpfkap setup`, samples from rng."""
    return generate_paramset(
        "rdmpf", p, rng, dim=dim, exp_max=exp_max, rounds=rounds, sigma=sigma
    )[1]


def save_paramset(ps: ParamSet, path: str) -> tuple[str, str]:
    """Write the JSON document plus its binary mirror; returns both paths.

    Both forms are encoded before either file is written, and each file
    appears whole or not at all: a write or replace that fails removes
    its temporary file.
    """
    json_path = path
    bin_path = path + ".bin" if not path.endswith(".json") else path[: -len(".json")] + ".bin"
    forms = ((json_path, ps.to_json().encode("utf-8")), (bin_path, ps.to_frame()))
    for target, data in forms:
        tmp = target + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    return json_path, bin_path


def load_paramset(path: str) -> ParamSet:
    """Load either form; the binary mirror is detected by its magic."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] == MAGIC:
        return ParamSet.from_frame(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(
            f"parameter file {path} is neither a setup frame nor UTF-8 text: {exc}"
        ) from exc
    return ParamSet.from_json(text)
