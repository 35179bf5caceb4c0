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

import json
import os
import random
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import (
    FieldParams,
    Matrix,
    WORD_BYTES,
    canonical_bytes,
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
    body = data[8:need]
    entries = tuple(
        int.from_bytes(body[i : i + WORD_BYTES], "big")
        for i in range(0, len(body), WORD_BYTES)
    )
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
    """One protocol's parameter-set fields, in file order.

    fields pairs each scalar with its setup-frame struct code; the scalar
    and matrix names are the attribute names of the protocol's setup.
    """

    fields: tuple[tuple[str, str], ...]
    matrices: tuple[str, ...]


_LAYOUTS = {
    "rmpf": _Layout((("rows", "I"), ("cols", "I")), ("base", "x", "y")),
    "rdmpf": _Layout(
        (("dim", "I"), ("exp_max", "Q"), ("rounds", "I"), ("sigma", "Q")),
        ("w", "base_xu", "base_yv"),
    ),
}


def _pack(code: str, name: str, value: int) -> bytes:
    try:
        return struct.pack(">" + code, value)
    except struct.error as exc:
        raise ParameterError(
            f"{name}={value} does not fit the setup frame's "
            f"{struct.calcsize(code)}-byte field"
        ) from exc


def _json_int(doc: dict, name: str, default: int | None = None) -> int:
    value = doc.get(name, default)
    # JSON true/false load as bool, an int subclass
    if type(value) is not int:
        raise ParameterError(f"parameter file needs an integer {name!r}, got {value!r:.40}")
    return value


def _json_rows(doc: dict, name: str) -> list[list[int]]:
    rows = doc.get(name)
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(type(e) is int for e in r) for r in rows
    ):
        raise ParameterError(f"parameter file needs matrix {name!r} as a list of integer lists")
    return rows


@dataclass
class ParamSet:
    """Shared public parameters as they travel in files and setup frames."""

    protocol: str  # "rmpf" | "rdmpf"
    p: int
    rows: int | None = None  # rmpf
    cols: int | None = None  # rmpf
    dim: int | None = None  # rdmpf
    exp_max: int | None = None  # rdmpf
    rounds: int | None = None  # rdmpf
    sigma: int = 1  # rdmpf
    matrices: dict[str, Matrix] | None = None
    seed: int | None = None  # test mode only

    def build_setup(self) -> RmpfSetup | RdmpfSetup:
        """Instantiate (and thereby validate) the owning protocol's setup."""
        layout = _LAYOUTS.get(self.protocol)
        if layout is None:
            raise ParameterError(f"unknown protocol {self.protocol!r}")
        params = FieldParams(self.p)
        mats = self.matrices or {}
        missing = [n for n in layout.matrices if n not in mats]
        if missing:
            raise ParameterError(f"parameter set lacks matrices: {missing}")
        unset = [name for name, _ in layout.fields if getattr(self, name) is None]
        if unset:
            raise ParameterError(f"parameter set lacks {unset}")
        ordered = [mats[n] for n in layout.matrices]
        if self.protocol == "rmpf":
            setup = RmpfSetup(params, *ordered)
        else:
            setup = RdmpfSetup(params, *ordered, self.exp_max, self.rounds, self.sigma)
        for name, _ in layout.fields:
            if getattr(setup, name) != getattr(self, name):
                raise ParameterError(
                    f"parameter set declares {name} {getattr(self, name)}, "
                    f"matrices give {getattr(setup, name)}"
                )
        return setup

    # --- JSON form -------------------------------------------------------

    def to_json(self) -> str:
        layout = _LAYOUTS[self.protocol]
        doc: dict = {
            "format": PARAMSET_FORMAT,
            "version": PARAMSET_VERSION,
            "protocol": self.protocol,
            "p": self.p,
        }
        for name, _ in layout.fields:
            doc[name] = getattr(self, name)
        for name in layout.matrices:
            doc[name] = self.matrices[name].to_rows()
        if self.seed is not None:
            doc["seed"] = self.seed
        return json.dumps(doc, indent=2) + "\n"

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
        protocol = doc.get("protocol")
        if protocol not in _LAYOUTS:
            raise ParameterError(f"unknown protocol {protocol!r}")
        layout = _LAYOUTS[protocol]
        p = _json_int(doc, "p")
        ps = cls(protocol=protocol, p=p, seed=doc.get("seed"))
        # an absent field keeps its dataclass default; only sigma has one
        for name, _ in layout.fields:
            setattr(ps, name, _json_int(doc, name, getattr(ps, name)))
        ps.matrices = {
            name: Matrix.from_rows(_json_rows(doc, name), p) for name in layout.matrices
        }
        return ps

    # --- binary mirror -----------------------------------------------------

    def to_frame(self) -> bytes:
        layout = _LAYOUTS[self.protocol]
        payload = bytes([_PROTO_TAGS[self.protocol]]) + _pack("Q", "p", self.p)
        for name, code in layout.fields:
            payload += _pack(code, name, getattr(self, name))
        if self.seed is not None:
            payload += b"\x01" + _pack("Q", "seed", self.seed)
        else:
            payload += b"\x00"
        for name in layout.matrices:
            payload += encode_matrix(self.matrices[name])
        return encode_frame("setup", payload)

    @classmethod
    def from_frame(cls, data: bytes) -> "ParamSet":
        kind, payload = decode_frame(data)
        if kind != "setup":
            raise FrameError(f"expected a setup frame, got {kind}")
        try:
            proto = _TAG_PROTOS.get(payload[0])
            if proto is None:
                raise FrameError(f"unknown protocol tag {payload[0]}")
            layout = _LAYOUTS[proto]
            (p,) = struct.unpack(">Q", payload[1:9])
            ps = cls(protocol=proto, p=p)
            fmt = ">" + "".join(code for _, code in layout.fields)
            values = struct.unpack_from(fmt, payload, 9)
            for (name, _), value in zip(layout.fields, values):
                setattr(ps, name, value)
            off = 9 + struct.calcsize(fmt)
            if payload[off] == 1:
                (ps.seed,) = struct.unpack(">Q", payload[off + 1 : off + 9])
                off += 9
            else:
                off += 1
            rest = payload[off:]
            mats = {}
            for name in layout.matrices:
                mats[name], rest = decode_matrix(rest, p)
            if rest:
                raise FrameError(f"{len(rest)} trailing bytes after setup payload")
            ps.matrices = mats
        except (IndexError, struct.error) as exc:
            raise FrameError(f"setup payload truncated: {exc}") from exc
        return ps


def generate_paramset(
    protocol: str,
    p: int,
    rng: random.Random,
    rows: int | None = None,
    cols: int | None = None,
    dim: int | None = None,
    exp_max: int | None = None,
    rounds: int | None = None,
    sigma: int = 1,
    seed: int | None = None,
) -> tuple[ParamSet, RmpfSetup | RdmpfSetup]:
    """Sample public matrices for the requested protocol and validate them.

    Returns the parameter set and the setup that validated it.
    """
    params = FieldParams(p)
    if protocol == "rmpf":
        if rows is None or cols is None:
            raise ParameterError("rmpf needs rows and cols")
        mats = {
            name: sample_matrix(rows, cols, p, rng, mode="unit_entries")
            for name in _LAYOUTS["rmpf"].matrices
        }
        ps = ParamSet("rmpf", p, rows=rows, cols=cols, matrices=mats, seed=seed)
    elif protocol == "rdmpf":
        if dim is None or exp_max is None or rounds is None:
            raise ParameterError("rdmpf needs dim, exp_max, and rounds")
        while True:
            w = sample_matrix(dim, dim, p, rng, mode="unit_entries")
            if rank_mod_p(w, p) == dim:
                break
        mats = {
            "w": w,
            "base_xu": sample_rank_deficient_base(dim, params, rng),
            "base_yv": sample_rank_deficient_base(dim, params, rng),
        }
        ps = ParamSet(
            "rdmpf",
            p,
            dim=dim,
            exp_max=exp_max,
            rounds=rounds,
            sigma=sigma,
            matrices=mats,
            seed=seed,
        )
    else:
        raise ParameterError(f"unknown protocol {protocol!r}")
    return ps, ps.build_setup()


def save_paramset(ps: ParamSet, path: str) -> tuple[str, str]:
    """Write the JSON document plus its binary mirror; returns both paths.

    Both forms are encoded before either file is written, and each file
    appears whole or not at all.
    """
    json_path = path
    bin_path = path + ".bin" if not path.endswith(".json") else path[: -len(".json")] + ".bin"
    forms = ((json_path, ps.to_json().encode("utf-8")), (bin_path, ps.to_frame()))
    for target, data in forms:
        with open(target + ".tmp", "wb") as fh:
            fh.write(data)
        os.replace(target + ".tmp", target)
    return json_path, bin_path


def load_paramset(path: str) -> ParamSet:
    """Load either form; the binary mirror is detected by its magic."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] == MAGIC:
        return ParamSet.from_frame(raw)
    return ParamSet.from_json(raw.decode("utf-8"))
