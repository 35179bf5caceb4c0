"""Spans at the mpfkap package's layer boundaries, and the per-layer metrics
built from them.

A boundary is a public function looked up by name in the namespace of the
module that calls it (or a method on a class), so wrapping it there times
exactly the calls that code path makes.  `install` wraps every boundary
that exists and returns the ones that do not, so a later refactor that
removes or renames a function makes its metrics absent, never zero.

`op_metrics` turns the spans of one traced operation (both parties of a
session, or one setup) into per-layer values; a run reports the median of
each over its traced operations.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def now() -> float:
    """CLOCK_MONOTONIC seconds: one clock for every process of a session."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span list of one process; written out once at exit."""

    def __init__(self) -> None:
        # [name, start, end, parent index or None, counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, counters: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = now()
        span[4] = counters
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere, such as the spawn-to-entry interval."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, None])

    def dump(self, path: str, missing: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": missing}) + "\n")
            for name, start, end, parent, counters in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "counters": counters}
                    )
                    + "\n"
                )


def load(path: str) -> tuple[list[dict], list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = json.loads(lines[0])
    return [json.loads(line) for line in lines[1:]], head["missing"]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _result_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _sample_mode(args, kwargs, result) -> dict:
    return {"rank_deficient": int(_arg(args, kwargs, 4, "mode") == "rank_deficient")}


def _sent(args, kwargs, result) -> dict:
    # method: args[0] is the transport; 10 is the frame header length
    return {"kind": _arg(args, kwargs, 1, "kind"),
            "bytes": len(_arg(args, kwargs, 2, "payload")) + 10}


def _received(args, kwargs, result) -> dict:
    return {"kind": _arg(args, kwargs, 1, "kind")}


# (module whose namespace the caller looks the name up in, attribute path,
#  counters taken from the call)
BOUNDARIES = (
    ("mpfkap.rdmpf", "mat_pow_mod", None),
    ("mpfkap.rdmpf", "rank_mod_p", None),
    ("mpfkap.wire", "rank_mod_p", None),
    ("mpfkap.rdmpf", "round_keygen", None),
    ("mpfkap.rdmpf", "round_key", None),
    ("mpfkap.rdmpf", "session_digest", None),
    ("mpfkap.wire", "sample_rank_deficient_base", None),
    ("mpfkap.rdmpf", "sample_matrix", _sample_mode),
    ("mpfkap.rmpf", "keygen", None),
    ("mpfkap.rmpf", "derive_key", None),
    ("mpfkap.cli", "kem_initiate", None),
    ("mpfkap.cli", "kem_encapsulate", None),
    ("mpfkap.cli", "kem_decapsulate", None),
    ("mpfkap.kem", "mask_stream", None),
    ("mpfkap.kem", "xor_bytes", None),
    ("mpfkap.kem", "hmac512", None),
    ("mpfkap.cli", "load_paramset", None),
    ("mpfkap.wire", "ParamSet.build_setup", None),
    ("mpfkap.cli", "save_paramset", None),
    ("mpfkap.cli", "encode_token_list", _result_bytes),
    ("mpfkap.cli", "encode_matrix", _result_bytes),
    ("mpfkap.kem", "canonical_bytes", _result_bytes),
    ("mpfkap.cli", "decode_token_list", None),
    ("mpfkap.kem", "parse_token_list", None),
    ("mpfkap.cli", "open_transport", None),
    ("mpfkap.transport", "FileTransport.send", _sent),
    ("mpfkap.transport", "FileTransport.recv", _received),
    ("mpfkap.transport", "TcpTransport.send", _sent),
    ("mpfkap.transport", "TcpTransport.recv", _received),
)


def _wrap(tracer: Tracer, fn, name: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(idx)
            raise
        tracer.end(idx, count(args, kwargs, result) if count else None)
        return result

    return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap every boundary that exists; return the names of those that do not."""
    missing = []
    for module, path, count in BOUNDARIES:
        name = f"{module}.{path}"
        owner = sys.modules.get(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            missing.append(name)
            continue
        setattr(owner, attr, _wrap(tracer, fn, name, count))
    return missing


# --- per-layer metrics ----------------------------------------------------

_RD = "mpfkap.rdmpf."
_FILE, _TCP = "mpfkap.transport.FileTransport.", "mpfkap.transport.TcpTransport."

# name -> (unit, how, span names, required direct parent or None)
# how: "total" sums durations, "self" sums durations minus direct children,
#      "calls" counts spans, "bytes" sums the spans' byte counters.
SPAN_METRICS = {
    "core.mat_pow_s": ("s", "total", (_RD + "mat_pow_mod",), _RD + "round_keygen"),
    "core.mat_pow_calls": ("count", "calls", (_RD + "mat_pow_mod",), _RD + "round_keygen"),
    "core.setup_mat_pow_s": (
        "s", "total", (_RD + "mat_pow_mod",), "mpfkap.wire.sample_rank_deficient_base"),
    "core.rank_s": ("s", "total", (_RD + "rank_mod_p", "mpfkap.wire.rank_mod_p"), None),
    "core.rank_calls": ("count", "calls", (_RD + "rank_mod_p", "mpfkap.wire.rank_mod_p"), None),
    "rdmpf.token_action_s": ("s", "self", (_RD + "round_keygen",), None),
    "rdmpf.key_action_s": ("s", "total", (_RD + "round_key",), None),
    "rdmpf.digest_s": ("s", "total", (_RD + "session_digest",), None),
    "rdmpf.base_sample_s": ("s", "total", ("mpfkap.wire.sample_rank_deficient_base",), None),
    "rmpf.keygen_s": ("s", "total", ("mpfkap.rmpf.keygen",), None),
    "rmpf.key_action_s": ("s", "total", ("mpfkap.rmpf.derive_key",), None),
    "kem.initiate_s": ("s", "self", ("mpfkap.cli.kem_initiate",), None),
    "kem.encapsulate_s": ("s", "self", ("mpfkap.cli.kem_encapsulate",), None),
    "kem.decapsulate_s": ("s", "self", ("mpfkap.cli.kem_decapsulate",), None),
    "kem.mask_s": ("s", "total", ("mpfkap.kem.mask_stream", "mpfkap.kem.xor_bytes"), None),
    "kem.hmac_calls": ("count", "calls", ("mpfkap.kem.hmac512",), None),
    "wire.paramset_load_s": ("s", "total", ("mpfkap.cli.load_paramset",), None),
    "wire.validate_s": ("s", "total", ("mpfkap.wire.ParamSet.build_setup",), None),
    "wire.paramset_save_s": ("s", "total", ("mpfkap.cli.save_paramset",), None),
    "wire.encode_s": ("s", "total", (
        "mpfkap.cli.encode_token_list", "mpfkap.cli.encode_matrix", "mpfkap.kem.canonical_bytes"),
        None),
    "wire.decode_s": ("s", "total", (
        "mpfkap.cli.decode_token_list", "mpfkap.kem.parse_token_list"), None),
    "wire.payload_bytes": ("B", "bytes", (
        "mpfkap.cli.encode_token_list", "mpfkap.cli.encode_matrix", "mpfkap.kem.canonical_bytes"),
        None),
    "transport.open_s": ("s", "total", ("mpfkap.cli.open_transport",), None),
    "transport.send_s": ("s", "total", (_FILE + "send", _TCP + "send"), None),
    "transport.recv_s": ("s", "total", (_FILE + "recv", _TCP + "recv"), None),
    "transport.frame_bytes": ("B", "bytes", (_FILE + "send", _TCP + "send"), None),
}

# Metrics computed from several span kinds; name -> (unit, boundaries they need)
DERIVED_METRICS = {
    "rdmpf.base_candidates": (
        "count", ("mpfkap.wire.sample_rank_deficient_base", _RD + "sample_matrix")),
    "rdmpf.base_accept_ratio": (
        "ratio", ("mpfkap.wire.sample_rank_deficient_base", _RD + "sample_matrix")),
    "transport.delivery_s": ("s", (_FILE + "send", _TCP + "send", _FILE + "recv", _TCP + "recv")),
    "cli.startup_s": ("s", ()),
    "cli.import_s": ("s", ()),
    "cli.main_s": ("s", ()),
}

# Measured by the run itself rather than from one operation's spans.
RUN_METRICS = {"trace.overhead_s": "s", "trace.coverage": "ratio"}


def metric_units() -> dict[str, str]:
    units = {name: spec[0] for name, spec in SPAN_METRICS.items()}
    units.update({name: spec[0] for name, spec in DERIVED_METRICS.items()})
    units.update(RUN_METRICS)
    return units


def absent_metrics(missing: set[str]) -> dict[str, list[str]]:
    """Metrics none of whose boundaries exist -> the missing boundaries."""
    out = {}
    for name, spec in SPAN_METRICS.items():
        if all(b in missing for b in spec[2]):
            out[name] = list(spec[2])
    for name, (_, needs) in DERIVED_METRICS.items():
        if needs and all(b in missing for b in needs):
            out[name] = list(needs)
    return out


def op_metrics(parties: list[list[dict]]) -> dict[str, float]:
    """Per-layer values of one operation, summed over its processes."""
    out = {name: 0.0 for name in SPAN_METRICS}
    out.update({name: 0.0 for name in DERIVED_METRICS})
    candidates = accepted = 0
    sends: dict[int, dict[str, list[float]]] = {}
    for who, spans in enumerate(parties):
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
            counters = s["counters"] or {}
            for metric, (_, how, names, need_parent) in SPAN_METRICS.items():
                if name not in names or (need_parent and parent != need_parent):
                    continue
                if how == "total":
                    out[metric] += dur
                elif how == "self":
                    out[metric] += dur - child_time[i]
                elif how == "calls":
                    out[metric] += 1
                else:
                    out[metric] += counters.get("bytes", 0)
            if name == "mpfkap.wire.sample_rank_deficient_base":
                accepted += 1
            elif name == _RD + "sample_matrix" and parent == (
                "mpfkap.wire.sample_rank_deficient_base"
            ):
                candidates += counters.get("rank_deficient", 0)
            elif name in (_FILE + "send", _TCP + "send"):
                sends.setdefault(who, {}).setdefault(counters["kind"], []).append(s["end"])
            elif name.startswith("cli."):
                out[name + "_s"] += dur
    # delivery: from the peer's send return to this party's recv return
    for who, spans in enumerate(parties):
        peer_sends = {k: list(v) for k, v in sends.get(1 - who, {}).items()}
        for s in spans:
            if s["name"] in (_FILE + "recv", _TCP + "recv"):
                queue = peer_sends.get((s["counters"] or {}).get("kind"))
                if queue:
                    out["transport.delivery_s"] += s["end"] - queue.pop(0)
    out["rdmpf.base_candidates"] = candidates
    out["rdmpf.base_accept_ratio"] = accepted / candidates if candidates else 0.0
    return out
