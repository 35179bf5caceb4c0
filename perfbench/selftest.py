"""Tests of the benchmark itself, on the smoke size of each workload.

    python3 -m pytest -q perfbench/selftest.py

The negative cases run a fake party in place of the CLI and show that a
key mismatch, a key both parties share but the reference rejects, and a
party that overruns the timeout each count as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from workloads import SMOKE  # noqa: E402

from mpfkap import known_answers as ka  # noqa: E402


def test_reference_matches_rmpf_known_answers():
    doc = {"p": ka.P, "cols": 3, "base": ka.RMPF_BASE, "x": ka.RMPF_X, "y": ka.RMPF_Y}
    key = reference.rmpf_key_file(
        doc, (ka.RMPF_LAMBDA_A, ka.RMPF_OMEGA_A), (ka.RMPF_LAMBDA_B, ka.RMPF_OMEGA_B))
    words = b"".join(v.to_bytes(8, "big") for row in ka.RMPF_KEY for v in row)
    assert key == (5).to_bytes(4, "big") + (3).to_bytes(4, "big") + words


def test_reference_matches_rdmpf_pinned_digest():
    doc = {"p": ka.P, "w": ka.RDMPF_W, "base_xu": ka.RDMPF_BASE_XU,
           "base_yv": ka.RDMPF_BASE_YV}
    rounds = ka.RDMPF_ROUND_VECTORS
    alice = ([r.rand_x for r in rounds], [r.rand_y for r in rounds])
    bob = ([r.rand_u for r in rounds], [r.rand_v for r in rounds])
    assert reference.rdmpf_session_key(doc, alice, bob).hex() == ka.PINNED_SESSION_DIGEST_HEX


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_workload_passes_every_check(name):
    rep = run.run(SMOKE[name], seed=3, seconds=0.5, trace=False, smoke=True)
    assert rep["failed"] == 0 and rep["ops"] >= 1
    assert set(rep["checks"]) <= {"reference", "recorded-sha256"}
    assert all(v > 0 for v in rep["end_to_end"].values())


def test_traced_smoke_reports_every_layer_metric():
    rep = run.run(SMOKE["kem-rounds"], seed=3, seconds=0.5, trace=True, smoke=True)
    assert rep["failed"] == 0
    assert set(rep["per_layer"]) == set(layers.metric_units())
    assert rep["absent"]["metrics"] == {}
    assert rep["per_layer"]["core.mat_pow_calls"] > 0
    assert rep["per_layer"]["kem.hmac_calls"] > 0


def test_missing_boundary_is_named_and_its_metric_absent(monkeypatch):
    import mpfkap.cli  # noqa: F401  (loads every module install looks in)

    rdmpf = sys.modules["mpfkap.rdmpf"]
    for module, path, _ in layers.BOUNDARIES:  # undo the wrapping afterwards
        *outer, attr = path.split(".")
        owner = sys.modules[module]
        for part in outer:
            owner = getattr(owner, part)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    monkeypatch.delattr(rdmpf, "round_key")
    missing = layers.install(layers.Tracer())
    assert missing == ["mpfkap.rdmpf.round_key"]
    assert layers.absent_metrics(set(missing)) == {
        "rdmpf.key_action_s": ["mpfkap.rdmpf.round_key"]}


FAKE_PARTY = textwrap.dedent(
    """
    import os, sys, time
    mode, args = sys.argv[1], sys.argv[2:]
    if args[0] in ("vectors", "setup"):
        os.execv(sys.executable, [sys.executable, "-m", "mpfkap", *args])
    role = args[args.index("--role") + 1]
    out = args[args.index("--out") + 1]
    if mode == "hang":
        time.sleep(60)
    print("fake party", role, file=sys.stderr)
    with open(out, "wb") as fh:
        fh.write(role.encode() if mode == "mismatch" else b"same wrong key")
    """
)


@pytest.mark.parametrize(
    "name, mode, error",
    [
        ("rmpf-smallp", "mismatch", "alice and bob hold different keys"),
        ("rmpf-smallp", "shared-wrong", "differs from the reference"),
        ("kem-rounds", "shared-wrong", "differs from the recorded value"),
        ("rdmpf-tcp", "hang", "timed out and was killed"),
    ],
)
def test_bad_outputs_count_as_failures(tmp_path, capsys, name, mode, error):
    fake = tmp_path / "fake_party.py"
    fake.write_text(FAKE_PARTY)
    wl = dataclasses.replace(SMOKE[name], op_timeout=1.5)
    rep = run.run(wl, seed=3, seconds=0, trace=False, smoke=True,
                  program=[sys.executable, str(fake), mode])
    shutil.rmtree(rep["kept"])
    assert rep["ops"] == rep["failed"] == 1
    assert rep["fail_ratio"] == 1.0
    assert rep["checks"] == {"failed": 1}
    err = capsys.readouterr().err
    assert error in err
    if mode != "hang":
        assert "fake party bob" in err and "fake party alice" in err


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) is None
    pct, value = run.tail([float(i) for i in range(1, 41)])
    assert (pct, value) == (75.0, 30.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rdmpf-tcp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
