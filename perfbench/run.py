"""End-to-end benchmark of the mpfkap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One run:

  1. replays the known-answer vectors (`mpfkap vectors`) and stops with
     exit code 1 if any fails;
  2. set-up: runs `mpfkap setup` for the workload's parameters several
     times, the first before the loop and the rest spread through it;
     setup_s is the median wall time.  On setup-floor, whose operation is
     a setup, the timed setups below serve as these samples;
  3. timed loop: runs the workload's operation (a session, or a setup on
     setup-floor) one at a time until S seconds of operation time are
     spent.  An operation is timed from spawning its first process until
     every process has exited and the outputs have been checked.  Inputs
     and reference values are made between operations, untimed.

With --trace 0 the last line is a JSON object with the end-to-end
metrics; with --trace 1 the loop alternates untraced and traced
operations (each party runs under perfbench/party.py) and reports the
per-layer metrics.  Lines before it are a human-readable summary.

The exit code is 2 when the checkout holds no mpfkap sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

import layers
from workloads import WORKLOADS, Bench, Op, record_key

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recorded.json")
TAIL_BEYOND = 10  # samples a reported tail percentile must have above it


def load_records(wl_key: str) -> dict:
    try:
        with open(RECORDS, encoding="utf-8") as fh:
            return json.load(fh).get(wl_key, {})
    except FileNotFoundError:
        return {}


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model,
            "loadavg_before": os.getloadavg()}


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with TAIL_BEYOND samples above it, and its value."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:  # below the median: not a tail
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def run(wl, seed: int, seconds: float, trace: bool, smoke: bool,
        program: list[str] | None = None) -> dict:
    """Run one workload; returns the report (see main for its fields)."""
    bench = Bench(ROOT, wl, seed, load_records(record_key(wl, smoke)), program)
    keep = False
    try:
        vec = bench.vectors()
        if vec.code != 0:
            raise SystemExit(f"known-answer vectors failed (exit {vec.code}):\n{vec.stderr}")
        setups: list[Op] = []

        def setup(setup_seed: int) -> str:
            op, sdir = bench.setup_op(setup_seed)
            if not op.ok:
                raise SystemExit(f"setup seed {setup_seed} failed: {op.error}")
            setups.append(op)
            return sdir

        # On setup-floor the timed setups are the set-up samples too.  Elsewhere
        # the first setup makes the sessions' parameter file and the others are
        # spread evenly through the loop, so that setup_s samples the whole run
        # rather than the machine's speed in its first second.
        order = bench.setup_order
        pending = [] if wl.op == "setup" else [
            order[k % len(order)] for k in range(wl.setup_repeats)]
        if pending:
            bench.use_params(os.path.join(setup(pending[0]), "params.json"), pending.pop(0))

        ops: list[tuple[Op, bool]] = []
        spent = 0.0
        min_ops = max(2 if trace else 1, wl.setup_repeats if wl.op == "setup" else 1)
        while spent < seconds or len(ops) < min_ops:
            i = len(ops)
            traced = trace and i % 2 == 1
            if wl.op == "setup":
                op, sdir = bench.setup_op(order[i % len(order)], traced)
            else:
                op, sdir = bench.session_op(i, traced)
            ops.append((op, traced))
            spent += op.seconds
            if op.ok:
                shutil.rmtree(sdir)
            else:
                keep = True
                print(f"operation {i} failed ({op.check}): {op.error}", file=sys.stderr)
                for c in op.children:
                    print(f"--- {c.role} stderr ---\n{c.stderr}", file=sys.stderr)
            while pending and spent >= seconds * len(setups) / wl.setup_repeats:
                shutil.rmtree(setup(pending.pop(0)))
        rep = report(wl, setups, ops, trace)
        rep["kept"] = bench.work if keep else None  # failed operations' files
        return rep
    finally:
        bench.close(keep)


def report(wl, setups: list[Op], ops: list[tuple[Op, bool]], trace: bool) -> dict:
    failed = sum(1 for op, _ in ops if not op.ok)
    checks: dict[str, int] = {}
    for op, _ in ops:
        key = op.check if op.ok else "failed"
        checks[key] = checks.get(key, 0) + 1
    untraced = [op for op, t in ops if not t]
    # a failed operation counts as missing any latency limit
    latencies = [op.seconds if op.ok else wl.op_timeout for op in untraced]
    out = {
        "ops": len(ops),
        "failed": failed,
        "checks": checks,
        "fail_ratio": failed / len(ops),
        "setup_samples": [op.seconds for op in setups],
        "op_samples": latencies,
        "tail": tail(latencies),
        "end_to_end": {
            "setup_s": statistics.median([op.seconds for op in setups] or latencies),
            "session_p50_s": statistics.median(latencies),
            "sessions_per_s": sum(1 for op in untraced if op.ok)
            / sum(op.seconds for op in untraced),
            "peak_rss_mib": max(op.max_rss_kib for op in setups + [o for o, _ in ops]) / 1024,
        },
    }
    if trace:
        out["per_layer"], out["absent"] = per_layer(ops)
    return out


def per_layer(ops: list[tuple[Op, bool]]) -> tuple[dict, dict]:
    traced = [op for op, t in ops if t and op.ok]
    untraced = [op for op, t in ops if not t and op.ok]
    if not traced or not untraced:
        return {}, {}
    values: dict[str, list[float]] = {}
    coverage = []
    for op in traced:
        m = layers.op_metrics(op.spans)
        for name, v in m.items():
            values.setdefault(name, []).append(v)
        covered = m["cli.startup_s"] + m["cli.import_s"] + m["cli.main_s"]
        coverage.append(covered / sum(c.exited - c.spawned for c in op.children))
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["trace.overhead_s"] = statistics.median(op.seconds for op in traced) - (
        statistics.median(op.seconds for op in untraced))
    metrics["trace.coverage"] = statistics.median(coverage)
    missing = set().union(*(op.missing for op in traced))
    absent = layers.absent_metrics(missing)
    for name in absent:
        metrics.pop(name, None)
    return metrics, {"metrics": absent, "missing_boundaries": sorted(missing)}


def design_checks(name: str, m: dict) -> list[str]:
    """The traced shares each workload was sized for."""
    protocol = m["cli.main_s"] - m["transport.recv_s"]
    in_process = {k: v for k, v in m.items() if k.endswith("_s") and not k.startswith(
        ("cli.", "trace.", "transport.recv", "transport.delivery"))}

    def share(label, part, whole, target):
        ok = whole > 0 and part / whole >= target
        return f"design {name}: {label} = {part / whole if whole else 0:.1%} " \
               f"(target >= {target:.0%}) {'ok' if ok else 'MISSED'}"

    if name == "rdmpf-tcp":
        return [share("(token_action + key_action) / protocol time",
                      m["rdmpf.token_action_s"] + m["rdmpf.key_action_s"], protocol, 0.8)]
    if name == "kem-rounds":
        largest = max(in_process, key=in_process.get)
        return [share("core.mat_pow_s / protocol time", m["core.mat_pow_s"], protocol, 0.5),
                f"design {name}: largest layer is {largest} "
                f"{'ok' if largest == 'core.mat_pow_s' else 'MISSED'}"]
    if name == "rmpf-smallp":
        rmpf = m["rmpf.keygen_s"] + m["rmpf.key_action_s"]
        other = max(v for k, v in in_process.items() if not k.startswith("rmpf."))
        return [f"design {name}: rmpf keygen + key action {rmpf:.4f} s vs largest other "
                f"in-process layer {other:.4f} s {'ok' if rmpf > other else 'MISSED'}"]
    return [share("core.setup_mat_pow_s / traced setup (cli.main_s)",
                  m["core.setup_mat_pow_s"], m["cli.main_s"], 0.9)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mpfkap", "__init__.py")):
        print(f"no mpfkap sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    env = environment()
    rep = run(wl, args.seed, args.seconds, bool(args.trace), smoke=False)
    env["loadavg_after"] = os.getloadavg()
    env["overloaded"] = max(env["loadavg_before"] + env["loadavg_after"]) > (env["nproc"] or 1)
    print("env " + json.dumps(env))
    print(f"workload {wl.name} seed {args.seed}: {rep['ops']} operations, "
          f"{rep['failed']} failed, checks {rep['checks']}")
    print(f"  fail_ratio       {rep['fail_ratio']:.6g} (failed / attempted)")
    if rep["kept"]:
        print(f"  failed operations' files kept in {rep['kept']}")
    e2e = rep["end_to_end"]
    units = {"setup_s": "s", "session_p50_s": "s", "sessions_per_s": "1/s", "peak_rss_mib": "MiB"}
    for name, value in e2e.items():
        print(f"  {name:<16} {value:.6g} {units[name]}")
    if rep["tail"]:
        pct, value = rep["tail"]
        print(f"  session_tail_s   {value:.6g} s (p{pct:.1f} of {len(rep['op_samples'])})")
    else:
        print(f"  session_tail_s   n/a: {len(rep['op_samples'])} samples, "
              f"a tail needs {2 * TAIL_BEYOND}")

    if args.trace:
        layer_units = layers.metric_units()
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in rep["per_layer"].items()}
        for name, bounds in rep["absent"].get("metrics", {}).items():
            print(f"  absent {name}: missing boundary {', '.join(bounds)}")
        for k, v in rep["per_layer"].items():
            print(f"  {k:<24} {v:.6g} {layer_units[k]}")
        if rep["per_layer"] and not rep["absent"].get("metrics"):
            for line in design_checks(wl.name, rep["per_layer"]):
                print(line)
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    correct = rep["failed"] == 0 and "unrecorded" not in rep["checks"]
    print(json.dumps({"correct": correct, "attempted": rep["ops"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
