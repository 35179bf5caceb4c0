"""Record the SHA-256 values the benchmark checks outputs against.

    python3 perfbench/record.py

For every workload (full and smoke size) this runs `mpfkap setup` once
per seed of workloads.SETUP_POOL and stores the hashes of the JSON file
and its binary mirror; for the KEM workload it also runs one session per
(setup seed, session seed) pair and stores the hashes of the frames left
in the exchange directory and of the key.  Both parties must exit 0 with
byte-identical keys, or recording stops.  The result is written to
perfbench/recorded.json.

Run it only at a commit whose outputs are known good: the benchmark
then reports any later change to these bytes as a failure.
"""

from __future__ import annotations

import json
import os
import sys

from run import RECORDS, ROOT
from workloads import KEM_SESSION_POOL, SETUP_POOL, SMOKE, WORKLOADS, Bench, record_key


def record(wl, smoke: bool) -> dict:
    bench = Bench(ROOT, wl, 0, None)
    out: dict = {"setup": {}}
    try:
        for seed in SETUP_POOL:
            op, sdir = bench.setup_op(seed)
            if not op.ok:
                raise SystemExit(f"{wl.name} setup {seed}: {op.error}")
            out["setup"][str(seed)] = op.digests
            if wl.op != "kem":
                continue
            bench.use_params(os.path.join(sdir, "params.json"), seed)
            bench.kem_order = list(KEM_SESSION_POOL)
            for i, session_seed in enumerate(KEM_SESSION_POOL):
                op, _ = bench.session_op(i)
                if not op.ok:
                    raise SystemExit(f"{wl.name} kem {seed}/{session_seed}: {op.error}")
                out.setdefault("kem", {})[f"{seed}/{session_seed}"] = op.digests
            print(f"recorded {record_key(wl, smoke)} setup {seed}", file=sys.stderr)
    finally:
        bench.close(False)
    return out


def main() -> int:
    records = {}
    for name in sorted(WORKLOADS):
        for table, smoke in ((SMOKE, True), (WORKLOADS, False)):
            records[record_key(table[name], smoke)] = record(table[name], smoke)
            with open(RECORDS, "w", encoding="utf-8") as fh:
                json.dump(records, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
