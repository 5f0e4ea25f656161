"""Record the expected verdicts and artifact digests into golden.json.

Usage, from the root of a checkout:

    python3 perfbench/record.py

Runs every input variant of every workload once, untraced, and writes
``perfbench/golden.json``.  Record only at a commit whose outputs are known
to be right: the benchmark counts every later difference as a failure.
For ``holonomy-sweep`` the verify report does not depend on the seed; the
recording checks that by running two seeds.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    tk = workloads.Toolkit()
    golden = {}
    for name, workload in workloads.workloads(ROOT / "fixtures").items():
        seeds = (range(workloads.VARIANTS) if workload.input_key(0)
                 != workload.input_key(1) else (0, 1))
        entry = golden.setdefault(name, {})
        for seed in seeds:
            outcomes = workloads.run_pass(
                workload, tk, workload.instances(tk, seed))[1]
            got = {o.label: o.key() for o in outcomes}
            key = workload.input_key(seed)
            if entry.get(key, got) != got:
                raise SystemExit(f"{name}: outcomes depend on the seed "
                                 f"within input {key}")
            entry[key] = got
            print(f"{name} {key}: "
                  + ", ".join(f"{o.label}={o.status}" for o in outcomes),
                  file=sys.stderr)
    text = json.dumps(golden, sort_keys=True, indent=1) + "\n"
    (HERE / "golden.json").write_text(text)


if __name__ == "__main__":
    main()
