"""Record each workload's output digests at the default seed into digests.json.

    python3 perfbench/record_digests.py

Covers each workload's prefix, the calls every run executes first: one digest
per call over its values, witness sets, witness trees and verdict rows, with
timings left out. Refuses to record outputs that fail the correctness checks.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.check_environment()
    digests = {}
    for name, wl in workloads.WORKLOADS.items():
        sk, calls, _ = run.setup(wl, run.DEFAULT_SEED)
        done, _ = run.run_calls(sk, wl, calls, 0.0)
        for call, out in done:
            if not out or not all(wl.check(sk, call, [rec for _, rec in out])):
                print(f"{name}: a call failed its checks; nothing recorded", file=sys.stderr)
                return 1
        digests[name] = [run.call_digest(out) for _, out in done[:wl.prefix_calls]]
        print(f"{name}: {len(digests[name])} calls")
    run.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
