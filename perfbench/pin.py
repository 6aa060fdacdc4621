"""Regenerate pins.json: histograms and CSV digests at the default seed.

    python3 perfbench/pin.py

Run only when a workload's request list changes, on a commit whose outputs
are known to be right; a change to the program must match the pins.
"""

import json
import shutil
import sys
import time

from run import HERE, PINS, run_pass
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    pins = {}
    workdir = HERE / ".work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            result = run_pass(name, DEFAULT_SEED, workdir, "verify", time.monotonic() + 600)
            digests = result["digests"][:len(workload.requests)]
            for d in result["digests"]:
                if d["problems"]:
                    print(f"{name}: {d['problems']}", file=sys.stderr)
                    return 1
            pins[name] = [{key: d[key] for key in ("hist", "csv") if key in d} for d in digests]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
