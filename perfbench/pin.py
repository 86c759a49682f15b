"""Pin each workload's quality numbers and rankings digest, per seed.

    python3 perfbench/pin.py --seeds 0-19 [--workload NAME]

Runs each workload once per seed, untraced, and merges the results into
perfbench/pins.json, which run.py checks every run against.  The outputs
are a contract: re-pin only for a change that moves them on purpose, and
say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# quality numbers are deterministic; this only absorbs summation-order noise
TOLERANCE = 1e-9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", default=None)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    run._import_library()
    from workloads import THREADS, WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    path = run.HERE / "pins.json"
    pins = run._read_json(path) if path.exists() else {"workloads": {}}
    pins["tolerance"] = TOLERANCE
    for name in names:
        for seed in seeds:
            work = run.WORK / "pin" / f"{name}-s{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                config, _ = WORKLOADS[name].setup(seed, work)
                record = run.run_child(config, "pin", False, THREADS, work,
                                       time.monotonic() + 170.0)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if record["errors"]:
                sys.exit(f"{name} seed {seed}: {record['errors']}")
            entry = dict(record["quality"], rankings_sha256=record["digest"])
            pins["workloads"].setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {entry}", flush=True)
            run._write_json(path, pins)
    return 0


if __name__ == "__main__":
    sys.exit(main())
