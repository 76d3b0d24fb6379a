"""Record the cost-table digests the benchmark checks its outputs against.

The ``paper_sweep`` and ``multisource_256`` workloads compare the digest of
every cost table they produce with the one recorded here for the same seed.
Run this only when a change is meant to alter those tables, from the root of
a checkout::

    python3 perfbench/record_digests.py [--seeds 0-19]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.calib import Calibrator  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
CHECKED = ("paper_sweep", "multisource_256")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    recorded = {}
    work_dir = ROOT / ".perfbench_work" / "record-digests"
    for name in CHECKED:
        recorded[name] = {}
        for seed in seeds:
            workload = WORKLOADS[name](seed, "full", work_dir)
            workload.setup()
            workload.measure(Calibrator(), 0.0, fixed=True)
            recorded[name][str(seed)] = workload.digest()
            print(name, seed, recorded[name][str(seed)], flush=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
