"""Record the golden census of each workload at the given seeds.

    python3 perfbench/record_golden.py --seeds 0,7919 [--workload NAME]

Runs one job per workload and seed and stores its census in golden.json,
replacing earlier entries for those seeds. The golden census is the contract
that host-time work must keep: re-record only in a change that means to move
simulated results, and say why in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True,
                   type=lambda s: [int(t) for t in s.split(",")])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    path = workloads.GOLDEN_PATH
    golden = json.loads(path.read_text()) if path.exists() else {}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    work = ROOT / ".perfbench_work" / "record-golden"
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            for seed in args.seeds:
                shutil.rmtree(work, ignore_errors=True)
                workloads.setup(wl, seed, work / "bundle")
                job = workloads.run_job(wl, work / "bundle", work, seed)
                if job.problems:
                    print(f"{name} seed {seed}: not recorded:", *job.problems,
                          sep="\n  ", file=sys.stderr)
                    return 1
                golden.setdefault(name, {})[str(seed)] = job.census
                print(f"{name} seed {seed}: {job.slots} PE-slots, {job.seconds:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(dump(golden))
    return 0


def dump(golden: dict) -> str:
    """JSON with one line per workload and seed, so a re-record diffs by seed."""
    blocks = []
    for name in sorted(golden):
        seeds = golden[name]
        lines = [f"  {json.dumps(seed)}: {json.dumps(seeds[seed], sort_keys=True)}"
                 for seed in sorted(seeds, key=int)]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
