"""Runs one workload's jobs in a process of its own and writes the raw results.

Started by run.py with the bundle already built, so the process's peak RSS,
taken when its first job ends, covers ingesting and running this workload
only. Jobs run one at a time,
back to back, until --seconds have passed. With --trace 1 the run first makes
one probe pass (schedule-build counts and tracemalloc peaks), then alternates
untraced and traced jobs so the tracing overhead is measured under the same
conditions.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402


def measure(wl, bundle: Path, work: Path, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list]:
    golden = workloads.load_golden().get(wl.name, {}).get(str(seed))
    jobs, problems, layers, spans = [], [], [], []
    first_census = None
    probe_counts = {}
    peak_rss_mb = None

    def one(kind: str):
        nonlocal first_census, peak_rss_mb
        patches = {"probe": tracer.Probe, "traced": tracer.Tracer}.get(kind)
        if patches is None:
            problems.extend(tracer.unpatched_problems())
        else:
            patches = patches()
            patches.install()
        try:
            job = workloads.run_job(wl, bundle, work, seed)
        finally:
            if patches is not None:
                patches.restore()
        if job.census is not None:
            if first_census is None:
                first_census = job.census
            for name, want in (("golden", golden), ("first job", first_census)):
                diff = want is not None and workloads.census_diff(want, job.census)
                if diff:
                    job.problems.append(f"differs from {name} census: {diff}")
        if peak_rss_mb is None:
            # later jobs add allocator fragmentation, not workload memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems.extend(job.problems)
        jobs.append({"kind": kind, "seconds": job.seconds, "slots": job.slots,
                     "failed": bool(job.problems)})
        if kind == "traced":
            layers.append(tracer.job_metrics(patches.spans, job.seconds))
            spans.append({"job": len(jobs) - 1, "seconds": job.seconds,
                          "spans": patches.spans})
        elif kind == "probe":
            probe_counts.update({
                "schedule.build_sdmm_schedule.distinct": len(patches.distinct),
                **{f"{layer}.peak_mb": mb for layer, mb in patches.peak_mb.items()},
            })

    if trace:
        one("probe")
    kinds = ("untraced", "traced") if trace else ("untraced",)
    t0 = perf_counter()
    n = 0
    while n < len(kinds) or perf_counter() - t0 < seconds:
        one(kinds[n % len(kinds)])
        n += 1
    result = {
        "jobs": jobs,
        "problems": problems,
        "golden": golden is not None,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["layers"] = {key: sum(m[key] for m in layers) / len(layers)
                            for key in layers[0]}
        result["layers"].update(probe_counts)
    return result, spans


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bundle", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    result, spans = measure(workloads.WORKLOADS[args.workload], args.bundle,
                            args.work, args.seed, args.seconds, bool(args.trace))
    if spans:
        args.result.with_name("spans.json").write_text(json.dumps(spans))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
