"""Host-time benchmark for gcnsim: simulate, sweep and preprocess round-trip.

    python3 perfbench/run.py --workload simulate-gcn --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from anywhere; it uses the checkout that holds this file and writes only
under its `.perfbench_work/`. For each workload it builds the bundle from the
seed several times (set-up, timed and checked to be byte-identical), then
starts worker.py in a fresh process that runs the CLI job back to back for
--seconds and checks every job's simulated census against the recorded
golden one. With --trace 0 it reports the end-to-end metrics (host time,
never simulated time); with --trace 1 the per-layer metrics and the tracing
overhead. The last line of output is one JSON object.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in the worker
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 1.0
DEFAULT_SECONDS = 30.0   # run_seconds in BENCHMARK.json
TIME_LIMIT_S = 170   # a run must end within 180 s

END_TO_END_UNITS = {"job_s": "s", "slots_per_s": "slots/s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".distinct", "count"),
                         (".ns_per_slot", "ns/slot"), (".peak_mb", "MiB"),
                         (".bytes", "bytes"), (".s", "s"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(wl, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    import workloads

    work = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    bundle = work / "bundle"
    problems = []
    try:
        setups = []
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and sum(
                s["setup_s"] for s in setups) < SETUP_SECONDS):
            setups.append(workloads.setup(wl, seed, bundle))
        if len({s["digest"] for s in setups}) != 1:
            problems.append("set-up: the same seed wrote different bundle files")
        result_path = work / "result.json"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
             "--seed", str(seed), "--bundle", str(bundle), "--work", str(work),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--result", str(result_path)],
            env=env, stdout=sys.stderr, check=True, timeout=deadline - perf_counter())
        worker = json.loads(result_path.read_text())
        if trace:
            WORK.mkdir(exist_ok=True)
            spans = WORK / f"{wl.name}.spans.json"
            shutil.move(work / "spans.json", spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = worker["jobs"]
    problems += worker["problems"]
    failed = sum(j["failed"] for j in jobs)
    checked = ("against the golden census" if worker["golden"] else
               "no golden census for this seed: invariants and job-to-job equality")
    print(f"== {wl.name}  seed {seed}  (checked {checked})")
    setup_s = statistics.median(s["setup_s"] for s in setups)
    if trace:
        metrics = dict(worker["layers"])
        metrics["graphs.gen_powerlaw.s"] = statistics.median(s["gen_s"] for s in setups)
        metrics["formats.export_bundle.s"] = statistics.median(s["export_s"] for s in setups)
        traced = [j["seconds"] for j in jobs if j["kind"] == "traced"]
        untraced = [j["seconds"] for j in jobs if j["kind"] == "untraced"]
        metrics["trace.job_s"] = statistics.fmean(traced)
        metrics["trace.untraced_job_s"] = statistics.fmean(untraced)
        metrics["trace.overhead_s"] = metrics["trace.job_s"] - metrics["trace.untraced_job_s"]
        for name in sorted(metrics):
            print(f"  {name:<42} {metrics[name]:>14.6f} {layer_unit(name)}")
        print(f"  tracing overhead: {metrics['trace.overhead_s']:+.4f} s per job "
              f"(traced mean of {len(traced)}, untraced mean of {len(untraced)}); "
              f"spans in {spans.relative_to(ROOT)}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        times = [j["seconds"] for j in jobs]
        q1, job_s, q3 = quartiles(times)
        slots = max(j["slots"] for j in jobs)
        metrics = {"job_s": job_s, "slots_per_s": slots / job_s,
                   "peak_rss_mb": worker["peak_rss_mb"], "setup_s": setup_s}
        units = END_TO_END_UNITS
        print(f"  job_s        {job_s:12.4f} s        (q1 {q1:.4f}, q3 {q3:.4f}, n={len(times)})")
        print(f"  slots_per_s  {metrics['slots_per_s']:12.1f} slots/s  ({slots} PE-slots per job)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:12.1f} MiB")
        print(f"  setup_s      {setup_s:12.4f} s        (median of {len(setups)})")
    print(f"  fail_ratio   {failed / len(jobs):12.4f}          ({failed}/{len(jobs)} jobs failed)")
    for p in problems[:20]:
        print(f"  problem: {p}")
    return {"correct": not problems, "attempted": len(jobs), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def machine() -> str:
    import numpy

    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return (f"machine: nproc {len(os.sched_getaffinity(0))}, RAM {ram / 2**30:.1f} GiB, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"BLAS threads {BLAS_THREADS}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="simulate-gcn, sweep-sage, preprocess-roundtrip or all")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed, for gen and the command (0-20 and "
                        "7919 have a golden census)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="how long each workload runs jobs back to back")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = perf_counter()
    if not (SRC / "gcnsim" / "cli.py").is_file():
        print(f"error: no gcnsim sources under {SRC}", file=sys.stderr)
        return 2
    # the workloads import gcnsim, so they load only once its sources are known
    sys.path[:0] = [str(SRC)]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        p.error(f"unknown workload {sorted(unknown)}")
    print(machine())
    results = {}
    for name in names:
        deadline = start + TIME_LIMIT_S * (len(results) + 1)
        results[name] = run_workload(workloads.WORKLOADS[name], args.seed,
                                     args.seconds, bool(args.trace), deadline)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
