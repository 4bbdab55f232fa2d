"""The benchmark's workloads and the checks on what each job produces.

A workload is a bundle made from the seed (`gen_powerlaw` + `export_bundle`,
exactly what `gcnsim gen` does) and one CLI command run on it through
`gcnsim.cli.main`. A job is one such command; for preprocess-roundtrip it
also reads every written `.pcoo` stream back with `pcoo.deserialize_stream`.

The census of a job is every simulated number it reports (cycles and slot
counts). It is the contract a host-time optimisation must not move, so each
job's census is compared with the recorded golden census for its seed, and
with the first job of the same run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from gcnsim import cli, formats, graphs, pcoo

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nodes: int
    features: int
    command: str          # the gcnsim subcommand run on the bundle
    flags: tuple          # its fixed flags
    degree: float = 4.0
    density: float = 0.1
    exponent: float = 2.1

    def argv(self, bundle: Path, out: Path, seed: int) -> list[str]:
        return [self.command, str(bundle), *self.flags, "--seed", str(seed),
                "--jobs", "1", "--out", str(out)]

    def out_path(self, work: Path) -> Path:
        return work / ("sweep.csv" if self.command == "sweep" else "out")


WORKLOADS = {w.name: w for w in (
    Workload(
        "simulate-gcn",
        "sym-normalised 2-layer GCN at citation-graph scale, hidden 64 (4 lane "
        "blocks per tile); the n x n densifications in sym_norm and the real "
        "reference dominate",
        nodes=8192, features=64, command="simulate",
        flags=("--model", "gcn", "--adjacency", "sym_norm", "--hidden", "64",
               "--classes", "4", "--pe", "16", "--tile", "512",
               "--replicas", "2")),
    Workload(
        "sweep-sage",
        "8-point GraphSAGE-mean sweep, the architect's inner loop: linear "
        "adjacency, so scheduling, simulation and verification redone per "
        "point dominate",
        nodes=8192, features=64, command="sweep",
        flags=("--model", "graphsage-mean", "--pe", "8,16", "--replicas", "1,2",
               "--tile", "512,1024")),
    Workload(
        "preprocess-roundtrip",
        "stream write and read-back at about 1M nonzeros with no model, oracle "
        "or real reference: tiling, stall pass, encode and decode only",
        nodes=131072, features=32, command="preprocess",
        flags=("--pe", "16", "--tile", "16384", "--replicas", "2")),
)}


# -- set-up ---------------------------------------------------------------------


def setup(wl: Workload, seed: int, bundle: Path) -> dict:
    """Build the workload's bundle from the seed; returns phase times and a
    digest of the files written."""
    t0 = perf_counter()
    b = graphs.gen_powerlaw(wl.nodes, wl.degree, wl.exponent, seed,
                            wl.features, wl.density)
    t1 = perf_counter()
    paths = formats.export_bundle(bundle, b)
    t2 = perf_counter()
    return {"gen_s": t1 - t0, "export_s": t2 - t1, "setup_s": t2 - t0,
            "digest": bundle_digest(paths.values())}


def bundle_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# -- one job ----------------------------------------------------------------------


@dataclass
class Job:
    seconds: float
    census: dict | None
    slots: int            # sum of compute cycles x PE count over its schedules
    problems: list


def run_job(wl: Workload, bundle: Path, work: Path, seed: int) -> Job:
    """Run one job and check its output; only the command and the stream
    read-back are inside `seconds`."""
    out = wl.out_path(work)
    if out.is_dir():
        shutil.rmtree(out)
    elif out.exists():
        out.unlink()
    stderr = io.StringIO()
    problems = []
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(wl.argv(bundle, out, seed))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        problems.append("uncaught exception:\n" + traceback.format_exc())
    seconds = perf_counter() - t0
    if rc != 0:
        problems.append(f"exit code {rc}: {stderr.getvalue().strip()[-500:]}")
    if "Traceback" in stderr.getvalue():
        problems.append("traceback on stderr")
    if problems:
        return Job(seconds, None, 0, problems)
    try:
        if wl.command == "simulate":
            census, slots = simulate_census(out, problems)
        elif wl.command == "sweep":
            census, slots = sweep_census(out, problems)
        else:
            census, slots = preprocess_census(out, problems)
            seconds += read_back(out, census, problems)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
        return Job(seconds, None, 0, problems)
    return Job(seconds, census, slots, problems)


def simulate_census(out: Path, problems: list) -> tuple[dict, int]:
    doc = json.loads((out / "report.json").read_text())
    if doc["verify"]["exact_match"] is not True:
        problems.append("simulate: exact_match is false")
    sd = doc["sdmm"]
    census = {
        "phases": doc["phases"],
        "steps": [{k: s[k] for k in ("label", "mode", "load_cycles",
                                     "compute_cycles", "move_cycles")}
                  for s in doc["steps"]],
        "sdmm": {k: sd[k] for k in ("compute_cycles", "work", "ideal_cycles",
                                    "slots", "per_pe")},
    }
    ph = census["phases"]
    if ph["total_cycles"] != ph["load_cycles"] + ph["compute_cycles"] + ph["move_cycles"]:
        problems.append("simulate: phases do not add up to total_cycles")
    pe = doc["config"]["pe_count"]
    if sum(sd["slots"].values()) != sd["compute_cycles"] * pe:
        problems.append("simulate: SDMM slot census does not cover compute cycles")
    return census, ph["compute_cycles"] * pe


SWEEP_CENSUS = ("pe", "replicas", "tile", "lanes", "total_cycles", "load_cycles",
                "compute_cycles", "move_cycles", "sdmm_compute_cycles",
                "sdmm_work", "ideal_cycles", "valid", "empty_row", "collision",
                "imbalance")


def sweep_census(out: Path, problems: list) -> tuple[dict, int]:
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    census = {"rows": [{k: int(r[k]) for k in SWEEP_CENSUS} for r in rows]}
    if not rows:
        problems.append("sweep: no rows")
    for r, c in zip(rows, census["rows"]):
        point = f"sweep point pe={c['pe']} r={c['replicas']} t={c['tile']}"
        if r["exact_match"] != "True":
            problems.append(f"{point}: exact_match is {r['exact_match']}")
        if c["total_cycles"] != c["load_cycles"] + c["compute_cycles"] + c["move_cycles"]:
            problems.append(f"{point}: phases do not add up to total_cycles")
        slots = c["valid"] + c["empty_row"] + c["collision"] + c["imbalance"]
        if slots != c["sdmm_compute_cycles"] * c["pe"]:
            problems.append(f"{point}: slot census does not cover compute cycles")
    return census, sum(c["compute_cycles"] * c["pe"] for c in census["rows"])


STREAM_CENSUS = ("file", "kind", "tile_index", "value_bits", "valid",
                 "empty_row", "stall_idle", "pad_idle", "cycles")


def preprocess_census(out: Path, problems: list) -> tuple[dict, int]:
    meta = json.loads((out / "meta.json").read_text())
    census = {"config": meta["config"], "totals": meta["totals"],
              "streams": [{k: s[k] for k in STREAM_CENSUS} for s in meta["streams"]]}
    k = meta["config"]["pe_count"]
    for s in census["streams"]:
        if s["valid"] + s["empty_row"] + s["stall_idle"] + s["pad_idle"] != s["cycles"] * k:
            problems.append(f"preprocess {s['file']}: census does not cover its slots")
    for key, total in census["totals"].items():
        if total != sum(s[key] for s in census["streams"]):
            problems.append(f"preprocess: totals[{key}] is not the sum over streams")
    return census, census["totals"]["cycles"] * k


def read_back(out: Path, census: dict, problems: list) -> float:
    """Decode every stream meta.json lists; returns the seconds spent reading
    and decoding. The header and slot census of each must match meta.json."""
    cfg = census["config"]
    seconds = 0.0
    for s in census["streams"]:
        t0 = perf_counter()
        header, decoded = pcoo.deserialize_stream((out / s["file"]).read_bytes())
        seconds += perf_counter() - t0
        got = (header.tile_width, header.value_bits, header.pe_count, header.cycle_count)
        want = (cfg["tile_width"], s["value_bits"], cfg["pe_count"], s["cycles"])
        if got != want:
            problems.append(f"read-back {s['file']}: header {got} != meta {want}")
            continue
        valid, empty = slot_counts(decoded)
        idle = s["cycles"] * cfg["pe_count"] - valid - empty
        if (valid, empty, idle) != (s["valid"], s["empty_row"],
                                    s["stall_idle"] + s["pad_idle"]):
            problems.append(f"read-back {s['file']}: decoded census "
                            f"{(valid, empty, idle)} differs from meta.json")
    return seconds


def slot_counts(decoded) -> tuple[int, int]:
    """Valid packets and empty-row markers in a decoded stream, given either
    as a packet grid or as a schedule with sor/eor/vld arrays."""
    if hasattr(decoded, "vld"):
        vld = decoded.vld == 1
        empty = (decoded.sor == 1) & (decoded.eor == 1) & ~vld
        return int(vld.sum()), int(empty.sum())
    valid = empty = 0
    for cycle in decoded:
        for p in cycle:
            if p.vld:
                valid += 1
            elif p.sor and p.eor:
                empty += 1
    return valid, empty


# -- golden census ------------------------------------------------------------------


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def census_diff(want, got, path: str = "census") -> str | None:
    """Path and values of the first difference between two censuses, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return f"{path}: keys {sorted(want)} != {sorted(got)}"
        for key in want:
            diff = census_diff(want[key], got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path}: length {len(want)} != {len(got)}"
        for i, (w, g) in enumerate(zip(want, got)):
            diff = census_diff(w, g, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if want != got or type(want) is not type(got):
        return f"{path}: expected {want!r}, got {got!r}"
    return None
