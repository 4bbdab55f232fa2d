"""Run-report documents: JSON persistence, ideal-latency comparison, rendering.

A document bundles the phase totals and per-PE slot census of one inference
(or one standalone product) with the config that produced it. The ideal
comparison covers the sparse compute phase only: ideal cycles assume every
PE is busy every cycle, so efficiency = ideal / actual is the fraction of
sparse compute time that did mandatory work (nonzeros and empty-row
markers), the rest being collision stalls and imbalance pads.

This module alone names the slot census (schedule.ScheduleStats) in
documents: its stall_idle and pad_idle are "collision" and "imbalance",
and its valid work is "compute" in a step's per_pe and "valid" in the
sdmm block, which is the sum of the sparse steps' censuses.
"""

from __future__ import annotations

import json

from .runtime import RunReport
from .schedule import ArchConfig, ScheduleStats
from .simulator import MODE_SDMM

REPORT_VERSION = 1

# informational utilization benchmark: worst PE idle under a fifth of the
# sparse compute time on well-balanced workloads
IDLE_BENCHMARK = 0.20

_REQUIRED_KEYS = ("version", "label", "config", "phases", "steps", "sdmm")


class ReportFormatError(ValueError):
    """Report file is not a document this module wrote."""


def ideal_cycles(work: int, pe_count: int) -> int:
    """Cycles a perfectly balanced, stall-free array would need."""
    if work < 0 or pe_count < 1:
        raise ValueError("work must be >= 0 and pe_count >= 1")
    return -(-work // pe_count)


def _per_pe(census: ScheduleStats, valid_name: str) -> dict:
    """The census under the document's names; a step calls valid work "compute"."""
    return {valid_name: census.valid.tolist(), "empty_row": census.empty_row.tolist(),
            "collision": census.stall_idle.tolist(), "imbalance": census.pad_idle.tolist()}


def report_document(report: RunReport, cfg: ArchConfig, label: str = "run",
                    verify: dict | None = None) -> dict:
    doc = {
        "version": REPORT_VERSION,
        "label": label,
        "config": {
            "pe_count": cfg.pe_count, "lanes": cfg.lanes, "groups": cfg.groups,
            "tile_width": cfg.tile_width, "replicas": cfg.replicas,
            "load_bw": cfg.load_bw, "move_bw": cfg.move_bw,
        },
        "phases": {
            "load_cycles": sum(r.load_cycles for _, r in report.steps),
            "compute_cycles": sum(r.compute_cycles for _, r in report.steps),
            "move_cycles": sum(r.move_cycles for _, r in report.steps),
            "total_cycles": report.total_cycles(),
        },
        "steps": [{"label": name, "mode": r.mode, "load_cycles": r.load_cycles,
                   "compute_cycles": r.compute_cycles, "move_cycles": r.move_cycles,
                   "total_cycles": r.total_cycles, "per_pe": _per_pe(r.census, "compute")}
                  for name, r in report.steps],
        "sdmm": _ideal_block(report),
    }
    if verify is not None:
        doc["verify"] = dict(verify)
    return doc


def _ideal_block(report: RunReport) -> dict:
    """Ideal-latency comparison over the summed sparse (SDMM) step censuses."""
    sparse = [r.census for _, r in report.steps if r.mode == MODE_SDMM]
    if not sparse:
        return {"compute_cycles": 0, "work": 0, "ideal_cycles": 0,
                "efficiency": None, "slots": {}, "per_pe": {},
                "worst_idle_fraction": 0.0, "idle_under_benchmark": True}
    census = sum(sparse[1:], sparse[0])
    cycles = census.cycles
    per_pe = _per_pe(census, "valid")
    work = sum(per_pe["valid"]) + sum(per_pe["empty_row"])
    ic = ideal_cycles(work, census.pe_count)
    idle_frac = [(stall + pad) / cycles if cycles else 0.0
                 for stall, pad in zip(per_pe["collision"], per_pe["imbalance"])]
    worst = max(idle_frac)
    return {
        "compute_cycles": cycles,
        "work": work,
        "ideal_cycles": ic,
        "efficiency": ic / cycles if work else None,
        "slots": {key: sum(counts) for key, counts in per_pe.items()},
        "per_pe": per_pe,
        "idle_fraction": idle_frac,
        "worst_idle_fraction": worst,
        "idle_under_benchmark": worst < IDLE_BENCHMARK,
    }


def write_report(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_report(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, a 5000-digit int
        raise ReportFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ReportFormatError(f"{path}: expected a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ReportFormatError(f"{path}: missing keys {missing}")
    if doc["version"] != REPORT_VERSION:
        raise ReportFormatError(f"{path}: unsupported report version {doc['version']}")
    return doc


def render_report(doc: dict) -> str:
    """Tabular human-readable summary of one report document."""
    cfg = doc["config"]
    ph = doc["phases"]
    sd = doc["sdmm"]
    lines = [
        f"run: {doc['label']}",
        (f"array: {cfg['pe_count']} PEs x {cfg['lanes']} lanes, "
         f"tile {cfg['tile_width']}, {cfg['groups']} banks, "
         f"{cfg['replicas']} replica(s)"),
        (f"cycles: total {ph['total_cycles']}  load {ph['load_cycles']}  "
         f"compute {ph['compute_cycles']}  move {ph['move_cycles']}"),
    ]
    if sd["compute_cycles"]:
        slots = sd["slots"]
        lines.append(f"sparse compute: {sd['compute_cycles']} cycles, "
                     f"work {sd['work']} slots "
                     f"(valid {slots['valid']}, empty {slots['empty_row']}, "
                     f"stall {slots['collision']}, pad {slots['imbalance']})")
        eff = sd["efficiency"]
        lines.append(f"ideal: {sd['ideal_cycles']} cycles -> efficiency "
                     + (f"{eff:.4f}" if eff is not None else "n/a"))
        flag = "yes" if sd["idle_under_benchmark"] else "NO"
        lines.append(f"worst PE idle fraction: {sd['worst_idle_fraction']:.4f} "
                     f"(under {IDLE_BENCHMARK:.0%} benchmark: {flag})")
        lines.append("per-PE idle fraction: "
                     + " ".join(f"{f:.3f}" for f in sd["idle_fraction"]))
    if "verify" in doc:
        v = doc["verify"]
        err, agree = v["max_abs_err"], v["argmax_agreement"]
        lines.append(f"oracle: exact_match={v['exact_match']} "
                     f"max_abs_err={'n/a' if err is None else f'{err:.6f}'} "
                     f"argmax_agreement={'n/a' if agree is None else f'{agree:.4f}'}")
    return "\n".join(lines) + "\n"
