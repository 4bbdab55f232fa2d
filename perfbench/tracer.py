"""Per-layer tracing of gcnsim from outside: wrappers installed at binding sites.

`from .x import y` copies the function reference into the importing module,
so each function is replaced in every module namespace that calls it
(SITES). Only the traced run installs wrappers; `restore()` puts the original
function objects back and `unpatched_problems()` proves it.

Two kinds of wrapper, never installed together:
- Tracer times every call as a span (name, start, end, parent) kept in memory.
- Probe counts schedule builds and their distinct (tile content, ArchConfig)
  pairs, and measures tracemalloc peaks of the two functions that densify to
  n x n. Hashing and tracemalloc cost time, so they run in a separate pass.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import tracemalloc
from time import perf_counter

import numpy as np

# (module whose global is replaced, function name, layer name)
SITES = (
    ("schedule", "tile_columns", "schedule.tile_columns"),
    ("cli", "tile_columns", "schedule.tile_columns"),
    ("schedule", "assign_rows", "schedule.assign_rows"),
    ("schedule", "stall_collisions", "schedule.stall_collisions"),
    ("simulator", "build_sdmm_schedule", "schedule.build_sdmm_schedule"),
    ("cli", "build_sdmm_schedule", "schedule.build_sdmm_schedule"),
    ("simulator", "load_tile", "simulator.load_tile"),
    ("simulator", "run_tile", "simulator.run_tile"),
    ("simulator", "check_arbitration", "simulator.check_arbitration"),
    ("runtime", "simulate_step", "simulator.simulate_step"),
    ("cli", "run_model", "runtime.run_model"),
    ("cli", "verify_against_oracle", "runtime.verify_against_oracle"),
    ("runtime", "run_oracle", "runtime.run_oracle"),
    ("runtime", "real_reference", "runtime.real_reference"),
    ("runtime", "sdmm_reference", "matrix.sdmm_reference"),
    ("cli", "normalize_adjacency", "matrix.normalize_adjacency"),
    ("cli", "mean_adjacency", "runtime.mean_adjacency"),
    ("cli", "ingest_bundle_dir", "formats.ingest_bundle_dir"),
    ("cli", "serialize_stream", "pcoo.serialize_stream"),
    ("pcoo", "deserialize_stream", "pcoo.deserialize_stream"),
    ("cli", "report_document", "report.report_document"),
    ("cli", "render_report", "report.render_report"),
    ("cli", "write_report", "report.write_report"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SITES))
PEAK_LAYERS = ("runtime.real_reference", "matrix.normalize_adjacency")
BUILD_LAYER = "schedule.build_sdmm_schedule"

# RunReport step labels of the benchmark's two-layer GCN and GraphSAGE models
STEP_LABELS = (
    "layer0.combine", "layer0.aggregate", "layer1.combine", "layer1.aggregate",
    "layer0.self", "layer0.neigh_combine", "layer0.neigh_aggregate",
    "layer1.self", "layer1.neigh_combine", "layer1.neigh_aggregate",
)

_MODULES = {mod: importlib.import_module(f"gcnsim.{mod}") for mod, _, _ in SITES}
ORIGINALS = {(mod, attr): getattr(_MODULES[mod], attr) for mod, attr, _ in SITES}


def unpatched_problems() -> list[str]:
    """Binding sites that do not hold the original function object."""
    return [f"gcnsim.{mod}.{attr} is wrapped" for (mod, attr), fn in ORIGINALS.items()
            if getattr(_MODULES[mod], attr) is not fn]


class _Patches:
    def __init__(self):
        self._saved = []

    def install(self, make):
        """Replace each site's function with make(layer, original) or keep it
        when make returns None."""
        for mod, attr, layer in SITES:
            wrapper = make(layer, ORIGINALS[(mod, attr)])
            if wrapper is not None:
                self._saved.append((mod, attr))
                setattr(_MODULES[mod], attr, wrapper)

    def restore(self):
        for mod, attr in self._saved:
            setattr(_MODULES[mod], attr, ORIGINALS[(mod, attr)])
        self._saved.clear()


# what a span keeps of its call's result, for counts measured where work happens
_EXTRA = {
    "schedule.stall_collisions": lambda result: int(result.sor.size),
    "pcoo.serialize_stream": len,
    "pcoo.deserialize_stream": lambda result: result[0].cycle_count * result[0].pe_count,
    "runtime.run_model": lambda result: [label for label, _ in result[1].steps],
}


class Tracer(_Patches):
    """Spans are [layer, start, end, parent index or -1, extra]."""

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self._stack: list = []

    def install(self):
        super().install(self._timed)

    def _timed(self, layer, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRA.get(layer)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[4] = extra(result)
            return result
        return timed


class Probe(_Patches):
    def __init__(self):
        super().__init__()
        self.builds = 0
        self.distinct: set = set()
        self.peak_mb = dict.fromkeys(PEAK_LAYERS, 0.0)

    def install(self):
        super().install(self._wrap)

    def _wrap(self, layer, fn):
        if layer == BUILD_LAYER:
            return self._counted(fn)
        if layer in PEAK_LAYERS:
            return self._peaked(layer, fn)
        return None

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(tile, cfg, *args, **kwargs):
            h = hashlib.blake2b(digest_size=16)
            for arr in (tile.row_ptr, tile.col_idx, tile.values):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr((tile.rows, tile.cols, tile.bits, tile.frac_bits,
                           tile.values.dtype.str, cfg)).encode())
            self.distinct.add(h.digest())
            self.builds += 1
            return fn(tile, cfg, *args, **kwargs)
        return counted

    def _peaked(self, layer, fn):
        @functools.wraps(fn)
        def peaked(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb[layer] = max(self.peak_mb[layer], peak / 2**20)
        return peaked


def job_metrics(spans: list, job_s: float) -> dict:
    """Per-layer metrics of one traced job from its spans.

    `<layer>.s` is self time (span minus its child spans), so the self times
    plus `unattributed.s` add up to job_s. `runtime.step.<label>.s` is the
    whole simulate_step call of each labelled model step.
    """
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    m = {f"{layer}.s": 0.0 for layer in LAYERS}
    calls = dict.fromkeys(LAYERS, 0)
    counts = dict.fromkeys(LAYERS, 0)
    steps = {label: 0.0 for label in STEP_LABELS}
    top = 0.0
    for i, (layer, t0, t1, parent, extra) in enumerate(spans):
        m[f"{layer}.s"] += t1 - t0 - child[i]
        calls[layer] += 1
        if parent < 0:
            top += t1 - t0
        if layer == "runtime.run_model":
            kids = [s for s in spans[i + 1:] if s[3] == i
                    and s[0] == "simulator.simulate_step"]
            for label, s in zip(extra, kids):
                if label in steps:
                    steps[label] += s[2] - s[1]
        elif isinstance(extra, int):
            counts[layer] += extra
    m["unattributed.s"] = job_s - top
    m.update({f"runtime.step.{label}.s": v for label, v in steps.items()})
    for layer in ("simulator.run_tile", "simulator.check_arbitration",
                  "runtime.run_oracle", "runtime.real_reference",
                  "schedule.build_sdmm_schedule"):
        m[f"{layer}.calls"] = calls[layer]
    for layer in ("schedule.stall_collisions", "pcoo.deserialize_stream"):
        slots = counts[layer]
        m[f"{layer}.ns_per_slot"] = m[f"{layer}.s"] * 1e9 / slots if slots else 0.0
    m["pcoo.bytes"] = counts["pcoo.serialize_stream"]
    return m
