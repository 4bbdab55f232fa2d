"""Cycle-level execution of tile schedules on the modeled PE array.

SDMM and DMM share one executor: a schedule carries its multiplicands in
its value column (sparse nonzeros, or the dense block's entries), so the
packet semantics are the same for both. Within a PE column they are
sequential: sor seeds the accumulators from the saved partial of the PE's
current output row, vld accumulates value * W[col] into all lanes, eor
writes the accumulators back and advances to the PE's next row. PE p owns
rows p, p+K, p+2K, ... (the round-robin rule), so the row map is never
stored. PE columns share only the banks, whose clashes the schedule
already spends as stall slots, so a tile executes as one segment sum over
its valid slots taken PE by PE, where each output row's slots are
contiguous; the result is bit-identical to stepping packet by packet.

A product is planned (plan_step, every command's one path from an operand to
schedules: check_arbitration checks each once and counts its census in the
same walk), compiled (compile_tile: a schedule's PE-major segments, all a plan
keeps of it) and run (run_tile: all output columns of a tile at once, into one
output array). compile_plan returns one Plan, the operand's shape, scale and
mode with its compiled entries and the ArchConfig they were built for;
simulate_step takes it in place of the matrix and runs on that config, so a
Plan serves every product with its left operand and cannot meet another array.
The hardware walks the output C lanes at a time, replaying the schedule per
lane block, so each lane block only adds its load cycles and census. A step's
CycleReport sums those censuses, and report.py gives them their document names.

Memory: a plan entry's temporaries are bounded by a chunk, not by its grid.
check_arbitration walks whole cycles and compile_tile blocks of PEs, about
_PASS_SLOTS slots at a time, and run_tile multiplies _CHUNK_CELLS products at
a time. compile_plan drops each schedule before the next is built, so a plan
holds its compiled entries and at most one schedule.

Overflow note: emitted values are checked against the 32-bit accumulator
range at the end of a simulate_step, not per tile. Partials handed between
tiles may transiently exceed 32 bits; two's-complement wraparound makes the
final values identical either way, and the reference oracle checks the same
final quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .matrix import (
    DenseMatrix,
    OverflowTrap,
    ShapeError,
    SparseMatrixCSR,
    check_fits,
    int_max,
    int_min,
    value_dtype,
)
from .schedule import (
    ArchConfig,
    ScheduleStats,
    build_dmm_schedule,
    build_sdmm_schedule,
    tile_columns,
)
from .pcoo import PcooPacket, TileSchedule

MODE_SDMM = "sdmm"
MODE_DMM = "dmm"

# slots per step of a walk over a grid: whole cycles in check_arbitration,
# blocks of PEs in compile_tile
_PASS_SLOTS = 1 << 16
# products per run_tile chunk (valid slots x lanes): 512 KiB of int64
_CHUNK_CELLS = 1 << 16


class ArbitrationError(RuntimeError):
    """A granted cycle violates bank exclusivity: a scheduler bug, never silent."""


def load_tile(block: np.ndarray, cfg: ArchConfig) -> int:
    """Cycles to fill every replica with one T x C lane block of the dense tile.

    Every replica holds the same rows, so the PEs read one array; the bank
    striping (row mod groups) only matters to arbitration, which
    check_arbitration and the stall pass model on addresses alone. Cost is
    element count times r.
    """
    rows, cols = block.shape
    if rows > cfg.tile_width or cols > cfg.lanes:
        raise ShapeError(f"dense tile {rows}x{cols} exceeds {cfg.tile_width}x{cfg.lanes}")
    return math.ceil(rows * cols * cfg.replicas / cfg.load_bw) if rows * cols else 0


@dataclass
class PeState:
    """One PE: lane accumulators and output-row cursor."""

    acc: np.ndarray
    row_cursor: int = 0


def pe_step(pe: PeState, pkt: PcooPacket, w_row: np.ndarray,
            prev_tile_partial: np.ndarray) -> tuple[PeState, np.ndarray | None]:
    """Single-packet semantics; run_tile must agree with stepping these.

    Returns the new state and, when eor fires, the emitted lane vector. The
    multiplicand is always the packet's value, in sparse and dense mode
    alike. A valid packet outside a sor..eor pair is lost at the next sor;
    check_arbitration rejects such a schedule instead. Emission checks the
    32-bit range here because a lone step has no later tile to absorb a
    transient excursion.
    """
    acc = pe.acc.copy()
    cursor = pe.row_cursor
    emitted = None
    if not (pkt.sor or pkt.eor or pkt.vld):
        return PeState(acc, cursor), None
    if pkt.sor:
        acc = np.asarray(prev_tile_partial, dtype=np.int64).copy()
    if pkt.vld:
        acc = acc + pkt.value * np.asarray(w_row, dtype=np.int64)
    if pkt.eor:
        if acc.min() < int_min(32) or acc.max() > int_max(32):
            raise OverflowTrap(f"accumulator overflow emitting row {cursor}")
        emitted = acc.copy()
        cursor += 1
    return PeState(acc, cursor), emitted


def check_arbitration(sched: TileSchedule, cfg: ArchConfig, rows: int,
                      dense_rows: int) -> ScheduleStats:
    """Verify everything run_tile relies on, independently of the scheduler,
    and return the schedule's slot census.

    sched is a column tile of a rows-row operand against dense_rows dense
    rows. Each PE's sor and eor counts equal the rows it owns, every valid
    slot sits inside one of its sor..eor rows, and every packet column is a
    dense row. Within one cycle and replica group, all valid packets sharing
    a bank must share one address; anything else would be silent corruption
    in hardware, so it raises here. A sort of packed int64 keys (cycle,
    replica group, bank, col // groups) puts a bank's fetches side by side.
    With dense_rows <= groups every bank holds one address, so no cycle can
    clash and the sort is skipped; the other checks still run.

    The same walk counts each PE's valid slots, empty-row markers (sor=eor=1,
    vld=0) and idle slots (no bit set); the fewest idle slots in any PE are
    every PE's stalls (the schedule module says why), the rest pads.

    The grid is walked in chunks of whole cycles, about _PASS_SLOTS slots
    each, so every temporary is chunk-sized. Findings are raised after the
    walk in the order markers, stray, range, bank, each naming what a check
    of the whole grid would: the first PE with a stray and its first stray
    cycle, the largest column, and the first clashing cycle. A census that
    leaves a slot unclassified raises AssertionError after them.
    """
    k, g = cfg.pe_count, cfg.groups
    if sched.pe_count != k:
        raise ShapeError(f"schedule has {sched.pe_count} PEs, config {k}")
    per_bank = -(-dense_rows // g)  # addresses one bank holds
    step = max(1, _PASS_SLOTS // k)  # cycles per chunk
    opened = closed = np.zeros(k, np.int32)  # each PE's row markers so far
    stray_at = np.full(k, -1)  # each PE's first stray cycle
    n_valid, empty, idle = (np.zeros(k, np.int64) for _ in range(3))
    lo, hi = math.inf, -math.inf  # column range of the valid slots
    clash = None
    for c0 in range(0, sched.cycles, step):
        sor, eor, vld = (f[c0:c0 + step] for f in (sched.sor, sched.eor, sched.vld))
        valid = vld == 1
        n_valid += np.count_nonzero(valid, axis=0)
        empty += np.count_nonzero((sor == 1) & (eor == 1) & ~valid, axis=0)
        idle += np.count_nonzero((sor | eor | vld) == 0, axis=0)
        depth = np.cumsum(sor, axis=0, dtype=np.int32)
        depth += opened
        shut = np.cumsum(eor, axis=0, dtype=np.int32)
        shut += closed
        opened, closed = depth[-1].copy(), shut[-1].copy()
        # rows opened minus rows closed before each slot: 1 inside an open row
        depth -= shut
        del shut
        depth += eor
        stray = depth != 1
        del depth
        stray &= valid
        if stray.any():
            new = stray.any(axis=0) & (stray_at < 0)
            stray_at[new] = c0 + stray[:, new].argmax(axis=0)
        del stray
        flat = np.flatnonzero(valid)  # cycle-major slot indices in the chunk
        if not len(flat):
            continue
        cols = sched.col[c0:c0 + step].ravel()[flat]
        lo, hi = min(lo, int(cols.min())), max(hi, int(cols.max()))
        if clash is not None or dense_rows <= g:
            continue
        # groups divides the power-of-two tile width, so a column's bank is its
        # low bits; a slot's (cycle, replica group) is its cell // group width
        key = ((flat // cfg.group_width * g + (cols & (g - 1))) * per_bank
               + (cols >> g.bit_length() - 1))
        del flat, cols
        key.sort()
        bank_key = key // per_bank
        same = (bank_key[1:] == bank_key[:-1]) & (key[1:] != key[:-1])
        if same.any():
            at = int(np.flatnonzero(same)[0])
            a, b = (int(key[i] % per_bank * g + bank_key[i] % g) for i in (at, at + 1))
            clash = (f"cycle {c0 + int(bank_key[at]) // g // cfg.replicas}: addresses "
                     f"{a} and {b} share a bank in one replica group")
    owned = (rows - np.arange(k) + k - 1) // k  # len(range(p, rows, k)) per PE
    off_map = (opened != owned) | (closed != owned)
    if off_map.any():
        p = int(np.flatnonzero(off_map)[0])
        raise ArbitrationError(f"PE {p}: row markers disagree with its {owned[p]} rows")
    if (stray_at >= 0).any():
        p = int(np.flatnonzero(stray_at >= 0)[0])
        raise ArbitrationError(f"PE {p}: valid packet at cycle {stray_at[p]} "
                               f"is outside an open row")
    if lo < 0 or hi >= dense_rows:  # neither holds with no valid slot
        raise ShapeError(f"packet column {hi} outside dense tile rows {dense_rows}")
    if clash is not None:
        raise ArbitrationError(clash)
    stall = np.full_like(idle, idle.min())
    stats = ScheduleStats(n_valid, empty, stall, idle - stall, sched.cycles)
    stats.check_identity()
    return stats


class CompiledTile(NamedTuple):
    """A checked schedule's valid slots, PE-major, as run_tile consumes them:
    int16 packet values, and columns in int16 when they fit (T <= 2**15)."""

    starts: np.ndarray  # first slot of each output row's segment
    rows: np.ndarray    # that segment's output row, int32
    col: np.ndarray     # dense row of each valid slot
    value: np.ndarray   # multiplicand of each valid slot


def compile_tile(sched: TileSchedule) -> CompiledTile:
    """A checked schedule's valid slots: taken PE by PE, a row's slots are
    contiguous and a slot's row is p + K * (sors so far - 1). A row with no
    valid slot gets no segment; its partial passes on unchanged. The grid is
    compiled in blocks of PEs of about _PASS_SLOTS slots (one block when it
    fits) into preallocated slot arrays; a row never spans two PEs, so a
    block's own segment starts are the real ones, shifted."""
    k = sched.pe_count
    width = max(1, _PASS_SLOTS // max(sched.cycles, 1))  # PEs per block
    blocks = [slice(p0, p0 + width) for p0 in range(0, k, width)]
    n_valid = sum(np.count_nonzero(sched.vld[:, pes] == 1) for pes in blocks)
    col_dtype = value_dtype(16, 0, int(sched.col.max(initial=0)))
    col, value = np.empty(n_valid, col_dtype), np.empty(n_valid, sched.value.dtype)
    starts, rows = [], []
    s0 = 0
    for pes in blocks:
        part = _compile_pes(sched, pes)
        s1 = s0 + len(part.col)
        starts.append(part.starts + s0)
        rows.append(part.rows)
        col[s0:s1], value[s0:s1] = part.col, part.value
        del part  # before the next block's
        s0 = s1
    return CompiledTile(np.concatenate(starts), np.concatenate(rows), col, value)


def _compile_pes(sched: TileSchedule, pes: slice) -> CompiledTile:
    """compile_tile of the PE columns pes alone, its starts counted from 0."""
    valid = sched.vld[:, pes].T == 1  # PE-major (PEs x cycles)
    k = sched.pe_count
    row = np.cumsum(sched.sor[:, pes].T, axis=1, dtype=np.int32)[valid]  # 1 + index among rows
    row -= 1
    row *= k
    row += np.repeat(np.arange(k, dtype=np.int32)[pes], valid.sum(axis=1))  # int32, in place
    first = np.ones(len(row), bool)  # a segment starts where the row changes
    np.not_equal(row[1:], row[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return CompiledTile(starts, row[starts], sched.col[:, pes].T[valid],
                        sched.value[:, pes].T[valid])


def run_tile(tile: CompiledTile, w: np.ndarray, out: np.ndarray) -> None:
    """Add a compiled tile times w (T rows, any lanes) into out, the m-row int64
    OMMB, in place; its schedule was checked in its plan. Lane-major: gather w's
    columns, multiply, segment-sum along contiguous rows, in chunks of slots so
    that memory stays linear in slots plus m x lanes (a cut row is added twice)."""
    if out.ndim != 2 or out.shape[1] != w.shape[1]:
        raise ShapeError("partials block does not match dense tile lanes")
    wt = np.ascontiguousarray(np.asarray(w).T)  # at w's width
    step = max(1, _CHUNK_CELLS // max(w.shape[1], 1))
    for s0 in range(0, len(tile.col), step):
        i0 = np.searchsorted(tile.starts, s0, "right") - 1  # the row s0 lies in
        i1 = np.searchsorted(tile.starts, s0 + step)
        prod = np.multiply(wt.take(tile.col[s0:s0 + step], axis=1),
                           tile.value[s0:s0 + step], dtype=np.int64)
        cuts = np.maximum(tile.starts[i0:i1], s0) - s0
        out[tile.rows[i0:i1]] += np.add.reduceat(prod, cuts, axis=1).T


def data_move(y: np.ndarray, cfg: ArchConfig) -> int:
    """Cycles to stream a result array to its next home; OMMB keeps its copy."""
    return math.ceil(y.size / cfg.move_bw) if y.size else 0


@dataclass
class CycleReport:
    """One product's phase cycles: census sums every schedule run's census, and
    tiles has each plan entry's col_offset, lane_blocks (runs) and one run's totals."""

    census: ScheduleStats
    mode: str = MODE_SDMM
    load_cycles: int = 0
    move_cycles: int = 0
    tiles: list = field(default_factory=list)

    @property
    def compute_cycles(self) -> int:
        return self.census.cycles

    @property
    def total_cycles(self) -> int:
        return self.load_cycles + self.compute_cycles + self.move_cycles


def plan_step(x, cfg: ArchConfig) -> Iterator[tuple[int, TileSchedule, ScheduleStats]]:
    """Yield (first column, checked schedule, slot census) of each column tile.

    A SparseMatrixCSR plans SDMM: each column tile streams its nonzeros as
    packets. A DenseMatrix plans DMM: each column block is swept in full, K
    rows at a time, with one address stream and its entries as the values.
    Every schedule passes check_arbitration before it is yielded. A tile's
    schedule is built only when the previous entry is asked past, and the
    plan keeps no reference to a yielded one, so a consumer that drops each
    entry holds one tile's schedule at a time.
    """
    check_operand(x)
    t = cfg.tile_width
    starts = range(0, max(x.cols, 1), t)  # as many as tile_columns yields
    if isinstance(x, SparseMatrixCSR):
        scheds = (build_sdmm_schedule(tile, cfg) for tile in tile_columns(x, t))
    else:
        scheds = (build_dmm_schedule(x.data[:, c0:c0 + t], cfg.pe_count) for c0 in starts)
    for c0 in starts:
        sched = next(scheds)
        yield c0, sched, check_arbitration(sched, cfg, x.rows, min(t, x.cols - c0))
        del sched


def check_operand(x) -> None:
    """Reject a left operand of no operand type; its type picks the mode."""
    if not isinstance(x, (SparseMatrixCSR, DenseMatrix)):
        raise TypeError(f"left operand must be a SparseMatrixCSR or DenseMatrix, "
                        f"got {type(x).__name__}")


@dataclass(eq=False)
class Plan:
    """A left operand as its products read it on the array cfg: shape, scale
    and mode, and one (first column, compiled tile, slot census) entry per
    column tile, whose packets carry the operand's entries, so a holder can
    drop the matrix."""

    rows: int
    cols: int
    frac_bits: int
    mode: str
    entries: list
    cfg: ArchConfig


def check_product(x, w: DenseMatrix) -> None:
    """Reject the left operand x of x @ w before planning."""
    check_operand(x)
    if x.cols != w.rows:
        raise ShapeError(f"inner dims differ: {x.cols} vs {w.rows}")


def compile_plan(x, cfg: ArchConfig) -> Plan:
    """plan_step(x, cfg) with each schedule compiled for run_tile, and dropped
    before the next is built."""
    entries = []
    for c0, sched, stats in plan_step(x, cfg):
        entries.append((c0, compile_tile(sched), stats))
        del sched
    mode = MODE_SDMM if isinstance(x, SparseMatrixCSR) else MODE_DMM
    return Plan(x.rows, x.cols, x.frac_bits, mode, entries, cfg)


def simulate_step(plan: Plan, w: DenseMatrix) -> tuple[DenseMatrix, CycleReport]:
    """One full matrix product on the plan's array: load, compute, move.

    An inner-dimension mismatch raises ShapeError before any tile runs.
    Output accumulates across column tiles in one int64 OMMB array and is
    width-checked at the end, then narrowed to int32 once.
    """
    if plan.cols != w.rows:
        raise ShapeError(f"inner dims differ: {plan.cols} vs {w.rows}")
    cfg = plan.cfg
    y = np.zeros((plan.rows, w.cols), dtype=np.int64)
    report = CycleReport(ScheduleStats.zero(cfg.pe_count), mode=plan.mode)
    lane_blocks = range(0, max(w.cols, 1), cfg.lanes)
    for c0, tile, stats in plan.entries:
        w_tile = w.data[c0:c0 + cfg.tile_width]
        run_tile(tile, w_tile, y)
        for o0 in lane_blocks:
            report.load_cycles += load_tile(w_tile[:, o0:o0 + cfg.lanes], cfg)
            report.census += stats
        report.tiles.append({"col_offset": c0, "lane_blocks": len(lane_blocks), **stats.totals()})
    report.move_cycles += data_move(y, cfg)
    check_fits(y, 32, "accumulator")
    return DenseMatrix(y.astype(np.int32), 32, plan.frac_bits + w.frac_bits), report
