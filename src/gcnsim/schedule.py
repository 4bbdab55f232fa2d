"""Tiling and scheduling: from a sparse operand to per-cycle PE packet grids.

The pipeline is outer-product tiling (T-column slices of the sparse operand,
each run against the matching T rows of the dense operand), round-robin row
assignment with concatenation (row i feeds PE i mod K), zero-padding to a
rectangular grid, and a collision-stalling pass that serializes same-bank
fetches within each replica group. One schedule serves every output lane
block of its column tile: the lane blocks only repeat it for accounting.

Schedules are stored columnar (pcoo.TileSchedule: one numpy array per
packet field, shaped cycles x K) from row assignment through the .pcoo
stream and back; no per-packet objects are built on any path. A schedule
is its five packet columns alone: the row map is the round-robin rule
itself, and the stall pass adds the same idle slots to every PE column of a
grid where one column had none, so the census (simulator.check_arbitration)
finds the stalls as the fewest idle slots in any column.

The stall pass keeps one state per replica group: the output cycle and each
PE's delay, its refusals so far. PE p presents input slot cycle - delay[p],
and a bank's owner in a cycle is the first valid PE on it in the rotating
scan order, so a cycle where every bank sees one address grants every PE and
changes nothing but the cycle. Numpy windows jump over such cycles and one
grant loop runs the clashing ones, or the whole group where clashes come too
often for windows to pay. The one-slot-at-a-time pass it replaced is kept in
tests/test_schedule.py as _stall_spec, and the two are compared field for field.

The packet value width belongs to each operand's stream, not to the array:
pcoo.packet_bits_for picks 0 (binary), 4 or 16 bits and rejects values
that do not fit, so build_sdmm_schedule needs no width from the config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .matrix import ShapeError, SparseMatrixCSR
from .pcoo import TileSchedule, check_value_field, log2_exact, packet_bits_for


@dataclass(frozen=True)
class ArchConfig:
    """Array geometry and memory layout knobs.

    pe_count PEs of `lanes` MAC lanes each; the dense tile is replicated
    `replicas` times (replica i serves the contiguous PE block i) and striped
    across `groups` banks by row index mod groups. Tile width is lanes*groups
    and must be a power of two for the packet column field. There is no
    value width here: each operand's packets pick theirs (pcoo.packet_bits_for).
    """

    pe_count: int
    lanes: int = 16
    replicas: int = 1
    groups: int = 32
    load_bw: int = 64
    move_bw: int = 16

    def __post_init__(self):
        if self.pe_count < 1 or self.lanes < 1 or self.groups < 1:
            raise ValueError("pe_count, lanes, groups must all be >= 1")
        if self.pe_count > 0xFFFF:
            raise ValueError(f"pe_count {self.pe_count} does not fit a stream's 16-bit field")
        if self.tile_width > 1 << 30:
            raise ValueError(f"tile width {self.tile_width} is over 2^30 (int32 columns)")
        if self.replicas < 1 or self.pe_count % self.replicas:
            raise ValueError(f"replicas {self.replicas} must divide pe_count {self.pe_count}")
        if self.load_bw < 1 or self.move_bw < 1:
            raise ValueError("bandwidths must be >= 1")
        log2_exact(self.tile_width)

    @property
    def tile_width(self) -> int:
        return self.lanes * self.groups

    @property
    def group_width(self) -> int:
        return self.pe_count // self.replicas


def config_for_tile(pe_count: int, tile_width: int, lanes: int = 16, **kw) -> ArchConfig:
    """ArchConfig from an explicit tile width instead of a group count."""
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    if tile_width % lanes:
        raise ValueError(f"tile width {tile_width} not a multiple of {lanes} lanes")
    return ArchConfig(pe_count, lanes=lanes, groups=tile_width // lanes, **kw)


@dataclass(frozen=True)
class ScheduleStats:
    """Slot census per PE: valid work, empty-row markers, stalls, pads.

    Censuses add up: a + b is the census of running a's schedules, then b's.
    """

    valid: np.ndarray
    empty_row: np.ndarray
    stall_idle: np.ndarray
    pad_idle: np.ndarray
    cycles: int

    @classmethod
    def zero(cls, pe_count: int) -> "ScheduleStats":
        """Census of running nothing, the start of a sum."""
        return cls(*(np.zeros(pe_count, dtype=np.int64) for _ in range(4)), 0)

    @property
    def pe_count(self) -> int:
        return len(self.valid)

    def __add__(self, other: "ScheduleStats") -> "ScheduleStats":
        if other.pe_count != self.pe_count:
            raise ValueError(f"cannot add a {other.pe_count}-PE census "
                             f"to a {self.pe_count}-PE one")
        return ScheduleStats(*(getattr(self, f.name) + getattr(other, f.name)
                               for f in fields(self)))

    def totals(self) -> dict:
        return {f.name: int(np.sum(getattr(self, f.name))) for f in fields(self)}

    def check_identity(self) -> None:
        per_pe = self.valid + self.empty_row + self.stall_idle + self.pad_idle
        if not (per_pe == self.cycles).all():
            raise AssertionError(f"slot census {per_pe.tolist()} != cycles {self.cycles}")


def tile_columns(x: SparseMatrixCSR, tile_width: int) -> Iterator[SparseMatrixCSR]:
    """Each T-column slice of x in turn, from one stable pass over the nonzeros.

    Tile t holds columns [t*T, min((t+1)*T, cols)) rebased to start at 0;
    the last tile is ragged, and an operand with no columns is one empty
    tile. One pass for all tiles keeps preprocessing linear in nnz when the
    operand spans many tiles. It sorts one key a nonzero, its tile above its
    index, in int32 when ntiles << ceil(log2 nnz) fits: distinct keys sort
    stably, and masked to the index they are the one per-nonzero array kept
    across tiles. A tile's nonzeros keep their row-major order, so searching
    them for x.row_ptr gives its row_ptr. It keeps x's dtypes; the int32
    rebase cannot wrap, since t * T < cols < 2**31.
    """
    ntiles = max(1, -(-x.cols // tile_width))
    if ntiles == 1:
        yield x
        return
    shift = max(x.nnz - 1, 1).bit_length()  # bits of a nonzero's index
    dtype = np.int32 if ntiles << shift <= np.iinfo(np.int32).max else np.int64
    order = np.floor_divide(x.col_idx, tile_width, dtype=dtype)
    order <<= shift
    order |= np.arange(x.nnz, dtype=dtype)
    order.sort()
    bounds = np.searchsorted(order, np.arange(ntiles + 1, dtype=dtype) << shift)
    order &= (1 << shift) - 1
    for t in range(ntiles):
        idx = order[bounds[t]:bounds[t + 1]]
        yield SparseMatrixCSR(x.rows, min(tile_width, x.cols - t * tile_width),
                              np.searchsorted(idx, x.row_ptr), x.col_idx[idx] - t * tile_width,
                              x.values[idx], x.bits, x.frac_bits)


def assign_rows(tile: SparseMatrixCSR, pe_count: int) -> TileSchedule:
    """Round-robin row assignment with concatenation (pre-stall schedule).

    Row i's packets are appended to PE i mod K; a row with no nonzeros
    contributes one empty-row marker so row numbering still advances. Short
    PE columns are zero-filled to the longest, and the grid is returned
    cycle-major.

    PE p's rows are p, p+K, ..., so with the rows laid out ceil(m/K) x K a
    column-wise cumsum of each row's packet count (at least 1) gives every
    row's first slot. A packet's cell in the flat grid is slot * K + PE, and
    each field is written with 1-D scatters: sor at each row's first cell,
    eor at its last, the nonzeros at consecutive slots between, one block of
    K-row repetitions (about _ROW_CELLS rows and nonzeros) at a time after a
    pass of blocks sizes the grid: it holds the tile, the grid and a block.
    """
    if pe_count < 1:
        raise ValueError("pe_count must be >= 1")
    m = tile.rows
    if m == 0:
        return TileSchedule.empty(pe_count)
    check_value_field(tile.values, 16)  # before the int16 scatter narrows them
    step = max(1, min(_ROW_CELLS * m // (m + tile.nnz), m + pe_count - 1) // pe_count) * pe_count
    blocks = [tile.row_ptr[r0:r0 + step + 1] for r0 in range(0, m, step)]

    def packets(ptr: np.ndarray) -> np.ndarray:  # a block's counts, K a line, 0 past m
        p = np.zeros(step, dtype=np.int64)
        np.maximum(np.diff(ptr), 1, out=p[:len(ptr) - 1])
        return p.reshape(-1, pe_count)
    cycles = int(sum(packets(ptr).sum(axis=0) for ptr in blocks).max())
    sor, eor, vld, col, value = (np.zeros(cycles * pe_count, dtype) for dtype in
                                 (np.uint8, np.uint8, np.uint8, np.int32, np.int16))
    filled = np.zeros(pe_count, dtype=np.int64)  # slots each PE column holds so far
    for ptr in blocks:
        p = packets(ptr)
        ends = np.cumsum(p, axis=0) + filled
        filled = ends[-1]
        # flat cell of each row's first packet: its slot in its PE column, times K, plus the PE
        first = ((ends - p) * pe_count + np.arange(pe_count)).ravel()[:len(ptr) - 1]
        sor[first] = 1
        eor[first + (p.ravel()[:len(first)] - 1) * pe_count] = 1  # last packet, or the marker
        # nonzero j of row i sits j - row_ptr[i] slots after the row's first
        at = np.arange(ptr[0] * pe_count, ptr[-1] * pe_count, pe_count)
        at += np.repeat(first - ptr[:-1] * pe_count, np.diff(ptr))
        vld[at] = 1
        col[at] = tile.col_idx[ptr[0]:ptr[-1]]
        value[at] = tile.values[ptr[0]:ptr[-1]]
    return TileSchedule(*(a.reshape(cycles, pe_count) for a in (sor, eor, vld, col, value)))


# The probe's cycles, the shortest stretch judged after it (long: a handover
# is final), the first window and the floor after a clash, and the cap a
# clash-free window doubles up to. The grant loop costs about 130 ns a slot
# and a window with its clashing cycle 15-35 us, about _WINDOW_SLOTS slots'
# worth: where clashes come closer than that the loop runs instead.
_PROBE = 256
_STRETCH = 1024
_WINDOW_MIN = 64
_WINDOW_MAX = 4096
_WINDOW_SLOTS = 256
_ROW_CELLS = 1 << 16  # rows plus nonzeros assign_rows places at once


def stall_collisions(sched: TileSchedule, cfg: ArchConfig) -> TileSchedule:
    """Serialize bank conflicts within each replica group (post-stall schedule).

    Per output cycle a valid packet is granted if its address was already
    granted this cycle (PEs may share a read) or its bank (col mod groups)
    is unclaimed; otherwise an idle slot is emitted and the packet retries.
    The scan order rotates by one PE per cycle so nobody is systematically
    favored. Groups that finish early are padded to the longest group.

    Each replica group runs in _stall_group (see the module docstring), which
    records only the denied requests. A slot's output cycle is its input slot
    plus its PE's denials so far, and each field then moves with one scatter
    into the flat output grid. A PE keeps its whole column, so every PE gains
    the same cycles_out - cycles_in idle slots: the stalls the census finds as
    the fewest idle slots in any column. A schedule with no denial (no slots,
    groups of one PE, no clash) is returned as given; one whose columns all lie
    below groups is returned before any bank work, since each bank then holds
    one address.
    """
    if sched.pe_count != cfg.pe_count:
        raise ValueError(f"schedule has {sched.pe_count} PEs, config {cfg.pe_count}")
    k = cfg.pe_count
    n_in = sched.cycles
    width = cfg.group_width
    if n_in == 0 or width == 1 or sched.col.max() < cfg.groups:
        return sched  # no slots, groups of one PE, or one address per bank
    ids = list(range(width)) * 2  # cycle c scans ids[c % width:][:width]
    denied = []  # (pe, input slot) of each refused request, per group
    for base in range(0, k, width):
        part = slice(base, base + width)
        group = _stall_group(sched.vld[:, part], sched.col[:, part], cfg.groups, ids)
        denied.append(np.array(group, dtype=np.int64).reshape(-1, 2) + (base, 0))
    pe, slot = np.concatenate(denied).T
    if not len(pe):
        return sched
    rows = np.bincount(slot * k + pe, minlength=n_in * k).reshape(n_in, k)
    np.cumsum(rows, axis=0, out=rows)
    rows += np.arange(n_in)[:, None]  # output cycle of each input slot
    cycles = int(rows[-1].max()) + 1
    rows *= k
    rows += np.arange(k)  # its flat output cell

    def place(a: np.ndarray) -> np.ndarray:
        out = np.zeros(cycles * k, dtype=a.dtype)
        out[rows.ravel()] = a.ravel()
        return out.reshape(cycles, k)

    return TileSchedule(*map(place, (sched.sor, sched.eor, sched.vld, sched.col, sched.value)))


def _clash_flags(window: np.ndarray) -> np.ndarray:
    """Sorts each row in place; flags neighbours 1 to 2^31 apart: same bank, another address."""
    window.sort(axis=1)
    gaps = window[:, 1:] - window[:, :-1]
    gaps -= 1
    return gaps.view(np.uint64) < (1 << 31)


def _stall_group(vld: np.ndarray, col: np.ndarray, g: int, ids: list) -> list:
    """Denied (PE in group, input slot) pairs of one replica group.

    A slot's key is bank << 32 | address for a valid request, else a bank of
    its PE's own. The probe sorts the first _PROBE rows' keys: if more than
    one row per _WINDOW_SLOTS slots clashes, the grant loop runs the group
    from cycle 0. Else windows read the full keys at pointers cycle - delay
    and send each clashing cycle through the loop, until a stretch of at
    least _STRETCH cycles clashes that often: then the loop takes (cycle, delays).
    """
    n, width = vld.shape
    valid = (vld == 1) & (col >= 0)
    lanes = np.arange(width, dtype=np.int64)
    private = (g + lanes) << 32

    def bank_keys(rows: int, pad: int) -> np.ndarray:  # the first rows slots' keys, pad rows more
        keys = np.tile(private, (rows + pad, 1))
        body = keys[:rows]
        np.left_shift(col[:rows] & (g - 1), 32, out=body, dtype=np.int64)  # g divides T
        body |= col[:rows]
        np.copyto(body, private, where=~valid[:rows])
        return keys

    delay, denied = [0] * width, []
    claim, held = [-1] * g, [0] * g  # each bank's last claiming cycle and its address
    cyc = mark = clashes = 0  # the judged stretch: its first cycle, its clashing cycles
    probe = _clash_flags(bank_keys(min(n, _PROBE), 0))
    windows = probe.any(axis=1).sum() * _WINDOW_SLOTS <= len(probe) * width
    if windows:  # past the end each PE presents its private key
        flat = bank_keys(n, min(n, _WINDOW_MAX)).ravel()
        steps = np.arange(0, _WINDOW_MAX * width, width)[:, None]
        lag = np.zeros(width, dtype=np.int64)  # delay, as an array
        span = _WINDOW_MIN
    while windows:
        ptrs = np.minimum(cyc - lag, n)
        lo = int(ptrs.min())
        if lo == n:
            return denied
        here = ptrs * width + lanes
        rows = min(span, n - lo)
        clash = _clash_flags(flat.take(here + steps[:rows]))
        first = int(clash.argmax())
        if not clash.flat[first]:
            cyc += rows
            span = min(2 * span, _WINDOW_MAX)
            continue
        run = first // (width - 1)
        cyc += run
        clashes += 1
        if cyc - mark >= _STRETCH:
            if clashes * _WINDOW_SLOTS > (cyc - mark) * width:
                break
            mark, clashes = cyc, 0
        # the clashing cycle alone: each slot is entry 0 of its PE's list at delay cyc
        reqs = [[a & 0xFFFFFFFF if a < g << 32 else -1]
                for a in flat.take(here + run * width).tolist()]
        refused: list = []
        _grant(reqs, [cyc] * width, 1, cyc, cyc + 1, claim, held, ids, g - 1, refused)
        for p, _ in refused:
            denied.append((p, cyc - delay[p]))
            delay[p] += 1
        cyc += 1
        lag = np.array(delay)
        span = min(max(_WINDOW_MIN, 2 * run), _WINDOW_MAX)
    _grant(np.where(valid, col, -1).T.tolist(), delay, n, cyc, -1, claim, held, ids,
           g - 1, denied)
    return denied


def _grant(reqs: list, delay: list, n: int, cyc: int, stop: int, claim: list,
           held: list, ids: list, mask: int, denied: list) -> int:
    """The grant rule from cycle cyc to the group's end n + max(delay), or up
    to cycle stop; returns the next cycle. PE p presents, in the scan order
    ids[cyc % width:][:width] (ids is the group's PEs listed twice),
    reqs[p][cyc - delay[p]] (-1: no valid request, as past its n slots). A
    refusal goes on denied as (p, slot) and adds one to delay[p].
    claim[bank] is the cycle a bank was last claimed in and held[bank] its
    address then.
    """
    width = len(ids) // 2
    end = n + max(delay)
    for p, r in enumerate(reqs):
        r += [-1] * (end - delay[p] - len(r))
    while cyc < end and cyc != stop:
        rot = cyc % width
        for p in ids[rot:rot + width]:
            a = reqs[p][cyc - delay[p]]
            if a >= 0:
                b = a & mask
                if claim[b] != cyc:
                    claim[b] = cyc
                    held[b] = a
                elif held[b] != a:
                    denied.append((p, cyc - delay[p]))
                    d = delay[p] + 1
                    delay[p] = d
                    if n + d > end:  # a new last PE: every list gets one more -1
                        end = n + d
                        for r in reqs:
                            r.append(-1)
        cyc += 1
    return cyc


def build_dmm_schedule(x_block: np.ndarray, pe_count: int) -> TileSchedule:
    """Dense-mode schedule for an m x t column block of the dense left operand.

    Rows go out K at a time: in repetition r, PE p owns row rK + p and walks
    columns 0..t-1 in lockstep with the other PEs, carrying the block's
    entry at (row, column) as its packet value. All fetches in a cycle
    share one address, so the collision pass can never stall them.
    Repetitions past the row count idle the trailing PEs. Each field is
    written once, in its final dtype, with no grid-sized temporary; an entry
    outside int16, the packet value width, is a ValueError.
    """
    x_block = np.asarray(x_block)
    check_value_field(x_block, 16)
    m, t = x_block.shape
    if t < 1:
        raise ValueError("a dense block needs at least one column")
    if m == 0:
        return TileSchedule.empty(pe_count)
    full, rem = divmod(m, pe_count)
    grid = (full + (rem > 0), t, pe_count)  # cycle-major once the first two axes merge
    sor, eor = np.zeros(grid, np.uint8), np.zeros(grid, np.uint8)
    sor[:, 0] = eor[:, -1] = 1
    vld = np.ones(grid, np.uint8)
    col = np.empty(grid, np.int32)
    col[:] = np.arange(t, dtype=np.int32)[:, None]
    value = np.zeros(grid, np.int16)
    value[:full] = x_block[:full * pe_count].reshape(full, pe_count, t).transpose(0, 2, 1)
    if rem:  # the last repetition idles PEs rem..K-1
        value[full, :, :rem] = x_block[full * pe_count:].T
        for f in (sor, eor, vld, col):
            f[full, :, rem:] = 0
    return TileSchedule(*(f.reshape(-1, pe_count) for f in (sor, eor, vld, col, value)))


def build_sdmm_schedule(tile: SparseMatrixCSR, cfg: ArchConfig) -> TileSchedule:
    """assign_rows then stall_collisions, for a tile its packets can carry."""
    if tile.cols > cfg.tile_width:
        raise ShapeError(f"tile has {tile.cols} columns, max {cfg.tile_width}")
    packet_bits_for(tile)
    return stall_collisions(assign_rows(tile, cfg.pe_count), cfg)
