"""Tiling and scheduling: from a sparse operand to per-cycle PE packet grids.

The pipeline is outer-product tiling (T-column slices of the sparse operand,
each run against the matching T rows of the dense operand), round-robin row
assignment with concatenation (row i feeds PE i mod K), zero-padding to a
rectangular grid, and a collision-stalling pass that serializes same-bank
fetches within each replica group. One schedule serves every output lane
block of its column tile: the lane blocks only repeat it for accounting.

Schedules are stored columnar (one numpy array per packet field, shaped
cycles x K) from row assignment through the .pcoo stream and back; no
per-packet objects are built on any path. A schedule is its five packet
columns plus one stall count: the row map is the round-robin rule itself,
and the stall pass adds the same number of idle slots to every PE column,
so the slot census follows from the packet bits and that count
(simulator.check_arbitration counts it as it checks the schedule).

The stall pass rests on one observation: a bank's owner in a cycle is the
first pending valid PE on it in the rotating scan order, so a cycle where
every bank sees one address grants every pending PE. stall_collisions jumps
over such cycles a numpy window at a time and runs only the clashing ones
through the scalar grant rule; a replica group whose clash-free runs are too
short for windows to pay finishes in the scalar loop. The one-slot-at-a-time
pass it replaced is kept in tests/test_schedule.py as _stall_spec, and the
two are compared there field for field.

The packet value width belongs to each operand's stream, not to the array:
packet_bits_for picks 0 (binary), 4 or 16 bits and rejects values that do
not fit, so build_sdmm_schedule needs no width from the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .matrix import ShapeError, SparseMatrixCSR, int_max, int_min
from .pcoo import check_value_field, log2_exact


@dataclass(frozen=True)
class ArchConfig:
    """Array geometry and memory layout knobs.

    pe_count PEs of `lanes` MAC lanes each; the dense tile is replicated
    `replicas` times (replica i serves the contiguous PE block i) and striped
    across `groups` banks by row index mod groups. Tile width is lanes*groups
    and must be a power of two for the packet column field. There is no
    value width here: each operand's packets pick theirs (packet_bits_for).
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


@dataclass
class TileSchedule:
    """Rectangular cycles x K packet grid, one array per packet field.

    A slot is valid work (vld), an empty-row marker (sor=eor=1, vld=0) or
    idle (no bit set). stall_cycles counts the idle slots the collision pass
    added to every PE column; the other idle slots pad short PE columns.
    There is no row map: PE p owns rows p, p+K, p+2K, ... of the tile and
    emits them in that order, one sor/eor pair per row. The same schedule
    runs against every output lane block of its column tile.

    Fields are stored at their packet width: the flags as uint8, col as
    int32 (a tile may be up to 2^30 wide) and value as int16, since no
    packet value field is wider than 16 bits.
    """

    sor: np.ndarray
    eor: np.ndarray
    vld: np.ndarray
    col: np.ndarray
    value: np.ndarray
    stall_cycles: int = 0

    @property
    def cycles(self) -> int:
        return self.sor.shape[0]

    @property
    def pe_count(self) -> int:
        return self.sor.shape[1]

    @classmethod
    def empty(cls, pe_count: int) -> "TileSchedule":
        return cls.from_columns(*[np.zeros((0, pe_count), dtype=np.uint8)] * 5)

    @classmethod
    def from_columns(cls, sor, eor, vld, col, value) -> "TileSchedule":
        """Schedule from the five packet fields alone, as a stream carries them.

        Idle slots cannot tell a pad from a stall, so a schedule built here
        has no stall cycles and counts every idle slot as a pad. Values are
        narrowed to int16; one outside that range is a ValueError.
        """
        sor, eor, vld = (np.asarray(a, dtype=np.uint8) for a in (sor, eor, vld))
        value = np.asarray(value)
        check_value_field(value, 16)
        return cls(sor, eor, vld, np.asarray(col, dtype=np.int32),
                   value.astype(np.int16, copy=False))


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
        return ScheduleStats(self.valid + other.valid, self.empty_row + other.empty_row,
                             self.stall_idle + other.stall_idle,
                             self.pad_idle + other.pad_idle, self.cycles + other.cycles)

    def totals(self) -> dict:
        return {
            "valid": int(self.valid.sum()),
            "empty_row": int(self.empty_row.sum()),
            "stall_idle": int(self.stall_idle.sum()),
            "pad_idle": int(self.pad_idle.sum()),
            "cycles": self.cycles,
        }

    def check_identity(self) -> None:
        per_pe = self.valid + self.empty_row + self.stall_idle + self.pad_idle
        if not (per_pe == self.cycles).all() or (self.pad_idle < 0).any():
            raise AssertionError(f"slot census {per_pe.tolist()} != cycles {self.cycles} "
                                 f"or negative pads {self.pad_idle.tolist()}")


def tile_columns(x: SparseMatrixCSR, tile_width: int) -> Iterator[SparseMatrixCSR]:
    """Each T-column slice of x in turn, from one stable pass over the nonzeros.

    Tile t holds columns [t*T, min((t+1)*T, cols)) rebased to start at 0;
    the last tile is ragged, and an operand with no columns is one empty
    tile. One pass for all tiles keeps preprocessing linear in nnz when the
    operand spans many tiles. The pass is a stable sort of the tile ids,
    held as int16 when they fit, which numpy sorts by radix. That order is
    the one per-nonzero array kept across tiles: a tile's nonzeros keep their
    row-major order, so their rows come from a search of x.row_ptr.
    """
    ntiles = max(1, -(-x.cols // tile_width))
    if ntiles == 1:
        yield x
        return
    tile_of = x.col_idx // tile_width
    if ntiles <= 1 << 15:
        tile_of = tile_of.astype(np.int16)
    order = np.argsort(tile_of, kind="stable")  # keeps (row, col) order inside a tile
    bounds = np.concatenate([[0], np.cumsum(np.bincount(tile_of, minlength=ntiles))])
    del tile_of
    for t in range(ntiles):
        idx = order[bounds[t]:bounds[t + 1]]
        row_nnz = np.bincount(np.searchsorted(x.row_ptr, idx, "right") - 1, minlength=x.rows)
        yield SparseMatrixCSR(x.rows, min(tile_width, x.cols - t * tile_width),
                              np.concatenate([[0], np.cumsum(row_nnz)]),
                              x.col_idx[idx] - t * tile_width, x.values[idx], x.bits, x.frac_bits)


def assign_rows(tile: SparseMatrixCSR, pe_count: int) -> TileSchedule:
    """Round-robin row assignment with concatenation (pre-stall schedule).

    Row i's packets are appended to PE i mod K; a row with no nonzeros
    contributes one empty-row marker so row numbering still advances. Short
    PE columns are zero-filled to the longest, and the grid is returned
    cycle-major.

    PE p's rows are p, p+K, ..., so with the rows laid out ceil(m/K) x K a
    column-wise cumsum of each row's packet count (at least 1) gives every
    row's first slot. A packet's cell in the flat grid is slot * K + PE, and
    each field is written with one 1-D scatter: sor at each row's first
    cell, eor at its last, the nonzeros at consecutive slots between.
    """
    if pe_count < 1:
        raise ValueError("pe_count must be >= 1")
    m = tile.rows
    if m == 0:
        return TileSchedule.empty(pe_count)
    check_value_field(tile.values, 16)  # before the int16 scatter narrows them
    row_nnz = tile.row_nnz()
    reps = -(-m // pe_count)
    packets = np.zeros(reps * pe_count, dtype=np.int64)
    np.maximum(row_nnz, 1, out=packets[:m])
    ends = np.cumsum(packets.reshape(reps, pe_count), axis=0)
    cycles = int(ends[-1].max())
    # flat cell of each row's first packet: its slot in its PE column, times K, plus the PE
    first = ends.ravel()[:m] - packets[:m]
    first *= pe_count
    first += np.arange(m) % pe_count

    sor, eor, vld, col, value = (np.zeros(cycles * pe_count, dtype) for dtype in
                                 (np.uint8, np.uint8, np.uint8, np.int32, np.int16))
    sor[first] = 1
    eor[first + (packets[:m] - 1) * pe_count] = 1  # a row's last packet, or its marker
    if tile.nnz:
        # nonzero j of row i sits j - row_ptr[i] slots after the row's first
        at = np.arange(0, tile.nnz * pe_count, pe_count)
        at += np.repeat(first - tile.row_ptr[:-1] * pe_count, row_nnz)
        vld[at] = 1
        col[at] = tile.col_idx
        value[at] = tile.values
    return TileSchedule.from_columns(*(a.reshape(cycles, pe_count)
                                       for a in (sor, eor, vld, col, value)))


# The stall pass's windows: the first window and the floor after a clash,
# the cap a clash-free window doubles up to, and the switch back to the
# scalar loop. A window and its clashing cycle cost about as much host time
# as the scalar loop spends on _WINDOW_SLOTS slots, so after _JUDGE_AFTER
# windows a group whose mean clash-free run covers fewer slots (16 cycles of
# an 8-PE group) finishes in the scalar loop.
_WINDOW_MIN = 64
_WINDOW_MAX = 4096
_JUDGE_AFTER = 4
_WINDOW_SLOTS = 128


def stall_collisions(sched: TileSchedule, cfg: ArchConfig) -> TileSchedule:
    """Serialize bank conflicts within each replica group (post-stall schedule).

    Per output cycle a valid packet is granted if its address was already
    granted this cycle (PEs may share a read) or its bank (col mod groups)
    is unclaimed; otherwise an idle slot is emitted and the packet retries.
    The scan order rotates by one PE per cycle so nobody is systematically
    favored. Groups that finish early are padded to the longest group.

    A bank's owner in a cycle is the first pending valid PE on it in scan
    order, so a cycle is clash-free exactly when, in every bank, all pending
    valid PEs read one address, and then every pending PE is granted. Each
    replica group therefore sorts the (bank, address) keys of a window of
    upcoming cycles, read from its per-PE pointers, moves every pointer to
    the first cycle where two neighbours share a bank but not an address,
    and runs only that cycle through the scalar grant rule (_stall_scalar).
    A window starts at _WINDOW_MIN cycles, doubles up to _WINDOW_MAX while
    clash-free, and restarts at twice the last run, within those bounds,
    after a clash. After _JUDGE_AFTER windows, a group whose mean clash-free
    run spans fewer than _WINDOW_SLOTS slots finishes in the scalar loop from
    its pointers. The one-slot-at-a-time pass is the spec:
    tests/test_schedule.py keeps it as _stall_spec and compares the two.

    Both paths record only the denied requests. A slot's output cycle is its
    input slot plus its PE's denials so far, and each field then moves with
    one scatter into the flat output grid. A PE keeps its whole column, so
    every PE gains the same cycles_out - cycles_in idle slots, which become
    stall_cycles. A schedule with no denial (no slots, groups of one PE, no
    clash) is returned as given; one whose columns all lie below groups is
    returned before any bank work, since each bank then holds one address.
    """
    if sched.pe_count != cfg.pe_count:
        raise ValueError(f"schedule has {sched.pe_count} PEs, config {cfg.pe_count}")
    k = cfg.pe_count
    n_in = sched.cycles
    width = cfg.group_width
    if n_in == 0 or width == 1 or sched.col.max() < cfg.groups:
        return sched  # no slots, groups of one PE, or one address per bank
    denied = []  # (pe, input slot) of each refused request, per group
    for base in range(0, k, width):
        part = slice(base, base + width)
        group = _stall_group(sched.vld[:, part], sched.col[:, part], cfg.groups)
        if group:
            found = np.array(group, dtype=np.int64)
            found[:, 0] += base
            denied.append(found)
    if not denied:
        return sched
    pe, slot = np.concatenate(denied).T
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

    fields = (sched.sor, sched.eor, sched.vld, sched.col, sched.value)
    return TileSchedule(*map(place, fields), sched.stall_cycles + cycles - n_in)


def _stall_group(vld: np.ndarray, col: np.ndarray, g: int) -> list:
    """Denied (PE in group, input slot) pairs of one replica group.

    Each slot's key is bank << 32 | address when it is a valid request and
    a bank of its own past the real ones otherwise, also for the rows past
    the end. Sorted, a cycle's keys clash exactly where two neighbours
    differ by 1 to 2^31: same bank, another address.
    """
    n_in, width = vld.shape
    lanes = np.arange(width)
    limit = g << 32  # keys at or past it are not valid requests
    private = (g + lanes.astype(np.int64)) << 32
    keys = np.empty((n_in + min(n_in, _WINDOW_MAX), width), dtype=np.int64)
    body = keys[:n_in]
    np.bitwise_and(col, g - 1, out=body)  # the bank: g divides a power-of-two tile width
    body <<= 32
    body |= col
    valid = (vld == 1) & (col >= 0)
    np.copyto(body, private, where=~valid)
    keys[n_in:] = private
    keys = keys.ravel()
    steps = np.arange(0, _WINDOW_MAX * width, width)[:, None]
    ptrs = np.zeros(width, dtype=np.int64)
    denied: list = []
    cyc = windows = skipped = 0
    span = _WINDOW_MIN
    while True:
        lo = int(ptrs.min())
        if lo == n_in:
            return denied
        if windows >= _JUDGE_AFTER and skipped * width < _WINDOW_SLOTS * windows:
            reqs = np.where(valid[lo:], col[lo:], -1).T.tolist()
            _stall_scalar(reqs, (ptrs - lo).tolist(), n_in - lo, cyc, g, denied, [lo] * width)
            return denied
        n = min(span, n_in - lo)
        here = ptrs * width + lanes
        window = keys.take(here + steps[:n])
        window.sort(axis=1)
        gaps = window[:, 1:] - window[:, :-1]
        gaps -= 1
        clash = gaps.view(np.uint64).ravel() < (1 << 31)
        first = int(clash.argmax())
        windows += 1
        if not clash[first]:
            ptrs = np.minimum(ptrs + n, n_in)
            cyc += n
            skipped += n
            span = min(2 * span, _WINDOW_MAX)
            continue
        run = first // (width - 1)
        cyc += run
        skipped += run
        reqs = [[a & 0xFFFFFFFF if a < limit else -1]
                for a in keys.take(here + run * width).tolist()]
        ptrs = np.minimum(ptrs + run, n_in)
        step = [0] * width
        cyc = _stall_scalar(reqs, step, 1, cyc, g, denied, ptrs.tolist(), cyc + 1)
        ptrs = np.minimum(ptrs + step, n_in)
        span = min(max(_WINDOW_MIN, 2 * run), _WINDOW_MAX)


def _stall_scalar(reqs: list, ptrs: list, n: int, cyc: int, g: int, denied: list,
                  slot0: list, stop: int = -1) -> int:
    """The grant rule, one output cycle at a time, from cycle cyc.

    PE p of the group requests reqs[p][ptrs[p]] next (-1: not a valid slot)
    and is done at n. Runs until every PE is done, or up to cycle stop;
    appends (p, slot0[p] + i) to denied for each refused request i, advances
    ptrs in place, and returns the next cycle.
    """
    width = len(reqs)
    pending = sum(i < n for i in ptrs)
    while pending and cyc != stop:
        owner: dict = {}  # bank -> the one address granted on it this cycle
        for off in range(width):
            lp = (cyc + off) % width
            i = ptrs[lp]
            if i == n:
                continue
            addr = reqs[lp][i]
            if addr >= 0 and owner.setdefault(addr % g, addr) != addr:
                denied.append((lp, slot0[lp] + i))
                continue
            ptrs[lp] = i + 1
            if i + 1 == n:
                pending -= 1
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
    x_block = np.asarray(x_block, dtype=np.int64)
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
    return TileSchedule.from_columns(*(f.reshape(-1, pe_count)
                                       for f in (sor, eor, vld, col, value)))


def packet_bits_for(x: SparseMatrixCSR) -> int:
    """Narrowest supported value field for this operand: 0 when binary, else
    4 or 16 by its declared width; stored values must fit that field."""
    if x.nnz == 0 or (x.values == 1).all():
        return 0
    bits = 4 if x.bits <= 4 else 16
    if x.values.min() < int_min(bits) or x.values.max() > int_max(bits):
        raise ValueError(f"operand values exceed the {bits}-bit packet field")
    return bits


def build_sdmm_schedule(tile: SparseMatrixCSR, cfg: ArchConfig) -> TileSchedule:
    """assign_rows then stall_collisions, for a tile its packets can carry."""
    if tile.cols > cfg.tile_width:
        raise ShapeError(f"tile has {tile.cols} columns, max {cfg.tile_width}")
    packet_bits_for(tile)
    return stall_collisions(assign_rows(tile, cfg.pe_count), cfg)
