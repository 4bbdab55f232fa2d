"""Scheduler: assignment, stalling, DMM sweeps, slot census."""

import numpy as np
import pytest

from gcnsim import schedule
from gcnsim.graphs import gen_powerlaw, random_features
from gcnsim.matrix import ShapeError, SparseMatrixCSR
from gcnsim.pcoo import deserialize_stream, make_header, serialize_stream
from gcnsim.schedule import (
    ArchConfig,
    ScheduleStats,
    TileSchedule,
    assign_rows,
    build_dmm_schedule,
    build_sdmm_schedule,
    config_for_tile,
    packet_bits_for,
    stall_collisions,
)
from gcnsim.simulator import check_arbitration
from helpers import traced_peak


def naive_assign(raw, k):
    """Per-PE packet lists built the obvious way: the assignment oracle."""
    lists = [[] for _ in range(k)]
    for i, row in enumerate(raw):
        nz = [(j, int(v)) for j, v in enumerate(row) if v]
        if not nz:
            pkts = [(1, 1, 0, 0, 0)]
        else:
            pkts = [(int(t == 0), int(t == len(nz) - 1), 1, j, v)
                    for t, (j, v) in enumerate(nz)]
        lists[i % k].extend(pkts)
    depth = max(len(l) for l in lists)
    for l in lists:
        l.extend([(0, 0, 0, 0, 0)] * (depth - len(l)))
    return lists


def skewed_rows_tile():
    """8 rows whose nnz counts are (3,1,1,1,2,1,1,1)."""
    raw = np.zeros((8, 8), dtype=np.int64)
    raw[0, [0, 1, 2]] = 1
    raw[1, 0] = 1
    raw[2, 1] = 1
    raw[3, 2] = 1
    raw[4, [0, 3]] = 1
    raw[5, 1] = 1
    raw[6, 2] = 1
    raw[7, 3] = 1
    return SparseMatrixCSR.from_dense_raw(raw, 4, 0)


def grants_legal(sched, cfg):
    """No two granted packets in a cycle+group hit one bank with distinct addresses."""
    for cyc in range(sched.cycles):
        for base in range(0, cfg.pe_count, cfg.group_width):
            per_bank = {}
            for pe in range(base, base + cfg.group_width):
                if sched.vld[cyc, pe]:
                    addr = int(sched.col[cyc, pe])
                    per_bank.setdefault(addr % cfg.groups, set()).add(addr)
            if any(len(addrs) > 1 for addrs in per_bank.values()):
                return False
    return True


# The stall pass as it was before it learned to skip clash-free cycles, kept
# as the single-item spec of the grant rule: one loop iteration per slot, no
# windows, and its own count of the stalls it adds. schedule.stall_collisions
# must match it field for field, and the census must derive that count.
def _stall_spec(sched: TileSchedule, cfg: ArchConfig) -> tuple[TileSchedule, int]:
    """Serialize bank conflicts within each replica group (post-stall schedule
    and its stall count).

    Per output cycle a valid packet is granted if its address was already
    granted this cycle (PEs may share a read) or its bank (col mod groups)
    is unclaimed; otherwise an idle slot is emitted and the packet retries.
    The scan order rotates by one PE per cycle so nobody is systematically
    favored. Groups that finish early are padded to the longest group.

    Arbitration reads one address list per PE (col where vld, else -1) and
    records each input slot's output cycle; each field then moves with one
    scatter. A PE keeps its whole column, so every PE gains the same
    cycles_out - cycles_in idle slots, the stall count returned beside the
    schedule: the spec's own count, which the census derives from the bits.
    """
    if sched.pe_count != cfg.pe_count:
        raise ValueError(f"schedule has {sched.pe_count} PEs, config {cfg.pe_count}")
    k = cfg.pe_count
    n_in = sched.cycles
    if n_in == 0:
        return sched, 0
    width, g = cfg.group_width, cfg.groups
    addrs = np.where(sched.vld == 1, sched.col, -1).T.tolist()
    at = [[] for _ in range(k)]  # output cycle of each input slot, per PE
    for base in range(0, k, width):
        group_addrs = addrs[base:base + width]
        group_at = at[base:base + width]
        ptrs = [0] * width
        pending = width
        cyc = 0
        while pending:
            owner: dict = {}  # bank -> the one address granted on it this cycle
            for off in range(width):
                lp = (cyc + off) % width
                i = ptrs[lp]
                if i == n_in:
                    continue
                addr = group_addrs[lp][i]
                if addr >= 0 and owner.setdefault(addr % g, addr) != addr:
                    continue
                group_at[lp].append(cyc)
                ptrs[lp] = i + 1
                if i + 1 == n_in:
                    pending -= 1
            cyc += 1
    rows = np.array(at, dtype=np.int64).T  # n_in x K
    cycles = int(rows.max()) + 1

    def place(a: np.ndarray) -> np.ndarray:
        out = np.zeros((cycles, k), dtype=a.dtype)
        out[rows, np.arange(k)] = a
        return out

    fields = (sched.sor, sched.eor, sched.vld, sched.col, sched.value)
    return TileSchedule(*map(place, fields)), cycles - n_in


def census_spec(sched: TileSchedule) -> ScheduleStats:
    """Slot census one slot at a time: the spec of the census that
    simulator.check_arbitration counts while it checks a schedule.

    A slot is valid work (vld), an empty-row marker (sor = eor = 1, vld = 0)
    or idle (no bit set); anything else is an AssertionError. The fewest idle
    slots of any PE are every PE's stalls, and the rest of its idle slots pads.
    """
    k = sched.pe_count
    valid, empty, idle = ([0] * k for _ in range(3))
    for cyc in range(sched.cycles):
        for p in range(k):
            bits = tuple(int(f[cyc, p]) for f in (sched.sor, sched.eor, sched.vld))
            if bits[2] == 1:
                valid[p] += 1
            elif bits == (1, 1, 0):
                empty[p] += 1
            elif bits == (0, 0, 0):
                idle[p] += 1
            else:
                raise AssertionError(f"slot {cyc}, PE {p} has bits {bits}")
    stall = min(idle)
    return ScheduleStats(*(np.array(a, np.int64) for a in
                           (valid, empty, [stall] * k, [n - stall for n in idle])), sched.cycles)


def test_archconfig_invariants():
    cfg = ArchConfig(pe_count=8, lanes=16, replicas=2, groups=32)
    assert cfg.tile_width == 512
    assert cfg.group_width == 4
    with pytest.raises(ValueError):
        ArchConfig(pe_count=8, replicas=3)
    with pytest.raises(ValueError):
        ArchConfig(pe_count=4, lanes=16, groups=3)  # 48 not a power of two
    # a stream's PE field is 16 bits and its columns int32 at most
    assert ArchConfig(pe_count=0xFFFF, lanes=1, groups=1 << 30).pe_count == 0xFFFF
    with pytest.raises(ValueError, match="pe_count 65536"):
        ArchConfig(pe_count=1 << 16)
    with pytest.raises(ValueError, match="tile width 2147483648"):
        config_for_tile(4, 1 << 31)
    assert config_for_tile(4, 512).groups == 32
    with pytest.raises(ValueError):
        config_for_tile(4, 520)


def test_assign_rows_concatenation_example():
    sched = assign_rows(skewed_rows_tile(), 4)
    stats = census_spec(sched)
    assert sched.cycles == 5
    assert stats.valid.tolist() == [5, 2, 2, 2]
    assert stats.pad_idle.tolist() == [0, 3, 3, 3]
    assert stats.empty_row.tolist() == [0, 0, 0, 0]
    # PE 0 concatenates row 0 (3 packets) then row 4 (2 packets)
    assert sched.sor[:, 0].tolist() == [1, 0, 0, 1, 0]
    assert sched.eor[:, 0].tolist() == [0, 0, 1, 0, 1]
    assert sched.col[:, 0].tolist() == [0, 1, 2, 0, 3]
    # every PE owns two of the 8 rows (PE 0: rows 0 and 4), one sor/eor each
    assert sched.sor.sum(axis=0).tolist() == [2, 2, 2, 2]
    assert sched.eor.sum(axis=0).tolist() == [2, 2, 2, 2]


def test_assign_rows_all_empty():
    tile = SparseMatrixCSR.from_dense_raw(np.zeros((4, 8), dtype=np.int64), 4, 0)
    sched = assign_rows(tile, 4)
    assert sched.cycles == 1
    assert census_spec(sched).empty_row.tolist() == [1, 1, 1, 1]
    assert (sched.sor == 1).all() and (sched.eor == 1).all() and (sched.vld == 0).all()


def test_assign_rows_peaks_at_its_grid_plus_one_row_block():
    # the preprocess benchmark's feature tile (131,072 rows of 32 columns at
    # density 0.1 on 16 PEs): a 3.7 MiB grid, placed a block of rows at a
    # time, holds about 22 bytes a block cell more; the tile's per-row and
    # per-nonzero int64 arrays held 11.4 MiB more
    tile = random_features(131072, 32, 0.1, np.random.default_rng(0))
    sched, peak = traced_peak(assign_rows, tile, 16)
    grid = sum(getattr(sched, name).nbytes for name in ("sor", "eor", "vld", "col", "value"))
    assert peak <= grid + 32 * schedule._ROW_CELLS, (peak >> 10, grid >> 10)
    assert sched.vld.sum() == tile.nnz and sched.sor.sum() == tile.rows


def test_assign_rows_matches_naive():
    rng = np.random.default_rng(61)

    def sparse(m, n):
        raw = rng.integers(-8, 8, size=(m, n))
        raw[rng.random((m, n)) < 0.6] = 0
        return raw

    cases = []
    for _ in range(30):
        m, n, k = (int(rng.integers(1, hi)) for hi in (30, 16, 7))
        cases.append((sparse(m, n), k))
    one_dense = np.zeros((6, 12), dtype=np.int64)
    one_dense[2] = rng.integers(1, 8, 12)
    cases += [(sparse(m, 9), k) for m, k in ((1, 16), (5, 16), (15, 16), (4 * 3 + 1, 4),
                                             (16 * 2 + 1, 16))]  # m < K, ragged last K rows
    cases += [(np.zeros((7, 5), np.int64), 3), (one_dense, 4), (one_dense[2:3], 16),
              (np.zeros((0, 4), np.int64), 3)]  # all rows empty, one dense row, no rows
    for raw, k in cases:
        m = len(raw)
        tile = SparseMatrixCSR.from_dense_raw(raw, 4, 0)
        sched = assign_rows(tile, k)
        assert [getattr(sched, name).dtype for name in ("sor", "eor", "vld", "col", "value")] \
            == [np.uint8] * 3 + [np.int32, np.int16]
        oracle = naive_assign(raw, k)
        assert sched.cycles == len(oracle[0])
        for p in range(k):
            got = [tuple(int(a[cyc, p]) for a in
                         (sched.sor, sched.eor, sched.vld, sched.col, sched.value))
                   for cyc in range(sched.cycles)]
            assert got == oracle[p]
        # conservation, and one sor/eor pair per round-robin row of each PE
        stats = census_spec(sched)
        assert stats.totals()["valid"] == tile.nnz
        rows_per_pe = [len(range(p, m, k)) for p in range(k)]
        assert sched.sor.sum(axis=0).tolist() == rows_per_pe
        assert sched.eor.sum(axis=0).tolist() == rows_per_pe


def make_sched(grid):
    """Schedule from a cycles x K grid of (sor, eor, vld, col, value) tuples."""
    return TileSchedule(*np.moveaxis(np.array(grid, dtype=np.int64), 2, 0))


def test_stall_share_rule():
    # both PEs read address 5: shared fetch, no stall
    sched = make_sched([[(1, 1, 1, 5, 1), (1, 1, 1, 5, 1)]])
    cfg = ArchConfig(pe_count=2, lanes=2, groups=4)
    out = stall_collisions(sched, cfg)
    assert out.cycles == 1
    assert census_spec(out).totals()["stall_idle"] == 0


def test_stall_block_rule():
    # addresses 1 and 5 map to bank 1 of 4: the later PE waits a cycle
    sched = make_sched([[(1, 1, 1, 1, 1), (1, 1, 1, 5, 1)]])
    cfg = ArchConfig(pe_count=2, lanes=2, groups=4)
    out = stall_collisions(sched, cfg)
    assert out.cycles == 2
    assert out.vld[0].tolist() == [1, 0]
    assert out.vld[1].tolist() == [0, 1]
    # the injected idle slots carry no bits and count as one stall per PE
    assert (out.sor[out.vld == 0] == 0).all() and (out.eor[out.vld == 0] == 0).all()
    assert _stall_spec(sched, cfg)[1] == 1
    stats = census_spec(out)
    assert stats.stall_idle.tolist() == [1, 1] and stats.pad_idle.tolist() == [0, 0]
    assert grants_legal(out, cfg)


def test_stall_conflict_free_is_identity():
    # one row per bank: distinct columns can never collide
    cfg = ArchConfig(pe_count=8, lanes=1, groups=8)
    grid = [[(0, 0, 1, p, 1) for p in range(8)]]
    sched = make_sched(grid)
    out = stall_collisions(sched, cfg)
    assert out.cycles == 1
    assert np.array_equal(out.col, sched.col)
    assert census_spec(out).totals()["stall_idle"] == 0


def test_stall_rotation_is_fair():
    # two PEs fighting over one bank every cycle should alternate wins
    depth = 6
    grid = [[(0, 0, 1, 1, 1), (0, 0, 1, 5, 1)] for _ in range(depth)]
    cfg = ArchConfig(pe_count=2, lanes=2, groups=4)
    out = stall_collisions(make_sched(grid), cfg)
    stats = census_spec(out)
    assert stats.totals()["valid"] == 2 * depth
    assert abs(int(stats.stall_idle[0]) - int(stats.stall_idle[1])) <= 1


def test_stall_preserves_order_and_legality():
    rng = np.random.default_rng(67)
    for _ in range(25):
        m = int(rng.integers(1, 40))
        k = int(rng.choice([2, 4, 8]))
        r = int(rng.choice([x for x in (1, 2, 4) if k % x == 0]))
        lanes = int(rng.choice([1, 2, 4]))
        groups = int(rng.choice([2, 4, 8]))
        cfg = ArchConfig(pe_count=k, lanes=lanes, groups=groups, replicas=r)
        raw = rng.integers(1, 8, size=(m, cfg.tile_width))
        raw[rng.random(raw.shape) < 0.7] = 0
        tile = SparseMatrixCSR.from_dense_raw(raw, 4, 0)
        pre = assign_rows(tile, k)
        post = stall_collisions(pre, cfg)
        assert grants_legal(post, cfg)
        assert int(post.vld.sum()) == tile.nnz
        stats = census_spec(post)
        assert stats.totals()["valid"] + stats.totals()["empty_row"] \
            + stats.totals()["stall_idle"] + stats.totals()["pad_idle"] \
            == post.cycles * k
        # every PE keeps its whole column, so each gains the same stall count
        assert (stats.stall_idle == post.cycles - pre.cycles).all()
        assert (stats.stall_idle == _stall_spec(pre, cfg)[1]).all()
        assert np.array_equal(stats.pad_idle, census_spec(pre).pad_idle)
        # deleting the all-zero slots leaves each pre-stall column's packets
        for p in range(k):
            live = lambda s: (s.sor[:, p] | s.eor[:, p] | s.vld[:, p]) != 0
            for name in ("sor", "eor", "vld", "col", "value"):
                got = getattr(post, name)[live(post), p]
                assert np.array_equal(got, getattr(pre, name)[live(pre), p]), name


def test_stall_monotone_in_groups_and_replicas():
    rng = np.random.default_rng(71)
    for seed in range(5):
        tile_rng = np.random.default_rng(100 + seed)
        raw = tile_rng.integers(1, 8, size=(32, 64))
        raw[tile_rng.random(raw.shape) < 0.8] = 0
        tile = SparseMatrixCSR.from_dense_raw(raw, 4, 0)
        pre = assign_rows(tile, 8)
        # finer banking never stalls more (tile width fixed at 64)
        stalls_by_g = []
        for lanes, groups in ((32, 2), (16, 4), (8, 8), (2, 32)):
            cfg = ArchConfig(pe_count=8, lanes=lanes, groups=groups)
            stalls_by_g.append(census_spec(stall_collisions(pre, cfg)).totals()["stall_idle"])
        assert stalls_by_g == sorted(stalls_by_g, reverse=True), stalls_by_g
        # more replicas never stall more
        stalls_by_r = []
        for r in (1, 2, 4, 8):
            cfg = ArchConfig(pe_count=8, lanes=16, groups=4, replicas=r)
            stalls_by_r.append(census_spec(stall_collisions(pre, cfg)).totals()["stall_idle"])
        assert stalls_by_r == sorted(stalls_by_r, reverse=True), stalls_by_r
        assert stalls_by_r[-1] == 0  # a group of one PE cannot collide
    _ = rng


def random_grid(rng, cycles, k, tile_width, p_valid, p_marker):
    """Pre-stall packet grid: valid slots, empty-row markers and idle slots."""
    draw = rng.random((cycles, k))
    vld = draw < p_valid
    marker = ~vld & (draw < p_valid + p_marker)
    sor = (vld & (rng.random((cycles, k)) < 0.3)) | marker
    eor = (vld & (rng.random((cycles, k)) < 0.3)) | marker
    col = np.where(vld, rng.integers(0, tile_width, (cycles, k)), 0)
    value = np.where(vld, rng.integers(-8, 8, (cycles, k)), 0)
    return TileSchedule(sor, eor, vld, col, value)


def random_stall_cases(rng, count):
    """Seeded (schedule, config) pairs over K, replica splits and bank counts."""
    for case in range(count):
        k = int(rng.integers(1, 17))
        r = int(rng.choice([d for d in range(1, k + 1) if k % d == 0]))
        groups = 1 << int(rng.integers(0, 7))  # 1..64 banks
        lanes = 1 << int(rng.integers(0, 4))
        cfg = ArchConfig(pe_count=k, lanes=lanes, groups=groups, replicas=r)
        cycles = int(rng.choice([0, 1, 2, 5, 20, 60, 150, 300]))
        kind = case % 4
        if kind == 0:    # marker-heavy: few valid slots
            p_valid, p_marker = 0.05, 0.6
        elif kind == 1:  # dense clash: few banks, many addresses
            cfg = ArchConfig(pe_count=k, lanes=lanes, groups=1 << int(rng.integers(0, 3)),
                             replicas=r)
            p_valid, p_marker = 0.95, 0.02
        elif kind == 2:  # all idle now and then, otherwise anything
            p_valid, p_marker = (0.0, 0.0) if rng.random() < 0.1 else (rng.random(), 0.1)
        else:            # a tile from row assignment
            m = int(rng.integers(1, 4 * k + 2))
            raw = rng.integers(1, 8, size=(m, cfg.tile_width))
            raw[rng.random(raw.shape) < rng.uniform(0.3, 0.99)] = 0
            yield assign_rows(SparseMatrixCSR.from_dense_raw(raw, 4, 0), k), cfg
            continue
        # half the grids read a few addresses only, so PEs often share a read
        width = cfg.tile_width if rng.random() < 0.5 else int(rng.integers(1, 9))
        yield random_grid(rng, cycles, k, min(width, cfg.tile_width),
                          p_valid, p_marker), cfg


def assert_same_schedule(got, want):
    for name in ("sor", "eor", "vld", "col", "value"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def idle_slots(sched) -> np.ndarray:
    """Each PE's slots with no bit set."""
    return ((sched.sor | sched.eor | sched.vld) == 0).sum(axis=0)


class GrantCalls(list):
    """Each grant loop run: one clashing "cycle" a window found, a "whole"
    group from cycle 0, or the "rest" of one its windows handed over."""
    handover = None  # (cycle, delays) of the last "rest"


def count_grant_calls(monkeypatch) -> GrantCalls:
    calls = GrantCalls()
    grant = schedule._grant

    def counted(reqs, delay, n, cyc, stop, *args):
        if stop != -1:
            calls.append("cycle")
        elif cyc:
            calls.append("rest")
            calls.handover = (cyc, list(delay))
        else:
            calls.append("whole")
        return grant(reqs, delay, n, cyc, stop, *args)

    monkeypatch.setattr(schedule, "_grant", counted)
    return calls


def test_stall_collisions_matches_scalar_spec(monkeypatch):
    calls = count_grant_calls(monkeypatch)
    rng = np.random.default_rng(89)
    stalled = 0
    cases = list(random_stall_cases(rng, 2000))
    tuned = schedule._PROBE, schedule._STRETCH
    for sched, cfg in cases:
        want, stalls = _stall_spec(sched, cfg)
        # as tuned, then a one-row probe and 16-cycle judged stretches, so
        # that groups take every path: windows, the loop, and handovers
        for probe, stretch in (tuned, (1, 16)):
            monkeypatch.setattr(schedule, "_PROBE", probe)
            monkeypatch.setattr(schedule, "_STRETCH", stretch)
            got = stall_collisions(sched, cfg)
            assert_same_schedule(got, want)
            # every PE column gains the spec's stall count of idle slots
            assert np.array_equal(idle_slots(got), idle_slots(sched) + stalls)
        stalled += stalls > 0
    # every path ran: clashing cycles in windows, whole groups and handovers
    assert min(calls.count("cycle"), calls.count("whole"), calls.count("rest")) > 100
    assert 200 < stalled < len(cases) - 200


def test_stall_collisions_paths_on_crafted_tiles(monkeypatch):
    calls = count_grant_calls(monkeypatch)
    ones = np.ones((5000, 4), dtype=np.int64)
    col = np.zeros((5000, 4), dtype=np.int64)
    col[4500, 1] = 4  # once, PE 1 reads bank 0's address 4 while PE 0 reads 0
    col[:, 3] = np.arange(5000) % 4  # PE 3 meets PE 2's address 0 in bank 0 only
    late = TileSchedule(ones, ones, ones, col, ones)
    late_cfg = ArchConfig(pe_count=4, lanes=1, groups=4, replicas=2)
    col = np.tile(np.arange(4), (700, 1))
    col[100:, 1::2] = (4, 6)  # from cycle 100, PEs 1 and 3 meet PEs 0 and 2's banks
    switching = TileSchedule(ones[:700], ones[:700], ones[:700], col, ones[:700])
    switching_cfg = ArchConfig(pe_count=4, lanes=2, groups=4, replicas=1)
    # no clash before cycle 4500, past the largest window: the windows reach it.
    # PE 1 loses that cycle, so at 4501 it still reads 4 against PE 0's next
    # 0, wins by rotation, and the two are level again: two clashing cycles.
    out = stall_collisions(late, late_cfg)
    want, stalls = _stall_spec(late, late_cfg)
    assert_same_schedule(out, want)
    assert stalls == 1 and calls == ["cycle", "cycle"]
    calls.clear()
    out = stall_collisions(switching, switching_cfg)
    want, stalls = _stall_spec(switching, switching_cfg)
    assert_same_schedule(out, want)
    assert stalls > 500
    assert calls == ["whole"]  # the probe sees the clashes from cycle 100: all in the loop
    # first clash 3000 cycles into a 4096-cycle window, next one 4968 cycles
    # after it: the window that follows must still be capped at 4096 cycles
    ones = np.ones((16000, 2), dtype=np.int64)
    col = np.tile(np.arange(2), (16000, 1))
    col[7032, 1] = 2  # PE 1 loses cycle 7032 to PE 0's 0 in bank 0 ...
    col[7033, 0] = 2  # ... shares address 2 with PE 0 at 7033 and then lags one slot
    col[12000, 1] = 2  # clashes with PE 0's 0 again at cycle 12001
    long_runs = TileSchedule(ones, ones, ones, col, ones)
    long_cfg = ArchConfig(pe_count=2, lanes=1, groups=2, replicas=1)
    calls.clear()
    out = stall_collisions(long_runs, long_cfg)
    want, stalls = _stall_spec(long_runs, long_cfg)
    assert_same_schedule(out, want)
    assert stalls == 1 and calls == ["cycle", "cycle"]
    # no denial: the schedule comes back as given
    clash_free = TileSchedule(*(getattr(late, name)[:4000] for name in
                                             ("sor", "eor", "vld", "col", "value")))
    for sched, cfg in ((late, ArchConfig(pe_count=4, lanes=1, groups=4, replicas=4)),
                       (clash_free, late_cfg),
                       (TileSchedule.empty(4), late_cfg),
                       (random_grid(np.random.default_rng(3), 30, 4, 8, 0.0, 0.3), late_cfg)):
        assert stall_collisions(sched, cfg) is sched


@pytest.mark.parametrize("probe_slots, path", [(0, "windows"), (10 ** 9, "loop")])
def test_stall_denies_one_pe_for_255_cycles(monkeypatch, probe_slots, path):
    # one 256-PE group: every PE reads address 0 of bank 0, but PE 255 first
    # reads address 2 on that bank. Only at cycle 255 does it head the scan
    # order and win; every PE then holding slot 255 loses that cycle.
    # _WINDOW_SLOTS 0 keeps the group in windows, 10^9 sends it to the loop.
    monkeypatch.setattr(schedule, "_WINDOW_SLOTS", probe_slots)
    calls = count_grant_calls(monkeypatch)
    ones = np.ones((300, 256), dtype=np.int64)
    col = np.zeros((300, 256), dtype=np.int64)
    col[0, 255] = 2
    sched = TileSchedule(ones, ones, ones, col, ones)
    cfg = ArchConfig(pe_count=256, lanes=1, groups=2)
    want, stalls = _stall_spec(sched, cfg)
    got = stall_collisions(sched, cfg)
    assert_same_schedule(got, want)
    assert stalls == 255 and not got.vld[:255, 255].any() and got.col[255, 255] == 2
    assert calls == (["cycle"] * 256 if path == "windows" else ["whole"])


def test_stall_windows_hand_cycle_and_delays_to_the_loop(monkeypatch):
    # clash-free for 20000 cycles, then PEs 1 and 3 meet PEs 0 and 2's banks
    # every 16th row. The windows resolve clashing cycles one at a time until
    # a judged stretch of _STRETCH cycles holds too many, then hand their
    # (cycle, delays) state to the loop: the stretch restarts after a long
    # clash-free run, so the handover comes within two stretches of the change.
    calls = count_grant_calls(monkeypatch)
    ones = np.ones((24000, 4), dtype=np.int64)
    col = np.tile(np.arange(4), (24000, 1))
    col[20000::16, 1::2] = (4, 6)
    sched = TileSchedule(ones, ones, ones, col, ones)
    cfg = ArchConfig(pe_count=4, lanes=2, groups=4, replicas=1)
    want, stalls = _stall_spec(sched, cfg)
    assert_same_schedule(stall_collisions(sched, cfg), want)
    assert stalls > 200
    assert calls[-1] == "rest" and set(calls[:-1]) == {"cycle"} and len(calls) > 8
    cyc, delays = calls.handover
    assert 20000 + schedule._STRETCH <= cyc < 20000 + 2 * schedule._STRETCH and max(delays) > 0


def test_stall_1024_banks_with_rare_clashes_stay_in_windows(monkeypatch):
    # 8 PEs on 1024 banks read address 8 * slot + PE, one bank each, except
    # at three slots where one PE reads its neighbour's bank 1024 further on.
    # Each loser then lags its group by one slot on banks of its own.
    calls = count_grant_calls(monkeypatch)
    n = 3000
    col = 8 * np.arange(n)[:, None] + np.arange(8)
    for slot, pe in ((100, 1), (1500, 3), (2600, 5)):
        col[slot, pe] = col[slot, pe - 1] + 1024
    ones = np.ones((n, 8), dtype=np.int64)
    sched = TileSchedule(ones, ones, ones, col, ones)
    cfg = ArchConfig(pe_count=8, lanes=16, groups=1024)
    want, stalls = _stall_spec(sched, cfg)
    got = stall_collisions(sched, cfg)
    assert_same_schedule(got, want)
    assert stalls == 1 and calls == ["cycle"] * 3
    losers = [100, 1500, 2600], [1, 3, 5]
    assert not got.vld[losers].any()  # each loser's slot comes one cycle late
    assert np.array_equal(got.col[np.add(losers[0], 1), losers[1]], col[losers])


def test_stall_collisions_skips_banks_that_hold_one_address(monkeypatch):
    # with every column below groups each bank holds one address, so no
    # cycle can clash: the schedule comes back without a bank pass
    groups = []
    stall_group = schedule._stall_group
    monkeypatch.setattr(schedule, "_stall_group", lambda vld, col, g, orders:
                        groups.append(g) or stall_group(vld, col, g, orders))
    rng = np.random.default_rng(73)
    cfg = ArchConfig(pe_count=8, lanes=4, groups=16, replicas=2)
    ones = np.ones((50, 8), dtype=np.int64)
    same_bank = TileSchedule(ones, ones, ones, np.repeat(np.arange(50) % 16, 8)
                                          .reshape(50, 8), ones)  # all PEs, one address
    for sched in (same_bank, random_grid(rng, 200, 8, 16, 0.9, 0.05),
                  random_grid(rng, 200, 8, 1, 0.5, 0.2)):
        assert stall_collisions(sched, cfg) is sched
        assert_same_schedule(_stall_spec(sched, cfg)[0], sched)
    assert groups == []
    # one group reads address 16 in one cycle: the bank pass runs, finds
    # no clash, and also returns the schedule as given
    col = np.zeros((50, 8), dtype=np.int64)
    col[7, :4] = 16
    edge = TileSchedule(ones, ones, ones, col, ones)
    assert stall_collisions(edge, cfg) is edge and groups == [16, 16]


def test_dmm_schedule_balanced():
    x = np.arange(64).reshape(8, 8) - 32
    sched = build_dmm_schedule(x, 8)
    assert sched.cycles == 8
    assert (sched.vld == 1).all()
    assert census_spec(sched).valid.tolist() == [8] * 8
    assert sched.sor[0].tolist() == [1] * 8 and sched.sor[1:].sum() == 0
    assert sched.eor[-1].tolist() == [1] * 8
    assert (sched.col == np.arange(8)[:, None]).all()
    # cycle c, PE p carries x[p, c]: the schedule's values are the block transposed
    assert np.array_equal(sched.value, x.T)


def test_dmm_schedule_ragged_tail():
    k = 8
    x = np.arange(72).reshape(k + 1, 8) + 1
    sched = build_dmm_schedule(x, k)
    assert sched.cycles == 16
    assert ((sched.sor | sched.eor | sched.vld)[8:, 1:] == 0).all()
    assert (sched.vld[8:, 0] == 1).all()
    stats = census_spec(sched)
    assert stats.pad_idle.tolist() == [0] + [8] * (k - 1)
    assert stats.stall_idle.tolist() == [0] * k
    # PE 0 owns rows 0 and 8, every other PE one row
    assert sched.sor.sum(axis=0).tolist() == [2] + [1] * (k - 1)
    assert sched.eor.sum(axis=0).tolist() == [2] + [1] * (k - 1)
    assert np.array_equal(sched.value[:8], x[:8].T)
    assert np.array_equal(sched.value[8:, 0], x[8])
    assert (sched.value[8:, 1:] == 0).all()
    with pytest.raises(ValueError):
        build_dmm_schedule(np.zeros((3, 0), np.int64), k)
    assert build_dmm_schedule(np.zeros((0, 4), np.int64), k).cycles == 0


def test_packet_values_are_int16_and_checked_before_narrowing():
    # no packet value field is wider than 16 bits, so schedules store int16;
    # a value int16 cannot hold is refused, never wrapped
    for bad in (-32769, 32768):
        with pytest.raises(ValueError, match="outside 16-bit range"):
            TileSchedule([[1]], [[1]], [[1]], [[0]], [[bad]])
        with pytest.raises(ValueError, match="outside 16-bit range"):
            assign_rows(SparseMatrixCSR(1, 1, [0, 1], [0], [bad], 32, 0), 2)
        with pytest.raises(ValueError, match="outside 16-bit range"):
            build_dmm_schedule(np.array([[bad]]), 2)
    ends = np.array([[-32768, 32767]])
    for sched in (TileSchedule([[1, 0]], [[1, 0]], [[1, 0]], [[0, 0]], [[-32768, 0]]),
                  assign_rows(SparseMatrixCSR.from_dense_raw(ends, 16, 0), 2),
                  build_dmm_schedule(ends, 2)):
        assert sched.value.dtype == np.int16
        assert sched.value[sched.vld == 1].min() == -32768


def test_dmm_schedule_never_stalls():
    rng = np.random.default_rng(5)
    for m, k in ((8, 8), (13, 4), (4, 8), (32, 16)):
        x = rng.integers(-8, 8, size=(m, 8))
        sched = build_dmm_schedule(x, k)
        for r0 in range(0, m, k):  # each repetition carries its K rows transposed
            block = x[r0:r0 + k].T
            assert np.array_equal(sched.value[r0 // k * 8:][:8, :block.shape[1]], block)
        cfg = ArchConfig(pe_count=k, lanes=2, groups=4, replicas=1)
        out = stall_collisions(sched, cfg)
        assert out.cycles == sched.cycles
        assert census_spec(out).totals()["stall_idle"] == 0
        if m % k == 0:
            assert census_spec(out).totals()["pad_idle"] == 0


def test_packet_bits_for_picks_narrowest_field():
    raw = lambda grid, bits=4: SparseMatrixCSR.from_dense_raw(np.array(grid), bits, 0)
    assert packet_bits_for(raw([[1, 0], [0, 1]])) == 0
    assert packet_bits_for(raw([[1, 0], [0, -2]])) == 4
    assert packet_bits_for(raw(np.zeros((2, 2), dtype=np.int64))) == 0
    assert packet_bits_for(raw([[300, 0]], 16)) == 16
    assert packet_bits_for(raw([[1, 0]], 16)) == 0
    # values past the picked field are rejected, and so is a tile holding them
    cfg = ArchConfig(pe_count=2, lanes=2, groups=4)
    for grid, bits, width in (([[0, 9]], 4, 4), ([[70000, 1]], 32, 16),
                              ([[0, -32769]], 16, 16)):
        for call in (lambda: packet_bits_for(raw(grid, bits)),
                     lambda: build_sdmm_schedule(raw(grid, bits), cfg)):
            with pytest.raises(ValueError, match=f"exceed the {width}-bit packet field"):
                call()
    # a pinned width is returned once the values fit it
    x = raw([[1, 0], [0, -2]])
    assert packet_bits_for(x, 4) == 4 and packet_bits_for(x, 16) == 16
    with pytest.raises(ValueError, match="value not representable in 0 bits"):
        packet_bits_for(x, 0)
    with pytest.raises(ValueError, match="value outside 4-bit range"):
        packet_bits_for(raw([[300, 1]], 16), 4)


def test_build_sdmm_schedule_rejects_fat_tile():
    tile = SparseMatrixCSR.from_dense_raw(np.ones((2, 64), dtype=np.int64), 4, 0)
    with pytest.raises(ShapeError):
        build_sdmm_schedule(tile, ArchConfig(pe_count=2, lanes=2, groups=4))


def test_schedule_packets_roundtrip():
    rng = np.random.default_rng(83)
    raw = rng.integers(1, 8, size=(10, 16))
    raw[rng.random(raw.shape) < 0.6] = 0
    tile = SparseMatrixCSR.from_dense_raw(raw, 4, 0)
    cfg = ArchConfig(pe_count=4, lanes=4, groups=4)
    sched = build_sdmm_schedule(tile, cfg)
    header, back = deserialize_stream(serialize_stream(sched, 16, 4))
    assert header == make_header(16, 4, 4, sched.cycles)
    for name in ("sor", "eor", "vld", "col", "value"):
        assert np.array_equal(getattr(back, name), getattr(sched, name)), name
    # each PE's row markers count its round-robin rows of the 10-row tile
    rows_per_pe = [len(range(p, 10, 4)) for p in range(4)]
    assert back.sor.sum(axis=0).tolist() == rows_per_pe
    assert back.eor.sum(axis=0).tolist() == rows_per_pe
    # the decoded stream's census is the written schedule's, stalls included,
    # and its stalls are the spec's count for every PE
    written = check_arbitration(sched, cfg, 10, 16).totals()
    assert check_arbitration(back, cfg, 10, 16).totals() == written
    assert written["stall_idle"] == 4 * _stall_spec(assign_rows(tile, 4), cfg)[1] > 0


def test_stall_pass_memory_grows_with_its_width_not_the_square():
    # each cycle's scan order is a slice of one doubled PE list: 1024 PEs
    # trace about 2 MiB, where a list per rotation took 34 MiB
    cfg = config_for_tile(1024, 512)
    sched = assign_rows(gen_powerlaw(512, 4, seed=0).adjacency, cfg.pe_count)
    out, peak = traced_peak(stall_collisions, sched, cfg)
    assert out.cycles > sched.cycles  # it stalled: the grant loop ran
    assert peak < 4 << 20, peak
