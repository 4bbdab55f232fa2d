"""Simulator: PE semantics, memory model, phases, oracle equivalence."""

import numpy as np
import pytest

from gcnsim.matrix import (
    DenseMatrix,
    OverflowTrap,
    ShapeError,
    SparseMatrixCSR,
    dmm_reference,
    sdmm_reference,
)
from gcnsim import simulator
from gcnsim.pcoo import EMPTY_ROW_PACKET, IDLE_PACKET, PcooPacket
from gcnsim.schedule import (
    ArchConfig,
    ScheduleStats,
    TileSchedule,
    assign_rows,
    build_dmm_schedule,
    build_sdmm_schedule,
    config_for_tile,
    stall_collisions,
    tile_columns,
)
from gcnsim.simulator import (
    MODE_DMM,
    ArbitrationError,
    CycleReport,
    PeState,
    check_arbitration,
    compile_plan,
    compile_tile,
    data_move,
    load_tile,
    pe_step,
    plan_step,
    run_tile,
    simulate_step,
)
from helpers import traced_peak
from test_schedule import _stall_spec, census_spec


def make_sched(grid):
    """Schedule from a cycles x K grid of packets."""
    return TileSchedule(*np.moveaxis(np.array(grid, dtype=np.int64), 2, 0))


def naive_run_tile(sched, w, partials):
    """Packet-by-packet execution through pe_step: the column oracle."""
    seeds = np.array(partials, dtype=np.int64)
    out = seeds.copy()
    lanes = w.shape[1]
    zero_row = np.zeros(lanes, dtype=np.int64)
    for p in range(sched.pe_count):
        pe = PeState(np.zeros(lanes, dtype=np.int64), 0)
        rows = range(p, len(seeds), sched.pe_count)
        for cyc in range(sched.cycles):
            pkt = PcooPacket(*(int(a[cyc, p]) for a in
                               (sched.sor, sched.eor, sched.vld, sched.col, sched.value)))
            w_row = w[pkt.col] if pkt.vld else zero_row
            prev = seeds[rows[pe.row_cursor]] if pkt.sor else None
            pe, emitted = pe_step(pe, pkt, w_row, prev)
            if emitted is not None:
                out[rows[pe.row_cursor - 1]] = emitted
    return out


def run_compiled(sched, w, partials):
    """run_tile of the compiled sched, into a copy of partials."""
    out = np.array(partials, dtype=np.int64)
    run_tile(compile_tile(sched), np.asarray(w, dtype=np.int64), out)
    return out


def plan_of(monkeypatch, sched, rows, cols, cfg):
    """plan_step over a rows x cols operand whose one column tile schedules as sched."""
    monkeypatch.setattr("gcnsim.simulator.build_sdmm_schedule", lambda tile, cfg: sched)
    return list(plan_step(SparseMatrixCSR.from_dense_raw(np.zeros((rows, cols), np.int64), 4, 0),
                          cfg))


def random_tile_setup(rng, k=4, lanes=4, groups=4, replicas=1, density=0.4):
    cfg = ArchConfig(pe_count=k, lanes=lanes, groups=groups, replicas=replicas)
    t = cfg.tile_width
    m = int(rng.integers(1, 20))
    rows = int(rng.integers(1, t + 1))
    raw = rng.integers(-8, 8, size=(m, rows))
    raw[rng.random(raw.shape) < 1 - density] = 0
    tile = SparseMatrixCSR.from_dense_raw(raw, 4, 3)
    w = DenseMatrix(rng.integers(-8, 8, size=(rows, int(rng.integers(1, lanes + 1)))), 4, 3)
    return cfg, tile, w


def test_pe_step_empty_row_marker():
    pe = PeState(np.array([9, 9], dtype=np.int64))
    prev = np.array([5, 6], dtype=np.int64)
    pe2, emitted = pe_step(pe, EMPTY_ROW_PACKET, np.zeros(2, np.int64), prev)
    assert emitted.tolist() == [5, 6]
    assert pe2.row_cursor == 1


def test_pe_step_idle_is_inert():
    pe = PeState(np.array([7, 7], dtype=np.int64), row_cursor=3)
    pe2, emitted = pe_step(pe, IDLE_PACKET, np.zeros(2, np.int64), None)
    assert emitted is None
    assert pe2.row_cursor == 3
    assert pe2.acc.tolist() == [7, 7]


def test_pe_step_single_mac():
    pkt = PcooPacket(1, 1, 1, 2, 3)
    w_row = np.array([1, 2], dtype=np.int64)
    pe = PeState(np.array([99, 99], dtype=np.int64))
    pe2, emitted = pe_step(pe, pkt, w_row, np.zeros(2, np.int64))
    assert emitted.tolist() == [3, 6]
    assert pe2.row_cursor == 1


def test_pe_step_overflow_traps():
    pkt = PcooPacket(1, 1, 1, 0, 4)
    pe = PeState(np.zeros(1, np.int64))
    big = np.array([2**30], dtype=np.int64)
    with pytest.raises(OverflowTrap):
        pe_step(pe, pkt, big, np.zeros(1, np.int64))


def test_load_tile_cycles():
    cfg = ArchConfig(pe_count=4, lanes=4, groups=2, replicas=2, load_bw=8)
    assert load_tile(np.arange(32).reshape(8, 4), cfg) == 8  # 8*4*2 / 8


def test_load_tile_empty_and_too_big():
    cfg = ArchConfig(pe_count=2, lanes=4, groups=2)
    assert load_tile(np.zeros((0, 4), np.int64), cfg) == 0
    with pytest.raises(ShapeError):
        load_tile(np.zeros((9, 4), np.int64), cfg)  # 9 rows > T=8
    with pytest.raises(ShapeError):
        load_tile(np.zeros((8, 5), np.int64), cfg)  # 5 cols > C=4


def test_data_move_cycles():
    cfg = ArchConfig(pe_count=4, move_bw=16)
    assert data_move(np.zeros((2708, 16), np.int64), cfg) == 2708
    assert data_move(np.zeros((0, 16), np.int64), cfg) == 0


def test_run_tile_all_idle():
    # idle slots and empty-row markers do no work: the 3 rows (PE 0 owns
    # rows 0 and 2, PE 1 row 1) come back as their partials
    cfg = ArchConfig(pe_count=2, lanes=2, groups=2)
    sched = make_sched([[IDLE_PACKET, IDLE_PACKET],
                        [EMPTY_ROW_PACKET, EMPTY_ROW_PACKET],
                        [EMPTY_ROW_PACKET, IDLE_PACKET]])
    assert check_arbitration(sched, cfg, 3, 4).totals()["valid"] == 0
    partials = np.arange(6).reshape(3, 2)
    out = run_compiled(sched, np.ones((4, 2), np.int64), partials)
    assert np.array_equal(out, partials)


def test_plan_rejects_row_markers_off_the_row_map(monkeypatch):
    cfg = ArchConfig(pe_count=2, lanes=2, groups=2)
    # PE 1 opens its row but never closes it
    sched = make_sched([[PcooPacket(1, 1, 1, 0, 1), PcooPacket(1, 0, 1, 1, 1)],
                        [IDLE_PACKET, PcooPacket(0, 0, 1, 2, 1)]])
    with pytest.raises(ArbitrationError, match="^PE 1: row markers disagree with its 1 rows"):
        check_arbitration(sched, cfg, 2, 4)
    with pytest.raises(ArbitrationError, match="^PE 1: row markers"):
        plan_of(monkeypatch, sched, 2, 4, cfg)
    # complete markers, but 3 rows give PE 0 a second row it never emits
    sched = make_sched([[PcooPacket(1, 1, 1, 0, 1), PcooPacket(1, 1, 1, 1, 1)]])
    check_arbitration(sched, cfg, 2, 4)
    assert plan_of(monkeypatch, sched, 2, 4, cfg)[0][1] is sched
    with pytest.raises(ArbitrationError, match="^PE 0: row markers disagree with its 2 rows"):
        check_arbitration(sched, cfg, 3, 4)
    with pytest.raises(ArbitrationError, match="^PE 0: row markers"):
        plan_of(monkeypatch, sched, 3, 4, cfg)


def test_plan_rejects_valid_packet_outside_open_row(monkeypatch):
    # one PE owning two rows (10 and 5 per lane); the row markers balance,
    # but a stray valid packet sits outside both rows, which pe_step drops
    # and the executor must not fold into a neighbouring row
    cfg = ArchConfig(pe_count=1, lanes=2, groups=2)
    w = np.array([[10, 10], [5, 5]], np.int64)
    partials = np.zeros((2, 2), np.int64)
    row0 = PcooPacket(1, 1, 1, 0, 1)
    row1 = PcooPacket(1, 1, 1, 1, 1)
    stray = PcooPacket(0, 0, 1, 1, 1)
    good = make_sched([[row0], [row1]])
    check_arbitration(good, cfg, 2, 2)
    assert run_compiled(good, w, partials).tolist() == [[10, 10], [5, 5]]
    for cycle, grid in ((0, [[stray], [row0], [row1]]),    # before the first sor
                        (1, [[row0], [stray], [row1]])):   # after an eor, before the next sor
        sched = make_sched(grid)
        assert naive_run_tile(sched, w, partials).tolist() == [[10, 10], [5, 5]]
        message = f"^PE 0: valid packet at cycle {cycle} is outside an open row"
        with pytest.raises(ArbitrationError, match=message):
            check_arbitration(sched, cfg, 2, 2)
        with pytest.raises(ArbitrationError, match=message):
            plan_of(monkeypatch, sched, 2, 2, cfg)
    # the first PE with a stray is named, not the first cycle: PE 1 strays
    # at cycle 0, PE 0 at cycle 2
    cfg = ArchConfig(pe_count=2, lanes=2, groups=2)
    sched = make_sched([[row0, stray], [row0, row1], [stray, IDLE_PACKET]])
    with pytest.raises(ArbitrationError, match="^PE 0: valid packet at cycle 2 "):
        check_arbitration(sched, cfg, 3, 2)


def test_run_tile_matches_pe_step_walk():
    rng = np.random.default_rng(89)
    for trial in range(25):
        replicas = int(rng.choice([1, 2, 4]))
        cfg, tile, w = random_tile_setup(rng, k=4, replicas=replicas)
        sched = build_sdmm_schedule(tile, cfg)
        w_tile = w.data
        partials = rng.integers(-50, 50, size=(tile.rows, w.cols))
        fast = run_compiled(sched, w_tile, partials)
        slow = naive_run_tile(sched, w_tile, partials)
        assert np.array_equal(fast, slow), trial


def test_run_tile_dense_mode_matches_pe_step_walk():
    rng = np.random.default_rng(97)
    for _ in range(10):
        k = 4
        cfg = ArchConfig(pe_count=k, lanes=4, groups=2)
        m = int(rng.integers(1, 12))
        rows = int(rng.integers(1, cfg.tile_width + 1))
        x = rng.integers(-8, 8, size=(m, rows))
        w = rng.integers(-8, 8, size=(rows, 3))
        sched = build_dmm_schedule(x, k)
        partials = np.zeros((m, 3), dtype=np.int64)
        fast = run_compiled(sched, w, partials)
        assert np.array_equal(fast, naive_run_tile(sched, w, partials))
        assert np.array_equal(fast, x @ w)


def test_run_tile_equals_reference_single_tile():
    rng = np.random.default_rng(101)
    for _ in range(20):
        cfg, tile, w = random_tile_setup(rng)
        sched = build_sdmm_schedule(tile, cfg)
        w_tile = w.data
        out = run_compiled(sched, w_tile, np.zeros((tile.rows, w.cols), np.int64))
        assert np.array_equal(out, sdmm_reference(tile, w).data)


@pytest.mark.parametrize("chunk_cells", [1, 3, 7])
def test_run_tile_chunks_match_pe_step_walk(monkeypatch, chunk_cells):
    # a chunk holds chunk_cells // lanes slots (at least one), so most rows
    # here are cut by a chunk boundary and added to in two or more chunks
    monkeypatch.setattr("gcnsim.simulator._CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(157 + chunk_cells)
    cases = []  # (schedule, dense tile, output rows)
    for _ in range(12):
        cfg, tile, w = random_tile_setup(rng, k=int(rng.choice([1, 2, 4])), density=0.7)
        cases.append((build_sdmm_schedule(tile, cfg), w.data, tile.rows))
        x = rng.integers(-8, 8, size=(int(rng.integers(1, 12)), w.rows))
        cases.append((build_dmm_schedule(x, cfg.pe_count), w.data, len(x)))
    # no valid slot at all: empty rows only, idle only, and zero rows
    cfg = ArchConfig(pe_count=2, lanes=2, groups=2)
    w = rng.integers(-8, 8, size=(4, 2))
    for x in (np.zeros((3, 4), np.int64), np.zeros((0, 4), np.int64)):
        cases.append((build_sdmm_schedule(SparseMatrixCSR.from_dense_raw(x, 4, 0), cfg),
                      w, len(x)))
        cases.append((build_dmm_schedule(x, 2), w, len(x)))
    cases.append((make_sched([[IDLE_PACKET, IDLE_PACKET]]), w, 0))
    cut = idle = 0
    for sched, w, m in cases:
        partials = rng.integers(-50, 50, size=(m, w.shape[1]))
        assert np.array_equal(run_compiled(sched, w, partials),
                              naive_run_tile(sched, w, partials))
        tile = compile_tile(sched)
        step = max(1, chunk_cells // w.shape[1])
        ends = np.append(tile.starts[1:], len(tile.col)) - 1
        cut += int((tile.starts // step != ends // step).sum())
        idle += not len(tile.col)
    assert cut > 20 and idle == 4


def test_arbitration_recheck_rejects_illegal(monkeypatch):
    cfg = ArchConfig(pe_count=2, lanes=2, groups=4)
    # addresses 1 and 5 share bank 1 in cycle 1; a legal scheduler would
    # have stalled one
    row = PcooPacket(1, 1, 1, 1, 1)
    bad = make_sched([[row, PcooPacket(1, 1, 1, 2, 1)],
                      [row, PcooPacket(1, 1, 1, 5, 1)]])
    with pytest.raises(ArbitrationError, match="cycle 1: addresses 1 and 5"):
        check_arbitration(bad, cfg, 4, 8)
    # the plan checks every schedule it builds
    monkeypatch.setattr("gcnsim.simulator.build_sdmm_schedule", lambda tile, cfg: bad)
    x = SparseMatrixCSR.from_dense_raw(np.eye(4, 8, dtype=np.int64), 4, 0)
    with pytest.raises(ArbitrationError, match="cycle 1"):
        list(plan_step(x, cfg))
    # same addresses are a shared fetch, not a collision; so are two banks
    # in different replica groups
    ok = make_sched(
        [[PcooPacket(1, 1, 1, 5, 1), PcooPacket(1, 1, 1, 5, 1)]])
    check_arbitration(ok, cfg, 2, 8)
    check_arbitration(bad, ArchConfig(pe_count=2, lanes=2, groups=4, replicas=2), 4, 8)


def test_arbitration_checks_with_one_address_per_bank():
    # dense_rows <= groups: no bank holds two addresses, so no cycle can
    # clash, but markers, open rows and columns are still checked
    cfg = ArchConfig(pe_count=2, lanes=2, groups=4)
    row = PcooPacket(1, 1, 1, 1, 1)
    good = make_sched([[row, PcooPacket(1, 1, 1, 3, 1)], [row, IDLE_PACKET]])
    check_arbitration(good, cfg, 3, 4)
    stray = make_sched([[row, row], [PcooPacket(0, 0, 1, 2, 1), IDLE_PACKET]])
    with pytest.raises(ArbitrationError, match="^PE 0: valid packet at cycle 1 is outside"):
        check_arbitration(stray, cfg, 2, 4)
    with pytest.raises(ArbitrationError, match="^PE 1: row markers disagree with its 2 rows"):
        check_arbitration(good, cfg, 4, 4)
    with pytest.raises(ShapeError, match="packet column 3 outside dense tile rows 3"):
        check_arbitration(good, cfg, 3, 3)
    # one dense row past the banks: addresses 0 and 4 share bank 0
    clash = make_sched([[PcooPacket(1, 1, 1, 0, 1), PcooPacket(1, 1, 1, 4, 1)]])
    with pytest.raises(ArbitrationError, match="cycle 0: addresses 0 and 4"):
        check_arbitration(clash, cfg, 2, 5)


def test_arbitration_rejects_another_pe_count():
    # a 2-PE schedule against a 4-PE config is named before the walk,
    # not left to a numpy broadcast error inside it
    row = PcooPacket(1, 1, 1, 1, 1)
    two = make_sched([[row, row]])
    cfg = ArchConfig(pe_count=4, lanes=2, groups=4)
    with pytest.raises(ShapeError, match="^schedule has 2 PEs, config 4$"):
        check_arbitration(two, cfg, 2, 4)
    with pytest.raises(ShapeError, match="^schedule has 4 PEs, config 2$"):
        check_arbitration(make_sched([[row] * 4]), ArchConfig(pe_count=2, lanes=2, groups=4), 4, 4)


def first_clash_cycle(sched, cfg):
    """Cycle-by-cycle spec of check_arbitration: first cycle where one
    replica group reads two addresses from one bank, or None."""
    for cyc in range(sched.cycles):
        owner = {}
        for pe in np.flatnonzero(sched.vld[cyc]):
            addr = int(sched.col[cyc, pe])
            bank = (pe // cfg.group_width, addr % cfg.groups)
            if owner.setdefault(bank, addr) != addr:
                return cyc
    return None


def test_arbitration_check_matches_cycle_spec():
    rng = np.random.default_rng(83)
    raised = 0
    for _ in range(300):
        k = int(rng.choice([1, 2, 4, 8]))
        cfg = ArchConfig(pe_count=k, lanes=2, groups=int(rng.choice([1, 2, 4, 8])),
                         replicas=int(rng.choice([r for r in (1, 2, 4) if k % r == 0])))
        rows = int(rng.integers(1, cfg.tile_width + 1))
        cycles = int(rng.integers(1, 6))
        vld = rng.random((cycles, k)) < 0.5
        # every slot is a one-slot row, valid or empty: each PE owns `cycles` rows
        marks = np.ones((cycles, k))
        sched = TileSchedule(marks, marks, vld,
                                          rng.integers(0, rows, (cycles, k)), marks)
        expect = first_clash_cycle(sched, cfg)
        if expect is None:
            check_arbitration(sched, cfg, cycles * k, rows)
        else:
            raised += 1
            with pytest.raises(ArbitrationError, match=f"^cycle {expect}:"):
                check_arbitration(sched, cfg, cycles * k, rows)
    assert 20 < raised < 280


def test_plan_rejects_col_out_of_range(monkeypatch):
    # T = 8, but a 4-column operand's tile addresses only 4 dense rows
    cfg = ArchConfig(pe_count=1, lanes=2, groups=4)
    sched = make_sched([[PcooPacket(1, 1, 1, 6, 1)]])
    message = "^packet column 6 outside dense tile rows 4$"
    with pytest.raises(ShapeError, match=message):
        check_arbitration(sched, cfg, 1, 4)
    with pytest.raises(ShapeError, match=message):
        plan_of(monkeypatch, sched, 1, 4, cfg)
    check_arbitration(sched, cfg, 1, 8)


def check_outcome(sched, cfg, rows, dense_rows):
    """check_arbitration's verdict: None, or its exception type and message
    (an AssertionError is a census that fails its accounting identity)."""
    try:
        check_arbitration(sched, cfg, rows, dense_rows)
    except (ArbitrationError, ShapeError, AssertionError) as exc:
        return type(exc).__name__, str(exc)
    return None


def test_chunked_arbitration_check_reports_the_whole_grid(monkeypatch):
    # K = 2 over 3.5 chunks of one-slot rows, PE p reading dense row p (banks
    # 0 and 1 of 4, 8 dense rows): each fault names what one pass over the
    # whole grid names, wherever the chunk boundaries fall
    cfg = ArchConfig(pe_count=2, lanes=2, groups=4)
    chunk = simulator._PASS_SLOTS // 2  # cycles per chunk
    cycles = 3 * chunk + chunk // 2

    def outcome(cols=(), strays=()):
        marks = np.ones((cycles, 2), np.int64)
        col = np.tile(np.arange(2), (cycles, 1))
        for (c, p), v in cols:
            col[c, p] = v
        sor, eor = marks.copy(), marks.copy()
        for c, p in strays:  # the row's markers go, its valid slot stays
            sor[c, p] = eor[c, p] = 0
        owned = sor.sum(axis=0)
        rows = int(owned[1]) * 2 + int(owned[0] > owned[1])
        sched = TileSchedule(sor, eor, marks, col, marks)
        verdict = check_outcome(sched, cfg, rows, 8)
        with monkeypatch.context() as m:
            m.setattr(simulator, "_PASS_SLOTS", 1 << 40)  # the whole grid in one chunk
            assert check_outcome(sched, cfg, rows, 8) == verdict
        return verdict

    arb, shape = ArbitrationError.__name__, ShapeError.__name__
    clash = "cycle {}: addresses 0 and 4 share a bank in one replica group"
    assert outcome() is None
    # two columns past the tile, the larger one in a later chunk
    assert outcome(cols=[((10, 0), 9), ((2 * chunk + 10, 1), 12)]) == \
        (shape, "packet column 12 outside dense tile rows 8")
    assert outcome(cols=[((chunk + 3, 1), 12), ((2 * chunk, 0), 9)]) == \
        (shape, "packet column 12 outside dense tile rows 8")
    # a negative column fails the range check, which names the largest column
    assert outcome(cols=[((5, 0), -1)]) == (shape, "packet column 1 outside dense tile rows 8")
    # a clash only in a later chunk, on a chunk's first cycle, and the first of two
    assert outcome(cols=[((2 * chunk + 7, 1), 4)]) == (arb, clash.format(2 * chunk + 7))
    assert outcome(cols=[((chunk, 1), 4)]) == (arb, clash.format(chunk))
    assert outcome(cols=[((3 * chunk, 1), 4), ((chunk - 1, 1), 4)]) == \
        (arb, clash.format(chunk - 1))
    # the first PE with a stray is named, with its first stray, not the first stray
    assert outcome(strays=[(4, 1), (2 * chunk + 3, 0), (3 * chunk, 1)]) == \
        (arb, f"PE 0: valid packet at cycle {2 * chunk + 3} is outside an open row")
    # the checks keep their order across chunks: stray, range, bank
    assert outcome(strays=[(3 * chunk, 1)], cols=[((1, 0), 9)])[1].startswith("PE 1: ")
    assert outcome(cols=[((2, 1), 4), ((3 * chunk + 1, 0), 9)])[0] == shape
    # a clash-free DMM grid of two chunks, with the bank test on
    dense = config_for_tile(16, 512, replicas=2)
    x = np.random.default_rng(167).integers(-8, 8, size=(2048, 64))
    sched = build_dmm_schedule(x, 16)
    assert sched.cycles * 16 > simulator._PASS_SLOTS and 64 > dense.groups
    check_arbitration(sched, dense, 2048, 64)


def random_marked_schedule(rng, k, rows_per_pe, dense_rows):
    """k PE columns of rows_per_pe rows (1-3 slots, valid or not), with idle
    and stray valid slots between rows and a few columns out of range."""
    columns = []
    for _ in range(k):
        slots = []
        for _ in range(rows_per_pe):
            while rng.random() < 0.3:  # idle, or now and then a stray
                slots.append((0, 0, int(rng.random() < 0.1)))
            n = int(rng.integers(1, 4))
            slots += [(int(i == 0), int(i == n - 1), int(rng.random() < 0.8)) for i in range(n)]
        columns.append(slots)
    cycles = max(map(len, columns))
    bits = np.zeros((3, cycles, k), np.int64)
    for p, slots in enumerate(columns):
        bits[:, :len(slots), p] = np.array(slots).T
    col = rng.integers(0, dense_rows, (cycles, k))
    odd = rng.random((cycles, k)) < 0.01
    col[odd] = rng.choice([-1, dense_rows, dense_rows + 3], odd.sum())
    return TileSchedule(*bits, col, np.ones((cycles, k)))


@pytest.mark.parametrize("pass_slots", [1, 3, 8])
def test_arbitration_check_chunks_match_one_pass(monkeypatch, pass_slots):
    rng = np.random.default_rng(173 + pass_slots)
    seen = set()
    for _ in range(300):
        k = int(rng.choice([1, 2, 4, 8]))
        cfg = ArchConfig(pe_count=k, lanes=2, groups=int(rng.choice([1, 2, 4, 8])),
                         replicas=int(rng.choice([r for r in (1, 2, 4) if k % r == 0])))
        dense_rows = int(rng.integers(1, cfg.tile_width + 1))
        rows_per_pe = int(rng.integers(0, 6))
        sched = random_marked_schedule(rng, k, rows_per_pe, dense_rows)
        rows = k * rows_per_pe + int(rng.random() < 0.1)  # now and then a row too many
        whole = check_outcome(sched, cfg, rows, dense_rows)
        with monkeypatch.context() as m:
            m.setattr(simulator, "_PASS_SLOTS", pass_slots)
            assert check_outcome(sched, cfg, rows, dense_rows) == whole, (k, sched.cycles)
        seen.add(whole and whole[1].split(" ")[0])
    assert seen == {None, "PE", "packet", "cycle", "slot"}


@pytest.mark.parametrize("pass_slots", [1, 3, 8, 1 << 40])
def test_arbitration_census_matches_slot_spec(monkeypatch, pass_slots):
    # stalled SDMM tiles with empty rows, and ragged DMM sweeps, checked and
    # counted a few cycles at a time and as one chunk, against the per-slot spec
    monkeypatch.setattr(simulator, "_PASS_SLOTS", pass_slots)
    rng = np.random.default_rng(191)
    seen = np.zeros(3, np.int64)  # stalls, empty-row markers, pads
    for _ in range(30):
        k = int(rng.choice([1, 2, 4, 8]))
        cfg = ArchConfig(pe_count=k, lanes=int(rng.choice([1, 2])),
                         groups=int(rng.choice([2, 4])),
                         replicas=int(rng.choice([r for r in (1, 2, 4) if k % r == 0])))
        raw = rng.integers(1, 8, size=(int(rng.integers(0, 30)), cfg.tile_width))
        raw[rng.random(raw.shape) < 0.8] = 0
        m = len(raw)
        tile = SparseMatrixCSR.from_dense_raw(raw, 4, 0)
        sdmm = build_sdmm_schedule(tile, cfg)
        dmm = build_dmm_schedule(rng.integers(-8, 8, size=(m, 3)), k)
        # the stalls each PE gains, as the stall spec counts them: none in a sweep
        spec_stalls = _stall_spec(assign_rows(tile, k), cfg)[1]
        for sched, dense_rows, stalls in ((sdmm, cfg.tile_width, spec_stalls), (dmm, 3, 0)):
            got, want = check_arbitration(sched, cfg, m, dense_rows), census_spec(sched)
            assert got.cycles == want.cycles
            for name in ("valid", "empty_row", "stall_idle", "pad_idle"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert (got.stall_idle == stalls).all()
            seen += [want.stall_idle.sum(), want.empty_row.sum(), want.pad_idle.sum()]
    assert (seen > 0).all()


def test_arbitration_census_rejects_unclassifiable_slots_last():
    cfg = ArchConfig(pe_count=2, lanes=2, groups=2)
    # PE 0 opens its row on a slot with no work: run_tile would take it, but
    # it is neither work, an empty-row marker nor idle
    opened = make_sched([[(1, 0, 0, 0, 0), (1, 1, 1, 1, 1)],
                         [(0, 1, 1, 0, 1), IDLE_PACKET]])
    with pytest.raises(AssertionError):
        census_spec(opened)
    with pytest.raises(AssertionError, match="^slot census"):
        check_arbitration(opened, cfg, 2, 2)
    # the arbitration findings are raised first
    with pytest.raises(ArbitrationError, match="^PE 0: row markers disagree with its 2 rows"):
        check_arbitration(opened, cfg, 3, 2)
    with pytest.raises(ShapeError, match="^packet column 1 outside dense tile rows 1"):
        check_arbitration(opened, cfg, 2, 1)


def test_arbitration_census_peak_is_chunk_sized():
    # a dense 8192 x 64 block is one 524,288-slot DMM grid at K = 16 (4.5 MiB
    # as a schedule); checked and counted a chunk of cycles at a time it peaks
    # at 2.7 MiB of chunk temporaries, and as one chunk at 12.6 MiB
    x = np.random.default_rng(197).integers(-8, 8, size=(8192, 64))
    cfg = config_for_tile(16, 512, replicas=2)
    sched = build_dmm_schedule(x, cfg.pe_count)
    stats, peak = traced_peak(check_arbitration, sched, cfg, 8192, 64)
    assert stats.totals()["valid"] == 8192 * 64
    assert peak <= 3 << 20, peak >> 10


@pytest.mark.parametrize("pass_slots", [1, 5, 16])
def test_compile_tile_blocks_match_one_block(monkeypatch, pass_slots):
    rng = np.random.default_rng(179 + pass_slots)
    cases = []
    for _ in range(20):
        cfg, tile, w = random_tile_setup(rng, k=int(rng.choice([1, 2, 4, 8])), density=0.5)
        for sched in (build_sdmm_schedule(tile, cfg),
                      build_dmm_schedule(rng.integers(-8, 8, size=(tile.rows, w.rows)),
                                         cfg.pe_count)):
            cases.append((sched, compile_tile(sched)))  # each one block at full size
    monkeypatch.setattr(simulator, "_PASS_SLOTS", pass_slots)
    for sched, whole in cases:
        blocks = compile_tile(sched)
        for got, want in zip(blocks, whole):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_compile_plan_peaks_at_its_schedule_and_compiled_tile():
    # a dense 8192 x 64 operand is one 524,288-slot DMM plan entry at K = 16;
    # building, checking, counting and compiling it add no more than 4 MiB
    # to the schedule and its compiled tile
    x = DenseMatrix(np.random.default_rng(181).integers(-8, 8, size=(8192, 64)), 16, 8)
    cfg = config_for_tile(16, 512, replicas=2)
    sched = build_dmm_schedule(x.data, cfg.pe_count)
    held = sum(a.nbytes for a in (sched.sor, sched.eor, sched.vld, sched.col, sched.value))
    held += sum(a.nbytes for a in compile_tile(sched))
    del sched
    plan, peak = traced_peak(compile_plan, x, cfg)
    assert len(plan.entries) == 1
    assert peak <= held + (4 << 20), (peak >> 10, held >> 10)


def test_compile_plan_holds_packet_values_at_16_bits():
    # the same 524,288-slot DMM entry: its schedule stores 9 bytes a slot
    # (three flag bytes, an int32 column, an int16 value) and its compiled
    # tile 6 (column and value), so with chunk-sized temporaries planning
    # stays under 24 bytes a slot (12 MiB); int64 values, 6 bytes a slot more
    # in each, peaked at 15.4 MiB
    x = DenseMatrix(np.random.default_rng(181).integers(-8, 8, size=(8192, 64)), 16, 8)
    cfg = config_for_tile(16, 512, replicas=2)
    plan, peak = traced_peak(compile_plan, x, cfg)
    (_, tile, _), = plan.entries
    assert tile.value.dtype == np.int16
    assert peak <= 24 * x.data.size, peak >> 10


def test_simulate_step_spec_point():
    # 64x64 at ~1% density times 64x16, K=4, T=32 (16 lanes x 2 groups)
    rng = np.random.default_rng(103)
    raw = rng.integers(-8, 8, size=(64, 64))
    raw[rng.random(raw.shape) < 0.99] = 0
    x = SparseMatrixCSR.from_dense_raw(raw, 4, 3)
    w = DenseMatrix(rng.integers(-8, 8, size=(64, 16)), 4, 3)
    cfg = ArchConfig(pe_count=4, lanes=16, groups=2)
    y, report = simulate_step(compile_plan(x, cfg), w)
    assert np.array_equal(y.data, sdmm_reference(x, w).data)
    assert y.frac_bits == 6
    report.census.check_identity()


def test_simulate_step_needs_no_value_width():
    # the config carries no packet width: each operand's packets pick theirs
    rng = np.random.default_rng(109)
    raw = rng.integers(-8, 8, size=(12, 8))
    raw[rng.random(raw.shape) < 0.5] = 0
    w = DenseMatrix(rng.integers(-8, 8, size=(8, 3)), 4, 0)
    cfg = ArchConfig(pe_count=2, lanes=2, groups=4)
    for x in (SparseMatrixCSR.from_dense_raw(raw, 4, 0),
              SparseMatrixCSR.from_dense_raw((raw != 0).astype(np.int64), 4, 0)):
        y, _ = simulate_step(compile_plan(x, cfg), w)
        assert np.array_equal(y.data, sdmm_reference(x, w).data)


def test_simulate_step_random_configs():
    rng = np.random.default_rng(107)
    for _ in range(15):
        k = int(rng.choice([2, 4, 8]))
        r = int(rng.choice([x for x in (1, 2, 4) if k % x == 0]))
        lanes = int(rng.choice([2, 4, 8]))
        groups = int(rng.choice([2, 4]))
        cfg = ArchConfig(pe_count=k, lanes=lanes, groups=groups, replicas=r)
        m = int(rng.integers(1, 50))
        n = int(rng.integers(1, 70))
        c = int(rng.integers(1, 20))
        raw = rng.integers(-8, 8, size=(m, n))
        raw[rng.random(raw.shape) < 0.8] = 0
        x = SparseMatrixCSR.from_dense_raw(raw, 4, 3)
        w = DenseMatrix(rng.integers(-8, 8, size=(n, c)), 4, 3)
        y, report = simulate_step(compile_plan(x, cfg), w)
        assert np.array_equal(y.data, sdmm_reference(x, w).data)
        report.census.check_identity()


def test_simulate_step_dmm():
    rng = np.random.default_rng(109)
    x = DenseMatrix(rng.integers(-8, 8, size=(32, 16)), 4, 3)
    w = DenseMatrix(rng.integers(-8, 8, size=(16, 16)), 4, 3)
    cfg = ArchConfig(pe_count=4, lanes=16, groups=2)
    y, report = simulate_step(compile_plan(x, cfg), w)
    assert np.array_equal(y.data, dmm_reference(x, w).data)
    assert report.mode == MODE_DMM
    # identity left operand passes W through, widened
    ident = DenseMatrix(np.eye(16, dtype=np.int64), 4, 0)
    y2, _ = simulate_step(compile_plan(ident, cfg), w)
    assert np.array_equal(y2.data, w.data)


def test_simulate_step_phase_arithmetic():
    rng = np.random.default_rng(113)
    raw = rng.integers(-8, 8, size=(24, 40))
    raw[rng.random(raw.shape) < 0.7] = 0
    x = SparseMatrixCSR.from_dense_raw(raw, 4, 3)
    w = DenseMatrix(rng.integers(-8, 8, size=(40, 10)), 4, 3)
    cfg = ArchConfig(pe_count=4, lanes=4, groups=4, load_bw=8, move_bw=4)
    y, report = simulate_step(compile_plan(x, cfg), w)
    # load: per pair ceil(rows*cols*r/load_bw); tiles are 16/16/8 rows wide
    # and output tiles 4/4/2 lanes
    expect_load = 0
    for rows in (16, 16, 8):
        for cols in (4, 4, 2):
            expect_load += -(-rows * cols // 8)
    assert report.load_cycles == expect_load
    assert report.move_cycles == -(-24 * 10 // 4)
    assert report.total_cycles == report.load_cycles + report.compute_cycles \
        + report.move_cycles
    # one tiles entry per column tile, each run once per lane block
    assert [(t["col_offset"], t["lane_blocks"]) for t in report.tiles] == \
        [(0, 3), (16, 3), (32, 3)]
    # each of the 3 lane blocks replays its column tile's one schedule
    per_block = sum(build_sdmm_schedule(tile, cfg).cycles
                    for tile in tile_columns(x, cfg.tile_width))
    assert report.compute_cycles == 3 * per_block


def test_one_operand_under_two_configs_reports_each_configs_cycles():
    # a plan runs on the array it was compiled for: each of the two plans of
    # one operand reports its own config's tiles, census and phase cycles
    rng = np.random.default_rng(149)
    raw = rng.integers(-8, 8, size=(96, 256))
    raw[rng.random(raw.shape) < 0.9] = 0
    x = SparseMatrixCSR.from_dense_raw(raw, 4, 3)
    w = DenseMatrix(rng.integers(-8, 8, size=(256, 12)), 4, 3)
    totals = []
    for cfg in (config_for_tile(4, 64, 8, load_bw=16), config_for_tile(8, 128, 4, replicas=2)):
        y, report = simulate_step(compile_plan(x, cfg), w)
        assert np.array_equal(y.data, sdmm_reference(x, w).data)
        lane_blocks = -(-12 // cfg.lanes)
        cycles = [stats.cycles for _, _, stats in plan_step(x, cfg)]
        assert [(t["col_offset"], t["cycles"]) for t in report.tiles] == \
            list(zip(range(0, 256, cfg.tile_width), cycles))
        assert report.census.pe_count == cfg.pe_count
        assert report.compute_cycles == lane_blocks * sum(cycles)
        assert report.load_cycles == sum(
            load_tile(w.data[c0:c0 + cfg.tile_width, o0:o0 + cfg.lanes], cfg)
            for c0 in range(0, 256, cfg.tile_width) for o0 in range(0, 12, cfg.lanes))
        assert report.move_cycles == data_move(y.data, cfg)
        totals.append(report.total_cycles)
    assert totals[0] != totals[1]


def test_simulate_step_dmm_many_tiles_ragged_lanes():
    # 3 column tiles (8, 8, 5 wide) by 3 lane blocks (4, 4, 2 lanes)
    rng = np.random.default_rng(139)
    cfg = ArchConfig(pe_count=4, lanes=4, groups=2, load_bw=8)
    x = DenseMatrix(rng.integers(-8, 8, size=(11, 21)), 4, 3)
    w = DenseMatrix(rng.integers(-8, 8, size=(21, 10)), 4, 3)
    y, report = simulate_step(compile_plan(x, cfg), w)
    assert np.array_equal(y.data, dmm_reference(x, w).data)
    assert [(t["col_offset"], t["lane_blocks"]) for t in report.tiles] == \
        [(c0, 3) for c0 in (0, 8, 16)]
    per_block = sum(build_dmm_schedule(x.data[:, c0:c0 + 8], 4).cycles
                    for c0 in (0, 8, 16))
    assert [t["cycles"] for t in report.tiles] == \
        [build_dmm_schedule(x.data[:, c0:c0 + 8], 4).cycles for c0 in (0, 8, 16)]
    for name, total in report.census.totals().items():
        assert sum(3 * t[name] for t in report.tiles) == total, name
    assert report.compute_cycles == 3 * per_block
    assert report.load_cycles == sum(-(-t * c // 8) for t in (8, 8, 5) for c in (4, 4, 2))
    report.census.check_identity()


def test_simulate_step_dmm_degenerate_counts():
    # row count a multiple of K: dense sweeps never stall and never pad
    cfg = ArchConfig(pe_count=4, lanes=4, groups=2)
    rng = np.random.default_rng(127)
    x = DenseMatrix(rng.integers(-8, 8, size=(12, 8)), 4, 3)
    w = DenseMatrix(rng.integers(-8, 8, size=(8, 4)), 4, 3)
    _, report = simulate_step(compile_plan(x, cfg), w)
    assert int(report.census.stall_idle.sum()) == 0
    assert int(report.census.pad_idle.sum()) == 0


def test_simulate_step_determinism():
    rng = np.random.default_rng(131)
    raw = rng.integers(-8, 8, size=(20, 20))
    raw[rng.random(raw.shape) < 0.6] = 0
    x = SparseMatrixCSR.from_dense_raw(raw, 4, 3)
    w = DenseMatrix(rng.integers(-8, 8, size=(20, 6)), 4, 3)
    cfg = ArchConfig(pe_count=4, lanes=2, groups=4)
    y1, r1 = simulate_step(compile_plan(x, cfg), w)
    y2, r2 = simulate_step(compile_plan(x, cfg), w)
    assert np.array_equal(y1.data, y2.data)
    assert (r1.mode, r1.load_cycles, r1.compute_cycles, r1.move_cycles) == \
        (r2.mode, r2.load_cycles, r2.compute_cycles, r2.move_cycles)
    for name in ("valid", "empty_row", "stall_idle", "pad_idle"):
        assert np.array_equal(getattr(r1.census, name), getattr(r2.census, name))


def test_replica_monotonicity():
    rng = np.random.default_rng(137)
    raw = rng.integers(-8, 8, size=(64, 64))
    raw[rng.random(raw.shape) < 0.5] = 0
    x = SparseMatrixCSR.from_dense_raw(raw, 4, 3)
    w = DenseMatrix(rng.integers(-8, 8, size=(64, 8)), 4, 3)
    cycles = []
    for r in (1, 2, 4, 8):
        cfg = ArchConfig(pe_count=8, lanes=8, groups=4, replicas=r)
        _, report = simulate_step(compile_plan(x, cfg), w)
        cycles.append(report.compute_cycles)
    assert cycles == sorted(cycles, reverse=True), cycles


def test_simulate_step_input_validation():
    cfg = ArchConfig(pe_count=2, lanes=2, groups=2)
    x = DenseMatrix(np.zeros((2, 4), np.int64), 4, 0)
    w = DenseMatrix(np.zeros((5, 2), np.int64), 4, 0)
    # the operand's type picks the mode; anything else is not an operand
    with pytest.raises(TypeError):
        compile_plan(x.data, cfg)
    with pytest.raises(ShapeError):
        simulate_step(compile_plan(x, cfg), w)
    with pytest.raises(ShapeError):
        simulate_step(compile_plan(SparseMatrixCSR.from_dense_raw(x.data, 4, 0), cfg), w)


def test_schedule_stats_add_up():
    a = CycleReport(ScheduleStats(np.array([3, 2]), np.zeros(2, np.int64),
                                  np.zeros(2, np.int64), np.array([2, 3]), 5),
                    load_cycles=3, move_cycles=1)
    b = CycleReport(ScheduleStats(np.array([2, 1]), np.array([0, 0]), np.array([0, 1]),
                                  np.array([0, 0]), 2),
                    load_cycles=1, move_cycles=2)
    total = a.census + b.census
    assert a.total_cycles + b.total_cycles == 14
    assert total.valid.tolist() == [5, 3]
    assert (total + ScheduleStats.zero(2)).totals() == total.totals()
    total.check_identity()
    with pytest.raises(ValueError):
        a.census + ScheduleStats.zero(3)


def test_simulate_step_peak_memory_is_linear():
    # Measured peaks fit about 90 bytes per valid slot (schedule, indices,
    # arbitration keys) plus 28 per output cell (partials, chunked products);
    # the budget doubles that. Materialising every slot's lane products at
    # once (one np.add.at over all slots, or one unchunked segment sum)
    # costs V x C x 8 bytes and more and fails the dense case.
    rng = np.random.default_rng(151)
    cfg = ArchConfig(pe_count=16, lanes=16, groups=32, replicas=2)
    xd = DenseMatrix(rng.integers(-8, 8, size=(8192, 64)), 4, 0)
    r, c = rng.integers(0, 8192, 60000), rng.integers(0, 512, 60000)
    xs = SparseMatrixCSR.from_coo(8192, 512, r, c, rng.integers(1, 4, 60000), 4, 0)
    assert xs.nnz >= 50000 and int(xs.values.max()) <= 7
    for x, slots, reference in ((xd, xd.rows * xd.cols, dmm_reference),
                                (xs, xs.nnz, sdmm_reference)):
        w = DenseMatrix(rng.integers(-8, 8, size=(x.cols, 64)), 4, 0)
        (y, _), peak = traced_peak(lambda: simulate_step(compile_plan(x, cfg), w))
        budget = 2 * (90 * slots + 28 * x.rows * w.cols)
        assert peak <= budget, (type(x).__name__, peak >> 20, budget >> 20)
        # the sparse rows straddle the executor's slot chunks
        assert np.array_equal(y.data, reference(x, w).data)
