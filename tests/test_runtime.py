"""Multi-layer runtime: hand traces, sim/oracle agreement, error vs real math."""

import weakref

import numpy as np
import pytest

from gcnsim.graphs import gen_powerlaw, random_weights

from gcnsim.matrix import (
    DenseMatrix,
    OverflowTrap,
    ShapeError,
    SparseMatrixCSR,
    dequantize,
    dmm_reference,
    int_max,
    int_min,
    normalize_adjacency,
    relu,
    requantize16,
    sdmm_reference,
)
from gcnsim.runtime import (
    KIND_GCN,
    KIND_SAGE,
    LayerSpec,
    ModelSpec,
    RunReport,
    _forward,
    align_add,
    make_gcn,
    make_graphsage,
    mean_adjacency,
    real_reference,
    references,
    run_model,
    run_oracle,
    verify_against_oracle,
)
from gcnsim import runtime, simulator
from gcnsim.report import report_document
from gcnsim.schedule import ScheduleStats, config_for_tile, tile_columns
from gcnsim.simulator import MODE_DMM, MODE_SDMM, check_product, compile_plan, simulate_step
from helpers import to_dense, traced_peak
from test_matrix import _requantize16_spec


def csr_raw(grid, bits=4, frac=3):
    return SparseMatrixCSR.from_dense_raw(np.array(grid), bits, frac)


def dense_raw(grid, bits=4, frac=3):
    return DenseMatrix(np.array(grid), bits, frac)


def path3_adjacency():
    # nodes 0-1-2, undirected, no self loops
    a = csr_raw([[0, 1, 0], [1, 0, 1], [0, 1, 0]], bits=4, frac=0)
    return normalize_adjacency(a, "binary")


def verify(model, a, x0, cfg):
    return verify_against_oracle(*run_model(model, a, x0, cfg), references(model, a, x0))


def random_model_inputs(rng, kind):
    n = int(rng.integers(3, 20))
    f = int(rng.integers(2, 10))
    h = int(rng.integers(2, 8))
    c = int(rng.integers(2, 6))
    mask = rng.random((n, n)) < 0.3
    np.fill_diagonal(mask, rng.random(n) < 0.5)
    adj = SparseMatrixCSR.from_dense_raw(mask.astype(np.int64), 4, 0)
    x0 = csr_raw(np.where(rng.random((n, f)) < 0.5,
                          rng.integers(-8, 8, (n, f)), 0))
    def w(r, cc):
        return dense_raw(rng.integers(-8, 8, (r, cc)))
    if kind == KIND_GCN:
        mode = rng.choice(["binary", "sym_norm"])
        a = normalize_adjacency(adj, mode)
        model = make_gcn([w(f, h), w(h, c)], adjacency_mode=mode)
    else:
        a = mean_adjacency(adj)
        model = make_graphsage([(w(f, h), w(f, h)), (w(h, c), w(h, c))])
    return model, a, x0


# -- hand traces ------------------------------------------------------------


def test_two_layer_gcn_path_graph_hand_trace():
    """Every intermediate of this trace was worked out on paper."""
    a = path3_adjacency()
    x0 = csr_raw([[4, -2], [1, 3], [-8, 7]])
    w0 = dense_raw([[2, -1], [3, 4]])
    w1 = dense_raw([[1, 2], [-2, 1]])
    model = make_gcn([w0, w1])
    cfg = config_for_tile(pe_count=2, tile_width=16)
    logits, report = run_model(model, a, x0, cfg)
    # layer 0: XW=[[2,-12],[11,11],[5,36]] f6 -> <<9 at f15, aggregate over
    # the path, relu is a no-op; layer 1 lands at f15 after a 3-bit round.
    assert logits.frac_bits == 15
    assert logits.bits == 16
    expect = [[-2624, 2432], [-1408, 4224], [-2624, 2432]]
    assert np.array_equal(logits.data, np.array(expect))
    labels = [lbl for lbl, _ in report.steps]
    assert labels == ["layer0.combine", "layer0.aggregate",
                      "layer1.combine", "layer1.aggregate"]
    modes = [r.mode for _, r in report.steps]
    assert modes == [MODE_SDMM, MODE_SDMM, MODE_DMM, MODE_SDMM]


def test_identity_adjacency_reduces_to_dense_chain():
    rng = np.random.default_rng(7)
    x0 = csr_raw(rng.integers(-8, 8, (5, 3)))
    w0 = dense_raw(rng.integers(-8, 8, (3, 4)))
    w1 = dense_raw(rng.integers(-8, 8, (4, 2)))
    eye = normalize_adjacency(csr_raw(np.eye(5, dtype=np.int64), frac=0), "binary")
    cfg = config_for_tile(pe_count=2, tile_width=16)
    logits, _ = run_model(make_gcn([w0, w1]), eye, x0, cfg)

    x = to_dense(x0)
    for i, w in enumerate([w0, w1]):
        prod = x.data.astype(np.int64) @ w.data.astype(np.int64)
        xw = requantize16(DenseMatrix(prod, 32, x.frac_bits + w.frac_bits))
        y = relu(DenseMatrix(xw.data, 32, xw.frac_bits)) if i == 0 \
            else DenseMatrix(xw.data, 32, xw.frac_bits)
        x = requantize16(y)
    assert logits.frac_bits == x.frac_bits
    assert np.array_equal(logits.data, x.data)


def test_zero_features_give_zero_logits():
    a = path3_adjacency()
    x0 = csr_raw(np.zeros((3, 2), dtype=np.int64))
    model = make_gcn([dense_raw([[2, -1], [3, 4]]), dense_raw([[1, 2], [-2, 1]])])
    logits, _ = run_model(model, a, x0, config_for_tile(2, 16))
    assert x0.nnz == 0
    assert not logits.data.any()


def test_single_node_graphsage_self_loop():
    # one node with a self loop: mean weight is exactly 1, so the layer is
    # X @ Wself + X @ Wneigh after the neighbor product's 16-bit round trip
    a = mean_adjacency(csr_raw([[1]], frac=0))
    assert a.values.tolist() == [1 << 14] and a.frac_bits == 14
    x0 = csr_raw([[3, -5]])
    ws = dense_raw([[2, 1], [0, 3]])
    wn = dense_raw([[-1, 2], [4, 0]])
    model = make_graphsage([(ws, wn)])
    logits, _ = run_model(model, a, x0, config_for_tile(2, 16))

    x = to_dense(x0).data.astype(np.int64)
    self_part = DenseMatrix(x @ ws.data.astype(np.int64), 32, 6)
    xn16 = requantize16(DenseMatrix(x @ wn.data.astype(np.int64), 32, 6))
    neigh = DenseMatrix((1 << 14) * xn16.data.astype(np.int64), 32, 14 + xn16.frac_bits)
    expect = requantize16(align_add(self_part, neigh))
    assert logits.frac_bits == expect.frac_bits
    assert np.array_equal(logits.data, expect.data)


# -- sim vs oracle ----------------------------------------------------------


def test_sim_matches_oracle_bit_for_bit():
    rng = np.random.default_rng(101)
    kinds = [KIND_GCN, KIND_SAGE]
    for trial in range(16):
        model, a, x0 = random_model_inputs(rng, kinds[trial % 2])
        k = int(rng.choice([1, 2, 4]))
        width = int(rng.choice([16, 32, 64]))
        r = int(rng.choice([d for d in (1, 2) if k % d == 0]))
        cfg = config_for_tile(k, width, replicas=r)
        res = verify(model, a, x0, cfg)
        assert res["exact_match"], f"trial {trial} diverged from the oracle"
        assert res["total_cycles"] > 0


def test_run_model_dispatches_and_reports():
    rng = np.random.default_rng(33)
    model, a, x0 = random_model_inputs(rng, KIND_GCN)
    cfg = config_for_tile(2, 32)
    logits, report = run_model(model, a, x0, cfg)
    oracle = run_oracle(model, a, x0)
    assert np.array_equal(logits.data, oracle.data)
    assert report.total_cycles() == sum(r.total_cycles for _, r in report.steps)
    sdmm = sum(r.compute_cycles for _, r in report.steps if r.mode == MODE_SDMM)
    assert report_document(report)["sdmm"]["compute_cycles"] == sdmm
    for _, r in report.steps:
        assert r.census.pe_count == cfg.pe_count
        r.census.check_identity()


class FreshPlanEngine:
    """run_model's engine without plan reuse: every step plans anew."""

    def __init__(self, cfg):
        self.cfg, self.report = cfg, RunReport(cfg)

    def operand(self, x):
        return x

    def matmul(self, label, x, w):
        y, rep = simulate_step(compile_plan(x, self.cfg), w)
        self.report.add(label, rep)
        return y


def test_reused_plans_match_a_fresh_plan_per_step():
    rng = np.random.default_rng(61)
    for kind in (KIND_GCN, KIND_SAGE, KIND_GCN, KIND_SAGE):
        model, a, x0 = random_model_inputs(rng, kind)
        cfg = config_for_tile(int(rng.choice([2, 4])), 16, lanes=4)
        logits, report = run_model(model, a, x0, cfg)
        engine = FreshPlanEngine(cfg)
        expect = _forward(model, a, x0, engine)
        assert logits.frac_bits == expect.frac_bits
        assert np.array_equal(logits.data, expect.data)
        assert report_document(report) == report_document(engine.report)
        assert [r.tiles for _, r in report.steps] == \
            [r.tiles for _, r in engine.report.steps]


def test_run_model_schedules_each_operand_tile_once(monkeypatch):
    built, checked = [], []
    build, check = simulator.build_sdmm_schedule, simulator.check_arbitration
    monkeypatch.setattr(simulator, "build_sdmm_schedule",
                        lambda tile, cfg: built.append(tile) or build(tile, cfg))
    monkeypatch.setattr(simulator, "check_arbitration",
                        lambda sched, *args: checked.append(sched) or check(sched, *args))
    rng = np.random.default_rng(67)
    for kind in (KIND_GCN, KIND_SAGE):
        model, a, x0 = random_model_inputs(rng, kind)
        cfg = config_for_tile(2, 16, lanes=4)
        built.clear()
        checked.clear()
        run_model(model, a, x0, cfg)
        # x0 and a are the two sparse operands, however many steps use them
        sparse_tiles = sum(len(list(tile_columns(x, 16))) for x in (x0, a))
        assert len(built) == sparse_tiles
        # one check per planned tile; layer 1's dense input is the only DMM operand
        assert len(checked) == sparse_tiles + -(-model.layers[1].weight.rows // 16)


def test_run_model_compiles_each_plan_entry_once(monkeypatch):
    # GraphSAGE runs every planned operand twice: x in self and neigh_combine,
    # a in both layers' neigh_aggregate
    planned, compiled, ran = [], [], []
    plan, compile_tile, run_tile = (simulator.plan_step, simulator.compile_tile,
                                    simulator.run_tile)

    def counted_plan(x, cfg):
        entries = list(plan(x, cfg))
        planned.extend(sched for _, sched, _ in entries)
        return entries

    def counted_compile(sched):
        compiled.append((sched, compile_tile(sched)))
        return compiled[-1][1]

    monkeypatch.setattr(simulator, "plan_step", counted_plan)
    monkeypatch.setattr(simulator, "compile_tile", counted_compile)
    monkeypatch.setattr(simulator, "run_tile",
                        lambda tile, *args: ran.append(tile) or run_tile(tile, *args))
    model, a, x0 = random_model_inputs(np.random.default_rng(71), KIND_SAGE)
    run_model(model, a, x0, config_for_tile(2, 16, lanes=4))
    assert len(planned) > 3
    assert [id(sched) for sched, _ in compiled] == [id(sched) for sched in planned]
    assert sorted(map(id, ran)) == sorted(2 * [id(tile) for _, tile in compiled])


def test_run_model_working_set_does_not_grow_with_depth(monkeypatch):
    # hidden 64 on 3072 nodes: six layers peak within 10% of two, since each
    # activation, its products and its plan go once the walk is past them
    live, held = weakref.WeakSet(), []  # compiled plans alive after each product
    compile_plan = runtime.compile_plan

    def counted_compile(x, cfg):
        plan = compile_plan(x, cfg)
        live.add(plan)
        return plan

    class CountingEngine(runtime._SimEngine):
        def matmul(self, *args):
            y = super().matmul(*args)
            held.append(len(live))
            return y

    monkeypatch.setattr(runtime, "compile_plan", counted_compile)
    monkeypatch.setattr(runtime, "_SimEngine", CountingEngine)
    bundle = gen_powerlaw(3072, 4, 2.1, seed=3, n_features=64, feature_density=0.1)
    cfg = config_for_tile(16, 512, replicas=2)
    gcn_a = normalize_adjacency(bundle.adjacency, "sym_norm")
    sage_a = mean_adjacency(bundle.adjacency)
    for kind in (KIND_GCN, KIND_SAGE):
        peaks = {}
        for layers in (2, 6):
            dims = [64] * layers + [4]
            if kind == KIND_GCN:
                model, a = make_gcn(random_weights(dims, seed=1), "sym_norm"), gcn_a
            else:
                pairs = zip(random_weights(dims, seed=1), random_weights(dims, seed=2))
                model, a = make_graphsage(list(pairs)), sage_a
            held.clear()
            _, peaks[layers] = traced_peak(run_model, model, a, bundle.features, cfg)
            # a's plan for the run; each layer input's until its last product
            # (combine), so the aggregate runs with a's alone
            per_layer = [2, 1] if kind == KIND_GCN else [2, 2, 1]
            assert held == per_layer * layers, kind
        assert peaks[6] <= 1.1 * peaks[2], (kind, peaks[6] >> 10, peaks[2] >> 10)


def test_shape_mismatch_raises_before_planning(monkeypatch):
    cfg = config_for_tile(2, 16, lanes=4)
    operands = [csr_raw(np.ones((3, 4), np.int64)), dense_raw(np.ones((3, 4), np.int64))]
    plans = [compile_plan(x, cfg) for x in operands]
    built, ran = [], []
    monkeypatch.setattr(simulator, "build_sdmm_schedule",
                        lambda *args: built.append(args))
    monkeypatch.setattr(simulator, "build_dmm_schedule",
                        lambda *args: built.append(args))
    monkeypatch.setattr(simulator, "run_tile", lambda *args: ran.append(args))
    w = dense_raw(np.ones((5, 2), np.int64))
    for x in operands:  # the layer walk's check, before planning
        with pytest.raises(ShapeError, match="inner dims differ: 4 vs 5"):
            check_product(x, w)
    for plan in plans:  # simulate_step's, before any tile runs
        with pytest.raises(ShapeError, match="inner dims differ: 4 vs 5"):
            simulate_step(plan, w)
    model, a, x0 = random_model_inputs(np.random.default_rng(73), KIND_SAGE)
    wide = csr_raw(np.ones((x0.rows, x0.cols + 1), np.int64))
    with pytest.raises(ShapeError, match="inner dims differ"):
        run_model(model, a, wide, cfg)
    # an adjacency whose columns are not x0's rows fails before x0 is planned
    narrow = csr_raw(np.ones((x0.rows, x0.rows + 1), np.int64))
    with pytest.raises(ShapeError, match=f"inner dims differ: {x0.rows + 1} vs {x0.rows}"):
        run_model(model, narrow, x0, cfg)
    # so does an x0 of no operand type
    with pytest.raises(TypeError, match="left operand must be"):
        run_model(model, a, to_dense(x0).data, cfg)
    assert built == [] and ran == []


def test_summed_step_censuses_keep_accounting_identity():
    rng = np.random.default_rng(55)
    model, a, x0 = random_model_inputs(rng, KIND_SAGE)
    _, report = run_model(model, a, x0, config_for_tile(4, 16))
    m = sum((r.census for _, r in report.steps), ScheduleStats.zero(4))
    slots = m.valid.sum() + m.empty_row.sum() + m.stall_idle.sum() + m.pad_idle.sum()
    assert slots == m.cycles * m.pe_count
    assert m.cycles == sum(r.compute_cycles for _, r in report.steps)
    with pytest.raises(ValueError):
        m + ScheduleStats.zero(3)


def test_aggregation_order_is_exact_in_integers():
    # A(XW) == (AX)W holds exactly on the integer kernels, so running
    # combination first loses nothing
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, f, c = rng.integers(2, 10, 3)
        a = SparseMatrixCSR.from_dense_raw(
            (rng.random((n, n)) < 0.4).astype(np.int64), 4, 0)
        x = csr_raw(rng.integers(-8, 8, (n, f)))
        w = dense_raw(rng.integers(-8, 8, (f, c)))
        left = sdmm_reference(a, sdmm_reference(x, w))
        ax = sdmm_reference(a, to_dense(x))
        right = dmm_reference(DenseMatrix(ax.data, 32, ax.frac_bits), w)
        assert left.frac_bits == right.frac_bits
        assert np.array_equal(left.data, right.data)


# -- error vs real arithmetic -----------------------------------------------


def test_quantization_error_small_and_argmax_stable():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(6):
        model, a, x0 = random_model_inputs(rng, KIND_GCN)
        res = verify(model, a, x0, config_for_tile(2, 16))
        assert res["exact_match"]
        worst = max(worst, res["max_abs_err"])
        assert res["argmax_agreement"] >= 0.8
    # the only error sources are the 16-bit requantize points
    assert worst < 0.5


def test_graphsage_error_vs_real_reference():
    rng = np.random.default_rng(303)
    model, a, x0 = random_model_inputs(rng, KIND_SAGE)
    res = verify(model, a, x0, config_for_tile(2, 16))
    assert res["exact_match"]
    assert res["max_abs_err"] < 0.5


# -- spec validation and helpers --------------------------------------------


def test_model_spec_rejects_bad_shapes_and_kinds():
    w = dense_raw([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        ModelSpec("transformer", [LayerSpec(w)])
    with pytest.raises(ValueError):
        ModelSpec(KIND_GCN, [])
    with pytest.raises(ShapeError):
        make_gcn([w, dense_raw([[1, 2], [3, 4], [5, 6]])])
    with pytest.raises(ValueError):
        ModelSpec(KIND_SAGE, [LayerSpec(w)])  # missing self block
    with pytest.raises(ShapeError):
        ModelSpec(KIND_SAGE, [LayerSpec(w, weight_self=dense_raw([[1], [2]]))])


def test_mean_adjacency_values_and_isolated_rows():
    a = csr_raw([[0, 1, 0], [1, 0, 1], [0, 1, 0]], frac=0)
    m = mean_adjacency(a)
    assert m.bits == 16 and m.frac_bits == 14
    assert m.values.tolist() == [16384, 8192, 8192, 16384]
    assert m.col_idx.tolist() == [1, 0, 2, 1]
    iso = csr_raw([[1, 0], [0, 0]], frac=0)
    miso = mean_adjacency(iso)
    assert miso.row_nnz().tolist() == [1, 0]
    with pytest.raises(ShapeError):
        mean_adjacency(csr_raw([[1, 0, 0], [0, 1, 0]], frac=0))


def test_align_add_shifts_exactly():
    a = DenseMatrix(np.array([[8]]), 32, 3)
    b = DenseMatrix(np.array([[2]]), 32, 5)
    out = align_add(a, b)
    assert out.frac_bits == 5
    assert out.data.tolist() == [[34]]  # 1.0 + 0.0625 at scale 2^-5
    with pytest.raises(ShapeError):
        align_add(a, DenseMatrix(np.array([[1, 2]]), 32, 3))
    big = DenseMatrix(np.array([[(1 << 31) - 1]]), 32, 0)
    with pytest.raises(OverflowTrap):
        align_add(big, DenseMatrix(np.array([[1]]), 32, 0))


def test_extreme_values_never_wrap():
    # int16 activations at both ends, 4- and 16-bit weights at theirs, and
    # products within 2**15 of +-2**31: each kernel, and the simulator in both
    # modes, equals an int64 spec whatever numpy's casting rules (numpy 1
    # casts by value), and each result is int32 or int16 as declared
    lo, hi = int_min(16), int_max(16)
    x16 = np.array([[lo, lo + 1], [hi, lo], [lo, 0], [hi, hi]], np.int64)
    w16 = np.array([[lo, hi], [lo, lo]], np.int64)
    spec = x16 @ w16  # int64 throughout
    assert spec.max() == 2**31 - 32768 and spec.min() == -(2**31) + 65536
    cfg = config_for_tile(2, 16)
    for w_raw, bits in ((w16, 16), (np.array([[-8, 7], [-8, -8]], np.int64), 4)):
        w = DenseMatrix(w_raw, bits, 0)
        want = x16 @ w_raw
        for x, reference in ((csr_raw(x16, bits=16, frac=0), sdmm_reference),
                             (DenseMatrix(x16, 16, 0), dmm_reference)):
            for y in (reference(x, w), simulate_step(compile_plan(x, cfg), w)[0]):
                assert y.data.dtype == np.int32 and np.array_equal(y.data, want), bits
    big = DenseMatrix(spec, 32, 20)
    q = requantize16(big)
    assert q.data.dtype == np.int16 and np.array_equal(q.data, _requantize16_spec(big).data)
    assert relu(big).data.dtype == np.int32
    assert relu(big).data.tolist() == np.maximum(spec, 0).tolist()
    a = DenseMatrix(np.array([[2**30 - 1, -(2**30), -7]]), 32, 0)
    b = DenseMatrix(np.array([[1, 0, -(2**31) + 14]]), 32, 1)
    s = align_add(a, b)
    assert s.data.dtype == np.int32
    assert s.data.tolist() == [[2**31 - 1, -(2**31), -(2**31)]]
    with pytest.raises(OverflowTrap, match=r"^sum 2147483648 at \(0, 0\)"):
        align_add(DenseMatrix(np.array([[2**30]]), 32, 0), DenseMatrix(np.array([[0]]), 32, 1))


def test_blocked_overflow_names_its_entry():
    # the kernels check a block at a time; the position is the whole grid's
    wide = 1 << 17  # two blocks of rows, or of output columns, of 2**16 entries
    x = DenseMatrix(np.array([[0], [1]]), 32, 0)
    w = np.ones((1, wide), np.int64)
    w[0, 70000] = 2**31
    with pytest.raises(OverflowTrap, match=r"^accumulator 2147483648 at \(0, 70000\)"):
        sdmm_reference(csr_raw([[1]], bits=32, frac=0), DenseMatrix(w, 33, 0))
    with pytest.raises(OverflowTrap, match=r"^accumulator 2147483648 at \(1, 70000\)"):
        dmm_reference(x, DenseMatrix(w, 33, 0))
    a = np.zeros((2, wide), np.int64)
    a[1, 5] = 2**31 - 1
    with pytest.raises(OverflowTrap, match=r"^sum 2147483648 at \(1, 5\)"):
        align_add(DenseMatrix(a, 32, 0), DenseMatrix(np.ones((2, wide), np.int64), 32, 0))


def test_real_reference_zero_error_without_requantize_effects():
    # one layer, tiny magnitudes: the requantize scale covers everything the
    # layer produced, so sim output dequantizes to the exact real result
    a = path3_adjacency()
    x0 = csr_raw([[1, 0], [0, 1], [1, 1]])
    model = make_gcn([dense_raw([[1, 1], [1, -1]])])
    res = verify(model, a, x0, config_for_tile(2, 16))
    assert res["exact_match"]
    assert res["max_abs_err"] == 0.0
    assert res["argmax_agreement"] == 1.0


def test_real_reference_matches_dense_float_product():
    # the CSR aggregation against the dense float product it replaces, on a
    # graph with isolated nodes, for every adjacency mode and both x0 forms
    bundle = gen_powerlaw(60, 2, 2.1, seed=9, n_features=6, feature_density=0.3)
    adj = bundle.adjacency
    assert (adj.row_nnz() == 0).any()
    ws = random_weights([6, 5, 3], seed=4)
    cases = [(make_gcn(ws, "binary"), normalize_adjacency(adj, "binary")),
             (make_gcn(ws, "sym_norm"), normalize_adjacency(adj, "sym_norm")),
             (make_graphsage(list(zip(ws, random_weights([6, 5, 3], seed=5)))),
              mean_adjacency(adj))]
    for model, a in cases:
        dense = to_dense(a).data
        if model.adjacency_mode == "mean":
            a_real = (dense != 0) / np.maximum(a.row_nnz(), 1)[:, None]
        elif a.frac_bits:
            a_real = dequantize(to_dense(a))
        else:
            a_real = (dense != 0).astype(float)
        x = dequantize(to_dense(bundle.features))
        for i, layer in enumerate(model.layers):
            y = a_real @ (x @ dequantize(layer.weight))
            if model.kind == KIND_SAGE:
                y = x @ dequantize(layer.weight_self) + y
            x = np.maximum(y, 0.0) if i < len(model.layers) - 1 else y
        for x0 in (bundle.features, to_dense(bundle.features)):
            got = real_reference(model, a, x0)
            assert got.shape == x.shape
            assert np.abs(got - x).max() <= 1e-12


def test_real_reference_reads_sparse_and_dense_features_alike():
    # sparse features are scattered straight into float64: bit for bit the
    # grid dequantize gives, for the GCN and the GraphSAGE walk
    bundle = gen_powerlaw(80, 3, 2.1, seed=2, n_features=7, feature_density=0.4)
    ws = random_weights([7, 5, 3], seed=6)
    for model, a in ((make_gcn(ws, "sym_norm"), normalize_adjacency(bundle.adjacency, "sym_norm")),
                     (make_graphsage(list(zip(ws, random_weights([7, 5, 3], seed=8)))),
                      mean_adjacency(bundle.adjacency))):
        got = real_reference(model, a, bundle.features)
        assert np.array_equal(got, real_reference(model, a, to_dense(bundle.features)))


def test_run_report_refuses_a_step_from_another_array():
    x = csr_raw([[1, 0], [0, 1], [1, 1]])
    plan = compile_plan(x, config_for_tile(4, 16))
    _, rep = simulate_step(plan, dense_raw([[1, 1], [1, -1]]))
    run = RunReport(config_for_tile(8, 16))
    with pytest.raises(ValueError, match="'layer0.combine' ran on 4 PEs, the run's array has 8"):
        run.add("layer0.combine", rep)
    assert run.steps == []
    RunReport(plan.cfg).add("layer0.combine", rep)


def test_sparse_paths_peak_linear_in_nonzeros_at_200k_nodes():
    # an n x n float grid here would need 320 GB; the budget is linear in
    # nnz + nodes x features, with >= 2x headroom over the measured peaks
    # (about 23 B per unit for sym_norm and 29-31 B for real_reference)
    n, feats = 200_000, 16
    bundle = gen_powerlaw(n, 4, 2.1, seed=5, n_features=feats, feature_density=0.1)
    ws = random_weights([feats, 16, 4], seed=1)

    a, sym_peak = traced_peak(normalize_adjacency, bundle.adjacency, "sym_norm")
    budget = 64 * (a.nnz + n * feats)
    assert sym_peak <= budget, f"sym_norm peak {sym_peak} B over {budget} B"
    _, gcn_peak = traced_peak(lambda: real_reference(make_gcn(ws, "sym_norm"), a,
                                                     bundle.features))
    assert gcn_peak <= budget, f"real_reference peak {gcn_peak} B over {budget} B"
    sage = make_graphsage(list(zip(ws, random_weights([feats, 16, 4], seed=2))))
    mean = mean_adjacency(bundle.adjacency)
    _, sage_peak = traced_peak(real_reference, sage, mean, bundle.features)
    assert sage_peak <= budget, f"real_reference peak {sage_peak} B over {budget} B"
