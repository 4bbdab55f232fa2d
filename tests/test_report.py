"""Report documents: ideal-latency math, persistence, rendering."""

import numpy as np
import pytest

from gcnsim.graphs import gen_powerlaw, random_weights
from gcnsim.matrix import DenseMatrix, SparseMatrixCSR, normalize_adjacency
from gcnsim.report import (
    IDLE_BENCHMARK,
    REPORT_VERSION,
    ReportFormatError,
    ideal_cycles,
    read_report,
    render_report,
    report_document,
    write_report,
)
from gcnsim.runtime import (
    RunReport,
    make_gcn,
    make_graphsage,
    mean_adjacency,
    references,
    run_model,
    verify_against_oracle,
)
from gcnsim.schedule import ArchConfig, config_for_tile
from gcnsim.simulator import compile_plan, simulate_step


def banked_tile(nnz_per_row, pe_count, width=512, groups=32):
    """CSR tile whose row i only touches bank i % pe_count.

    Each PE's fetches stay in a private bank, so the collision pass never
    stalls and compute cycles equal the longest concatenated load.
    """
    rows = len(nnz_per_row)
    cols, rr = [], []
    for i, k in enumerate(nnz_per_row):
        for j in range(k):
            rr.append(i)
            cols.append((i % pe_count) + groups * j)
    assert max(cols, default=0) < width
    return SparseMatrixCSR.from_coo(rows, width, np.array(rr), np.array(cols),
                                    np.ones(len(cols), dtype=np.int64), 4, 0)


def one_step_report(tile, pe_count):
    w = DenseMatrix(np.ones((tile.cols, 16), dtype=np.int64), 4, 3)
    cfg = ArchConfig(pe_count)
    _, rep = simulate_step(compile_plan(tile, cfg), w)
    run = RunReport(cfg)
    run.add("step", rep)
    return report_document(run)


def test_ideal_cycles_rounds_up():
    assert ideal_cycles(0, 4) == 0
    assert ideal_cycles(11, 4) == 3
    assert ideal_cycles(12, 4) == 3
    assert ideal_cycles(13, 4) == 4
    with pytest.raises(ValueError):
        ideal_cycles(-1, 4)
    with pytest.raises(ValueError):
        ideal_cycles(1, 0)


def test_efficiency_hand_counts():
    # 11 nonzeros concatenated to loads (5,2,2,2): ideal 3 of 5 cycles
    doc = one_step_report(banked_tile([3, 1, 1, 1, 2, 1, 1, 1], 4), 4)
    sd = doc["sdmm"]
    assert sd["compute_cycles"] == 5
    assert sd["work"] == 11
    assert sd["ideal_cycles"] == 3
    assert sd["efficiency"] == pytest.approx(3 / 5)
    # heavier tile, loads (11,7,7,7) over 32 nonzeros: ideal 8 of 11 cycles
    doc = one_step_report(banked_tile([6, 4, 4, 4, 5, 3, 3, 3], 4), 4)
    sd = doc["sdmm"]
    assert sd["compute_cycles"] == 11
    assert sd["work"] == 32
    assert sd["ideal_cycles"] == 8
    assert sd["efficiency"] == pytest.approx(8 / 11)
    assert sd["slots"]["collision"] == 0


def test_fully_utilized_schedule_scores_one():
    doc = one_step_report(banked_tile([2, 2, 2, 2], 4), 4)
    assert doc["sdmm"]["efficiency"] == pytest.approx(1.0)
    assert doc["sdmm"]["worst_idle_fraction"] == 0.0
    assert doc["sdmm"]["idle_under_benchmark"]


def test_efficiency_bounded_on_random_runs():
    rng = np.random.default_rng(17)
    for _ in range(12):
        k = int(rng.choice([2, 4, 8]))
        rows = int(rng.integers(1, 30))
        grid = np.where(rng.random((rows, 64)) < 0.2, 1, 0)
        tile = SparseMatrixCSR.from_dense_raw(grid, 4, 0)
        doc = one_step_report(tile, k)
        sd = doc["sdmm"]
        slots = sd["slots"]
        total = sum(slots.values())
        assert total == sd["compute_cycles"] * k
        if sd["work"]:
            assert 0.0 < sd["efficiency"] <= 1.0
        assert 0.0 <= sd["worst_idle_fraction"] <= 1.0
        assert sd["idle_under_benchmark"] == (sd["worst_idle_fraction"] < IDLE_BENCHMARK)


def test_document_totals_and_verify_block():
    rng = np.random.default_rng(5)
    x0 = SparseMatrixCSR.from_dense_raw(rng.integers(-8, 8, (6, 4)), 4, 3)
    adj = SparseMatrixCSR.from_dense_raw((rng.random((6, 6)) < 0.4).astype(int), 4, 0)
    model = make_gcn([DenseMatrix(rng.integers(-8, 8, (4, 3)), 4, 3)])
    cfg = config_for_tile(2, 16)
    logits, run = run_model(model, adj, x0, cfg)
    verify = verify_against_oracle(logits, run, references(model, adj, x0))
    doc = report_document(run, label="tiny", verify=verify)
    assert doc["label"] == "tiny"
    assert doc["phases"]["total_cycles"] == run.total_cycles()
    assert doc["phases"]["compute_cycles"] == sum(r.compute_cycles for _, r in run.steps)
    assert len(doc["steps"]) == len(run.steps)
    assert doc["verify"]["exact_match"] is True
    assert doc["config"]["tile_width"] == 16
    assert doc["sdmm"]["compute_cycles"] > 0


def test_each_configs_document_names_its_own_array():
    # a sweep's documents: the config block is the run's own, so pe_count is
    # the length of every per-PE list and tile_width the steps' tiling
    bundle = gen_powerlaw(96, 3, 2.1, seed=29, n_features=40)
    model = make_gcn(random_weights([40, 8, 4], seed=3))
    a = normalize_adjacency(bundle.adjacency, "binary")
    for pe, tile, replicas in ((2, 16, 1), (4, 32, 2), (8, 64, 1), (16, 128, 4)):
        cfg = config_for_tile(pe, tile, replicas=replicas)
        _, run = run_model(model, a, bundle.features, cfg)
        doc = report_document(run)
        assert doc["config"]["pe_count"] == pe and doc["config"]["tile_width"] == tile
        assert doc["config"]["replicas"] == replicas
        lists = [*doc["sdmm"]["per_pe"].values(), doc["sdmm"]["idle_fraction"]]
        lists += [v for step in doc["steps"] for v in step["per_pe"].values()]
        assert {len(v) for v in lists} == {pe}


def test_sdmm_block_sums_the_sparse_steps():
    # two-layer GraphSAGE: layer 1 combines a dense operand (DMM), so its
    # self and neighbor combinations stay out of the sdmm block
    bundle = gen_powerlaw(48, 3, 2.1, seed=23, n_features=12)
    dims = [12, 8, 4]
    model = make_graphsage(list(zip(random_weights(dims, seed=1),
                                    random_weights(dims, seed=2))))
    cfg = config_for_tile(4, 16, lanes=4)
    _, run = run_model(model, mean_adjacency(bundle.adjacency), bundle.features, cfg)
    doc = report_document(run)
    steps, sd = doc["steps"], doc["sdmm"]
    assert [s["label"] for s in steps if s["mode"] == "dmm"] == \
        ["layer1.self", "layer1.neigh_combine"]
    sparse = [s for s in steps if s["mode"] == "sdmm"]
    assert len(sparse) == 4
    step_key = {"valid": "compute", "empty_row": "empty_row",
                "collision": "collision", "imbalance": "imbalance"}
    assert set(sd["per_pe"]) == set(step_key)
    for key, name in step_key.items():
        summed = np.sum([s["per_pe"][name] for s in sparse], axis=0)
        assert sd["per_pe"][key] == summed.tolist()
        assert sd["slots"][key] == sum(sd["per_pe"][key])
    assert sd["compute_cycles"] == sum(s["compute_cycles"] for s in sparse)
    assert sd["slots"]["collision"] + sd["slots"]["imbalance"] > 0
    for key in ("load_cycles", "compute_cycles", "move_cycles", "total_cycles"):
        assert doc["phases"][key] == sum(s[key] for s in steps)


def test_dmm_only_run_has_no_sparse_block_numbers():
    x = DenseMatrix(np.ones((4, 8), dtype=np.int64), 16, 0)
    w = DenseMatrix(np.ones((8, 16), dtype=np.int64), 4, 0)
    cfg = config_for_tile(2, 16)
    _, rep = simulate_step(compile_plan(x, cfg), w)
    run = RunReport(cfg)
    run.add("dense", rep)
    doc = report_document(run)
    assert doc["sdmm"]["efficiency"] is None
    assert doc["sdmm"]["work"] == 0


def test_report_file_round_trip(tmp_path):
    doc = one_step_report(banked_tile([2, 1], 2), 2)
    path = tmp_path / "run.json"
    write_report(doc, path)
    back = read_report(path)
    assert back == doc


def test_read_report_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(ReportFormatError):
        read_report(p)
    p.write_text("[1, 2]")
    with pytest.raises(ReportFormatError):
        read_report(p)
    p.write_text('{"version": 1}')
    with pytest.raises(ReportFormatError):
        read_report(p)
    doc = one_step_report(banked_tile([1], 1), 1)
    doc["version"] = REPORT_VERSION + 9
    write_report(doc, p)
    with pytest.raises(ReportFormatError):
        read_report(p)


def test_render_mentions_the_numbers_people_look_for():
    tile = banked_tile([3, 1, 1, 1, 2, 1, 1, 1], 4)
    doc = one_step_report(tile, 4)
    text = render_report(doc)
    assert "efficiency 0.6000" in text
    assert "4 PEs" in text
    assert "worst PE idle fraction" in text
    rng = np.random.default_rng(5)
    x0 = SparseMatrixCSR.from_dense_raw(rng.integers(-8, 8, (4, 3)), 4, 3)
    adj = SparseMatrixCSR.from_dense_raw(np.eye(4, dtype=int), 4, 0)
    model = make_gcn([DenseMatrix(rng.integers(-8, 8, (3, 2)), 4, 3)])
    cfg = config_for_tile(2, 16)
    logits, run = run_model(model, adj, x0, cfg)
    verify = verify_against_oracle(logits, run, references(model, adj, x0))
    text = render_report(report_document(run, verify=verify))
    assert "exact_match=True" in text


def test_report_config_drops_the_unsimulated_value_width():
    # SDMM steps always run at their operand's own packet width, so the
    # configured width is not part of the run; older documents carrying
    # it still render
    doc = one_step_report(banked_tile([2, 1], 2), 2)
    assert "value_bits" not in doc["config"]
    assert "H=" not in render_report(doc)
    doc["config"]["value_bits"] = 16
    assert render_report(doc).splitlines()[1].endswith("1 replica(s)")
