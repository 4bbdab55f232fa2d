"""Acceptance gates: ten end-to-end checks over the whole stack.

Each test prints a PASS/FAIL line and registers it with conftest so a
full run ends with the scorecard in the terminal summary. Checks that
need an oracle recompute it here from scratch instead of trusting the
library's own bookkeeping.
"""

import functools
import time
import tracemalloc

import numpy as np
import pytest

from gcnsim.costmodel import DATASETS, dataset_cost
from gcnsim.graphs import gen_powerlaw, random_weights
from gcnsim.matrix import (DenseMatrix, SparseMatrixCSR, dmm_reference,
                           normalize_adjacency, sdmm_reference)
from gcnsim.pcoo import (PcooPacket, decode_packet, deserialize_stream,
                         encode_packet, make_header, serialize_stream)
from gcnsim.report import report_document
from gcnsim.runtime import make_gcn, references, run_model, verify_against_oracle
from gcnsim.schedule import (ArchConfig, assign_rows, build_sdmm_schedule,
                             config_for_tile, stall_collisions, tile_columns)
from gcnsim.simulator import compile_plan, simulate_step

ACCEPTANCE_RESULTS: list = []

KS = (2, 4, 8, 16)
GROUPS = (2, 4, 8, 32)


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"FAIL criterion {num}: {title}"
                ACCEPTANCE_RESULTS.append(line)
                print(line)
                raise
            line = f"PASS criterion {num}: {title}"
            ACCEPTANCE_RESULTS.append(line)
            print(line)
        return wrapper
    return deco


def random_sparse(rng, rows, cols, density, value_bits):
    """Random CSR operand; binary values when the packet carries none."""
    mask = rng.random((rows, cols)) < density
    rr, cc = np.nonzero(mask)
    if value_bits == 0:
        vv = np.ones(len(rr), dtype=np.int64)
    else:
        vv = rng.integers(-8, 8, len(rr))
        vv[vv == 0] = 1
    return SparseMatrixCSR.from_coo(rows, cols, rr, cc, vv, 4, 0)


def random_arch(rng):
    """A random array and the packet value width of the operand it gets."""
    k = int(rng.choice(KS))
    r = int(rng.choice([d for d in (1, 2, 4, 8, 16) if k % d == 0]))
    g = int(rng.choice(GROUPS))
    h = int(rng.choice([0, 4]))
    return ArchConfig(k, lanes=16, replicas=r, groups=g), h


def census_identity(report):
    """Recount every slot class by hand and balance it against the clock."""
    c = report.census
    k = c.pe_count
    slots = c.valid + c.empty_row + c.stall_idle + c.pad_idle
    assert slots.shape == (k,)
    assert (slots == report.compute_cycles).all(), (
        f"per-PE slots {slots.tolist()} != compute cycles {report.compute_cycles}")
    assert report.total_cycles == (report.load_cycles + report.compute_cycles
                                   + report.move_cycles)


@criterion(1, "simulator integer-identical to the reference on random configs")
def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    for trial in range(200):
        m = int(rng.integers(4, 513))
        n = int(rng.integers(4, 513))
        p = int(rng.integers(1, 33))
        density = 10.0 ** rng.uniform(-3, -1)
        cfg, h = random_arch(rng)
        x = random_sparse(rng, m, n, density, h)
        w = DenseMatrix(rng.integers(-8, 8, (n, p)), 4, 0)
        y, report = simulate_step(compile_plan(x, cfg), w)
        ref = sdmm_reference(x, w)
        assert y.frac_bits == ref.frac_bits
        assert np.array_equal(y.data, ref.data), f"SDMM mismatch on trial {trial}"
        census_identity(report)
    for trial in range(25):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(1, 49))
        p = int(rng.integers(1, 33))
        cfg, _ = random_arch(rng)
        xd = DenseMatrix(rng.integers(-8, 8, (m, n)), 4, 0)
        w = DenseMatrix(rng.integers(-8, 8, (n, p)), 4, 0)
        y, report = simulate_step(compile_plan(xd, cfg), w)
        ref = dmm_reference(xd, w)
        assert np.array_equal(y.data, ref.data), f"DMM mismatch on trial {trial}"
        census_identity(report)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"equivalence sweep took {elapsed:.1f}s"


@criterion(2, "published per-dataset op and storage costs reproduced")
def test_criterion_02_published_cost_table():
    published = {
        "cora": (1.33e6, 0.661),
        "citeseer": (2.23e6, 0.812),
        "pubmed": (18.6e6, 4.81),
    }
    for name, (ops, mibit) in published.items():
        assert name in DATASETS
        rep = dataset_cost(name)
        assert abs(rep.ops - ops) / ops <= 0.05, (
            f"{name}: {rep.ops} ops vs published {ops}")
        assert abs(rep.intermediate_mibit - mibit) / mibit <= 0.01, (
            f"{name}: {rep.intermediate_mibit} Mibit vs published {mibit}")


@criterion(3, "collision stalls are legal and conservative on random tiles")
def test_criterion_03_schedule_legality():
    rng = np.random.default_rng(3141)
    for trial in range(1000):
        cfg, h = random_arch(rng)
        rows = int(rng.integers(1, 41))
        tile = random_sparse(rng, rows, cfg.tile_width,
                             10.0 ** rng.uniform(-2.3, -0.8), h)
        pre = assign_rows(tile, cfg.pe_count)
        post = stall_collisions(pre, cfg)
        # grant legality, recounted from the raw arrays: within one replica
        # group and one cycle, every granted packet in a bank shares one address
        width = cfg.group_width
        for cyc in range(post.cycles):
            for base in range(0, cfg.pe_count, width):
                claimed = {}
                for pe in range(base, base + width):
                    if not post.vld[cyc, pe]:
                        continue
                    addr = int(post.col[cyc, pe])
                    bank = addr % cfg.groups
                    if bank in claimed:
                        assert claimed[bank] == addr, (
                            f"trial {trial} cycle {cyc}: bank {bank} granted "
                            f"{claimed[bank]} and {addr}")
                    else:
                        claimed[bank] = addr
        # conservativeness: dropping idle slots from both schedules leaves
        # identical per-PE packet streams
        for pe in range(cfg.pe_count):
            def live(s):
                keep = (s.vld[:, pe] == 1) | (s.sor[:, pe] == 1) | (s.eor[:, pe] == 1)
                return [tuple(arr[c, pe] for arr in (s.sor, s.eor, s.vld, s.col,
                                                     s.value))
                        for c in np.nonzero(keep)[0]]
            assert live(post) == live(pre), f"trial {trial}: PE {pe} stream changed"


@criterion(4, "packet codec and stream container round-trip exactly")
def test_criterion_04_codec_round_trip():
    # exhaustive code space at the small geometry: 3 flags + 3 col + 4 value
    for code in range(1 << 10):
        assert encode_packet(decode_packet(code, 8, 4), 8, 4) == code
    # exhaustive well-formed packets at the same geometry
    for sor in (0, 1):
        for eor in (0, 1):
            for vld in (0, 1):
                for col in range(8):
                    for val in (range(-8, 8) if vld else (0,)):
                        p = PcooPacket(sor, eor, vld, col, val)
                        assert decode_packet(encode_packet(p, 8, 4), 8, 4) == p
    # randomized sweep at the deployed geometry
    rng = np.random.default_rng(44)
    for _ in range(2000):
        code = int(rng.integers(0, 1 << 16))
        assert encode_packet(decode_packet(code, 512, 4), 512, 4) == code
        p = PcooPacket(int(rng.integers(0, 2)), int(rng.integers(0, 2)), 1,
                       int(rng.integers(0, 512)), int(rng.integers(-8, 8)))
        assert decode_packet(encode_packet(p, 512, 4), 512, 4) == p
    # container round trips on whole schedules
    for trial in range(100):
        cfg, h = random_arch(rng)
        rows = int(rng.integers(1, 33))
        tile = random_sparse(rng, rows, cfg.tile_width,
                             10.0 ** rng.uniform(-2.5, -1), h)
        sched = build_sdmm_schedule(tile, cfg)
        header = make_header(cfg.tile_width, h, cfg.pe_count,
                             sched.cycles)
        back_header, back = deserialize_stream(serialize_stream(sched, cfg.tile_width, h))
        assert back_header == header
        for name in ("sor", "eor", "vld", "col", "value"):
            assert np.array_equal(getattr(back, name), getattr(sched, name)), \
                f"trial {trial}: stream changed {name}"


@functools.lru_cache(maxsize=1)
def trend_workload():
    bundle = gen_powerlaw(4096, 4, 2.1, seed=1, n_features=512,
                          feature_density=0.10)
    a = normalize_adjacency(bundle.adjacency, "binary")
    model = make_gcn(random_weights([512, 16, 4], seed=2))
    return model, a, bundle.features


def sdmm_cycles(model, a, x0, cfg):
    _, report = run_model(model, a, x0, cfg)
    for _, step in report.steps:
        census_identity(step)
    return report_document(report)["sdmm"]["compute_cycles"]


@criterion(5, "replication monotonically cuts SDMM cycles, >=15% at r=8")
def test_criterion_05_replication_trend():
    t0 = time.perf_counter()
    model, a, x0 = trend_workload()
    cycles = [sdmm_cycles(model, a, x0, config_for_tile(32, 512, replicas=r))
              for r in (1, 2, 4, 8)]
    assert all(c0 >= c1 for c0, c1 in zip(cycles, cycles[1:])), cycles
    reduction = 1 - cycles[-1] / cycles[0]
    assert reduction >= 0.15, f"r=8 cut {reduction:.2%} < 15% ({cycles})"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0, f"replica sweep took {elapsed:.1f}s"


@criterion(6, "larger tiles monotonically cut SDMM cycles, within 0..70%")
def test_criterion_06_tile_size_trend():
    model, a, x0 = trend_workload()
    cycles = [sdmm_cycles(model, a, x0, config_for_tile(32, t, replicas=1))
              for t in (512, 1024, 2048, 4096)]
    assert all(c0 >= c1 for c0, c1 in zip(cycles, cycles[1:])), cycles
    reduction = 1 - cycles[-1] / cycles[0]
    assert 0.0 <= reduction <= 0.70, f"tile growth cut {reduction:.2%} ({cycles})"


@criterion(7, "slot census balances the clock on every simulation")
def test_criterion_07_accounting_identity():
    rng = np.random.default_rng(777)
    for _ in range(40):
        cfg, h = random_arch(rng)
        m = int(rng.integers(2, 257))
        n = int(rng.integers(2, 257))
        x = random_sparse(rng, m, n, 10.0 ** rng.uniform(-2, -1), h)
        w = DenseMatrix(rng.integers(-8, 8, (n, int(rng.integers(1, 33)))), 4, 0)
        _, report = simulate_step(compile_plan(x, cfg), w)
        census_identity(report)
    for _ in range(10):
        bundle = gen_powerlaw(128, 3, 2.5, seed=int(rng.integers(1 << 30)),
                              n_features=24, feature_density=0.15)
        a = normalize_adjacency(bundle.adjacency, "binary")
        model = make_gcn(random_weights([24, 12, 5], seed=int(rng.integers(1 << 30))))
        _, report = run_model(model, a, bundle.features, config_for_tile(8, 512))
        for _, step in report.steps:
            census_identity(step)
        assert report.total_cycles() == sum(s.total_cycles for _, s in report.steps)


@criterion(8, "dense mode never stalls or pads when K divides the rows")
def test_criterion_08_dmm_degenerate():
    rng = np.random.default_rng(88)
    for k in (2, 4, 8, 16):
        for mult in (1, 3, 7):
            m = k * mult
            n = int(rng.integers(1, 40))
            p = int(rng.integers(1, 33))
            x = DenseMatrix(rng.integers(-8, 8, (m, n)), 4, 0)
            w = DenseMatrix(rng.integers(-8, 8, (n, p)), 4, 0)
            _, report = simulate_step(compile_plan(x, ArchConfig(k)), w)
            assert report.census.stall_idle.sum() == 0, f"K={k} m={m}: dense stalls"
            assert report.census.pad_idle.sum() == 0, f"K={k} m={m}: dense pads"
            census_identity(report)
    # contrast: a ragged row count must show up as imbalance, not vanish
    x = DenseMatrix(rng.integers(-8, 8, (9, 8)), 4, 0)
    w = DenseMatrix(rng.integers(-8, 8, (8, 4)), 4, 0)
    _, report = simulate_step(compile_plan(x, ArchConfig(4)), w)
    assert report.census.pad_idle.sum() > 0


def preprocess_graph(a, cfg):
    total = 0
    for tile in tile_columns(a, cfg.tile_width):
        total += build_sdmm_schedule(tile, cfg).cycles
    return total


def fit_r2(x, y):
    coeff = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeff, x)
    return 1.0 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)


@criterion(9, "preprocessing time and memory scale linearly in nonzeros")
def test_criterion_09_preprocessing_linearity():
    # one tile pass per graph, tile sized to the operand, so the packet
    # stream (and with it the claim under test) grows with nnz alone
    sizes = []
    for target in (10_000, 100_000, 1_000_000):
        n = target // 4
        a = gen_powerlaw(n, 4, 2.1, seed=3, n_features=4,
                         feature_density=0.1).adjacency
        tile_width = 4096
        while tile_width < n:
            tile_width *= 2
        cfg = config_for_tile(16, tile_width)
        best = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            preprocess_graph(a, cfg)
            best = min(best, time.perf_counter() - t0)
        tracemalloc.start()
        preprocess_graph(a, cfg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        sizes.append((a.nnz, best, peak))
    nnz = np.array([s[0] for s in sizes], dtype=float)
    seconds = np.array([s[1] for s in sizes])
    peaks = np.array([s[2] for s in sizes], dtype=float)
    assert fit_r2(nnz, seconds) >= 0.98, f"time fit {fit_r2(nnz, seconds):.4f}"
    assert fit_r2(nnz, peaks) >= 0.98, f"memory fit {fit_r2(nnz, peaks):.4f}"
    for (n0, t0, _), (n1, t1, _) in zip(sizes, sizes[1:]):
        assert t1 / t0 <= 1.2 * (n1 / n0), (
            f"time grew {t1 / t0:.2f}x over {n1 / n0:.2f}x nonzeros")


@criterion(10, "quantized pipeline matches real-arithmetic argmax >=99%")
def test_criterion_10_quantized_accuracy():
    agree_nodes = 0
    total_nodes = 0
    cfg = config_for_tile(16, 512)
    for i in range(100):
        bundle = gen_powerlaw(256, 4, 2.1, seed=i, n_features=32,
                              feature_density=0.1)
        a = normalize_adjacency(bundle.adjacency, "binary")
        model = make_gcn(random_weights([32, 16, 4], seed=1000 + i))
        stats = verify_against_oracle(*run_model(model, a, bundle.features, cfg),
                                      references(model, a, bundle.features))
        assert stats["exact_match"], f"graph {i}: simulator drifted from oracle"
        agree_nodes += round(stats["argmax_agreement"] * 256)
        total_nodes += 256
    agreement = agree_nodes / total_nodes
    assert agreement >= 0.99, f"pooled argmax agreement {agreement:.4%}"
