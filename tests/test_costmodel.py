"""Cost model: closed form, symbolic execution, and published-table checks."""

import numpy as np
import pytest

from gcnsim.costmodel import (
    DATASETS,
    CostReport,
    aggregate_first_cost,
    combine_first_cost,
    dataset_cost,
    symbolic_product_cost,
)
from gcnsim.matrix import SparseMatrixCSR

# published two-layer costs for the combination-first order:
# (ops, intermediate Mibit)
PUBLISHED = {
    "cora": (1.33e6, 0.661),
    "citeseer": (2.23e6, 0.812),
    "pubmed": (18.6e6, 4.81),
}


def sparse_with_nnz(rng, rows, cols, nnz):
    flat = rng.choice(rows * cols, size=min(nnz, rows * cols), replace=False)
    raw = np.zeros(rows * cols, dtype=np.int64)
    raw[flat] = 1
    return SparseMatrixCSR.from_dense_raw(raw.reshape(rows, cols), 4, 0)


def test_closed_form_hand_computed():
    r = combine_first_cost(m=2, hidden=3, classes=2, nnz_x=4, nnz_a=5)
    assert r.ops == 4 * 3 + 5 * 3 + 2 * 3 * 2 + 5 * 2 == 49
    assert r.intermediate_bits == 2 * 3 * 16 == 96
    assert r.intermediate_mibit == 96 / 2**20


def test_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        combine_first_cost(2, 0, 2, 4, 5)
    with pytest.raises(ValueError):
        combine_first_cost(2, 3, 2, 4, -1)
    eye = SparseMatrixCSR.from_dense_raw(np.eye(2, dtype=np.int64), 4, 0)
    with pytest.raises(ValueError):
        aggregate_first_cost(eye, eye, 3, 0)


def test_published_table_within_tolerance():
    for name, (ops_pub, mibit_pub) in PUBLISHED.items():
        r = dataset_cost(name)
        assert abs(r.ops / ops_pub - 1) <= 0.05, (name, r.ops)
        assert abs(r.intermediate_mibit / mibit_pub - 1) <= 0.01, (name, r.intermediate_mibit)


def test_symbolic_product_hand_trace():
    a = SparseMatrixCSR.from_dense_raw(np.array([[1, 1], [0, 1]]), 4, 0)
    x = SparseMatrixCSR.from_dense_raw(np.array([[1, 0], [1, 1]]), 4, 0)
    macs, nnz_out = symbolic_product_cost(a, x)
    assert macs == 5   # row 0 touches X rows 0 (1 nz) and 1 (2 nz); row 1 touches row 1
    assert nnz_out == 4


def test_symbolic_product_matches_brute_force():
    rng = np.random.default_rng(43)
    for _ in range(25):
        m = int(rng.integers(1, 25))
        p = int(rng.integers(1, 25))
        n = int(rng.integers(1, 25))
        ad = (rng.random((m, p)) < 0.2).astype(np.int64)
        xd = (rng.random((p, n)) < 0.2).astype(np.int64)
        a = SparseMatrixCSR.from_dense_raw(ad, 4, 0)
        x = SparseMatrixCSR.from_dense_raw(xd, 4, 0)
        macs, nnz_out = symbolic_product_cost(a, x)
        # brute force: count contributing pairs and surviving positions
        expect_macs = sum(int(ad[i, j]) and int(xd[j, k])
                          for i in range(m) for j in range(p) for k in range(n))
        assert macs == expect_macs
        assert nnz_out == int(np.count_nonzero(ad @ xd))


def test_combine_first_beats_aggregate_first_on_dataset_shapes():
    # the ordering claim should hold at the published shapes and densities
    rng = np.random.default_rng(47)
    for name, d in DATASETS.items():
        # sample adjacency pairs with replacement then dedupe (web-scale choice
        # without replacement over nodes^2 cells is wasteful)
        r = rng.integers(0, d.nodes, size=int(d.nnz_adjacency * 1.2))
        c = rng.integers(0, d.nodes, size=int(d.nnz_adjacency * 1.2))
        a = SparseMatrixCSR.from_coo(d.nodes, d.nodes, r, c,
                                     np.ones(len(r), dtype=np.int64), 4, 0)
        x = sparse_with_nnz(rng, d.nodes, d.in_feats, d.nnz_features)
        combine = combine_first_cost(d.nodes, d.hidden, d.classes, x.nnz, a.nnz)
        aggregate = aggregate_first_cost(a, x, d.hidden, d.classes)
        assert combine.ops < aggregate.ops, name
        assert isinstance(aggregate, CostReport)
