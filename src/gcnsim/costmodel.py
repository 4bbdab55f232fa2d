"""Analytic op and storage costs for the two evaluation orders of a GCN stack.

A two-layer network Y = A relu(A X W1) W2 can multiply combination-first,
A @ (X @ W), keeping the small dense X@W intermediate, or aggregation-first,
(A @ X) @ W, materializing a wide sparse product. The combination-first cost
has a closed form; the aggregation-first cost is counted by symbolic
zero-skipping execution on real operands because no closed form survives
contact with the intermediate's fill-in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import SparseMatrixCSR

MIBIT = 1 << 20


@dataclass(frozen=True)
class CostReport:
    ops: int                # multiply-accumulate count, both layers
    intermediate_bits: int  # storage for the first product's result

    @property
    def intermediate_mibit(self) -> float:
        return self.intermediate_bits / MIBIT


@dataclass(frozen=True)
class DatasetShape:
    """Published citation-graph dimensions used for cost reporting."""

    nodes: int
    in_feats: int
    hidden: int
    classes: int
    nnz_features: int
    nnz_adjacency: int  # directed edge count, no self loops


DATASETS = {
    "cora": DatasetShape(2708, 1433, 16, 7, 49216, 10556),
    # feature nnz reconstructed from the published 0.85% density
    "citeseer": DatasetShape(3327, 3703, 16, 6, 104719, 9104),
    "pubmed": DatasetShape(19717, 500, 16, 3, 985850, 88648),
}


def _check_counts(**counts: int) -> None:
    for name, v in counts.items():
        if v <= 0:
            raise ValueError(f"{name} must be positive, got {v}")


def combine_first_cost(m: int, hidden: int, classes: int, nnz_x: int,
                       nnz_a: int) -> CostReport:
    """MACs and first-intermediate storage bits for a two-layer network run
    combination-first.

    Layer 1 multiplies the sparse features into the weights (nnz_x * hidden
    MACs) then aggregates (nnz_a * hidden); layer 2 is dense (m * hidden *
    classes) plus aggregation (nnz_a * classes). The stored X@W intermediate
    is a dense m x hidden grid of 16-bit values.
    """
    _check_counts(m=m, hidden=hidden, classes=classes, nnz_x=nnz_x, nnz_a=nnz_a)
    ops = nnz_x * hidden + nnz_a * hidden + m * hidden * classes + nnz_a * classes
    return CostReport(ops, m * hidden * 16)


def dataset_cost(name: str) -> CostReport:
    """Combination-first cost at a published dataset's shape."""
    d = DATASETS[name]
    return combine_first_cost(d.nodes, d.hidden, d.classes, d.nnz_features, d.nnz_adjacency)


def symbolic_product_cost(a: SparseMatrixCSR, x: SparseMatrixCSR) -> tuple[int, int]:
    """Zero-skipping MAC count and structural nnz of the product a @ x."""
    if a.cols != x.rows:
        raise ValueError("inner dimensions differ")
    x_row_nnz = x.row_nnz()
    macs = int(x_row_nnz[a.col_idx].sum())
    nnz_out = 0
    for i in range(a.rows):
        s, e = a.row_ptr[i], a.row_ptr[i + 1]
        if e == s:
            continue
        pieces = [x.col_idx[x.row_ptr[j]:x.row_ptr[j + 1]] for j in a.col_idx[s:e]]
        cat = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        if len(cat):
            nnz_out += len(np.unique(cat))
    return macs, nnz_out


def aggregate_first_cost(adjacency: SparseMatrixCSR, features: SparseMatrixCSR,
                         hidden: int, classes: int) -> CostReport:
    """MACs and first-intermediate storage bits for a two-layer network run
    aggregation-first, counted on the actual operands (module docstring)."""
    _check_counts(hidden=hidden, classes=classes)
    # layer 1: (A @ X) sparse-sparse, then the fill-in times the weights;
    # layer 2 input is dense m x hidden regardless of order
    macs_ax, nnz_ax = symbolic_product_cost(adjacency, features)
    m = adjacency.rows
    ops = macs_ax + nnz_ax * hidden          # layer 1
    ops += adjacency.nnz * hidden + m * hidden * classes  # layer 2: A @ H1, then @ W2
    return CostReport(ops, nnz_ax * 16)
