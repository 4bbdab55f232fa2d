"""Quantized multi-layer GCN and GraphSAGE inference over the simulator.

A layer runs combination first (X @ W, sparse or dense mode as the operand
dictates) and aggregation second (A @ (XW), always sparse mode). Results are
requantized to 16 bits wherever hardware would park them in a 16-bit memory:
after combination (the product moves to the dense-data memory) and after
each layer (the activation moves to the edge-weight memory). The oracle
backend replays the identical pipeline on the reference kernels, so the two
paths must agree bit for bit; a separate real-arithmetic reference measures
quantization error. Neither reference depends on the array config, so
references() computes both once for any number of configs. A simulated run
plans each left operand once, into one simulator.Plan, where the layer walk
first needs it, for every product with it; one ArchConfig serves every
product, since each sparse operand's packets take their value width from
the operand itself (pcoo.packet_bits_for). A layer applies relu unless
it is the last. The run's RunReport holds that ArchConfig beside its steps.

The layer walk owns each plan and holds only what it can still use: the
adjacency's plan for the run, the current layer input's plan until its
last product, the layer's products, and the simulator's chunk-sized
temporaries. A layer input itself goes once it is planned, since its
plan's packets carry its entries. So the peak does not grow with the
number of layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix import (
    DenseMatrix,
    ShapeError,
    SparseMatrixCSR,
    check_fits,
    dequantize,
    dmm_reference,
    relu,
    requantize16,
    row_blocks,
    sdmm_reference,
    value_dtype,
)
from .schedule import ArchConfig
from .simulator import CycleReport, check_product, compile_plan, simulate_step

KIND_GCN = "gcn"
KIND_SAGE = "graphsage-mean"


@dataclass
class LayerSpec:
    """One layer's weights; GraphSAGE layers add a self block."""

    weight: DenseMatrix
    weight_self: DenseMatrix | None = None


@dataclass
class ModelSpec:
    kind: str
    layers: list
    adjacency_mode: str = "binary"

    def __post_init__(self):
        if self.kind not in (KIND_GCN, KIND_SAGE):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.layers:
            raise ValueError("a model needs at least one layer")
        for i in range(1, len(self.layers)):
            prev, cur = self.layers[i - 1], self.layers[i]
            if prev.weight.cols != cur.weight.rows:
                raise ShapeError(f"layer {i - 1} emits {prev.weight.cols} features "
                                 f"but layer {i} expects {cur.weight.rows}")
        if self.kind == KIND_SAGE:
            for i, layer in enumerate(self.layers):
                if layer.weight_self is None:
                    raise ValueError(f"GraphSAGE layer {i} is missing its self block")
                if layer.weight_self.data.shape != layer.weight.data.shape:
                    raise ShapeError(f"layer {i}: self and neighbor blocks differ in shape")


def make_gcn(weights: list[DenseMatrix], adjacency_mode: str = "binary") -> ModelSpec:
    return ModelSpec(KIND_GCN, [LayerSpec(w) for w in weights], adjacency_mode)


def make_graphsage(weight_pairs: list[tuple[DenseMatrix, DenseMatrix]]) -> ModelSpec:
    return ModelSpec(KIND_SAGE, [LayerSpec(wn, ws) for ws, wn in weight_pairs], "mean")


@dataclass
class RunReport:
    """Labeled per-step cycle reports for one inference on the array cfg."""

    cfg: ArchConfig
    steps: list = field(default_factory=list)

    def add(self, label: str, rep: CycleReport) -> None:
        """Append a step; one simulated on another PE count is a ValueError."""
        if rep.census.pe_count != self.cfg.pe_count:
            raise ValueError(f"step {label!r} ran on {rep.census.pe_count} PEs, "
                             f"the run's array has {self.cfg.pe_count}")
        self.steps.append((label, rep))

    def total_cycles(self) -> int:
        return sum(r.total_cycles for _, r in self.steps)


def mean_adjacency(a: SparseMatrixCSR, frac_bits: int = 14) -> SparseMatrixCSR:
    """Row-normalized adjacency (each stored row scaled by 1/degree).

    Structure is preserved except for weights that round to zero; isolated
    rows simply stay empty. Linear in nnz; a weight is at most 2**frac_bits,
    so the values are built in the dtype that holds it.
    """
    if a.rows != a.cols:
        raise ShapeError("adjacency must be square")
    deg = a.row_nnz().astype(np.float64)
    rr = np.repeat(np.arange(a.rows), a.row_nnz())
    raw = np.round((1.0 / deg[rr]) * (1 << frac_bits))
    raw = raw.astype(value_dtype(16, 0, 1 << frac_bits))
    keep = raw != 0
    counts = np.bincount(rr[keep], minlength=a.rows)
    row_ptr = np.concatenate([[0], np.cumsum(counts)])
    return SparseMatrixCSR(a.rows, a.cols, row_ptr, a.col_idx[keep],
                           raw[keep], 16, frac_bits)


def align_add(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Exact fixed-point add (the coarser operand up-shifted), int64 a block of rows at a time."""
    if a.data.shape != b.data.shape:
        raise ShapeError("cannot add differently shaped matrices")
    f = max(a.frac_bits, b.frac_bits)
    out = np.empty(a.data.shape, np.int32)
    for rs in row_blocks(out.shape):
        part = np.left_shift(a.data[rs], f - a.frac_bits, dtype=np.int64)
        part += np.left_shift(b.data[rs], f - b.frac_bits, dtype=np.int64)
        check_fits(part, 32, "sum", (rs.start, 0))
        out[rs] = part
    return DenseMatrix(out, 32, f)


class _SimEngine:
    """Matrix products through the cycle simulator, reports collected. An
    operand's handle is its Plan, which holds no reference to the matrix, so
    the walk's del drops the matrix once it is planned."""

    def __init__(self, report: RunReport):
        self.report = report

    def operand(self, x):
        return compile_plan(x, self.report.cfg)

    def matmul(self, label: str, plan, w: DenseMatrix) -> DenseMatrix:
        y, rep = simulate_step(plan, w)
        self.report.add(label, rep)
        return y


class _OracleEngine:
    """Same pipeline on the reference kernels; no cycle accounting."""

    def operand(self, x):
        return x

    def matmul(self, label: str, x, w: DenseMatrix) -> DenseMatrix:
        if isinstance(x, SparseMatrixCSR):
            return sdmm_reference(x, w)
        return dmm_reference(x, w)


def _forward(model: ModelSpec, a: SparseMatrixCSR, x, engine) -> DenseMatrix:
    """Shared layer walk so both backends quantize at identical points.

    One pipeline serves both model kinds; GraphSAGE adds the self product
    and sum. The walk owns each plan: it checks the features x and a before
    planning, then plans a for the run and each layer's input at the top of
    its layer, and drops each handle and intermediate after its last use.
    """
    check_product(x, model.layers[0].weight)
    check_product(a, x)
    adjacency = engine.operand(a)
    sage = model.kind == KIND_SAGE
    neigh = "neigh_" if sage else ""
    for i, layer in enumerate(model.layers):
        op = engine.operand(x)
        del x
        if sage:
            self_part = engine.matmul(f"layer{i}.self", op, layer.weight_self)
        xw = engine.matmul(f"layer{i}.{neigh}combine", op, layer.weight)
        del op
        xw16 = requantize16(xw)       # parked in 16-bit dense memory
        del xw
        y = engine.matmul(f"layer{i}.{neigh}aggregate", adjacency, xw16)
        del xw16
        if sage:
            y = align_add(self_part, y)
            del self_part
        if i < len(model.layers) - 1:
            y = relu(y)
        x = requantize16(y)           # parked in 16-bit edge-weight memory
        del y
    return x


def run_model(model: ModelSpec, a: SparseMatrixCSR, x0, cfg: ArchConfig
              ) -> tuple[DenseMatrix, RunReport]:
    """Simulate a GCN or GraphSAGE model on cfg; the layer walk follows
    model.kind, and the returned RunReport holds cfg."""
    report = RunReport(cfg)
    logits = _forward(model, a, x0, _SimEngine(report))
    return logits, report


def run_oracle(model: ModelSpec, a: SparseMatrixCSR, x0) -> DenseMatrix:
    """Reference-kernel twin of run_model; must match it bit for bit."""
    return _forward(model, a, x0, _OracleEngine())


def real_reference(model: ModelSpec, a: SparseMatrixCSR, x0) -> np.ndarray:
    """Float64 pipeline with no quantization anywhere, for error reporting.

    Binary edges stay 1.0 and the mean mode uses exact 1/degree, so those
    comparisons charge all error to quantization. A sym_norm adjacency is
    already quantized (14-bit edge weights), and this pipeline multiplies
    those weights, so its error leaves out the edge weights' rounding.
    Aggregation runs on a's CSR arrays, one bincount per output column.
    One float64 grid is held per live matrix: sparse features are scattered
    straight into one, a layer's input is freed once its products are taken,
    and the self product and relu work in place. A deep model can overflow
    float64; its result then holds inf or nan, and the overflow raises no
    warning.
    """
    rows = np.repeat(np.arange(a.rows), a.row_nnz())
    if model.adjacency_mode == "mean":
        weight = 1.0 / a.row_nnz()[rows]
    else:
        weight = a.values * 2.0 ** -a.frac_bits if a.frac_bits else np.ones(a.nnz)

    cols = a.col_idx.astype(np.intp)  # converted once, not by every column's gather

    def aggregate(y: np.ndarray) -> np.ndarray:
        out = np.empty((a.rows, y.shape[1]))
        for j, column in enumerate(y.T):
            out[:, j] = np.bincount(rows, column[cols] * weight, a.rows)
        return out

    if isinstance(x0, SparseMatrixCSR):
        x = np.zeros((x0.rows, x0.cols))
        x[np.repeat(np.arange(x0.rows), x0.row_nnz()), x0.col_idx] = x0.values
        x *= 2.0 ** -x0.frac_bits  # dequantize's scaling, exact
    else:
        x = dequantize(x0) if isinstance(x0, DenseMatrix) else x0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(model.layers):
            xw = x @ dequantize(layer.weight)
            if model.kind == KIND_SAGE:
                self_part = x @ dequantize(layer.weight_self)
            del x  # read by both products, so freed before the aggregation
            x = aggregate(xw)
            del xw
            if model.kind == KIND_SAGE:
                x += self_part  # float addition commutes: x @ Ws + y, bit for bit
                del self_part
            if i < len(model.layers) - 1:
                np.maximum(x, 0.0, out=x)
    return x


def references(model: ModelSpec, a: SparseMatrixCSR, x0) -> tuple[DenseMatrix, np.ndarray]:
    """The config-free answers a run is checked against: oracle logits and
    the float64 result. Compute once per model and inputs, reuse per config."""
    return run_oracle(model, a, x0), real_reference(model, a, x0)


def verify_against_oracle(sim_logits: DenseMatrix, report: RunReport, refs: tuple) -> dict:
    """Exactness vs the oracle plus error stats vs real arithmetic, for
    run_model's results and references() of the same model and inputs.
    max_abs_err and argmax_agreement are None when the real reference
    overflowed (not finite): argmax would pick a row's first NaN."""
    oracle_logits, real = refs
    exact = (sim_logits.frac_bits == oracle_logits.frac_bits
             and np.array_equal(sim_logits.data, oracle_logits.data))
    sim_real = dequantize(sim_logits)
    max_abs_err = float(np.abs(sim_real - real).max()) if real.size else 0.0
    agree = float((sim_real.argmax(axis=1) == real.argmax(axis=1)).mean()) \
        if real.size else 1.0
    if not np.isfinite(max_abs_err):
        max_abs_err = agree = None
    return {
        "exact_match": bool(exact),
        "max_abs_err": max_abs_err,
        "argmax_agreement": agree,
        "total_cycles": report.total_cycles(),
    }
