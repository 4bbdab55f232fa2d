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
compiles each left operand's plan once, for every product with it; one
ArchConfig serves every product, since each sparse operand's packets take
their value width from the operand itself (schedule.packet_bits_for).

A run holds only what it can still use: the adjacency's plan, the current
activation's plan, at most two activations (a layer's input and its
output) with the products between them, and the simulator's chunk-sized
temporaries. The layer walk drops each intermediate after its last use,
and the engine drops a plan with its operand, so the peak does not grow
with the number of layers.
"""

from __future__ import annotations

import weakref
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
    sdmm_reference,
)
from .schedule import ArchConfig
from .simulator import CycleReport, check_product, compile_plan, simulate_step

KIND_GCN = "gcn"
KIND_SAGE = "graphsage-mean"


@dataclass
class LayerSpec:
    """One layer's weights and post-ops; GraphSAGE layers add a self block."""

    weight: DenseMatrix
    activation: str = "relu"
    weight_self: DenseMatrix | None = None

    def __post_init__(self):
        if self.activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {self.activation!r}")


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
    """Relu between layers, none after the last."""
    layers = [LayerSpec(w, "relu" if i < len(weights) - 1 else "none")
              for i, w in enumerate(weights)]
    return ModelSpec(KIND_GCN, layers, adjacency_mode)


def make_graphsage(weight_pairs: list[tuple[DenseMatrix, DenseMatrix]]) -> ModelSpec:
    layers = [LayerSpec(wn, "relu" if i < len(weight_pairs) - 1 else "none",
                        weight_self=ws)
              for i, (ws, wn) in enumerate(weight_pairs)]
    return ModelSpec(KIND_SAGE, layers, "mean")


@dataclass
class RunReport:
    """Labeled per-step cycle reports for one inference."""

    steps: list = field(default_factory=list)

    def add(self, label: str, rep: CycleReport) -> None:
        self.steps.append((label, rep))

    def total_cycles(self) -> int:
        return sum(r.total_cycles for _, r in self.steps)


def mean_adjacency(a: SparseMatrixCSR, frac_bits: int = 14) -> SparseMatrixCSR:
    """Row-normalized adjacency (each stored row scaled by 1/degree).

    Structure is preserved except for weights that round to zero; isolated
    rows simply stay empty. Linear in nnz.
    """
    if a.rows != a.cols:
        raise ShapeError("adjacency must be square")
    deg = a.row_nnz().astype(np.float64)
    rr = np.repeat(np.arange(a.rows), a.row_nnz())
    raw = np.round((1.0 / deg[rr]) * (1 << frac_bits)).astype(np.int64)
    keep = raw != 0
    counts = np.bincount(rr[keep], minlength=a.rows)
    row_ptr = np.concatenate([[0], np.cumsum(counts)])
    return SparseMatrixCSR(a.rows, a.cols, row_ptr, a.col_idx[keep],
                           raw[keep], 16, frac_bits)


def align_add(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Exact fixed-point add: the coarser operand is up-shifted, never rounded."""
    if a.data.shape != b.data.shape:
        raise ShapeError("cannot add differently shaped matrices")
    f = max(a.frac_bits, b.frac_bits)
    out = a.data << (f - a.frac_bits)
    out += b.data << (f - b.frac_bits)
    check_fits(out, 32, "sum")
    return DenseMatrix(out, 32, f)


class _SimEngine:
    """Matrix products through the cycle simulator, reports collected.

    A compiled plan is kept only while its left operand can come again: not
    past the operand's own life (the layer walk drops each activation after
    its last product), and at most two at a time, least recently used out
    first and before a new operand is planned. The adjacency's plan lasts
    the run and an activation's goes by the time the next one is planned;
    either layer walk uses an operand in one run of products with only the
    adjacency in between, so each operand is still planned once.
    """

    HELD = 2

    def __init__(self, cfg: ArchConfig, report: RunReport):
        self.cfg = cfg
        self.report = report
        # id(x) -> (weak reference to x, compile_plan), least recently used first
        self.plans: dict = {}

    def matmul(self, label: str, x, w: DenseMatrix) -> DenseMatrix:
        for key in [key for key, (ref, _) in self.plans.items() if ref() is None]:
            del self.plans[key]  # its operand is gone, so its id may be reused
        entry = self.plans.pop(id(x), None)
        if entry is None:
            check_product(x, w)
            if len(self.plans) == self.HELD:
                del self.plans[next(iter(self.plans))]
            plan = compile_plan(x, self.cfg)  # first: it rejects an x of no operand type
            entry = (weakref.ref(x), plan)
        self.plans[id(x)] = entry
        y, rep = simulate_step(x, w, self.cfg, entry[1])
        self.report.add(label, rep)
        return y


class _OracleEngine:
    """Same pipeline on the reference kernels; no cycle accounting."""

    def matmul(self, label: str, x, w: DenseMatrix) -> DenseMatrix:
        if isinstance(x, SparseMatrixCSR):
            return sdmm_reference(x, w)
        return dmm_reference(x, w)


def _forward(model: ModelSpec, a: SparseMatrixCSR, x0, engine) -> DenseMatrix:
    """Shared layer walk so both backends quantize at identical points.

    Each intermediate is dropped after its last use, so no layer holds a
    product or activation it cannot use again.
    """
    x = x0
    for i, layer in enumerate(model.layers):
        if model.kind == KIND_GCN:
            xw = engine.matmul(f"layer{i}.combine", x, layer.weight)
            del x
            xw16 = requantize16(xw)   # parked in 16-bit dense memory
            del xw
            y = engine.matmul(f"layer{i}.aggregate", a, xw16)
            del xw16
        else:
            self_part = engine.matmul(f"layer{i}.self", x, layer.weight_self)
            xn = engine.matmul(f"layer{i}.neigh_combine", x, layer.weight)
            del x
            xn16 = requantize16(xn)
            del xn
            neigh = engine.matmul(f"layer{i}.neigh_aggregate", a, xn16)
            del xn16
            y = align_add(self_part, neigh)
            del self_part, neigh
        if layer.activation == "relu":
            y = relu(y)
        x = requantize16(y)           # parked in 16-bit edge-weight memory
        del y
    return x


def run_model(model: ModelSpec, a: SparseMatrixCSR, x0, cfg: ArchConfig
              ) -> tuple[DenseMatrix, RunReport]:
    """Simulate a GCN or GraphSAGE model; the layer walk follows model.kind."""
    report = RunReport()
    logits = _forward(model, a, x0, _SimEngine(cfg, report))
    return logits, report


def run_oracle(model: ModelSpec, a: SparseMatrixCSR, x0) -> DenseMatrix:
    """Reference-kernel twin of run_model; must match it bit for bit."""
    return _forward(model, a, x0, _OracleEngine())


def real_reference(model: ModelSpec, a: SparseMatrixCSR, x0) -> np.ndarray:
    """Float64 pipeline with no quantization anywhere, for error reporting.

    The adjacency is idealized: binary edges stay 1.0 and the mean mode uses
    exact 1/degree, so the comparison charges all error to quantization.
    Aggregation runs on a's CSR arrays, one bincount per output column.
    """
    rows = np.repeat(np.arange(a.rows), a.row_nnz())
    if model.adjacency_mode == "mean":
        weight = 1.0 / a.row_nnz()[rows]
    else:
        weight = a.values * 2.0 ** -a.frac_bits if a.frac_bits else np.ones(a.nnz)

    def aggregate(y: np.ndarray) -> np.ndarray:
        out = np.empty((a.rows, y.shape[1]))
        for j, column in enumerate(y.T):
            out[:, j] = np.bincount(rows, column[a.col_idx] * weight, a.rows)
        return out

    x = x0.to_dense() if isinstance(x0, SparseMatrixCSR) else x0
    x = dequantize(x) if isinstance(x, DenseMatrix) else x
    for layer in model.layers:
        y = aggregate(x @ dequantize(layer.weight))
        if model.kind == KIND_SAGE:
            y = x @ dequantize(layer.weight_self) + y
        if layer.activation == "relu":
            y = np.maximum(y, 0.0)
        x = y
    return x


def references(model: ModelSpec, a: SparseMatrixCSR, x0) -> tuple[DenseMatrix, np.ndarray]:
    """The config-free answers a run is checked against: oracle logits and
    the float64 result. Compute once per model and inputs, reuse per config."""
    return run_oracle(model, a, x0), real_reference(model, a, x0)


def verify_against_oracle(sim_logits: DenseMatrix, report: RunReport, refs: tuple) -> dict:
    """Exactness vs the oracle plus error stats vs real arithmetic, for
    run_model's results and references() of the same model and inputs."""
    oracle_logits, real = refs
    exact = (sim_logits.frac_bits == oracle_logits.frac_bits
             and np.array_equal(sim_logits.data, oracle_logits.data))
    sim_real = dequantize(sim_logits)
    max_abs_err = float(np.abs(sim_real - real).max()) if real.size else 0.0
    agree = float((sim_real.argmax(axis=1) == real.argmax(axis=1)).mean()) \
        if real.size else 1.0
    return {
        "exact_match": bool(exact),
        "max_abs_err": max_abs_err,
        "argmax_agreement": agree,
        "total_cycles": report.total_cycles(),
    }
