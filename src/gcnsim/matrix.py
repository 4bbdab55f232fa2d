"""Exact fixed-point matrix types and reference kernels.

Everything here is plain integer arithmetic on raw fixed-point values
(declared width checked explicitly), so results are bit-reproducible and
usable as the oracle for the cycle simulator. Dense grids and every product
are int64. A sparse operand is stored at its packet widths: int32 columns
and values in the narrowest signed dtype that holds its declared width
(value_dtype), so a binary adjacency or 4-bit features cost 5 bytes a
nonzero; arithmetic on them is written so no cast or promotion wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions do not chain."""


class OverflowTrap(ArithmeticError):
    """A stored result exceeds the declared two's-complement range."""


def int_min(bits: int) -> int:
    return -(1 << (bits - 1))


def int_max(bits: int) -> int:
    return (1 << (bits - 1)) - 1


_VALUE_DTYPES = tuple(map(np.dtype, (np.int8, np.int16, np.int32, np.int64)))
_INT32 = np.iinfo(np.int32)


def value_dtype(bits: int, lo: int = 0, hi: int = 0) -> np.dtype:
    """Narrowest of int8/int16/int32/int64 holding every bits-bit value and
    lo..hi: a sparse matrix's value dtype (int64 for any width past 64)."""
    for dt in _VALUE_DTYPES:
        info = np.iinfo(dt)
        if min(bits, 64) <= info.bits and info.min <= lo and hi <= info.max:
            return dt
    raise OverflowTrap(f"sparse entries {lo}..{hi} outside int64")


def check_fits(arr: np.ndarray, bits: int, what: str = "value") -> None:
    """Raise OverflowTrap (with the offending position) if any entry is out of range."""
    lo, hi = int_min(bits), int_max(bits)
    bad = (arr < lo) | (arr > hi)
    if bad.any():
        pos = np.argwhere(bad)[0]
        val = arr[tuple(pos)]
        raise OverflowTrap(f"{what} {val} at {tuple(int(p) for p in pos)} outside {bits}-bit range")


def csr_order(r: np.ndarray, c: np.ndarray) -> bool:
    """Whether positions (r, c) strictly increase row-major, by neighbours."""
    return bool(((r[1:] > r[:-1]) | ((r[1:] == r[:-1]) & (c[1:] > c[:-1]))).all())


@dataclass
class DenseMatrix:
    """Row-major dense grid of raw fixed-point values sharing one scale."""

    data: np.ndarray  # int64, shape (rows, cols)
    bits: int
    frac_bits: int
    sat_count: int = 0  # entries saturated during quantization

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int64)
        if self.data.ndim != 2:
            raise ShapeError(f"dense data must be 2-D, got {self.data.ndim}-D")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


@dataclass
class SparseMatrixCSR:
    """Compressed sparse rows of raw fixed-point values (zeros never stored)."""

    rows: int
    cols: int           # at most 2**31 - 1
    row_ptr: np.ndarray  # int64, length rows+1
    col_idx: np.ndarray  # int32, per nonzero
    values: np.ndarray   # raw, per nonzero: value_dtype(bits), wider only for a value past bits
    bits: int
    frac_bits: int
    sat_count: int = 0

    def __post_init__(self):
        """Arrays already at their stored dtypes are kept as given, with no
        scan or copy; any other is range-checked first, so no cast wraps."""
        if self.cols > _INT32.max:
            raise ShapeError(f"{self.cols} columns do not fit int32 column indices")
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        col = np.asarray(self.col_idx)
        if col.dtype != np.int32 and col.size and not (
                _INT32.min <= col.min() and col.max() <= _INT32.max):
            raise ShapeError("column index out of range")
        self.col_idx = col.astype(np.int32, copy=False)
        v = np.asarray(self.values)
        dtype = value_dtype(self.bits)
        if v.dtype != dtype and v.size:
            dtype = value_dtype(self.bits, int(v.min()), int(v.max()))
        self.values = v.astype(dtype, copy=False)

    @property
    def nnz(self) -> int:
        return int(self.row_ptr[-1])

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def validate(self) -> None:
        if len(self.row_ptr) != self.rows + 1 or self.row_ptr[0] != 0:
            raise ShapeError("row_ptr must have length rows+1 and start at 0")
        if (np.diff(self.row_ptr) < 0).any():
            raise ShapeError("row_ptr must be non-decreasing")
        if self.row_ptr[-1] != len(self.col_idx) or len(self.col_idx) != len(self.values):
            raise ShapeError("row_ptr[-1], col_idx, values lengths disagree")
        if self.nnz:
            if self.col_idx.min() < 0 or self.col_idx.max() >= self.cols:
                raise ShapeError("column index out of range")
            # strictly increasing within each row: check all adjacent pairs,
            # exempting pairs that straddle a row boundary
            if self.nnz > 1:
                diffs = np.diff(self.col_idx)
                boundary = np.zeros(self.nnz - 1, dtype=bool)
                ends = self.row_ptr[1:-1]
                boundary[ends[(ends > 0) & (ends < self.nnz)] - 1] = True
                if (diffs[~boundary] <= 0).any():
                    raise ShapeError("columns not strictly increasing within a row")
            if (self.values == 0).any():
                raise ShapeError("stored zero value")
        check_fits(self.values.reshape(1, -1), self.bits, "sparse entry")

    @classmethod
    def from_dense_raw(cls, raw: np.ndarray, bits: int, frac_bits: int) -> "SparseMatrixCSR":
        """The nonzeros of a dense raw grid, gathered straight into their stored dtypes."""
        raw = np.asarray(raw, dtype=np.int64)
        rows, cols = raw.shape
        row_ptr = np.concatenate([[0], np.cumsum(np.count_nonzero(raw, axis=1))])
        flat = np.flatnonzero(raw)
        lo, hi = (int(raw.min()), int(raw.max())) if raw.size else (0, 0)
        values = np.take(raw, flat, out=np.empty(len(flat), value_dtype(bits, lo, hi)))
        col = np.remainder(flat, max(cols, 1), out=np.empty(len(flat), np.int32))
        return cls(rows, cols, row_ptr, col, values, bits, frac_bits)

    @classmethod
    def from_coo(cls, rows: int, cols: int, r: np.ndarray, c: np.ndarray,
                 v: np.ndarray, bits: int, frac_bits: int) -> "SparseMatrixCSR":
        """Build from unordered triplets; duplicate positions are summed.

        Triplets in CSR order (csr_order, as a file's) are taken as they
        are, with no sort or key, and with no zero value the matrix holds c
        and v as given when they are int32 columns and values of
        value_dtype(bits), and r only as row pointers. Any other order is one
        stable sort of the int64 positions r * cols + c, so rows * cols must
        fit well inside int64. Duplicates are summed in int64, exactly.
        """
        if rows * cols > 2**62:
            raise ValueError(f"{rows} x {cols} positions do not fit a 62-bit sort key")
        r, c, v = (a if a.dtype.kind == "i" else a.astype(np.int64)
                   for a in map(np.asarray, (r, c, v)))
        if not csr_order(r, c):  # strictly increasing positions repeat none
            order = np.argsort(np.multiply(r, cols, dtype=np.int64) + c, kind="stable")
            r, c, v = r[order], c[order], v[order]
            del order
            dup = np.concatenate([[False], (r[1:] == r[:-1]) & (c[1:] == c[:-1])])
            if dup.any():
                first = np.flatnonzero(~dup)  # each sorted group's first entry
                v = np.add.reduceat(v, first, dtype=np.int64)
                r, c = r[first], c[first]
        if len(r) and (r[0] < 0 or r[-1] >= rows):  # r is sorted
            raise ShapeError(f"row index outside [0, {rows})")
        keep = v != 0
        if not keep.all():
            r, c, v = r[keep], c[keep], v[keep]
        row_ptr = np.searchsorted(r, np.arange(rows + 1, dtype=np.result_type(
            r, np.min_scalar_type(-rows - 1))))  # r is sorted; no int64 copy of it
        return cls(rows, cols, row_ptr, c, v, bits, frac_bits)


def quantize(values: np.ndarray, bits: int, frac_bits: int,
             sparse: bool = False) -> DenseMatrix | SparseMatrixCSR:
    """Quantize a real grid to fixed point (round half to even, saturate).

    Saturated entries are counted on the result's sat_count, never raised.
    With sparse=True, entries that quantize to zero are dropped from the CSR.
    """
    if bits not in (4, 16):
        raise ValueError(f"quantization width must be 4 or 16, got {bits}")
    if not 0 <= frac_bits < bits:
        raise ValueError(f"frac_bits {frac_bits} not in [0, {bits})")
    values = np.asarray(values, dtype=np.float64)
    scaled = np.round(values * (1 << frac_bits))
    raw = np.clip(scaled, int_min(bits), int_max(bits)).astype(np.int64)
    sat = int((raw != scaled).sum())
    if sparse:
        out = SparseMatrixCSR.from_dense_raw(raw, bits, frac_bits)
    else:
        out = DenseMatrix(raw, bits, frac_bits)
    out.sat_count = sat
    return out


def dequantize(m: DenseMatrix) -> np.ndarray:
    """Raw values back to reals."""
    return m.data.astype(np.float64) * 2.0 ** -m.frac_bits


# output entries per sdmm_reference block
_REFERENCE_CELLS = 1 << 16


def sdmm_reference(x: SparseMatrixCSR, w: DenseMatrix) -> DenseMatrix:
    """Zero-skipping sparse-dense product, the golden model for the PE array.

    Y[i,k] = sum_j X[i,j] * W[j,k] over stored nonzeros only, exact in
    integers; each result entry must fit a 32-bit accumulator. Each output
    column is one np.add.at scatter of the stored entries' products into
    their CSR rows, a contiguous row of a block of about _REFERENCE_CELLS
    entries that is then copied into the row-major result, so temporaries
    stay linear in nnz plus one block.
    """
    if x.cols != w.rows:
        raise ShapeError(f"inner dims differ: X is {x.rows}x{x.cols}, W is {w.rows}x{w.cols}")
    out = np.empty((x.rows, w.cols), dtype=np.int64)
    rows = np.repeat(np.arange(x.rows), x.row_nnz())
    cols = x.col_idx.astype(np.intp)  # once: every gather would convert int32 indices anew
    wt = np.ascontiguousarray(w.data.T)
    step = max(1, _REFERENCE_CELLS // max(x.rows, 1))  # output columns per block
    for j0 in range(0, w.cols, step):
        w_cols = wt[j0:j0 + step]
        block = np.zeros((len(w_cols), x.rows), dtype=np.int64)  # one row per column
        for j, w_col in enumerate(w_cols):
            np.add.at(block[j], rows, w_col[cols] * x.values)  # int64 products
        out[:, j0:j0 + step] = block.T
        del block  # before the next block's
    check_fits(out, 32, "accumulator")
    return DenseMatrix(out, 32, x.frac_bits + w.frac_bits)


def dmm_reference(x: DenseMatrix, w: DenseMatrix) -> DenseMatrix:
    """Dense-dense product under the same accumulator rules as sdmm_reference."""
    if x.cols != w.rows:
        raise ShapeError(f"inner dims differ: X is {x.rows}x{x.cols}, W is {w.rows}x{w.cols}")
    out = x.data @ w.data
    check_fits(out, 32, "accumulator")
    return DenseMatrix(out, 32, x.frac_bits + w.frac_bits)


def relu(y: DenseMatrix) -> DenseMatrix:
    return DenseMatrix(np.maximum(y.data, 0), y.bits, y.frac_bits)


# entries per requantize16 step
_REQUANTIZE_CELLS = 1 << 16


def _rescale(v, s: int):
    """v * 2**-s rounded half to even, exactly, for an int or an int64 array
    (always a new one). s <= 0 is a left shift; s > 0 takes
    floor((v + 2**(s-1) - 1 + bit s of v) / 2**s), with one temporary of v's size."""
    if s <= 0:
        return v << -s
    odd = v >> s
    odd &= 1
    out = v + ((1 << s - 1) - 1)
    out += odd
    del odd
    out >>= s
    return out


def requantize16(y: DenseMatrix) -> DenseMatrix:
    """Narrow a 32-bit layer result to SINT16.

    The scale is chosen from the observed range: frac = 15 - ceil(log2(max|v|)),
    clamped to [0, 15], backed off one step if the maximum itself would not be
    representable (exact powers of two). Entries are rescaled by a shift,
    rounded half to even and saturated (counted in sat_count), a block of
    rows at a time, so the only full-size array is the result. It is all
    integer arithmetic: for |y| < 2**53 it equals quantize(dequantize(y), 16,
    frac) bit for bit, and every caller passes a result that check_fits(32)
    has passed.
    """
    data = y.data
    peak = max(int(data.max(initial=0)), -int(data.min(initial=0)))  # 0 when empty
    if peak == 0:
        frac = 15
    else:
        # ceil(log2(peak * 2**-frac_bits)), exactly
        frac = min(15, max(0, 15 - ((peak - 1).bit_length() - y.frac_bits)))
        if frac > 0 and _rescale(peak, y.frac_bits - frac) > int_max(16):
            frac -= 1
    # past 2**62 every |y| < 2**53 rounds to 0 alike, and the shift stays in int64
    shift = min(y.frac_bits - frac, 62)
    lo, hi = int_min(16), int_max(16)
    out = np.empty_like(data)
    sat = 0
    step = max(1, _REQUANTIZE_CELLS // max(y.cols, 1))
    for r0 in range(0, y.rows, step):
        part = _rescale(data[r0:r0 + step], shift)
        sat += int(np.count_nonzero(part > hi)) + int(np.count_nonzero(part < lo))
        np.clip(part, lo, hi, out=out[r0:r0 + step])
    return DenseMatrix(out, 16, frac, sat)


def normalize_adjacency(a: SparseMatrixCSR, mode: str = "binary",
                        bits: int = 16, frac_bits: int = 14) -> SparseMatrixCSR:
    """Prepare an adjacency operand.

    binary: every stored edge becomes raw 1 at scale 1 (no self loops added).
    sym_norm: D^-1/2 (A+I) D^-1/2 with self loops unioned in, quantized to
    the given edge-weight precision; degree is at least 1 by construction.
    """
    if a.rows != a.cols:
        raise ShapeError("adjacency must be square")
    if mode == "binary":
        return SparseMatrixCSR(a.rows, a.cols, a.row_ptr.copy(), a.col_idx.copy(),
                               np.ones(a.nnz, value_dtype(4)), 4, 0)
    if mode != "sym_norm":
        raise ValueError(f"unknown adjacency mode {mode!r}")
    n = a.rows
    rr = np.repeat(np.arange(n), a.row_nnz())
    cc = a.col_idx
    off = rr != cc
    r_all = np.concatenate([rr[off], np.arange(n)])
    c_all = np.concatenate([cc[off], np.arange(n, dtype=np.int32)])
    deg = np.bincount(r_all, minlength=n).astype(np.float64)
    scaled = np.round(1.0 / np.sqrt(deg[r_all] * deg[c_all]) * (1 << frac_bits))
    raw = np.clip(scaled, int_min(bits), int_max(bits)).astype(value_dtype(bits))
    # (A + I) has no repeated position, so from_coo only sorts and drops zeros
    out = SparseMatrixCSR.from_coo(n, n, r_all, c_all, raw, bits, frac_bits)
    out.sat_count = int((raw != scaled).sum())
    return out
