"""Readers the tests need but no command does."""

import json
import tracemalloc

import numpy as np

from gcnsim.formats import META_VERSION, FileFormatError
from gcnsim.matrix import DenseMatrix, SparseMatrixCSR


def read_meta(path) -> dict:
    """A metadata sidecar that formats.write_meta wrote."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, a 5000-digit int
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("meta_version") != META_VERSION:
        raise FileFormatError(f"{path}: not a metadata sidecar")
    return doc


def to_dense(x: SparseMatrixCSR) -> DenseMatrix:
    """The rows x cols grid a sparse matrix stands for, at the same scale."""
    raw = np.zeros((x.rows, x.cols), dtype=np.int64)
    raw[np.repeat(np.arange(x.rows), x.row_nnz()), x.col_idx] = x.values
    return DenseMatrix(raw, x.bits, x.frac_bits)


def traced_peak(fn, *args):
    """fn(*args) and the peak, in bytes, of what tracemalloc traced during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
