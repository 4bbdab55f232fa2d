"""Synthetic graph workloads: power-law degree graphs with sparse features.

Node degrees in real graph datasets are heavy-tailed, which is exactly what
makes naive row partitioning unbalanced, so the generator samples a discrete
power law and wires nodes with a configuration-model pairing. The result is
simplified (no self loops, no multi-edges) and symmetrized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix import DenseMatrix, ShapeError, SparseMatrixCSR, value_dtype

_PAIRING_TRIES = 10
_EDGE_YIELD = 0.9  # accept a pairing that keeps this fraction after simplification
_DRAW_CHUNK = 1 << 16  # uniforms random_features draws, or keys _distinct moves, at once


@dataclass
class GraphBundle:
    """One workload: adjacency structure, node features, optional weights.
    It checks what only the pair knows (a square adjacency, one feature row
    per node); each matrix is its producer's to prove, and the weights'
    shapes are the model's to check (cli.build_model)."""

    adjacency: SparseMatrixCSR
    features: SparseMatrixCSR
    weights: list = field(default_factory=list)

    def __post_init__(self):
        if self.adjacency.rows != self.adjacency.cols:
            raise ShapeError("adjacency must be square")
        if self.features.rows != self.adjacency.rows:
            raise ShapeError(f"{self.features.rows} feature rows for "
                             f"{self.adjacency.rows} nodes")

    @property
    def nodes(self) -> int:
        return self.adjacency.rows


def _degree_pmf(cap: int, exponent: float, tilt: float) -> np.ndarray:
    """Power law k^-exponent on [1, cap] with an exponential tilt e^(tilt*k).

    The tilt is the knob that sets the mean: 0 is the pure truncated power
    law, negative drains the tail, positive feeds it. Computed in log space
    so large tilt*cap cannot overflow.
    """
    k = np.arange(1, cap + 1, dtype=np.float64)
    logw = -exponent * np.log(k) + tilt * k
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def _fit_tilt(cap: int, exponent: float, target: float) -> np.ndarray:
    """PMF on [1, cap] whose mean hits the target degree (bisection on tilt)."""
    k = np.arange(1, cap + 1, dtype=np.float64)

    def mean(t):
        return float(_degree_pmf(cap, exponent, t) @ k)

    lo, hi = -50.0, 1e-3
    while mean(hi) < target and hi < 8.0:
        hi *= 2
    for _ in range(80):
        mid = (lo + hi) / 2
        if mean(mid) < target:
            lo = mid
        else:
            hi = mid
    return _degree_pmf(cap, exponent, hi)


def _degree_counts(n: int, pmf: np.ndarray, rng) -> np.ndarray:
    """How many nodes get each degree: systematic rounding of n*pmf.

    One uniform shift rounds every expected count up or down while keeping
    the total at exactly n, so the degree histogram tracks the law without
    the edge-count variance a heavy-tailed iid sample would have.
    """
    cum = np.concatenate([[0.0], np.cumsum(n * pmf)])
    marks = np.floor(cum + rng.random()).astype(np.int64)
    return np.diff(marks)


def _distinct(key: np.ndarray) -> np.ndarray:
    """Sort key in place, move each run's first entry to its front: a view of those."""
    key.sort()
    first = np.concatenate([[True], key[1:] != key[:-1]])
    at = 0
    for s0 in range(0, len(key), _DRAW_CHUNK):  # a write never passes the chunk it reads
        kept = key[s0:s0 + _DRAW_CHUNK][first[s0:s0 + _DRAW_CHUNK]]
        key[at:at + len(kept)] = kept
        at += len(kept)
    return key[:at]


def _pair_stubs(degrees: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled stubs paired in order, self loops and repeats dropped.

    Returns the int32 lo and hi columns of the distinct edges, lo < hi,
    sorted as pairs. It holds the int32 stubs (shuffled as int64 ones would
    be) and the pairs' int64 keys lo * n + hi, sorted and cut to the first of
    each run in place (numpy's hash-based unique is far slower on them).
    """
    n = len(degrees)
    stubs = np.repeat(np.arange(n, dtype=np.int32), degrees)
    rng.shuffle(stubs)
    u, v = stubs[0:len(stubs) - 1:2], stubs[1::2]  # an odd last stub drops
    keep = u != v
    key = np.multiply(np.minimum(u, v), n, dtype=np.int64)
    key += np.maximum(u, v)
    key = _distinct(key[keep])
    return (np.floor_divide(key, n, out=np.empty(len(key), np.int32)),
            np.remainder(key, n, out=np.empty(len(key), np.int32)))


def symmetric_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> SparseMatrixCSR:
    """Binary n x n adjacency holding each edge (u, v) in both directions.

    Repeated edges collapse; self loops are kept. It holds the inputs, its
    outputs (allocated first) and the int64 row-major keys u * n + v of both
    directions, sorted and cut to the first of each run in place: CSR order,
    so a search of the keys gives the row pointers, their remainders mod n
    the int32 columns (copied off if repeats fell).
    """
    e = len(u)
    row_ptr = np.arange(n + 1) * n  # each row's first key, then where the search finds it
    col = np.empty(2 * e, dtype=np.int32)
    key = np.empty(2 * e, dtype=np.int64)
    np.multiply(u, n, out=key[:e], dtype=np.int64)  # int64 products of int32 ids too
    key[:e] += v
    np.multiply(v, n, out=key[e:], dtype=np.int64)
    key[e:] += u
    key = _distinct(key)
    row_ptr[:] = np.searchsorted(key, row_ptr)
    col = np.remainder(key, max(n, 1), out=col[:len(key)])
    del key
    col = col.copy() if len(col) < 2 * e else col
    return SparseMatrixCSR(n, n, row_ptr, col, np.ones(len(col), value_dtype(4)), 4, 0)


def random_features(n: int, n_features: int, density: float, rng
                    ) -> SparseMatrixCSR:
    """Sparse SINT4 feature matrix with nonzero entries at the given density,
    built straight into CSR at its stored widths (int32 columns, int8 values).

    The n * n_features uniforms that pick the nonzero positions, then the
    values, are drawn _DRAW_CHUNK at a time, which holds its arrays and one
    chunk: the stream is sequential, so the result is that of one draw each.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density {density} not in (0, 1]")
    size = n * n_features
    row_ptr = np.zeros(n + 1, dtype=np.int64)  # each row's count, then their running sum
    cols = [np.zeros(0, dtype=np.int32)]
    for s0 in range(0, size, _DRAW_CHUNK):
        hit = np.flatnonzero(rng.random(min(_DRAW_CHUNK, size - s0)) < density)
        hit += s0
        cols.append(np.remainder(hit, n_features, out=np.empty(len(hit), np.int32)))
        counts = np.bincount(hit // n_features - s0 // n_features)
        row_ptr[1 + s0 // n_features:][:len(counts)] += counts
    np.cumsum(row_ptr, out=row_ptr)
    cols = np.concatenate(cols)  # and the chunks freed
    nonzero = np.concatenate([np.arange(-8, 0), np.arange(1, 8)]).astype(value_dtype(4))
    vals = np.empty(len(cols), value_dtype(4))
    for s0 in range(0, len(cols), _DRAW_CHUNK):  # the draw does not depend on the dtype
        vals[s0:s0 + _DRAW_CHUNK] = rng.choice(nonzero, size=min(_DRAW_CHUNK, len(cols) - s0))
    return SparseMatrixCSR(n, n_features, row_ptr, cols, vals, 4, 3)


def gen_powerlaw(n: int, avg_degree: float, exponent: float = 2.1,
                 seed: int = 0, n_features: int = 64,
                 feature_density: float = 0.1) -> GraphBundle:
    """Deterministic synthetic workload with a power-law degree sequence.

    The pairing is retried when simplification (dropping self loops and
    duplicates) eats too many edges; dense degree requests near n-1 can
    exhaust the retry budget and raise. The adjacency is symmetric_adjacency
    of the pairing, whose arrays are freed before the features are drawn.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if avg_degree < 1:
        raise ValueError(f"avg_degree must be >= 1, got {avg_degree}")
    if avg_degree > n - 1:
        raise ValueError(f"avg_degree {avg_degree} impossible on {n} nodes")
    rng = np.random.default_rng(seed)
    # structural cutoff: degrees above sqrt(n*d) force multi-edges anyway
    cap = min(n - 1, max(1, round((n * avg_degree) ** 0.5)))
    pmf = _fit_tilt(cap, exponent, avg_degree)
    support = np.arange(1, cap + 1)
    target = n * avg_degree / 2
    edges = None
    for _ in range(_PAIRING_TRIES):
        degrees = np.repeat(support, _degree_counts(n, pmf, rng))
        rng.shuffle(degrees)
        cand = _pair_stubs(degrees, rng)
        if len(cand[0]) >= _EDGE_YIELD * target:
            edges = cand
            break
    if edges is None:
        raise ValueError(f"could not realize avg degree {avg_degree} on {n} "
                         f"nodes after {_PAIRING_TRIES} pairings")
    adjacency = symmetric_adjacency(n, *edges)
    del edges, cand  # the pairing's arrays, freed before the features are drawn
    features = random_features(n, n_features, feature_density, rng)
    return GraphBundle(adjacency, features)


def degree_stats(a: SparseMatrixCSR) -> dict:
    deg = a.row_nnz()
    return {
        "edges": int(deg.sum()) // 2,
        "mean": float(deg.mean()),
        "median": float(np.median(deg)),
        "max": int(deg.max()),
    }


def random_weights(dims: list[int], seed: int = 0) -> list[DenseMatrix]:
    """SINT4 weight chain for the given layer dimensions."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dimensions")
    rng = np.random.default_rng(seed)
    return [DenseMatrix(rng.integers(-8, 8, (dims[i], dims[i + 1])), 4, 3)
            for i in range(len(dims) - 1)]
