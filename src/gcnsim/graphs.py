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
_DRAW_CHUNK = 1 << 18  # uniforms random_features draws at once (2 MiB)


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


def _pair_stubs(degrees: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled stubs paired in order, self loops and repeats dropped.

    Returns the lo and hi columns of the distinct edges, lo < hi, sorted as
    pairs: a sort of the keys lo * n + hi and a mask of the first of each
    run of equal keys (numpy's hash-based unique is far slower on these keys).
    """
    n = len(degrees)
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    if len(stubs) % 2:
        stubs = stubs[:-1]
    u, v = stubs[0::2], stubs[1::2]
    keep = u != v
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    key = np.sort(lo * n + hi)
    key = key[np.diff(key, prepend=-1) != 0]
    return key // n, key % n


def symmetric_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> SparseMatrixCSR:
    """Binary n x n adjacency holding each edge (u, v) in both directions.

    Repeated edges collapse; self loops are kept. The row-major keys u * n + v
    of both directions are computed in int64 into one array, sorted in place
    and the first of each run is kept: that is CSR order, so a search of the
    keys gives the row pointers and their remainders mod n the int32 columns.
    """
    e = len(u)
    key = np.empty(2 * e, dtype=np.int64)
    np.multiply(u, n, out=key[:e], dtype=np.int64)  # int64 products of int32 ids too
    key[:e] += v
    np.multiply(v, n, out=key[e:], dtype=np.int64)
    key[e:] += u
    key.sort()
    key = key[np.diff(key, prepend=-1) != 0]
    row_ptr = np.searchsorted(key, np.arange(n + 1) * n)
    col = np.remainder(key, max(n, 1), out=np.empty(len(key), np.int32))
    del key
    return SparseMatrixCSR(n, n, row_ptr, col, np.ones(len(col), value_dtype(4)), 4, 0)


def random_features(n: int, n_features: int, density: float, rng
                    ) -> SparseMatrixCSR:
    """Sparse SINT4 feature matrix with nonzero entries at the given density,
    built at its stored widths (int32 columns, int8 values).

    The n * n_features uniforms that pick the nonzero positions are drawn at
    most _DRAW_CHUNK at a time; the stream is sequential, so the matrix and
    the generator's final state are those of one draw of them all.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density {density} not in (0, 1]")
    size = n * n_features
    flat = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.flatnonzero(rng.random(min(_DRAW_CHUNK, size - s0)) < density) + s0
        for s0 in range(0, size, _DRAW_CHUNK)])
    vals = rng.choice(np.concatenate([np.arange(-8, 0), np.arange(1, 8)]).astype(value_dtype(4)),
                      size=len(flat))  # the draw does not depend on the dtype
    col = np.remainder(flat, n_features, out=np.empty(len(flat), np.int32))
    flat //= n_features
    return SparseMatrixCSR.from_coo(n, n_features, flat, col, vals, 4, 3)


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
