"""Generator statistics, determinism, and bundle validation."""

import numpy as np
import pytest

from gcnsim import graphs
from gcnsim.graphs import (
    GraphBundle,
    degree_stats,
    gen_powerlaw,
    random_features,
    random_weights,
)
from gcnsim.matrix import DenseMatrix, ShapeError, SparseMatrixCSR
from helpers import to_dense, traced_peak


def test_fixed_seed_reproduces_the_graph():
    a = gen_powerlaw(512, 4, 2.1, seed=42)
    b = gen_powerlaw(512, 4, 2.1, seed=42)
    assert np.array_equal(a.adjacency.row_ptr, b.adjacency.row_ptr)
    assert np.array_equal(a.adjacency.col_idx, b.adjacency.col_idx)
    assert np.array_equal(a.features.col_idx, b.features.col_idx)
    assert np.array_equal(a.features.values, b.features.values)
    c = gen_powerlaw(512, 4, 2.1, seed=43)
    assert not np.array_equal(a.adjacency.col_idx, c.adjacency.col_idx)


def test_edge_count_tracks_requested_degree():
    # the canonical workload for the sweep studies
    for seed in range(20):
        st = degree_stats(gen_powerlaw(4096, 4, 2.1, seed=seed,
                                       n_features=8).adjacency)
        assert abs(st["edges"] - 8192) <= 0.10 * 8192, (seed, st)


def test_degree_tail_is_heavy():
    for seed in range(5):
        st = degree_stats(gen_powerlaw(4096, 4, 2.1, seed=seed,
                                       n_features=8).adjacency)
        assert st["max"] / max(st["median"], 1) > 20


def test_mean_degree_other_exponents():
    # simplification eats a few percent; generous band
    st = degree_stats(gen_powerlaw(256, 3, 3.0, seed=1).adjacency)
    assert abs(st["mean"] - 3) <= 0.12 * 3
    st = degree_stats(gen_powerlaw(2048, 4, 2.5, seed=5).adjacency)
    assert abs(st["mean"] - 4) <= 0.12 * 4
    st = degree_stats(gen_powerlaw(50, 1, 2.1, seed=2).adjacency)
    assert abs(st["mean"] - 1) <= 0.05


def test_adjacency_is_simple_and_symmetric():
    d = to_dense(gen_powerlaw(300, 3, 2.1, seed=7).adjacency).data
    assert (d == d.T).all()
    assert np.trace(d) == 0
    assert set(np.unique(d)) <= {0, 1}


def _pair_stubs_spec(degrees, rng) -> set:
    """Stub pairing as a set of (min, max) tuples: the spec of _pair_stubs."""
    stubs = np.repeat(np.arange(len(degrees)), degrees)
    rng.shuffle(stubs)
    if len(stubs) % 2:
        stubs = stubs[:-1]
    u, v = stubs[0::2], stubs[1::2]
    keep = u != v
    edges = {(min(a, b), max(a, b)) for a, b in zip(u[keep], v[keep])}
    return edges


def test_pair_stubs_matches_the_set_spec():
    cases = [np.array([3, 2, 2]),               # odd stub count: the last stub drops
             np.array([40, 1, 1, 0]),           # one hub: mostly self loops
             np.array([5, 5]), np.array([1]), np.zeros(4, dtype=np.int64)]
    shape_rng = np.random.default_rng(5)
    cases += [shape_rng.integers(0, 12, int(shape_rng.integers(2, 300))) for _ in range(20)]
    for seed, degrees in enumerate(cases):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.stack(graphs._pair_stubs(degrees, got_rng), axis=1)  # (lo, hi) columns
        want = np.array(sorted(_pair_stubs_spec(degrees, want_rng)),
                        dtype=np.int32).reshape(-1, 2)  # node ids held as int32
        assert got.dtype == want.dtype and np.array_equal(got, want), seed
        # the same draws: both generators end in the same state
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_generator_rejects_bad_requests():
    with pytest.raises(ValueError):
        gen_powerlaw(1, 1, 2.1)
    with pytest.raises(ValueError):
        gen_powerlaw(10, 0.5, 2.1)
    with pytest.raises(ValueError):
        gen_powerlaw(10, 9.5, 2.1)
    # a near-complete graph cannot survive simplification at this yield
    with pytest.raises(ValueError):
        gen_powerlaw(8, 7, 2.1, seed=0)


def test_gen_powerlaw_memory_per_stored_entry():
    # traced peak over the stored entries (adjacency and feature nonzeros) at
    # the preprocess benchmark's size: 13.6 bytes an entry; 19.6 with int64
    # stubs and feature positions, 45.4 when the pairing's arrays lived on and
    # the keys were sorted and divided into copies
    b, peak = traced_peak(gen_powerlaw, 131072, 4, 2.1, 0, 32, 0.1)
    per_entry = peak / (b.adjacency.nnz + b.features.nnz)
    assert per_entry <= 17.0, f"{per_entry:.1f} bytes per stored entry"


def test_random_features_density_and_range():
    rng = np.random.default_rng(11)
    f = random_features(512, 32, 0.25, rng)
    density = f.nnz / (512 * 32)
    assert abs(density - 0.25) < 0.05
    assert f.bits == 4 and f.frac_bits == 3
    assert ((f.values >= -8) & (f.values <= 7) & (f.values != 0)).all()
    with pytest.raises(ValueError):
        random_features(4, 4, 0.0, rng)
    with pytest.raises(ValueError):
        random_features(4, 4, 1.5, rng)


def _random_features_spec(n, n_features, density, rng):
    """random_features with one draw of all n * n_features uniforms: its spec."""
    flat = np.flatnonzero(rng.random(n * n_features) < density)
    vals = rng.choice(np.concatenate([np.arange(-8, 0), np.arange(1, 8)]), size=len(flat))
    return SparseMatrixCSR.from_coo(n, n_features, flat // n_features, flat % n_features,
                                    vals, 4, 3)


def test_random_features_matches_the_one_draw_spec():
    chunk = graphs._DRAW_CHUNK
    # no features, below one chunk, a partial last chunk, an exact multiple of chunks
    for n, n_features in ((16, 0), (512, 32), (chunk // 16 + 3, 24), (2 * chunk // 32, 32)):
        got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = random_features(n, n_features, 0.1, got_rng)
        want = _random_features_spec(n, n_features, 0.1, want_rng)
        for field in ("row_ptr", "col_idx", "values"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (n, field)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, n


def test_bundle_validation():
    g = gen_powerlaw(64, 2, 2.1, seed=3, n_features=8)
    assert g.nodes == 64
    weights = random_weights([8, 4, 2], seed=1)
    assert GraphBundle(g.adjacency, g.features, weights).weights is weights
    with pytest.raises(ShapeError):
        GraphBundle(g.adjacency, random_features(32, 8, 0.5,
                                                 np.random.default_rng(0)))
    with pytest.raises(ShapeError):
        nonsquare = SparseMatrixCSR.from_dense_raw(np.ones((2, 3), dtype=int), 4, 0)
        GraphBundle(nonsquare, g.features)


def test_random_weights_chain():
    ws = random_weights([16, 8, 4], seed=9)
    assert [w.data.shape for w in ws] == [(16, 8), (8, 4)]
    assert all(w.bits == 4 and w.frac_bits == 3 for w in ws)
    again = random_weights([16, 8, 4], seed=9)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(ws, again))
    with pytest.raises(ValueError):
        random_weights([16])


def test_degree_stats_hand_check():
    path = SparseMatrixCSR.from_dense_raw(
        np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]), 4, 0)
    st = degree_stats(path)
    assert st == {"edges": 2, "mean": pytest.approx(4 / 3),
                  "median": 1.0, "max": 2}
