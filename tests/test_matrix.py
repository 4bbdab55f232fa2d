"""Fixed-point types and reference kernels against brute-force oracles."""

import numpy as np
import pytest

from gcnsim.formats import export_bundle, ingest_bundle_dir, read_edges, read_features
from gcnsim.graphs import gen_powerlaw, random_features, random_weights, symmetric_adjacency
from gcnsim.matrix import (
    DenseMatrix,
    OverflowTrap,
    ShapeError,
    SparseMatrixCSR,
    check_fits,
    dequantize,
    dmm_reference,
    int_max,
    normalize_adjacency,
    quantize,
    relu,
    requantize16,
    sdmm_reference,
    value_dtype,
)
from gcnsim.pcoo import packet_bits_for
from gcnsim.runtime import mean_adjacency
from gcnsim.schedule import tile_columns
from helpers import to_dense, traced_peak


def brute_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Triple-loop integer product in native Python ints."""
    m, p = x.shape
    p2, c = w.shape
    assert p == p2
    out = [[0] * c for _ in range(m)]
    for i in range(m):
        for k in range(c):
            acc = 0
            for j in range(p):
                acc += int(x[i, j]) * int(w[j, k])
            out[i][k] = acc
    return np.array(out, dtype=np.int64)


def random_csr(rng, rows, cols, density, bits=4, frac_bits=0):
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    raw = rng.integers(lo, hi + 1, size=(rows, cols))
    raw[rng.random((rows, cols)) >= density] = 0
    return SparseMatrixCSR.from_dense_raw(raw, bits, frac_bits), raw


def test_quantize_matches_python_round():
    # python round() is an independent half-even implementation
    rng = np.random.default_rng(7)
    vals = rng.uniform(-3, 3, size=500)
    q = quantize(vals.reshape(20, 25), 16, 8)
    expect = [round(v * 256) for v in vals]
    expect_sat = sum(not -32768 <= e <= 32767 for e in expect)
    expect = [min(max(e, -32768), 32767) for e in expect]
    assert q.data.ravel().tolist() == expect
    assert q.sat_count == expect_sat


def test_quantize_error_bound_and_idempotence():
    rng = np.random.default_rng(13)
    vals = rng.uniform(-1, 1, size=1000)
    for frac in (3, 7):
        q = quantize(vals.reshape(40, 25), 16, frac)
        err = np.abs(dequantize(q) - vals.reshape(40, 25))
        assert err.max() <= 2.0 ** -(frac + 1)
        again = quantize(dequantize(q), 16, frac)
        assert np.array_equal(again.data, q.data)


def test_quantize_exhaustive_sint4():
    # every representable SINT4 value round-trips exactly at every scale
    raws = list(range(-8, 8))
    for frac in range(4):
        vals = [raw * 2.0 ** -frac for raw in raws]
        assert [round(v * (1 << frac)) for v in vals] == raws
        q = quantize(np.array([vals]), 4, frac)
        assert q.data.ravel().tolist() == raws and q.sat_count == 0


def test_quantize_grid_sat_count():
    grid = np.array([[0.5, 100.0], [-100.0, -0.5]])
    q = quantize(grid, 4, 3)
    assert q.sat_count == 2
    assert q.data.tolist() == [[4, 7], [-8, -4]]
    with pytest.raises(ValueError):
        quantize(grid, 32, 0)
    with pytest.raises(ValueError):
        quantize(grid, 4, 4)


def test_dequantize_roundtrip_sint16():
    rng = np.random.default_rng(11)
    raw = rng.integers(-32768, 32768, size=(6, 9))
    m = DenseMatrix(raw, 16, 7)
    q = quantize(dequantize(m), 16, 7)
    assert np.array_equal(q.data, m.data)
    assert q.sat_count == 0


def test_csr_roundtrip_and_validate():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 40))
        x, raw = random_csr(rng, rows, cols, float(rng.uniform(0, 0.6)))
        x.validate()
        assert x.nnz == int((raw != 0).sum())
        assert np.array_equal(to_dense(x).data, raw)


def test_csr_from_coo_sums_duplicates():
    r = [1, 0, 1, 1, 0]
    c = [2, 0, 2, 0, 0]
    v = [3, 1, -3, 5, 2]
    x = SparseMatrixCSR.from_coo(2, 3, r, c, v, 16, 0)
    x.validate()
    # (1,2) cancels out entirely, (0,0) sums to 3
    assert np.array_equal(to_dense(x).data, [[3, 0, 0], [5, 0, 0]])


def test_csr_from_coo_sums_duplicates_exactly_above_2_53():
    # a float64 sum would round 2 * (2^53 + 1) to 2^54
    big = (1 << 53) + 1
    x = SparseMatrixCSR.from_coo(1, 2, [0, 0, 0], [1, 1, 0], [big, big, 3], 64, 0)
    assert x.values.tolist() == [3, 2 * big]


def test_csr_from_coo_sorts_like_a_row_then_column_lexsort():
    rng = np.random.default_rng(29)
    cases = []
    for rows, cols in ((1, 1), (7, 3), (50, 200), (300, 9)):
        cases.append((rows, cols, rng.integers(0, rows, 400), rng.integers(0, cols, 400),
                      rng.integers(-3, 4, 400)))
    # already in CSR order (taken as it is), and unsorted with each position
    # given twice in a row
    key = np.unique(rng.integers(0, 50 * 200, 400))
    cases.append((50, 200, key // 200, key % 200, rng.integers(-3, 4, len(key))))
    r, c = rng.integers(0, 30, 200), rng.integers(0, 20, 200)
    cases.append((30, 20, r.repeat(2), c.repeat(2), rng.integers(-3, 4, 400)))
    for rows, cols, r, c, v in cases:
        x = SparseMatrixCSR.from_coo(rows, cols, r, c, v, 16, 0)
        dense = np.zeros((rows, cols), dtype=np.int64)
        np.add.at(dense, (r, c), v)
        want = SparseMatrixCSR.from_dense_raw(dense, 16, 0)
        for name in ("row_ptr", "col_idx", "values"):
            assert np.array_equal(getattr(x, name), getattr(want, name)), name
        assert x.sat_count == 0


def test_csr_from_coo_refuses_rows_outside_the_matrix():
    # in CSR order and out of it: a row search would skip such an entry
    for r in ([-1, 0], [0, 2], [2, 0], [0, -1]):
        with pytest.raises(ShapeError, match=r"row index outside \[0, 2\)"):
            SparseMatrixCSR.from_coo(2, 3, r, [0, 1], [1, 1], 4, 0)


def test_csr_from_coo_rejects_sizes_past_the_sort_key():
    # the widest matrix int32 columns index sorts exactly
    widest = 2**31 - 1
    x = SparseMatrixCSR.from_coo(2, widest, [1, 0, 1], [widest - 1, 5, 0], [1, 2, 3], 4, 0)
    assert x.row_ptr.tolist() == [0, 1, 3] and x.col_idx.tolist() == [5, 0, widest - 1]
    wide = 1 << 61  # two rows of 2^61 columns fit the sort key, but not int32 columns
    with pytest.raises(ShapeError, match="do not fit int32"):
        SparseMatrixCSR.from_coo(2, wide, [1, 0, 1], [wide - 1, 5, 0], [1, 2, 3], 4, 0)
    with pytest.raises(ValueError, match="62-bit sort key"):
        SparseMatrixCSR.from_coo(3, wide, [0], [0], [1], 4, 0)


def test_csr_validate_rejects():
    bad = SparseMatrixCSR(2, 3, [0, 1, 2], [2, 5], [1, 1], 4, 0)
    with pytest.raises(ShapeError):
        bad.validate()
    bad = SparseMatrixCSR(2, 3, [0, 2, 3], [2, 1, 0], [1, 1, 1], 4, 0)
    with pytest.raises(ShapeError):
        bad.validate()  # columns not increasing in row 0
    bad = SparseMatrixCSR(1, 3, [0, 1], [1], [0], 4, 0)
    with pytest.raises(ShapeError):
        bad.validate()  # stored zero
    bad = SparseMatrixCSR(1, 3, [0, 1], [1], [9], 4, 0)
    with pytest.raises(OverflowTrap):
        bad.validate()
    # boundary pair may legally decrease across rows
    ok = SparseMatrixCSR(2, 3, [0, 2, 3], [0, 2, 1], [1, 1, 1], 4, 0)
    ok.validate()


def test_col_slice_matches_dense():
    """tile_columns: each T-column slice validates and equals the dense slice."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        cols = int(rng.integers(1, 25))
        x, raw = random_csr(rng, 15, cols, 0.3)
        t = int(rng.integers(1, 30))
        tiles = list(tile_columns(x, t))
        starts = range(0, cols, t)
        assert [tile.cols for tile in tiles] == [min(t, cols - c0) for c0 in starts]
        for c0, tile in zip(starts, tiles):
            tile.validate()
            assert tile.rows == x.rows
            assert np.array_equal(to_dense(tile).data, raw[:, c0:c0 + t])
        assert sum(tile.nnz for tile in tiles) == x.nnz
    # ragged last tile
    x, raw = random_csr(rng, 7, 20, 0.5)
    tiles = list(tile_columns(x, 8))
    assert [tile.cols for tile in tiles] == [8, 8, 4]
    assert np.array_equal(to_dense(tiles[2]).data, raw[:, 16:])
    # an operand no wider than one tile is that tile
    (single,) = tile_columns(x, 32)
    assert single is x
    # an operand with no columns is one empty tile
    (empty,) = tile_columns(SparseMatrixCSR(5, 0, np.zeros(6), [], [], 4, 0), 8)
    empty.validate()
    assert (empty.rows, empty.cols, empty.nnz) == (5, 0, 0)


def test_sdmm_hand_traces():
    x = SparseMatrixCSR.from_dense_raw(np.array([[0, 2, 0], [0, 0, 3]]), 4, 0)
    w = DenseMatrix(np.ones((3, 2), dtype=np.int64), 4, 0)
    assert sdmm_reference(x, w).data.tolist() == [[2, 2], [3, 3]]
    ident = SparseMatrixCSR.from_dense_raw(np.eye(3, dtype=np.int64), 4, 0)
    w = DenseMatrix(np.arange(9).reshape(3, 3) - 4, 4, 1)
    y = sdmm_reference(ident, w)
    assert np.array_equal(y.data, w.data)
    assert y.bits == 32


def sdmm_row_loop(x, w):
    """The row-by-row walk over the CSR arrays that sdmm_reference replaces."""
    out = np.zeros((x.rows, w.cols), dtype=np.int64)
    for i in range(x.rows):
        s, e = x.row_ptr[i], x.row_ptr[i + 1]
        if e > s:
            out[i] = x.values[s:e].astype(np.int64) @ w.data[x.col_idx[s:e]].astype(np.int64)
    check_fits(out, 32, "accumulator")
    return out


def test_sdmm_reference_matches_row_loop():
    rng = np.random.default_rng(43)
    for trial in range(30):
        m, p, c = (int(v) for v in rng.integers(0, 30, 3))
        # many empty rows, wide values, and one operand of 20k nonzeros
        x, _ = random_csr(rng, m, p, float(rng.uniform(0, 0.5)), bits=16, frac_bits=0)
        if trial == 0:
            x = SparseMatrixCSR.from_coo(4000, 300, rng.integers(0, 4000, 20000),
                                         rng.integers(0, 300, 20000),
                                         rng.integers(1, 9, 20000), 16, 0)
            c = 20
        w = DenseMatrix(rng.integers(-1 << 8, 1 << 8, size=(x.cols, c)), 16, 0)
        assert np.array_equal(sdmm_reference(x, w).data, sdmm_row_loop(x, w)), trial
    empty = SparseMatrixCSR(3, 4, np.zeros(4), [], [], 4, 0)
    w = DenseMatrix(np.ones((4, 2), dtype=np.int64), 4, 0)
    assert not sdmm_reference(empty, w).data.any()
    assert sdmm_reference(empty, w).data.shape == (3, 2)
    # a row sum past the 32-bit accumulator traps on both paths
    x = SparseMatrixCSR.from_dense_raw(np.array([[0, 0], [1 << 15, 1 << 15]]), 32, 0)
    w = DenseMatrix(np.full((2, 1), 1 << 15), 32, 0)
    for product in (sdmm_reference, sdmm_row_loop):
        with pytest.raises(OverflowTrap):
            product(x, w)


def test_dmm_trivial_cases():
    w = DenseMatrix(np.arange(6).reshape(3, 2) - 2, 4, 0)
    zero = DenseMatrix(np.zeros((2, 3), np.int64), 4, 0)
    assert not dmm_reference(zero, w).data.any()
    ident = DenseMatrix(np.eye(3, dtype=np.int64), 4, 0)
    assert np.array_equal(dmm_reference(ident, w).data, w.data)


def test_dmm_cross_checks_sdmm():
    rng = np.random.default_rng(41)
    raw = rng.integers(-8, 8, size=(16, 16))
    w = DenseMatrix(rng.integers(-8, 8, size=(16, 16)), 4, 0)
    dense = DenseMatrix(raw, 4, 0)
    sparse = SparseMatrixCSR.from_dense_raw(raw, 4, 0)
    assert np.array_equal(dmm_reference(dense, w).data, sdmm_reference(sparse, w).data)


def test_sdmm_matches_brute_force():
    rng = np.random.default_rng(19)
    for _ in range(30):
        m = int(rng.integers(1, 20))
        p = int(rng.integers(1, 20))
        c = int(rng.integers(1, 12))
        x, raw = random_csr(rng, m, p, float(rng.uniform(0, 0.7)), bits=4, frac_bits=3)
        w = DenseMatrix(rng.integers(-8, 8, size=(p, c)), 4, 3)
        y = sdmm_reference(x, w)
        assert np.array_equal(y.data, brute_matmul(raw, w.data))
        assert y.bits == 32
        assert y.frac_bits == 6


def test_sdmm_order_independent():
    # integer accumulation is exact, so nonzero visit order cannot matter
    rng = np.random.default_rng(23)
    x, raw = random_csr(rng, 10, 16, 0.5)
    w = DenseMatrix(rng.integers(-8, 8, size=(16, 4)), 4, 0)
    y = sdmm_reference(x, w)
    perm = rng.permutation(16)
    x2 = SparseMatrixCSR.from_dense_raw(raw[:, perm][:, np.argsort(perm)], 4, 0)
    assert np.array_equal(sdmm_reference(x2, w).data, y.data)


def test_dmm_matches_brute_force():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = int(rng.integers(1, 15))
        p = int(rng.integers(1, 15))
        c = int(rng.integers(1, 10))
        x = DenseMatrix(rng.integers(-8, 8, size=(m, p)), 4, 3)
        w = DenseMatrix(rng.integers(-8, 8, size=(p, c)), 4, 3)
        assert np.array_equal(dmm_reference(x, w).data, brute_matmul(x.data, w.data))


def test_matmul_shape_mismatch():
    x = SparseMatrixCSR.from_dense_raw(np.eye(3, dtype=np.int64), 4, 0)
    w = DenseMatrix(np.zeros((4, 2), dtype=np.int64), 4, 0)
    with pytest.raises(ShapeError):
        sdmm_reference(x, w)
    with pytest.raises(ShapeError):
        dmm_reference(DenseMatrix(np.zeros((2, 3), dtype=np.int64), 4, 0), w)


def test_accumulator_overflow_traps():
    x = DenseMatrix(np.array([[1 << 20]]), 32, 0)
    w = DenseMatrix(np.array([[1 << 12]]), 32, 0)
    with pytest.raises(OverflowTrap):
        dmm_reference(x, w)
    xs = SparseMatrixCSR.from_dense_raw(np.array([[1 << 20]]), 32, 0)
    with pytest.raises(OverflowTrap):
        sdmm_reference(xs, w)
    # two bits lower fits (1<<30 is in range, 1<<31 is not)
    ok = dmm_reference(DenseMatrix(np.array([[1 << 18]]), 32, 0), w)
    assert ok.data[0, 0] == 1 << 30


def test_dense_storage_follows_the_declared_width():
    # a grid is stored at value_dtype(bits) and widens only as far as an
    # out-of-range value needs, so nothing wraps before check_fits sees it
    for bits, dtype in ((4, np.int8), (16, np.int16), (32, np.int32), (40, np.int64)):
        assert DenseMatrix(np.ones((2, 2), np.int64), bits, 0).data.dtype == dtype
    assert DenseMatrix(np.array([[-32769]]), 16, 0).data.dtype == np.int32
    wide = DenseMatrix(np.array([[2**31]]), 32, 0)
    assert wide.data.dtype == np.int64 and wide.data[0, 0] == 2**31
    with pytest.raises(OverflowTrap, match="^accumulator 2147483648 at"):
        check_fits(wide.data, 32, "accumulator")
    kept = np.zeros((3, 2), np.int16)  # already at its width: no copy
    assert DenseMatrix(kept, 16, 0).data is kept
    y = DenseMatrix(np.array([[1 << 20, -3], [5, 0]]), 32, 4)
    assert requantize16(y).data.dtype == np.int16
    assert relu(y).data.dtype == np.int32
    assert random_weights([5, 3, 2], seed=1)[0].data.dtype == np.int8


def test_relu_scalar_oracle():
    y = DenseMatrix(np.array([[-1, 2], [0, -5]]), 32, 0)
    assert relu(y).data.tolist() == [[0, 2], [0, 0]]
    rng = np.random.default_rng(31)
    y = DenseMatrix(rng.integers(-100, 100, size=(8, 8)), 32, 6)
    r = relu(y)
    for i in range(8):
        for j in range(8):
            assert r.data[i, j] == max(0, int(y.data[i, j]))
    assert r.frac_bits == 6


def test_requantize16_scale_choice():
    # peak 0.75 fits at the finest scale
    y = DenseMatrix(np.array([[3, -2]]), 32, 2)
    q = requantize16(y)
    assert q.frac_bits == 15
    assert q.data.tolist() == [[24576, -16384]]
    # peak exactly 1.0 needs the one-step backoff (32768 would not fit)
    y = DenseMatrix(np.array([[4, 1]]), 32, 2)
    q = requantize16(y)
    assert q.frac_bits == 14
    assert q.data.tolist() == [[16384, 4096]]
    assert q.sat_count == 0
    # all-zero input keeps the finest scale
    assert requantize16(DenseMatrix(np.zeros((2, 2), np.int64), 32, 5)).frac_bits == 15
    # magnitudes beyond 32767 cannot fit at any non-negative scale: the
    # scale pins at 0 and the excess saturates silently into sat_count
    y = DenseMatrix(np.array([[1 << 20, 5]]), 32, 0)
    q = requantize16(y)
    assert q.frac_bits == 0
    assert q.sat_count == 1
    assert q.data.tolist() == [[32767, 5]]


def test_requantize16_error_bound():
    rng = np.random.default_rng(37)
    for _ in range(25):
        frac = int(rng.integers(6, 12))  # keeps |real| within SINT16 reach
        y = DenseMatrix(rng.integers(-(1 << 20), 1 << 20, size=(5, 7)), 32, frac)
        q = requantize16(y)
        assert q.sat_count == 0
        step = 2.0 ** -q.frac_bits
        err = np.abs(dequantize(q) - dequantize(y))
        assert err.max() <= step / 2 + 1e-12


def _requantize16_spec(y: DenseMatrix) -> DenseMatrix:
    """requantize16 as a float formula: the scale from log2 of the real peak,
    then quantize() of the dequantized grid. Exact while |y| < 2**53."""
    real = dequantize(y)
    peak = float(np.abs(real).max(initial=0.0))  # 0 for an empty result
    if peak == 0.0:
        frac = 15
    else:
        frac = int(min(15, max(0, 15 - np.ceil(np.log2(peak)))))
        if round(peak * (1 << frac)) > int_max(16) and frac > 0:
            frac -= 1
    return quantize(real, 16, frac)


def requantize16_cases(rng):
    """(raw grid, frac_bits) pairs in the 32-bit accumulator range."""
    cases = []
    for _ in range(300):  # seeded int32-range grids at every scale
        hi = 1 << int(rng.integers(0, 32))
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        cases.append((rng.integers(-hi, hi, size=shape), int(rng.integers(0, 48))))
    for s in range(1, 32):  # ties at a right shift of s, either sign, even and odd
        ties = [(2 * j + 1) << s - 1 for j in range(4) if (2 * j + 1) << s - 1 < 1 << 31]
        ties += [-t for t in ties]
        # every tie below 1.0 keeps the scale at 15
        cases.append((np.array([ties]), s + 15))
        if s <= 15:  # the int32 maximum as the peak pins the scale at 0
            cases.append((np.array([[int_max(32)] + ties]), s))
    for f in range(15):  # left shifts: frac >= frac_bits
        cases.append((rng.integers(-(1 << f), 1 << f, size=(3, 5)) | 1, f))
        cases.append((np.array([[1, -1, 0]]), f))
    for k in range(31):  # exact powers of two: the one-step backoff
        for f in (0, k, k + 3, 20):
            cases.append((np.array([[1 << k, 3, -5]]), f))
            cases.append((np.array([[-(1 << k), 1]]), f))
    for f in (0, 1, 4):  # saturating magnitudes
        cases.append((np.array([[int_max(32), int(-2**31), 1 << 16, -(1 << 15) - 1, 7]]), f))
    cases += [(np.zeros((3, 4), np.int64), 9), (np.zeros((0, 5), np.int64), 3),
              (np.zeros((4, 0), np.int64), 0)]
    return cases


def test_requantize16_matches_float_spec():
    rng = np.random.default_rng(43)
    shifts = set()
    saturated = backoffs = 0
    for data, frac_bits in requantize16_cases(rng):
        y = DenseMatrix(data, 32, frac_bits)
        got, want = requantize16(y), _requantize16_spec(y)
        where = (data.tolist() if data.size < 12 else data.shape, frac_bits)
        assert (got.bits, got.frac_bits, got.sat_count) == \
            (want.bits, want.frac_bits, want.sat_count), where
        assert got.data.dtype == want.data.dtype and np.array_equal(got.data, want.data), where
        assert np.array_equal(y.data, data)  # the input is not touched
        shifts.add(frac_bits - got.frac_bits)
        saturated += got.sat_count > 0
        peak = int(np.abs(data).max(initial=0))
        backoffs += peak > 0 and peak & peak - 1 == 0 and got.frac_bits < 15
    assert set(range(-14, 32)) <= shifts
    assert saturated >= 3 and backoffs >= 40


def test_requantize16_peaks_at_its_output():
    # the result is the only full-size array: under the result plus one
    # input-sized temporary
    y = DenseMatrix(np.random.default_rng(47).integers(-(1 << 30), 1 << 30, size=(8192, 64)),
                    32, 20)
    q, peak = traced_peak(requantize16, y)
    assert peak <= q.data.nbytes + y.data.nbytes, peak >> 20
    assert np.array_equal(q.data, _requantize16_spec(y).data)


def test_sdmm_reference_peaks_at_its_output():
    # about 49,000 nonzeros in 8192 x 64 times a 64-wide weight: a 4 MiB
    # result. Past it the oracle holds temporaries of a nonzero's size (each
    # nonzero's row, one column's gathered products) and of a block or mask
    # of the result's entries, 1.5 MiB here; 48 bytes a nonzero (2.4 MiB)
    # takes them, a second, transposed copy of the result (4 MiB) does not
    rng = np.random.default_rng(191)
    x, _ = random_csr(rng, 8192, 64, 0.1)
    w = DenseMatrix(rng.integers(-8, 8, size=(64, 64)), 4, 0)
    y, peak = traced_peak(sdmm_reference, x, w)
    assert peak <= y.data.nbytes + 48 * x.nnz, (peak >> 10, x.nnz)
    assert np.array_equal(y.data, to_dense(x).data.astype(np.int64) @ w.data.astype(np.int64))


def test_normalize_adjacency_binary():
    raw = np.array([[0, 3, 0], [3, 0, 1], [0, 1, 0]])
    a = SparseMatrixCSR.from_dense_raw(raw, 16, 2)
    b = normalize_adjacency(a, "binary")
    assert b.bits == 4 and b.frac_bits == 0
    assert np.array_equal(to_dense(b).data, (raw != 0).astype(int))


def test_normalize_adjacency_self_loop_only():
    a = SparseMatrixCSR.from_dense_raw(np.array([[1]]), 4, 0)
    s = normalize_adjacency(a, "sym_norm", bits=16, frac_bits=14)
    assert s.nnz == 1
    assert dequantize(to_dense(s))[0, 0] == 1.0


def test_normalize_adjacency_sym_norm():
    # path graph 0-1-2 plus an isolated node 3
    raw = np.zeros((4, 4), dtype=np.int64)
    raw[0, 1] = raw[1, 0] = 1
    raw[1, 2] = raw[2, 1] = 1
    a = SparseMatrixCSR.from_dense_raw(raw, 4, 0)
    s = normalize_adjacency(a, "sym_norm", bits=16, frac_bits=14)
    s.validate()
    dense = (raw != 0).astype(float) + np.eye(4)
    deg = dense.sum(axis=1)
    d = np.diag(1.0 / np.sqrt(deg))
    expect = d @ dense @ d
    assert np.abs(dequantize(to_dense(s)) - expect).max() <= 2.0 ** -15
    # at 4 bits the isolated node's self loop (1.0 -> raw 8) saturates to 7,
    # exactly as quantizing the dense grid would
    low = normalize_adjacency(a, "sym_norm", bits=4, frac_bits=3)
    want = quantize(expect, 4, 3, sparse=True)
    assert low.sat_count == want.sat_count == 1
    for name in ("row_ptr", "col_idx", "values"):
        assert np.array_equal(getattr(low, name), getattr(want, name)), name
    with pytest.raises(ValueError):
        normalize_adjacency(a, "laplacian")
    with pytest.raises(ShapeError):
        normalize_adjacency(SparseMatrixCSR.from_dense_raw(raw[:2], 4, 0), "binary")


# -- storage widths ---------------------------------------------------------------


def test_value_dtype_is_the_narrowest_that_holds_the_width():
    assert [value_dtype(b) for b in (1, 4, 8, 9, 16, 17, 32, 33, 64, 70)] == [
        np.int8, np.int8, np.int8, np.int16, np.int16, np.int32, np.int32,
        np.int64, np.int64, np.int64]
    assert value_dtype(4, -129, 0) == np.int16 and value_dtype(16, 0, 1 << 15) == np.int32
    with pytest.raises(OverflowTrap):
        value_dtype(16, 0, 1 << 63)


def test_every_producer_stores_int32_columns_and_declared_width_values(tmp_path):
    # binary adjacency and 4-bit features take int8 values, mean and sym_norm int16
    bundle = gen_powerlaw(600, 4, 2.1, seed=3, n_features=40, feature_density=0.2)
    a, f = bundle.adjacency, bundle.features
    paths = export_bundle(tmp_path, bundle)
    rng = np.random.default_rng(4)
    produced = {
        "symmetric_adjacency": (symmetric_adjacency(5, np.array([0, 1, 4]), np.array([1, 3, 4])),
                                np.int8),
        "random_features": (random_features(50, 7, 0.3, rng), np.int8),
        "from_coo": (SparseMatrixCSR.from_coo(3, 4, [2, 0], [1, 3], [5, -7], 4, 0), np.int8),
        "from_dense_raw": (SparseMatrixCSR.from_dense_raw(np.array([[0, 300], [-2, 0]]), 16, 0),
                           np.int16),
        "binary": (normalize_adjacency(a, "binary"), np.int8),
        "sym_norm": (normalize_adjacency(a, "sym_norm"), np.int16),
        "mean": (mean_adjacency(a), np.int16),
        "read_edges": (read_edges(paths["edges"], a.rows), np.int8),
        "read_features": (read_features(paths["features"]), np.int8),
        "gen adjacency": (a, np.int8),
        "gen features": (f, np.int8),
    }
    produced.update({f"tile {t}": (tile, np.int8)
                     for t, tile in enumerate(tile_columns(f, 16))})
    for name, (x, values) in produced.items():
        assert x.row_ptr.dtype == np.int64, name
        assert x.col_idx.dtype == np.int32, name
        assert x.values.dtype == values, name
        x.validate()
    assert np.array_equal(produced["read_edges"][0].col_idx, a.col_idx)
    assert np.array_equal(produced["read_features"][0].values, f.values)


def test_generated_ingested_tiled_and_normalised_matrices_validate(tmp_path):
    # GraphBundle leaves each matrix to its producer: validate() is the oracle
    for seed in (0, 1, 7919):
        bundle = gen_powerlaw(700, 4, 2.1, seed=seed, n_features=40, feature_density=0.2)
        export_bundle(tmp_path / str(seed), bundle)
        back = ingest_bundle_dir(tmp_path / str(seed))
        a = bundle.adjacency
        mats = [a, bundle.features, back.adjacency, back.features, mean_adjacency(a),
                normalize_adjacency(a, "binary"), normalize_adjacency(a, "sym_norm")]
        mats += [*tile_columns(a, 128), *tile_columns(bundle.features, 16)]
        for x in mats:
            x.validate()
        assert np.array_equal(back.adjacency.col_idx, a.col_idx)


def test_csr_in_stored_dtypes_is_held_as_given():
    # a producer that builds at the stored widths pays no scan or copy
    c, v = np.array([1, 3], np.int32), np.array([5, -7], np.int8)
    x = SparseMatrixCSR.from_coo(3, 4, np.array([0, 2]), c, v, 4, 0)
    assert x.col_idx is c and x.values is v
    y = SparseMatrixCSR(1, 4, np.array([0, 2]), c, v, 4, 0)
    assert y.col_idx is c and y.values is v and next(tile_columns(y, 4)) is y


def test_a_value_past_its_width_is_kept_exactly_never_wrapped():
    x = SparseMatrixCSR.from_dense_raw(np.array([[0, -32769]]), 16, 0)
    assert x.values.dtype == np.int32 and x.values.tolist() == [-32769]
    y = SparseMatrixCSR(1, 2, [0, 1], [1], [-32769], 16, 0)
    assert y.values.dtype == np.int32 and y.values.tolist() == [-32769]
    for m in (x, y):
        with pytest.raises(OverflowTrap, match="-32769"):
            m.validate()
        with pytest.raises(ValueError, match="exceed the 16-bit packet field"):
            packet_bits_for(m)
    # a column index int32 cannot hold is refused, not wrapped into range
    with pytest.raises(ShapeError, match="column index out of range"):
        SparseMatrixCSR(1, 10, [0, 1], [(1 << 32) + 3], [1], 4, 0)


def test_duplicates_summing_past_their_dtype_are_exact():
    v = np.array([100, 100, -100, -100, -100, 7], np.int8)
    x = SparseMatrixCSR.from_coo(2, 2, [0, 0, 1, 1, 1, 0], [1, 1, 0, 0, 0, 0], v, 16, 0)
    assert x.values.dtype == np.int16
    assert to_dense(x).data.tolist() == [[7, 200], [-300, 0]]
    x.validate()


def test_bundle_sparse_arrays_cost_at_most_5_bytes_a_nonzero(tmp_path):
    # int32 columns and int8 values; int64 columns and values cost 16
    bundle = gen_powerlaw(4096, 4, 2.1, seed=0, n_features=32, feature_density=0.1)
    export_bundle(tmp_path, bundle)
    for b in (bundle, ingest_bundle_dir(tmp_path)):
        for m in (b.adjacency, b.features):
            assert m.col_idx.nbytes + m.values.nbytes <= 5 * m.nnz
