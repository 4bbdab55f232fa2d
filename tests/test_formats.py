"""File formats: parsing, line-numbered errors, byte-exact round trips."""

import re

import numpy as np
import pytest

from gcnsim import formats
from gcnsim.formats import (
    MAX_SPARSE_DIM,
    FileFormatError,
    export_bundle,
    ingest_bundle_dir,
    read_edges,
    read_features,
    read_weights,
    write_edges,
    write_features,
    write_meta,
    write_weights,
)
from gcnsim.graphs import GraphBundle, gen_powerlaw, random_weights, symmetric_adjacency
from gcnsim.matrix import DenseMatrix, SparseMatrixCSR, value_dtype
from helpers import read_meta, to_dense, traced_peak
from test_golden_census import make_bundle as make_golden_bundle


def test_two_node_single_edge_symmetrizes(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0 1\n")
    a = read_edges(p, 2)
    assert a.nnz == 2
    assert to_dense(a).data.tolist() == [[0, 1], [1, 0]]


def test_edges_dedupe_comments_and_self_loops(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("# a comment\n0 1\n1 0\n0 1\n\n2 2\n")
    a = read_edges(p, 3)
    assert to_dense(a).data.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    empty = tmp_path / "none.txt"
    empty.write_text("# nothing\n")
    assert read_edges(empty, 4).nnz == 0


def test_edge_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0 1\n1 2 3\n")
    with pytest.raises(FileFormatError, match=r"e\.txt:2"):
        read_edges(p, 4)
    p.write_text("0 1\n\nx 2\n")
    with pytest.raises(FileFormatError, match=r"e\.txt:3.*non-integer"):
        read_edges(p, 4)
    p.write_text("0 9\n")
    with pytest.raises(FileFormatError, match="out of range"):
        read_edges(p, 4)


def test_dense_feature_grid_quantizes(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("0.5 0.0\n-1.0 0.25\n")
    f = read_features(p)
    assert f.rows == 2 and f.cols == 2
    assert f.bits == 4 and f.frac_bits == 3
    assert to_dense(f).data.tolist() == [[4, 0], [-8, 2]]
    p.write_text("0.5 0.0\n1.0\n")
    with pytest.raises(FileFormatError, match=r"f\.txt:2.*expected 2 columns"):
        read_features(p)
    p.write_text("0.5 oops\n")
    with pytest.raises(FileFormatError, match="non-numeric"):
        read_features(p)
    p.write_text("")
    with pytest.raises(FileFormatError, match="empty"):
        read_features(p)


def test_sparse_feature_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    grid = np.where(rng.random((7, 5)) < 0.4, rng.integers(-8, 8, (7, 5)), 0)
    f = SparseMatrixCSR.from_dense_raw(grid, 4, 3)
    p = tmp_path / "f.txt"
    write_features(p, f)
    back = read_features(p)
    assert back.rows == f.rows and back.cols == f.cols
    assert back.bits == f.bits and back.frac_bits == f.frac_bits
    assert np.array_equal(back.row_ptr, f.row_ptr)
    assert np.array_equal(back.col_idx, f.col_idx)
    assert np.array_equal(back.values, f.values)


def test_sparse_feature_errors(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("sparse 2 2\n")
    with pytest.raises(FileFormatError, match="header"):
        read_features(p)
    p.write_text("sparse 2 2 4 3\n0 0 1 9\n")
    with pytest.raises(FileFormatError, match=r"f\.txt:2"):
        read_features(p)
    p.write_text("sparse 2 2 4 3\n5 0 1\n")
    with pytest.raises(FileFormatError, match="outside"):
        read_features(p)


def test_weight_container_round_trip(tmp_path):
    ws = random_weights([6, 4, 3], seed=2)
    ws.append(DenseMatrix(np.array([[30000, -30000]]), 16, 11))
    p = tmp_path / "w.bin"
    write_weights(p, ws)
    back = read_weights(p)
    assert len(back) == 3
    for a, b in zip(ws, back):
        assert a.bits == b.bits and a.frac_bits == b.frac_bits
        assert np.array_equal(a.data, b.data)


def test_weight_container_holds_int32_and_refuses_wider(tmp_path):
    lo, hi = -(1 << 31), (1 << 31) - 1
    p = tmp_path / "w.bin"
    edge = DenseMatrix(np.array([[lo, hi], [0, -1]]), 32, 0)
    write_weights(p, [edge])
    assert np.array_equal(read_weights(p)[0].data, edge.data)
    for wide in (hi + 1, lo - 1):  # once wrapped: 2^31 read back as -2^31
        with pytest.raises(ValueError, match="weight matrix 1 "):
            write_weights(tmp_path / "wide.bin",
                          [edge, DenseMatrix(np.array([[wide]]), 64, 0)])
        assert not (tmp_path / "wide.bin").exists()


def test_weight_headers_are_checked_before_the_file_opens(tmp_path):
    p = tmp_path / "w.bin"
    ok = DenseMatrix(np.ones((2, 2), np.int64), 4, 0)
    for field, bad in (("bits", DenseMatrix(np.ones((2, 2), np.int64), 70000, 0)),
                       ("frac_bits", DenseMatrix(np.ones((2, 2), np.int64), 4, 1 << 16))):
        with pytest.raises(ValueError, match=f"weight matrix 1: {field} "):
            write_weights(p, [ok, bad])
        assert not p.exists()


def test_write_weights_refuses_what_read_weights_refuses(tmp_path):
    # bits outside 1..32 and entries outside the declared width, named before
    # the file opens
    p = tmp_path / "w.bin"
    ok = DenseMatrix(np.ones((2, 2), np.int64), 4, 0)
    for bad, message in ((DenseMatrix(np.ones((2, 2), np.int64), 0, 0), "bits 0 not 1 to 32"),
                         (DenseMatrix(np.ones((2, 2), np.int64), 33, 0), "bits 33 not 1 to 32"),
                         (DenseMatrix(np.full((2, 2), 100), 4, 0), "outside its 4-bit range"),
                         (DenseMatrix(np.full((2, 2), -9), 4, 0), "outside its 4-bit range")):
        with pytest.raises(ValueError, match=f"weight matrix 1.*{message}"):
            write_weights(p, [ok, bad])
        assert not p.exists()
    edge = DenseMatrix(np.array([[-8, 7]]), 4, 0)  # the range's ends are written and read
    write_weights(p, [edge])
    assert np.array_equal(read_weights(p)[0].data, edge.data)


def test_read_weights_holds_each_matrix_at_its_width(tmp_path):
    p = tmp_path / "w.bin"
    ws = [DenseMatrix(np.full((2, 3), v), bits, 0)
          for v, bits in ((-8, 4), (7, 4), (-32768, 16), (2**31 - 1, 32), (-(2**31), 32))]
    write_weights(p, ws)
    for w, back in zip(ws, read_weights(p)):
        assert back.data.dtype == value_dtype(w.bits) and np.array_equal(back.data, w.data)
    # read straight at its width from the container's int32 entries: a 4-bit
    # 512 x 512 matrix is 1 MiB of file and 256 KiB read; an int64 copy on the
    # way would add 2 MiB
    write_weights(p, [DenseMatrix(np.random.default_rng(5).integers(-8, 8, (512, 512)), 4, 3)])
    (back,), peak = traced_peak(read_weights, p)
    assert back.data.dtype == np.int8
    assert peak <= p.stat().st_size + 2 * back.data.nbytes, peak >> 10


def test_weight_container_rejects_garbage(tmp_path):
    p = tmp_path / "w.bin"
    p.write_bytes(b"XX")
    with pytest.raises(FileFormatError, match="truncated"):
        read_weights(p)
    p.write_bytes(b"NOPE\x01\x00\x00\x00")
    with pytest.raises(FileFormatError, match="magic"):
        read_weights(p)
    write_weights(p, random_weights([2, 2], seed=0))
    data = p.read_bytes()
    p.write_bytes(data[:-3])
    with pytest.raises(FileFormatError, match="truncated data"):
        read_weights(p)
    p.write_bytes(data + b"\x00")
    with pytest.raises(FileFormatError, match="trailing"):
        read_weights(p)


def test_meta_sidecar_round_trip(tmp_path):
    p = tmp_path / "meta.json"
    write_meta(p, {"tiles": [{"cycles": 3}], "config": {"pe_count": 4}})
    doc = read_meta(p)
    assert doc["tiles"][0]["cycles"] == 3
    p.write_text("{]")
    with pytest.raises(FileFormatError):
        read_meta(p)
    p.write_text('{"meta_version": 99}')
    with pytest.raises(FileFormatError):
        read_meta(p)


def test_bundle_export_ingest_identity(tmp_path):
    bundle = gen_powerlaw(60, 3, 2.1, seed=8, n_features=10, feature_density=0.3)
    bundle.weights = random_weights([10, 5, 2], seed=4)
    export_bundle(tmp_path / "b", bundle)
    back = ingest_bundle_dir(tmp_path / "b")
    assert np.array_equal(back.adjacency.row_ptr, bundle.adjacency.row_ptr)
    assert np.array_equal(back.adjacency.col_idx, bundle.adjacency.col_idx)
    assert np.array_equal(back.features.values, bundle.features.values)
    assert len(back.weights) == 2
    assert all(np.array_equal(a.data, b.data)
               for a, b in zip(back.weights, bundle.weights))


def test_ingest_bundle_dir_validates_against_features(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
    (tmp_path / "features.txt").write_text("sparse 3 2 4 3\n0 0 4\n2 1 -3\n")
    b = ingest_bundle_dir(tmp_path)
    assert b.nodes == 3
    assert b.adjacency.nnz == 4
    assert b.weights == []
    (tmp_path / "edges.txt").write_text("0 3\n")
    with pytest.raises(FileFormatError, match="out of range"):
        ingest_bundle_dir(tmp_path)


# -- the reader against the line parser it replaced, kept here as the spec -------------


def spec_data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def spec_fail(path, lineno, msg):
    raise FileFormatError(f"{path}:{lineno}: {msg}")


def spec_read_edges(path, nodes):
    """The line parser read_edges had: each line checked in full in turn."""
    pairs = []
    for lineno, line in spec_data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            spec_fail(path, lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            spec_fail(path, lineno, f"non-integer node id in {line!r}")
        if not (0 <= u < nodes and 0 <= v < nodes):
            spec_fail(path, lineno, f"node id out of range [0, {nodes}) in {line!r}")
        pairs.append((u, v))
    return symmetric_adjacency(nodes, *np.array(pairs, dtype=np.int64).reshape(-1, 2).T)


def spec_read_features(path):
    """The line parser read_features had; a dense grid goes to the shipped
    dense branch, which the array reader left as it was."""
    lines = list(spec_data_lines(path))
    if not lines:
        raise FileFormatError(f"{path}: empty feature file")
    if lines[0][1].split()[0] != "sparse":
        return formats._read_dense(path, lines)
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 5:
        spec_fail(path, lineno, "sparse header needs 'sparse rows cols bits frac'")
    try:
        n, m, bits, frac = (int(p) for p in parts[1:])
    except ValueError:
        spec_fail(path, lineno, f"non-integer sparse header field in {header!r}")
    if min(n, m) < 0 or not 0 <= frac < bits <= 64:
        spec_fail(path, lineno,
                  f"sparse header needs sizes >= 0, 0 <= frac < bits <= 64: {header!r}")
    if max(n, m) > MAX_SPARSE_DIM:
        spec_fail(path, lineno, f"sparse header sizes must be <= {MAX_SPARSE_DIM}: {header!r}")
    rr, cc, vv = [], [], []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            spec_fail(path, lineno, f"expected 'row col value', got {line!r}")
        try:
            r, c, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            spec_fail(path, lineno, f"non-integer triplet in {line!r}")
        if not (0 <= r < n and 0 <= c < m):
            spec_fail(path, lineno, f"position ({r}, {c}) outside {n}x{m}")
        rr.append(r)
        cc.append(c)
        vv.append(v)
    try:
        r, c, v = (np.array(a, dtype=np.int64) for a in (rr, cc, vv))
    except OverflowError:
        raise FileFormatError(f"{path}: a triplet value does not fit 64 bits") from None
    repeat = np.zeros(len(r), dtype=bool)
    if not ((np.diff(r) > 0) | (np.diff(r) == 0) & (np.diff(c) > 0)).all():
        order = np.lexsort((c, r))
        repeat[order[1:]] = (np.diff(r[order]) == 0) & (np.diff(c[order]) == 0)
    wide = (v < -(1 << (bits - 1))) | (v > (1 << (bits - 1)) - 1)
    for bad, msg in ((wide, f"value outside the {bits}-bit range"), (repeat, "repeated position")):
        if bad.any():
            lineno, line = lines[1 + int(np.argmax(bad))]
            spec_fail(path, lineno, f"{msg} in {line!r}")
    return SparseMatrixCSR.from_coo(n, m, r, c, v, bits, frac)


NOT_UTF8 = "not UTF-8"  # the outcome of the spec on bytes that are not UTF-8


def outcome(read):
    """A reader's CSR fields, or the message of the FileFormatError it raised;
    the spec raises UnicodeDecodeError on bytes that are not UTF-8."""
    try:
        m = read()
    except FileFormatError as exc:
        return str(exc)
    except UnicodeDecodeError:
        return NOT_UTF8
    return (m.rows, m.cols, m.bits, m.frac_bits, m.row_ptr.tolist(),
            m.col_idx.tolist(), m.values.tolist())


def reader_and_spec(path, nodes):
    """Outcomes of the shipped reader and of the spec on an edges.txt (read
    for nodes nodes) or a features.txt."""
    if path.name == "edges.txt":
        return (outcome(lambda: read_edges(path, nodes)),
                outcome(lambda: spec_read_edges(path, nodes)))
    return outcome(lambda: read_features(path)), outcome(lambda: spec_read_features(path))


def agrees(path, shipped, spec) -> bool:
    """The reader gives the spec's matrix or message, except where it names a
    line the spec could not: a triplet value past int64 is too wide for its
    line, and a byte that is not UTF-8 fails its line (the spec raised a
    bare codec error, which exits 4)."""
    if spec == f"{path}: a triplet value does not fit 64 bits":
        return re.fullmatch(rf"{re.escape(str(path))}:\d+: value outside the \d+-bit range in .*",
                            str(shipped)) is not None
    if spec == NOT_UTF8:
        return re.match(rf"{re.escape(str(path))}:\d+: not UTF-8 text", str(shipped)) is not None
    return shipped == spec


I64_MAX, I64_MIN = (1 << 63) - 1, -(1 << 63)
ARABIC = "٠١٢٣"  # Arabic-Indic 0 1 2 3; int() reads them

# (text, whether the reader reads it without the line loop or the dense branch)
FEATURE_TEXTS = {
    "plain": ("sparse 3 4 4 3\n0 0 1\n0 3 -7\n2 1 7\n", True),
    "unordered": ("sparse 3 4 4 3\n2 1 7\n0 3 -7\n0 0 1\n", True),
    "unordered-in-row": ("sparse 3 4 4 3\n0 3 -7\n0 0 1\n", True),
    "no-trailing-newline": ("sparse 3 4 4 3\n0 0 1\n2 1 -8", False),
    "tabs-and-spaces": ("sparse 3 4 4 3\n0\t0  1\n 2 1\t-8 \n", True),
    "leading-zeros-and-minus-zero": ("sparse 3 4 4 3\n000 2 1\n1 01 -0\n", True),
    "header-only": ("sparse 3 4 4 3\n", True),
    "header-only-no-newline": ("sparse 3 4 4 3", True),
    "header-then-spaces": ("sparse 3 4 4 3\n  ", False),  # fromstring reads "  " as [0]
    "near-int64-extremes": (f"sparse 2 2 64 0\n0 1 {I64_MIN + 1}\n1 0 {I64_MAX - 1}\n", True),
    "comments": ("# c\nsparse 3 4 4 3\n0 0 1\n# mid\n2 1 -8\n", False),
    "blank-lines": ("sparse 3 4 4 3\n\n0 0 1\n   \n2 1 -8\n\n", False),
    "crlf": ("sparse 3 4 4 3\r\n0 0 1\r\n2 1 -8\r\n", False),
    "cr-inside-header": ("sparse 3\r4 4 3\n0 0 1\n", True),  # fails before the body is read
    "header-spacing": ("sparse  3 4 4 3\n0 0 1\n", True),
    "plus-sign": ("sparse 3 4 4 3\n0 0 +7\n", False),
    "underscore": ("sparse 3 4 16 3\n0 0 1_0\n", False),
    "arabic-indic": (f"sparse 3 4 4 3\n{ARABIC[0]} {ARABIC[1]} {ARABIC[3]}\n", False),
    "int64-extremes": (f"sparse 3 4 64 0\n0 0 {I64_MAX}\n0 1 {-I64_MAX}\n1 0 {I64_MIN}\n",
                       False),
    "20-digit-negative": ("sparse 3 4 64 0\n0 0 -99999999999999999999\n", False),
    "lines-of-2-and-4": ("sparse 3 4 4 3\n0 0\n1 1 1 2\n", False),
    "lines-of-4-and-2": ("sparse 3 4 4 3\n0 0 1 1\n1 2\n", False),
    "bare-minus": ("sparse 3 4 4 3\n0 0 -\n", False),
    "split-minus": ("sparse 3 4 4 3\n0 0 - 3\n", False),
    "inner-minus": ("sparse 3 4 4 3\n0 1-2 3\n", False),
    "position-outside": ("sparse 3 4 4 3\n0 0 1\n3 0 1\n", True),
    "negative-position": ("sparse 3 4 4 3\n0 -1 1\n", True),
    "value-over-width": ("sparse 3 4 4 3\n0 0 1\n1 1 8\n", True),
    # past the int8 column a 4-bit value is parsed into, or the int32 column index
    "value-past-its-dtype": ("sparse 3 4 4 3\n0 0 1\n1 1 300\n", True),
    "column-past-int32": ("sparse 3 4 4 3\n0 0 1\n1 4294967297 1\n", True),
    "repeated-position": ("sparse 3 4 4 3\n1 1 2\n0 0 7\n1 1 2\n", True),
    "frac-not-below-bits": ("sparse 3 4 4 4\n0 0 1\n", True),
    "rows-over-bound": (f"sparse {MAX_SPARSE_DIM + 1} 4 4 3\n0 0 1\n", True),
    "cols-2^63": (f"sparse 3 {1 << 63} 4 3\n0 0 1\n", True),
    "not-sparse-first-token": ("sparse3 4 4 3\n0 0 1\n", False),  # a dense grid
    "blank-then-integer-grid": ("\n1 0 1\n0 1 1\n", False),  # a dense grid too
    # two faults: the first bad line the old line-by-line checks met is named
    "outside-then-non-integer": ("sparse 3 4 4 3\n5 0 1\n0 0 1\nx 0 1\n", False),
    "outside-then-short-line": ("sparse 3 4 4 3\n0 9 1\n0 0 1\n0 1\n", False),
    "non-integer-then-outside": ("sparse 3 4 4 3\n0 x 1\n0 9 1\n", False),
    "wide-then-short-line": ("sparse 3 4 4 3\n0 0 9\n0 0 1\n0 1\n", False),
    "wide-then-repeat": ("sparse 3 4 4 3\n0 0 9\n1 1 2\n1 1 2\n", True),
    "repeat-then-wide": ("sparse 3 4 4 3\n1 1 2\n1 1 2\n2 0 -9\n", True),
}

EDGE_TEXTS = {
    "plain": ("0 1\n1 2\n2 3\n", True),
    "duplicates-and-self-loops": ("2 2\n0 1\n1 0\n0 1\n", True),
    "no-trailing-newline": ("0 1\n1 2", False),
    "tabs-and-spaces": ("0\t1\n  1  2 \n", True),
    "trailing-spaces": ("0 1\n1 2\n  ", True),
    "empty": ("", True),
    "spaces-only": ("  ", False),
    "comments": ("# c\n0 1\n# mid\n1 2\n", False),
    "blank-lines": ("0 1\n\n \n1 2\n", False),
    "crlf": ("0 1\r\n1 2\r\n", False),
    "plus-sign": ("+0 1\n", False),
    "underscore": ("1_0 2\n", False),
    "arabic-indic": (f"{ARABIC[0]} {ARABIC[2]}\n", False),
    "int64-max": (f"0 {I64_MAX}\n", False),
    "20-digit-negative": ("0 -99999999999999999999\n", False),
    "lines-of-1-and-3": ("0\n1 2 3\n", False),
    "lines-of-3-and-1": ("0 1 2\n3\n", False),
    "bare-minus": ("0 -\n", False),
    "out-of-range": ("0 1\n0 16\n", True),
    "past-int32": ("0 1\n4294967297 2\n", True),  # parsed into int32 columns
    "negative": ("0 1\n-1 2\n", True),
    "non-integer": ("0 1\n1 x\n", False),
    # two faults: the first bad line the old line-by-line checks met is named
    "out-of-range-then-non-integer": ("0 1\n0 16\n1 2\nx 1\n", False),
    "negative-then-short-line": ("0 1\n-1 2\n1 2\n0\n", False),
    "non-integer-then-out-of-range": ("0 x\n0 16\n", False),
}


def reaches_line_loop(monkeypatch, read) -> bool:
    """Whether read() reads any line in a loop: the triplet or edge line loop,
    or the dense-grid branch."""
    calls = []
    with monkeypatch.context() as m:
        for name in ("_line_columns", "_read_dense"):
            m.setattr(formats, name, lambda *a, f=getattr(formats, name): calls.append(1) or f(*a))
        outcome(read)
    return bool(calls)


@pytest.mark.parametrize("name", FEATURE_TEXTS)
def test_feature_array_path_matches_line_parser(tmp_path, monkeypatch, name):
    text, fast = FEATURE_TEXTS[name]
    p = tmp_path / "features.txt"
    p.write_bytes(text.encode("utf-8"))
    shipped, spec = reader_and_spec(p, None)
    assert agrees(p, shipped, spec), (shipped, spec)
    assert reaches_line_loop(monkeypatch, lambda: read_features(p)) != fast


@pytest.mark.parametrize("name", EDGE_TEXTS)
def test_edge_array_path_matches_line_parser(tmp_path, monkeypatch, name):
    text, fast = EDGE_TEXTS[name]
    p = tmp_path / "edges.txt"
    p.write_bytes(text.encode("utf-8"))
    shipped, spec = reader_and_spec(p, 16)
    assert shipped == spec
    assert reaches_line_loop(monkeypatch, lambda: read_edges(p, 16)) != fast


def test_line_parser_messages_survive_the_array_path(tmp_path):
    p = tmp_path / "features.txt"
    for name, message in (
            ("lines-of-2-and-4", "features.txt:2: expected 'row col value', got '0 0'"),
            ("bare-minus", "features.txt:2: non-integer triplet in '0 0 -'"),
            ("position-outside", "features.txt:3: position (3, 0) outside 3x4"),
            ("rows-over-bound", f"features.txt:1: sparse header sizes must be <= {MAX_SPARSE_DIM}"),
            ("cols-2^63", f"features.txt:1: sparse header sizes must be <= {MAX_SPARSE_DIM}"),
            ("outside-then-non-integer", "features.txt:2: position (5, 0) outside 3x4"),
            ("wide-then-short-line", "features.txt:4: expected 'row col value', got '0 1'"),
            ("repeat-then-wide", "features.txt:4: value outside the 4-bit range in '2 0 -9'"),
            ("20-digit-negative",
             "features.txt:2: value outside the 64-bit range in '0 0 -99999999999999999999'")):
        p.write_text(FEATURE_TEXTS[name][0])
        with pytest.raises(FileFormatError) as exc:
            read_features(p)
        assert message in str(exc.value), name
    q = tmp_path / "edges.txt"
    q.write_text(EDGE_TEXTS["lines-of-1-and-3"][0])
    with pytest.raises(FileFormatError, match=r"edges\.txt:1: expected 'u v', got '0'"):
        read_edges(q, 16)


def test_bytes_that_are_not_utf8_fail_their_line(tmp_path):
    # the line counts CR, CRLF and LF as open() does; the spec raised a bare
    # UnicodeDecodeError instead
    q = tmp_path / "edges.txt"
    for data, lineno in ((b"0 1\n1 \xff2\n", 2), (b"0 1\r1 2\r\n\xfe\n", 3), (b"\x80", 1)):
        q.write_bytes(data)
        with pytest.raises(FileFormatError, match=rf"edges\.txt:{lineno}: not UTF-8 text"):
            read_edges(q, 4)
        assert agrees(q, *reader_and_spec(q, 4))
    p = tmp_path / "features.txt"
    for data, lineno in ((b"sparse 2 2 4 3\xe9\n0 0 1\n", 1), (b"sparse 2 2 4 3\n0 0 1 \xc3\n", 2)):
        p.write_bytes(data)
        with pytest.raises(FileFormatError, match=rf"features\.txt:{lineno}: not UTF-8 text"):
            read_features(p)
        assert agrees(p, *reader_and_spec(p, None))


@pytest.mark.parametrize("seed", [0, 1, 2, "golden-census"])
def test_exported_bundles_take_the_array_path(tmp_path, monkeypatch, seed):
    bundle = (make_golden_bundle() if seed == "golden-census" else
              gen_powerlaw(300, 4, 2.1, seed=seed, n_features=24, feature_density=0.2))
    export_bundle(tmp_path, bundle)

    def line_loop(*args):
        raise AssertionError("an exported bundle reached the line loop")

    monkeypatch.setattr(formats, "_line_columns", line_loop)
    back = ingest_bundle_dir(tmp_path)
    assert outcome(lambda: back.features) == outcome(lambda: bundle.features)
    assert outcome(lambda: back.adjacency) == outcome(lambda: bundle.adjacency)


# -- writers against their per-line spec ----------------------------------------------


def write_edges_by_lines(path, a):
    """The per-line writer: the spec write_edges must match byte for byte."""
    rr = np.repeat(np.arange(a.rows), a.row_nnz())
    keep = rr <= a.col_idx
    with open(path, "w") as fh:
        for u, v in zip(rr[keep], a.col_idx[keep]):
            fh.write(f"{u} {v}\n")


def write_features_by_lines(path, f):
    """The per-line writer: the spec write_features must match byte for byte."""
    rr = np.repeat(np.arange(f.rows), f.row_nnz())
    with open(path, "w") as fh:
        fh.write(f"sparse {f.rows} {f.cols} {f.bits} {f.frac_bits}\n")
        for r, c, v in zip(rr, f.col_idx, f.values):
            fh.write(f"{r} {c} {v}\n")


def empty_csr(rows, cols, bits, frac):
    none = np.zeros(0, dtype=np.int64)
    return SparseMatrixCSR(rows, cols, np.zeros(rows + 1, dtype=np.int64), none, none,
                           bits, frac)


def identity(n):
    return SparseMatrixCSR.from_coo(n, n, np.arange(n), np.arange(n), np.ones(n), 4, 0)


def column(values, bits):
    """One value per row in column 0, so the column-index column is all zero."""
    n = len(values)
    return SparseMatrixCSR.from_coo(n, 1, np.arange(n), np.zeros(n), values, bits, 0)


def test_writers_match_the_per_line_spec(tmp_path):
    bundles = [gen_powerlaw(500, 4, 2.1, seed=s, n_features=16, feature_density=0.3)
               for s in (0, 7, 19)]
    wide = SparseMatrixCSR.from_coo(3, 2, [0, 2], [1, 0], [-30000, 32767], 16, 11)
    bundles.append(GraphBundle(empty_csr(3, 3, 4, 0), wide))                 # no edges
    bundles.append(GraphBundle(bundles[0].adjacency, empty_csr(500, 16, 4, 3)))  # no features
    bundles.append(GraphBundle(identity(1), column([-5], 4)))  # one line each, zeros
    # every decimal width on both sides of each power of ten, and the int64 extremes
    mags = sorted({10 ** k + d for k in range(19) for d in (-1, 0)} - {0})
    values = mags + [-m for m in mags] + [2**63 - 1, -2**63]
    bundles.append(GraphBundle(identity(len(values)), column(values, 64)))
    # columns whose largest magnitude is exactly a power of ten
    bundles += [GraphBundle(identity(2), column([10 ** k, -10 ** k], 64)) for k in range(19)]
    f = bundles[1].features  # an all-negative value column
    bundles.append(GraphBundle(bundles[1].adjacency, SparseMatrixCSR(
        f.rows, f.cols, f.row_ptr, f.col_idx, -np.abs(f.values), 4, 3)))
    # both files end exactly on a chunk of lines, then on a block of entries
    for n in (2 * formats._WRITE_LINES, formats._WRITE_ENTRIES):
        bundles.append(GraphBundle(identity(n), column(np.full(n, 7), 4)))
    # several of the writers' blocks of entries, each several chunks of lines
    bundles.append(gen_powerlaw(9000, 4, 2.1, seed=23, n_features=16, feature_density=0.3))
    assert min(bundles[-1].adjacency.nnz, bundles[-1].features.nnz) > 2 * formats._WRITE_ENTRIES
    for i, bundle in enumerate(bundles):
        paths = export_bundle(tmp_path / f"b{i}", bundle)
        write_edges_by_lines(tmp_path / "spec_edges.txt", bundle.adjacency)
        write_features_by_lines(tmp_path / "spec_features.txt", bundle.features)
        assert paths["edges"].read_bytes() == (tmp_path / "spec_edges.txt").read_bytes()
        assert paths["features"].read_bytes() == (tmp_path / "spec_features.txt").read_bytes()
    assert (tmp_path / "b3" / "edges.txt").read_bytes() == b""
    assert (tmp_path / "b4" / "features.txt").read_bytes() == b"sparse 500 16 4 3\n"
    assert (tmp_path / "b5" / "edges.txt").read_bytes() == b"0 0\n"
    assert (tmp_path / "b5" / "features.txt").read_bytes() == b"sparse 1 1 4 0\n0 0 -5\n"
    assert (tmp_path / "b6" / "features.txt").read_text().splitlines()[-2:] == [
        f"{len(values) - 2} 0 9223372036854775807", f"{len(values) - 1} 0 -9223372036854775808"]


def test_writers_memory_is_bounded(tmp_path):
    # building a whole file as one string took about 84 traced bytes per
    # edge nonzero and 140 per feature nonzero, and a row index per nonzero
    # 20 and 15; a chunk of lines at a time, rows taken from the row pointers,
    # the writers hold one chunk's arrays and text (0.4-0.7 MB here), at any size
    bundle = gen_powerlaw(16384, 4, 2.1, seed=0, n_features=32, feature_density=0.1)
    for write, m in ((write_edges, bundle.adjacency), (write_features, bundle.features)):
        _, peak = traced_peak(write, tmp_path / "out.txt", m)
        assert peak <= 1 << 20, (write.__name__, peak)


# -- ingest memory -----------------------------------------------------------------------


def test_ingest_memory_is_linear_in_file_bytes(tmp_path):
    # the line parser held each line as a tuple and then Python int lists,
    # about 22 traced bytes per file byte; the array path needs about 6.8
    bundle = gen_powerlaw(16384, 4, 2.1, seed=1, n_features=32, feature_density=0.1)
    paths = export_bundle(tmp_path, bundle)
    for path, read in ((paths["features"], lambda: read_features(paths["features"])),
                       (paths["edges"], lambda: read_edges(paths["edges"], 16384))):
        _, peak = traced_peak(read)
        budget = 9 * path.stat().st_size + (64 << 10)
        assert peak <= budget, (path.name, peak, budget)
