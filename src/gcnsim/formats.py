"""On-disk formats: edge lists, feature files, weight containers, metadata.

Text formats are line oriented and parse errors always carry the file name
and 1-based line number. Edge and sparse feature files are parsed into and
checked as whole int64 columns, a bounded chunk of text at a time; the line
parser reads only text outside the writers' plain form or text that fails a
check, to give the same matrix or name the bad line. The writers format a
bounded chunk of lines at a time as one byte matrix, with the bytes
`str(int)` would give. The weight container
is binary little-endian. All of it exists so a workload can round-trip
through files byte-exactly.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .graphs import GraphBundle, symmetric_adjacency
from .matrix import DenseMatrix, SparseMatrixCSR, int_max, int_min, quantize

WEIGHT_MAGIC = b"GCNW"
WEIGHT_VERSION = 1
META_VERSION = 1

_WHEADER = struct.Struct("<4sHH")       # magic, version, matrix count
_WMATRIX = struct.Struct("<IIHH")       # rows, cols, bits, frac_bits

EDGE_FILE = "edges.txt"
FEATURE_FILE = "features.txt"
WEIGHT_FILE = "weights.bin"
MAX_SPARSE_DIM = 1 << 27   # rows or cols of a sparse header; row_ptr <= 1 GiB

_INT64 = np.iinfo(np.int64)
_PLAIN = b"0123456789- \t\n"   # the only bytes the writers emit
_WRITE_LINES = 1 << 12           # lines of text a writer builds at once
_READ_BYTES = 1 << 20            # text a reader parses at once
_SHOWN = 10 ** np.arange(20, dtype=np.uint64)  # a digit at place p shows from 10^p up,
_SHOWN[0] = 0                                  # the units digit always


class FileFormatError(ValueError):
    """Unparseable or inconsistent input file."""


def _fail(path, lineno: int, msg: str):
    raise FileFormatError(f"{path}:{lineno}: {msg}")


def _data_lines(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def _int_rows(data: bytes, width: int, pos: int = 0) -> list[np.ndarray] | None:
    """The width int64 columns of the plain-form text data[pos:], one entry a
    line, else None: the line parser must read text with other bytes ('#',
    '+', '_', CR, non-ASCII), a line of another token count (blank or unended
    lines too), a '-' not leading digits or an int64 extreme, which fromstring
    may have clipped. The text is parsed about _READ_BYTES at a time, cut
    after a newline, into columns allocated once, so that the parse's
    temporaries stay bounded by the chunk."""
    cols = [np.empty(data.count(b"\n", pos), dtype=np.int64) for _ in range(width)]
    at = 0
    while pos < len(data):
        end = data.find(b"\n", pos + _READ_BYTES) + 1 or len(data)
        chunk = data[pos:end]
        if chunk.translate(None, _PLAIN):
            return None
        b = np.frombuffer(chunk, dtype=np.uint8)
        start = b > ord(" ")  # digits and '-'; only space, tab and newline are below
        start[1:] &= b[:-1] <= ord(" ")
        starts = np.flatnonzero(start)
        ends = np.flatnonzero(b == ord("\n"))
        after_minus = b[np.minimum(np.flatnonzero(b == ord("-")) + 1, len(b) - 1)]
        # exactly width tokens a line: each line's first token follows the
        # newline before it and its last token precedes its own
        if (len(starts) != width * len(ends) or (starts[width::width] < ends[:-1]).any()
                or (starts[width - 1::width] > ends).any() or (after_minus < ord("0")).any()):
            return None
        try:
            t = np.fromstring(chunk, dtype=np.int64, sep=" ")
        except ValueError:  # a '-' inside a token
            return None
        if len(t) != len(starts) or ((t == _INT64.min) | (t == _INT64.max)).any():
            return None
        for col, part in zip(cols, t.reshape(-1, width).T):
            col[at:at + len(part)] = part
        at, pos = at + len(ends), end
    return cols


# -- edges --------------------------------------------------------------------


def read_edges(path, nodes: int) -> SparseMatrixCSR:
    """Whitespace "u v" pairs, 0-indexed, into a symmetrized binary adjacency.

    Duplicates collapse; self loops are kept as written (normalization decides
    what to do with them later): symmetric_adjacency, one in-place sort of
    both directions' keys.
    """
    uv = _int_rows(Path(path).read_bytes(), 2)
    if uv is None or any(((c < 0) | (c >= nodes)).any() for c in uv):
        pairs = []  # the line parser, which names a bad line
        for lineno, line in _data_lines(path):
            parts = line.split()
            if len(parts) != 2:
                _fail(path, lineno, f"expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                _fail(path, lineno, f"non-integer node id in {line!r}")
            if not (0 <= u < nodes and 0 <= v < nodes):
                _fail(path, lineno, f"node id out of range [0, {nodes}) in {line!r}")
            pairs.append((u, v))
        uv = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return symmetric_adjacency(nodes, *uv)


def _int_lines(columns: list[np.ndarray]) -> bytes:
    """One line per entry of the equal-length int64 columns: each entry in
    decimal, a space between entries, a newline after the last.

    The text is a uint8 matrix with one row per byte position and one column
    per line. Each input column takes a sign byte, as many digit rows as its
    largest magnitude has digits (divided out by 10 from the uint64
    magnitude, so int64 min works) and a separator row. A sign or leading
    zero that does not show is a 0 byte, which the final translate deletes.
    """
    parts = []
    for c in columns:
        neg = c < 0
        u = c.astype(np.uint64)
        mag = np.where(neg, -u, u)
        parts.append((neg, mag, 1 + int((mag.max() >= _SHOWN[1:]).sum())))
    text = np.empty((sum(d + 2 for _, _, d in parts), len(columns[0])), dtype=np.uint8)
    at = 0
    for neg, mag, d in parts:
        text[at] = neg * ord("-")
        digits = text[at + 1:at + 1 + d]
        shown = mag >= _SHOWN[d - 1::-1, None]
        for k in range(d - 1, -1, -1):
            q = mag // 10
            digits[k] = mag - q * 10 + ord("0")
            mag = q
        digits *= shown
        text[at + d + 1] = ord(" ")
        at += d + 2
    text[-1] = ord("\n")
    return text.T.tobytes().translate(None, b"\0")


def _write_lines(path, head: str, *columns: np.ndarray) -> None:
    """A text file: head, then _int_lines of the int64 columns, written a
    chunk of lines at a time so memory stays bounded."""
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for s0 in range(0, len(columns[0]), _WRITE_LINES):
            fh.write(_int_lines([c[s0:s0 + _WRITE_LINES] for c in columns]))


def write_edges(path, a: SparseMatrixCSR) -> None:
    """One line per undirected edge (u <= v); assumes a symmetric matrix."""
    rr = np.repeat(np.arange(a.rows), a.row_nnz())
    keep = rr <= a.col_idx
    _write_lines(path, "", rr[keep], a.col_idx[keep])


# -- features -----------------------------------------------------------------


def read_features(path) -> SparseMatrixCSR:
    """Sparse triplet file (with a "sparse" header) or a dense real grid.

    Triplets carry raw fixed-point values exactly; dense grids are real
    numbers quantized to the SINT4 feature precision.
    """
    fast = _read_plain_sparse(Path(path).read_bytes())
    if fast is not None:
        return fast
    rows = []
    lines = list(_data_lines(path))
    if not lines:
        raise FileFormatError(f"{path}: empty feature file")
    first_line = lines[0][1]
    if first_line.split()[0] == "sparse":
        return _read_sparse_features(path, lines)
    width = None
    for lineno, line in lines:
        try:
            vals = [float(tok) for tok in line.split()]
        except ValueError:
            _fail(path, lineno, f"non-numeric feature value in {line!r}")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            _fail(path, lineno, f"expected {width} columns, got {len(vals)}")
        rows.append(vals)
    grid = np.array(rows)
    if np.isnan(grid).any():
        _fail(path, lines[int(np.isnan(grid).any(axis=1).argmax())][0], "feature value is nan")
    return quantize(grid, 4, 3, sparse=True)


def _read_plain_sparse(data: bytes) -> SparseMatrixCSR | None:
    """A plain-form triplet file in CSR order that passes every check, else None."""
    cut = data.find(b"\n") + 1 or len(data)  # the body is parsed in place, not copied
    parts = data[:cut].rstrip(b"\n").split(b" ")
    if len(parts) != 5 or parts[0] != b"sparse" or not all(p.isdigit() for p in parts[1:]):
        return None
    n, m, bits, frac = map(int, parts[1:])
    cols = _int_rows(data, 3, cut) if frac < bits <= 64 and max(n, m) <= MAX_SPARSE_DIM else None
    if cols is None:
        return None
    r, c, v = cols
    dr, dc = np.diff(r), np.diff(c)
    if (((r < 0) | (r >= n) | (c < 0) | (c >= m)).any() or ((dr < 0) | (dr == 0) & (dc <= 0)).any()
            or ((v < int_min(bits)) | (v > int_max(bits))).any()):
        return None  # a position outside, out of order or repeated, or a value too wide
    del dr, dc
    return SparseMatrixCSR.from_coo(n, m, r, c, v, bits, frac)


def _read_sparse_features(path, lines) -> SparseMatrixCSR:
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 5:
        _fail(path, lineno, "sparse header needs 'sparse rows cols bits frac'")
    try:
        n, m, bits, frac = (int(p) for p in parts[1:])
    except ValueError:
        _fail(path, lineno, f"non-integer sparse header field in {header!r}")
    if min(n, m) < 0 or not 0 <= frac < bits <= 64:
        _fail(path, lineno, f"sparse header needs sizes >= 0, 0 <= frac < bits <= 64: {header!r}")
    if max(n, m) > MAX_SPARSE_DIM:
        _fail(path, lineno, f"sparse header sizes must be <= {MAX_SPARSE_DIM}: {header!r}")
    rr, cc, vv = [], [], []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            _fail(path, lineno, f"expected 'row col value', got {line!r}")
        try:
            r, c, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            _fail(path, lineno, f"non-integer triplet in {line!r}")
        if not (0 <= r < n and 0 <= c < m):
            _fail(path, lineno, f"position ({r}, {c}) outside {n}x{m}")
        rr.append(r)
        cc.append(c)
        vv.append(v)
    try:
        r, c, v = (np.array(a, dtype=np.int64) for a in (rr, cc, vv))
    except OverflowError:  # past int64, so past any header's width
        raise FileFormatError(f"{path}: a triplet value does not fit 64 bits") from None
    del rr, cc, vv  # the int lists, not the arrays, set ingest's memory peak
    repeat = np.zeros(len(r), dtype=bool)
    if not ((np.diff(r) > 0) | (np.diff(r) == 0) & (np.diff(c) > 0)).all():  # not CSR order
        order = np.lexsort((c, r))
        repeat[order[1:]] = (np.diff(r[order]) == 0) & (np.diff(c[order]) == 0)
    wide = (v < int_min(bits)) | (v > int_max(bits))
    for bad, msg in ((wide, f"value outside the {bits}-bit range"), (repeat, "repeated position")):
        if bad.any():
            lineno, line = lines[1 + int(np.argmax(bad))]
            _fail(path, lineno, f"{msg} in {line!r}")
    return SparseMatrixCSR.from_coo(n, m, r, c, v, bits, frac)


def write_features(path, f: SparseMatrixCSR) -> None:
    """Sparse triplet form; raw values, so the round trip is exact."""
    rr = np.repeat(np.arange(f.rows), f.row_nnz())
    _write_lines(path, f"sparse {f.rows} {f.cols} {f.bits} {f.frac_bits}\n",
                 rr, f.col_idx, f.values)


# -- weights ------------------------------------------------------------------


def write_weights(path, weights: list[DenseMatrix]) -> None:
    with open(path, "wb") as fh:
        fh.write(_WHEADER.pack(WEIGHT_MAGIC, WEIGHT_VERSION, len(weights)))
        for w in weights:
            fh.write(_WMATRIX.pack(w.rows, w.cols, w.bits, w.frac_bits))
            fh.write(w.data.astype("<i4").tobytes())


def read_weights(path) -> list[DenseMatrix]:
    data = Path(path).read_bytes()
    if len(data) < _WHEADER.size:
        raise FileFormatError(f"{path}: truncated weight header")
    magic, version, count = _WHEADER.unpack_from(data)
    if magic != WEIGHT_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != WEIGHT_VERSION:
        raise FileFormatError(f"{path}: unsupported weight version {version}")
    out = []
    pos = _WHEADER.size
    for i in range(count):
        if pos + _WMATRIX.size > len(data):
            raise FileFormatError(f"{path}: truncated header for matrix {i}")
        rows, cols, bits, frac = _WMATRIX.unpack_from(data, pos)
        pos += _WMATRIX.size
        nbytes = rows * cols * 4
        if pos + nbytes > len(data):
            raise FileFormatError(f"{path}: truncated data for matrix {i}")
        raw = np.frombuffer(data, dtype="<i4", count=rows * cols, offset=pos)
        pos += nbytes
        out.append(DenseMatrix(raw.reshape(rows, cols).astype(np.int64),
                               bits, frac))
    if pos != len(data):
        raise FileFormatError(f"{path}: {len(data) - pos} trailing bytes")
    return out


# -- metadata sidecars ----------------------------------------------------------


def write_meta(path, doc: dict) -> None:
    doc = {"meta_version": META_VERSION, **doc}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_meta(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("meta_version") != META_VERSION:
        raise FileFormatError(f"{path}: not a metadata sidecar")
    return doc


# -- bundles --------------------------------------------------------------------


def ingest_graph(edge_file, feature_file, weight_files=()) -> GraphBundle:
    """Files to a validated GraphBundle; node count comes from the features."""
    features = read_features(feature_file)
    adjacency = read_edges(edge_file, features.rows)
    weights = []
    for wf in weight_files:
        weights.extend(read_weights(wf))
    return GraphBundle(adjacency, features, weights)


def export_bundle(out_dir, bundle: GraphBundle) -> dict:
    """Write the bundle into a directory; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"edges": out / EDGE_FILE, "features": out / FEATURE_FILE}
    write_edges(paths["edges"], bundle.adjacency)
    write_features(paths["features"], bundle.features)
    if bundle.weights:
        paths["weights"] = out / WEIGHT_FILE
        write_weights(paths["weights"], bundle.weights)
    return paths


def ingest_bundle_dir(in_dir) -> GraphBundle:
    """Inverse of export_bundle."""
    d = Path(in_dir)
    wf = [d / WEIGHT_FILE] if (d / WEIGHT_FILE).exists() else []
    return ingest_graph(d / EDGE_FILE, d / FEATURE_FILE, wf)
