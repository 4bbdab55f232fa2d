"""On-disk formats: edge lists, feature files, weight containers, metadata.

An edge or sparse feature file has one reader: a tokenizer turns the text
into integer columns and one set of array checks runs on them, in the order a
line-by-line reading meets the faults. Plain-form text (the writers') is
tokenized as arrays, any other text by a line loop that only splits and
converts; an error names the first bad line as `path:line:`. The writers
format a bounded chunk of lines at a time as one byte matrix, with the bytes
`str(int)` would give. The weight container is binary little-endian. All of
it exists so a workload can round-trip through files byte-exactly.
"""

from __future__ import annotations

import json
import struct
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from .graphs import GraphBundle, symmetric_adjacency
from .matrix import DenseMatrix, SparseMatrixCSR, csr_order, int_max, int_min, quantize, value_dtype

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
_WRITE_ENTRIES = 1 << 14         # entries a writer takes its lines from at once
_READ_BYTES = 1 << 18            # text a reader parses at once
_SHOWN = 10 ** np.arange(20, dtype=np.uint64)  # a digit at place p shows from 10^p up,
_SHOWN[0] = 0                                  # the units digit always


class FileFormatError(ValueError):
    """Unparseable or inconsistent input file."""


def _fail(path, lineno: int, msg: str):
    raise FileFormatError(f"{path}:{lineno}: {msg}")


def _data_lines(path, data: bytes):
    """(lineno, stripped line) of each line of the UTF-8 text data that is
    not blank or a '#' comment; a byte that is not UTF-8 fails its line."""
    # the newlines open() reads; no UTF-8 sequence holds a CR or LF byte
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail(path, data.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text ({exc.reason})")
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _int_rows(data: bytes, dtypes: tuple, pos: int = 0) -> list[np.ndarray] | None:
    """The columns of the plain-form text data[pos:], one entry a line and
    one column per dtype, unchecked; else None, for the line loop: other
    bytes ('#', '+', CR, non-ASCII...), a line of another token count (blank
    or unended too), a '-' not leading digits or an int64 extreme, which
    fromstring may have clipped. The text is parsed about _READ_BYTES at a
    time, cut after a newline, into columns allocated once, so temporaries
    stay chunk-sized; a column becomes int64 when a token does not fit its dtype."""
    width = len(dtypes)
    lines = data.count(b"\n", pos)
    cols = [np.empty(lines, dtype=dt) for dt in dtypes]
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
        with warnings.catch_warnings():  # numpy 1 warns where numpy 2.4 raises
            warnings.simplefilter("error", DeprecationWarning)
            try:
                t = np.fromstring(chunk, dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning):  # a '-' inside a token
                return None
        if len(t) != len(starts) or ((t == _INT64.min) | (t == _INT64.max)).any():
            return None
        for i, part in enumerate(t.reshape(-1, width).T):
            info = np.iinfo(cols[i].dtype)
            if part.size and (part.min() < info.min or part.max() > info.max):
                cols[i] = cols[i].astype(np.int64)
            cols[i][at:at + len(part)] = part
        at, pos = at + len(ends), end
    return cols


def _line_columns(lines, width: int, form: str, noun: str):
    """The line loop: the width columns of the data lines before the first
    that is not width integers, and that line's (lineno, message) or None.
    A value past int64 gives object columns, which fail a range or width check."""
    rows, bad = [], None
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != width:
            bad = lineno, f"expected '{form}', got {line!r}"
            break
        try:
            rows.append(tuple(map(int, parts)))
        except ValueError:
            bad = lineno, f"non-integer {noun} in {line!r}"
            break
    try:
        cols = np.array(rows, dtype=np.int64)
    except OverflowError:
        cols = np.array(rows, dtype=object)
    return cols.reshape(-1, width).T, bad


def _fail_first(path, data: bytes, skip: int, bad: np.ndarray, message) -> None:
    """Fail at the first record that bad marks, with message(i, line). Record
    i is data line skip + i of data, which is split into lines only here."""
    if bad.any():
        i = int(bad.argmax())
        lineno, line = next(islice(_data_lines(path, data), skip + i, None))
        _fail(path, lineno, message(i, line))


# -- edges --------------------------------------------------------------------


def read_edges(path, nodes: int) -> SparseMatrixCSR:
    """Whitespace "u v" pairs, 0-indexed, into a symmetrized binary adjacency.

    Duplicates collapse; self loops are kept as written (normalization decides
    what to do with them later): symmetric_adjacency, one in-place sort of
    both directions' keys.
    """
    data = Path(path).read_bytes()
    uv, bad = _int_rows(data, (np.int32, np.int32)), None
    if uv is None:
        uv, bad = _line_columns(_data_lines(path, data), 2, "u v", "node id")
    u, v = uv
    _fail_first(path, data, 0, (u < 0) | (u >= nodes) | (v < 0) | (v >= nodes),
                lambda i, line: f"node id out of range [0, {nodes}) in {line!r}")
    if bad:
        _fail(path, *bad)
    del data  # not held through the adjacency's sort
    return symmetric_adjacency(nodes, u, v)


def _int_lines(columns: list[np.ndarray]) -> bytes:
    """One line per entry of the equal-length signed integer columns: each
    entry in decimal, a space between entries, a newline after the last.

    The text is a uint8 matrix with one row per byte position and one column
    per line. Each input column takes a sign byte, as many digit rows as its
    largest magnitude has digits (divided out by 10 from the uint64
    magnitude, so int64 min works; a signed column of any width casts to
    uint64 by sign extension) and a separator row. A sign or leading
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


def _write_lines(path, head: str, *columns: np.ndarray, row_ptr=None, upper=False) -> None:
    """A text file: head, then _int_lines of the integer columns. Entries are
    taken _WRITE_ENTRIES at a time and written _WRITE_LINES lines at a time,
    so memory stays bounded; with row_ptr, each line first gives its entry's
    row, and with upper, only lines whose row is at most its column go out."""
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for s0 in range(0, len(columns[0]), _WRITE_ENTRIES):
            block = [c[s0:s0 + _WRITE_ENTRIES] for c in columns]
            if row_ptr is not None:  # from the pointers of the rows the block spans
                s1 = s0 + len(block[0])
                r0, r1 = np.searchsorted(row_ptr, [s0, s1 - 1], "right")  # past each end's row
                block.insert(0, np.repeat(np.arange(r0 - 1, r1, dtype=np.int32),  # below 2^27
                                          np.diff(np.clip(row_ptr[r0 - 1:r1 + 1], s0, s1))))
            if upper:
                keep = block[0] <= block[1]
                block = [c[keep] for c in block]
            for l0 in range(0, len(block[0]), _WRITE_LINES):
                fh.write(_int_lines([c[l0:l0 + _WRITE_LINES] for c in block]))


def write_edges(path, a: SparseMatrixCSR) -> None:
    """One line per undirected edge (u <= v); assumes a symmetric matrix."""
    _write_lines(path, "", a.col_idx, row_ptr=a.row_ptr, upper=True)


# -- features -----------------------------------------------------------------


def read_features(path) -> SparseMatrixCSR:
    """Sparse triplet file (with a "sparse" header) or a dense real grid.

    Triplets carry raw fixed-point values exactly; dense grids are real
    numbers quantized to the SINT4 feature precision.
    """
    data = Path(path).read_bytes()
    cut = data.find(b"\n") + 1 or len(data)
    head, bad = data[:cut], None
    # a plain first line is the header, read without splitting the body into lines
    plain = head.strip() and not head.translate(None, _PLAIN + b"sparse")  # one line, no CR
    lines = _data_lines(path, data)
    lineno, header = (1, head.decode().strip()) if plain else next(lines, (0, ""))
    if not header:
        raise FileFormatError(f"{path}: empty feature file")
    if header.split()[0] != "sparse":
        return _read_dense(path, list(_data_lines(path, data)))
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
    # the body is parsed in place, into the matrix's stored dtypes
    cols = _int_rows(data, (np.int32, np.int32, value_dtype(bits)), cut) if plain else None
    if cols is None:
        if plain:
            next(lines)  # the header line
        cols, bad = _line_columns(lines, 3, "row col value", "triplet")
    r, c, v = cols
    _fail_first(path, data, 1, (r < 0) | (r >= n) | (c < 0) | (c >= m),
                lambda i, line: f"position ({r[i]}, {c[i]}) outside {n}x{m}")
    if bad:
        _fail(path, *bad)
    _fail_first(path, data, 1, (v < int_min(bits)) | (v > int_max(bits)),
                lambda i, line: f"value outside the {bits}-bit range in {line!r}")
    if not csr_order(r, c):  # look for a repeated position
        order = np.lexsort((c, r))
        repeat = np.zeros(len(r), dtype=bool)
        repeat[order[1:]] = (np.diff(r[order]) == 0) & (np.diff(c[order]) == 0)
        _fail_first(path, data, 1, repeat, lambda i, line: f"repeated position in {line!r}")
    del data, lines  # not held through the matrix's build
    return SparseMatrixCSR.from_coo(n, m, r, c, v, bits, frac)


def _read_dense(path, lines) -> SparseMatrixCSR:
    rows, width = [], None
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


def write_features(path, f: SparseMatrixCSR) -> None:
    """Sparse triplet form; raw values, so the round trip is exact."""
    _write_lines(path, f"sparse {f.rows} {f.cols} {f.bits} {f.frac_bits}\n",
                 f.col_idx, f.values, row_ptr=f.row_ptr)


# -- weights ------------------------------------------------------------------


def write_weights(path, weights: list[DenseMatrix]) -> None:
    """The weight container; a matrix read_weights would refuse (bits outside
    1 to 32, an entry outside its declared width) is a ValueError naming it,
    raised before the file opens."""
    heads = []  # every matrix is checked and its header packed before the file opens
    for i, w in enumerate(weights):
        lo, hi = (int(w.data.min()), int(w.data.max())) if w.data.size else (0, 0)
        if not int_min(32) <= lo <= hi <= int_max(32):
            raise ValueError(f"weight matrix {i} has entries outside the container's int32")
        if not 1 <= w.bits <= 32:
            raise ValueError(f"weight matrix {i}: bits {w.bits} not 1 to 32, "
                             f"the widths of the container's int32 entries")
        if not int_min(w.bits) <= lo <= hi <= int_max(w.bits):
            raise ValueError(f"weight matrix {i} has entries outside its {w.bits}-bit range")
        fields = (("rows", w.rows, 32), ("cols", w.cols, 32), ("frac_bits", w.frac_bits, 16))
        for name, value, width in fields:
            if not 0 <= value < 1 << width:
                raise ValueError(f"weight matrix {i}: {name} {value} does not fit "
                                 f"its {width}-bit header field")
        heads.append(_WMATRIX.pack(w.rows, w.cols, w.bits, w.frac_bits))
    with open(path, "wb") as fh:
        fh.write(_WHEADER.pack(WEIGHT_MAGIC, WEIGHT_VERSION, len(weights)))
        for head, w in zip(heads, weights):
            fh.write(head)
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
        if not 1 <= bits <= 32:  # the container holds int32 entries
            raise FileFormatError(f"{path}: matrix {i} declares {bits} bits, not 1 to 32")
        nbytes = rows * cols * 4
        if pos + nbytes > len(data):
            raise FileFormatError(f"{path}: truncated data for matrix {i}")
        raw = np.frombuffer(data, dtype="<i4", count=rows * cols, offset=pos)
        pos += nbytes
        if raw.size and (raw.min() < int_min(bits) or raw.max() > int_max(bits)):
            raise FileFormatError(f"{path}: matrix {i} has entries outside its {bits}-bit range")
        out.append(DenseMatrix(raw.reshape(rows, cols).astype(value_dtype(bits)), bits, frac))
    if pos != len(data):
        raise FileFormatError(f"{path}: {len(data) - pos} trailing bytes")
    return out


# -- metadata sidecars ----------------------------------------------------------


def write_meta(path, doc: dict) -> None:
    doc = {"meta_version": META_VERSION, **doc}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# -- bundles --------------------------------------------------------------------


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
    """Inverse of export_bundle: the files, each proved by its reader, to a
    GraphBundle whose node count comes from the features."""
    d = Path(in_dir)
    features = read_features(d / FEATURE_FILE)
    adjacency = read_edges(d / EDGE_FILE, features.rows)
    weights = read_weights(d / WEIGHT_FILE) if (d / WEIGHT_FILE).exists() else []
    return GraphBundle(adjacency, features, weights)
