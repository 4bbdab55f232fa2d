"""Packet-level column-only coordinate codec and its byte-stream form.

A packet carries three flags (start-of-row, end-of-row, valid), a tile-local
column index, and an H-bit raw value, packed MSB to LSB in that order:
width = 3 + log2(T) + H bits for tile width T. Rows with no nonzeros are a
single packet with sor=eor=1 and an all-zero payload; an all-zero packet is
an idle (stall or pad) slot.

With H=0 the stream carries no values at all: a valid packet stands for a
stored 1, which is how binary adjacency matrices travel. The packet grid
a stream holds, TileSchedule, lives here beside its codec.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class StreamFormatError(ValueError):
    """Malformed or truncated serialized stream."""


class PcooPacket(NamedTuple):
    sor: int
    eor: int
    vld: int
    col: int
    value: int


IDLE_PACKET = PcooPacket(0, 0, 0, 0, 0)
EMPTY_ROW_PACKET = PcooPacket(1, 1, 0, 0, 0)

STREAM_MAGIC = b"PCOO"
STREAM_VERSION = 1
_HEADER_STRUCT = struct.Struct("<4sHHHHI")  # magic, version, T, H, K, cycle_count
HEADER_BYTES = _HEADER_STRUCT.size
_U16 = 0xFFFF
_U32 = 0xFFFFFFFF
_MAX_PACKET_BITS = 63  # codes are packed and unpacked in int64 arrays
PACKET_VALUE_WIDTHS = (0, 4, 16)
_PACKET_DTYPES = (("sor", np.uint8), ("eor", np.uint8), ("vld", np.uint8), ("col", np.int32),
                  ("value", np.int16))
_STREAM_CELLS = 1 << 16  # cells serialize_stream checks or encodes at once


class StreamHeader(NamedTuple):
    tile_width: int
    value_bits: int
    pe_count: int
    cycle_count: int
    version: int = STREAM_VERSION


def log2_exact(t: int) -> int:
    if t < 1 or t & (t - 1):
        raise ValueError(f"tile width must be a power of two, got {t}")
    return t.bit_length() - 1


def packet_width(tile_width: int, value_bits: int) -> int:
    return 3 + log2_exact(tile_width) + value_bits


def encode_packet(p: PcooPacket, tile_width: int, value_bits: int) -> int:
    """Pack one packet into an unsigned integer of packet_width bits."""
    t = tile_width
    if not 0 <= p.col < t:
        raise ValueError(f"column {p.col} outside tile width {t}")
    if value_bits == 0:
        # no value field: a valid packet means a stored 1
        expect = 1 if p.vld else 0
        if p.value != expect:
            raise ValueError(f"value {p.value} not representable in 0 bits (vld={p.vld})")
        payload = 0
    else:
        lo = -(1 << (value_bits - 1))
        hi = (1 << (value_bits - 1)) - 1
        if not lo <= p.value <= hi:
            raise ValueError(f"value {p.value} outside {value_bits}-bit range")
        payload = p.value & ((1 << value_bits) - 1)
    head = p.col + t * p.vld + 2 * t * p.eor + 4 * t * p.sor
    return (head << value_bits) | payload


def decode_packet(bits: int, tile_width: int, value_bits: int) -> PcooPacket:
    """Inverse of encode_packet; the value is sign-extended from its field."""
    width = packet_width(tile_width, value_bits)
    if not 0 <= bits < (1 << width):
        raise ValueError(f"code {bits} wider than {width} bits")
    tbits = log2_exact(tile_width)
    head = bits >> value_bits
    col = head & (tile_width - 1)
    vld = (head >> tbits) & 1
    eor = (head >> (tbits + 1)) & 1
    sor = (head >> (tbits + 2)) & 1
    if value_bits == 0:
        value = 1 if vld else 0
    else:
        payload = bits & ((1 << value_bits) - 1)
        if payload >= 1 << (value_bits - 1):
            payload -= 1 << value_bits
        value = payload
    return PcooPacket(sor, eor, vld, col, value)


def packet_malformed(p: PcooPacket) -> bool:
    """True for invalid packets that carry a column, a value or one row marker (sor != eor)."""
    if p.vld:
        return False
    return p.col != 0 or p.value != 0 or p.sor != p.eor


def check_value_field(values: np.ndarray, value_bits: int) -> None:
    """Raise ValueError unless valid packets with these values fit a
    value_bits field; with no field a valid packet stands for a stored 1."""
    if value_bits == 0:
        if not (values == 1).all():
            raise ValueError("value not representable in 0 bits")
    elif values.size:
        lo, hi = -(1 << (value_bits - 1)), (1 << (value_bits - 1)) - 1
        if values.min() < lo or values.max() > hi:
            raise ValueError(f"value outside {value_bits}-bit range")


def packet_bits_for(x, value_bits: int | None = None) -> int:
    """Value field width of sparse operand x's packets. A pinned value_bits
    is returned once x's values fit it (check_value_field); else the
    narrowest supported field: 0 when binary, else 4 or 16 by x's declared
    width, which its stored values must fit."""
    if value_bits is not None:
        check_value_field(x.values, value_bits)
        return value_bits
    if x.nnz == 0 or (x.values == 1).all():
        return 0
    bits = 4 if x.bits <= 4 else 16
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if x.values.min() < lo or x.values.max() > hi:
        raise ValueError(f"operand values exceed the {bits}-bit packet field")
    return bits


@dataclass
class TileSchedule:
    """Rectangular cycles x K packet grid, one array per packet field.

    A slot is valid work (vld), an empty-row marker (sor=eor=1, vld=0) or
    idle (no bit set). The stalls are the fewest idle slots in any PE
    column; the other idle slots pad short PE columns. There is no row map:
    PE p owns rows p, p+K, p+2K, ... of the tile and emits them in that
    order, one sor/eor pair per row. The same schedule runs against every
    output lane block of its column tile.

    Fields are stored at their packet width: the flags as uint8, col as
    int32 (a tile may be up to 2^30 wide) and value as int16, since no
    packet value field is wider than 16 bits. Fields already at these
    dtypes are kept as given, with no scan or copy; any other field is
    range-checked first (a ValueError naming it), so no cast wraps.
    """

    sor: np.ndarray
    eor: np.ndarray
    vld: np.ndarray
    col: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        for name, dtype in _PACKET_DTYPES:
            a, info = np.asarray(getattr(self, name)), np.iinfo(dtype)
            if a.dtype != dtype and a.size and (a.min() < info.min or a.max() > info.max):
                raise ValueError(f"{name} outside {info.bits}-bit range")
            setattr(self, name, a.astype(dtype, copy=False))

    @property
    def cycles(self) -> int:
        return self.sor.shape[0]

    @property
    def pe_count(self) -> int:
        return self.sor.shape[1]

    @classmethod
    def empty(cls, pe_count: int) -> "TileSchedule":
        return cls(*[np.zeros((0, pe_count), dtype=np.uint8)] * 5)


def _at_cell(cell: int, pe_count: int) -> str:
    return f"cell {cell} (cycle {cell // pe_count}, PE {cell % pe_count})"


_STRAY = "is not valid but carries a column, a value or one row marker"


def make_header(tile_width: int, value_bits: int, pe_count: int,
                cycle_count: int) -> StreamHeader:
    """Header of a stream to write; only the supported value widths pass."""
    log2_exact(tile_width)
    if value_bits not in PACKET_VALUE_WIDTHS:
        raise ValueError(f"value bits {value_bits} not one of {PACKET_VALUE_WIDTHS}")
    if pe_count <= 0:
        raise ValueError("pe_count must be positive")
    fields = (("tile width", tile_width, _U16), ("pe_count", pe_count, _U16),
              ("cycle_count", cycle_count, _U32))
    for name, value, limit in fields:
        if not 0 <= value <= limit:
            raise ValueError(f"{name} {value} does not fit the stream header (max {limit})")
    return StreamHeader(tile_width, value_bits, pe_count, cycle_count)


def serialize_stream(sched: TileSchedule, tile_width: int, value_bits: int) -> bytes:
    """make_header's header for the schedule at tile width T and value width
    H, then its packets cycle-major, each MSB-first in ceil(width/8) bytes;
    the vectorized twin of encode_packet. A schedule with a packet_malformed
    cell is refused. Each chunk of cycles is checked and encoded onto a
    BytesIO, whose getvalue hands over its bytes: it holds the schedule, the
    stream and one chunk's int64 codes.
    """
    header = make_header(tile_width, value_bits, sched.pe_count, sched.cycles)
    t, h, k = tile_width, value_bits, sched.pe_count
    sor, eor, vld, col, val = (getattr(sched, name).ravel() for name, _ in _PACKET_DTYPES)
    if col.size and (col.min() < 0 or col.max() >= t):
        raise ValueError(f"column outside tile width {t}")
    nbytes = (packet_width(t, h) + 7) // 8
    out = io.BytesIO(_HEADER_STRUCT.pack(STREAM_MAGIC, header.version, *header[:4]))
    out.seek(HEADER_BYTES)
    step = max(1, _STREAM_CELLS // k) * k
    for part in (slice(s0, s0 + step) for s0 in range(0, col.size, step)):
        lone = sor[part] != eor[part]
        stray = np.flatnonzero((vld[part] == 0) & ((col[part] != 0) | (val[part] != 0) | lone))
        if stray.size:  # packet_malformed
            raise ValueError(f"{_at_cell(part.start + int(stray[0]), k)} {_STRAY}")
        # int64 from the first product on: numpy 1 would keep uint8 * 4 in uint8
        codes = (np.multiply(sor[part], 4, dtype=np.int64) + eor[part] * 2 + vld[part]) * t
        codes += col[part]
        codes <<= h
        codes |= val[part].astype(np.uint16) & ((1 << h) - 1)  # two's-complement low h bits
        # each cell is the last nbytes of its code's big-endian 8 bytes
        out.write(codes.astype(">i8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes:].tobytes())
    # every other slot holds value 0, which fits any field
    check_value_field(val if h else val[vld == 1], h)
    return out.getvalue()


def deserialize_stream(data: bytes) -> tuple[StreamHeader, TileSchedule]:
    """Inverse of serialize_stream: the header and a columnar TileSchedule.

    Every cell is decoded at once (the vectorized twin of decode_packet),
    its value as int16. A cell with bits above its packet, or one that
    packet_malformed rejects (not valid, yet carrying a column, a value or
    only one of sor and eor), is a StreamFormatError. The schedule is the
    one written: its census, stalls included, is the written schedule's.
    Row numbers need no decoding: PE p's row markers stand for rows p, p+K,
    p+2K, ... by the round-robin rule.
    """
    if len(data) < HEADER_BYTES:
        raise StreamFormatError("truncated header")
    magic, version, t, h, k, cycles = _HEADER_STRUCT.unpack_from(data)
    if magic != STREAM_MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}")
    if version != STREAM_VERSION:
        raise StreamFormatError(f"unsupported stream version {version}")
    header = StreamHeader(t, h, k, cycles, version)
    try:
        width = packet_width(t, h)
    except ValueError as exc:
        raise StreamFormatError(str(exc)) from exc
    if width > _MAX_PACKET_BITS:
        raise StreamFormatError(f"{width}-bit packets exceed {_MAX_PACKET_BITS} bits")
    nbytes = (width + 7) // 8
    expect = HEADER_BYTES + cycles * k * nbytes
    if len(data) != expect:
        raise StreamFormatError(f"payload is {len(data)} bytes, expected {expect}")
    # cell i is the low nbytes of the big-endian 8 bytes that end with it
    # (the first cell's lead-in is header bytes)
    codes = np.ndarray(cycles * k, ">u8", data, HEADER_BYTES + nbytes - 8,
                       (nbytes,)).astype(np.uint64)
    if nbytes < 8:
        codes &= (1 << 8 * nbytes) - 1
    wide = np.flatnonzero(codes >= 1 << width)
    if wide.size:
        raise StreamFormatError(f"{_at_cell(int(wide[0]), k)} has bits set "
                                f"above its {width}-bit packet")
    body = codes & ((2 * t << h) - 1)  # vld, col and value bits
    body -= 1  # wraps 0 past every code, so the test below is 0 < body < t << h
    shape = (cycles, k)
    flags = (codes >> (width - 3)).astype(np.uint8).reshape(shape)  # sor, eor, vld
    flat = flags.ravel()  # packet_malformed: vld 0 with a column or value, or one row marker
    stray = np.flatnonzero((body < (t << h) - 1) | (flat == 2) | (flat == 4))
    if stray.size:
        raise StreamFormatError(f"{_at_cell(int(stray[0]), k)} {_STRAY}")
    del body
    vld = flags & 1
    if h == 0:
        value = vld.astype(np.int16)  # a valid packet stands for a stored 1
    else:
        value = codes.astype(np.uint16).view(np.int16).reshape(shape)  # low 16 bits
        value <<= 16 - h
        value >>= 16 - h  # the low h bits, sign-extended
    col = (codes >> h).astype(np.int32).reshape(shape)
    col &= t - 1
    sched = TileSchedule(flags >> 2, (flags >> 1) & 1, vld, col, value)
    return header, sched
