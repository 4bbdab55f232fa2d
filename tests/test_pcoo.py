"""Codec: frozen encodings, exhaustive round-trips, stream serialization."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gcnsim.pcoo import (
    EMPTY_ROW_PACKET,
    HEADER_BYTES,
    IDLE_PACKET,
    PcooPacket,
    StreamFormatError,
    decode_packet,
    deserialize_stream,
    encode_packet,
    log2_exact,
    make_header,
    packet_bits_for,
    packet_malformed,
    packet_width,
    serialize_stream,
)
from gcnsim import pcoo, schedule
from gcnsim.graphs import random_features
from gcnsim.schedule import TileSchedule
from helpers import traced_peak
from test_schedule import census_spec

FIELDS = ("sor", "eor", "vld", "col", "value")


def grid_schedule(grid, k):
    """Columnar schedule from a cycles x K grid of packets."""
    arr = np.array(grid, dtype=np.int64).reshape(len(grid), k, 5)
    return TileSchedule(*np.moveaxis(arr, 2, 0))


def assert_same_packets(got, want):
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def random_packet(rng, t, h):
    if rng.random() < 0.3:
        return EMPTY_ROW_PACKET if rng.random() < 0.5 else IDLE_PACKET
    if h == 0:
        value = 1
    else:
        value = int(rng.integers(-(1 << (h - 1)), 1 << (h - 1)))
    return PcooPacket(int(rng.integers(0, 2)), int(rng.integers(0, 2)), 1,
                      int(rng.integers(0, t)), value)


def test_packet_width():
    assert packet_width(8, 0) == 6
    assert packet_width(8, 4) == 10
    assert packet_width(512, 16) == 28
    with pytest.raises(ValueError):
        packet_width(12, 4)
    with pytest.raises(ValueError):
        log2_exact(0)


def test_encode_known_values():
    # row with nonzeros at columns 1 and 5, tile width 8, no value field
    first = PcooPacket(sor=1, eor=0, vld=1, col=1, value=1)
    last = PcooPacket(sor=0, eor=1, vld=1, col=5, value=1)
    assert encode_packet(first, 8, 0) == 41
    assert encode_packet(last, 8, 0) == 29
    assert encode_packet(EMPTY_ROW_PACKET, 8, 0) == 48
    assert encode_packet(IDLE_PACKET, 8, 0) == 0
    # same header with a 4-bit value of 3 appended
    assert encode_packet(PcooPacket(1, 0, 1, 1, 3), 8, 4) == 659


def test_decode_known_values():
    assert decode_packet(0, 8, 0) == IDLE_PACKET
    assert decode_packet(48, 8, 0) == EMPTY_ROW_PACKET
    assert decode_packet(659, 8, 4) == PcooPacket(1, 0, 1, 1, 3)
    # sign extension of the value field
    assert decode_packet(encode_packet(PcooPacket(0, 0, 1, 2, -8), 8, 4), 8, 4).value == -8
    # implicit value 1 when no value field exists
    assert decode_packet(41, 8, 0).value == 1


def test_encode_errors():
    with pytest.raises(ValueError):
        encode_packet(PcooPacket(0, 0, 1, 8, 1), 8, 0)   # col out of range
    with pytest.raises(ValueError):
        encode_packet(PcooPacket(0, 0, 1, 0, 8), 8, 4)   # value too wide
    with pytest.raises(ValueError):
        encode_packet(PcooPacket(0, 0, 1, 0, -9), 8, 4)
    with pytest.raises(ValueError):
        encode_packet(PcooPacket(0, 0, 1, 0, 0), 8, 0)   # H=0 valid must carry 1
    with pytest.raises(ValueError):
        decode_packet(1 << 10, 8, 4)


def test_roundtrip_exhaustive():
    # every bit pattern decodes, and re-encodes to the same pattern
    for t, h in ((8, 4), (8, 0)):
        for code in range(1 << packet_width(t, h)):
            p = decode_packet(code, t, h)
            assert encode_packet(p, t, h) == code


def test_roundtrip_random_wide():
    rng = np.random.default_rng(53)
    for t, h in ((512, 0), (512, 4), (512, 16), (1024, 16)):
        for _ in range(300):
            p = random_packet(rng, t, h)
            assert decode_packet(encode_packet(p, t, h), t, h) == p


def test_malformed_flag():
    assert not packet_malformed(IDLE_PACKET)
    assert not packet_malformed(EMPTY_ROW_PACKET)
    assert packet_malformed(PcooPacket(0, 0, 0, 3, 0))
    assert packet_malformed(PcooPacket(1, 1, 0, 0, 2))
    assert not packet_malformed(PcooPacket(0, 0, 1, 3, -1))
    # a row marker with no work: a row opens or closes on a slot that is not valid
    assert packet_malformed(PcooPacket(1, 0, 0, 0, 0))
    assert packet_malformed(PcooPacket(0, 1, 0, 0, 0))
    assert not packet_malformed(PcooPacket(1, 0, 1, 0, 1))


def test_make_header_rejects_fields_too_wide():
    make_header(32768, 16, 65535, (1 << 32) - 1)  # the widest header that fits
    with pytest.raises(ValueError):
        make_header(65536, 0, 4, 1)        # T is a u16
    with pytest.raises(ValueError):
        make_header(8, 0, 65536, 1)        # K is a u16
    with pytest.raises(ValueError):
        make_header(8, 0, 4, 1 << 32)      # cycle count is a u32
    with pytest.raises(ValueError):
        make_header(8, 60, 4, 1)           # 60 is not a packet value width
    with pytest.raises(ValueError, match="value bits 7"):
        make_header(8, 7, 4, 1)            # only 0, 4 and 16 are written


def test_serialize_rejects_values_the_width_cannot_carry():
    # a stored 3 needs a value field; a stored 9 needs more than 4 bits
    for value, narrow, message, wide in ((3, 0, "not representable in 0 bits", 4),
                                         (9, 4, "outside 4-bit range", 16)):
        sched = grid_schedule([[PcooPacket(1, 1, 1, 2, value)]], 1)
        with pytest.raises(ValueError, match=message):
            serialize_stream(sched, 8, narrow)
        _, back = deserialize_stream(serialize_stream(sched, 8, wide))
        assert_same_packets(back, sched)


def test_stream_roundtrip_keeps_the_int16_extremes():
    # h = 16 carries all of int16, and every width decodes to int16 values
    sched = grid_schedule([[PcooPacket(1, 0, 1, 0, -32768), PcooPacket(1, 1, 1, 1, 32767)],
                           [PcooPacket(0, 1, 1, 1, 32767), EMPTY_ROW_PACKET]], 2)
    _, back = deserialize_stream(serialize_stream(sched, 8, 16))
    assert back.value.tolist() == [[-32768, 32767], [32767, 0]]
    assert_same_packets(back, sched)
    for h, value in ((0, 1), (4, -8), (16, -32768)):
        one = grid_schedule([[PcooPacket(1, 1, 1, 3, value)]], 1)
        _, back = deserialize_stream(serialize_stream(one, 8, h))
        assert back.value.dtype == np.int16 and back.value.tolist() == [[value]]


def test_serialize_empty():
    header = make_header(8, 0, 4, 0)
    data = serialize_stream(TileSchedule.empty(4), 8, 0)
    assert len(data) == HEADER_BYTES == 16
    assert data[:4] == b"PCOO"
    back_header, back = deserialize_stream(data)
    assert back_header == header
    assert (back.cycles, back.pe_count) == (0, 4)


def test_serialize_single_cycle_size():
    sched = grid_schedule([[PcooPacket(1, 1, 1, 3, 1), IDLE_PACKET]], 2)
    data = serialize_stream(sched, 8, 0)
    assert len(data) == 18  # 16 header + 2 packets at 1 byte each
    _, back = deserialize_stream(data)
    assert_same_packets(back, sched)


def test_serialize_roundtrip_random():
    rng = np.random.default_rng(59)
    for _ in range(100):
        t = int(2 ** rng.integers(2, 10))
        h = int(rng.choice([0, 4, 16]))
        k = int(rng.integers(1, 9))
        cycles = int(rng.integers(0, 12))
        grid = [[random_packet(rng, t, h) for _ in range(k)] for _ in range(cycles)]
        sched = grid_schedule(grid, k)
        data = serialize_stream(sched, t, h)
        header, back = deserialize_stream(data)
        assert header == make_header(t, h, k, cycles)
        assert_same_packets(back, sched)


def test_serialize_matches_encode_packet_per_cell():
    # the vectorized encoder against the single-packet spec, cell by cell,
    # at every tile width, so cells of 1 to 5 bytes are all cut from codes
    rng = np.random.default_rng(67)
    widths, kinds = set(), set()
    for h in (0, 4, 16):
        for tbits in range(1, 16):
            t, k = 1 << tbits, int(rng.integers(1, 6))
            cycles = int(rng.integers(1, 8))
            grid = [[random_packet(rng, t, h) for _ in range(k)] for _ in range(cycles)]
            data = serialize_stream(grid_schedule(grid, k), t, h)
            nbytes = (packet_width(t, h) + 7) // 8
            assert len(data) == HEADER_BYTES + cycles * k * nbytes
            cells = [encode_packet(p, t, h).to_bytes(nbytes, "big") for row in grid for p in row]
            assert data[HEADER_BYTES:] == b"".join(cells), (t, h)
            widths.add(nbytes)
            kinds.update("negative" if p.value < 0 else "idle" if p == IDLE_PACKET
                         else "empty" if p == EMPTY_ROW_PACKET else "valid"
                         for row in grid for p in row)
    assert widths == {1, 2, 3, 4, 5}
    assert kinds == {"negative", "idle", "empty", "valid"}


def test_serialize_widest_codes_keep_every_bit():
    # at the widest tiles a 16-bit code spans 33 and 34 bits: every flag,
    # the top column bit and both value extremes survive the encode
    for t in (16384, 32768):
        grid = [[PcooPacket(1, 1, 1, t - 1, -32768), PcooPacket(1, 0, 1, t // 2, 32767)],
                [PcooPacket(0, 1, 1, 1, -1), EMPTY_ROW_PACKET]]
        sched = grid_schedule(grid, 2)
        data = serialize_stream(sched, t, 16)
        cells = [encode_packet(p, t, 16).to_bytes(5, "big") for row in grid for p in row]
        assert data[HEADER_BYTES:] == b"".join(cells), t
        assert_same_packets(deserialize_stream(data)[1], sched)


def test_deserialize_matches_decode_packet_per_cell():
    # the vectorized decoder against the single-packet spec, cell by cell
    # and its slot census against the per-cell kinds (valid, empty-row, idle)
    rng = np.random.default_rng(61)
    seen = set()
    for h in (0, 4, 16):
        for _ in range(20):
            t = int(2 ** rng.integers(2, 10))
            k = int(rng.integers(1, 9))
            cycles = int(rng.integers(1, 12))
            grid = [[random_packet(rng, t, h) for _ in range(k)] for _ in range(cycles)]
            data = serialize_stream(grid_schedule(grid, k), t, h)
            _, back = deserialize_stream(data)
            nbytes = (packet_width(t, h) + 7) // 8
            kinds = np.zeros((3, k), dtype=np.int64)
            for c in range(cycles):
                for p in range(k):
                    pos = HEADER_BYTES + (c * k + p) * nbytes
                    want = decode_packet(int.from_bytes(data[pos:pos + nbytes], "big"), t, h)
                    got = PcooPacket(*(int(getattr(back, f)[c, p]) for f in FIELDS))
                    assert got == want, (t, h, c, p)
                    assert want.vld or want in (EMPTY_ROW_PACKET, IDLE_PACKET)
                    kind = 0 if want.vld else 1 if want == EMPTY_ROW_PACKET else 2
                    kinds[kind, p] += 1
                    seen.add(kind)
            # the fewest idle slots of any PE are stalls, the rest of them pads
            stats = census_spec(back)
            assert (stats.stall_idle == kinds[2].min()).all()
            assert np.array_equal(np.stack([stats.valid, stats.empty_row,
                                            stats.stall_idle + stats.pad_idle]), kinds)
    assert seen == {0, 1, 2}


def test_deserialize_rejects_bits_above_packet():
    # T=8, H=4: 10-bit packets in 2-byte cells, so each cell has 6 padding bits
    sched = grid_schedule([[PcooPacket(1, 1, 1, 3, -2), EMPTY_ROW_PACKET]], 2)
    data = bytearray(serialize_stream(sched, 8, 4))
    assert_same_packets(deserialize_stream(bytes(data))[1], sched)
    data[HEADER_BYTES + 2] |= 0x80  # top padding bit of the second cell
    with pytest.raises(StreamFormatError):
        deserialize_stream(bytes(data))


def test_deserialize_rejects_exactly_the_malformed_codes():
    # the decoder enforces packet_malformed: a one-cell stream decodes, to
    # decode_packet's packet, exactly when that packet is well formed
    rng = np.random.default_rng(71)
    seen = set()
    for _ in range(600):
        t = int(2 ** rng.integers(0, 10))
        h = int(rng.choice([0, 4, 16]))
        width = packet_width(t, h)
        code = int(rng.integers(0, 1 << width))
        if rng.random() < 0.5:
            code &= ~((t << h) - 1)  # flags only: idle and empty-row cells
        prefix = serialize_stream(grid_schedule([[IDLE_PACKET]], 1), t, h)[:HEADER_BYTES]
        data = prefix + code.to_bytes((width + 7) // 8, "big")
        want = decode_packet(code, t, h)
        seen.add(packet_malformed(want))
        if packet_malformed(want):
            with pytest.raises(StreamFormatError, match=r"cell 0 \(cycle 0, PE 0\)"):
                deserialize_stream(data)
        else:
            _, back = deserialize_stream(data)
            assert PcooPacket(*(int(getattr(back, f)[0, 0]) for f in FIELDS)) == want
    assert seen == {False, True}


def test_malformed_cells_are_named_and_never_written():
    stray = PcooPacket(0, 0, 0, 3, 0)
    grid = [[IDLE_PACKET] * 3, [EMPTY_ROW_PACKET, IDLE_PACKET, stray]]
    with pytest.raises(ValueError, match=r"cell 5 \(cycle 1, PE 2\) is not valid"):
        serialize_stream(grid_schedule(grid, 3), 8, 4)
    grid[1][2] = IDLE_PACKET
    data = bytearray(serialize_stream(grid_schedule(grid, 3), 8, 4))
    data[HEADER_BYTES + 2 * 5 + 1] = 5  # value 5 in the idle cell at cycle 1, PE 2
    with pytest.raises(StreamFormatError, match=r"cell 5 \(cycle 1, PE 2\) is not valid"):
        deserialize_stream(bytes(data))
    # one PE opens its row on a slot with no work, then closes it on its only
    # nonzero: no schedule the program writes has such a cell
    grid = [[PcooPacket(1, 0, 0, 0, 0)], [PcooPacket(0, 1, 1, 0, 1)]]
    with pytest.raises(ValueError, match=r"cell 0 \(cycle 0, PE 0\) is not valid"):
        serialize_stream(grid_schedule(grid, 1), 8, 0)
    prefix = serialize_stream(grid_schedule([[IDLE_PACKET]] * 2, 1), 8, 0)[:HEADER_BYTES]
    with pytest.raises(StreamFormatError, match=r"cell 0 \(cycle 0, PE 0\) is not valid"):
        deserialize_stream(prefix + bytes(encode_packet(p, 8, 0) for p, in grid))


def test_deserialize_errors():
    idle = grid_schedule([[IDLE_PACKET]], 1)
    good = serialize_stream(idle, 8, 0)
    with pytest.raises(StreamFormatError):
        deserialize_stream(b"NOPE" + good[4:])
    with pytest.raises(StreamFormatError):
        deserialize_stream(good[:-1])
    with pytest.raises(StreamFormatError):
        deserialize_stream(good[:10])
    bad_version = bytearray(good)
    bad_version[4] = 9
    with pytest.raises(StreamFormatError):
        deserialize_stream(bytes(bad_version))
    for offset, field in ((6, 12), (8, 60)):  # T not a power of two; 66-bit packets
        bad_field = bytearray(good)
        bad_field[offset:offset + 2] = field.to_bytes(2, "little")
        with pytest.raises(StreamFormatError):
            deserialize_stream(bytes(bad_field))


def test_codec_stands_without_the_scheduler():
    # the packet grid lives beside its codec; schedule only re-exports it
    import gcnsim
    assert schedule.TileSchedule is TileSchedule and TileSchedule.__module__ == "gcnsim.pcoo"
    assert schedule.packet_bits_for is packet_bits_for
    src = str(Path(gcnsim.__file__).parents[1])
    code = ("import sys, gcnsim.pcoo\n"
            "assert 'gcnsim.schedule' not in sys.modules, sorted(sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_tile_schedule_keeps_typed_fields_and_checks_the_rest():
    # fields at their packet dtypes are held as given, with no copy
    typed = [np.ones((3, 2), np.uint8) for _ in range(3)]
    typed += [np.arange(6, dtype=np.int32).reshape(3, 2), np.full((3, 2), -7, np.int16)]
    sched = TileSchedule(*typed)
    for name, given in zip(FIELDS, typed):
        assert np.shares_memory(getattr(sched, name), given), name
    # int64 lists are cast to the packet dtypes once their values fit int16
    sched = TileSchedule([[1, 0]], [[1, 0]], [[1, 0]], [[3, 0]], [[-32768, 0]])
    assert [getattr(sched, name).dtype for name in FIELDS] == [np.uint8] * 3 + [np.int32, np.int16]
    assert sched.col.tolist() == [[3, 0]] and sched.value.tolist() == [[-32768, 0]]
    with pytest.raises(ValueError, match="outside 16-bit range"):
        TileSchedule([[1]], [[1]], [[1]], [[0]], [[40000]])


def test_tile_schedule_refuses_flags_and_columns_a_cast_would_wrap():
    # cast unchecked, these would hold sor 1, vld 0 and col 3
    fields = [np.array([[257]]), np.array([[1]]), np.array([[256]]),
              np.array([[2**32 + 3]]), np.array([[5]])]
    for i, name, width in ((0, "sor", 8), (2, "vld", 8), (3, "col", 32)):
        bad = [f if j in (i, 4) else np.ones_like(f) for j, f in enumerate(fields)]
        with pytest.raises(ValueError, match=f"^{name} outside {width}-bit range$"):
            TileSchedule(*bad)
    with pytest.raises(ValueError, match="^sor outside 8-bit range$"):
        TileSchedule(*fields)  # the first field out of range is named
    for name, low in (("eor", -1), ("col", -2**31 - 1)):
        bad = [np.array([[low if n == name else 1]]) for n in FIELDS]
        with pytest.raises(ValueError, match=f"^{name} outside"):
            TileSchedule(*bad)


def test_serialize_stream_peaks_at_its_stream_plus_one_chunk():
    # the preprocess benchmark's feature tile (131,072 rows of 32 columns at
    # density 0.1 on 16 PEs): a 1.2 MiB stream encoded a chunk of cycles at a
    # time holds about 19 bytes a chunk cell more; whole-grid int64 codes, their
    # big-endian copy and the stream's copy held 8.1 MiB more
    sched = schedule.assign_rows(random_features(131072, 32, 0.1, np.random.default_rng(0)), 16)
    data, peak = traced_peak(serialize_stream, sched, 16384, 4)
    assert peak <= len(data) + 32 * pcoo._STREAM_CELLS, (peak >> 10, len(data) >> 10)
    assert data == serialize_stream(sched, 16384, 4)
