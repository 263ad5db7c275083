"""Stream encodings and diagram renderers."""
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castream import bitio, engine
from castream.bitio import (
    diagram_pbm,
    diagram_text,
    format_bits,
    pack_bits,
    parse_bits,
    unpack_bits,
)
from castream.engine import Configuration, evolve, rule_from_number

bit_tuples = st.lists(st.integers(0, 1), max_size=300).map(tuple)
# ASCII, Latin-1 and Unicode characters for which str.isspace holds
whitespace = st.lists(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"))


def reference_pack(bits):
    """Per-bit packer: MSB first, final byte zero-padded."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i >> 3] |= 0x80 >> (i & 7)
    return bytes(out)


def reference_text(diagram):
    """Per-cell renderers: one row of digits per line, and a P1 bitmap."""
    rows = ["".join(str(b) for b in row.cells) for row in diagram.rows]
    pbm = ["P1", f"{diagram.width} {len(diagram.rows)}"] + [" ".join(row) for row in rows]
    return "\n".join(rows) + "\n", "\n".join(pbm) + "\n"


def test_parse_ignores_whitespace():
    assert parse_bits("01 10\n1\t1") == (0, 1, 1, 0, 1, 1)


def test_parse_rejects_other_characters():
    with pytest.raises(ValueError):
        parse_bits("0121")


def test_format_parse_round_trip():
    bits = (1, 0, 1, 1, 0, 0, 1)
    assert parse_bits(format_bits(bits)) == bits


def test_pack_is_msb_first():
    assert pack_bits((1, 0, 1, 0, 0, 0, 0, 1)) == b"\xa1"
    assert pack_bits((1,)) == b"\x80"
    assert pack_bits(()) == b""


def test_pack_unpack_round_trip():
    rng = random.Random(10)
    for _ in range(50):
        length = rng.randrange(0, 200)
        bits = tuple(rng.getrandbits(1) for _ in range(length))
        assert unpack_bits(pack_bits(bits), length) == bits


# entries that are no bit: ints that bytes() takes or refuses, bytes that int(..., 2) would read as a digit,
# space, underscore, sign or prefix, and values of other types
@pytest.mark.parametrize("bits", [(2,), (0, -1), (256,), (1, 48), (49,), (1, 95, 1), (32, 1), (43, 1), (98, 1),
                                  (1.0,), ("1",), (None,)])
@pytest.mark.parametrize("writer", [format_bits, pack_bits])
def test_writers_reject_an_entry_that_is_not_0_or_1(writer, bits):
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        writer(bits)


def test_writers_take_booleans_as_bits():
    assert format_bits((True, False)) == "10\n"
    assert pack_bits((True, False)) == b"\x80"
    assert format_bits(()) == "\n"


# an array is read by its values, not through its buffer, which holds eight bytes an int64 bit
@pytest.mark.parametrize("bits", [*(tuple(map(int, "10110011100011110"[:n])) for n in (1, 7, 8, 9, 17)),
                                  (0,) * 7 + (1,)])
@pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.uint8])
def test_writers_read_an_array_like_its_tuple(dtype, bits):
    array = np.array(bits, dtype=dtype)
    assert pack_bits(array) == pack_bits(bits) == reference_pack(bits)
    assert format_bits(array) == format_bits(bits)


def test_unpack_rejects_overlong_count():
    with pytest.raises(ValueError):
        unpack_bits(b"\x00", 9)


def test_diagram_text_rows():
    diagram = evolve(Configuration.from_bits("00010000"), rule_from_number(30), 1)
    assert diagram_text(diagram) == "00010000\n00111000\n"


def test_diagram_pbm_header_and_pixels():
    diagram = evolve(Configuration.from_bits("010"), rule_from_number(30), 1)
    lines = diagram_pbm(diagram).splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "3 2"
    assert lines[2] == "0 1 0"
    assert len(lines) == 4


@given(bits=bit_tuples)
def test_codecs_match_per_bit_reference_and_round_trip(bits):
    packed = pack_bits(bits)
    assert packed == reference_pack(bits)
    assert unpack_bits(packed, len(bits)) == bits
    assert format_bits(bits) == "".join(str(b) for b in bits) + "\n"
    assert parse_bits(format_bits(bits)) == bits


@given(data=st.binary(max_size=40), drop=st.integers(0, 7), gaps=whitespace)
def test_unpack_and_parse_skip_padding_and_whitespace(data, drop, gaps):
    count = max(0, 8 * len(data) - drop)
    bits = unpack_bits(data, count)
    assert bits == tuple((data[i >> 3] >> (7 - (i & 7))) & 1 for i in range(count))
    text = "".join(gaps[i % len(gaps)] + str(b) if gaps else str(b) for i, b in enumerate(bits))
    assert parse_bits(text + "".join(gaps)) == bits


@pytest.mark.parametrize("text, bad", [("01x1", "x"), ("0\u3000x\u00b2", "x"), ("0 1\u00b2", "\u00b2"), ("1\ud8000", "\ud800"), ("\u0661", "\u0661")])
def test_parse_names_the_first_invalid_character(text, bad):
    with pytest.raises(ValueError, match=re.escape(f"invalid character {bad!r} ")):
        parse_bits(text)


@given(number=st.integers(0, 255), width=st.integers(3, 70), steps=st.integers(0, 8), seed=st.integers(0, 2**32))
@settings(max_examples=100)
def test_diagrams_match_per_cell_renderers(number, width, steps, seed):
    diagram = evolve(Configuration.random(width, random.Random(seed)), rule_from_number(number), steps)
    assert (diagram_text(diagram), diagram_pbm(diagram)) == reference_text(diagram)


def test_tap_chunks_pack_to_whole_bytes():
    # raw encoding pads each chunk to whole bytes, so every tap chunk but the last must fill its bytes
    assert engine.TAP_CHUNK % 8 == 0


@given(width=st.integers(3, 40), steps=st.integers(0, 12), chunk_cells=st.integers(1, 200),
       fmt=st.sampled_from(("text", "pbm")))
def test_diagram_chunks_hold_whole_rows_and_join_to_the_file(width, steps, chunk_cells, fmt):
    # each chunk is the rows of one call of the ring loop, rendered as given; the final state comes alone
    diagram = evolve(Configuration.single(width), rule_from_number(30), steps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "STATE_CHUNK", chunk_cells)
        states = engine._states(Configuration.single(width), rule_from_number(30), steps)
        chunks = list(bitio._diagram(states, width, steps + 1, fmt))
    text, pbm = reference_text(diagram)
    if fmt == "pbm":
        assert chunks[0] == f"P1\n{width} {steps + 1}\n".encode()
    per_chunk, line = max(1, chunk_cells // width), 2 * width if fmt == "pbm" else width + 1
    sizes = [min(per_chunk, steps - start) * line for start in range(0, steps, per_chunk)] + [line]
    assert [len(chunk) for chunk in chunks[fmt == "pbm":]] == sizes
    assert b"".join(chunks).decode() == (pbm if fmt == "pbm" else text)
