"""Bitstream and diagram file formats used by the command-line tool.

Two stream encodings: ASCII ('0'/'1' characters, all whitespace ignored on
read) and raw (packed bytes, most significant bit first, with an explicit
bit count to disambiguate the final byte's padding).  Diagrams render as
plain text (one row per line) or as an ASCII portable bitmap (P1) where a
live cell is a black pixel.

The command-line tool holds streams as 0/1 bytes (``_parsed``, ``_unpacked``)
and writes them chunk by chunk as they are made (``_encoded``); it renders a
diagram from packed ring states in the same way (``_diagram``).
"""
from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

from .engine import _TO_CELLS, _TO_DIGITS, SpaceTimeDiagram

__all__ = [
    "parse_bits",
    "format_bits",
    "pack_bits",
    "unpack_bits",
    "diagram_text",
    "diagram_pbm",
]

Bits = tuple[int, ...]

DIAGRAM_CHUNK_CELLS = 1 << 20  # diagram cells rendered at a time


def parse_bits(text: str) -> Bits:
    """Bits from ASCII text; whitespace (including newlines) is ignored."""
    return tuple(_parsed(text))


def _parsed(text: str) -> bytes:
    digits = "".join(text.split())  # str.split drops exactly the characters str.isspace accepts
    data = digits.encode("ascii", "replace")
    if data.translate(None, b"01"):
        bad = next(ch for ch in digits if ch not in "01")
        raise ValueError(f"invalid character {bad!r} in bitstream text")
    return data.translate(_TO_CELLS)


def format_bits(bits: Bits) -> str:
    return bytes(bits).translate(_TO_DIGITS).decode() + "\n"


def pack_bits(bits: Bits) -> bytes:
    """Pack MSB-first; the final byte is zero-padded."""
    size = (len(bits) + 7) // 8
    if not size:
        return b""
    return (int(bytes(bits).translate(_TO_DIGITS), 2) << (8 * size - len(bits))).to_bytes(size, "big")


def _encoded(chunks: Iterable[bytes], fmt: str) -> Iterator[bytes]:
    """0/1-byte chunks in a stream format, one piece a chunk; in raw, bits past a
    whole byte are carried into the next chunk, so only the last byte is padded."""
    if fmt == "ascii":
        yield from (chunk.translate(_TO_DIGITS) for chunk in chunks)
        yield b"\n"
        return
    rest = b""
    for chunk in chunks:
        data = rest + chunk
        whole = len(data) - len(data) % 8
        rest = data[whole:]
        yield pack_bits(data[:whole])
    yield pack_bits(rest)


def unpack_bits(data: bytes, count: int) -> Bits:
    """First ``count`` bits of packed data, MSB-first."""
    return tuple(_unpacked(data, count))


def _unpacked(data: bytes, count: int) -> bytes:
    _check_count(count, len(data))
    size = (count + 7) // 8
    if not size:
        return b""
    text = format(int.from_bytes(data[:size], "big"), f"0{8 * size}b")[:count]
    return text.encode().translate(_TO_CELLS)


def _check_count(count: int, size: int) -> None:
    if count < 0 or count > 8 * size:
        raise ValueError(f"cannot read {count} bits from {size} bytes")


def diagram_text(diagram: SpaceTimeDiagram) -> str:
    states = (row._state for row in diagram.rows)
    return b"".join(_diagram(states, diagram.width, len(diagram.rows), "text")).decode()


def diagram_pbm(diagram: SpaceTimeDiagram) -> str:
    """P1 portable bitmap, one pixel per cell, 1 = live cell (black)."""
    states = (row._state for row in diagram.rows)
    return b"".join(_diagram(states, diagram.width, len(diagram.rows), "pbm")).decode()


def _diagram(states: Iterable[int], width: int, height: int, fmt: str) -> Iterator[bytes]:
    """A diagram of ``height`` packed ring states (bit i = cell i) as a ``text`` or ``pbm`` file, in
    chunks of whole rows and about ``DIAGRAM_CHUNK_CELLS`` cells.  A P1 chunk is a template of rows
    of spaces, each ending in a newline, whose even offsets take the cells' digits in one assignment."""
    if fmt == "pbm":
        yield f"P1\n{width} {height}\n".encode()
    spec, states, per_chunk = f"0{width}b", iter(states), max(1, DIAGRAM_CHUNK_CELLS // width)
    pixel_row = b" " * (2 * width - 1) + b"\n"
    while rows := [format(state, spec)[::-1] for state in islice(states, per_chunk)]:
        if fmt == "pbm":
            chunk = bytearray(pixel_row * len(rows))
            chunk[0::2] = "".join(rows).encode()
            yield chunk
        else:
            yield ("\n".join(rows) + "\n").encode()
