"""Bitstream and diagram file formats used by the command-line tool.

Two stream encodings: ASCII ('0'/'1' characters, all whitespace ignored on
read) and raw (packed bytes, most significant bit first, with an explicit
bit count to disambiguate the final byte's padding).  Diagrams render as
plain text (one row per line) or as an ASCII portable bitmap (P1) where a
live cell is a black pixel.

The command-line tool holds streams as 0/1 bytes (``_parsed``, ``_unpacked``)
and writes them chunk by chunk as they are made (``_encoded``).
"""
from __future__ import annotations

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
    return "\n".join(map(str, diagram.rows)) + "\n"


def diagram_pbm(diagram: SpaceTimeDiagram) -> str:
    """P1 portable bitmap, one pixel per cell, 1 = live cell (black)."""
    lines = ["P1", f"{diagram.width} {len(diagram.rows)}"]
    lines += (" ".join(str(row)) for row in diagram.rows)
    return "\n".join(lines) + "\n"
