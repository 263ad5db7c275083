"""Bitstream and diagram file formats used by the command-line tool.

Two stream encodings: ASCII ('0'/'1' characters, all whitespace ignored on
read) and raw (packed bytes, most significant bit first, with an explicit
bit count to disambiguate the final byte's padding).  Diagrams render as
plain text (one row per line) or as an ASCII portable bitmap (P1) where a
live cell is a black pixel.

The command-line tool holds streams as 0/1 bytes: it reads a file with
``_read_stream`` and encodes each chunk as it is made (``_encoded``), as it
renders each chunk of ring states that the engine makes (``_diagram``).
"""
from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

from .engine import _TO_CELLS, _TO_DIGITS, SpaceTimeDiagram, _digits, _pack

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
    return _digits(_pack(bits), len(bits)) + "\n"


def pack_bits(bits: Bits) -> bytes:
    """Pack MSB-first; the final byte is zero-padded."""
    size = (len(bits) + 7) // 8
    return (_pack(bits[::-1]) << (8 * size - len(bits))).to_bytes(size, "big")


def _encoded(chunks: Iterable[bytes], fmt: str) -> Iterator[bytes]:
    """0/1-byte chunks in a stream format, one piece a chunk, as given; in raw each chunk is padded
    to whole bytes, so every chunk but the last must hold a multiple of 8 bits, as the engine's
    tap chunks do (``TAP_CHUNK``)."""
    if fmt == "ascii":
        yield from (chunk.translate(_TO_DIGITS) for chunk in chunks)
        yield b"\n"
    else:
        yield from map(pack_bits, chunks)


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


def _read_stream(path: str, fmt: str, bits: int | None, keep: int | None = None) -> tuple[bytes, int]:
    """The stream in a file as 0/1 bytes, or only its first ``keep`` bits, and its length in bits; ASCII
    text is read and checked 1 MiB at a time, and a raw file only as far as is kept."""
    if fmt == "ascii":
        parts, count = [], 0
        with open(path, encoding="utf-8") as handle:
            for text in iter(lambda: handle.read(1 << 20), ""):
                cells = _parsed(text)  # every piece is checked, kept or not
                if keep is None or count < keep:
                    parts.append(cells)
                count += len(cells)
        return b"".join(parts)[:keep], count
    if bits is None:
        raise ValueError("--bits is required with --stream-format raw")
    with open(path, "rb") as handle:
        _check_count(bits, os.fstat(handle.fileno()).st_size)
        held = bits if keep is None else min(bits, keep)
        return _unpacked(handle.read((held + 7) // 8), held), bits


def diagram_text(diagram: SpaceTimeDiagram) -> str:
    states = [row._state for row in diagram.rows]
    return b"".join(_diagram((states,), diagram.width, len(diagram.rows), "text")).decode()


def diagram_pbm(diagram: SpaceTimeDiagram) -> str:
    """P1 portable bitmap, one pixel per cell, 1 = live cell (black)."""
    states = [row._state for row in diagram.rows]
    return b"".join(_diagram((states,), diagram.width, len(diagram.rows), "pbm")).decode()


def _diagram(chunks: Iterable[Sequence[int]], width: int, height: int, fmt: str) -> Iterator[bytes]:
    """A diagram of ``height`` packed ring states (bit i = cell i), given in non-empty chunks of whole
    rows, as a ``text`` or ``pbm`` file, one piece a chunk.  A P1 piece is a template of rows of
    spaces, each ending in a newline, whose even offsets take the cells' digits in one assignment."""
    if fmt == "pbm":
        yield f"P1\n{width} {height}\n".encode()
    pixel_row = b" " * (2 * width - 1) + b"\n"
    for states in chunks:
        rows = [_digits(state, width) for state in states]
        if fmt == "pbm":
            chunk = bytearray(pixel_row * len(rows))
            chunk[0::2] = "".join(rows).encode()
            yield chunk
        else:
            yield ("\n".join(rows) + "\n").encode()
