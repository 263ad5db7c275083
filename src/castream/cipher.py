"""Keystream generation and the XOR (Vernam) cipher.

The generator runs a rule on a ring whose initial configuration is the
secret key and emits the successive values of one fixed tap cell.  XOR
encryption demands a keystream of exactly the message length: shorter or
longer material is rejected rather than truncated or recycled, keeping the
one-time-use discipline in the caller's face.
"""
from __future__ import annotations

from .engine import Configuration, RuleLike, _pack, _Record, _taps, _unpack

__all__ = ["KeystreamSpec", "keystream", "vernam_encrypt", "vernam_decrypt"]

Bits = tuple[int, ...]


class KeystreamSpec(_Record):
    """Generator wiring: rule (or per-cell assignment), ring width, tap cell, burn-in."""

    rule: RuleLike
    width: int
    tap: int
    burn_in: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.tap < self.width:
            raise ValueError(f"tap cell {self.tap} out of range for width {self.width}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")


def keystream(key: Configuration, spec: KeystreamSpec, length: int) -> Bits:
    """Tap-cell sequence of the ring seeded with ``key``, after burn-in."""
    if key.width != spec.width:
        raise ValueError(f"key width {key.width} does not match spec width {spec.width}")
    return tuple(b"".join(_taps(key, spec.rule, spec.tap, length, spec.burn_in)))


def vernam_encrypt(plain: Bits, key: Bits) -> Bits:
    """Bitwise XOR of two packed streams; the key must match the plaintext length exactly."""
    if len(plain) != len(key):
        raise ValueError(
            f"key length {len(key)} does not match message length {len(plain)}; "
            "a keystream is never truncated or reused"
        )
    return _unpack(_pack(plain, "message bits") ^ _pack(key, "key bits"), len(plain))


def vernam_decrypt(cipher: Bits, key: Bits) -> Bits:
    """XOR is an involution: decryption is encryption with the same key."""
    return vernam_encrypt(cipher, key)
