"""Equivalences and structural classification of radius-1 rules.

Two transformations preserve the statistical behavior of generated
sequences: conjugation (complement every cell state) and reflection
(mirror left and right).  Together with their composition they partition
the 256 elementary rules into classes of one to four members.

``affine_decomposition`` reports *affine* structure, i.e. an XOR of a
subset of neighborhood variables plus an optional constant 1: algebraic
degree at most 1, read off the rule's algebraic normal form.  Rules such
as 105 (all three variables XORed, then complemented) count as affine even
though they are not linear in the strict constant-free sense.
"""
from __future__ import annotations

from .engine import Rule, _anf, _Record

__all__ = [
    "AffineDecomposition",
    "conjugate",
    "reflect",
    "conjugate_reflect",
    "equivalence_class",
    "affine_decomposition",
]


def _require_radius_1(rule: Rule) -> None:
    if rule.radius != 1:
        raise ValueError("rule equivalences are defined for radius-1 rules only")


def conjugate(rule: Rule) -> Rule:
    """Complement-equivalent rule: g(x) = NOT f(NOT x), per neighborhood bit."""
    _require_radius_1(rule)
    return Rule.from_number(_conjugate(rule.number))


def reflect(rule: Rule) -> Rule:
    """Mirror-equivalent rule: g(x) = f(x with neighborhood order reversed)."""
    _require_radius_1(rule)
    return Rule.from_number(_reflect(rule.number))


def conjugate_reflect(rule: Rule) -> Rule:
    """Composition of conjugation and reflection (the two commute)."""
    return conjugate(reflect(rule))


def _conjugate(number: int) -> int:
    """The conjugate's rule number: bit x is NOT bit 7 - x (NOT x is 7 - x on three bits)."""
    return int(f"{number:08b}"[::-1], 2) ^ 0xFF


def _reflect(number: int) -> int:
    """The reflection's rule number: bits 1 (001) and 4 (100) swap, as do 3 (011) and 6 (110)."""
    return number & 0xA5 | (number & 0x0A) << 3 | (number & 0x50) >> 3


def equivalence_class(rule: Rule) -> frozenset[int]:
    """Rule numbers of the closure under conjugation and reflection."""
    _require_radius_1(rule)
    number = rule.number
    return frozenset((number, _conjugate(number), _reflect(number), _conjugate(_reflect(number))))


class AffineDecomposition(_Record):
    """Result of testing a rule for affine structure.

    When ``is_affine``, the rule output equals ``constant XOR (XOR of the
    neighborhood variables selected by mask)``; ``mask`` lists one bit per
    neighborhood position, leftmost cell first.
    """

    is_affine: bool
    mask: tuple[int, ...] | None = None
    constant: int | None = None


def affine_decomposition(rule: Rule) -> AffineDecomposition:
    """Affine iff no monomial of the algebraic normal form has degree >= 2."""
    anf = _anf(rule.number, rule.neighborhood_size)
    # ANF bit 0 is the constant and bit 2^v variable v; the leftmost neighbor is the highest v
    variables = [1 << v for v in reversed(range(rule.neighborhood_size))]
    if anf & ~sum(1 << x for x in [0, *variables]):
        return AffineDecomposition(False)
    return AffineDecomposition(True, tuple(anf >> x & 1 for x in variables), anf & 1)
