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
    table = tuple(1 - rule.truth_table[x ^ 0b111] for x in range(8))
    return Rule(1, table)


def reflect(rule: Rule) -> Rule:
    """Mirror-equivalent rule: g(x) = f(x with neighborhood order reversed)."""
    _require_radius_1(rule)
    table = tuple(rule.truth_table[_reverse3(x)] for x in range(8))
    return Rule(1, table)


def conjugate_reflect(rule: Rule) -> Rule:
    """Composition of conjugation and reflection (the two commute)."""
    return conjugate(reflect(rule))


def _reverse3(x: int) -> int:
    return ((x & 1) << 2) | (x & 2) | (x >> 2)


def equivalence_class(rule: Rule) -> frozenset[int]:
    """Rule numbers of the closure under conjugation and reflection."""
    _require_radius_1(rule)
    return frozenset(
        (rule.number, conjugate(rule).number, reflect(rule).number, conjugate_reflect(rule).number)
    )


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
    anf = _anf(rule.truth_table)
    # ANF bit 0 is the constant and bit 2^v variable v; the leftmost neighbor is the highest v
    variables = [1 << v for v in reversed(range(rule.neighborhood_size))]
    if anf & ~sum(1 << x for x in [0, *variables]):
        return AffineDecomposition(False)
    return AffineDecomposition(True, tuple(anf >> x & 1 for x in variables), anf & 1)
