"""Rule equivalences, affine and left-permutive structure, checked exhaustively."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castream.algebra import (
    AffineDecomposition,
    affine_decomposition,
    conjugate,
    conjugate_reflect,
    equivalence_class,
    reflect,
)
from castream.attack import is_left_permutive
from castream.engine import Rule, rule_from_number
from castream.spectrum import is_balanced, iterate_rule

def reference_affine_decomposition(rule):
    """Independent oracle: match the table against every mask and constant."""
    n = rule.neighborhood_size
    for mask in range(1 << n):
        for constant in (0, 1):
            if all(
                rule.truth_table[x] == constant ^ (bin(x & mask).count("1") & 1)
                for x in range(1 << n)
            ):
                # mask bit n-1 selects the leftmost neighborhood cell
                bits = tuple((mask >> (n - 1 - j)) & 1 for j in range(n))
                return AffineDecomposition(True, bits, constant)
    return AffineDecomposition(False)


def reference_is_left_permutive(rule):
    """Independent oracle: flipping the leftmost bit flips the output on every input."""
    high = 1 << (rule.neighborhood_size - 1)
    table = rule.truth_table
    return all(table[x] != table[x ^ high] for x in range(high))


@st.composite
def radius_2_rules(draw):
    """Radius-2 rules drawn at random, built affine, or built left-permutive as x0 ^ g."""
    kind = draw(st.sampled_from(("random", "affine", "left-permutive")))
    if kind == "random":
        return rule_from_number(draw(st.integers(0, (1 << 32) - 1)), 2)
    if kind == "affine":
        mask, constant = draw(st.integers(0, 31)), draw(st.integers(0, 1))
        return Rule(2, tuple(constant ^ (bin(x & mask).count("1") & 1) for x in range(32)))
    g = draw(st.integers(0, (1 << 16) - 1))
    return Rule(2, tuple(x >> 4 ^ g >> (x & 15) & 1 for x in range(32)))


# conj / refl / conj-refl companions of the twelve interesting rules
EQUIVALENCE_COLUMNS = {
    30: (135, 86, 149),
    60: (195, 102, 153),
    86: (149, 30, 135),
    90: (165, 90, 165),
    102: (153, 60, 195),
    105: (105, 105, 105),
    135: (30, 149, 86),
    149: (86, 135, 30),
    150: (150, 150, 150),
    153: (102, 195, 60),
    165: (90, 165, 90),
    195: (60, 153, 102),
}


def test_conjugate_30_is_135():
    assert conjugate(rule_from_number(30)).number == 135


def test_conjugate_90_is_165():
    assert conjugate(rule_from_number(90)).number == 165


def test_conjugate_is_involution():
    for number in range(256):
        rule = rule_from_number(number)
        assert conjugate(conjugate(rule)) == rule


def test_conjugate_pointwise_definition():
    for number in range(256):
        rule = rule_from_number(number)
        image = conjugate(rule)
        for x in range(8):
            assert image.truth_table[x] == 1 - rule.truth_table[x ^ 0b111]


def test_conjugate_number_identity():
    # secondary check: the conjugate's number is the complement of the bit-reversed table
    for number in range(256):
        reversed_bits = int(f"{number:08b}"[::-1], 2)
        assert conjugate(rule_from_number(number)).number == reversed_bits ^ 0xFF


def test_reflect_30_is_86():
    assert reflect(rule_from_number(30)).number == 86


def test_reflect_105_is_itself():
    assert reflect(rule_from_number(105)).number == 105


def test_reflect_is_involution():
    for number in range(256):
        rule = rule_from_number(number)
        assert reflect(reflect(rule)) == rule


def test_reflect_pointwise_definition():
    for number in range(256):
        rule = rule_from_number(number)
        image = reflect(rule)
        for x in range(8):
            mirrored = ((x & 1) << 2) | (x & 0b010) | (x >> 2)
            assert image.truth_table[x] == rule.truth_table[mirrored]


def test_conjugate_reflect_30_is_149():
    assert conjugate_reflect(rule_from_number(30)).number == 149


def test_conjugate_reflect_150_is_itself():
    assert conjugate_reflect(rule_from_number(150)).number == 150


def test_transforms_commute():
    for number in range(256):
        rule = rule_from_number(number)
        assert conjugate(reflect(rule)) == reflect(conjugate(rule))
        assert conjugate_reflect(rule) == conjugate(reflect(rule))


def test_equivalence_class_30():
    assert equivalence_class(rule_from_number(30)) == frozenset({30, 135, 86, 149})


def test_equivalence_class_singleton_105():
    assert equivalence_class(rule_from_number(105)) == frozenset({105})


def test_equivalence_class_pair_90():
    assert equivalence_class(rule_from_number(90)) == frozenset({90, 165})


def test_equivalence_columns_of_interesting_rules():
    for number, (conj, refl, cr) in EQUIVALENCE_COLUMNS.items():
        rule = rule_from_number(number)
        assert conjugate(rule).number == conj
        assert reflect(rule).number == refl
        assert conjugate_reflect(rule).number == cr


def test_equivalence_class_closure_property():
    for number in range(256):
        members = equivalence_class(rule_from_number(number))
        assert number in members
        assert 1 <= len(members) <= 4
        for member in members:
            assert equivalence_class(rule_from_number(member)) == members


def test_transforms_reject_radius_2():
    rule = rule_from_number(0, 2)
    for transform in (conjugate, reflect, conjugate_reflect, equivalence_class):
        with pytest.raises(ValueError):
            transform(rule)


def test_affine_rule_90():
    decomposition = affine_decomposition(rule_from_number(90))
    assert decomposition.is_affine
    assert decomposition.mask == (1, 0, 1)
    assert decomposition.constant == 0


def test_affine_rule_105():
    decomposition = affine_decomposition(rule_from_number(105))
    assert decomposition.is_affine
    assert decomposition.mask == (1, 1, 1)
    assert decomposition.constant == 1


def test_rule_30_is_not_affine():
    assert not affine_decomposition(rule_from_number(30)).is_affine


def test_affine_decomposition_reproduces_table():
    for number in range(256):
        rule = rule_from_number(number)
        decomposition = affine_decomposition(rule)
        if not decomposition.is_affine:
            continue
        for x in range(8):
            parity = 0
            for j, selected in enumerate(decomposition.mask):
                if selected:
                    parity ^= (x >> (2 - j)) & 1
            assert rule.truth_table[x] == decomposition.constant ^ parity


def test_affine_count_is_16():
    # 8 masks times 2 constants over 3 variables
    assert sum(affine_decomposition(rule_from_number(n)).is_affine for n in range(256)) == 16


def test_transforms_preserve_balancedness():
    for number in range(256):
        rule = rule_from_number(number)
        balanced = is_balanced(iterate_rule(rule, 1))
        for image in (conjugate(rule), reflect(rule), conjugate_reflect(rule)):
            assert is_balanced(iterate_rule(image, 1)) == balanced


def test_transforms_preserve_affinity():
    for number in range(256):
        rule = rule_from_number(number)
        affine = affine_decomposition(rule).is_affine
        for image in (conjugate(rule), reflect(rule), conjugate_reflect(rule)):
            assert affine_decomposition(image).is_affine == affine


def test_anf_readings_match_the_references_on_every_radius_1_rule():
    for number in range(256):
        rule = rule_from_number(number)
        assert affine_decomposition(rule) == reference_affine_decomposition(rule), number
        assert is_left_permutive(rule) == reference_is_left_permutive(rule), number


@given(rule=radius_2_rules())
@settings(max_examples=300, deadline=None)
def test_anf_readings_match_the_references_on_radius_2_rules(rule):
    assert affine_decomposition(rule) == reference_affine_decomposition(rule)
    assert is_left_permutive(rule) == reference_is_left_permutive(rule)
