"""Spectral machinery against the defining double sum and direct simulation."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castream.engine import rule_from_number
from castream.spectrum import (
    BooleanFunction,
    correlation_bias,
    correlation_immunity_order,
    is_balanced,
    iterate_rule,
    minmax_score,
    scan_report_csv,
    scan_rules,
    walsh_transform,
)

KNOWN_SCORES = {
    30: ((4, 2), (16, 4), (64, 16), (256, 40), (1024, 80)),
    60: ((0, 0),) * 5,
    86: ((1, 2), (1, 4), (1, 16), (1, 40), (1, 80)),
    90: ((0, 0),) * 5,
    102: ((0, 0),) * 5,
    105: ((0, 0),) * 5,
    135: ((4, 2), (16, 4), (64, 16), (256, 40), (1024, 80)),
    149: ((1, 2), (1, 4), (1, 16), (1, 40), (1, 80)),
    150: ((0, 0),) * 5,
    153: ((0, 0),) * 5,
    165: ((0, 0),) * 5,
    195: ((0, 0),) * 5,
}


def naive_walsh(truth_table):
    """Oracle: the defining double sum, evaluated with a sign matrix."""
    n = len(truth_table).bit_length() - 1
    xs = np.arange(1 << n)
    parity = np.zeros((1 << n, 1 << n), dtype=np.int64)
    for omega in range(1 << n):
        masked = xs & omega
        bits = np.zeros(1 << n, dtype=np.int64)
        for shift in range(n):
            bits ^= (masked >> shift) & 1
        parity[omega] = bits
    signs = 1 - 2 * parity
    return tuple(int(v) for v in signs @ np.array(truth_table, dtype=np.int64))


def simulate_window(rule, window, order):
    """Oracle: open-boundary evolution of an explicit cell list."""
    cells = list(window)
    for _ in range(order):
        cells = [
            rule.apply(cells[i : i + rule.neighborhood_size])
            for i in range(len(cells) - 2 * rule.radius)
        ]
    assert len(cells) == 1
    return cells[0]


def test_iterate_rule_order_1_is_the_rule_table():
    for number in (30, 90, 105, 150):
        rule = rule_from_number(number)
        assert iterate_rule(rule, 1).truth_table == rule.truth_table


def test_iterate_rule_90_order_2_is_x_minus2_xor_x_plus2():
    f = iterate_rule(rule_from_number(90), 2)
    assert f.n == 5
    for x in range(32):
        leftmost = (x >> 4) & 1
        rightmost = x & 1
        assert f.truth_table[x] == leftmost ^ rightmost


def test_iterate_rule_30_matches_window_simulation():
    rng = random.Random(123)
    rule = rule_from_number(30)
    f = iterate_rule(rule, 3)
    for _ in range(200):
        x = rng.randrange(1 << 7)
        window = [(x >> (6 - j)) & 1 for j in range(7)]
        assert f.truth_table[x] == simulate_window(rule, window, 3)


def test_iterate_rule_radius_2_variable_count():
    f = iterate_rule(rule_from_number(869020563, 2), 2)
    assert f.n == 9
    rng = random.Random(7)
    rule = rule_from_number(869020563, 2)
    for _ in range(50):
        x = rng.randrange(1 << 9)
        window = [(x >> (8 - j)) & 1 for j in range(9)]
        assert f.truth_table[x] == simulate_window(rule, window, 2)


@given(
    case=st.one_of(
        st.tuples(st.just(1), st.integers(0, 255), st.integers(1, 3)),
        st.tuples(st.just(2), st.integers(0, (1 << 32) - 1), st.integers(1, 2)),
    )
)
@settings(max_examples=60, deadline=None)
def test_iterate_rule_matches_window_simulation_on_random_rules(case):
    radius, number, order = case
    rule = rule_from_number(number, radius)
    f = iterate_rule(rule, order)
    n = 2 * radius * order + 1
    for x in range(1 << n):
        window = [(x >> (n - 1 - j)) & 1 for j in range(n)]
        assert f.truth_table[x] == simulate_window(rule, window, order)


def test_iterate_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        iterate_rule(rule_from_number(30), 0)


def test_iterate_rule_rejects_oversized_window():
    # radius 2 at order 6 would need 25 variables, past the memory guard
    with pytest.raises(ValueError):
        iterate_rule(rule_from_number(869020563, 2), 6)


def test_walsh_rule_30_values():
    values = walsh_transform(iterate_rule(rule_from_number(30), 1)).values
    assert values[0] == 4
    assert values[4] == 2
    assert values[1] == 0
    assert values[2] == 0


def test_walsh_constant_zero_function():
    assert walsh_transform(BooleanFunction((0,) * 8)).values == (0,) * 8


def test_walsh_rule_90_values():
    values = walsh_transform(iterate_rule(rule_from_number(90), 1)).values
    assert values[5] == -4
    assert values[1] == values[2] == values[4] == 0


def test_fast_transform_equals_naive_on_all_rules():
    for number in range(256):
        table = rule_from_number(number).truth_table
        assert walsh_transform(BooleanFunction(table)).values == naive_walsh(table)


def test_fast_transform_equals_naive_on_random_functions():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randrange(1, 9)
        table = tuple(rng.getrandbits(1) for _ in range(1 << n))
        assert walsh_transform(BooleanFunction(table)).values == naive_walsh(table)


def test_parseval_identity_all_rules():
    for number in range(256):
        f = BooleanFunction(rule_from_number(number).truth_table)
        values = walsh_transform(f).values
        assert sum(v * v for v in values) == (1 << f.n) * values[0]


def test_balancedness_examples():
    assert is_balanced(iterate_rule(rule_from_number(30), 1))
    assert not is_balanced(BooleanFunction((0,) * 8))
    assert not is_balanced(iterate_rule(rule_from_number(255), 1))


def test_correlation_immunity_examples():
    assert correlation_immunity_order(iterate_rule(rule_from_number(30), 1)) == 0
    assert correlation_immunity_order(iterate_rule(rule_from_number(90), 1)) == 1
    assert correlation_immunity_order(BooleanFunction((1,) * 8)) == 3


def test_correlation_bias_rule_30():
    assert correlation_bias(iterate_rule(rule_from_number(30), 1), 4) == Fraction(1, 4)


def test_correlation_bias_rule_90_mask_5():
    assert correlation_bias(iterate_rule(rule_from_number(90), 1), 5) == 1


def test_correlation_bias_zero_spectral_value_gives_half():
    f = iterate_rule(rule_from_number(30), 1)
    assert walsh_transform(f).values[1] == 0
    assert correlation_bias(f, 1) == Fraction(1, 2)


def test_correlation_bias_matches_half_minus_w_form_when_balanced():
    for number in range(256):
        f = BooleanFunction(rule_from_number(number).truth_table)
        if not is_balanced(f):
            continue
        values = walsh_transform(f).values
        for omega in range(1, 8):
            assert correlation_bias(f, omega) == Fraction(1, 2) - Fraction(values[omega], 8)


def test_correlation_bias_equals_conditional_enumeration():
    for number in range(256):
        table = rule_from_number(number).truth_table
        f = BooleanFunction(table)
        for omega in range(1, 8):
            hits = [x for x in range(8) if bin(x & omega).count("1") & 1]
            empirical = Fraction(sum(table[x] for x in hits), len(hits))
            assert correlation_bias(f, omega) == empirical


def test_correlation_bias_rejects_zero_mask():
    with pytest.raises(ValueError):
        correlation_bias(BooleanFunction((0, 1)), 0)


@pytest.mark.parametrize("number", sorted(KNOWN_SCORES))
def test_minmax_scores_match_reference_rows(number):
    rule = rule_from_number(number)
    for order, expected in zip(range(1, 6), KNOWN_SCORES[number]):
        assert minmax_score(rule, order) == expected


def test_minmax_rejects_out_of_range_order():
    with pytest.raises(ValueError):
        minmax_score(rule_from_number(30), 0)
    with pytest.raises(ValueError):
        minmax_score(rule_from_number(30), 9)


def test_equivalent_rules_score_consistently():
    # conjugation preserves (cfg, val); reflection (and its composition with
    # conjugation) keeps val and mirrors the achieving mask 2^k to 2^(2o-k)
    from castream.algebra import conjugate, conjugate_reflect, reflect

    for number in sorted(KNOWN_SCORES):
        rule = rule_from_number(number)
        for order in range(1, 6):
            cfg, val = minmax_score(rule, order)
            assert minmax_score(conjugate(rule), order) == (cfg, val)
            mirrored = 1 << (2 * order - cfg.bit_length() + 1) if cfg else 0
            assert minmax_score(reflect(rule), order) == (mirrored, val)
            assert minmax_score(conjugate_reflect(rule), order) == (mirrored, val)


def test_scan_finds_70_balanced_rules():
    report = scan_rules([1])
    assert len(report.balanced_rules()) == 70


def test_scan_best_nonlinear_is_rule_30_class():
    report = scan_rules(range(1, 6))
    assert report.best_nonlinear_rules() == frozenset({30, 86, 135, 149})


def test_scan_flat_rules_are_the_affine_reference_rows():
    report = scan_rules(range(1, 6))
    assert report.flat_rules() == (60, 90, 102, 105, 150, 153, 165, 195)
    for number in report.flat_rules():
        assert report.row(number).affine


def test_scan_rejects_empty_or_out_of_range_orders():
    with pytest.raises(ValueError):
        scan_rules([])
    with pytest.raises(ValueError):
        scan_rules([0, 1])


def test_scan_csv_layout():
    report = scan_rules([1, 2])
    text = scan_report_csv(report, only=[30, 90])
    lines = text.strip().splitlines()
    assert lines[0] == "rule,cfg1,val1,cfg2,val2,conj,refl,cr"
    assert lines[1] == "30,4,2,16,4,135,86,149"
    assert lines[2] == "90,0,0,0,0,165,90,165"


def test_scan_csv_blank_scores_for_unbalanced_rules():
    report = scan_rules([1])
    text = scan_report_csv(report, only=[0])
    assert text.strip().splitlines()[1] == "0,,,255,0,255"


def test_scan_to_order_5_stays_desk_scale():
    import time

    start = time.perf_counter()
    scan_rules(range(1, 6))
    assert time.perf_counter() - start < 60
