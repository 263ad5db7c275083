"""Spectral machinery against the defining double sum and direct simulation."""
import random
from functools import cache
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castream import spectrum
from castream.cli import main
from castream.engine import Configuration, _window, rule_from_number, temporal_sequence
from castream.spectrum import (
    BooleanFunction,
    WalshSpectrum,
    _spectrum_rows,
    _walsh_value,
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


_rng = random.Random(5)
RING_CASES = [
    *((number, 1, t) for number in (30, 45, 90, 110, 150) for t in range(1, 6)),
    *((_rng.randrange(256), 1, t) for _ in range(6) for t in range(1, 5)),
    *((_rng.randrange(1 << 32), 2, t) for _ in range(6) for t in range(1, 3)),
]


@pytest.mark.parametrize("number, radius, t", RING_CASES)
def test_iterate_rule_is_the_tap_bit_of_the_ring_at_time_t_over_every_key(number, radius, t):
    # On a ring of 2rt + 1 cells the middle cell at time t depends on every cell once, with no wrap.
    # Key x is the ring whose cells, read from cell 0, are the bits of x from the most significant:
    # cell j is variable 2rt - j, so the leftmost window cell is the top bit, as in the rule tables.
    rule, width = rule_from_number(number, radius), 2 * radius * t + 1
    table = iterate_rule(rule, t).truth_table
    taps = [temporal_sequence(Configuration.from_bits(format(x, f"0{width}b")), rule, radius * t, t + 1)[t]
            for x in range(1 << width)]
    assert taps == list(table)


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


def reference_score(rule, order):
    """Oracle: the minmax score read off the full transform."""
    f = iterate_rule(rule, order)
    values = walsh_transform(f).values
    cfg, val = 0, 0
    for k in range(f.n):
        magnitude = abs(values[1 << k])
        if magnitude >= val and magnitude > 0:
            cfg, val = 1 << k, magnitude
    return cfg, val


def reference_immunity_order(values):
    """Oracle: the Xiao-Massey test, one mask at a time."""
    n = len(values).bit_length() - 1
    weights = [bin(omega).count("1") for omega in range(1, len(values)) if values[omega]]
    return min(weights) - 1 if weights else n


@given(
    case=st.one_of(
        st.tuples(st.just(1), st.integers(0, 255), st.integers(1, 8)),
        st.tuples(st.just(2), st.integers(0, (1 << 32) - 1), st.integers(1, 5)),
    )
)
@settings(max_examples=40, deadline=None)
def test_minmax_score_matches_transform_reference(case):
    radius, number, order = case
    rule = rule_from_number(number, radius)
    assert minmax_score(rule, order) == reference_score(rule, order)


def test_minmax_score_matches_transform_reference_on_balanced_rules():
    for number in scan_rules([1]).balanced_rules():
        rule = rule_from_number(number)
        for order in range(1, 6):
            assert minmax_score(rule, order) == reference_score(rule, order)


@cache
def full_scan():
    return scan_rules(range(1, 9))


def test_scan_scores_match_minmax_and_transform_reference_to_order_8():
    report = full_scan()
    assert len(report.balanced_rules()) == 70
    for number in report.balanced_rules():
        rule = rule_from_number(number)
        for order in range(1, 9):
            expected = minmax_score(rule, order)
            assert report.row(number).scores[order] == expected == reference_score(rule, order), (number, order)


@given(orders=st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True))
@settings(max_examples=25, deadline=None)
def test_any_subset_of_orders_scores_as_the_full_scan(orders):
    report, full = scan_rules(orders), full_scan()
    assert report.orders == tuple(orders)
    assert [row.scores for row in report.rows] == [{o: row.scores[o] for o in orders} if row.balanced else {}
                                                   for row in full.rows]


def test_scan_compiles_one_kernel_per_balanced_class():
    from castream.engine import _kernel

    _kernel.cache_clear()
    report = scan_rules(range(1, 9))
    assert len({min(row.members) for row in report.rows if row.balanced}) == 29
    assert _kernel.cache_info().misses <= 29


@given(
    n=st.integers(1, 8),
    linear=st.integers(0, 255),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_correlation_immunity_order_matches_per_mask_reference(n, linear, seed):
    # parity over the variables in ``linear`` XOR a random function of the
    # others is immune to order at least |linear| - 1
    linear &= (1 << n) - 1
    rng = random.Random(seed)
    rest = [rng.getrandbits(1) for _ in range(1 << n)]
    table = tuple(bin(x & linear).count("1") & 1 ^ rest[x & ~linear] for x in range(1 << n))
    f = BooleanFunction(table)
    order = correlation_immunity_order(f)
    assert order == reference_immunity_order(naive_walsh(table))
    assert order >= bin(linear).count("1") - 1


@given(table=st.integers(1, 9).flatmap(lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)))
@settings(max_examples=100, deadline=None)
def test_boolean_function_round_trips_through_its_packed_table(table):
    f = BooleanFunction(table)
    assert f.truth_table == tuple(table)
    assert f.n == len(table).bit_length() - 1
    packed = sum(bit << x for x, bit in enumerate(table))
    assert f == BooleanFunction._packed(packed, f.n)
    assert hash(f) == hash(BooleanFunction._packed(packed, f.n))
    assert BooleanFunction(f.truth_table) == f
    assert BooleanFunction(tuple(table) + (0,) * len(table)) != f  # same packed int, one variable more
    assert repr(f) == f"BooleanFunction(truth_table={tuple(table)!r})"
    assert is_balanced(f) == (2 * sum(table) == len(table))


@pytest.mark.parametrize(
    "table, message",
    [
        ((), "power of two"),
        ((1,), "power of two"),
        ((0, 1, 0), "power of two"),
        ((0,) * 6, "power of two"),
        ((0, 2), "0 or 1"),
        ((0, 1, -1, 0), "0 or 1"),
        (("0", "1"), "0 or 1"),
    ],
)
def test_boolean_function_validation(table, message):
    with pytest.raises(ValueError, match=message):
        BooleanFunction(table)


def test_boolean_function_is_immutable():
    f = BooleanFunction((0, 1))
    with pytest.raises(AttributeError):
        f.n = 2


@given(table=st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)))
@settings(max_examples=60, deadline=None)
def test_spectrum_values_are_a_tuple_equal_to_the_defining_sum(table):
    spectrum = walsh_transform(BooleanFunction(table))
    assert type(spectrum.values) is tuple
    assert all(type(v) is int for v in spectrum.values)
    assert spectrum.values == naive_walsh(table)
    assert spectrum.n == len(table).bit_length() - 1
    assert spectrum == WalshSpectrum(naive_walsh(table))


def test_spectrum_array_is_read_only():
    spectrum = walsh_transform(iterate_rule(rule_from_number(30), 2))
    with pytest.raises(ValueError):
        spectrum.array[0] = 1
    given_values = np.zeros(4, dtype=np.int64)
    held = WalshSpectrum(given_values)
    given_values[0] = 5  # the caller's array stays writable; the view does not
    with pytest.raises(ValueError):
        held.array[1] = 1


@pytest.mark.parametrize(
    "rule, radius, order",
    [(30, 1, 1), (0, 1, 3), (90, 1, 4), (30, 1, 8), (110, 1, 8), (869020563, 2, 3), (1436965290, 2, 4)],
)
def test_spectrum_csv_matches_per_row_renderer(tmp_path, capsys, rule, radius, order):
    # 30 and 110 at order 8 have 2^17 rows, more than one written chunk
    values = walsh_transform(iterate_rule(rule_from_number(rule, radius), order)).values
    expected = "\n".join(["omega,value"] + [f"{omega},{value}" for omega, value in enumerate(values)]) + "\n"
    argv = ["spectrum", "--rule", str(rule), "--radius", str(radius), "--order", str(order)]
    assert main(argv) == 0
    assert first_difference(capsys.readouterr().out, expected) is None
    path = tmp_path / "spectrum.csv"
    assert main(argv + ["--out", str(path)]) == 0
    assert first_difference(path.read_bytes().decode(), expected) is None


_EDGE_VALUES = (0, 9_999, -9_999, 10_000, -10_000, 10**7, -(10**7), 1 << 24, -(1 << 24))


@given(
    rows=st.integers(1, 17),
    length=st.integers(1, 200),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_spectrum_rows_match_per_row_formatting(rows, length, data, seed):
    # pieces of 1 to 17 rows, so the scratch arrays are refilled many times and the last piece may be short;
    # the rows run across a digit-count boundary of omega (or start at omega 0), with values of every
    # digit count in [-2^24, 2^24] and the edges of the 4-digit groups placed among them
    anchor = data.draw(st.sampled_from([0, 10**4, 10**7, (1 << 24) - 1]), label="anchor")
    start = max(0, anchor - data.draw(st.integers(0, length), label="offset"))
    rng = np.random.default_rng(seed)
    values = rng.integers(-(1 << 24), (1 << 24) + 1, length) >> rng.integers(0, 25, length)
    for position, value in data.draw(st.lists(st.tuples(st.integers(0, length - 1), st.sampled_from(_EDGE_VALUES)))):
        values[position] = value
    values = values.astype(np.int32)
    expected = [f"{start + i},{value}\n".encode() for i, value in enumerate(values.tolist())]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "CSV_CHUNK_ROWS", rows)
        pieces = list(_spectrum_rows(start, values))
    assert pieces == [b"".join(expected[first : first + rows]) for first in range(0, length, rows)]


def test_spectrum_rows_refill_a_short_last_piece(monkeypatch):
    # a piece of wide negative values, then a short piece of small positive ones: the sign and the high
    # groups are written again, and only the rows of the short piece are emitted
    monkeypatch.setattr(spectrum, "CSV_CHUNK_ROWS", 4)
    values = np.array([-(1 << 24), -12_345_678, -10_000, -99_999, 5, 0], dtype=np.int32)
    rows = [f"{9_998 + i},{value}\n".encode() for i, value in enumerate(values.tolist())]
    assert list(_spectrum_rows(9_998, values)) == [b"".join(rows[:4]), b"".join(rows[4:])]


def test_int32_spectrum_is_exact_at_24_variables():
    n = 24
    ones = walsh_transform(BooleanFunction._packed((1 << (1 << n)) - 1, n))
    assert ones.array.dtype == np.int32
    assert ones.array[0] == 1 << n and not ones.array[1:].any()
    # .values of the whole spectrum would be a 2^24-entry tuple; its head shows the conversion
    head = WalshSpectrum(ones.array[:4]).values
    assert type(head) is tuple and all(type(v) is int for v in head) and head == (1 << n, 0, 0, 0)
    del ones
    x0 = walsh_transform(BooleanFunction._packed(int.from_bytes(b"\xaa" * (1 << (n - 3)), "little"), n))  # F = x_0
    assert (x0.array[0], x0.array[1]) == (1 << (n - 1), -(1 << (n - 1))) and not x0.array[2:].any()


@pytest.mark.parametrize("n", [14, 15])
def test_transform_is_exact_where_its_int16_levels_end(n):
    # the int16 levels end below 2^14: there the all-ones table sums each 2^14-entry block to 2^14, and a linear
    # function (or its complement) whose mask spans the low 14 variables reaches -2^13 (or +2^13)
    size, full = 1 << n, (1 << (1 << n)) - 1
    expected = np.zeros(size, dtype=np.int32)
    expected[0] = size
    assert np.array_equal(walsh_transform(BooleanFunction._packed(full, n)).array, expected)
    window = _window(n)
    for mask in ((1 << n) - 1, (1 << 14) - 1, 1 << 13, 1 << (n - 1)):
        linear = 0
        for k in range(n):
            if mask >> k & 1:
                linear ^= window[n - 1 - k]
        for table, sign in ((linear, -1), (full ^ linear, 1)):
            expected[:] = 0
            expected[0], expected[mask] = size // 2, sign * size // 2
            assert np.array_equal(walsh_transform(BooleanFunction._packed(table, n)).array, expected), (mask, sign)


@given(n=st.sampled_from([13, 14, 15, 19]), seed=st.integers(0, 2**32 - 1), bias=st.integers(-3, 3), data=st.data())
@settings(max_examples=30, deadline=None)
def test_transform_matches_single_values_across_its_seams(n, seed, bias, data):
    # n = 19 spans two int16 blocks of 2^18 entries; a biased table (ones at density 2^-(|bias| + 1), complemented
    # when bias < 0) moves the partial sums toward the int16 limits
    rng = random.Random(seed)
    table = rng.getrandbits(1 << n)
    for _ in range(abs(bias)):
        table &= rng.getrandbits(1 << n)
    if bias < 0:
        table ^= (1 << (1 << n)) - 1
    f = BooleanFunction._packed(table, n)
    values = walsh_transform(f).array
    seams = [0, 1, (1 << 13) - 1, 1 << 13, (1 << 14) - 1, 1 << 14, (1 << 18) - 1, 1 << 18, (1 << n) - 1]
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12), label="masks")
    for omega in masks + [m for m in seams if m < 1 << n]:
        assert values[omega] == _walsh_value(f, omega), omega


def first_difference(text, expected):
    """None when equal, else the first differing line (a diff of megabytes would take minutes)."""
    if text == expected:
        return None
    lines, want = text.split("\n"), expected.split("\n")
    index = next((i for i, (a, b) in enumerate(zip(lines, want)) if a != b), min(len(lines), len(want)))
    return index, lines[index : index + 1], want[index : index + 1]


def test_boolean_function_rejects_floats_and_packs_arrays_like_lists():
    with pytest.raises(ValueError, match="truth table entries must be 0 or 1"):
        BooleanFunction((1.0, 0))
    table = [0, 1, 1, 1, 0, 0, 1, 0]
    for dtype in (np.int64, np.bool_):
        assert BooleanFunction(np.array(table, dtype=dtype)) == BooleanFunction(table)


def test_scan_report_rejects_repeated_rules():
    report = scan_rules((1,))
    with pytest.raises(ValueError, match="must not repeat"):
        scan_report_csv(report, only=[30, 30])
