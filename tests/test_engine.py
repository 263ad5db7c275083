"""Ring evolution against hand-checkable cases and a brute-force reference."""
import dataclasses
import dis
import hashlib
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from castream import engine
from castream.attack import backward_step
from castream.cipher import KeystreamSpec, keystream
from castream.engine import (
    Configuration,
    Rule,
    RuleAssignment,
    _anf,
    _circuit,
    _kernel,
    _loop,
    _pack,
    _unpack,
    _window,
    apply_rule,
    evolve,
    rule_from_number,
    step,
    step_nonuniform,
    temporal_sequence,
)


def reference_step(cells, rule):
    """Independent oracle: explicit per-cell neighborhood lookup, mod indexing."""
    n = len(cells)
    r = rule.radius
    rules = rule.rules if isinstance(rule, RuleAssignment) else (rule,) * n
    out = []
    for i in range(n):
        neighborhood = [cells[(i + off) % n] for off in range(-r, r + 1)]
        out.append(rules[i].apply(neighborhood))
    return tuple(out)


def rings(min_width, max_width=70):
    """Ring contents from the tightest wrap up to past one 64-bit word."""
    return st.integers(min_width, max_width).flatmap(
        lambda width: st.lists(st.integers(0, 1), min_size=width, max_size=width).map(tuple)
    )


def rule_numbers(radius):
    return st.integers(0, (1 << (1 << (2 * radius + 1))) - 1)


def test_rule_30_truth_table():
    rule = rule_from_number(30, 1)
    assert rule.truth_table == (0, 1, 1, 1, 1, 0, 0, 0)


def test_rule_zero_truth_table():
    assert rule_from_number(0, 1).truth_table == (0,) * 8


def test_radius_2_rule_is_binary_expansion():
    number = 869020563
    rule = rule_from_number(number, 2)
    assert len(rule.truth_table) == 32
    assert rule.truth_table == tuple((number >> x) & 1 for x in range(32))
    assert rule.number == number


def test_rule_number_round_trip_all_256():
    for number in range(256):
        rule = rule_from_number(number, 1)
        assert rule.number == number
        assert rule_from_number(rule.number, rule.radius) == rule


@pytest.mark.parametrize(
    "number, radius",
    [(-1, 1), (256, 1), (1 << 32, 2), (5, 3), (5, 0)],
)
def test_rule_from_number_rejects_bad_input(number, radius):
    with pytest.raises(ValueError):
        rule_from_number(number, radius)


def test_apply_rule_30_examples():
    rule = rule_from_number(30)
    assert apply_rule(rule, (0, 0, 1)) == 1
    assert apply_rule(rule, (1, 1, 1)) == 0


def test_apply_rule_30_equals_xor_or_identity():
    rule = rule_from_number(30)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                assert apply_rule(rule, (a, b, c)) == a ^ (b | c)


def test_apply_rule_rejects_wrong_length():
    with pytest.raises(ValueError):
        apply_rule(rule_from_number(30), (0, 1))


def anf_test_rules():
    """All 256 elementary rules, then radius-2 rules: 0, all ones, 869020563 and 200 drawn at random."""
    rng = random.Random(2)
    numbers = [0, (1 << 32) - 1, 869020563, *(rng.getrandbits(32) for _ in range(200))]
    return [rule_from_number(n) for n in range(256)] + [rule_from_number(n, 2) for n in numbers]


def test_anf_is_an_involution():
    for rule in anf_test_rules():
        anf = _anf(rule.number, rule.neighborhood_size)
        assert _anf(anf, rule.neighborhood_size) == rule.number, rule


def test_kernel_reproduces_the_truth_table_on_every_input():
    # rules 0 and 255 compile to the constants 0 and m
    for rule in anf_test_rules():
        kernel, n = _kernel(rule.number, rule.neighborhood_size), rule.neighborhood_size
        for x, bit in enumerate(rule.truth_table):
            operands = [x >> (n - 1 - j) & 1 for j in range(n)]
            assert kernel(*operands, 1) & 1 == bit, (rule, x)


def anf_operators(table, arity):
    """The operators of the algebraic normal form written out: an XOR between terms, an AND within one."""
    anf = _anf(table, arity)
    degrees = [bin(x).count("1") for x in range(1 << arity) if anf >> x & 1]
    return max(len(degrees) - 1, 0) + sum(max(degree - 1, 0) for degree in degrees)


def test_circuit_has_no_more_operators_than_the_anf_and_no_tilde():
    # a negative operand would make every later big-int operation slower, so negation is "one ^"
    for rule in anf_test_rules():
        code = _circuit(rule.number, tuple(f"x{j}" for j in range(rule.neighborhood_size)), "m")
        assert "~" not in code, (rule, code)
        assert sum(map(code.count, "&|^")) <= anf_operators(rule.number, rule.neighborhood_size), (rule, code)
    assert _circuit(30, ("a", "b", "c"), "one") == "a ^ (b | c)"
    assert _circuit(0, ("a", "b", "c"), "one") == "0"
    assert _circuit(255, ("a", "b", "c"), "one") == "one"


def test_every_circuit_is_the_one_recorded_before_rules_were_held_as_numbers():
    # the sha256 of every anf_test_rules() circuit, one a line, as the tuple-keyed compile layer emitted them
    codes = [_circuit(rule.number, tuple(f"x{j}" for j in range(rule.neighborhood_size)), "m")
             for rule in anf_test_rules()]
    digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    assert (len(codes), digest) == (459, "21413bc570c41706f101164925d07ff54dd97c92738941e771da175135b3519a")


def test_kernel_reproduces_the_whole_table_on_the_window_lanes():
    # the window's variables as tables: one call evaluates every input at once, with all-ones as the constant
    for rule in anf_test_rules():
        kernel, n = _kernel(rule.number, rule.neighborhood_size), rule.neighborhood_size
        assert kernel(*_window(n), (1 << (1 << n)) - 1) == rule.number, rule


@pytest.mark.parametrize("number, radius", [(30, 1), (45, 1), (63, 1), (101, 1), (869020563, 2)])
def test_compiled_kernels_and_ring_loops_never_invert(number, radius):
    rule = rule_from_number(number, radius)
    hybrid = RuleAssignment.cycle([rule, rule_from_number(number ^ 1, radius)], 65)
    for function in (_kernel(rule.number, rule.neighborhood_size), _loop(rule, 64), _loop(hybrid, 65)):
        assert all(instruction.opname != "UNARY_INVERT" for instruction in dis.get_instructions(function))


def test_step_single_cell():
    config = Configuration.from_bits("00010000")
    assert str(step(config, rule_from_number(30))) == "00111000"


def test_step_zero_ring_stays_zero():
    config = Configuration.zeros(8)
    assert step(config, rule_from_number(30)) == config


def test_step_known_five_cell_row():
    after = step(Configuration((0, 1, 0, 1, 1)), rule_from_number(30))
    assert after.cells == (0, 1, 0, 1, 0)


def test_step_matches_reference_on_random_rings():
    rng = random.Random(2024)
    for _ in range(100):
        number = rng.randrange(256)
        width = rng.randrange(3, 17)
        rule = rule_from_number(number)
        config = Configuration.random(width, rng)
        assert step(config, rule).cells == reference_step(config.cells, rule)


def test_step_radius_2_matches_reference():
    rng = random.Random(99)
    rule = rule_from_number(869020563, 2)
    for _ in range(50):
        config = Configuration.random(rng.randrange(5, 20), rng)
        assert step(config, rule).cells == reference_step(config.cells, rule)


@given(cells=rings(3))
@settings(max_examples=25, deadline=None)
def test_step_matches_reference_for_every_radius_1_rule(cells):
    config = Configuration(cells)
    for number in range(256):
        rule = rule_from_number(number)
        assert step(config, rule).cells == reference_step(cells, rule)


@given(number=rule_numbers(2), cells=rings(5))
@settings(max_examples=150, deadline=None)
def test_step_matches_reference_for_radius_2_rules(number, cells):
    rule = rule_from_number(number, 2)
    assert step(Configuration(cells), rule).cells == reference_step(cells, rule)


@given(radius=st.sampled_from((1, 2)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_step_matches_reference_for_mixed_assignments(radius, data):
    cells = data.draw(rings(2 * radius + 1))
    palette = data.draw(st.lists(rule_numbers(radius), min_size=1, max_size=4))
    picks = data.draw(st.lists(st.sampled_from(palette), min_size=len(cells), max_size=len(cells)))
    assignment = RuleAssignment(tuple(rule_from_number(n, radius) for n in picks))
    assert step(Configuration(cells), assignment).cells == reference_step(cells, assignment)


@given(radius=st.sampled_from((1, 2)), uniform=st.booleans(), length=st.integers(1, 40), data=st.data())
@settings(max_examples=100, deadline=None)
def test_temporal_sequence_matches_repeated_step(radius, uniform, length, data):
    cells = data.draw(rings(2 * radius + 1))
    if uniform:
        rule = rule_from_number(data.draw(rule_numbers(radius)), radius)
    else:
        picks = data.draw(st.lists(rule_numbers(radius), min_size=len(cells), max_size=len(cells)))
        rule = RuleAssignment(tuple(rule_from_number(n, radius) for n in picks))
    cell = data.draw(st.integers(0, len(cells) - 1))
    config, expected = Configuration(cells), []
    for _ in range(length):
        expected.append(config.cells[cell])
        config = step(config, rule)
    assert temporal_sequence(Configuration(cells), rule, cell, length) == tuple(expected)


def generators(radius, width):
    """Uniform rules, per-cell assignments, and the hybrid {30, 86, 101} tiled around the ring."""
    rules = st.lists(rule_numbers(radius), min_size=width, max_size=width)
    picks = st.one_of(
        rule_numbers(radius).map(lambda n: [n]),
        rules,
        *([st.just([30, 86, 101])] if radius == 1 else []),
    )
    return picks.map(lambda numbers: rule_from_number(numbers[0], radius) if len(numbers) == 1
                     else RuleAssignment.cycle([rule_from_number(n, radius) for n in numbers], width))


@pytest.mark.parametrize("chunk", [1, 7, 8, 9])
@given(radius=st.sampled_from((1, 2)), burn_in=st.integers(0, 20), length=st.integers(1, 30), data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_tap_chunks_match_the_iterated_reference(monkeypatch, chunk, radius, burn_in, length, data):
    # tiny chunks cross chunk boundaries, and with them the burn-in's end, within a few steps
    monkeypatch.setattr(engine, "TAP_CHUNK", chunk)
    cells = data.draw(rings(2 * radius + 1))
    rule = data.draw(generators(radius, len(cells)))
    cell = data.draw(st.integers(0, len(cells) - 1))
    column, state = [], cells
    for _ in range(burn_in + length):
        column.append(state[cell])
        state = reference_step(state, rule)
    assert temporal_sequence(Configuration(cells), rule, cell, burn_in + length) == tuple(column)
    spec = KeystreamSpec(rule, width=len(cells), tap=cell, burn_in=burn_in)
    assert keystream(Configuration(cells), spec, length) == tuple(column[burn_in:])


# rules under which a random ring keeps changing, so that a fault after many steps still shows
CHANGING = {1: (30, 45, 86, 101, 105, 150), 2: (869020563, 1436965290, 2746317213, 3610574010)}


def halo_cases():
    """Widths on both sides of the halo (64 cells, or the whole ring when narrower), at both radii."""
    return [(radius, width) for radius in (1, 2) for width in (3, 5, 63, 64, 65, 129, 200) if width > 2 * radius]


@pytest.mark.parametrize("kind", ["uniform", "assignment"])
@pytest.mark.parametrize("radius, width", halo_cases())
def test_long_runs_match_the_reference_across_many_halo_copies(monkeypatch, radius, width, kind):
    # the ring loop copies its halo of h = min(width, 64) cells every h // radius steps: 200 steps at
    # radius 1 and 100 at radius 2 copy it at least 3 times at every width
    steps, rng = 200 // radius, random.Random(f"{radius} {width} {kind}")
    numbers = [rng.choice(CHANGING[radius]) for _ in range(next(n for n in (3, 2) if width % n))]
    if kind == "uniform":
        rule = rule_from_number(numbers[0], radius)
    else:  # a pattern whose length does not divide the width, so the tiling has a seam
        rule = RuleAssignment.cycle([rule_from_number(n, radius) for n in numbers], width)
    rows = [tuple(rng.getrandbits(1) for _ in range(width))]
    for _ in range(steps):
        rows.append(reference_step(rows[-1], rule))
    assert len(set(rows[-32:])) > 1  # the ring still changes after the last copy
    key = Configuration(rows[0])
    monkeypatch.setattr(engine, "STATE_CHUNK", 7 * width)  # evolve makes its rows 7 to a call
    assert [row.cells for row in evolve(key, rule, steps).rows] == rows
    halo = min(width, 64)
    for cell in sorted({0, halo - 1, width - halo, width - 1, rng.randrange(width)}):  # the seams of ring and halo
        column = tuple(row[cell] for row in rows)
        assert temporal_sequence(key, rule, cell, steps + 1) == column, cell
        burn_in = rng.randrange(1, steps)
        spec = KeystreamSpec(rule, width=width, tap=cell, burn_in=burn_in)
        assert keystream(key, spec, steps + 1 - burn_in) == column[burn_in:], cell


def test_a_rule_holds_its_table_as_a_tuple_of_ints():
    rule = Rule(1, [0, 1, 1, 1, 1, 0, 0, 0])
    assert rule.truth_table == (0, 1, 1, 1, 1, 0, 0, 0)
    assert hash(rule) == hash(rule_from_number(30)) and rule == rule_from_number(30)
    assert step(Configuration((0, 1, 0, 1, 1)), rule).cells == reference_step((0, 1, 0, 1, 1), rule)
    assert Rule(1, (True,) + (False,) * 7).truth_table == (1,) + (0,) * 7
    # True == 1 and numpy.int64(1) == 1, so only the types tell whether an entry was kept as given
    table = (0, 1, 1, 1, 1, 0, 0, 0)
    for entries in (tuple(map(bool, table)), tuple(map(np.int64, table))):
        rule = Rule(1, entries)
        assert rule == rule_from_number(30) and all(type(bit) is int for bit in rule.truth_table), entries
        for x, bit in enumerate(table):
            neighborhood = (x >> 2 & 1, x >> 1 & 1, x & 1)
            applied, left = rule.apply(neighborhood), backward_step(rule, bit, x >> 1 & 1, x & 1)
            assert (applied, type(applied), left, type(left)) == (bit, int, x >> 2 & 1, int), (entries, x)
    assert type(Rule.from_number(np.int64(30)).number) is int


def test_a_rule_holds_its_radius_as_an_int():
    # True == 1 and numpy.int64(1) == 1, so only the types (and repr) tell whether the radius was kept as given
    table = (0, 1, 1, 1, 1, 0, 0, 0)
    rules = (Rule(np.int64(1), table), Rule(True, table), Rule.from_number(30, np.int64(1)), Rule.from_number(30, True))
    for rule in rules:
        assert type(rule.radius) is int and rule == rule_from_number(30) and repr(rule) == "Rule(30, radius=1)", rule
    assert type(Rule.from_number(869020563, np.int64(2)).radius) is int
    with pytest.raises(TypeError):
        Rule.from_number(30, 1.0)


def test_each_window_cell_is_its_variable():
    # cell c is variable k = width - 1 - c: bit x of its table is bit k of x
    for width in range(1, 13):
        window = _window(width)
        assert len(window) == width
        for c, cell in enumerate(window):
            k = width - 1 - c
            assert cell == sum(1 << x for x in range(1 << width) if x >> k & 1), (width, k)
    rng = random.Random(21)
    window = _window(21)
    for x in rng.sample(range(1 << 21), 2_000) + [0, (1 << 21) - 1]:
        assert [cell >> x & 1 for cell in window] == [x >> k & 1 for k in reversed(range(21))], x


def test_step_rejects_too_narrow_ring():
    with pytest.raises(ValueError):
        step(Configuration((0, 1)), rule_from_number(30))
    with pytest.raises(ValueError):
        step(Configuration((0, 1, 1, 0)), rule_from_number(869020563, 2))


@given(
    number=st.integers(0, 255),
    width=st.integers(3, 16),
    shift=st.integers(0, 15),
    data=st.data(),
)
@settings(max_examples=150)
def test_step_commutes_with_rotation(number, width, shift, data):
    rule = rule_from_number(number)
    cells = tuple(data.draw(st.integers(0, 1)) for _ in range(width))

    def rotate(seq, s):
        s %= len(seq)
        return seq[s:] + seq[:s]

    rotated_then_stepped = step(Configuration(rotate(cells, shift)), rule).cells
    stepped_then_rotated = rotate(step(Configuration(cells), rule).cells, shift)
    assert rotated_then_stepped == stepped_then_rotated


def test_step_nonuniform_uniform_degenerate():
    rng = random.Random(7)
    rule = rule_from_number(30)
    assignment = RuleAssignment((rule,) * 9)
    for _ in range(20):
        config = Configuration.random(9, rng)
        assert step_nonuniform(config, assignment) == step(config, rule)


def test_step_nonuniform_zero_ring_with_90_165():
    # rule 90 is even (000 -> 0) but its conjugate 165 is odd (000 -> 1)
    assignment = RuleAssignment.cycle([rule_from_number(90), rule_from_number(165)], 6)
    assert step_nonuniform(Configuration.zeros(6), assignment).cells == (0, 1, 0, 1, 0, 1)


def test_step_nonuniform_90_105_on_zero_ring():
    # rule 105 is odd, so it maps the all-zero neighborhood to 1; rule 90 maps it to 0
    assignment = RuleAssignment.cycle([rule_from_number(90), rule_from_number(105)], 4)
    assert step_nonuniform(Configuration.zeros(4), assignment).cells == (0, 1, 0, 1)


def test_step_nonuniform_matches_reference_per_cell():
    rng = random.Random(11)
    for _ in range(30):
        width = rng.randrange(3, 12)
        rules = tuple(rule_from_number(rng.randrange(256)) for _ in range(width))
        assignment = RuleAssignment(rules)
        config = Configuration.random(width, rng)
        expected = tuple(
            rules[i].apply([config.cells[(i + off) % width] for off in (-1, 0, 1)])
            for i in range(width)
        )
        assert step_nonuniform(config, assignment).cells == expected


def test_step_nonuniform_rejects_length_mismatch():
    assignment = RuleAssignment((rule_from_number(30),) * 4)
    with pytest.raises(ValueError):
        step_nonuniform(Configuration.zeros(5), assignment)


def test_assignment_rejects_mixed_radii():
    with pytest.raises(ValueError):
        RuleAssignment((rule_from_number(30, 1), rule_from_number(0, 2)))


def test_evolve_zero_steps_returns_input_row():
    config = Configuration.from_bits("0110")
    diagram = evolve(config, rule_from_number(30), 0)
    assert diagram.rows == (config,)


def test_evolve_matches_repeated_step():
    rule = rule_from_number(30)
    config = Configuration.single(8)
    diagram = evolve(config, rule, 4)
    assert len(diagram.rows) == 5
    current = config
    for row in diagram.rows:
        assert row == current
        current = step(current, rule)


def test_evolve_known_tap_column():
    diagram = evolve(Configuration((0, 1, 0, 1, 1)), rule_from_number(30), 4)
    assert diagram.column(0) == (0, 0, 1, 0, 0)


def test_temporal_sequence_known_answer():
    seq = temporal_sequence(Configuration((0, 1, 0, 1, 1)), rule_from_number(30), 0, 5)
    assert seq == (0, 0, 1, 0, 0)


def test_temporal_sequence_zero_ring():
    assert temporal_sequence(Configuration.zeros(6), rule_from_number(30), 2, 10) == (0,) * 10


def test_temporal_sequence_equals_evolve_column():
    rng = random.Random(5)
    rule = rule_from_number(30)
    for _ in range(10):
        config = Configuration.random(16, rng)
        cell = rng.randrange(16)
        assert temporal_sequence(config, rule, cell, 32) == evolve(config, rule, 31).column(cell)


def test_temporal_sequence_rejects_bad_cell():
    with pytest.raises(ValueError):
        temporal_sequence(Configuration.zeros(5), rule_from_number(30), 5, 4)


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(())
    with pytest.raises(ValueError):
        Configuration((0, 2, 1))
    with pytest.raises(ValueError):
        Configuration.from_bits("01a1")
    for build in (Configuration.zeros, Configuration.single, lambda w: Configuration.random(w, random.Random(0))):
        for width in (0, -3):
            with pytest.raises(ValueError):
                build(width)


@pytest.mark.parametrize(
    "text",
    [
        "\u0661\u0660\u0661\u0660",  # Arabic-Indic digits one, zero, one, zero
        "\uff11\uff10\uff11\uff10",  # fullwidth digits
        "01\u0661",
        "\U0001d7ce\U0001d7cf",  # mathematical bold digits zero, one
        "",
        "  ",
        "0 1",
        "+1",
        "0_1",
    ],
)
def test_from_bits_accepts_only_ascii_zero_and_one(text):
    with pytest.raises(ValueError, match="only 0/1"):
        Configuration.from_bits(text)


def test_from_bits_reads_cell_0_first_and_strips_whitespace():
    assert Configuration.from_bits("1000").cells == (1, 0, 0, 0)
    assert Configuration.from_bits(" \t0110\n") == Configuration((0, 1, 1, 0))
    assert Configuration.from_bits("0" * 70 + "1").cells == (0,) * 70 + (1,)


def test_configuration_single_is_centered():
    assert Configuration.single(8).cells == (0, 0, 0, 1, 0, 0, 0, 0)
    assert Configuration.single(5).cells == (0, 0, 1, 0, 0)


@given(cells=st.lists(st.integers(0, 1), min_size=1, max_size=200).map(tuple))
def test_configuration_holds_cells_and_text(cells):
    config = Configuration(cells)
    assert config.cells == cells
    assert config.width == len(cells)
    assert str(config) == "".join(str(bit) for bit in cells)
    assert Configuration.from_bits(str(config)) == config
    assert config != Configuration(cells + (0,))  # same packed int, one cell wider


@given(radius=st.sampled_from((1, 2)), steps=st.integers(0, 6), data=st.data())
@settings(max_examples=100, deadline=None)
def test_engine_rows_equal_and_hash_as_rebuilt_configurations(radius, steps, data):
    cells = data.draw(rings(2 * radius + 1))
    rule = rule_from_number(data.draw(rule_numbers(radius)), radius)
    diagram = evolve(Configuration(cells), rule, steps)
    rows = (*diagram.rows, step(Configuration(cells), rule))
    for row in rows:
        rebuilt = Configuration(row.cells)
        assert row == rebuilt and hash(row) == hash(rebuilt)
    for cell in range(len(cells)):
        assert diagram.column(cell) == tuple(row.cells[cell] for row in diagram.rows)


@pytest.mark.parametrize("name", ["cells", "width"])
def test_configuration_is_immutable(name):
    for config in (Configuration((0, 1, 1)), step(Configuration((0, 1, 1)), rule_from_number(30))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, 0)


@given(width=st.integers(1, 200), seed=st.integers(0, 2**32))
def test_named_configurations_keep_their_cells_and_draw_order(width, seed):
    single = [0] * width
    single[(width - 1) // 2] = 1
    assert Configuration.zeros(width).cells == (0,) * width
    assert Configuration.single(width).cells == tuple(single)
    rng, reference = random.Random(seed), random.Random(seed)
    assert Configuration.random(width, rng).cells == tuple(reference.getrandbits(1) for _ in range(width))
    assert rng.getrandbits(32) == reference.getrandbits(32)


# _pack is the one 0/1 check: every constructor and layer that takes bits packs them with it.
@given(bits=st.lists(st.integers(0, 1), max_size=300).map(tuple))
def test_pack_is_the_bit_weighted_sum_and_unpack_inverts_it(bits):
    assert _pack(bits) == sum(bit << i for i, bit in enumerate(bits))
    assert _unpack(_pack(bits), len(bits)) == bits


def test_unpack_of_width_zero_is_empty():
    assert _unpack(0, 0) == ()


@pytest.mark.parametrize("dtype", [np.int64, np.bool_])
def test_arrays_pack_like_their_lists(dtype):
    cells = [0, 1, 1, 0, 1, 0, 0, 1, 1]
    array = np.array(cells, dtype=dtype)
    assert _pack(array) == _pack(cells)
    assert Configuration(array) == Configuration(cells)


@pytest.mark.parametrize("entries", [(1.0, 0.0), (0, 2), (0, -1), ("0", "1"), (None, 1)])
def test_pack_rejects_anything_but_0_and_1_and_names_what(entries):
    with pytest.raises(ValueError, match="cells must be 0 or 1"):
        _pack(entries, "cells")
    with pytest.raises(ValueError, match="cells must be 0 or 1"):
        Configuration(entries)


def test_a_bare_int_is_no_sequence_of_bits():
    # bytes(5) is five zero bytes: an int must not pack as a run of zeros
    with pytest.raises(TypeError):
        _pack(5)
    with pytest.raises(TypeError):
        Configuration(5)


def test_rule_rejects_a_float_entry_when_built():
    with pytest.raises(ValueError, match="truth table entries must be 0 or 1"):
        Rule(1, (1.0,) + (0,) * 7)
    assert Rule(1, (True,) + (False,) * 7).number == 1
