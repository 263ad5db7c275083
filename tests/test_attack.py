"""Key recovery: completions against local relations, a worked known instance, soundness."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castream.attack import (
    PartialDiagram,
    TrialsExhaustedError,
    _draw_guess,
    attack,
    backward_completion,
    backward_step,
    forward_completion,
    is_left_permutive,
    success_rate,
)
from castream.engine import Configuration, apply_rule, rule_from_number, temporal_sequence

RULE_30 = rule_from_number(30)
OBSERVED = (0, 0, 1, 0, 0)  # tap sequence of key (0,1,0,1,1) under rule 30


def left_permutive_rules():
    return [rule_from_number(n) for n in range(256) if is_left_permutive(rule_from_number(n))]


def reference_forward_completion(rule, observed, right_guess):
    """Per-cell reference: the right triangle in a None-filled grid, grid[k][j + N - 1] = offset j."""
    n = len(observed)
    table = rule.truth_table
    grid = [[None] * (2 * n - 1) for _ in range(n)]
    row = [observed[0], *right_guess]
    for k in range(n):
        if k:
            row = [observed[k]] + [table[(row[j - 1] << 2) | (row[j] << 1) | row[j + 1]] for j in range(1, n - k)]
        grid[k][n - 1 : 2 * n - 1 - k] = row
    return grid


def reference_backward_completion(rule, grid):
    """Per-cell reference: fill the left triangle of the grid top-down by columns; return the key."""
    n = len(grid)
    g = rule.truth_table[:4]  # g(b, c) = f(0, b, c)
    for j in range(1, n):
        for k in range(n - 1 - j, -1, -1):
            c = n - 1 - j
            grid[k][c] = grid[k + 1][c + 1] ^ g[(grid[k][c + 1] << 1) | grid[k][c + 2]]
    return (grid[0][n - 1], *(grid[0][m - 1] for m in range(1, n)))


def triangle(n):
    return [(k, j) for k in range(n) for j in range(-(n - 1 - k), n - k)]


def check_local_relations(rule, diagram):
    """Oracle: every interior cell satisfies the rule against its three parents."""
    n = diagram.width
    checked = 0
    for k in range(1, n):
        for j in range(-(n - 1 - k), n - k):
            parents = (
                diagram.value(k - 1, j - 1),
                diagram.value(k - 1, j),
                diagram.value(k - 1, j + 1),
            )
            if None in parents or diagram.value(k, j) is None:
                continue
            assert diagram.value(k, j) == apply_rule(rule, parents)
            checked += 1
    return checked


def test_rule_30_is_left_permutive():
    assert is_left_permutive(RULE_30)


def test_rule_90_is_left_permutive():
    assert is_left_permutive(rule_from_number(90))


def test_rule_0_is_not_left_permutive():
    assert not is_left_permutive(rule_from_number(0))


def test_exactly_16_left_permutive_rules():
    assert len(left_permutive_rules()) == 16


def test_left_permutive_rules_split_off_leftmost_variable():
    for rule in left_permutive_rules():
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    assert apply_rule(rule, (a, b, c)) == a ^ apply_rule(rule, (0, b, c))


def test_rule_30_center_one_makes_output_ignore_right():
    for a in (0, 1):
        for c in (0, 1):
            assert apply_rule(RULE_30, (a, 1, c)) == a ^ 1


def test_backward_step_inverts_apply_rule_exhaustively():
    for rule in left_permutive_rules():
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    assert backward_step(rule, apply_rule(rule, (a, b, c)), b, c) == a


def test_backward_step_rule_30_cases():
    assert backward_step(RULE_30, 1, 0, 1) == 0
    assert backward_step(RULE_30, 0, 0, 0) == 0


def test_backward_step_rejects_non_left_permutive():
    with pytest.raises(ValueError):
        backward_step(rule_from_number(0), 0, 0, 0)


def test_forward_completion_forced_column():
    # with the first guess bit at 1 the column right of the observation is forced
    for rest in range(8):
        guess = (1, (rest >> 2) & 1, (rest >> 1) & 1, rest & 1)
        diagram = forward_completion(RULE_30, OBSERVED, guess)
        assert tuple(diagram.value(k, 1) for k in range(4)) == (1, 1, 1, 0)


def test_forward_completion_smallest_case():
    rng = random.Random(1)
    for _ in range(20):
        observed = tuple(rng.getrandbits(1) for _ in range(3))
        guess = (rng.getrandbits(1), rng.getrandbits(1))
        diagram = forward_completion(RULE_30, observed, guess)
        assert diagram.value(1, 1) == apply_rule(RULE_30, (observed[0], guess[0], guess[1]))


def test_forward_completion_satisfies_local_relations():
    rng = random.Random(77)
    for _ in range(25):
        observed = tuple(rng.getrandbits(1) for _ in range(8))
        guess = tuple(rng.getrandbits(1) for _ in range(7))
        diagram = forward_completion(RULE_30, observed, guess)
        assert check_local_relations(RULE_30, diagram) > 0


def test_forward_completion_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        forward_completion(RULE_30, OBSERVED, (1, 0))


def test_backward_completion_known_key():
    diagram = forward_completion(RULE_30, OBSERVED, (1, 0, 1, 1))
    key = backward_completion(RULE_30, diagram)
    assert tuple(diagram.value(0, -m) for m in range(4, -1, -1)) == (1, 0, 1, 1, 0)
    assert key.cells == (0, 1, 0, 1, 1)


def test_backward_completion_recovers_simulated_n3_ring():
    rng = random.Random(5)
    for _ in range(30):
        key = Configuration.random(3, rng)
        observed = temporal_sequence(key, RULE_30, 0, 3)
        true_guess = key.cells[1:]
        recovered = backward_completion(RULE_30, forward_completion(RULE_30, observed, true_guess))
        assert recovered == key


def test_backward_completion_fills_consistent_left_triangle():
    rng = random.Random(13)
    for _ in range(25):
        observed = tuple(rng.getrandbits(1) for _ in range(8))
        guess = tuple(rng.getrandbits(1) for _ in range(7))
        diagram = forward_completion(RULE_30, observed, guess)
        backward_completion(RULE_30, diagram)
        # the full triangle is now known and locally consistent
        n = diagram.width
        assert check_local_relations(RULE_30, diagram) == sum(
            2 * (n - k) - 1 for k in range(1, n)
        )


@given(rule=st.sampled_from(left_permutive_rules()), data=st.data())
@settings(max_examples=200, deadline=None)
def test_completions_match_per_cell_reference(rule, data):
    n = data.draw(st.integers(2, 40))
    bits = st.integers(0, 1)
    observed = tuple(data.draw(st.lists(bits, min_size=n, max_size=n)))
    guess = tuple(data.draw(st.lists(bits, min_size=n - 1, max_size=n - 1)))
    grid = reference_forward_completion(rule, observed, guess)
    diagram = forward_completion(rule, observed, guess)
    assert all(diagram.value(k, j) == grid[k][j + n - 1] for k, j in triangle(n) if j >= 0)
    expected_key = reference_backward_completion(rule, grid)
    assert backward_completion(rule, diagram).cells == expected_key
    assert all(diagram.value(k, j) == grid[k][j + n - 1] for k, j in triangle(n))
    # the packed halves hold no bits outside the triangle
    assert all(row >> (n - k) == 0 for k, row in enumerate(diagram.rows))
    assert all(column >> (n - m) == 0 for m, column in enumerate(diagram.columns))


def test_partial_diagram_halves_read_none_until_filled():
    n = len(OBSERVED)
    blank = PartialDiagram.blank(n)
    assert blank.width == n
    assert all(blank.value(k, j) is None for k, j in triangle(n))
    diagram = forward_completion(RULE_30, OBSERVED, (1, 0, 1, 1))
    assert all((diagram.value(k, j) is None) == (j < 0) for k, j in triangle(n))
    backward_completion(RULE_30, diagram)
    assert all(diagram.value(k, j) in (0, 1) for k, j in triangle(n))
    for time, offset in [(-1, 0), (n, 0), (0, n), (0, -n), (1, n - 1), (1, 1 - n), (n - 1, 1), (n - 1, -1)]:
        for d in (blank, diagram):
            with pytest.raises(ValueError):
                d.value(time, offset)


def test_backward_completion_requires_filled_right_triangle():
    with pytest.raises(ValueError):
        backward_completion(RULE_30, PartialDiagram.blank(5))


def test_true_right_column_always_recovers_the_key():
    rng = random.Random(2)
    for width in (5, 8, 11):
        for _ in range(20):
            key = Configuration.random(width, rng)
            observed = temporal_sequence(key, RULE_30, 0, width)
            recovered = backward_completion(
                RULE_30, forward_completion(RULE_30, observed, key.cells[1:])
            )
            assert recovered == key


def test_attack_known_instance():
    result = attack(RULE_30, OBSERVED, max_trials=1 << 10, seed=1)
    assert temporal_sequence(result.recovered_key, RULE_30, 0, 5) == OBSERVED
    assert result.matched_length == 5
    # the published key is reachable: half of all guesses produce it
    assert result.recovered_key.cells == (0, 1, 0, 1, 1)


def test_attack_all_zero_observation():
    result = attack(RULE_30, (0, 0, 0, 0, 0), max_trials=1 << 10, seed=0)
    assert temporal_sequence(result.recovered_key, RULE_30, 0, 5) == (0,) * 5


def test_attack_random_instances_n8():
    rng = random.Random(2718)
    for trial in range(50):
        key = Configuration.random(8, rng)
        observed = temporal_sequence(key, RULE_30, 0, 8)
        result = attack(RULE_30, observed, max_trials=64 << 7, seed=trial)
        assert temporal_sequence(result.recovered_key, RULE_30, 0, 8) == observed


def test_attack_works_for_other_left_permutive_rules():
    rng = random.Random(31)
    for rule in left_permutive_rules()[:6]:
        key = Configuration.random(7, rng)
        observed = temporal_sequence(key, rule, 0, 7)
        result = attack(rule, observed, max_trials=64 << 6, seed=9)
        assert temporal_sequence(result.recovered_key, rule, 0, 7) == observed


def test_attack_is_deterministic_in_seed():
    first = attack(RULE_30, OBSERVED, max_trials=1 << 10, seed=4)
    second = attack(RULE_30, OBSERVED, max_trials=1 << 10, seed=4)
    assert first == second


def test_attack_trace_covers_every_trial():
    rows = []
    result = attack(
        RULE_30,
        OBSERVED,
        max_trials=1 << 10,
        seed=4,
        trace=lambda trial, guess, key, matched: rows.append((trial, guess, key, matched)),
    )
    assert len(rows) == result.trials_used
    assert rows[-1][3] is True
    assert all(not matched for _, _, _, matched in rows[:-1])


def test_attack_exhausts_and_raises():
    # an observation no width-3 ring can produce: cell stuck at 1 then dropping
    # is fine, so force failure with a 1-trial budget on a mismatching seed
    for seed in range(40):
        try:
            attack(RULE_30, OBSERVED, max_trials=1, seed=seed)
        except TrialsExhaustedError as exc:
            assert exc.trials == 1
            break
    else:
        pytest.fail("every seed succeeded on its first trial; expected some to fail")


def test_attack_validates_input():
    with pytest.raises(ValueError):
        attack(rule_from_number(0), OBSERVED, max_trials=4, seed=0)
    with pytest.raises(ValueError):
        attack(RULE_30, (0, 1), max_trials=4, seed=0)
    with pytest.raises(ValueError):
        attack(RULE_30, OBSERVED, max_trials=0, seed=0)


def test_negative_seeds_and_trials_past_2_48_are_rejected():
    # Random(x) seeds from abs(x), and (seed << 48) + trial carries into seed + 1 at trial 2^48
    with pytest.raises(ValueError):
        attack(RULE_30, OBSERVED, max_trials=4, seed=-1)
    with pytest.raises(ValueError):
        success_rate(RULE_30, OBSERVED, trials=4, seed=-1)
    with pytest.raises(ValueError):
        _draw_guess(5, 2**48, 16)
    with pytest.raises(ValueError):
        _draw_guess(-3, 0, 16)
    assert len(_draw_guess(5, 2**48 - 1, 16)) == 16


def test_success_rate_known_instance_is_one_half():
    rate = success_rate(RULE_30, OBSERVED, trials=10000, seed=12345)
    assert Fraction(48, 100) <= rate <= Fraction(52, 100)


def test_success_rate_positive_for_zero_observation():
    rate = success_rate(RULE_30, (0, 0, 0, 0, 0), trials=512, seed=3)
    assert rate > 0


def test_success_rate_at_least_uniform_floor():
    rng = random.Random(6)
    for _ in range(5):
        key = Configuration.random(6, rng)
        observed = temporal_sequence(key, RULE_30, 0, 6)
        rate = success_rate(RULE_30, observed, trials=2048, seed=8)
        # the true right column is one of 2^(N-1) guesses, so the rate cannot
        # collapse far below 2^-(N-1); allow generous sampling slack
        assert rate >= Fraction(1, 1 << 7)


@pytest.mark.parametrize("bad", [2, -1, 1.0])
def test_attack_inputs_are_checked_by_the_one_packer(bad):
    with pytest.raises(ValueError, match="observed bits must be 0 or 1"):
        forward_completion(RULE_30, (0, bad, 1, 0, 0), (1, 0, 1, 1))
    with pytest.raises(ValueError, match="right guess bits must be 0 or 1"):
        forward_completion(RULE_30, OBSERVED, (1, bad, 1, 1))
    with pytest.raises(ValueError, match="observed bits must be 0 or 1"):
        attack(RULE_30, (0, bad, 1, 0, 0), max_trials=4, seed=0)
    with pytest.raises(ValueError, match="transition bits must be 0 or 1"):
        backward_step(RULE_30, bad, 0, 1)
