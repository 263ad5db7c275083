"""Known-plaintext key recovery against left-permutive ring generators.

A rule is *left-permutive* when flipping the leftmost neighborhood cell
always flips the output, i.e. it has the form ``f(a, b, c) = a XOR g(b, c)``.
Rule 30 is the canonical example.  For such rules the left neighbor is
recoverable from the cell's own transition, which turns N observed tap
values into the whole space-time triangle once a single adjacent column is
guessed:

* *forward completion* grows the triangle to the right of the observed
  column by ordinary evolution from a guessed time-0 right segment; every
  guess is consistent, because the cells that would need a left neighbor
  beyond the observed column are exactly the ones never computed;
* *backward completion* then fills the left triangle column by column with
  the inverse relation ``a = next_center XOR g(center, right)`` and reads
  the candidate key off the time-0 row.

Coordinates: ``value(k, j)`` is the cell at time ``k`` and offset ``j``
relative to the tap cell; the observed sequence is the column at offset 0,
the time-0 row spans offsets ``-(N-1) .. N-1``, and on the ring of width N
offset ``-m`` is the same cell as offset ``N - m``.  The candidate key is
returned as a ring configuration whose cell 0 is the tap cell.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .engine import Configuration, Rule, temporal_sequence

__all__ = [
    "PartialDiagram",
    "AttackResult",
    "TrialsExhaustedError",
    "is_left_permutive",
    "backward_step",
    "forward_completion",
    "backward_completion",
    "attack",
    "success_rate",
]

Bits = tuple[int, ...]

TraceFn = Callable[[int, Bits, Configuration, bool], None]


class TrialsExhaustedError(RuntimeError):
    """Raised when no guess within the trial budget reproduced the observation."""

    def __init__(self, trials: int):
        super().__init__(f"no key found within {trials} trials")
        self.trials = trials


def is_left_permutive(rule: Rule) -> bool:
    """True iff flipping the leftmost neighborhood bit always flips the output."""
    high = 1 << (rule.neighborhood_size - 1)
    table = rule.truth_table
    return all(table[x] != table[x ^ high] for x in range(high))


def _require_attackable(rule: Rule) -> None:
    if rule.radius != 1:
        raise ValueError("key recovery is implemented for radius-1 rules only")
    if not is_left_permutive(rule):
        raise ValueError(f"rule {rule.number} is not left-permutive")


def _inner_table(rule: Rule) -> tuple[int, ...]:
    # g(b, c) = f(0, b, c); for left-permutive rules f(a, b, c) = a XOR g(b, c).
    return tuple(rule.truth_table[(b << 1) | c] for b in (0, 1) for c in (0, 1))


def _check_bits(name: str, bits: Sequence[int]) -> None:
    if any(bit not in (0, 1) for bit in bits):
        raise ValueError(f"{name} must contain only 0/1 values")


def backward_step(rule: Rule, next_center: int, center: int, right: int) -> int:
    """The unique left neighbor consistent with a cell's observed transition."""
    _require_attackable(rule)
    _check_bits("transition bits", (next_center, center, right))
    return next_center ^ rule.truth_table[(center << 1) | right]


@dataclass
class PartialDiagram:
    """Triangular space-time window around an observed column; None = unknown.

    Row k of a width-N diagram can hold offsets ``-(N-1-k) .. N-1-k``; cells
    are filled by the completion passes and never overwritten.
    """

    width: int
    grid: list[list[Optional[int]]]

    @classmethod
    def blank(cls, width: int) -> "PartialDiagram":
        return cls(width, [[None] * (2 * width - 1) for _ in range(width)])

    def _column(self, time: int, offset: int) -> int:
        if not 0 <= time < self.width:
            raise ValueError(f"time {time} outside diagram of width {self.width}")
        if abs(offset) + time > self.width - 1:
            raise ValueError(f"offset {offset} outside the triangle at time {time}")
        return offset + self.width - 1

    def value(self, time: int, offset: int) -> Optional[int]:
        return self.grid[time][self._column(time, offset)]

    def known(self, time: int, offset: int) -> bool:
        return self.value(time, offset) is not None

    def set(self, time: int, offset: int, bit: int) -> None:
        self.grid[time][self._column(time, offset)] = bit

    def right_filled(self) -> bool:
        return all(
            self.grid[k][self.width - 1 + j] is not None
            for k in range(self.width)
            for j in range(self.width - k)
        )


def forward_completion(rule: Rule, observed: Sequence[int], right_guess: Sequence[int]) -> PartialDiagram:
    """Fill the right triangle from the observed column and a guessed segment.

    Row 0 is seeded with ``(observed[0], *right_guess)`` at offsets
    ``0 .. N-1``; each later row is one open-boundary step of the previous,
    re-anchored at offset 0 by the observed value for that time.
    """
    _require_attackable(rule)
    n = len(observed)
    if n < 2:
        raise ValueError("observed sequence must contain at least 2 values")
    if len(right_guess) != n - 1:
        raise ValueError(f"right guess must contain {n - 1} bits, got {len(right_guess)}")
    _check_bits("observed sequence", observed)
    _check_bits("right guess", right_guess)
    table = rule.truth_table
    diagram = PartialDiagram.blank(n)
    row = [observed[0], *right_guess]
    for j, bit in enumerate(row):
        diagram.set(0, j, bit)
    for k in range(1, n):
        nxt = [observed[k]]
        for j in range(1, n - k):
            nxt.append(table[(row[j - 1] << 2) | (row[j] << 1) | row[j + 1]])
        for j, bit in enumerate(nxt):
            diagram.set(k, j, bit)
        row = nxt
    return diagram


def backward_completion(rule: Rule, diagram: PartialDiagram) -> Configuration:
    """Fill the left triangle by inverting the rule's leftmost argument.

    Column ``-j`` is derived top-down from column ``-(j-1)``; the time-0 row
    then holds the key: offset ``-m`` is ring cell ``N - m``, so the returned
    configuration carries the tap cell at index 0.
    """
    _require_attackable(rule)
    if not diagram.right_filled():
        raise ValueError("right triangle is incomplete; run forward_completion first")
    n = diagram.width
    g = _inner_table(rule)
    for j in range(1, n):
        for k in range(n - 1 - j, -1, -1):
            center = diagram.value(k, -j + 1)
            right = diagram.value(k, -j + 2)
            next_center = diagram.value(k + 1, -j + 1)
            diagram.set(k, -j, next_center ^ g[(center << 1) | right])
    key = [diagram.value(0, 0)]
    key += [diagram.value(0, m - n) for m in range(1, n)]
    return Configuration(tuple(key))


@dataclass(frozen=True)
class AttackResult:
    """A key that reproduces the observation, plus how much work it took."""

    recovered_key: Configuration
    trials_used: int
    matched_length: int


def _trial_rng(seed: int, trial: int) -> random.Random:
    # One independent, reproducible stream per trial.
    return random.Random((seed << 48) + trial)


def _draw_guess(seed: int, trial: int, length: int) -> Bits:
    rng = _trial_rng(seed, trial)
    return tuple(rng.getrandbits(1) for _ in range(length))


def _checked_observation(rule: Rule, observed: Sequence[int], budget: int, budget_name: str) -> Bits:
    _require_attackable(rule)
    observed = tuple(observed)
    if len(observed) < 3:
        raise ValueError("observed sequence must contain at least 3 values")
    _check_bits("observed sequence", observed)
    if budget < 1:
        raise ValueError(f"{budget_name} must be >= 1")
    return observed


def _trial(rule: Rule, observed: Bits, seed: int, trial: int) -> tuple[Bits, Configuration, bool]:
    """One independent attempt: draw a guess, complete the key, verify it on the ring."""
    guess = _draw_guess(seed, trial, len(observed) - 1)
    key = backward_completion(rule, forward_completion(rule, observed, guess))
    return guess, key, temporal_sequence(key, rule, 0, len(observed)) == observed


def attack(
    rule: Rule,
    observed: Sequence[int],
    max_trials: int,
    seed: int,
    trace: TraceFn | None = None,
) -> AttackResult:
    """Guess right columns until a completed key reproduces the observation.

    Guesses are uniform over the 2^(N-1) possible right segments, drawn from
    a stream derived from ``(seed, trial)``; any key whose tap sequence
    matches all N observed values is accepted.  Raises
    ``TrialsExhaustedError`` when the budget runs out.
    """
    observed = _checked_observation(rule, observed, max_trials, "max_trials")
    for trial in range(max_trials):
        guess, key, matched = _trial(rule, observed, seed, trial)
        if trace is not None:
            trace(trial, guess, key, matched)
        if matched:
            return AttackResult(recovered_key=key, trials_used=trial + 1, matched_length=len(observed))
    raise TrialsExhaustedError(max_trials)


def success_rate(rule: Rule, observed: Sequence[int], trials: int, seed: int) -> Fraction:
    """Fraction of independent single-guess attacks that reproduce the observation."""
    observed = _checked_observation(rule, observed, trials, "trials")
    successes = sum(_trial(rule, observed, seed, trial)[2] for trial in range(trials))
    return Fraction(successes, trials)
