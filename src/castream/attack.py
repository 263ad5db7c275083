"""Known-plaintext key recovery against left-permutive ring generators.

A rule is *left-permutive* when flipping the leftmost neighborhood cell
always flips the output, ``f(1, b, c) = NOT f(0, b, c)``: in its algebraic
normal form ``a`` occurs only as a monomial of its own.
Rule 30 is the canonical example.  For such rules the left neighbor is
recoverable from the cell's own transition, which turns N observed tap
values into the whole space-time triangle once a single adjacent column is
guessed:

* *forward completion* grows the triangle to the right of the observed
  column by ordinary evolution from a guessed time-0 right segment; every
  guess is consistent, because the cells that would need a left neighbor
  beyond the observed column are exactly the ones never computed;
* *backward completion* then fills the left triangle column by column with
  the rule itself, as ``f(f(a, b, c), b, c) = a``: the left neighbor is
  ``a = f(next_center, center, right)``.  The key is the time-0 row.

Both passes are calls of the one rule kernel (``engine._kernel``) on packed
ints, shifted.  The right triangle is held as rows (bit j = offset j), one
kernel call per row.  The left triangle is held as columns (bit k = time k):
a cell of column ``-m`` needs only columns ``-(m-1)`` and ``-(m-2)``, never
its own column, so backward completion is parallel over time, one kernel
call per column.  A key is verified by its N tap bits, made by one call of
the ring loop.

Coordinates: ``value(k, j)`` is the cell at time ``k`` and offset ``j``
relative to the tap cell; the observed sequence is the column at offset 0,
the time-0 row spans offsets ``-(N-1) .. N-1``, and on the ring of width N
offset ``-m`` is the same cell as offset ``N - m``.  The candidate key is
returned as a ring configuration whose cell 0 is the tap cell.
"""
from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .engine import Bits, Configuration, Rule, _anf, _kernel, _pack, _Record, _taps

if TYPE_CHECKING:
    from fractions import Fraction

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

TraceFn = Callable[[int, Bits, Configuration, bool], None]


class TrialsExhaustedError(RuntimeError):
    """Raised when no guess within the trial budget reproduced the observation."""

    def __init__(self, trials: int):
        super().__init__(f"no key found within {trials} trials")
        self.trials = trials


def is_left_permutive(rule: Rule) -> bool:
    """True iff f = a XOR g(rest): the leftmost variable occurs in the ANF only on its own."""
    return _anf(rule.number, rule.neighborhood_size) >> (1 << (rule.neighborhood_size - 1)) == 1


def _require_attackable(rule: Rule) -> None:
    if rule.radius != 1:
        raise ValueError("key recovery is implemented for radius-1 rules only")
    if not is_left_permutive(rule):
        raise ValueError(f"rule {rule.number} is not left-permutive")


def backward_step(rule: Rule, next_center: int, center: int, right: int) -> int:
    """The unique left neighbor consistent with a cell's observed transition: f(next_center, center, right)."""
    _require_attackable(rule)
    _pack((next_center, center, right), "transition bits")
    return rule.number >> (next_center << 2 | center << 1 | right) & 1


class PartialDiagram(_Record, frozen=False):
    """Triangular space-time window around an observed column, held packed.

    Row k of a width-N diagram spans offsets ``-(N-1-k) .. N-1-k``.  The
    right half (offsets >= 0) is ``rows``, bit j of ``rows[k]`` = offset j;
    the left half is ``columns``, bit k of ``columns[m]`` = offset -m at time
    k, with ``columns[0]`` the observed column.  A half is None until its
    completion pass has filled it.
    """

    width: int
    rows: Optional[tuple[int, ...]]
    columns: Optional[tuple[int, ...]]

    @classmethod
    def blank(cls, width: int) -> "PartialDiagram":
        return cls._packed(width, None, None)

    def value(self, time: int, offset: int) -> Optional[int]:
        if not 0 <= time < self.width:
            raise ValueError(f"time {time} outside diagram of width {self.width}")
        if abs(offset) + time > self.width - 1:
            raise ValueError(f"offset {offset} outside the triangle at time {time}")
        if offset >= 0:
            return None if self.rows is None else self.rows[time] >> offset & 1
        return None if self.columns is None else self.columns[-offset] >> time & 1


def forward_completion(rule: Rule, observed: Sequence[int], right_guess: Sequence[int]) -> PartialDiagram:
    """Fill the right triangle from the observed column and a guessed segment.

    Row 0 is ``(observed[0], *right_guess)`` at offsets ``0 .. N-1``; each
    later row is one open-boundary step of the previous over offsets
    ``1 .. N-1-k``, re-anchored at offset 0 by the observed value for that time.
    """
    _require_attackable(rule)
    n = len(observed)
    if n < 2:
        raise ValueError("observed sequence must contain at least 2 values")
    if len(right_guess) != n - 1:
        raise ValueError(f"right guess must contain {n - 1} bits, got {len(right_guess)}")
    column = _pack(observed, "observed bits")
    kernel = _kernel(rule.number, rule.neighborhood_size)
    row = _pack(right_guess, "right guess bits") << 1 | column & 1
    rows = [row]
    for k in range(1, n):
        inner = (1 << (n - k)) - 2
        row = kernel(row << 1, row, row >> 1, inner) & inner | column >> k & 1
        rows.append(row)
    return PartialDiagram._packed(n, tuple(rows), None)


def backward_completion(rule: Rule, diagram: PartialDiagram) -> Configuration:
    """Fill the left triangle with the rule itself, the inverse of its leftmost argument.

    Column ``-m`` is one kernel call on column ``-(m-1)`` a step later, ``-(m-1)`` and ``-(m-2)``;
    bit 0 of each column is then a key cell: offset ``-m`` is ring cell
    ``N - m``, so the returned configuration carries the tap cell at index 0.
    """
    _require_attackable(rule)
    if diagram.rows is None:
        raise ValueError("right triangle is incomplete; run forward_completion first")
    n = diagram.width
    kernel = _kernel(rule.number, rule.neighborhood_size)
    center = sum((row & 1) << k for k, row in enumerate(diagram.rows))
    right = sum((row >> 1 & 1) << k for k, row in enumerate(diagram.rows))
    columns = [center]
    for m in range(1, n):
        mask = (1 << (n - m)) - 1
        center, right = kernel(center >> 1, center, right, mask) & mask, center
        columns.append(center)
    diagram.columns = tuple(columns)
    key = sum((column & 1) << (n - m) % n for m, column in enumerate(columns))
    return Configuration._packed(key, n)


class AttackResult(_Record):
    """A key that reproduces the observation, plus how much work it took."""

    recovered_key: Configuration
    trials_used: int
    matched_length: int


def _draw_guess(seed: int, trial: int, length: int) -> Bits:
    # One independent, reproducible stream per trial.  Random(x) seeds from
    # abs(x), so the seeds stay distinct only for seed >= 0 and trial < 2^48.
    if seed < 0 or not 0 <= trial < 1 << 48:
        raise ValueError(f"need seed >= 0 and 0 <= trial < 2^48, got seed {seed}, trial {trial}")
    rng = random.Random((seed << 48) + trial)
    return tuple(rng.getrandbits(1) for _ in range(length))


def _checked_observation(rule: Rule, observed: Sequence[int], budget: int, budget_name: str) -> Bits:
    _require_attackable(rule)
    observed = tuple(observed)
    if len(observed) < 3:
        raise ValueError("observed sequence must contain at least 3 values")
    _pack(observed, "observed bits")
    if budget < 1:
        raise ValueError(f"{budget_name} must be >= 1")
    return observed


def _trial(rule: Rule, observed: Bits, seed: int, trial: int) -> tuple[Bits, Configuration, bool]:
    """One independent attempt: draw a guess, complete the key, verify it on the ring."""
    guess = _draw_guess(seed, trial, len(observed) - 1)
    key = backward_completion(rule, forward_completion(rule, observed, guess))
    return guess, key, b"".join(_taps(key, rule, 0, len(observed))) == bytes(observed)


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
    from fractions import Fraction
    observed = _checked_observation(rule, observed, trials, "trials")
    successes = sum(_trial(rule, observed, seed, trial)[2] for trial in range(trials))
    return Fraction(successes, trials)
