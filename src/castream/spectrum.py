"""Walsh-spectrum analysis of iterated rule functions.

The transform used here is the 0/1-valued convention
``W(omega) = sum_x F(x) * (-1)^<x, omega>``, so ``W(0)`` counts the ones of
the truth table and a function on n variables is balanced exactly when
``W(0) = 2^(n-1)``.  Much of the literature works with the signed function
``1 - 2F`` instead; the two spectra are related by
``W_signed(omega) = -2 * W(omega)`` for ``omega != 0`` and
``W_signed(0) = 2^n - 2 * W(0)``.

Correlation immunity of order k is equivalent to the spectrum vanishing on
every nonzero mask of Hamming weight at most k (Xiao-Massey), and the bias
of the output toward a linear combination of inputs is read off a single
spectral value; both checks are exact integer computations here.

A function is held as its packed truth table, one 2^n-bit int.  A single
spectral value needs no transform: ``W(omega) = |F| - 2 |F and <x, omega>|``
is two popcounts, which is how balancedness, the min-max scores and the
bias are computed, with no numpy.  The full spectrum is one butterfly over
2^n entries: a lookup of each byte of the packed table for its first three
levels, int16 blocks of 2^18 entries up to level 2^14, and the numpy int32
array that holds the result above; numpy is imported only where that array is
made, read or written as the CLI ``spectrum`` command's CSV (``_spectrum_rows``).
``MAX_TRANSFORM_VARIABLES`` caps it at 2^24 entries (64 MB); the largest
function ``iterate_rule`` reaches has 23 variables (rule 30 at order 11),
where that command peaks at 88 MB of RSS.

``scan_rules`` does each piece of work once.  A rule is balanced when four
of the eight bits of its number are set.  Conjugation keeps affinity and
every |W(2^k)| of every iterate, and reflection keeps affinity and reverses
the variables, so each equivalence class is examined once, through its
smallest member, and a balanced one is iterated once.  One iteration to the
top order serves every lower order: the center cell after o of T steps is
the order-o function of the middle window cells, so its single-variable
popcounts are the order-o ones times a power of two.
"""
from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .algebra import _conjugate, _reflect, affine_decomposition
from .engine import Rule, _kernel, _pack, _Record, _set, _unpack, _window

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

__all__ = [
    "BooleanFunction",
    "WalshSpectrum",
    "RuleScan",
    "ScanReport",
    "iterate_rule",
    "walsh_transform",
    "is_balanced",
    "correlation_immunity_order",
    "correlation_bias",
    "minmax_score",
    "scan_rules",
    "scan_report_csv",
]

MAX_TRANSFORM_VARIABLES = 24
assert 1 << MAX_TRANSFORM_VARIABLES < 10**8  # so the CSV writes every omega and |W| in 8 digit places
MAX_ITERATION_ORDER = 8
CSV_CHUNK_ROWS = 1 << 13  # spectrum rows a piece, so that its scratch arrays (0.5 MB) and bytes stay in L2 cache


class BooleanFunction(_Record):
    """Truth table over n variables; entry x is the value at x = sum x_i 2^i.

    Held packed, as one 2^n-bit int with bit x = entry x plus n;
    ``truth_table`` is derived from it.
    """

    _table: int
    n: int

    def __init__(self, truth_table: Sequence[int]) -> None:
        size = len(truth_table)
        if size < 2 or size & (size - 1):
            raise ValueError("truth table length must be a power of two >= 2")
        _set(self, "_table", _pack(truth_table, "truth table entries"))
        _set(self, "n", size.bit_length() - 1)

    @property
    def truth_table(self) -> tuple[int, ...]:
        return _unpack(self._table, 1 << self.n)

    def __repr__(self) -> str:
        return f"BooleanFunction(truth_table={self.truth_table!r})"


class WalshSpectrum(_Record):
    """Integer spectrum indexed by masks omega in [0, 2^n).

    Held as one read-only int32 array; ``values`` is derived from it.
    """

    array: np.ndarray

    def __init__(self, values: Iterable[int]) -> None:
        import numpy as np
        array = np.asarray(values, dtype=np.int32).view()
        array.flags.writeable = False
        _set(self, "array", array)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def n(self) -> int:
        return len(self.array).bit_length() - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WalshSpectrum):
            return NotImplemented
        return self.array.tobytes() == other.array.tobytes()  # both int32, as in __hash__

    def __hash__(self) -> int:
        return hash(self.array.tobytes())

    def __repr__(self) -> str:
        return f"WalshSpectrum(values={self.values!r})"


def iterate_rule(rule: Rule, order: int) -> BooleanFunction:
    """The rule iterated ``order`` times as a function of its input window.

    The window holds ``2*radius*order + 1`` cells; each iteration is an
    open-boundary step, shrinking the segment by ``radius`` cells per side,
    and leaving exactly the center cell after ``order`` steps.  Variable
    bit ``2*radius*order`` of the function index is the leftmost window
    cell, bit 0 the rightmost, matching the neighborhood convention of the
    rule tables themselves (order 1 reproduces the rule's own table).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    for state in _levels(rule, order):  # the last segment is the center cell alone
        pass
    return BooleanFunction._packed(state[0], 2 * rule.radius * order + 1)


def _levels(rule: Rule, order: int) -> Iterator[list[int]]:
    """The segment after each of ``order`` open-boundary steps from the window, as truth tables:
    after step o it holds ``2*radius*(order - o) + 1`` cells."""
    width = 2 * rule.radius * order + 1
    if width > MAX_TRANSFORM_VARIABLES:
        raise ValueError(f"iterated function would need {width} variables (max {MAX_TRANSFORM_VARIABLES})")
    span = rule.neighborhood_size
    state, kernel, mask = _window(width), _kernel(rule.number, span), (1 << (1 << width)) - 1
    for _ in range(order):
        state = [kernel(*state[i : i + span], mask) for i in range(len(state) - span + 1)]
        yield state


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    """Exact int32 spectrum (|W| <= 2^24) via the in-place butterfly, its first 3 levels a byte lookup and the
    levels below 2^14 in int16 (partial sums in [-2^13, 2^14]) on blocks of 2^18 entries, each copied to the result."""
    if f.n > MAX_TRANSFORM_VARIABLES:
        raise ValueError(f"function has {f.n} variables (max {MAX_TRANSFORM_VARIABLES})")
    import numpy as np
    size = 1 << f.n
    packed = np.frombuffer(f._table.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    # a table of fewer than 8 entries is zero past them, so its spectrum is the head of the 8-point one
    result, block = np.empty(max(size, 8), dtype=np.int32), np.empty((min(len(packed), 1 << 15), 8), dtype=np.int16)
    for first in range(0, len(packed), len(block)):
        # mode="clip" takes straight into out (the default mode buffers it); every byte is in range
        spectra = _byte_spectra().take(packed[first : first + len(block)], axis=0, out=block, mode="clip")
        result[8 * first : 8 * first + spectra.size] = _butterfly(spectra.ravel(), 8, min(size, 1 << 14))
    return WalshSpectrum(_butterfly(result, 1 << 14, size)[:size])


def _butterfly(a: np.ndarray, h: int, stop: int) -> np.ndarray:
    """The butterfly levels h, 2h, ... below ``stop``, run in place on the flat array ``a``."""
    while h < stop:
        blocks = a.reshape(-1, 2, h)
        upper, lower = blocks[:, 0, :], blocks[:, 1, :]
        upper += lower  # u + l
        lower *= -2
        lower += upper  # (u + l) - 2l = u - l
        h *= 2
    return a


@cache
def _byte_spectra() -> np.ndarray:
    """Row b: the int16 spectrum of the 8 entries packed in byte b, entry j = bit j."""
    import numpy as np
    entries = np.unpackbits(np.arange(256, dtype=np.uint8), bitorder="little").astype(np.int16)
    return _butterfly(entries, 1, 8).reshape(256, 8)


def _walsh_value(f: BooleanFunction, omega: int) -> int:
    """One spectral value from popcounts: W(omega) = |F| - 2 |F and <x, omega>|."""
    window = _window(f.n)
    linear = 0
    for k in range(f.n):
        if omega >> k & 1:
            linear ^= window[f.n - 1 - k]
    return f._table.bit_count() - 2 * (f._table & linear).bit_count()


def is_balanced(f: BooleanFunction) -> bool:
    """True when the function takes value 1 on exactly half its inputs."""
    return f._table.bit_count() == 1 << (f.n - 1)


def correlation_immunity_order(f: BooleanFunction) -> int:
    """Largest k with a vanishing spectrum on all nonzero masks of weight <= k."""
    import numpy as np
    values = walsh_transform(f).array
    weights = np.zeros(len(values), dtype=np.uint8)  # Hamming weight of each mask
    for k in range(f.n):
        weights[1 << k : 2 << k] = weights[: 1 << k] + 1
    nonzero_weights = weights[1:][values[1:] != 0]
    if not nonzero_weights.size:
        return f.n
    return int(nonzero_weights.min()) - 1


def correlation_bias(f: BooleanFunction, omega: int) -> Fraction:
    """Exact conditional probability P[F = 1 given <x, omega> = 1].

    Computed as ``(W(0) - W(omega)) / 2^n``, which for *balanced* functions
    (the domain where the quantity is used as a bias measure) simplifies to
    ``1/2 - W(omega) / 2^n``.  Both values come from popcounts; no transform
    is run.
    """
    if not 1 <= omega < (1 << f.n):
        raise ValueError(f"mask must lie in [1, 2^{f.n}), got {omega}")
    from fractions import Fraction
    return Fraction(f._table.bit_count() - _walsh_value(f, omega), 1 << f.n)


def minmax_score(rule: Rule, order: int) -> tuple[int, int]:
    """Largest absolute spectral value over single-variable masks.

    Returns ``(cfg, val)`` where ``val = max |W(2^k)|`` over all variable
    positions of the order-times iterated rule and ``cfg`` is the mask
    achieving it (ties broken toward the largest mask, i.e. the leftmost
    window cell).  A flat value of 0 is reported as ``(0, 0)``.  Each value
    comes from popcounts; no transform is run.
    """
    if not 1 <= order <= MAX_ITERATION_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ITERATION_ORDER}]")
    return _score(_magnitudes(rule, (order,))[order])


def _score(magnitudes: Sequence[int]) -> tuple[int, int]:
    """``(2^k, magnitude k)`` at the largest magnitude, the highest k among ties; ``(0, 0)`` if all are 0."""
    cfg, val = 0, 0
    for k, magnitude in enumerate(magnitudes):
        if magnitude >= val and magnitude > 0:
            cfg, val = 1 << k, magnitude
    return cfg, val


class RuleScan(_Record):
    """Per-rule facts gathered by the exhaustive scan."""

    rule: int
    balanced: bool
    affine: bool
    members: frozenset[int]
    conjugate: int
    reflected: int
    conjugate_reflected: int
    scores: Mapping[int, tuple[int, int]]


class ScanReport(_Record):
    """Scan of all 256 radius-1 rules over a range of iteration orders."""

    orders: tuple[int, ...]
    rows: tuple[RuleScan, ...]

    def row(self, rule: int) -> RuleScan:
        if not 0 <= rule < len(self.rows):
            raise ValueError(f"rule number {rule} out of range 0..{len(self.rows) - 1}")
        return self.rows[rule]

    def balanced_rules(self) -> tuple[int, ...]:
        return tuple(r.rule for r in self.rows if r.balanced)

    def flat_rules(self) -> tuple[int, ...]:
        """Balanced rules whose score is 0 at every scanned order."""
        return tuple(
            r.rule
            for r in self.rows
            if r.balanced and all(r.scores[o][1] == 0 for o in self.orders)
        )

    def best_nonlinear_rules(self) -> frozenset[int]:
        """Balanced non-affine rules minimizing the worst score over all orders."""
        candidates = [r for r in self.rows if r.balanced and not r.affine]
        best = min(max(r.scores[o][1] for o in self.orders) for r in candidates)
        return frozenset(r.rule for r in candidates if max(r.scores[o][1] for o in self.orders) == best)


def scan_rules(orders: Iterable[int]) -> ScanReport:
    """Evaluate balancedness, affinity, equivalences, and scores for all 256 rules, once per class."""
    order_list = tuple(orders)
    if not order_list:
        raise ValueError("at least one order is required")
    if any(not 1 <= o <= MAX_ITERATION_ORDER for o in order_list):
        raise ValueError(f"orders must lie in [1, {MAX_ITERATION_ORDER}]")
    if len(set(order_list)) != len(order_list):
        raise ValueError(f"orders must not repeat, got {','.join(map(str, order_list))}")
    classes: dict[int, tuple[bool, dict[int, tuple[int, int]]]] = {}  # member -> (affine, scores)
    rows = []
    for number in range(256):
        conj, refl = _conjugate(number), _reflect(number)
        cr = _conjugate(refl)
        balanced = number.bit_count() == 4  # four of the eight neighborhoods map to 1
        if number not in classes:  # the smallest member of its class
            rule = Rule.from_number(number)
            affine = affine_decomposition(rule).is_affine
            magnitudes = _magnitudes(rule, order_list) if balanced else {}
            # conjugation keeps every |W(2^k)|; reflection reverses the variables
            for member, mirrored in ((number, False), (conj, False), (refl, True), (cr, True)):
                classes[member] = affine, {o: _score(m[::-1] if mirrored else m) for o, m in magnitudes.items()}
        affine, scores = classes[number]
        rows.append(
            RuleScan(
                rule=number,
                balanced=balanced,
                affine=affine,
                members=frozenset((number, conj, refl, cr)),
                conjugate=conj,
                reflected=refl,
                conjugate_reflected=cr,
                scores=scores,
            )
        )
    return ScanReport(orders=order_list, rows=tuple(rows))


def _magnitudes(rule: Rule, orders: tuple[int, ...]) -> dict[int, list[int]]:
    """Per order, |W(2^k)| for each variable k of the rule iterated that many times, from two
    popcounts each, all from one iteration to the top order T over W window cells.

    After step o the center cell reads none of the ``d = radius*(T - o)`` cells on either side:
    the leftmost d are its top variables, so the low 2^(W - d) bits of its table hold it whole,
    and the rightmost d each double its popcounts.
    """
    top = max(orders)
    width, magnitudes = 2 * rule.radius * top + 1, {}
    for o, state in enumerate(_levels(rule, top), 1):
        if o in orders:
            d = rule.radius * (top - o)
            low = width - d  # the variables left once the leftmost d cells are dropped
            table = state[d] & ((1 << (1 << low)) - 1)
            ones = table.bit_count()
            # the window's cells leftmost first, so variable k is the k-th cell from the right
            cells = reversed(_window(low)[: low - d])
            magnitudes[o] = [abs(ones - 2 * (table & cell).bit_count()) >> d for cell in cells]
    return {o: magnitudes[o] for o in orders}


def _selected_rules(only: Iterable[int] | None) -> list[int]:
    """The rules a report lists, in order: all 256, or ``only`` once checked to name each rule once."""
    selected = sorted(only) if only is not None else list(range(256))
    if len(set(selected)) != len(selected):
        raise ValueError(f"rules must not repeat, got {','.join(map(str, selected))}")
    for number in selected:
        if not 0 <= number < 256:
            raise ValueError(f"rule number {number} out of range 0..255")
    return selected


def scan_report_csv(report: ScanReport, only: Iterable[int] | None = None) -> str:
    """Comma-separated table: rule, cfg/val per order, then equivalence columns.

    Unbalanced rules carry empty cfg/val cells (no score is defined for them).
    """
    header = ["rule"]
    for order in report.orders:
        header += [f"cfg{order}", f"val{order}"]
    header += ["conj", "refl", "cr"]
    lines = [",".join(header)]
    for number in _selected_rules(only):
        row = report.row(number)
        fields = [str(number)]
        for order in report.orders:
            if row.balanced:
                cfg, val = row.scores[order]
                fields += [str(cfg), str(val)]
            else:
                fields += ["", ""]
        fields += [str(row.conjugate), str(row.reflected), str(row.conjugate_reflected)]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """Tables ``(highs, lows)``: ``highs[v // 10^4] | lows[v % 10^4]`` (uint64) is v < 10^8 in 8 digit places.
    ``lows`` has v % 10^4 in bytes 4-7, leading zeros as zero bytes (0 is "0"); ``highs`` has v // 10^4 so in bytes
    0-3 (none for 0) and "0" in bytes 4-7, which pads the low group, as each digit byte holds the bits of "0"."""
    import numpy as np
    # uint16, as int64 temporaries would add about 1 MB to the peak RSS of a small spectrum
    numbers, powers = np.arange(10**4, dtype=np.uint16)[:, None], np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (numbers // powers % 10 + ord("0")).astype(np.uint8)
    loose = digits * ((numbers >= powers) | (powers == 1))  # the last digit stays, so 0 is "0"
    high, low = np.hstack((loose, np.full_like(loose, ord("0")))), np.hstack((np.zeros_like(loose), loose))
    high[0] = 0  # 0 has no high group
    return high.view(np.uint64).ravel(), low.view(np.uint64).ravel()


def _spectrum_rows(start: int, values: np.ndarray) -> Iterator[bytes]:
    """The CSV lines ``omega,value`` of ``values`` at omega = start, start + 1, ..., in pieces of ``CSV_CHUNK_ROWS``
    rows: each row is 19 bytes, omega's 8 digit places, ",", "-" or a zero byte, |value|'s 8 and "\\n", less every
    zero byte. Each piece refills the same rows and work arrays through ``out=``, and allocates only its bytes."""
    import numpy as np
    highs, lows = _digit_groups()
    size = min(CSV_CHUNK_ROWS, len(values))
    omega = np.arange(start, start + size, dtype=np.uint32)
    types = (np.int32, np.uint32, np.uint32, np.uint64, np.uint64)  # |value|, its two groups, their two words
    scratch = (np.empty((size, 19), dtype=np.uint8), *(np.empty(size, dtype=t) for t in types))
    scratch[0][:, 8], scratch[0][:, 18] = ord(","), ord("\n")
    for first in range(0, len(values), CSV_CHUNK_ROWS):
        piece = values[first : first + CSV_CHUNK_ROWS]
        rows, magnitude, high, low, word, low_word = (array[: len(piece)] for array in scratch)
        for column, number in ((0, omega[: len(piece)]), (10, np.abs(piece, out=magnitude).view(np.uint32))):
            np.floor_divide(number, 10**4, out=high)
            np.subtract(number, np.multiply(high, 10**4, out=low), out=low)
            # mode="clip" takes straight into out (the default mode buffers it); every index is in range
            np.bitwise_or(highs.take(high, out=word, mode="clip"), lows.take(low, out=low_word, mode="clip"),
                          out=rows[:, column : column + 8].view(np.uint64)[:, 0])
        np.multiply(np.less(piece, 0, out=rows[:, 9]), ord("-"), out=rows[:, 9])
        yield rows.tobytes().translate(None, b"\0")
        omega += CSV_CHUNK_ROWS
