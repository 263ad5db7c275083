"""One-dimensional binary cellular automata on a ring.

Rules are local transition functions of radius 1 or 2, identified by their
Wolfram number: the integer whose binary expansion, read at index
``(left neighbors .. cell .. right neighbors)`` with the leftmost neighbor as
the most significant bit, is the rule's truth table.  Configurations live on
a ring of N cells (indices wrap modulo N).  All operations are pure; every
value is immutable once constructed.

A configuration is held packed: the ring is one int with bit i = cell i,
and its ``cells`` tuple is derived on demand.  Each generator, a rule or a
per-cell assignment on one ring width, is compiled once into one loop from
the rules' algebraic normal form (ANF), which ``algebra`` and ``attack`` also
read.  A step reads each neighbor from the doubled state ``s | s << width``
with one shift and masks once; before each step the loop writes a tap cell's
bit as a 0/1 byte, and tap bits leave in chunks of ``TAP_CHUNK``, so that a
keystream is written as it is made.  Rows that ``step`` and ``evolve`` make
are not re-validated: ``_pack`` is the one check that bits are 0 or 1.

Every value class of the package derives from ``_Record``, which gives it
the construction, comparison, hashing and printing of a frozen dataclass
without importing ``dataclasses``.
"""
from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, Union

if TYPE_CHECKING:
    import random

__all__ = [
    "Rule",
    "RuleAssignment",
    "Configuration",
    "SpaceTimeDiagram",
    "rule_from_number",
    "apply_rule",
    "step",
    "step_nonuniform",
    "evolve",
    "temporal_sequence",
]

SUPPORTED_RADII = (1, 2)
TAP_CHUNK = 1 << 16  # tap bits a chunk holds: a multiple of 8, so each chunk packs to whole bytes

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_CELLS = bytes.maketrans(b"01", b"\x00\x01")

_set = object.__setattr__  # how a record writes its own fields


class _Record:
    """A value class: its fields are the names annotated in its body, in order,
    and a field assigned in the body has that default.

    It is built from positional or keyword arguments, after which
    ``__post_init__`` runs; it compares (with its own class only), hashes and
    prints by its fields, and it is frozen.  A subclass declared with
    ``frozen=False`` may be changed and has no hash.  A subclass may override
    any of these.
    """

    def __init_subclass__(cls, frozen: bool = True, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._values = operator.attrgetter(*cls._fields)  # one field's value, or a tuple of them
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or kwargs.keys() & set(fields[: len(args)]) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields ({', '.join(fields)}), "
                            f"got {len(args)} positional arguments and the keywords {sorted(kwargs)}")
        for field in fields:
            _set(self, field, values[field])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    @classmethod
    def _packed(cls, *values: object) -> "_Record":
        """A record of its field values, in order, that the caller knows to be valid: unchecked."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        return record

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # loaded only when a record is written to
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Rule(_Record):
    """A local rule: truth table over the 2*radius+1 neighborhood.

    ``truth_table[x]`` is the output for the neighborhood whose cells, read
    left to right, are the bits of ``x`` from most to least significant.
    """

    radius: int
    truth_table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.radius not in SUPPORTED_RADII:
            raise ValueError(f"unsupported radius {self.radius}; must be one of {SUPPORTED_RADII}")
        expected = 1 << (2 * self.radius + 1)
        if len(self.truth_table) != expected:
            raise ValueError(f"truth table must have {expected} entries for radius {self.radius}, "
                             f"got {len(self.truth_table)}")
        _pack(self.truth_table, "truth table entries")  # raises unless each entry is 0 or 1
        if type(self.truth_table) is not tuple:  # a list or an array is unhashable, and rules are cache keys
            _set(self, "truth_table", tuple(map(int, self.truth_table)))

    @property
    def number(self) -> int:
        """Wolfram number: sum of truth_table[x] * 2**x."""
        return _pack(self.truth_table, "truth table entries")

    @property
    def neighborhood_size(self) -> int:
        return 2 * self.radius + 1

    @classmethod
    def from_number(cls, number: int, radius: int = 1) -> "Rule":
        if radius not in SUPPORTED_RADII:
            raise ValueError(f"unsupported radius {radius}; must be one of {SUPPORTED_RADII}")
        table_size = 1 << (2 * radius + 1)
        if not 0 <= number < (1 << table_size):
            raise ValueError(f"rule number {number} out of range for radius {radius}")
        return cls._packed(radius, _unpack(number, table_size))

    def apply(self, neighborhood: Sequence[int]) -> int:
        """Output bit for one neighborhood, leftmost cell most significant."""
        if len(neighborhood) != self.neighborhood_size:
            raise ValueError(
                f"neighborhood must have {self.neighborhood_size} cells, got {len(neighborhood)}"
            )
        index = 0
        for bit in neighborhood:
            index = (index << 1) | (bit & 1)
        return self.truth_table[index]

    def __repr__(self) -> str:
        return f"Rule({self.number}, radius={self.radius})"


class RuleAssignment(_Record):
    """One rule per ring cell; all rules must share a radius."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("assignment must contain at least one rule")
        radii = {rule.radius for rule in self.rules}
        if len(radii) != 1:
            raise ValueError(f"mixed radii in assignment: {sorted(radii)}")

    @property
    def radius(self) -> int:
        return self.rules[0].radius

    @property
    def width(self) -> int:
        return len(self.rules)

    @classmethod
    def cycle(cls, rules: Sequence[Rule], width: int) -> "RuleAssignment":
        """Tile a rule pattern around a ring of the given width."""
        if not rules:
            raise ValueError("need at least one rule to cycle")
        return cls(tuple(rules[i % len(rules)] for i in range(width)))


class Configuration(_Record):
    """A ring of binary cells; cell indices wrap modulo the width.

    Held packed, as one int with bit i = cell i plus the width; ``cells`` and
    ``str()`` are derived from it.
    """

    _state: int
    width: int

    def __init__(self, cells: Sequence[int]) -> None:
        width = _checked_width(len(cells))
        _set(self, "_state", _pack(cells, "cells"))
        _set(self, "width", width)

    @property
    def cells(self) -> tuple[int, ...]:
        return _unpack(self._state, self.width)

    @classmethod
    def from_bits(cls, bits: str) -> "Configuration":
        """A ring from the characters '0' and '1', cell 0 first; surrounding whitespace is ignored."""
        data = bits.strip().encode("ascii", "replace")
        if not data or data.translate(None, b"01"):
            raise ValueError(f"configuration string must contain only 0/1: {bits!r}")
        return cls._packed(int(data[::-1], 2), len(data))

    @classmethod
    def zeros(cls, width: int) -> "Configuration":
        return cls._packed(0, _checked_width(width))

    @classmethod
    def single(cls, width: int) -> "Configuration":
        """All zeros except a single 1 at the center cell (index (width-1)//2)."""
        width = _checked_width(width)
        return cls._packed(1 << (width - 1) // 2, width)

    @classmethod
    def random(cls, width: int, rng: random.Random) -> "Configuration":
        """Cell i is the i-th draw of ``rng.getrandbits(1)``."""
        width = _checked_width(width)
        return cls._packed(_pack([rng.getrandbits(1) for _ in range(width)]), width)

    def __str__(self) -> str:
        return format(self._state, f"0{self.width}b")[::-1]

    def __repr__(self) -> str:
        return f"Configuration(cells={self.cells!r})"


def _checked_width(width: int) -> int:
    width = operator.index(width)
    if width < 1:
        raise ValueError("configuration must contain at least one cell")
    return width


class SpaceTimeDiagram(_Record):
    """Successive ring configurations; row t is the state at time t."""

    rows: tuple[Configuration, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("diagram must contain at least one row")
        widths = {row.width for row in self.rows}
        if len(widths) != 1:
            raise ValueError("all rows must share one width")

    @property
    def width(self) -> int:
        return self.rows[0].width

    @property
    def steps(self) -> int:
        return len(self.rows) - 1

    def column(self, cell: int) -> tuple[int, ...]:
        """Values of one cell over time (the temporal sequence)."""
        if not 0 <= cell < self.width:
            raise ValueError(f"cell {cell} out of range for width {self.width}")
        return tuple(row._state >> cell & 1 for row in self.rows)


RuleLike = Union[Rule, RuleAssignment]


def rule_from_number(number: int, radius: int = 1) -> Rule:
    """Build the rule whose truth table is the binary expansion of ``number``."""
    return Rule.from_number(number, radius)


def apply_rule(rule: Rule, neighborhood: Sequence[int]) -> int:
    return rule.apply(neighborhood)


@functools.lru_cache(maxsize=16)
def _window(width: int) -> tuple[int, ...]:
    """The window cells as 2^width-bit truth tables, leftmost first; cell c is
    variable ``width - 1 - c``, as the leftmost neighbor is the index's top bit."""
    state, count = [], 1
    for _ in range(width):
        state = [((1 << count) - 1) << count] + [v | v << count for v in state]
        count *= 2
    return tuple(state)


@functools.lru_cache(maxsize=1024)
def _anf(truth_table: tuple[int, ...]) -> int:
    """The algebraic normal form, packed: bit x is the coefficient of the product
    of the variables set in x.  A Moebius transform, one masked shift-XOR per variable."""
    anf = _pack(truth_table)
    for variable, ones in enumerate(reversed(_window(len(truth_table).bit_length() - 1))):
        anf ^= anf << (1 << variable) & ones
    return anf


def _terms(truth_table: tuple[int, ...], operands: Sequence[str], one: str) -> str:
    """The ANF as bitwise code: an XOR of ANDs of the operands (leftmost neighbor first) and ``one``."""
    arity, anf = len(operands), _anf(truth_table)
    terms = (" & ".join(v for j, v in enumerate(operands) if x >> (arity - 1 - j) & 1) or one
             for x in range(len(truth_table)) if anf >> x & 1)
    return " ^ ".join(terms) or "0"


@functools.lru_cache(maxsize=1024)
def _kernel(truth_table: tuple[int, ...]) -> Callable[..., int]:
    """Compile a truth table into a function of one packed operand per neighbor, leftmost first,
    and a mask ``m`` of ones, the ANF's constant 1.  Bits outside the mask are undefined: each
    caller masks the result or keeps its operands inside the mask."""
    params = [f"x{j}" for j in range(len(truth_table).bit_length() - 1)]
    return eval(f"lambda {', '.join(params)}, m: {_terms(truth_table, params, 'm')}")


@functools.lru_cache(maxsize=256)
def _loop(rule: RuleLike, width: int) -> Callable[[int, bytearray, int], int]:
    """Compile ``run(state, out, cell)`` for a generator on ``width`` cells: it steps the ring
    ``len(out)`` times, writes the cell's bit before each step into ``out`` and returns the state.
    Neighbor offset o is ``d >> (o % width)`` of the doubled state ``d = s | s << width``."""
    needed = 2 * rule.radius + 1
    if width < needed:
        raise ValueError(f"ring width {width} too small for radius {rule.radius} (need >= {needed})")
    tables = [r.truth_table for r in getattr(rule, "rules", (rule,) * width)]
    if len(tables) != width:
        raise ValueError(f"assignment has {len(tables)} rules but configuration has {width} cells")
    cells = {t: _pack([x == t for x in tables]) for t in dict.fromkeys(tables)}  # where each rule runs
    shifts = [offset % width for offset in range(-rule.radius, rule.radius + 1)]
    operands = [f"x{j}" if k else "s" for j, k in enumerate(shifts)]
    step = " | ".join(f"({_terms(t, operands, f'c{i}')}) & c{i}" for i, t in enumerate(cells))
    namespace = {f"c{i}": mask for i, mask in enumerate(cells.values())}
    exec("\n".join((
        f"def run(s, out, cell, {', '.join(f'{c}={c}' for c in namespace)}):",
        "    for i in range(len(out)):",
        "        out[i] = s >> cell & 1",
        f"        d = s | s << {width}",
        *(f"        {v} = d >> {k}" for v, k in zip(operands, shifts) if k),
        f"        s = {step}",
        "    return s",
    )), namespace)
    return namespace["run"]


def _pack(bits: Sequence[int], what: str = "bits") -> int:
    """The bits as one int, bit i = bits[i]; an array is read through ``tolist()``, not its buffer."""
    values = bits.tolist() if hasattr(bits, "tolist") else bits  # a buffer holds itemsize bytes a bit
    if isinstance(values, int):  # bytes(n) would be n zero bytes
        raise TypeError(f"{what} must be a sequence, got {values!r}")
    try:
        data = bytes(values)
    except (TypeError, ValueError):  # an entry that is no int in 0..255: rejected below
        data = b"\x02"
    if data.translate(None, b"\x00\x01"):
        raise ValueError(f"{what} must be 0 or 1")
    return int(data[::-1].translate(_TO_DIGITS) or b"0", 2)


def _unpack(state: int, width: int) -> tuple[int, ...]:
    digits = format(state, f"0{width}b")[::-1][:width]  # width 0 formats as "0"
    return tuple(digits.encode().translate(_TO_CELLS))


def _states(config: Configuration, rule: RuleLike, steps: int) -> Iterator[int]:
    """Packed ring states (bit i = cell i) at times 0 .. steps, one call of the ring loop a step;
    the arguments are checked on the call."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    run, out = _loop(rule, config.width), bytearray(1)

    def states(state: int) -> Iterator[int]:
        yield state
        for _ in range(steps):
            state = run(state, out, 0)
            yield state

    return states(config._state)


def _taps(config: Configuration, rule: RuleLike, cell: int, length: int, burn_in: int = 0) -> Iterator[bytearray]:
    """The cell's bits at times burn_in .. burn_in + length - 1 as 0/1 bytes, in chunks of
    ``TAP_CHUNK`` bits, the last one shorter; the arguments are checked on the call."""
    if not 0 <= cell < config.width:
        raise ValueError(f"cell {cell} out of range for width {config.width}")
    if length < 1:
        raise ValueError("length must be >= 1")
    run = _loop(rule, config.width)

    def chunks(state: int) -> Iterator[bytearray]:
        for start in range(0, burn_in, TAP_CHUNK):  # stepped a chunk at a time, yielding nothing
            state = run(state, bytearray(min(TAP_CHUNK, burn_in - start)), cell)
        for start in range(0, length, TAP_CHUNK):
            out = bytearray(min(TAP_CHUNK, length - start))
            state = run(state, out, cell)
            yield out

    return chunks(config._state)


def step(config: Configuration, rule: RuleLike) -> Configuration:
    """Advance the ring one time step under a rule or a per-cell assignment."""
    return Configuration._packed(_loop(rule, config.width)(config._state, bytearray(1), 0), config.width)


step_nonuniform = step


def evolve(config: Configuration, rule: RuleLike, steps: int) -> SpaceTimeDiagram:
    """Evolve for ``steps`` steps; rows[0] is the initial configuration."""
    return SpaceTimeDiagram(tuple(Configuration._packed(s, config.width) for s in _states(config, rule, steps)))


def temporal_sequence(config: Configuration, rule: RuleLike, cell: int, length: int) -> tuple[int, ...]:
    """Values of one fixed cell over ``length`` time steps, starting at time 0."""
    return tuple(b"".join(_taps(config, rule, cell, length)))
