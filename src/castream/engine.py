"""One-dimensional binary cellular automata on a ring.

Rules are local transition functions of radius 1 or 2, identified by their
Wolfram number: the integer whose binary expansion, read at index
``(left neighbors .. cell .. right neighbors)`` with the leftmost neighbor as
the most significant bit, is the rule's truth table.  Configurations live on
a ring of N cells (indices wrap modulo N).  All operations are pure; every
value is immutable once constructed.

A configuration is held packed, as one int with bit i = cell i, and a rule
as its number; ``cells`` and ``truth_table`` are derived.  Each rule's table is
written as the smallest bitwise circuit that ``_circuit`` finds (rule 30 is
``x0 ^ (s | x2)``), and each generator, a rule or a per-cell assignment on
one ring width, is compiled once into one loop of those circuits.  The loop
holds the ring with a halo of up to ``HALO`` cells copied from the far end
onto each side, so it steps with plain shifts, with no wrap and no mask,
and it copies the halo again only when the steps have spent it.  Before
each step it writes ``state >> shift & pick``: a tap cell's bit as a 0/1
byte, which leave in chunks of ``TAP_CHUNK`` so that a keystream is written
as it is made, or a whole row, in chunks of about ``STATE_CHUNK`` cells.
A caller's bits are packed by ``_pack``, the one check that they are 0 or 1,
and a packed state is written as ``0``/``1`` text, cell 0 first, by
``_digits``; rows that ``step`` and ``evolve`` make are not re-validated.

Every value class of the package derives from ``_Record``, which gives it
the construction, comparison, hashing and printing of a frozen dataclass
without importing ``dataclasses``.
"""
from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, Callable, Iterator, MutableSequence, Sequence, Union

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
STATE_CHUNK = 1 << 20  # cells of the whole rows that one call of the ring loop makes for _states
HALO = 64  # cells copied from the far end onto each side of a stepped ring, at most its width

_TO_DIGITS = b"01" + b"2" * 254  # 0/1 bytes to ASCII digits, any other byte to "2", which no base-2 int parses
_TO_CELLS = bytes.maketrans(b"01", b"\x00\x01")
Bits = tuple[int, ...]  # a bit string as the layers take and give it, one 0/1 int a bit

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
    """A local rule on the 2*radius+1 neighborhood, held as its Wolfram number.

    Bit x of ``number``, which is ``truth_table[x]``, is the output for the neighborhood whose cells,
    read left to right, are the bits of ``x`` from most to least significant.
    """

    radius: int
    number: int

    def __init__(self, radius: int, truth_table: Sequence[int]) -> None:
        radius = operator.index(radius)
        if radius not in SUPPORTED_RADII:
            raise ValueError(f"unsupported radius {radius}; must be one of {SUPPORTED_RADII}")
        expected = 1 << (2 * radius + 1)
        if len(truth_table) != expected:
            raise ValueError(f"truth table must have {expected} entries for radius {radius}, got {len(truth_table)}")
        _set(self, "radius", radius)
        _set(self, "number", _pack(truth_table, "truth table entries"))  # raises unless each entry is 0 or 1

    @property
    def truth_table(self) -> Bits:
        return _unpack(self.number, 1 << self.neighborhood_size)

    @property
    def neighborhood_size(self) -> int:
        return 2 * self.radius + 1

    @classmethod
    def from_number(cls, number: int, radius: int = 1) -> "Rule":
        radius = operator.index(radius)
        if radius not in SUPPORTED_RADII:
            raise ValueError(f"unsupported radius {radius}; must be one of {SUPPORTED_RADII}")
        number = operator.index(number)
        if not 0 <= number < 1 << (1 << 2 * radius + 1):
            raise ValueError(f"rule number {number} out of range for radius {radius}")
        return cls._packed(radius, number)

    def apply(self, neighborhood: Sequence[int]) -> int:
        """Output bit for one neighborhood, leftmost cell most significant."""
        if len(neighborhood) != self.neighborhood_size:
            raise ValueError(
                f"neighborhood must have {self.neighborhood_size} cells, got {len(neighborhood)}"
            )
        index = 0
        for bit in neighborhood:
            index = (index << 1) | (bit & 1)
        return self.number >> index & 1

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
    def cells(self) -> Bits:
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
        return _digits(self._state, self.width)

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

    def column(self, cell: int) -> Bits:
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
def _anf(table: int, arity: int) -> int:
    """The algebraic normal form of a packed table of ``arity`` variables, packed: bit x is the
    coefficient of the product of the variables set in x.  A Moebius transform, one masked shift-XOR per variable."""
    for variable, ones in enumerate(reversed(_window(arity))):
        table ^= table << (1 << variable) & ones
    return table


def _circuit(table: int, operands: tuple[str, ...], one: str) -> str:
    """A packed table as bitwise code of the operands, leftmost neighbor first, and ``one``, a mask of
    ones: the smallest circuit that ``_cheapest`` finds.  Uncached: its callers cache what they compile."""
    return _cheapest(table, len(operands))[1].format(*operands, m=one)


@functools.lru_cache(maxsize=1 << 12)
def _cheapest(table: int, arity: int) -> tuple[int, str]:
    """The operator count and code of the smallest circuit found for a packed table of ``arity``
    variables: code is a template with ``{j}`` for variable j, leftmost first, and ``{m}`` for ones.

    A table is ``0``, ``{m}`` or a variable, or it splits on a variable x into its cofactors f0
    and f1 as ``x & f1`` (f0 = 0), ``x | f0`` (f1 = 1), ``x ^ f0`` (f1 = not f0) or else as
    ``f0 ^ x & (f0 ^ f1)`` (positive Davio) or, when f1 = 0, ``{m} ^ (x | not f0)``, whichever has
    the fewest operators.  Every other complement ``{m} ^ g`` of a split costs at least as much as
    one of these.  The algebraic normal form is Davio on every variable in turn, so the circuit
    never has more operators than it; and negation is ``{m} ^``, never ``~``, so no operand of the
    code goes negative.
    """
    size = 1 << arity
    full, window = (1 << size) - 1, _window(arity)
    if table == 0 or table == full:
        return 0, "{m}" if table else "0"
    if table in window:
        return 0, "{%d}" % window.index(table)
    forms = []
    for j, ones in enumerate(window):
        stride = size >> j + 1
        f0, f1 = table & ~ones, table & ones
        f0, f1 = f0 | f0 << stride, f1 | f1 >> stride
        if f0 == f1:
            continue
        if f0 == 0 or f1 == full or f0 ^ f1 == full:
            op, g = ("&", f1) if f0 == 0 else ("|", f0) if f1 == full else ("^", f0)
            cost, code = _cheapest(g, arity)
            forms.append((cost + 1, "{%d} %s %s" % (j, op, _wrapped(code))))
            continue
        (cost0, code0), (cost1, code1) = _cheapest(f0, arity), _cheapest(f0 ^ f1, arity)
        forms.append((cost0 + cost1 + 2, "%s ^ {%d} & %s" % (_wrapped(code0), j, _wrapped(code1))))
        if f1 == 0:
            cost, code = _cheapest(full ^ f0, arity)
            forms.append((cost + 2, "{m} ^ ({%d} | %s)" % (j, _wrapped(code))))
    return min(forms, key=operator.itemgetter(0))


def _wrapped(code: str) -> str:
    return code if " " not in code else "(" + code + ")"


@functools.lru_cache(maxsize=1024)
def _kernel(table: int, arity: int) -> Callable[..., int]:
    """Compile a packed table of ``arity`` variables into a function of one packed operand per neighbor,
    leftmost first, and a mask ``m`` of ones: the table's ``_circuit``.  Bits outside the mask are
    undefined: each caller masks the result or keeps its operands inside the mask."""
    params = tuple("x%d" % j for j in range(arity))
    return eval("lambda %s, m: %s" % (", ".join(params), _circuit(table, params, "m")))


_RUN = """\
def run(s, out, shift, pick, {defaults}):
    shift += {halo}
    for start in range(0, len(out), {period}):
        s = haloed(s)
        for i in range(start, min(start + {period}, len(out))):
            out[i] = s >> shift & pick
{shifts}            s = {step}
        s = s >> {halo} & full
    return s
"""


@functools.lru_cache(maxsize=256)
def _loop(rule: RuleLike, width: int) -> Callable[[int, MutableSequence[int], int, int], int]:
    """Compile ``run(state, out, shift, pick)`` for a generator on ``width`` cells: it steps the ring
    ``len(out)`` times, writes ``state >> shift & pick`` into ``out`` before each step (a tap is
    ``(cell, 1)``, a whole state ``(0, 2^width - 1)``) and returns the state.

    The loop holds the ring with a halo of ``h = min(width, HALO)`` cells copied from the far end
    on each side, so neighbor offset o is an open shift of it, and nothing is masked: each step
    spoils ``radius`` more cells at each edge, and after ``h // radius`` steps, with the ring itself
    still exact, the halo is copied again.  A uniform rule is one ``_circuit``; an assignment ORs
    each rule's circuit masked to the cells, halo included, where that rule runs."""
    radius, needed = rule.radius, 2 * rule.radius + 1
    if width < needed:
        raise ValueError(f"ring width {width} too small for radius {radius} (need >= {needed})")
    tables = [r.number for r in getattr(rule, "rules", (rule,) * width)]
    if len(tables) != width:
        raise ValueError(f"assignment has {len(tables)} rules but configuration has {width} cells")
    halo = min(width, HALO)
    low, full = (1 << halo) - 1, (1 << width) - 1

    def haloed(s: int) -> int:  # cells width - halo .. width - 1, the ring, then cells 0 .. halo - 1
        return s << halo | s >> width - halo | (s & low) << halo + width

    namespace, circuits = {"haloed": haloed, "full": full}, []
    operands = tuple("x%d" % j if j != radius else "s" for j in range(needed))
    for i, t in enumerate(dict.fromkeys(tables)):  # c<i>: the cells, halo included, where rule i runs
        namespace["c%d" % i] = haloed(_pack([x == t for x in tables]))
        circuits.append(_circuit(t, operands, "c%d" % i))
    # a uniform rule's one is the mask of the whole ring, so its circuit needs no mask
    step = circuits[0] if len(circuits) == 1 else " | ".join("(%s) & c%d" % (e, i) for i, e in enumerate(circuits))
    shifts = ("            x%d = s %s %d\n" % (j, "<<" if j < radius else ">>", abs(j - radius))
              for j in range(needed) if j != radius)
    exec(_RUN.format(defaults=", ".join("%s=%s" % (c, c) for c in namespace), halo=halo, period=halo // radius,
                     shifts="".join(shifts), step=step), namespace)
    return namespace["run"]


def _pack(bits: Sequence[int], what: str = "bits") -> int:
    """The bits as one int, bit i = bits[i]; an array is read through ``tolist()``, not its buffer."""
    values = bits.tolist() if hasattr(bits, "tolist") else bits  # a buffer holds itemsize bytes a bit
    if isinstance(values, int):  # bytes(n) would be n zero bytes
        raise TypeError(f"{what} must be a sequence, got {values!r}")
    try:  # bytes() rejects an entry that is no int in 0..255, and int() the digit "2" of any other but 0 or 1
        return int(bytes(values)[::-1].translate(_TO_DIGITS) or b"0", 2)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be 0 or 1") from None


def _digits(state: int, width: int) -> str:
    """The cells of a packed state as '0'/'1' text, cell 0 first."""
    return format(state, f"0{width}b")[::-1] if width else ""  # width 0 would format as "0"


def _unpack(state: int, width: int) -> Bits:
    return tuple(_digits(state, width).encode().translate(_TO_CELLS))


def _states(config: Configuration, rule: RuleLike, steps: int) -> Iterator[list[int]]:
    """Packed ring states (bit i = cell i) at times 0 .. steps: the whole rows, about ``STATE_CHUNK``
    cells, that each call of the ring loop fills, then ``[final state]``; arguments are checked on the call."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    width = config.width
    run, full, rows = _loop(rule, width), (1 << width) - 1, max(1, STATE_CHUNK // width)

    def chunks(state: int) -> Iterator[list[int]]:
        for start in range(0, steps, rows):
            out = [0] * min(rows, steps - start)
            state = run(state, out, 0, full)
            yield out
        yield [state]

    return chunks(config._state)


def _taps(config: Configuration, rule: RuleLike, cell: int, length: int, burn_in: int = 0) -> Iterator[bytearray]:
    """The cell's bits at times burn_in .. burn_in + length - 1 as 0/1 bytes, in chunks of
    ``TAP_CHUNK`` bits, the last one shorter; the arguments are checked on the call."""
    if not 0 <= cell < config.width:
        raise ValueError(f"cell {cell} out of range for width {config.width}")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if length < 1:
        raise ValueError("length must be >= 1")
    run = _loop(rule, config.width)

    def chunks(state: int) -> Iterator[bytearray]:
        for start in range(0, burn_in, TAP_CHUNK):  # stepped a chunk at a time, yielding nothing
            state = run(state, bytearray(min(TAP_CHUNK, burn_in - start)), cell, 1)
        for start in range(0, length, TAP_CHUNK):
            out = bytearray(min(TAP_CHUNK, length - start))
            state = run(state, out, cell, 1)
            yield out

    return chunks(config._state)


def step(config: Configuration, rule: RuleLike) -> Configuration:
    """Advance the ring one time step under a rule or a per-cell assignment."""
    return Configuration._packed(_loop(rule, config.width)(config._state, bytearray(1), 0, 1), config.width)


step_nonuniform = step


def evolve(config: Configuration, rule: RuleLike, steps: int) -> SpaceTimeDiagram:
    """Evolve for ``steps`` steps; rows[0] is the initial configuration."""
    chunks = _states(config, rule, steps)
    return SpaceTimeDiagram._packed(tuple(Configuration._packed(s, config.width) for rows in chunks for s in rows))


def temporal_sequence(config: Configuration, rule: RuleLike, cell: int, length: int) -> Bits:
    """Values of one fixed cell over ``length`` time steps, starting at time 0."""
    return tuple(b"".join(_taps(config, rule, cell, length)))
