"""Reference computations that the benchmark checks castream's outputs against.

Nothing here imports castream, and the methods differ from the program's:
rings and truth tables are bit-sliced into Python integers (bit i of a ring
state is cell i; bit x of a truth table is the value at input x) and every
rule is applied as a sum of products of its neighbourhood literals.

Conventions are the published ones: a rule's table is indexed by the
neighbourhood read left to right with the leftmost cell as the most
significant bit, so rule 30's table is 00011110; the spectrum uses the 0/1
sum W(omega) = sum_x F(x) (-1)^<x,omega>; single-variable scores break ties
toward the largest mask.  FIPS 140-2 thresholds are transcribed below from
FIPS PUB 140-2, section 4.9.1, as amended by Change Notice 1.
"""
from __future__ import annotations

from itertools import product

FIPS_SAMPLE_BITS = 20000
FIPS_MONOBIT = (9725, 10275)  # strict
FIPS_POKER = (2.16, 46.17)  # strict
FIPS_RUNS = {1: (2315, 2685), 2: (1114, 1386), 3: (527, 723), 4: (240, 384), 5: (103, 209), 6: (103, 209)}
FIPS_LONG_RUN = 26  # a run this long or longer fails


def rule_table(number: int, radius: int = 1) -> tuple[int, ...]:
    """Truth table of a rule number: entry x is bit x of the number."""
    size = 1 << (2 * radius + 1)
    if not 0 <= number < 1 << size:
        raise ValueError(f"rule {number} out of range for radius {radius}")
    return tuple((number >> x) & 1 for x in range(size))


def _products(table: tuple[int, ...], radius: int) -> tuple[list[list[tuple[int, int]]], bool]:
    """Sum of products over neighbourhood offsets; inverted when the zeros are fewer."""
    ones = sum(table)
    invert = ones > len(table) - ones
    terms = []
    for x, out in enumerate(table):
        if out != invert:
            # offset -radius is the most significant index bit
            terms.append([(d, (x >> (radius - d)) & 1) for d in range(-radius, radius + 1)])
    return terms, invert


def _apply(terms: list[list[tuple[int, int]]], invert: bool, lits: dict, full: int) -> int:
    # lits[(d, 1)] is the neighbour at offset d, lits[(d, 0)] its complement
    acc = 0
    for term in terms:
        t = full
        for lit in term:
            t &= lits[lit]
        acc |= t
    return acc ^ full if invert else acc


class Ring:
    """A ring of ``width`` cells under one rule per cell (a uniform rule repeats).

    One step is compiled to straight-line integer operations: per rule, the
    cells it governs masked onto the sum of products over shifted states.
    """

    def __init__(self, rules: list[int], width: int, radius: int = 1):
        if width < 2 * radius + 1:
            raise ValueError("ring too narrow for the radius")
        self.width = width
        groups: dict[int, int] = {}
        for cell in range(width):
            number = rules[cell % len(rules)]
            groups[number] = groups.get(number, 0) | (1 << cell)
        full = (1 << width) - 1
        lines = ["def step(s):"]
        for d in range(-radius, radius + 1):
            k = d % width  # cell i reads cell (i + d) mod width
            lines.append(f"    v{d + radius} = ((s >> {k}) | (s << {width - k})) & {full}")
            lines.append(f"    n{d + radius} = v{d + radius} ^ {full}")
        parts = []
        for number, mask in groups.items():
            terms, invert = _products(rule_table(number, radius), radius)
            names = [" & ".join(f"{'v' if b else 'n'}{d + radius}" for d, b in term) for term in terms]
            expr = " | ".join(f"({n})" for n in names) or "0"
            parts.append(f"({mask} & (({expr}) ^ {full if invert else 0}))")
        lines.append(f"    return {' | '.join(parts)}")
        scope: dict = {}
        exec("\n".join(lines), scope)
        self.step = scope["step"]

    def rows(self, cells: str, steps: int) -> list[str]:
        """Rows 0..steps of the space-time diagram as '0'/'1' strings, cell 0 first."""
        state = int(cells[::-1], 2)
        out = [cells]
        for _ in range(steps):
            state = self.step(state)
            out.append(format(state, f"0{self.width}b")[::-1])
        return out

    def tap(self, cells: str, cell: int, length: int) -> list[int]:
        """Values of one cell over ``length`` steps, from time 0."""
        state = int(cells[::-1], 2)
        out = []
        for _ in range(length):
            out.append((state >> cell) & 1)
            state = self.step(state)
        return out


# --- stream encodings ---------------------------------------------------

def ascii_stream(bits: list[int]) -> bytes:
    return ("".join(map(str, bits)) + "\n").encode()


def raw_stream(bits: list[int]) -> bytes:
    """Packed most significant bit first, zero-padded to a whole byte."""
    padded = list(bits) + [0] * (-len(bits) % 8)
    return bytes(int("".join(map(str, padded[i : i + 8])), 2) for i in range(0, len(padded), 8))


def diagram_text(rows: list[str]) -> bytes:
    return "".join(row + "\n" for row in rows).encode()


def diagram_pbm(rows: list[str]) -> bytes:
    body = "".join(" ".join(row) + "\n" for row in rows)
    return f"P1\n{len(rows[0])} {len(rows)}\n{body}".encode()


# --- iterated rules and their spectra -----------------------------------

class IteratedRule:
    """Truth table of a rule iterated ``order`` times over its input window.

    The window has n = 2*radius*order + 1 cells; window cell j (0 = leftmost)
    is input bit n-1-j.  ``table`` is bit-sliced: bit x is F(x).
    """

    def __init__(self, number: int, order: int, radius: int = 1):
        self.n = n = 2 * radius * order + 1
        size = 1 << n
        self.full = (1 << size) - 1
        self._vars = [_variable(size, n - 1 - j) for j in range(n)]
        terms, invert = _products(rule_table(number, radius), radius)
        cells = self._vars
        for _ in range(order):
            nxt = []
            for i in range(radius, len(cells) - radius):
                lits = {}
                for d in range(-radius, radius + 1):
                    lits[(d, 1)], lits[(d, 0)] = cells[i + d], cells[i + d] ^ self.full
                nxt.append(_apply(terms, invert, lits, self.full))
            cells = nxt
        (self.table,) = cells
        self.weight = self.table.bit_count()

    def value(self, x: int) -> int:
        return (self.table >> x) & 1

    def walsh(self, omega: int) -> int:
        """W(omega) = |F| - 2 * #{x : F(x) = 1 and <x, omega> odd}."""
        parity = 0
        for k in range(self.n):
            if omega >> k & 1:
                parity ^= self._vars[self.n - 1 - k]
        return self.weight - 2 * (self.table & parity).bit_count()

    def score(self) -> tuple[int, int]:
        """(cfg, val): largest |W(2^k)|, ties toward the largest mask; (0, 0) when flat."""
        cfg, val = 0, 0
        for k in range(self.n):
            magnitude = abs(self.walsh(1 << k))
            if magnitude and magnitude >= val:
                cfg, val = 1 << k, magnitude
        return cfg, val


def _variable(size: int, bit: int) -> int:
    """Bit-sliced input variable: bit x set iff bit ``bit`` of x is set."""
    half = 1 << bit
    pattern, span = ((1 << half) - 1) << half, 2 * half
    while span < size:
        pattern |= pattern << span
        span *= 2
    return pattern


def conjugate(number: int) -> int:
    """Complement every cell: g(a, b, c) = 1 - f(1-a, 1-b, 1-c)."""
    table = rule_table(number)
    return sum((1 - table[7 - x]) << x for x in range(8))


def reflect(number: int) -> int:
    """Mirror the neighbourhood: g(a, b, c) = f(c, b, a)."""
    table = rule_table(number)
    return sum(table[4 * c + 2 * b + a] << (4 * a + 2 * b + c) for a, b, c in product((0, 1), repeat=3))


def balanced_elementary_rules() -> list[int]:
    return [n for n in range(256) if bin(n).count("1") == 4]


# --- FIPS 140-2 ---------------------------------------------------------

def fips_statistics(bits: list[int]) -> dict[str, float]:
    """The four statistics of the first 20000-bit window, named as the CLI reports them."""
    sample = bits[:FIPS_SAMPLE_BITS]
    if len(sample) != FIPS_SAMPLE_BITS:
        raise ValueError("the battery needs 20000 bits")
    stats: dict[str, float] = {"monobit.ones": sum(sample)}
    counts = [0] * 16
    for i in range(0, FIPS_SAMPLE_BITS, 4):
        counts[8 * sample[i] + 4 * sample[i + 1] + 2 * sample[i + 2] + sample[i + 3]] += 1
    stats["poker.statistic"] = 16 * sum(c * c for c in counts) / 5000 - 5000
    runs = {(b, k): 0 for b in (0, 1) for k in range(1, 7)}
    longest, start = 0, 0
    for i in range(1, FIPS_SAMPLE_BITS + 1):
        if i == FIPS_SAMPLE_BITS or sample[i] != sample[start]:
            length = i - start
            runs[(sample[start], min(length, 6))] += 1
            longest = max(longest, length)
            start = i
    for (b, k), count in runs.items():
        stats[f"runs.bit{b}.length{k}"] = count
    stats["long_run.longest"] = longest
    return stats


def fips_verdicts(stats: dict[str, float]) -> dict[str, bool]:
    verdicts = {
        "monobit": FIPS_MONOBIT[0] < stats["monobit.ones"] < FIPS_MONOBIT[1],
        "poker": FIPS_POKER[0] < stats["poker.statistic"] < FIPS_POKER[1],
        "runs": all(
            FIPS_RUNS[k][0] <= stats[f"runs.bit{b}.length{k}"] <= FIPS_RUNS[k][1]
            for b in (0, 1)
            for k in range(1, 7)
        ),
        "long_run": stats["long_run.longest"] < FIPS_LONG_RUN,
    }
    verdicts["overall"] = all(verdicts.values())
    return verdicts
