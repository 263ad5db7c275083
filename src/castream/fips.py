"""FIPS 140-2 style statistical battery for 20000-bit keystream samples.

Four tests run on a fixed-size sample: monobit (ones count), poker
(chi-square-like statistic over 4-bit nibbles), runs (counts of maximal
runs by length, both bit values), and long run (no run of 26 or more).
The battery is one pass and needs no numpy: ``fips_battery`` checks a sample
with ``engine._pack``, writes it once as ASCII ``0``/``1`` bytes with
``engine._digits``, and counts their ones, their hex digits (nibbles) and,
once for runs and long run, their maximal runs.  ``monobit``, ``poker``,
``runs`` and ``long_run`` return its entries.  Thresholds are configuration
data loaded from a ``test.parameter = value`` file, not constants baked into
the test logic; the defaults come from the standard (see
``fips_thresholds.conf``).  A file must give each required key once, as a
number: an unknown or repeated key, NaN or a value that is no number is an
error that names the line, and +-inf switches a bound off.
"""
from __future__ import annotations

import os
from collections import Counter
from typing import Mapping, Sequence

from .engine import _digits, _pack, _Record

__all__ = [
    "SAMPLE_BITS",
    "Thresholds",
    "TestResult",
    "TestReport",
    "monobit",
    "poker",
    "runs",
    "long_run",
    "fips_battery",
]

SAMPLE_BITS = 20000
RUN_LENGTHS = (1, 2, 3, 4, 5, 6)  # length 6 pools all runs of 6 or more


class Thresholds(_Record):
    """Pass/fail boundaries for the battery, keyed as in the config file."""

    values: Mapping[str, float]

    REQUIRED = (
        "monobit.min",
        "monobit.max",
        "poker.min",
        "poker.max",
        *(f"runs.length{i}.{side}" for i in RUN_LENGTHS for side in ("min", "max")),
        "long_run.limit",
    )

    def __post_init__(self) -> None:
        missing = [key for key in self.REQUIRED if key not in self.values]
        if missing:
            raise ValueError(f"thresholds missing keys: {missing}")

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    @classmethod
    def parse(cls, text: str) -> "Thresholds":
        values: dict[str, float] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'test.parameter = value', got {raw!r}")
            key, _, given = (part.strip() for part in line.partition("="))
            if key not in cls.REQUIRED:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"line {lineno}: {key} is given twice")
            try:
                value = float(given)
            except ValueError:
                value = float("nan")
            if value != value:  # NaN, which no bound compares with
                raise ValueError(f"line {lineno}: {key} must be a number or +-inf, got {given!r}")
            values[key] = value
        return cls(values)

    @classmethod
    def from_file(cls, path: str) -> "Thresholds":
        with open(path, encoding="utf-8") as handle:
            return cls.parse(handle.read())

    @classmethod
    def default(cls) -> "Thresholds":
        """The standard's values, from the ``fips_thresholds.conf`` installed beside this module."""
        return cls.from_file(os.path.join(os.path.dirname(__file__), "fips_thresholds.conf"))


class TestResult(_Record):
    name: str
    passed: bool
    statistics: Mapping[str, float]
    thresholds: Mapping[str, float]


class TestReport(_Record):
    results: tuple[TestResult, ...]

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def to_text(self) -> str:
        lines = []
        for result in self.results:
            for key, value in result.statistics.items():
                lines.append(f"{result.name}.{key} = {value:g}")
            for key, value in result.thresholds.items():
                lines.append(f"{key} = {value:g}")
            lines.append(f"{result.name}.pass = {str(result.passed).lower()}")
        lines.append(f"overall.pass = {str(self.passed).lower()}")
        return "\n".join(lines) + "\n"


def _as_sample(stream: Sequence[int]) -> bytes:
    """The sample as 20000 ASCII ``0``/``1`` bytes, after checking its length and entries."""
    if len(stream) != SAMPLE_BITS:
        raise ValueError(f"stream must contain exactly {SAMPLE_BITS} bits, got {len(stream)}")
    return _digits(_pack(stream, "stream entries"), SAMPLE_BITS).encode()


def _strictly_inside(name: str, statistic: str, value: float, t: Thresholds) -> TestResult:
    low, high = t[f"{name}.min"], t[f"{name}.max"]
    return TestResult(name, low < value < high, {statistic: value}, {f"{name}.min": low, f"{name}.max": high})


def monobit(stream: Sequence[int], thresholds: Thresholds | None = None) -> TestResult:
    """Ones count, strictly inside the configured interval."""
    return fips_battery(stream, thresholds).results[0]


def poker(stream: Sequence[int], thresholds: Thresholds | None = None) -> TestResult:
    """Nibble-frequency statistic X = (16/5000) * sum(f_i^2) - 5000, strict bounds."""
    return fips_battery(stream, thresholds).results[1]


def runs(stream: Sequence[int], thresholds: Thresholds | None = None) -> TestResult:
    """Counts of maximal runs per length (1..5, 6+) and bit value, closed intervals."""
    return fips_battery(stream, thresholds).results[2]


def long_run(stream: Sequence[int], thresholds: Thresholds | None = None) -> TestResult:
    """Fails as soon as any run of either bit value reaches the configured limit."""
    return fips_battery(stream, thresholds).results[3]


def fips_battery(stream: Sequence[int], thresholds: Thresholds | None = None) -> TestReport:
    """All four tests on one conversion of the stream; passes only if every test passes."""
    t = thresholds if thresholds is not None else Thresholds.default()
    sample = _as_sample(stream)
    nibbles = format(int(sample, 2), f"0{SAMPLE_BITS // 4}x")  # one hex digit a nibble, first bit high
    square_sum = sum(nibbles.count(digit) ** 2 for digit in "0123456789abcdef")
    poker_statistic = 16.0 * square_sum / (SAMPLE_BITS // 4) - (SAMPLE_BITS // 4)
    # maximal runs of zeros, then of ones: length -> count (length 0 tallies empty split pieces)
    run_counts = [Counter(map(len, sample.split(other))) for other in (b"1", b"0")]
    run_statistics: dict[str, float] = {}
    run_bounds = {f"runs.length{i}.{side}": t[f"runs.length{i}.{side}"]
                  for i in RUN_LENGTHS for side in ("min", "max")}
    runs_passed = True
    for bit, counts in enumerate(run_counts):
        for length in RUN_LENGTHS:
            count = sum(n for run, n in counts.items() if min(run, RUN_LENGTHS[-1]) == length)
            run_statistics[f"bit{bit}.length{length}"] = count
            if not run_bounds[f"runs.length{length}.min"] <= count <= run_bounds[f"runs.length{length}.max"]:
                runs_passed = False
    longest, limit = max(max(counts) for counts in run_counts), t["long_run.limit"]
    return TestReport((
        _strictly_inside("monobit", "ones", sample.count(b"1"), t),
        _strictly_inside("poker", "statistic", poker_statistic, t),
        TestResult("runs", runs_passed, run_statistics, run_bounds),
        TestResult("long_run", longest < limit, {"longest": longest}, {"long_run.limit": limit}),
    ))
