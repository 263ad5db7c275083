"""Statistical battery: degenerate streams, closed-form cases, threshold plumbing."""
import random
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from castream import fips
from castream.cipher import KeystreamSpec, keystream
from castream.cli import EXIT_USAGE, main
from castream.engine import Configuration, rule_from_number
from castream.fips import (
    RUN_LENGTHS,
    SAMPLE_BITS,
    Thresholds,
    fips_battery,
    long_run,
    monobit,
    poker,
    runs,
)
from castream.fips import TestReport as Report  # aliased: pytest would try to collect Test* names
from castream.fips import TestResult as Result

ZEROS = (0,) * SAMPLE_BITS
ALTERNATING = (0, 1) * (SAMPLE_BITS // 2)
NIBBLE_BLOCKS = (0, 0, 0, 0, 1, 1, 1, 1) * (SAMPLE_BITS // 8)


def test_monobit_all_zero_fails():
    result = monobit(ZEROS)
    assert not result.passed
    assert result.statistics["ones"] == 0


def test_monobit_alternating_passes_at_midpoint():
    result = monobit(ALTERNATING)
    assert result.passed
    assert result.statistics["ones"] == SAMPLE_BITS // 2


def test_monobit_boundaries_are_strict():
    t = Thresholds.default()
    low = int(t["monobit.min"])
    threshold_stream = (1,) * low + (0,) * (SAMPLE_BITS - low)
    assert not monobit(threshold_stream).passed
    just_inside = (1,) * (low + 1) + (0,) * (SAMPLE_BITS - low - 1)
    assert monobit(just_inside).statistics["ones"] == low + 1
    assert monobit(just_inside).passed


def test_poker_closed_form_on_two_nibble_stream():
    # nibbles alternate 0000 and 1111, 2500 each:
    # X = (16/5000) * (2500^2 + 2500^2) - 5000 = 35000
    result = poker(NIBBLE_BLOCKS)
    assert result.statistics["statistic"] == 35000.0
    assert not result.passed


def test_poker_near_uniform_nibbles_by_closed_form():
    # cycle all 16 nibble values; 5000 nibbles = 312 full cycles plus values 0..7,
    # so counts are 313 for 0..7 and 312 for 8..15
    cycle = []
    for value in range(16):
        cycle += [(value >> 3) & 1, (value >> 2) & 1, (value >> 1) & 1, value & 1]
    stream = tuple((cycle * 313)[:SAMPLE_BITS])
    result = poker(stream)
    expected = 16 / 5000 * (8 * 313**2 + 8 * 312**2) - 5000
    assert result.statistics["statistic"] == pytest.approx(expected)
    # an implausibly flat histogram fails the lower bound
    assert not result.passed


def test_runs_alternating_fails_length_1_interval():
    result = runs(ALTERNATING)
    assert not result.passed
    assert result.statistics["bit0.length1"] == SAMPLE_BITS // 2
    assert result.statistics["bit1.length1"] == SAMPLE_BITS // 2


def test_runs_counts_match_direct_enumeration():
    rng = random.Random(4)
    stream = tuple(rng.getrandbits(1) for _ in range(SAMPLE_BITS))
    result = runs(stream)
    # direct scan
    counts = {(bit, length): 0 for bit in (0, 1) for length in range(1, 7)}
    i = 0
    while i < len(stream):
        j = i
        while j < len(stream) and stream[j] == stream[i]:
            j += 1
        counts[(stream[i], min(j - i, 6))] += 1
        i = j
    for bit in (0, 1):
        for length in range(1, 7):
            assert result.statistics[f"bit{bit}.length{length}"] == counts[(bit, length)]


def test_long_run_all_zero_fails():
    result = long_run(ZEROS)
    assert not result.passed
    assert result.statistics["longest"] == SAMPLE_BITS


def test_long_run_boundary():
    limit = int(Thresholds.default()["long_run.limit"])
    base = list(ALTERNATING)
    base[: limit - 1] = [1] * (limit - 1)
    # ensure the tampered prefix stays a single maximal run
    base[limit - 1] = 0
    assert long_run(tuple(base)).passed
    base[: limit] = [1] * limit
    base[limit] = 0
    assert not long_run(tuple(base)).passed


def test_battery_aggregates_all_four():
    report = fips_battery(ZEROS)
    assert [r.name for r in report.results] == ["monobit", "poker", "runs", "long_run"]
    assert not report.passed


def test_battery_passes_rule_30_keystreams():
    rule = rule_from_number(30)
    passes = 0
    for seed in range(10):
        key = Configuration.random(64, random.Random(seed))
        stream = keystream(key, KeystreamSpec(rule, width=64, tap=0), SAMPLE_BITS)
        passes += fips_battery(stream).passed
    assert passes >= 9


def test_tests_reject_wrong_length():
    for test in (monobit, poker, runs, long_run, fips_battery):
        with pytest.raises(ValueError):
            test((0, 1) * 100)


def test_report_text_round_trips_thresholds():
    report = fips_battery(ALTERNATING)
    text = report.to_text()
    assert "monobit.pass = true" in text
    assert "runs.pass = false" in text
    assert "overall.pass = false" in text
    assert "monobit.min = 9725" in text


def test_thresholds_parse_and_reject_missing_keys():
    t = Thresholds.parse("monobit.min = 1\n" + "\n".join(
        f"{key} = 2" for key in Thresholds.REQUIRED if key != "monobit.min"
    ))
    assert t["monobit.min"] == 1
    with pytest.raises(ValueError):
        Thresholds.parse("monobit.min = 9725")
    with pytest.raises(ValueError):
        Thresholds.parse("not a config line")


def test_custom_thresholds_are_used_and_reported():
    values = {key: float(v) for key, v in Thresholds.default().values.items()}
    values["monobit.min"] = -1.0
    values["monobit.max"] = 30000.0
    custom = Thresholds(values)
    result = monobit(ZEROS, custom)
    assert result.passed
    assert result.thresholds["monobit.min"] == -1.0


DEFAULT_CONF = resources.files("castream").joinpath("fips_thresholds.conf").read_text("utf-8")
MONOBIT_MIN_LINE = DEFAULT_CONF.splitlines().index("monobit.min = 9725") + 1


def test_the_default_thresholds_are_the_file_beside_the_module():
    path = Path(fips.__file__).with_name("fips_thresholds.conf")
    assert Thresholds.default() == Thresholds.from_file(str(path))
    assert Thresholds.default().values == Thresholds.parse(DEFAULT_CONF).values


def test_the_packaged_thresholds_parse_to_the_standard_values():
    assert Thresholds.default().values == {
        "monobit.min": 9725, "monobit.max": 10275, "poker.min": 2.16, "poker.max": 46.17,
        "runs.length1.min": 2315, "runs.length1.max": 2685, "runs.length2.min": 1114, "runs.length2.max": 1386,
        "runs.length3.min": 527, "runs.length3.max": 723, "runs.length4.min": 240, "runs.length4.max": 384,
        "runs.length5.min": 103, "runs.length5.max": 209, "runs.length6.min": 103, "runs.length6.max": 209,
        "long_run.limit": 26,
    }


# (the packaged file with one change, the error it must raise, naming the line)
BAD_THRESHOLDS = {
    "repeated key": (DEFAULT_CONF + "poker.max = 3\n",
                     f"line {len(DEFAULT_CONF.splitlines()) + 1}: poker.max is given twice"),
    "unknown key": (DEFAULT_CONF + "poker.maxx = 3\n",
                    f"line {len(DEFAULT_CONF.splitlines()) + 1}: unknown key 'poker.maxx'"),
    "nan": (DEFAULT_CONF.replace("monobit.min = 9725", "monobit.min = nan"),
            f"line {MONOBIT_MIN_LINE}: monobit.min must be a number or +-inf, got 'nan'"),
    "not a number": (DEFAULT_CONF.replace("monobit.min = 9725", "monobit.min = abc"),
                     f"line {MONOBIT_MIN_LINE}: monobit.min must be a number or +-inf, got 'abc'"),
}


@pytest.mark.parametrize("case", sorted(BAD_THRESHOLDS))
def test_a_bad_threshold_file_is_an_error_that_names_the_line(tmp_path, capsys, case):
    text, message = BAD_THRESHOLDS[case]
    with pytest.raises(ValueError) as caught:
        Thresholds.parse(text)
    assert str(caught.value) == message
    stream, conf = tmp_path / "random.bits", tmp_path / "bad.conf"
    stream.write_text(format(random.Random(7).getrandbits(SAMPLE_BITS), f"0{SAMPLE_BITS}b") + "\n")
    conf.write_text(text)
    assert main(["fips", "--in", str(stream), "--thresholds", str(conf)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_infinite_thresholds_switch_a_bound_off():
    t = Thresholds.parse(DEFAULT_CONF.replace("monobit.min = 9725", "monobit.min = -inf")
                         .replace("monobit.max = 10275", "monobit.max = +inf"))
    assert (t["monobit.min"], t["monobit.max"]) == (float("-inf"), float("inf"))
    assert monobit(ZEROS, t).passed and monobit((1,) * SAMPLE_BITS, t).passed


# The numpy battery the package ran before its numpy-free one: an independent oracle.
def reference_as_sample(stream):
    arr = np.asarray(stream, dtype=np.uint8)
    if arr.ndim != 1 or len(arr) != SAMPLE_BITS:
        raise ValueError(f"stream must contain exactly {SAMPLE_BITS} bits, got {len(arr)}")
    if np.any(arr > 1):
        raise ValueError("stream entries must be 0 or 1")
    return arr


def reference_monobit(stream, t):
    ones = int(reference_as_sample(stream).sum())
    passed = t["monobit.min"] < ones < t["monobit.max"]
    return Result(
        "monobit",
        passed,
        {"ones": ones},
        {"monobit.min": t["monobit.min"], "monobit.max": t["monobit.max"]},
    )


def reference_poker(stream, t):
    nibbles = reference_as_sample(stream).reshape(-1, 4) @ np.array([8, 4, 2, 1], dtype=np.int64)
    counts = np.bincount(nibbles, minlength=16)
    statistic = 16.0 * float(np.sum(counts * counts)) / (SAMPLE_BITS // 4) - (SAMPLE_BITS // 4)
    passed = t["poker.min"] < statistic < t["poker.max"]
    return Result(
        "poker",
        passed,
        {"statistic": statistic},
        {"poker.min": t["poker.min"], "poker.max": t["poker.max"]},
    )


def reference_run_lengths(arr):
    boundaries = np.flatnonzero(np.diff(arr)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(arr)]))
    return arr[starts], ends - starts


def reference_runs(stream, t):
    values, lengths = reference_run_lengths(reference_as_sample(stream))
    statistics = {}
    passed = True
    for bit in (0, 1):
        clipped = np.minimum(lengths[values == bit], RUN_LENGTHS[-1])
        for length in RUN_LENGTHS:
            count = int(np.sum(clipped == length))
            statistics[f"bit{bit}.length{length}"] = count
            if not t[f"runs.length{length}.min"] <= count <= t[f"runs.length{length}.max"]:
                passed = False
    bounds = {f"runs.length{i}.{side}": t[f"runs.length{i}.{side}"] for i in RUN_LENGTHS for side in ("min", "max")}
    return Result("runs", passed, statistics, bounds)


def reference_long_run(stream, t):
    _, lengths = reference_run_lengths(reference_as_sample(stream))
    longest = int(lengths.max())
    passed = longest < t["long_run.limit"]
    return Result("long_run", passed, {"longest": longest}, {"long_run.limit": t["long_run.limit"]})


def reference_fips_battery(stream, t):
    return Report(tuple(test(stream, t) for test in REFERENCES.values()))


REFERENCES = {"monobit": reference_monobit, "poker": reference_poker, "runs": reference_runs,
              "long_run": reference_long_run}
TESTS = {"monobit": monobit, "poker": poker, "runs": runs, "long_run": long_run}

# the forms a caller may hand a stream in
AS_INPUT = {
    "tuple": tuple,
    "list": list,
    "uint8": lambda bits: np.array(bits, dtype=np.uint8),
    "int64": lambda bits: np.array(bits, dtype=np.int64),
    "bool": lambda bits: np.array(bits, dtype=bool),
}


@st.composite
def samples(draw):
    """A biased 20000-bit stream with a few runs of chosen lengths (25, 26, 6+) written over it."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    bias = draw(st.sampled_from((0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0)) | st.floats(0, 1))
    bits = [int(rng.random() < bias) for _ in range(SAMPLE_BITS)]
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.sampled_from((25, 26)) | st.integers(6, 40))
        start = draw(st.integers(0, SAMPLE_BITS - length))
        bits[start : start + length] = [draw(st.integers(0, 1))] * length
    return bits


def assert_matches_reference(bits, form):
    t = Thresholds.default()
    stream = AS_INPUT[form](bits)
    for name, test in TESTS.items():
        result, expected = test(stream, t), REFERENCES[name](stream, t)
        assert result == expected, name
        assert [type(v) for v in result.statistics.values()] == [type(v) for v in expected.statistics.values()]
    report, expected = fips_battery(stream, t), reference_fips_battery(stream, t)
    assert report == expected
    assert report.to_text().splitlines() == expected.to_text().splitlines()


@given(bits=samples(), form=st.sampled_from(sorted(AS_INPUT)))
@settings(max_examples=100, deadline=None)
@example(bits=list(NIBBLE_BLOCKS), form="uint8")
def test_battery_matches_the_numpy_reference(bits, form):
    assert_matches_reference(bits, form)


@pytest.mark.parametrize("form", sorted(AS_INPUT))
@pytest.mark.parametrize("bits", [ZEROS, (1,) * SAMPLE_BITS, ALTERNATING], ids=["zeros", "ones", "alternating"])
def test_degenerate_streams_match_the_numpy_reference(bits, form):
    assert_matches_reference(list(bits), form)


@pytest.mark.parametrize(
    "stream",
    [
        (2,) + ALTERNATING[1:],
        (-1,) + ALTERNATING[1:],
        np.array((2,) + ALTERNATING[1:], dtype=np.int64),
        np.array((-1,) + ALTERNATING[1:], dtype=np.int64),
        ALTERNATING[:-1],
        ALTERNATING + (0,),
        np.array(ALTERNATING[:-1], dtype=np.uint8),
        np.array(ALTERNATING + (0,), dtype=np.uint8),
        np.array(ALTERNATING, dtype=np.uint8).reshape(-1, 1),
        np.array(ALTERNATING, dtype=np.uint8).reshape(2, -1),
    ],
    ids=["2", "-1", "2-int64", "-1-int64", "19999", "20001", "19999-uint8", "20001-uint8",
         "2d-column", "2d-rows"],
)
def test_bad_streams_raise_value_error(stream):
    for test in (*TESTS.values(), fips_battery):
        with pytest.raises(ValueError):
            test(stream)
