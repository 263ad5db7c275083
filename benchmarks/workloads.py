"""The benchmark's workloads: CLI operations made from a seed, and their output checks.

Each workload is one list of operations, run in order as one round.  An
operation is one ``castream`` invocation; the files it reads were written
here or by an earlier operation of the same round.  Every expected output
is computed by ``oracle`` (which shares no code with castream) before any
operation is timed.

Every run reports every end-to-end metric, so a round also carries four
blocks of *companions*, spread through its main operations: one small
invocation of each subcommand family the main operations do not use, and
two ``--help`` processes that time set-up.  Process start dominates the
companions; the main operations carry the work the workload is named for.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

STREAM_WIDTH = 64
STREAM_BITS = 200_000
STREAM_GENERATORS = (  # (rules, radius, stream format)
    ((30,), 1, "ascii"),
    ((30, 86, 101), 1, "ascii"),
    ((869020563,), 2, "raw"),
)
DIAGRAM_WIDTH = 4096
DIAGRAM_STEPS = 1000
DIAGRAM_RULES = ((30,), (90, 105, 150, 165))
SCAN_ORDERS = (1, 7)
SPECTRA = ((30, 1, 10), (869020563, 2, 5))  # (rule, radius, order)
RECOVERY_WIDTHS = (32, 36, 40, 44, 48)
RECOVERY_INSTANCES = 40
RECOVERY_MAX_TRIALS = 1000
SAMPLE_MASKS = 32

COMPANION_BLOCKS = 4  # per round
SETUP_PER_BLOCK = 2
COMPANION_STREAM_BITS = 20_000
COMPANION_EVOLVE = (256, 255)  # width, steps
COMPANION_SCAN_ORDERS = (1, 3)
COMPANION_SPECTRUM = (30, 1, 5)
COMPANION_ATTACK = "00100"  # the worked 5-cell instance: key 01011 under rule 30


class CheckError(Exception):
    """An output that disagrees with the oracle or with a property the method must have."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Op:
    """One CLI invocation: its metric family, its units of work and its output check."""

    family: str
    argv: list[str]
    work: int
    outputs: list[Path]
    check: Callable[[int], None]  # called with the exit status
    statuses: frozenset[int] = field(default=frozenset({0}))  # statuses that are results, not failures


def _bits(rng: random.Random, n: int) -> str:
    return "".join(str(rng.getrandbits(1)) for _ in range(n))


def _write_stream(path: Path, bits: list[int], fmt: str) -> None:
    path.write_bytes(oracle.ascii_stream(bits) if fmt == "ascii" else oracle.raw_stream(bits))


def _equal_file(path: Path, expected: bytes, what: str) -> Callable[[int], None]:
    def check(status: int) -> None:
        expect(path.is_file(), f"{what}: no output written")
        data = path.read_bytes()
        expect(len(data) == len(expected), f"{what}: {len(data)} bytes, oracle gives {len(expected)}")
        expect(data == expected, f"{what}: output differs from the oracle")

    return check


def _report(path: Path) -> dict[str, str]:
    """``name = value`` lines as the CLI writes its reports."""
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines() if " = " in line)


# --- stream: keystream, xor, fips ---------------------------------------

def _stream_ops(tag: str, rules: tuple[int, ...], radius: int, fmt: str, key: str, length: int,
                plain: list[int], work: Path, key_file_from_oracle: bool = False) -> list[Op]:
    """keystream of one generator, then encrypt, decrypt and the battery on it.

    With ``key_file_from_oracle`` the XOR operations read a key file written
    here from the oracle's keystream, so that a companion chain can exercise
    the raw format although its keystream is ASCII.
    """
    keystream = oracle.Ring(list(rules), len(key), radius).tap(key, 0, length)
    rule_flags = ["--rule", str(rules[0])] if len(rules) == 1 else ["--rules", ",".join(map(str, rules))]
    ks_fmt, xor_fmt = ("ascii", "raw") if key_file_from_oracle else (fmt, fmt)
    ext = {"ascii": "txt", "raw": "bin"}
    ks_path = work / f"{tag}-keystream.{ext[ks_fmt]}"
    key_path = work / f"{tag}-key.bin" if key_file_from_oracle else ks_path
    plain_path, cipher_path, round_path = (work / f"{tag}-{n}.{ext[xor_fmt]}" for n in ("plain", "cipher", "round"))
    fips_path = work / f"{tag}-fips.txt"
    _write_stream(plain_path, plain, xor_fmt)
    if key_file_from_oracle:
        _write_stream(key_path, keystream, xor_fmt)
    raw_ks = ["--bits", str(length)] if ks_fmt == "raw" else []
    raw_xor = ["--stream-format", "raw", "--bits", str(length)] if xor_fmt == "raw" else []
    cipher = [p ^ k for p, k in zip(plain, keystream)]
    encode = oracle.ascii_stream if xor_fmt == "ascii" else oracle.raw_stream
    ks_encode = oracle.ascii_stream if ks_fmt == "ascii" else oracle.raw_stream

    def fips_check(status: int) -> None:
        expect(fips_path.is_file(), f"{tag} fips: no report written")
        report = _report(fips_path)
        stats = oracle.fips_statistics(keystream)
        verdicts = oracle.fips_verdicts(stats)
        expect(report.get("input.bits") == str(length), f"{tag} fips: input.bits {report.get('input.bits')}")
        expect(report.get("tested.bits") == str(oracle.FIPS_SAMPLE_BITS), f"{tag} fips: tested.bits")
        for name, value in stats.items():
            got = report.get(name)
            expect(got is not None, f"{tag} fips: {name} missing")
            expect(abs(float(got) - value) <= 1e-5 * max(1.0, abs(value)), f"{tag} fips: {name} = {got}, oracle {value}")
        for name, passed in verdicts.items():
            expect(report.get(f"{name}.pass") == str(passed).lower(), f"{tag} fips: {name}.pass disagrees")
        expect(status == (0 if verdicts["overall"] else 5), f"{tag} fips: exit status {status}")

    return [
        Op("keystream",
           ["keystream", *rule_flags, "--radius", str(radius), "--key", key, "--length", str(length),
            "--stream-format", ks_fmt, "--out", str(ks_path)],
           length, [ks_path], _equal_file(ks_path, ks_encode(keystream), f"{tag} keystream")),
        Op("xor",
           ["encrypt", "--in", str(plain_path), "--key", str(key_path), *raw_xor, "--out", str(cipher_path)],
           length, [cipher_path], _equal_file(cipher_path, encode(cipher), f"{tag} encrypt")),
        Op("xor",
           ["decrypt", "--in", str(cipher_path), "--key", str(key_path), *raw_xor, "--out", str(round_path)],
           length, [round_path], _equal_file(round_path, encode(plain), f"{tag} decrypt")),
        Op("fips",
           ["fips", "--in", str(ks_path), "--stream-format", ks_fmt, *raw_ks, "--out", str(fips_path)],
           length, [fips_path], fips_check, frozenset({0, 5})),
    ]


# --- diagram: evolve ------------------------------------------------------

def _evolve_op(tag: str, rules: tuple[int, ...], init: str, steps: int, fmt: str, work: Path) -> Op:
    rows = oracle.Ring(list(rules), len(init)).rows(init, steps)
    path = work / f"{tag}.{fmt}"
    rule_flags = ["--rule", str(rules[0])] if len(rules) == 1 else ["--rules", ",".join(map(str, rules))]
    expected = oracle.diagram_pbm(rows) if fmt == "pbm" else oracle.diagram_text(rows)
    return Op("evolve",
              ["evolve", *rule_flags, "--init", init, "--steps", str(steps), "--format", fmt, "--out", str(path)],
              len(init) * (steps + 1), [path], _equal_file(path, expected, f"{tag} evolve"))


# --- spectra: scan, spectrum ---------------------------------------------

def _scan_op(tag: str, orders: tuple[int, int], work: Path) -> Op:
    lo, hi = orders
    path = work / f"{tag}.csv"
    order_list = range(lo, hi + 1)

    def check(status: int) -> None:
        expect(path.is_file(), f"{tag} scan: no output written")
        lines = path.read_text().splitlines()
        header = ["rule", *(f"{k}{o}" for o in order_list for k in ("cfg", "val")), "conj", "refl", "cr"]
        expect(lines[0].split(",") == header, f"{tag} scan: header {lines[0]!r}")
        expect(len(lines) == 257, f"{tag} scan: {len(lines) - 1} rows, expected 256")
        balanced = set(oracle.balanced_elementary_rules())
        scored = 0
        for number, line in enumerate(lines[1:]):
            fields = line.split(",")
            expect(len(fields) == len(header) and fields[0] == str(number), f"{tag} scan: row {number} malformed")
            c, r = oracle.conjugate(number), oracle.reflect(number)
            expect(fields[-3:] == [str(c), str(r), str(oracle.conjugate(r))],
                   f"{tag} scan: equivalence columns of rule {number}")
            scores = fields[1:-3]
            if number in balanced:
                scored += 1
                want = [str(v) for o in order_list for v in oracle.IteratedRule(number, o).score()]
                expect(scores == want, f"{tag} scan: scores of rule {number} are {scores}, oracle {want}")
            else:
                expect(all(s == "" for s in scores), f"{tag} scan: unbalanced rule {number} is scored")
        expect(scored == 70, f"{tag} scan: {scored} scored rows, expected 70")

    return Op("scan", ["scan", "--orders", f"{lo}..{hi}", "--out", str(path)],
              256 * len(order_list), [path], check)


def _spectrum_op(tag: str, rule: int, radius: int, order: int, masks: list[int], work: Path) -> Op:
    path = work / f"{tag}.csv"
    f = oracle.IteratedRule(rule, order, radius)
    expected = {omega: f.walsh(omega) for omega in masks}

    def check(status: int) -> None:
        expect(path.is_file(), f"{tag} spectrum: no output written")
        lines = path.read_bytes().split(b"\n")
        expect(lines[0] == b"omega,value" and lines[-1] == b"", f"{tag} spectrum: header or final newline")
        rows = lines[1:-1]
        expect(len(rows) == 1 << f.n, f"{tag} spectrum: {len(rows)} rows, expected {1 << f.n}")
        values = []
        for omega, row in enumerate(rows):
            index, _, value = row.partition(b",")
            expect(int(index) == omega, f"{tag} spectrum: row {omega} has omega {index!r}")
            values.append(int(value))
        expect(values[0] == f.weight, f"{tag} spectrum: W(0) = {values[0]}, |F| = {f.weight}")
        expect(sum(v * v for v in values) == (1 << f.n) * values[0], f"{tag} spectrum: Parseval fails")
        for omega, want in expected.items():
            expect(values[omega] == want, f"{tag} spectrum: W({omega}) = {values[omega]}, defining sum {want}")

    return Op("spectrum",
              ["spectrum", "--rule", str(rule), "--radius", str(radius), "--order", str(order), "--out", str(path)],
              1 << f.n, [path], check)


def _spectrum_masks(rng: random.Random, n: int) -> list[int]:
    return [0, (1 << n) - 1, *(1 << k for k in range(n)), *(rng.randrange(1 << n) for _ in range(SAMPLE_MASKS))]


# --- recovery: attack -----------------------------------------------------

def _attack_op(tag: str, observed: str, max_trials: int | None, work: Path) -> Op:
    out, transcript = work / f"{tag}.txt", work / f"{tag}-transcript.txt"
    n = len(observed)
    ring = oracle.Ring([30], n)
    target = [int(c) for c in observed]
    budget = ["--max-trials", str(max_trials)] if max_trials else []

    def reproduces(key: str) -> bool:
        return len(key) == n and ring.tap(key, 0, n) == target

    def check(status: int) -> None:
        expect(transcript.is_file(), f"{tag} attack: no transcript")
        trials = [line.split() for line in transcript.read_text().splitlines()]
        expect(all(len(t) == 8 and t[0] == "trial" and t[6] == "match" for t in trials),
               f"{tag} attack: malformed transcript line")
        expect([int(t[1]) for t in trials] == list(range(len(trials))), f"{tag} attack: trials out of order")
        misses = [t[5] for t in trials if t[7] == "0"]
        sample = misses[:: max(1, len(misses) // 8)][:8]
        expect(not any(reproduces(key) for key in sample), f"{tag} attack: a rejected key reproduces the observation")
        if status == 4:  # the budget ran out: a result, checked like any other
            expect(len(trials) == max_trials and not any(t[7] == "1" for t in trials),
                   f"{tag} attack: exhausted after {len(trials)} trials of {max_trials}")
            return
        report = _report(out)
        expect(report.get("trials_used") == str(len(trials)), f"{tag} attack: trials_used vs transcript")
        expect([t[7] for t in trials] == ["0"] * (len(trials) - 1) + ["1"], f"{tag} attack: match flags")
        key = report.get("key", "")
        expect(trials[-1][5] == key, f"{tag} attack: printed key is not the matching trial's key")
        expect(reproduces(key), f"{tag} attack: key {key} does not reproduce the observation")
        expect(report.get("matched_length") == str(n), f"{tag} attack: matched_length")

    return Op("attack", ["attack", "--rule", "30", "--sequence", observed, *budget,
                         "--transcript", str(transcript), "--out", str(out)],
              1, [out, transcript], check, frozenset({0, 4}) if max_trials else frozenset({0}))


# --- workloads ------------------------------------------------------------

def _setup_op() -> Op:
    """A CLI process that only imports the package and exits."""
    return Op("setup", ["--help"], 1, [], lambda status: None)


def _companions(families: set[str], rng: random.Random, work: Path, tag: str) -> list[Op]:
    """One small invocation of each family the main operations leave out, and set-up probes."""
    ops: list[Op] = [_setup_op() for _ in range(SETUP_PER_BLOCK)]
    if "keystream" not in families:
        ops += _stream_ops(f"{tag}-stream", (30,), 1, "ascii", _bits(rng, STREAM_WIDTH), COMPANION_STREAM_BITS,
                           [rng.getrandbits(1) for _ in range(COMPANION_STREAM_BITS)], work,
                           key_file_from_oracle=True)
    if "evolve" not in families:
        width, steps = COMPANION_EVOLVE
        ops.append(_evolve_op(f"{tag}-evolve", (30,), _bits(rng, width), steps, "text", work))
    if "scan" not in families:
        ops.append(_scan_op(f"{tag}-scan", COMPANION_SCAN_ORDERS, work))
    if "spectrum" not in families:
        rule, radius, order = COMPANION_SPECTRUM
        ops.append(_spectrum_op(f"{tag}-spectrum", rule, radius, order,
                                _spectrum_masks(rng, 2 * radius * order + 1), work))
    if "attack" not in families:
        ops.append(_attack_op(f"{tag}-attack", COMPANION_ATTACK, None, work))
    return ops


def _stream(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for i, (rules, radius, fmt) in enumerate(STREAM_GENERATORS):
        key = _bits(rng, STREAM_WIDTH)
        plain = [rng.getrandbits(1) for _ in range(STREAM_BITS)]
        ops += _stream_ops(f"stream{i}", rules, radius, fmt, key, STREAM_BITS, plain, work)
    return ops


def _diagram(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for i, rules in enumerate(DIAGRAM_RULES):
        init = _bits(rng, DIAGRAM_WIDTH)
        for fmt in ("pbm", "text"):
            ops.append(_evolve_op(f"diagram{i}", rules, init, DIAGRAM_STEPS, fmt, work))
    return ops


def _spectra(rng: random.Random, work: Path) -> list[Op]:
    ops = [_scan_op("scan", SCAN_ORDERS, work)]
    for rule, radius, order in SPECTRA:
        masks = _spectrum_masks(rng, 2 * radius * order + 1)
        ops.append(_spectrum_op(f"spectrum-{rule}", rule, radius, order, masks, work))
    return ops


def _recovery(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for i in range(RECOVERY_INSTANCES):
        n = RECOVERY_WIDTHS[i % len(RECOVERY_WIDTHS)]
        observed = oracle.Ring([30], n).tap(_bits(rng, n), 0, n)
        ops.append(_attack_op(f"attack{i}", "".join(map(str, observed)), RECOVERY_MAX_TRIALS, work))
    return ops


WORKLOADS = {"stream": _stream, "diagram": _diagram, "spectra": _spectra, "recovery": _recovery}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """One round of a workload; the same seed gives the same inputs.

    The companion blocks are spread evenly through the main operations, so
    that each companion metric samples the whole round, not one moment of it.
    """
    rng = random.Random(f"castream-bench:{workload}:{seed}")
    main = WORKLOADS[workload](rng, work)
    families = {op.family for op in main}
    companion_seed = rng.random()
    ops: list[Op] = []
    for block in range(COMPANION_BLOCKS):
        ops += main[len(main) * block // COMPANION_BLOCKS : len(main) * (block + 1) // COMPANION_BLOCKS]
        # every block gets the same inputs and its own output files
        ops += _companions(families, random.Random(companion_seed), work, f"c{block}")
    return ops
