"""Command-line workbench for cellular-automaton keystream generators.

Subcommands cover ring evolution, keystream generation, the XOR cipher,
Walsh-spectrum reports, rule classification, known-plaintext key recovery,
and the statistical battery.  This module only parses flags and wires the
layers, which read, make and write the data.  Runs are reproducible from the
command line alone: no environment variables are consulted, and every
stochastic operation takes an explicit seed (or prints the default it used).

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 key recovery
exhausted its trial budget, 5 statistical battery failed.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

# the layers are imported by the commands that run them, so --help loads none
if TYPE_CHECKING:
    from .engine import Configuration, RuleLike

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_EXHAUSTED = 4
EXIT_TEST_FAILED = 5

DEFAULT_MAX_WIDTH = 1 << 20  # memory cap for ring widths; raise with --max-width


def _rule_numbers(text: str, flag: str) -> list[int]:
    try:
        return [int(n) for n in text.split(",") if n]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of rule numbers, got {text!r}") from None


def _build_rule(args: argparse.Namespace) -> RuleLike:
    from .engine import Rule, RuleAssignment
    if args.rules:
        numbers = _rule_numbers(args.rules, "--rules")
        if not numbers:
            raise ValueError("--rules must list at least one rule number")
        rules = [Rule.from_number(n, args.radius) for n in numbers]
        return RuleAssignment.cycle(rules, args.width)
    if args.rule is None:
        raise ValueError("one of --rule or --rules is required")
    return Rule.from_number(args.rule, args.radius)


def _ring(args: argparse.Namespace, text: str, flag: str, named: tuple[str, ...]) -> Configuration:
    """The ring given by ``--init`` or ``--key``: literal bits, or a named state of ``--width`` cells.

    Sets ``args.width`` to the ring's width, and checks it against the cap
    before a named ring is allocated.
    """
    from .engine import Configuration
    if text not in named:
        literal = Configuration.from_bits(text)
        if args.width is not None and args.width != literal.width:
            raise ValueError(f"--width {args.width} does not match {flag} of length {literal.width}")
        args.width = literal.width
    elif text == "random" and args.seed is None:
        raise ValueError(f"{flag} random requires --seed")
    elif args.width is None:
        raise ValueError("--width is required unless the initial state is a literal bit string")
    if args.width > args.max_width:
        raise ValueError(f"ring width {args.width} exceeds the cap of {args.max_width}; raise it with --max-width")
    if text not in named:
        return literal
    if text == "random":
        import random
        return Configuration.random(args.width, random.Random(args.seed))
    return Configuration.single(args.width) if text == "single" else Configuration.zeros(args.width)


def _int_at_least(low: int, kind: str) -> Callable[[str], int]:
    """An argparse type for integers >= ``low``; a failure names the flag (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_seed = _int_at_least(0, "non-negative")


def _emit(data: str | Iterable[bytes], out: str | None) -> None:
    """Write text, or each bytes chunk of an iterable as it comes, to stdout or the file ``out``."""
    sys.stdout.flush()  # text already written to stdout comes first
    with open(out, "wb") if out is not None else nullcontext(sys.stdout.buffer) as handle:
        handle.writelines((data.encode(),) if isinstance(data, str) else data)


def cmd_evolve(args: argparse.Namespace) -> int:
    from . import bitio
    from .engine import _states
    config = _ring(args, args.init, "--init", ("single", "zero", "random"))
    states = _states(config, _build_rule(args), args.steps)  # rendered and written as they are made
    _emit(bitio._diagram(states, config.width, args.steps + 1, args.format), args.out)
    return EXIT_OK


def cmd_keystream(args: argparse.Namespace) -> int:
    from . import bitio
    from .engine import _taps
    key = _ring(args, args.key, "--key", ("zero", "random"))
    chunks = _taps(key, _build_rule(args), args.cell, args.length, args.burn_in)  # a usage error opens no --out
    _emit(bitio._encoded(chunks, args.stream_format), args.out)
    return EXIT_OK


def _cmd_xor(args: argparse.Namespace) -> int:
    from . import bitio
    message, _ = bitio._read_stream(args.infile, args.stream_format, args.bits)
    key_bits = args.bits if args.key_bits is None else args.key_bits  # --key-bits 0 is no key, not absent
    key, _ = bitio._read_stream(args.key, args.stream_format, key_bits)
    if len(key) != len(message):
        if not args.allow_key_reuse:
            raise ValueError(
                f"key has {len(key)} bits but message has {len(message)}; "
                "pass --allow-key-reuse to cycle or truncate the key material"
            )
        if not key:
            raise ValueError("key stream is empty")
        key = (key * (len(message) // len(key) + 1))[: len(message)]
    # XOR is its own inverse, so encrypt and decrypt are one operation; as the bytes hold 0 or 1,
    # the XOR of the two big-endian ints is the XOR of every bit
    result = int.from_bytes(message, "big") ^ int.from_bytes(key, "big")
    _emit(bitio._encoded((result.to_bytes(len(message), "big"),), args.stream_format), args.out)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .engine import Rule
    from .spectrum import _spectrum_rows, iterate_rule, walsh_transform
    rule = Rule.from_number(args.rule, args.radius)
    values = walsh_transform(iterate_rule(rule, args.order)).array  # a usage error opens no --out
    _emit(chain([b"omega,value\n"], _spectrum_rows(0, values)), args.out)
    return EXIT_OK


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise ValueError(f"--orders must be lo..hi or a comma-separated list, got {text!r}") from None


def cmd_scan(args: argparse.Namespace) -> int:
    from .spectrum import _selected_rules, scan_report_csv, scan_rules
    orders = _parse_orders(args.orders)
    only = _rule_numbers(args.only, "--only") if args.only else None
    _selected_rules(only)  # a bad --only is a usage error before the scan, not after it
    report = scan_rules(orders)
    _emit(scan_report_csv(report, only=only), args.out)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    from .algebra import affine_decomposition, conjugate, conjugate_reflect, equivalence_class, reflect
    from .engine import Rule
    from .spectrum import correlation_immunity_order, is_balanced, iterate_rule
    rule = Rule.from_number(args.rule)
    f = iterate_rule(rule, 1)
    lines = [
        f"rule = {rule.number}",
        f"class = {','.join(str(m) for m in sorted(equivalence_class(rule)))}",
        f"conjugate = {conjugate(rule).number}",
        f"reflected = {reflect(rule).number}",
        f"conjugate_reflected = {conjugate_reflect(rule).number}",
        f"balanced = {str(is_balanced(f)).lower()}",
        f"affine = {str(affine_decomposition(rule).is_affine).lower()}",
        f"correlation_immunity = {correlation_immunity_order(f)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    from . import bitio
    from .attack import TrialsExhaustedError, _checked_observation, attack
    from .engine import Rule
    observed = bitio.parse_bits(args.sequence)
    if args.width is not None and args.width != len(observed):
        raise ValueError(f"--width {args.width} does not match sequence of length {len(observed)}")
    rule = Rule.from_number(args.rule)
    max_trials = args.max_trials
    if max_trials is None:
        # 64 * 2^(N-1), written so that N = 0 is left for attack() to reject
        max_trials = 32 << len(observed)
    _checked_observation(rule, observed, max_trials, "max_trials")  # a usage error writes no transcript
    # each trial's line is written as the trial ends, so memory is flat in the trial budget
    path = args.transcript
    with open(path, "w", encoding="ascii", newline="") if path else nullcontext() as transcript:

        def trace(trial: int, guess: tuple[int, ...], key: Configuration, matched: bool) -> None:
            transcript.write(f"trial {trial} guess {bitio.format_bits(guess)[:-1]} key {key} match {int(matched)}\n")

        try:
            result = attack(rule, observed, max_trials=max_trials, seed=args.seed, trace=trace if path else None)
        except TrialsExhaustedError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_EXHAUSTED
    lines = [
        f"seed = {args.seed}",
        f"max_trials = {max_trials}",
        f"trials_used = {result.trials_used}",
        f"key = {result.recovered_key}",
        f"matched_length = {result.matched_length}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_fips(args: argparse.Namespace) -> int:
    from .bitio import _read_stream
    from .fips import SAMPLE_BITS, Thresholds, fips_battery
    thresholds = Thresholds.from_file(args.thresholds) if args.thresholds else Thresholds.default()
    sample, count = _read_stream(args.infile, args.stream_format, args.bits, SAMPLE_BITS)
    if count < SAMPLE_BITS:
        raise ValueError(f"need at least {SAMPLE_BITS} bits, got {count}")
    report = fips_battery(sample, thresholds)
    text = f"input.bits = {count}\ntested.bits = {SAMPLE_BITS}\n" + report.to_text()
    _emit(text, args.out)
    return EXIT_OK if report.passed else EXIT_TEST_FAILED


def _add_rule_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rule", type=int, help="rule number")
    parser.add_argument("--radius", type=int, default=1, choices=(1, 2), help="neighborhood radius")
    parser.add_argument(
        "--rules",
        help="comma-separated per-cell rule numbers; the pattern is tiled around the ring",
    )


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``: every command with its help line, which is all that ``--help`` and
    a bad command name print, and the arguments of the command that ``argv`` names only.

    That command is the first token that is no option: argparse takes it as the command, as no
    option of the top level takes a value.
    """
    parser = argparse.ArgumentParser(
        prog="castream",
        description="Cellular-automaton keystream workbench: simulate, analyze, attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if not arg.startswith("-")), None)

    def command(name: str, help: str) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help)
        return p if name == named else None

    if p := command("evolve", help="render a space-time diagram"):
        _add_rule_flags(p)
        p.add_argument("--width", type=int, help="ring width")
        p.add_argument("--steps", type=int, required=True, help="number of time steps")
        p.add_argument("--init", required=True, help="single | zero | random | literal bits")
        p.add_argument("--seed", type=_seed, help="seed for --init random")
        p.add_argument("--format", choices=("text", "pbm"), default="text")
        p.add_argument("--max-width", type=_positive_int, default=DEFAULT_MAX_WIDTH, help="ring width cap")
        p.set_defaults(func=cmd_evolve)

    if p := command("keystream", help="emit the tap-cell sequence of a keyed ring"):
        _add_rule_flags(p)
        p.add_argument("--width", type=int, help="ring width")
        p.add_argument("--key", required=True, help="literal bits | random | zero")
        p.add_argument("--seed", type=_seed, help="seed for --key random")
        p.add_argument("--cell", type=int, default=0, help="tap cell index")
        p.add_argument("--length", type=int, required=True, help="number of keystream bits")
        p.add_argument("--burn-in", type=int, default=0, help="steps discarded before output")
        p.add_argument("--stream-format", choices=("ascii", "raw"), default="ascii")
        p.add_argument("--max-width", type=_positive_int, default=DEFAULT_MAX_WIDTH, help="ring width cap")
        p.set_defaults(func=cmd_keystream)

    for mode in ("encrypt", "decrypt"):
        if p := command(mode, help=f"{mode} a bitstream with a keystream file (XOR)"):
            p.add_argument("--in", dest="infile", required=True, help="input bitstream file")
            p.add_argument("--key", required=True, help="keystream file")
            p.add_argument("--stream-format", choices=("ascii", "raw"), default="ascii")
            p.add_argument("--bits", type=int, help="bit count of the input (raw format)")
            p.add_argument("--key-bits", type=int, help="bit count of the key file (raw format)")
            p.add_argument(
                "--allow-key-reuse",
                action="store_true",
                help="cycle or truncate key material instead of requiring an exact-length keystream",
            )
            p.set_defaults(func=_cmd_xor, mode=mode)

    if p := command("spectrum", help="Walsh spectrum of an iterated rule"):
        p.add_argument("--rule", type=int, required=True)
        p.add_argument("--radius", type=int, default=1, choices=(1, 2))
        p.add_argument("--order", type=int, default=1, help="iteration count")
        p.set_defaults(func=cmd_spectrum)

    if p := command("scan", help="scan all 256 rules: scores and equivalences (CSV)"):
        p.add_argument("--orders", default="1..5", help="iteration orders, e.g. 1..5 or 1,3")
        p.add_argument("--only", help="comma-separated rule numbers to report")
        p.set_defaults(func=cmd_scan)

    if p := command("classify", help="equivalence class, affinity, and immunity of a rule"):
        p.add_argument("--rule", type=int, required=True)
        p.set_defaults(func=cmd_classify)

    if p := command("attack", help="recover a key from an observed tap sequence"):
        p.add_argument("--rule", type=int, default=30)
        p.add_argument("--width", type=int, help="ring width (defaults to the sequence length)")
        p.add_argument("--sequence", required=True, help="observed tap-cell bits, oldest first")
        p.add_argument("--max-trials", type=int, help="trial budget (default 64 * 2^(N-1))")
        p.add_argument("--seed", type=_seed, default=0, help="guess-stream seed")
        p.add_argument("--transcript", help="write per-trial audit lines to this path")
        p.set_defaults(func=cmd_attack)

    if p := command("fips", help="run the statistical battery on a bitstream file"):
        p.add_argument("--in", dest="infile", required=True, help="input bitstream file")
        p.add_argument("--stream-format", choices=("ascii", "raw"), default="ascii")
        p.add_argument("--bits", type=int, help="bit count of the input (raw format)")
        p.add_argument("--thresholds", help="threshold config file (default: packaged values)")
        p.set_defaults(func=cmd_fips)

    if named in sub.choices:  # every command writes to --out, after its other arguments
        sub.choices[named].add_argument("--out", help="output path (default stdout)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
