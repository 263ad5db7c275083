"""Command-line surface: flags, file formats, exit codes, determinism."""
import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import castream
from castream.cli import (
    EXIT_EXHAUSTED,
    EXIT_IO,
    EXIT_OK,
    EXIT_TEST_FAILED,
    EXIT_USAGE,
    build_parser,
    main,
)
from castream.engine import RuleAssignment, rule_from_number
from test_engine import reference_step


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evolve_single_cell(capsys):
    code, out, _ = run(capsys, "evolve", "--rule", "30", "--width", "8", "--steps", "1", "--init", "single")
    assert code == EXIT_OK
    assert out.splitlines() == ["00010000", "00111000"]


def test_evolve_zero_steps(capsys):
    code, out, _ = run(capsys, "evolve", "--rule", "30", "--steps", "0", "--init", "0110")
    assert code == EXIT_OK
    assert out == "0110\n"


def test_evolve_tap_column_known_answer(capsys):
    code, out, _ = run(capsys, "evolve", "--rule", "30", "--width", "5", "--init", "01011", "--steps", "4")
    assert code == EXIT_OK
    rows = out.splitlines()
    assert [row[0] for row in rows] == ["0", "0", "1", "0", "0"]


def test_evolve_pbm_format(capsys):
    code, out, _ = run(
        capsys, "evolve", "--rule", "30", "--width", "4", "--steps", "2", "--init", "0100", "--format", "pbm"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "4 3"
    assert lines[2] == "0 1 0 0"


def test_evolve_nonuniform_rules(capsys):
    code, out, _ = run(
        capsys, "evolve", "--rules", "90,105", "--width", "4", "--steps", "1", "--init", "0000"
    )
    assert code == EXIT_OK
    assert out.splitlines()[1] == "0101"


def test_evolve_random_requires_seed(capsys):
    code, _, err = run(capsys, "evolve", "--rule", "30", "--width", "8", "--steps", "1", "--init", "random")
    assert code == EXIT_USAGE
    assert "--seed" in err


def test_evolve_width_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "evolve", "--rule", "30", "--width", "6", "--steps", "1", "--init", "01011")
    assert code == EXIT_USAGE
    assert "does not match" in err


@pytest.mark.parametrize("subcommand", ["evolve", "keystream"])
@pytest.mark.parametrize("text", ["\u0661\u0660\u0661\u0660", "\uff11\uff10\uff11\uff10"])
def test_non_ascii_digits_in_a_literal_ring_are_usage_errors(capsys, subcommand, text):
    flags = ["--init", text, "--steps", "1"] if subcommand == "evolve" else ["--key", text, "--length", "4"]
    code, out, err = run(capsys, subcommand, "--rule", "30", *flags)
    assert code == EXIT_USAGE
    assert out == ""
    assert "only 0/1" in err


def test_keystream_known_answer(capsys):
    code, out, _ = run(
        capsys, "keystream", "--rule", "30", "--width", "5", "--key", "01011", "--cell", "0", "--length", "5"
    )
    assert code == EXIT_OK
    assert out == "00100\n"


@pytest.mark.parametrize("chunk", [None, 24])
def test_keystream_is_written_chunk_by_chunk_as_the_library_makes_it(capsysbinary, monkeypatch, chunk):
    # 65549 bits after a burn-in of 70001 steps: a whole chunk, then 13 bits, so the last byte is
    # padded; chunks of 24 bits cross thousands of chunk boundaries, each on a whole byte
    from castream import bitio, engine
    from castream.cipher import KeystreamSpec, keystream
    from castream.engine import Configuration, RuleAssignment, rule_from_number

    if chunk is not None:
        monkeypatch.setattr(engine, "TAP_CHUNK", chunk)
    argv = ["keystream", "--rules", "30,86,101", "--width", "64", "--key", "random", "--seed", "5",
            "--cell", "17", "--length", "65549", "--burn-in", "70001"]
    assert main(argv) == EXIT_OK
    ascii_out = capsysbinary.readouterr().out
    assert main([*argv, "--stream-format", "raw"]) == EXIT_OK
    raw_out = capsysbinary.readouterr().out
    rule = RuleAssignment.cycle([rule_from_number(n) for n in (30, 86, 101)], 64)
    key = Configuration.random(64, random.Random(5))
    bits = keystream(key, KeystreamSpec(rule, width=64, tap=17, burn_in=70001), 65549)
    assert ascii_out == bitio.format_bits(bits).encode()
    assert raw_out == bitio.pack_bits(bits)


@given(radius=st.sampled_from((1, 2)), data=st.data(), length=st.integers(1, 300), burn_in=st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_keystream_decodes_to_the_reference_bits_and_reruns_identically(radius, data, length, burn_in):
    width = data.draw(st.integers(5, 130))
    numbers = data.draw(st.lists(st.integers(0, (1 << (1 << 2 * radius + 1)) - 1), min_size=1, max_size=4))
    key = data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    cell = data.draw(st.integers(0, width - 1))
    rules = [rule_from_number(n, radius) for n in numbers]
    rule = rules[0] if len(rules) == 1 else RuleAssignment.cycle(rules, width)
    state, column = tuple(key), []
    for _ in range(burn_in + length):
        column.append(state[cell])
        state = reference_step(state, rule)
    flags = ["--rule", str(numbers[0])] if len(rules) == 1 else ["--rules", ",".join(map(str, numbers))]
    argv = ["keystream", *flags, "--radius", str(radius), "--key", "".join(map(str, key)), "--cell", str(cell),
            "--length", str(length), "--burn-in", str(burn_in)]
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("ascii", "raw"):
            outputs = [Path(tmp, f"{fmt}-{n}") for n in (1, 2)]
            for out in outputs:
                assert main([*argv, "--stream-format", fmt, "--out", str(out)]) == EXIT_OK
            assert outputs[0].read_bytes() == stream_bytes(column[burn_in:], fmt)
            assert outputs[1].read_bytes() == outputs[0].read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--burn-in", "-1"], "burn_in must be >= 0"),
    (["--cell", "5"], "cell 5 out of range for width 5"),
    (["--length", "0"], "length must be >= 1"),
])
def test_keystream_checks_the_tap_before_it_opens_out(capsys, tmp_path, flags, message):
    out = tmp_path / "ks.txt"
    argv = ["keystream", "--rule", "30", "--key", "01011", "--length", "8", *flags, "--out", str(out)]
    code, _, err = run(capsys, *argv)
    assert (code, err) == (EXIT_USAGE, f"error: {message}\n")
    assert not out.exists()


def test_keystream_random_key_is_seed_deterministic(capsys):
    argv = ["keystream", "--rule", "30", "--width", "16", "--key", "random", "--seed", "9", "--length", "64"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == EXIT_OK


def test_encrypt_decrypt_round_trip_ascii(tmp_path, capsys):
    rng = random.Random(1)
    plain = "".join(str(rng.getrandbits(1)) for _ in range(4096))
    plain_path = tmp_path / "plain.bits"
    key_path = tmp_path / "key.bits"
    cipher_path = tmp_path / "cipher.bits"
    out_path = tmp_path / "round.bits"
    plain_path.write_text(plain + "\n")
    code, _, _ = run(
        capsys, "keystream", "--rule", "30", "--width", "64", "--key", "random", "--seed", "3",
        "--length", "4096", "--out", str(key_path),
    )
    assert code == EXIT_OK
    assert run(
        capsys, "encrypt", "--in", str(plain_path), "--key", str(key_path), "--out", str(cipher_path)
    )[0] == EXIT_OK
    assert run(
        capsys, "decrypt", "--in", str(cipher_path), "--key", str(key_path), "--out", str(out_path)
    )[0] == EXIT_OK
    assert out_path.read_text().strip() == plain
    assert cipher_path.read_text().strip() != plain


def test_encrypt_zero_key_copies_input(tmp_path, capsys):
    plain_path = tmp_path / "p.bits"
    key_path = tmp_path / "k.bits"
    plain_path.write_text("10110\n")
    key_path.write_text("00000\n")
    code, out, _ = run(capsys, "encrypt", "--in", str(plain_path), "--key", str(key_path))
    assert code == EXIT_OK
    assert out == "10110\n"


def test_encrypt_round_trip_raw(tmp_path, capsys):
    rng = random.Random(8)
    data = bytes(rng.randrange(256) for _ in range(512))
    plain_path = tmp_path / "plain.raw"
    key_path = tmp_path / "key.raw"
    cipher_path = tmp_path / "cipher.raw"
    out_path = tmp_path / "round.raw"
    plain_path.write_bytes(data)
    assert run(
        capsys, "keystream", "--rule", "30", "--width", "64", "--key", "random", "--seed", "5",
        "--length", "4096", "--stream-format", "raw", "--out", str(key_path),
    )[0] == EXIT_OK
    assert run(
        capsys, "encrypt", "--in", str(plain_path), "--key", str(key_path),
        "--stream-format", "raw", "--bits", "4096", "--out", str(cipher_path),
    )[0] == EXIT_OK
    assert run(
        capsys, "decrypt", "--in", str(cipher_path), "--key", str(key_path),
        "--stream-format", "raw", "--bits", "4096", "--out", str(out_path),
    )[0] == EXIT_OK
    assert out_path.read_bytes() == data


def test_encrypt_length_mismatch_needs_override(tmp_path, capsys):
    plain_path = tmp_path / "p.bits"
    key_path = tmp_path / "k.bits"
    plain_path.write_text("101101\n")
    key_path.write_text("01\n")
    code, _, err = run(capsys, "encrypt", "--in", str(plain_path), "--key", str(key_path))
    assert code == EXIT_USAGE
    assert "--allow-key-reuse" in err
    code, out, _ = run(
        capsys, "encrypt", "--in", str(plain_path), "--key", str(key_path), "--allow-key-reuse"
    )
    assert code == EXIT_OK
    assert out == "111000\n"


def stream_bytes(bits, fmt):
    """A stream file's bytes, written independently of castream.bitio: ASCII digits and a newline, or
    raw bytes, first bit most significant, the last byte padded with zeros."""
    if fmt == "ascii":
        return "".join(map(str, bits)).encode() + b"\n"
    padding = -len(bits) % 8
    return int("".join(map(str, bits)) + "0" * padding or "0", 2).to_bytes((len(bits) + padding) // 8, "big")


@given(message=st.lists(st.integers(0, 1), max_size=200), key=st.lists(st.integers(0, 1), max_size=200),
       fmt=st.sampled_from(["ascii", "raw"]))
@settings(max_examples=150, deadline=None)
@example(message=[1, 0, 1] * 5, key=[1, 1, 0, 1], fmt="raw")  # 15 bits, a key cycled past a byte boundary
@example(message=[1, 0] * 10, key=[0, 1] * 12, fmt="raw")  # a key cut to the message
@example(message=[], key=[1], fmt="ascii")
@example(message=[1], key=[], fmt="raw")
def test_encrypt_and_decrypt_xor_with_the_key_cycled_or_cut_only_when_allowed(message, key, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp, name) for name in ("message", "key", "cipher", "again", "round")}
        files["message"].write_bytes(stream_bytes(message, fmt))
        files["key"].write_bytes(stream_bytes(key, fmt))
        raw = ["--stream-format", "raw", "--bits", str(len(message)), "--key-bits", str(len(key))] * (fmt == "raw")

        def xor(mode, source, out, *flags):
            return main([mode, "--in", str(files[source]), "--key", str(files["key"]), *raw,
                         "--out", str(files[out]), *flags])

        reuse = []
        if len(key) != len(message):
            assert xor("encrypt", "message", "cipher") == EXIT_USAGE
            assert not files["cipher"].exists()
            reuse = ["--allow-key-reuse"]
            if message and not key:
                assert xor("encrypt", "message", "cipher", *reuse) == EXIT_USAGE
                return
        used = (key * len(message))[: len(message)]  # the key cycled or cut to the message length
        assert xor("encrypt", "message", "cipher", *reuse) == EXIT_OK
        assert files["cipher"].read_bytes() == stream_bytes([m ^ k for m, k in zip(message, used)], fmt)
        assert xor("encrypt", "message", "again", *reuse) == EXIT_OK
        assert files["again"].read_bytes() == files["cipher"].read_bytes()
        assert xor("decrypt", "cipher", "round", *reuse) == EXIT_OK
        assert files["round"].read_bytes() == files["message"].read_bytes()


@pytest.mark.parametrize("key_bytes", [b"", b"\xff"])
def test_key_bits_0_reads_no_key_bits(tmp_path, capsys, key_bytes):
    # --key-bits 0 asks for no key bits, so even a non-empty key file gives an empty key
    message, key = tmp_path / "m.bin", tmp_path / "k.bin"
    message.write_bytes(b"\xa5")
    key.write_bytes(key_bytes)
    raw = ["--stream-format", "raw", "--bits", "8", "--key-bits", "0"]
    code, out, err = run(capsys, "encrypt", "--in", str(message), "--key", str(key), *raw, "--allow-key-reuse")
    assert (code, out) == (EXIT_USAGE, "")
    assert "key stream is empty" in err
    code, _, err = run(capsys, "encrypt", "--in", str(message), "--key", str(key), *raw)
    assert code == EXIT_USAGE and "key has 0 bits but message has 8" in err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    from castream.cli import EXIT_IO

    code, _, err = run(capsys, "fips", "--in", str(tmp_path / "absent.bits"))
    assert code == EXIT_IO
    assert "error" in err


def test_spectrum_rule_0_all_zero(capsys):
    code, out, _ = run(capsys, "spectrum", "--rule", "0")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "omega,value"
    assert len(lines) == 9
    assert all(line.endswith(",0") for line in lines[1:])


def test_spectrum_rule_30(capsys):
    _, out, _ = run(capsys, "spectrum", "--rule", "30")
    assert out.splitlines()[1] == "0,4"
    assert out.splitlines()[5] == "4,2"


@pytest.mark.parametrize("only, message", [("30,30", "rules must not repeat, got 30,30"),
                                           ("300", "rule number 300 out of range 0..255")])
def test_a_bad_only_list_is_rejected_before_the_scan(capsys, monkeypatch, only, message):
    import castream.spectrum

    def no_scan(orders):
        raise AssertionError("scan_rules ran")

    monkeypatch.setattr(castream.spectrum, "scan_rules", no_scan)
    assert run(capsys, "scan", "--only", only) == (EXIT_USAGE, "", f"error: {message}\n")


def test_scan_reproduces_reference_table(capsys):
    code, out, _ = run(
        capsys, "scan", "--orders", "1..5", "--only", "30,60,86,90,102,105,135,149,150,153,165,195"
    )
    assert code == EXIT_OK
    assert out == (
        "rule,cfg1,val1,cfg2,val2,cfg3,val3,cfg4,val4,cfg5,val5,conj,refl,cr\n"
        "30,4,2,16,4,64,16,256,40,1024,80,135,86,149\n"
        "60,0,0,0,0,0,0,0,0,0,0,195,102,153\n"
        "86,1,2,1,4,1,16,1,40,1,80,149,30,135\n"
        "90,0,0,0,0,0,0,0,0,0,0,165,90,165\n"
        "102,0,0,0,0,0,0,0,0,0,0,153,60,195\n"
        "105,0,0,0,0,0,0,0,0,0,0,105,105,105\n"
        "135,4,2,16,4,64,16,256,40,1024,80,30,149,86\n"
        "149,1,2,1,4,1,16,1,40,1,80,86,135,30\n"
        "150,0,0,0,0,0,0,0,0,0,0,150,150,150\n"
        "153,0,0,0,0,0,0,0,0,0,0,102,195,60\n"
        "165,0,0,0,0,0,0,0,0,0,0,90,165,90\n"
        "195,0,0,0,0,0,0,0,0,0,0,60,153,102\n"
    )


@pytest.mark.parametrize("only", ["300", "30,256", "-1"])
def test_scan_rejects_rule_numbers_outside_0_255(capsys, only):
    code, out, err = run(capsys, "scan", "--orders", "1", "--only", only)
    assert code == EXIT_USAGE
    assert out == ""
    assert "out of range 0..255" in err


@pytest.mark.parametrize("orders", ["1,1", "3,1,3", "2,1,2"])
def test_scan_rejects_repeated_orders(capsys, orders):
    code, out, err = run(capsys, "scan", "--orders", orders)
    assert code == EXIT_USAGE
    assert out == ""
    assert "orders must not repeat" in err


@pytest.mark.parametrize("orders", ["1..x", "x..3", "1,x", "1.5"])
def test_scan_names_the_flag_of_a_malformed_order(capsys, orders):
    code, out, err = run(capsys, "scan", "--orders", orders)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: --orders must be lo..hi or a comma-separated list, got {orders!r}\n"


@pytest.mark.parametrize("only", ["30,30", "90,30,90"])
def test_scan_rejects_repeated_rules(capsys, only):
    code, out, err = run(capsys, "scan", "--orders", "1", "--only", only)
    assert code == EXIT_USAGE
    assert out == ""
    assert "rules must not repeat" in err


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (["scan", "--only", "x"], "--only", "x"),
        (["scan", "--only", "30,1.5"], "--only", "30,1.5"),
        (["keystream", "--rules", "30,x", "--width", "8", "--key", "zero", "--length", "4"], "--rules", "30,x"),
        (["evolve", "--rules", "30,x", "--width", "8", "--steps", "1", "--init", "single"], "--rules", "30,x"),
    ],
)
def test_a_malformed_rule_list_names_its_flag(capsys, argv, flag, text):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {flag} must be a comma-separated list of rule numbers, got {text!r}\n"


def test_classify_rule_30(capsys):
    code, out, _ = run(capsys, "classify", "--rule", "30")
    assert code == EXIT_OK
    assert "rule = 30" in out
    assert "class = 30,86,135,149" in out
    assert "balanced = true" in out
    assert "affine = false" in out
    assert "correlation_immunity = 0" in out


def test_attack_known_instance(capsys, tmp_path):
    transcript = tmp_path / "trace.txt"
    code, out, _ = run(
        capsys, "attack", "--rule", "30", "--width", "5", "--sequence", "00100",
        "--seed", "1", "--transcript", str(transcript),
    )
    assert code == EXIT_OK
    assert "seed = 1" in out
    assert "key = 01011" in out
    lines = transcript.read_text().strip().splitlines()
    assert lines[-1].endswith("match 1")
    assert all(line.split()[0] == "trial" for line in lines)


def test_attack_exhaustion_exit_code(capsys):
    # with a single trial, roughly half the seeds fail on this instance
    saw_exhausted = saw_success = False
    for seed in range(24):
        code, _, _ = run(
            capsys, "attack", "--rule", "30", "--sequence", "00100",
            "--max-trials", "1", "--seed", str(seed),
        )
        saw_exhausted |= code == EXIT_EXHAUSTED
        saw_success |= code == EXIT_OK
        if saw_exhausted and saw_success:
            break
    assert saw_exhausted and saw_success


def test_attack_prints_defaulted_budget_and_seed(capsys):
    code, out, _ = run(capsys, "attack", "--sequence", "00100")
    assert code == EXIT_OK
    assert "seed = 0" in out
    assert "max_trials = 1024" in out


@pytest.mark.parametrize("sequence", ["", "0", "01"])
def test_attack_rejects_sequences_shorter_than_3(capsys, sequence):
    code, out, err = run(capsys, "attack", "--sequence", sequence)
    assert code == EXIT_USAGE
    assert out == ""
    assert "observed sequence must contain at least 3 values" in err


@pytest.mark.parametrize("transcribed", [False, True])
def test_attack_traces_its_trials_only_into_a_transcript(capsys, monkeypatch, tmp_path, transcribed):
    import castream.attack

    traces, real = [], castream.attack.attack

    def spy(*args, **kwargs):
        traces.append(kwargs["trace"])
        return real(*args, **kwargs)

    monkeypatch.setattr(castream.attack, "attack", spy)
    transcript = ["--transcript", str(tmp_path / "trace.txt")] if transcribed else []
    assert run(capsys, "attack", "--sequence", "00100", *transcript)[0] == EXIT_OK
    assert len(traces) == 1 and (traces[0] is not None) == transcribed


@pytest.mark.parametrize("argv, message", [
    (["--rule", "110", "--sequence", "00100"], "rule 110 is not left-permutive"),
    (["--sequence", "01"], "observed sequence must contain at least 3 values"),
    (["--sequence", "00100", "--max-trials", "0"], "max_trials must be >= 1"),
])
def test_attack_usage_error_writes_no_transcript(capsys, tmp_path, argv, message):
    transcript = tmp_path / "trace.txt"
    code, out, err = run(capsys, "attack", *argv, "--transcript", str(transcript))
    assert (code, out) == (EXIT_USAGE, "")
    assert message in err
    assert not transcript.exists()


@pytest.mark.parametrize("argv, message", [
    (["--rule", "30", "--order", "0"], "order must be >= 1"),
    (["--rule", "256"], "rule number 256 out of range"),
    (["--rule", "30", "--radius", "2", "--order", "6"], "iterated function would need 25 variables"),
])
def test_spectrum_usage_error_writes_no_file(capsys, tmp_path, argv, message):
    # the transform is finished before --out is opened, so a rejected spectrum leaves nothing behind
    path = tmp_path / "spectrum.csv"
    code, out, err = run(capsys, "spectrum", *argv, "--out", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not path.exists()


def test_attack_unwritable_transcript_is_an_io_error(capsys, tmp_path):
    code, out, err = run(capsys, "attack", "--sequence", "00100", "--transcript", str(tmp_path / "no" / "trace.txt"))
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith("error: ")


def test_fips_zero_stream_fails(tmp_path, capsys):
    stream = tmp_path / "zeros.bits"
    stream.write_text("0" * 20000 + "\n")
    code, out, _ = run(capsys, "fips", "--in", str(stream))
    assert code == EXIT_TEST_FAILED
    assert "overall.pass = false" in out
    assert "monobit.pass = false" in out


def test_fips_keystream_passes_and_windows_long_input(tmp_path, capsys):
    stream = tmp_path / "ks.bits"
    assert run(
        capsys, "keystream", "--rule", "30", "--width", "64", "--key", "random", "--seed", "7",
        "--length", "20123", "--out", str(stream),
    )[0] == EXIT_OK
    code, out, _ = run(capsys, "fips", "--in", str(stream))
    assert code == EXIT_OK
    assert "input.bits = 20123" in out
    assert "tested.bits = 20000" in out
    assert "overall.pass = true" in out


def test_fips_short_stream_rejected(tmp_path, capsys):
    stream = tmp_path / "short.bits"
    stream.write_text("01" * 100 + "\n")
    code, _, err = run(capsys, "fips", "--in", str(stream))
    assert code == EXIT_USAGE
    assert "20000" in err


def test_fips_checks_every_character_of_a_long_file(tmp_path, capsys):
    # only the first 20000 bits are tested, but the text is read to its end
    stream = tmp_path / "long.bits"
    stream.write_text("01" * 5_000_000 + "2\n")
    assert run(capsys, "fips", "--in", str(stream)) == (EXIT_USAGE, "", "error: invalid character '2' in bitstream text\n")


def test_fips_reads_its_thresholds_before_its_input(tmp_path, capsys):
    # a bad thresholds file is reported, naming its line, even where the input would fail to open
    thresholds = tmp_path / "bad.conf"
    thresholds.write_text("monobit.minimum = 9654\n")
    code, out, err = run(capsys, "fips", "--in", str(tmp_path / "missing.txt"), "--thresholds", str(thresholds))
    assert (code, out, err) == (EXIT_USAGE, "", "error: line 1: unknown key 'monobit.minimum'\n")


def test_fips_reads_the_head_of_a_raw_file(tmp_path, capsys):
    bits = [random.Random(3).getrandbits(1) for _ in range(20_013)]
    ascii_path, raw_path = tmp_path / "ks.txt", tmp_path / "ks.bin"
    ascii_path.write_text("".join(map(str, bits)) + "\n")
    raw_path.write_bytes(int("".join(map(str, bits)) + "000", 2).to_bytes(2502, "big"))
    code, expected, _ = run(capsys, "fips", "--in", str(ascii_path))
    assert "input.bits = 20013" in expected
    assert run(capsys, "fips", "--in", str(raw_path), "--stream-format", "raw", "--bits", "20013")[:2] == (
        code, expected)
    for count in ("20017", "-1"):
        assert run(capsys, "fips", "--in", str(raw_path), "--stream-format", "raw", "--bits", count) == (
            EXIT_USAGE, "", f"error: cannot read {count} bits from 2502 bytes\n")


def test_identical_command_lines_are_byte_identical(capsys):
    argv = ["scan", "--orders", "1..3", "--only", "30,86"]
    assert run(capsys, *argv) == run(capsys, *argv)


def test_width_cap_is_enforced_and_adjustable(capsys):
    evolve = ("evolve", "--rule", "30", "--steps", "0", "--init", "zero")
    keystream = ("keystream", "--rule", "30", "--key", "zero", "--length", "8")
    rejected = [
        (*evolve, "--width", str((1 << 20) + 1)),
        (*evolve, "--width", "4", "--max-width", "3"),
        # the cap is checked before the ring is allocated
        (*evolve, "--width", "1000000000000", "--max-width", "1000"),
        (*keystream, "--width", "1000000000000", "--max-width", "1000"),
        # a cap below 1 is rejected while the flags are parsed
        *((*command, "--width", "8", "--max-width", cap) for command in (evolve, keystream) for cap in ("0", "-5")),
    ]
    for argv in rejected:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, argv
        assert "--max-width" in err, argv
    code, out, _ = run(capsys, *evolve, "--width", "4", "--max-width", "4")
    assert code == EXIT_OK
    assert out == "0000\n"


def test_negative_seeds_are_usage_errors(capsys):
    rejected = [
        ("attack", "--sequence", "00100", "--seed", "-1"),
        ("keystream", "--rule", "30", "--width", "8", "--key", "random", "--seed", "-1", "--length", "8"),
        ("evolve", "--rule", "30", "--width", "8", "--init", "random", "--seed", "-1", "--steps", "1"),
    ]
    for argv in rejected:
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == EXIT_USAGE, argv
        assert "--seed" in capsys.readouterr().err, argv


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == EXIT_USAGE


_KEY = ("--width", "64", "--key", "random", "--seed", "7", "--length", "5000")
_RULES_30_86_101 = ("--rules", "30,86,101")
_RADIUS_2 = ("--rule", "869020563", "--radius", "2")


def _xor_group(ext, key_length, *flags):
    """Write a 5000-bit plaintext and a rule-30 key of ``key_length`` bits to {dir}, encrypt the one
    with the other to stdout and to {dir}/ct, then decrypt that file to stdout."""
    fmt = ("--stream-format", "raw") if ext == "bin" else ()
    pt, key, ct = (f"{{dir}}/{name}.{ext}" for name in ("pt", "key", "ct"))
    encrypt = ["encrypt", "--in", pt, "--key", key, *fmt, *flags]
    return [["keystream", *_RADIUS_2, *_KEY, *fmt, "--out", pt],
            ["keystream", "--rule", "30", *_KEY[:-1], str(key_length), *fmt, "--out", key],
            encrypt, [*encrypt, "--out", ct], ["decrypt", "--in", ct, "--key", key, *fmt, *flags]]


# The compatibility contract: the exit code of each group's last command (the others exit 0) and
# the sha256 of stdout (plus the --transcript file, where one is written) for each group of
# commands, recorded with the sum-of-products kernel; a group writes its input files to {dir}.
PINNED_OUTPUTS = [
    ([["keystream", "--rule", "30", *_KEY]], EXIT_OK,
     "c11133e021df8daf30ea16d4729d3c7137f0984190425cc9543e5db1530b8363"),
    ([["keystream", "--rule", "30", *_KEY, "--stream-format", "raw"]], EXIT_OK,
     "45b484351c626281c90b324ba30a2bbae98ecfac79e84be34252ec97b674e39b"),
    ([["keystream", *_RULES_30_86_101, *_KEY]], EXIT_OK,
     "1e07f2a72265064eb4214e9080dfd2ed670020cff7d85e92f94449ddfb26f35b"),
    ([["keystream", *_RULES_30_86_101, *_KEY, "--stream-format", "raw"]], EXIT_OK,
     "00f703e5a64e496fe8c7badc9a2c6a6493bfb048bd8b3d87b4af0bd53f8544f7"),
    ([["keystream", *_RADIUS_2, *_KEY]], EXIT_OK,
     "a91297b37aa74dd3e845047fff2f4c5dd83edb7c900861962bf667b506112274"),
    ([["keystream", *_RADIUS_2, *_KEY, "--stream-format", "raw"]], EXIT_OK,
     "da0c435ddc55deac2e358c8a70c58cb70aaa6f4f3dcf85247a4ae167214e0090"),
    ([["evolve", "--rule", "30", "--width", "64", "--steps", "48", "--init", "single"]], EXIT_OK,
     "3ab2ee766b896cb3eb7d44373d6f1ef523692df865a1b296fe4cac31932d74e7"),
    ([["evolve", "--rules", "90,105,150,165", "--width", "64", "--steps", "48", "--init", "random",
       "--seed", "3", "--format", "pbm"]], EXIT_OK,
     "ee5c2716904981faa45926d31b78b06963a4d3498a25799acbb82867b62f5e80"),
    ([["scan", "--orders", "1..5"]], EXIT_OK,
     "99ab5f4bf37891821553ac5e83d536bb87d41c292f4f0560926236cca2431c0d"),
    ([["spectrum", "--rule", "30", "--order", "5"]], EXIT_OK,
     "9154273f7d96ab4b1a56c8650673eeb2564e1cd67b1a21cdba9b857d3cdbe5bf"),
    ([["spectrum", *_RADIUS_2, "--order", "3"]], EXIT_OK,
     "cd367f2eb46d59db278360b6a212cd6f6d4158960202e50dce19a2e1496c04b1"),
    ([["classify", "--rule", str(r)] for r in range(256)], EXIT_OK,
     "69d4845351705e2a95b94e972f49b7152e0ddd4f31caf556616a03452e0827f7"),
    ([["attack", "--seed", "0", "--sequence", "00100", "--transcript", "{transcript}"]], EXIT_OK,
     "f37d3e9f4339ce58d59c36da60099bd85e23441362d293bd92c77b2c289e778e"),
    ([["attack", "--seed", "1", "--sequence", "00100", "--max-trials", "1", "--transcript", "{transcript}"]],
     EXIT_EXHAUSTED, "e39dd21e4784eac174f0a4ef3b44d4df3d51f54c246fdcba1f1da3e8d8d16075"),
    # recorded from the codec whose pack_bits checked its bits in a parse of its own; the raw group
    # cycles a 3001-bit key over the 5000-bit message
    (_xor_group("txt", 5000), EXIT_OK, "3328b0372e174267d21442bebfae62a8f721668eaf331621d02b27dbb863a123"),
    (_xor_group("bin", 3001, "--bits", "5000", "--key-bits", "3001", "--allow-key-reuse"), EXIT_OK,
     "723be75f271225f6e0b42cec8c6f6ce24d6100e04be4bdab0dddd94ebba3f1a3"),
    ([["keystream", "--rule", "30", *_KEY[:-1], "20000", "--out", "{dir}/ks.txt"], ["fips", "--in", "{dir}/ks.txt"]],
     EXIT_OK, "1d8a13c984b380361752415e3a43b1a2e526cc44de39010e707e48f7fbc90692"),
    ([["keystream", "--rule", "30", "--width", "64", "--key", "zero", "--length", "20000", "--out", "{dir}/zeros.txt"],
      ["fips", "--in", "{dir}/zeros.txt"]], EXIT_TEST_FAILED,
     "10c94feb09b65bd03159d06a0c3e48537981235b8ec15cf1a163df2c879dc8d2"),
]


def test_cli_output_is_pinned(capsysbinary, tmp_path):
    transcript = tmp_path / "transcript.txt"
    for commands, code, digest in PINNED_OUTPUTS:
        data = hashlib.sha256()
        for argv in commands:
            expected = code if argv is commands[-1] else EXIT_OK  # a group's earlier commands write its inputs
            argv = [arg.format(transcript=transcript, dir=tmp_path) for arg in argv]
            transcript.unlink(missing_ok=True)
            assert main(argv) == expected, argv
            data.update(capsysbinary.readouterr().out)
            if "--transcript" in argv:
                data.update(transcript.read_bytes())
        assert data.hexdigest() == digest, commands[0]


# --help, a command's --help, an unknown command and a missing required flag: exit code and
# sha256 of stdout then stderr, recorded when every command's subparser was built in full
# (Python 3.11 argparse at 80 columns).
PINNED_USAGE = [
    (["--help"], EXIT_OK, "c5d8990a964b5210400ca712ef1caf57d5787cba68f563fec62e2d4311fc3639"),
    (["scan", "--help"], EXIT_OK, "89284174412b79e8916177f23c3044ce329b54ef53e5c0a0d46d09404b062e16"),
    (["frobnicate"], EXIT_USAGE, "d7976bf69600849fc08e7ba5928ab85b33e8f0726c6780c6116f24af21c81408"),
    (["evolve", "--rule", "30", "--width", "8"], EXIT_USAGE,
     "e15563b3e7bbf6b8452c5bdca4440347b7ee8f62fd48313c6da953fd79b31ac2"),
]


def test_help_and_usage_errors_are_pinned(capsysbinary, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal's width
    for argv, code, digest in PINNED_USAGE:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == code, argv
        captured = capsysbinary.readouterr()
        assert hashlib.sha256(captured.out + captured.err).hexdigest() == digest, argv


def test_only_the_command_named_gets_its_arguments():
    parser = build_parser(["--", "scan", "--orders", "1..3"])
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    arguments = {name: [action.dest for action in p._actions] for name, p in commands.choices.items()}
    assert len(arguments) == 9
    assert arguments.pop("scan") == ["help", "orders", "only", "out"]
    assert set(map(tuple, arguments.values())) == {("help",)}


# Commands that never run a Walsh transform, then the two that do.
_NUMPY_FREE_COMMANDS = [
    ["keystream", "--rule", "30", *_KEY[:-1], "20000", "--out", "ks.txt"],
    ["encrypt", "--in", "ks.txt", "--key", "ks.txt", "--out", "ct.txt"],
    ["decrypt", "--in", "ct.txt", "--key", "ks.txt", "--out", "pt.txt"],
    ["fips", "--in", "ks.txt", "--out", "fips.txt"],
    ["evolve", "--rule", "30", "--width", "64", "--steps", "8", "--init", "single", "--out", "ev.txt"],
    ["scan", "--orders", "1..3", "--out", "scan.csv"],
    ["attack", "--sequence", "00100", "--out", "attack.txt"],
]
_TRANSFORM_COMMANDS = [["spectrum", "--rule", "30", "--out", "sp.csv"], ["classify", "--rule", "30", "--out", "c.txt"]]

# Runs the commands in order in a fresh interpreter and prints, after each, a line listing the
# modules loaded so far that were not loaded before castream.cli was imported (--help exits
# through SystemExit).
_START_PATH_SCRIPT = """
import sys
before = set(sys.modules)
from castream.cli import main
for argv in COMMANDS:
    try:
        code = main(argv)
    except SystemExit as exit:
        code = exit.code
    assert code == 0, argv
    print("loaded:", *sorted(set(sys.modules) - before))
"""


def _loaded_after_each(commands, cwd):
    script = _START_PATH_SCRIPT.replace("COMMANDS", repr(commands))
    env = {**os.environ, "PYTHONPATH": str(Path(castream.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [set(line.split()[1:]) for line in proc.stdout.splitlines() if line.startswith("loaded:")]


def _numpy_loaded_after_each(commands, cwd):
    return ["numpy" in loaded for loaded in _loaded_after_each(commands, cwd)]


def test_numpy_is_loaded_only_where_a_walsh_transform_runs(tmp_path):
    assert _numpy_loaded_after_each(_NUMPY_FREE_COMMANDS, tmp_path) == [False] * len(_NUMPY_FREE_COMMANDS)
    assert (tmp_path / "pt.txt").read_text() == (tmp_path / "ks.txt").read_text()
    # each transform command starts from an interpreter without numpy, so neither check is vacuous
    for argv in _TRANSFORM_COMMANDS:
        assert _numpy_loaded_after_each([argv], tmp_path) == [True], argv


def test_importing_a_layer_yields_the_module():
    import castream.attack

    assert castream.attack.__name__ == "castream.attack"
    assert castream.attack.forward_completion.__module__ == "castream.attack"


# no command loads castream.cipher: keystream runs the engine's tap loop itself
_OPTIONAL_LAYERS = {"castream.attack", "castream.spectrum", "castream.algebra", "castream.fips", "castream.cipher"}


@pytest.mark.parametrize(
    "commands, allowed",
    [
        # --help, keystream, encrypt, evolve
        ([["--help"], *(_NUMPY_FREE_COMMANDS[i] for i in (0, 1, 4))], set()),
        ([_NUMPY_FREE_COMMANDS[6]], {"castream.attack"}),  # attack
        ([_NUMPY_FREE_COMMANDS[0], _NUMPY_FREE_COMMANDS[3]], {"castream.fips"}),  # keystream, then fips
        ([_NUMPY_FREE_COMMANDS[5]], {"castream.spectrum", "castream.algebra"}),  # scan
    ],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, commands, allowed):
    loaded = _loaded_after_each(commands, tmp_path)
    assert len(loaded) == len(commands)
    assert [modules & _OPTIONAL_LAYERS <= allowed for modules in loaded] == [True] * len(commands), loaded
    assert allowed <= loaded[-1]  # the layer the last command runs is loaded, so the check is not vacuous


def test_start_path_loads_no_layer_for_help_and_neither_dataclasses_nor_fractions(tmp_path):
    help_loaded, *loaded = _loaded_after_each([["--help"], *_NUMPY_FREE_COMMANDS], tmp_path)
    assert {module for module in help_loaded if module.startswith("castream.")} == {"castream.cli"}
    assert [modules & {"dataclasses", "fractions"} for modules in loaded] == [set()] * len(_NUMPY_FREE_COMMANDS)
    # by the last command every layer a command runs has been loaded, so the check above is not vacuous
    assert {"castream.engine", "castream.bitio", "castream.fips", "castream.spectrum",
            "castream.algebra", "castream.attack"} <= loaded[-1]


# The exit-code property: argv for each command from valid, edge and malformed flag values, small enough that
# every run is quick. None leaves a flag out; "@name" is a file in the run's directory, made by _stream_files.
def _values(good, bad):
    """A flag's value: one of ``good`` eight times as often as one of ``bad``, so that most runs get past argparse."""
    return st.sampled_from([*good] * 8 + [*bad])


_FILES = _values(("@ks.txt", "@ks.bin", "@zeros.txt", "@short.txt"), ("@bad.txt", "@empty.bin", "@missing.txt", "@.", None))
_FORMAT = _values((None, "ascii", "raw"), ("hex",))
_BITS = _values((None, "8", "20000"), ("-1", "0", "160001", "x"))
_RULE = {"--rule": _values(("30", "86", "869020563"), ("256", "-1", "x", None)),
         "--rules": _values((None, None, None, "30,86,101", "90,150"), ("30,x", ",", "300")),
         "--radius": _values((None, "1", "2"), ("3",))}
_RING = {"--width": _values((None, "5", "16", "64"), ("-1", "0", "x")), "--seed": _values((None, "0", "7"), ("-1", "x")),
         "--max-width": _values((None, None, "64"), ("-5", "0", "8"))}
_XOR = {"--in": _FILES, "--key": _FILES, "--stream-format": _FORMAT, "--bits": _BITS, "--key-bits": _BITS,
        "--allow-key-reuse": st.sampled_from([None, True])}
_ARGV_FLAGS = {
    "evolve": {**_RULE, **_RING, "--steps": _values(("0", "3", "40"), ("-1", "x", None)),
               "--init": _values(("single", "zero", "random", "0101"), ("012", "", "١٠", None)),
               "--format": _values((None, "text", "pbm"), ("gif",))},
    "keystream": {**_RULE, **_RING, "--key": _values(("zero", "random", "01011"), ("0121", "", None)),
                  "--cell": _values((None, "0", "4"), ("-1", "63", "64", "x")),
                  "--length": _values(("1", "300"), ("-1", "0", "x", None)),
                  "--burn-in": _values((None, "0", "70"), ("-1", "x")), "--stream-format": _FORMAT},
    "encrypt": _XOR,
    "decrypt": _XOR,
    "spectrum": {"--rule": _RULE["--rule"], "--radius": _RULE["--radius"],
                 "--order": _values((None, "1", "3"), ("-1", "0", "x"))},
    "scan": {"--orders": _values((None, "1..3", "1,3", "2"), ("0", "9", "3..1", "2,2", "x", "")),
             "--only": _values((None, "30", "30,45"), ("30,30", "300", "x", ""))},
    "classify": {"--rule": _values(("0", "30", "255"), ("256", "-1", "x", None))},
    "attack": {"--rule": _values((None, "30", "45"), ("90", "256", "x")), "--width": _RING["--width"],
               "--sequence": _values(("00100", "1101", "11010000"), ("01", "0120", "", None)),
               "--max-trials": _values((None, "1", "50"), ("-1", "0", "x")), "--seed": _RING["--seed"],
               "--transcript": _values((None, "@t.txt"), ("@missing/t.txt",))},
    "fips": {"--in": _FILES, "--stream-format": _FORMAT, "--bits": _BITS,
             "--thresholds": _values((None,), ("@bad.conf", "@missing.conf"))},
}


def _stream_files(directory):
    rng = random.Random(3)
    for name, data in [("ks.txt", format(rng.getrandbits(20000), "020000b") + "\n"), ("zeros.txt", "0" * 20000),
                       ("short.txt", "0101\n"),
                       ("bad.txt", "01x1\n"), ("bad.conf", "monobit.min = x\n")]:
        Path(directory, name).write_text(data)
    Path(directory, "ks.bin").write_bytes(rng.randbytes(2500))
    Path(directory, "empty.bin").write_bytes(b"")


@pytest.mark.parametrize("command", list(_ARGV_FLAGS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_run_exits_with_a_documented_code_and_a_usage_error_writes_no_out(command, data):
    flags = data.draw(st.fixed_dictionaries(_ARGV_FLAGS[command]), label="flags")
    with tempfile.TemporaryDirectory() as tmp:
        _stream_files(tmp)
        out = Path(tmp, "out")
        argv = [command]
        for flag, value in flags.items():
            if value is not None:
                argv += [flag] if value is True else [flag, value.replace("@", tmp + os.sep)]
        argv += ["--out", str(out)]
        try:
            code = main(argv)
        except SystemExit as exit:  # argparse rejects the argv
            code = exit.code
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_EXHAUSTED, EXIT_TEST_FAILED), argv
        assert code != EXIT_USAGE or not out.exists(), argv
