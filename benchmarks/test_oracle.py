"""The benchmark's oracle against hand-worked facts and published values."""
import random

import oracle


def test_rule_30_table_reads_00011110():
    assert "".join(map(str, reversed(oracle.rule_table(30)))) == "00011110"
    assert oracle.rule_table(30)[0b100] == 1  # neighbourhood 100 -> 1


def test_worked_key_gives_keystream_00100():
    assert oracle.Ring([30], 5).tap("01011", 0, 5) == [0, 0, 1, 0, 0]


def test_single_cell_rule_30_row():
    assert oracle.Ring([30], 8).rows("00010000", 1) == ["00010000", "00111000"]


def test_nonuniform_ring_tiles_the_rules():
    # rules 90 (a xor c) and 105 (not (a xor b xor c)) alternate; all-zero row
    assert oracle.Ring([90, 105], 4).rows("0000", 1)[1] == "0101"


def test_radius_2_ring_reads_five_cells():
    # rule 2^16 fires only on neighbourhood 10000: the cell two to the left is 1
    assert oracle.Ring([1 << 16], 8, radius=2).rows("10000000", 1)[1] == "00100000"


def test_seventy_balanced_elementary_rules():
    balanced = oracle.balanced_elementary_rules()
    assert len(balanced) == 70
    assert [n for n in range(256) if oracle.IteratedRule(n, 1).weight == 4] == balanced


def test_order_one_reproduces_the_rule_table():
    for number in (30, 90, 105, 150, 255):
        f = oracle.IteratedRule(number, 1)
        assert tuple(f.value(x) for x in range(8)) == oracle.rule_table(number)


def test_iterated_rule_matches_two_open_steps():
    rng = random.Random(3)
    f = oracle.IteratedRule(30, 2)
    table = oracle.rule_table(30)
    for _ in range(20):
        x = rng.randrange(32)
        cells = [(x >> (4 - j)) & 1 for j in range(5)]  # window cell 0 is the top bit
        middle = [table[4 * cells[i] + 2 * cells[i + 1] + cells[i + 2]] for i in range(3)]
        assert f.value(x) == table[4 * middle[0] + 2 * middle[1] + middle[2]]


def test_parseval_in_the_zero_one_convention():
    for number, order, radius in ((30, 2, 1), (110, 3, 1), (869020563, 1, 2)):
        f = oracle.IteratedRule(number, order, radius)
        spectrum = [f.walsh(omega) for omega in range(1 << f.n)]
        assert spectrum[0] == f.weight
        assert sum(w * w for w in spectrum) == (1 << f.n) * spectrum[0]


def test_walsh_matches_the_defining_sum():
    f = oracle.IteratedRule(30, 2)
    for omega in range(1 << f.n):
        direct = sum(f.value(x) * (-1) ** bin(x & omega).count("1") for x in range(1 << f.n))
        assert f.walsh(omega) == direct


def test_published_scores_of_rule_30_and_86():
    # the paper's min-max table at orders 1..5
    assert [oracle.IteratedRule(30, o).score() for o in range(1, 6)] == [(4, 2), (16, 4), (64, 16), (256, 40), (1024, 80)]
    assert [oracle.IteratedRule(86, o).score() for o in range(1, 6)] == [(1, 2), (1, 4), (1, 16), (1, 40), (1, 80)]
    assert oracle.IteratedRule(150, 3).score() == (0, 0)


def test_equivalences_of_rule_30():
    assert oracle.conjugate(30) == 135
    assert oracle.reflect(30) == 86
    assert oracle.conjugate(oracle.reflect(30)) == 149
    assert oracle.reflect(105) == 105
    assert all(oracle.conjugate(oracle.conjugate(n)) == n for n in range(256))


def test_stream_encodings():
    assert oracle.ascii_stream([0, 1, 1]) == b"011\n"
    assert oracle.raw_stream([1, 0, 1]) == b"\xa0"
    assert oracle.raw_stream([1] * 9) == b"\xff\x80"
    assert oracle.diagram_pbm(["01", "10"]) == b"P1\n2 2\n0 1\n1 0\n"


def test_fips_alternating_stream():
    stats = oracle.fips_statistics([i & 1 for i in range(20000)])
    assert stats["monobit.ones"] == 10000
    assert stats["poker.statistic"] == 16 * 5000 ** 2 / 5000 - 5000  # every nibble is 0101
    assert stats["runs.bit0.length1"] == stats["runs.bit1.length1"] == 10000
    assert stats["long_run.longest"] == 1
    verdicts = oracle.fips_verdicts(stats)
    assert verdicts["monobit"] and not verdicts["poker"] and not verdicts["runs"] and verdicts["long_run"]
    assert not verdicts["overall"]


def test_fips_long_run_limit_is_26():
    rng = random.Random(5)
    bits = [rng.getrandbits(1) for _ in range(20000)]
    bits[100:125] = [1] * 25
    bits[99] = bits[125] = 0
    assert oracle.fips_statistics(bits)["long_run.longest"] == 25
    bits[125] = 1
    bits[126] = 0
    assert oracle.fips_statistics(bits)["long_run.longest"] == 26
    assert not oracle.fips_verdicts(oracle.fips_statistics(bits))["long_run"]


def test_fips_random_stream_passes():
    rng = random.Random(11)
    verdicts = oracle.fips_verdicts(oracle.fips_statistics([rng.getrandbits(1) for _ in range(20000)]))
    assert verdicts["overall"]
