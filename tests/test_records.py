"""Value semantics of the package's record classes: construction, equality, hashing, printing, immutability."""
import dataclasses
import random

import pytest

from castream.algebra import AffineDecomposition
from castream.attack import AttackResult, PartialDiagram
from castream.cipher import KeystreamSpec
from castream.engine import Configuration, Rule, RuleAssignment, SpaceTimeDiagram
from castream.fips import TestReport as Report  # aliased: pytest would try to collect Test* names
from castream.fips import TestResult as Result
from castream.fips import Thresholds
from castream.spectrum import BooleanFunction, RuleScan, ScanReport, WalshSpectrum

RULE_30 = (0, 1, 1, 1, 1, 0, 0, 0)
R30, R90 = Rule(1, RULE_30), Rule.from_number(90)
C011, C100 = Configuration((0, 1, 1)), Configuration((1, 0, 0))
MONOBIT = Result("monobit", True, {"ones": 3}, {"monobit.min": 1.0})
SCAN_30 = RuleScan(30, True, False, frozenset({30}), 135, 86, 149, {1: (4, 2)})
THRESHOLDS = dict(Thresholds.default().values)

# (built from positional arguments, the same built from keywords, an unequal value of the class,
#  its repr as printed when these classes were dataclasses, whether it hashes)
CASES = {
    "Rule": (lambda: Rule(1, RULE_30), lambda: Rule(radius=1, truth_table=list(RULE_30)), R90,
             "Rule(30, radius=1)", True),
    "RuleAssignment": (lambda: RuleAssignment((R30, R90)), lambda: RuleAssignment(rules=(R30, R90)),
                       RuleAssignment((R90, R30)),
                       "RuleAssignment(rules=(Rule(30, radius=1), Rule(90, radius=1)))", True),
    "Configuration": (lambda: Configuration((0, 1, 1)), lambda: Configuration(cells=[0, 1, 1]),
                      Configuration((0, 1, 1, 0)), "Configuration(cells=(0, 1, 1))", True),
    "SpaceTimeDiagram": (lambda: SpaceTimeDiagram((C011, C100)), lambda: SpaceTimeDiagram(rows=(C011, C100)),
                         SpaceTimeDiagram((C011,)),
                         "SpaceTimeDiagram(rows=(Configuration(cells=(0, 1, 1)), Configuration(cells=(1, 0, 0))))",
                         True),
    "PartialDiagram": (lambda: PartialDiagram(3, (1, 2, 3), None),
                       lambda: PartialDiagram(columns=None, rows=(1, 2, 3), width=3),
                       PartialDiagram(3, (1, 2, 3), (1,)), "PartialDiagram(width=3, rows=(1, 2, 3), columns=None)",
                       False),
    "AttackResult": (lambda: AttackResult(C011, 2, 3),
                     lambda: AttackResult(recovered_key=C011, trials_used=2, matched_length=3),
                     AttackResult(C011, 1, 3),
                     "AttackResult(recovered_key=Configuration(cells=(0, 1, 1)), trials_used=2, matched_length=3)",
                     True),
    "KeystreamSpec": (lambda: KeystreamSpec(R30, 3, 1), lambda: KeystreamSpec(tap=1, width=3, rule=R30),
                      KeystreamSpec(R30, 3, 1, 5), "KeystreamSpec(rule=Rule(30, radius=1), width=3, tap=1, burn_in=0)",
                      True),
    "Thresholds": (lambda: Thresholds(dict(THRESHOLDS)), lambda: Thresholds(values=dict(THRESHOLDS)),
                   Thresholds({**THRESHOLDS, "poker.max": 50.0}), f"Thresholds(values={THRESHOLDS!r})", False),
    "TestResult": (lambda: Result("monobit", True, {"ones": 3}, {"monobit.min": 1.0}),
                   lambda: Result(name="monobit", passed=True, statistics={"ones": 3},
                                  thresholds={"monobit.min": 1.0}),
                   Result("monobit", False, {"ones": 3}, {"monobit.min": 1.0}),
                   "TestResult(name='monobit', passed=True, statistics={'ones': 3}, thresholds={'monobit.min': 1.0})",
                   False),
    "TestReport": (lambda: Report((MONOBIT,)), lambda: Report(results=(MONOBIT,)), Report(()),
                   "TestReport(results=(TestResult(name='monobit', passed=True, statistics={'ones': 3}, "
                   "thresholds={'monobit.min': 1.0}),))", False),
    "BooleanFunction": (lambda: BooleanFunction((0, 1)), lambda: BooleanFunction(truth_table=[0, 1]),
                        BooleanFunction((0, 1, 1, 0)), "BooleanFunction(truth_table=(0, 1))", True),
    "WalshSpectrum": (lambda: WalshSpectrum((1, -1)), lambda: WalshSpectrum(values=[1, -1]), WalshSpectrum((1, 1)),
                      "WalshSpectrum(values=(1, -1))", True),
    "RuleScan": (lambda: RuleScan(30, True, False, frozenset({30}), 135, 86, 149, {1: (4, 2)}),
                 lambda: RuleScan(rule=30, balanced=True, affine=False, members=frozenset({30}), conjugate=135,
                                  reflected=86, conjugate_reflected=149, scores={1: (4, 2)}),
                 RuleScan(30, True, False, frozenset({30}), 135, 86, 149, {1: (4, 3)}),
                 "RuleScan(rule=30, balanced=True, affine=False, members=frozenset({30}), conjugate=135, "
                 "reflected=86, conjugate_reflected=149, scores={1: (4, 2)})", False),
    "ScanReport": (lambda: ScanReport((1,), (SCAN_30,)), lambda: ScanReport(orders=(1,), rows=(SCAN_30,)),
                   ScanReport((1, 2), (SCAN_30,)),
                   "ScanReport(orders=(1,), rows=(RuleScan(rule=30, balanced=True, affine=False, "
                   "members=frozenset({30}), conjugate=135, reflected=86, conjugate_reflected=149, "
                   "scores={1: (4, 2)}),))", False),
    "AffineDecomposition": (lambda: AffineDecomposition(True, (1, 0, 1), 1),
                            lambda: AffineDecomposition(constant=1, is_affine=True, mask=(1, 0, 1)),
                            AffineDecomposition(False),
                            "AffineDecomposition(is_affine=True, mask=(1, 0, 1), constant=1)", True),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_records_equal_by_value_and_only_within_their_class(name):
    make, _, other, _, hashable = CASES[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert first != other and not first == other
    assert first.__eq__((first,)) is NotImplemented
    assert first != (first,) and first != object()
    if hashable:
        assert hash(first) == hash(second)
        assert hash(first) != hash(other)
        assert len({first, second, other}) == 2
    else:  # a field holds a dict, or the record may change
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)


@pytest.mark.parametrize("name", NAMES)
def test_record_repr_is_pinned(name):
    make, _, _, text, _ = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", NAMES)
def test_records_build_from_keywords(name):
    make, from_keywords, _, _, _ = CASES[name]
    assert from_keywords() == make()


def test_record_defaults_fill_omitted_fields():
    spec = KeystreamSpec(R30, 3, 1)
    assert spec.burn_in == 0 and spec == KeystreamSpec(R30, 3, 1, burn_in=0)
    not_affine = AffineDecomposition(False)
    assert (not_affine.mask, not_affine.constant) == (None, None)
    assert AffineDecomposition(is_affine=True, mask=(0, 1, 0)).constant is None


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((R30, 3, 1, 0, 7), {}),  # too many positional arguments
        ((R30, 3), {}),  # tap missing
        ((R30, 3, 1), {"width": 3}),  # width given twice
        ((R30, 3, 1), {"seed": 7}),  # no such field
    ],
)
def test_record_arguments_are_checked_like_a_call(args, kwargs):
    with pytest.raises(TypeError):
        KeystreamSpec(*args, **kwargs)


def test_post_init_checks_run_on_keyword_construction():
    with pytest.raises(ValueError, match="tap cell 5 out of range"):
        KeystreamSpec(rule=R30, width=3, tap=5)
    with pytest.raises(ValueError, match="missing keys"):
        Thresholds(values={})


@pytest.mark.parametrize("name", [n for n in NAMES if n != "PartialDiagram"])
def test_records_are_frozen(name):
    make, _, _, _, _ = CASES[name]
    record = make()
    before = repr(record)
    for attribute in (*vars(record), "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, attribute, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, attribute)
    assert repr(record) == before


def test_partial_diagram_stays_mutable():
    diagram = PartialDiagram.blank(3)
    diagram.columns = (1, 2, 3)
    assert diagram == PartialDiagram(3, None, (1, 2, 3))
    del diagram.columns
    assert not hasattr(diagram, "columns")


# (the value from its validated constructor, the field values that _packed takes, in order)
PACKED = {
    "Rule": (R30, (1, 30)),
    "Configuration": (C011, (0b110, 3)),  # bit i of the state is cell i
    "BooleanFunction": (BooleanFunction((0, 1, 1, 0)), (0b0110, 2)),
    "RuleAssignment": (RuleAssignment((R30, R90)), ((R30, R90),)),  # _loop's cache is keyed on its hash
}


@pytest.mark.parametrize("name", sorted(PACKED))
def test_packed_records_equal_hash_and_print_like_the_validated_ones(name):
    value, fields = PACKED[name]
    packed = type(value)._packed(*fields)
    assert type(packed) is type(value)
    assert packed == value and hash(packed) == hash(value)
    assert repr(packed) == repr(value) and str(packed) == str(value)


@pytest.mark.parametrize("radius, numbers", [
    (1, range(256)),
    (2, [0, 1, 30, 0x96696996, (1 << 32) - 1, *random.Random(2).sample(range(1 << 32), 200)]),
])
def test_a_rule_from_its_number_is_the_rule_of_its_table(radius, numbers):
    for number in numbers:
        table = tuple(number >> x & 1 for x in range(1 << (2 * radius + 1)))
        rule, validated = Rule.from_number(number, radius), Rule(radius, table)
        assert rule == validated and hash(rule) == hash(validated)
        assert (rule.number, rule.radius, type(rule.truth_table)) == (number, radius, tuple)


@pytest.mark.parametrize("table", [list(RULE_30), bytearray(RULE_30)])
def test_a_rule_holds_its_table_as_a_tuple(table):
    rule = Rule(1, table)
    assert type(rule.truth_table) is tuple
    assert rule == R30 and hash(rule) == hash(R30)
