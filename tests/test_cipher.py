"""Keystream generation and the XOR cipher round trip."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from castream.cipher import KeystreamSpec, keystream, vernam_decrypt, vernam_encrypt
from castream.engine import Configuration, evolve, rule_from_number

RULE_30 = rule_from_number(30)


def test_keystream_known_answer():
    spec = KeystreamSpec(RULE_30, width=5, tap=0)
    assert keystream(Configuration((0, 1, 0, 1, 1)), spec, 5) == (0, 0, 1, 0, 0)


def test_burn_in_drops_a_prefix():
    key = Configuration.random(16, random.Random(3))
    plain_spec = KeystreamSpec(RULE_30, width=16, tap=4)
    burned_spec = KeystreamSpec(RULE_30, width=16, tap=4, burn_in=7)
    full = keystream(key, plain_spec, 27)
    assert keystream(key, burned_spec, 20) == full[7:]


def test_keystream_matches_evolve_column():
    key = Configuration.random(64, random.Random(12))
    spec = KeystreamSpec(RULE_30, width=64, tap=9)
    bits = keystream(key, spec, 20000)
    assert bits == evolve(key, RULE_30, 19999).column(9)


def test_keystream_deterministic():
    key = Configuration.random(32, random.Random(5))
    spec = KeystreamSpec(RULE_30, width=32, tap=0)
    assert keystream(key, spec, 500) == keystream(key, spec, 500)


def test_keystream_spec_validation():
    with pytest.raises(ValueError):
        KeystreamSpec(RULE_30, width=8, tap=8)
    with pytest.raises(ValueError):
        KeystreamSpec(RULE_30, width=8, tap=0, burn_in=-1)
    spec = KeystreamSpec(RULE_30, width=8, tap=0)
    with pytest.raises(ValueError):
        keystream(Configuration.zeros(9), spec, 4)
    with pytest.raises(ValueError):
        keystream(Configuration.zeros(8), spec, 0)


def test_vernam_known_answer():
    assert vernam_encrypt((1, 0, 1, 0), (0, 1, 1, 0)) == (1, 1, 0, 0)
    assert vernam_decrypt((1, 1, 0, 0), (0, 1, 1, 0)) == (1, 0, 1, 0)


def test_vernam_zero_key_is_identity():
    plain = (1, 0, 0, 1, 1)
    assert vernam_encrypt(plain, (0,) * 5) == plain


def test_vernam_self_key_gives_zeros():
    plain = (1, 0, 0, 1, 1)
    assert vernam_encrypt(plain, plain) == (0,) * 5


def test_vernam_empty_streams():
    assert vernam_decrypt((), ()) == ()


def test_vernam_rejects_length_mismatch():
    with pytest.raises(ValueError):
        vernam_encrypt((1, 0), (1, 0, 1))
    with pytest.raises(ValueError):
        vernam_decrypt((1, 0, 1), (1,))


@given(seed=st.integers(0, 2**32), length=st.integers(0, 4096))
@settings(max_examples=100)
def test_vernam_round_trip(seed, length):
    rng = random.Random(seed)
    plain = tuple(rng.getrandbits(1) for _ in range(length))
    key = tuple(rng.getrandbits(1) for _ in range(length))
    assert vernam_decrypt(vernam_encrypt(plain, key), key) == plain


@pytest.mark.parametrize("plain, key", [((2, 5), (1, 1)), ((1, 0), (1, 2)), ((1.0, 0.0), (1, 1))])
def test_vernam_rejects_entries_other_than_0_and_1(plain, key):
    with pytest.raises(ValueError, match="must be 0 or 1"):
        vernam_encrypt(plain, key)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        vernam_decrypt(plain, key)
