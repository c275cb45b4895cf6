"""Serialized strategies read back to what was written, and malformed ones
raise InvalidInputError, never a bare KeyError or ValueError."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grac import (
    BooleanFn,
    ClassicalStrategy,
    EACCStrategy,
    FunctionSet,
    InvalidInputError,
    PMStrategy,
    full_mubs,
    identity_decoding,
    majority_encoding,
    random_strategy,
    representative_set,
)


def _classical():
    fset = full_mubs(2)
    return ClassicalStrategy(majority_encoding(2), identity_decoding(fset)).to_dict()


def _pm():
    return PMStrategy(1, {0: (0, 0, 1), 1: (0, 0, -1)}, {1: (0, 0, 1)}).to_dict()


def _eacc():
    return random_strategy(representative_set(2), rng=np.random.default_rng(0)).to_dict()


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize(
    "cls, payload",
    [
        (ClassicalStrategy, _without(_classical(), "decoding")),
        (ClassicalStrategy, _without(_classical(), "encoding")),
        (ClassicalStrategy, {**_classical(), "decoding": {"01": 0}}),
        (ClassicalStrategy, {**_classical(), "decoding": {"0x:1": 0}}),
        (PMStrategy, _without(_pm(), "measurements")),
        (PMStrategy, {**_pm(), "preparations": {"0x": [0, 0, 1], "1": [0, 0, -1]}}),
        (PMStrategy, {**_pm(), "measurements": [[0, 0, 1]]}),
        (EACCStrategy, _without(_eacc(), "labels")),
        (EACCStrategy, _without(_eacc(), "state")),
        (EACCStrategy, {**_eacc(), "labels": ["0x"]}),
        (EACCStrategy, {**_eacc(), "alice": {}}),
        (EACCStrategy, {**_eacc(), "state": [[1.0]]}),
    ],
    ids=[
        "classical-no-decoding",
        "classical-no-encoding",
        "classical-key-without-colon",
        "classical-bad-label-bits",
        "pm-no-measurements",
        "pm-bad-preparation-key",
        "pm-measurements-not-a-dict",
        "eacc-no-labels",
        "eacc-no-state",
        "eacc-bad-label-bits",
        "eacc-missing-alice-effects",
        "eacc-entry-not-a-pair",
    ],
)
def test_from_dict_refuses_malformed_payloads(cls, payload):
    with pytest.raises(InvalidInputError, match="malformed"):
        cls.from_dict(payload)



def _draw_set(data, max_width):
    n = data.draw(st.integers(1, max_width), label="n")
    labels = data.draw(
        st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=8), label="labels"
    )
    return FunctionSet.from_ints(n, sorted(labels))


def _units(rng, count):
    vecs = rng.standard_normal((count, 3))
    return [tuple(v) for v in vecs / np.linalg.norm(vecs, axis=1, keepdims=True)]


def _assert_round_trip(strategy):
    d = strategy.to_dict()
    assert type(strategy).from_dict(json.loads(json.dumps(d))).to_dict() == d


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_classical_round_trip(data):
    fset = _draw_set(data, 6)
    m, k = 1 << fset.n, len(fset)
    enc = BooleanFn(fset.n, data.draw(st.integers(0, (1 << m) - 1), label="encoding"))
    guesses = data.draw(st.lists(st.integers(0, 1), min_size=2 * k, max_size=2 * k))
    keys = [(r, omega) for r in fset.ints for omega in (0, 1)]
    _assert_round_trip(ClassicalStrategy(enc, dict(zip(keys, guesses))))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pm_round_trip(data):
    fset = _draw_set(data, 6)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    preps = dict(enumerate(_units(rng, 1 << fset.n)))
    _assert_round_trip(PMStrategy(fset.n, preps, dict(zip(fset.ints, _units(rng, len(fset))))))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_eacc_round_trip(data):
    fset = _draw_set(data, 4)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    _assert_round_trip(random_strategy(fset, local_dim=2, rng=np.random.default_rng(seed)))


def _width3_pm():
    vecs = {x: (0, 0, 1 - 2 * (x & 1)) for x in range(8)}
    return PMStrategy(3, vecs, {4: (0, 0, 1)}).to_dict()


def _edit(d, part, key, value=None, new_key=None):
    """d with d[part][key] set to value, or renamed to new_key."""
    inner = dict(d[part])
    if new_key is not None:
        inner = {new_key if k == key else k: v for k, v in inner.items()}
    else:
        inner[key] = value
    return {**d, part: inner}


def _width2_eacc(**fields):
    fset = FunctionSet.from_ints(2, (1, 2))
    return {**random_strategy(fset, rng=np.random.default_rng(0)).to_dict(), **fields}


def _eacc_with_entry(value):
    d = _eacc()
    state = [row[:] for row in d["state"]]
    state[0] = [value] + state[0][1:]
    return {**d, "state": state}


@pytest.mark.parametrize(
    "read",
    [
        lambda: ClassicalStrategy.from_dict(_edit(_classical(), "decoding", "111:0", 0)),
        lambda: ClassicalStrategy.from_dict(
            _edit(_classical(), "decoding", "01:1", new_key="01: 1")
        ),
        lambda: ClassicalStrategy.from_dict(
            _edit(_classical(), "decoding", "01:0", new_key="0_1:0")
        ),
        lambda: PMStrategy.from_dict(_edit(_width3_pm(), "measurements", "100", new_key="0_100")),
        lambda: PMStrategy.from_dict(_edit(_width3_pm(), "preparations", "011", new_key="11")),
        lambda: PMStrategy.from_dict(_edit(_pm(), "measurements", "1", ["0", "0", "1"])),
        lambda: PMStrategy.from_dict(_edit(_pm(), "measurements", "1", [False, False, True])),
        lambda: PMStrategy.from_dict(_edit(_pm(), "measurements", "1", "abc")),
        lambda: PMStrategy.from_dict(_edit(_pm(), "measurements", "1", [0, 0, 10**400])),
        lambda: PMStrategy(1, {0: (0, 0, 1), 1: (0, 0, -1)}, {1: "abc"}),
        lambda: EACCStrategy.from_dict(_width2_eacc(n=2.7)),
        lambda: EACCStrategy.from_dict(_width2_eacc(n="2")),
        lambda: EACCStrategy.from_dict(_eacc_with_entry([True, 0.0])),
    ],
    ids=[
        "classical-label-of-another-width",
        "classical-message-with-a-space",
        "classical-label-with-an-underscore",
        "pm-measurement-key-with-an-underscore",
        "pm-preparation-key-of-another-width",
        "pm-vector-of-strings",
        "pm-vector-of-bools",
        "pm-vector-a-string",
        "pm-coordinate-too-large-for-a-float",
        "pm-built-with-a-string-vector",
        "eacc-fractional-n",
        "eacc-n-a-string",
        "eacc-entry-a-bool",
    ],
)
def test_readers_refuse_what_they_once_guessed(read):
    with pytest.raises(InvalidInputError):
        read()
