"""Malformed serialized strategies raise InvalidInputError, never a bare KeyError or ValueError."""

import numpy as np
import pytest

from grac import (
    ClassicalStrategy,
    EACCStrategy,
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

