"""Parity functions on bit strings and mutually unbiased balanced function sets.

A question is a nonzero label ``r`` in {0,1}^n naming the parity function
``f_r(x) = XOR of the bits of x selected by r``.  Truth tables are stored as
integer bitmasks of width 2^n with bit position ``x`` holding ``f(x)``; the
input ``x`` is read with ``x_1`` as the most significant bit, so tables list
inputs in the order 000, 001, ..., 111.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    InvalidInputError,
    WidthMismatchError,
    WidthOutOfRangeError,
    WrongCardinalityError,
    check_integer,
)

MAX_WIDTH = 6


def _check_width(n: int) -> None:
    check_integer("input width", n)
    if not 1 <= n <= MAX_WIDTH:
        raise WidthOutOfRangeError(f"input width must be in 1..{MAX_WIDTH}, got {n}")


def bitstring(value: int, n: int) -> str:
    """The serialized key form: value as exactly n binary digits, most significant first."""
    return format(value, f"0{n}b")


def read_bitstring(text: str, n: int) -> int:
    """The value a key spells: exactly n >= 1 characters, each 0 or 1, or InvalidInputError."""
    if not isinstance(text, str) or not 0 < len(text) == n or text.strip("01"):
        raise InvalidInputError(f"expected {n} binary digits, got {text!r}")
    return int(text, 2)


def table_bits(table: int, size: int) -> np.ndarray:
    """Bits 0..size-1 of a truth-table mask as a 0/1 array, entry x holding bit x."""
    raw = np.frombuffer(int(table).to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little")


def bits_table(bits: np.ndarray) -> int:
    """The truth-table mask whose bit x is bits[x]; inverts table_bits."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


@dataclass(frozen=True)
class BooleanFn:
    """A Boolean function of n bits as a truth-table bitmask."""

    n: int
    table: int

    def __post_init__(self) -> None:
        _check_width(self.n)
        check_integer("truth table", self.table)
        if not 0 <= self.table < 1 << (1 << self.n):
            raise InvalidInputError(f"table must use only the low {1 << self.n} bits")

    def __call__(self, x: int) -> int:
        return (self.table >> x) & 1

    def bits(self) -> str:
        """Truth table as a string, character i holding f(i): the table's bitstring reversed."""
        return bitstring(self.table, 1 << self.n)[::-1]

    @classmethod
    def from_bits(cls, bits: str) -> "BooleanFn":
        n = (len(bits) - 1).bit_length()
        if len(bits) != 1 << n:
            raise InvalidInputError(f"truth table length must be a power of two, got {len(bits)}")
        return cls(n, read_bitstring(bits[::-1], len(bits)))


@dataclass(frozen=True, order=True)
class ParityLabel:
    """A nonzero n-bit label naming one parity function."""

    n: int
    r: int

    def __post_init__(self) -> None:
        _check_width(self.n)
        check_integer("label", self.r)
        if not 0 < self.r < 1 << self.n:
            raise InvalidInputError(f"label must be a nonzero {self.n}-bit value, got {self.r}")

    def bitstring(self) -> str:
        return bitstring(self.r, self.n)

    @classmethod
    def from_bitstring(cls, bits: str) -> "ParityLabel":
        return cls(len(bits), read_bitstring(bits, len(bits)))


class QuadrupleClass(str, Enum):
    """XOR structure of a four-question set."""

    XOR_CLOSED = "xor-closed"
    OPEN = "open"


@dataclass(frozen=True)
class FunctionSet:
    """A duplicate-free set of parity labels in canonical (ascending) order.

    Every FunctionSet is a MUBS: its members are balanced and pairwise
    mutually unbiased.  Proof: a nonzero parity f_r is balanced, and for
    distinct labels f_r ⊕ f_s = f_{r⊕s} with r⊕s ≠ 0 is balanced too, so each
    of the four cells (f_r, f_s) = (i, j) holds a quarter of the inputs.  For
    g = sign_matrix(fset) this reads: every column of g sums to 0 and
    gᵀg = 2^n I.  Nothing checks this at run time.
    """

    n: int
    labels: tuple[ParityLabel, ...] = field()

    def __post_init__(self) -> None:
        _check_width(self.n)
        if not self.labels:
            raise InvalidInputError("a function set needs at least one label")
        for lab in self.labels:
            if lab.n != self.n:
                raise WidthMismatchError(f"label width {lab.n} != set width {self.n}")
        ints = [lab.r for lab in self.labels]
        if len(set(ints)) != len(ints):
            raise InvalidInputError("labels must be distinct")
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[ParityLabel]:
        return iter(self.labels)

    @property
    def ints(self) -> tuple[int, ...]:
        return tuple(lab.r for lab in self.labels)

    def bitstrings(self) -> str:
        """Serialized form: comma-separated label bitstrings."""
        return ",".join(lab.bitstring() for lab in self.labels)

    @classmethod
    def from_ints(cls, n: int, ints: Iterable[int]) -> "FunctionSet":
        return cls(n, tuple(ParityLabel(n, r) for r in ints))

    @classmethod
    def from_bitstrings(cls, text: str) -> "FunctionSet":
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise InvalidInputError("expected a comma-separated list of label bitstrings")
        labels = tuple(ParityLabel.from_bitstring(p) for p in parts)
        return cls(labels[0].n, labels)


def sign_matrix(fset: FunctionSet) -> np.ndarray:
    """(2^n, k) matrix g of (-1)^{f_y(x)}, one row per input x.

    The one place a parity is computed: every count reads off g, or off the
    0/1 table f_y(x) = [g < 0].
    """
    m = 1 << fset.n
    xs = np.arange(m, dtype=np.uint32)
    rs = np.array(fset.ints, dtype=np.uint32)
    par = np.bitwise_count(xs[:, None] & rs[None, :]) & 1
    return 1.0 - 2.0 * par.astype(np.float64)


def full_mubs(n: int) -> FunctionSet:
    """The set of all 2^n - 1 parity labels of width n."""
    _check_width(n)
    return FunctionSet.from_ints(n, range(1, 1 << n))


def classify_quadruple(fset: FunctionSet) -> QuadrupleClass:
    """XOR class of a four-label set.

    The set is xor-closed when some pairing satisfies r_i ^ r_j = r_k ^ r_l,
    which holds for one pairing exactly when it holds for all three, i.e. when
    the four labels XOR to zero.
    """
    if len(fset) != 4:
        raise WrongCardinalityError(f"expected exactly 4 labels, got {len(fset)}")
    acc = 0
    for lab in fset:
        acc ^= lab.r
    return QuadrupleClass.XOR_CLOSED if acc == 0 else QuadrupleClass.OPEN
