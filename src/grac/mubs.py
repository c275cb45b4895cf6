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
    NotBalancedError,
    WidthMismatchError,
    WidthOutOfRangeError,
    WrongCardinalityError,
)

MAX_WIDTH = 6


def _check_width(n: int) -> None:
    if not 1 <= n <= MAX_WIDTH:
        raise WidthOutOfRangeError(f"input width must be in 1..{MAX_WIDTH}, got {n}")


def parity(r: int, x: int) -> int:
    """Parity of the bits of x selected by the label r."""
    return (r & x).bit_count() & 1


@dataclass(frozen=True)
class BooleanFn:
    """A Boolean function of n bits as a truth-table bitmask."""

    n: int
    table: int

    def __post_init__(self) -> None:
        _check_width(self.n)
        if not 0 <= self.table < 1 << (1 << self.n):
            raise ValueError(f"table must use only the low {1 << self.n} bits")

    def __call__(self, x: int) -> int:
        return (self.table >> x) & 1

    def support(self, value: int) -> tuple[int, ...]:
        """All inputs x with f(x) = value."""
        return tuple(x for x in range(1 << self.n) if self(x) == value)

    def bits(self) -> str:
        """Truth table as a string, character i holding f(i)."""
        return "".join(str(self(x)) for x in range(1 << self.n))

    @classmethod
    def from_bits(cls, bits: str) -> "BooleanFn":
        n = (len(bits) - 1).bit_length()
        if len(bits) != 1 << n:
            raise ValueError(f"truth table length must be a power of two, got {len(bits)}")
        table = 0
        for x, c in enumerate(bits):
            if c not in "01":
                raise ValueError(f"truth table may contain only 0/1, got {bits!r}")
            table |= int(c) << x
        return cls(n, table)


@dataclass(frozen=True, order=True)
class ParityLabel:
    """A nonzero n-bit label naming one parity function."""

    n: int
    r: int

    def __post_init__(self) -> None:
        _check_width(self.n)
        if not 0 < self.r < 1 << self.n:
            raise ValueError(f"label must be a nonzero {self.n}-bit value, got {self.r}")

    def bitstring(self) -> str:
        return format(self.r, f"0{self.n}b")

    @classmethod
    def from_bitstring(cls, bits: str) -> "ParityLabel":
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError(f"label must be a nonempty bitstring, got {bits!r}")
        return cls(len(bits), int(bits, 2))


def parity_function(label: ParityLabel) -> BooleanFn:
    """Truth table of the parity function named by a label."""
    table = 0
    for x in range(1 << label.n):
        table |= parity(label.r, x) << x
    return BooleanFn(label.n, table)


def is_balanced(f: BooleanFn) -> bool:
    """True when f outputs 1 on exactly half of its inputs."""
    return f.table.bit_count() == 1 << (f.n - 1)


def are_mutually_unbiased(f1: BooleanFn, f2: BooleanFn) -> bool:
    """True when every output cell (f1=i, f2=j) covers exactly a quarter of the inputs.

    Knowing the value of one function then reveals nothing about the other.
    """
    if f1.n != f2.n:
        raise WidthMismatchError(f"widths differ: {f1.n} vs {f2.n}")
    if not is_balanced(f1):
        raise NotBalancedError("first function is not balanced")
    if not is_balanced(f2):
        raise NotBalancedError("second function is not balanced")
    m = 1 << f1.n
    for i in (0, 1):
        for j in (0, 1):
            cell = sum(1 for x in range(m) if f1(x) == i and f2(x) == j)
            if 4 * cell != m:
                return False
    return True


class QuadrupleClass(str, Enum):
    """XOR structure of a four-question set."""

    XOR_CLOSED = "xor-closed"
    OPEN = "open"


@dataclass(frozen=True)
class FunctionSet:
    """A duplicate-free set of parity labels in canonical (ascending) order."""

    n: int
    labels: tuple[ParityLabel, ...] = field()

    def __post_init__(self) -> None:
        _check_width(self.n)
        if not self.labels:
            raise ValueError("a function set needs at least one label")
        for lab in self.labels:
            if lab.n != self.n:
                raise WidthMismatchError(f"label width {lab.n} != set width {self.n}")
        ints = [lab.r for lab in self.labels]
        if len(set(ints)) != len(ints):
            raise ValueError("labels must be distinct")
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[ParityLabel]:
        return iter(self.labels)

    @property
    def ints(self) -> tuple[int, ...]:
        return tuple(lab.r for lab in self.labels)

    def functions(self) -> tuple[BooleanFn, ...]:
        return tuple(parity_function(lab) for lab in self.labels)

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
            raise ValueError("expected a comma-separated list of label bitstrings")
        labels = tuple(ParityLabel.from_bitstring(p) for p in parts)
        return cls(labels[0].n, labels)


def is_mubs(fset: FunctionSet) -> bool:
    """True when all members are balanced and pairwise mutually unbiased."""
    fns = fset.functions()
    if not all(is_balanced(f) for f in fns):
        return False
    for i in range(len(fns)):
        for j in range(i + 1, len(fns)):
            if not are_mutually_unbiased(fns[i], fns[j]):
                return False
    return True


def sign_matrix(fset: FunctionSet) -> np.ndarray:
    """(2^n, k) matrix of (-1)^{f_y(x)}, one row per input x."""
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
