"""Exact classical strategies for parity-guessing games.

A deterministic strategy is an encoding ``ω = f_E(x)`` (one bit sent) plus a
decoding ``z = f_D(y, ω)`` (one guess per question and message).  Success
counts are kept as exact integers; the denominator is always ``2^n * k`` for
a k-question set, never reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .errors import (
    CardinalityMismatchError,
    InvalidInputError,
    WidthMismatchError,
    WidthOutOfRangeError,
)
from .mubs import BooleanFn, FunctionSet, ParityLabel, parity, sign_matrix

# Widest set searched exactly; the see-saws add a classical start only up to here.
ENUM_MAX_WIDTH = 4


@dataclass(frozen=True)
class Rational:
    """Exact success count, stored unreduced so total stays 2^n * k."""

    wins: int
    total: int

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValueError("total must be positive")
        if not 0 <= self.wins <= self.total:
            raise ValueError(f"wins must lie in 0..{self.total}, got {self.wins}")

    @property
    def value(self) -> float:
        return self.wins / self.total

    def as_fraction(self) -> Fraction:
        return Fraction(self.wins, self.total)

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return f"{self.wins}/{self.total}"


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic one-bit strategy: encoding plus per-question decoding.

    decoding maps (label integer r, message ω) to the guess z and must be
    total over the set it is used with.
    """

    encoding: BooleanFn
    decoding: dict[tuple[int, int], int]

    def decode(self, r: int, omega: int) -> int:
        try:
            return self.decoding[(r, omega)]
        except KeyError:
            raise ValueError(f"decoding is not defined for label {r}, message {omega}")

    def to_dict(self) -> dict:
        n = self.encoding.n
        dec = {
            f"{format(r, f'0{n}b')}:{omega}": z
            for (r, omega), z in sorted(self.decoding.items())
        }
        return {"encoding": self.encoding.bits(), "decoding": dec}

    @classmethod
    def from_dict(cls, d: dict) -> "ClassicalStrategy":
        enc = BooleanFn.from_bits(d["encoding"])
        dec = {}
        for key, z in d["decoding"].items():
            bits, omega = key.split(":")
            dec[(int(bits, 2), int(omega))] = int(z)
        return cls(enc, dec)


def majority_encoding(n: int) -> BooleanFn:
    """Send the majority bit of x; ties (even n) send 0."""
    table = 0
    for x in range(1 << n):
        if 2 * x.bit_count() > n:
            table |= 1 << x
    return BooleanFn(n, table)


def identity_decoding(fset: FunctionSet, invert: tuple[int, ...] = ()) -> dict:
    """Guess z = ω, flipped to z = ω ⊕ 1 on the labels listed in invert."""
    inv = {lab.r if isinstance(lab, ParityLabel) else int(lab) for lab in invert}
    return {
        (lab.r, omega): omega ^ (lab.r in inv)
        for lab in fset
        for omega in (0, 1)
    }


def evaluate_classical(strategy: ClassicalStrategy, fset: FunctionSet) -> Rational:
    """Exact average-success count of a strategy on a question set."""
    if strategy.encoding.n != fset.n:
        raise WidthMismatchError(
            f"encoding width {strategy.encoding.n} != set width {fset.n}"
        )
    m = 1 << fset.n
    wins = 0
    for lab in fset:
        for x in range(m):
            omega = strategy.encoding(x)
            if strategy.decode(lab.r, omega) == parity(lab.r, x):
                wins += 1
    return Rational(wins, m * len(fset))


def per_label_wins(strategy: ClassicalStrategy, fset: FunctionSet) -> dict[int, Rational]:
    """Success count of each question separately, out of 2^n."""
    if strategy.encoding.n != fset.n:
        raise WidthMismatchError(
            f"encoding width {strategy.encoding.n} != set width {fset.n}"
        )
    m = 1 << fset.n
    out = {}
    for lab in fset:
        wins = sum(
            1
            for x in range(m)
            if strategy.decode(lab.r, strategy.encoding(x)) == parity(lab.r, x)
        )
        out[lab.r] = Rational(wins, m)
    return out


def best_decoding(encoding: BooleanFn, fset: FunctionSet) -> tuple[dict, Rational]:
    """Optimal decoding for a fixed encoding: majority vote on each message fiber.

    Ties break to z = 0; an empty fiber (constant-ish encodings) also decodes
    to 0, which costs nothing since no input lands there.
    """
    if encoding.n != fset.n:
        raise WidthMismatchError(f"encoding width {encoding.n} != set width {fset.n}")
    m = 1 << fset.n
    fibers = {omega: [x for x in range(m) if encoding(x) == omega] for omega in (0, 1)}
    decoding = {}
    wins = 0
    for lab in fset:
        for omega in (0, 1):
            ones = sum(parity(lab.r, x) for x in fibers[omega])
            zeros = len(fibers[omega]) - ones
            decoding[(lab.r, omega)] = 1 if ones > zeros else 0
            wins += max(ones, zeros)
    return decoding, Rational(wins, m * len(fset))


def _optimal_tables(h: np.ndarray, limit: int) -> np.ndarray:
    """First `limit` encoding tables, ascending, optimal for some row of h.

    Each row is h_s = Σ_y s_y g[·, y] for an optimal sign vector s.  It fixes
    bit x of the table to [h_s(x) < 0] (to [h_s(x) > 0] for -s) and leaves it
    free where h_s(x) = 0.  The members of such a cube ascend as
    fixed + deposit(i, free) for i = 0, 1, ..., so the first `limit` members
    of every cube include the first `limit` of their union.
    """
    m = h.shape[1]
    weights = 1 << np.arange(m)
    fixed = np.concatenate([(h < 0) @ weights, (h > 0) @ weights])
    if limit == 1:  # the see-saw starts' case: each cube's least member is fixed
        return fixed.min(keepdims=True)
    is_free = np.tile(h == 0, (2, 1))
    size = 1 << is_free.sum(axis=1)
    count = min(limit, int(size.max()))
    nbits = (count - 1).bit_length()
    # weight of each cube's j-th free bit; the sentinel past its last free bit
    # only meets index bits that are zero, since i < size there
    free_w = np.sort(np.where(is_free, weights, 1 << m), axis=1)[:, :nbits]
    i = np.arange(count)
    members = fixed + ((i[:, None] >> np.arange(nbits)) & 1) @ free_w.T
    tables = np.sort(members[i[:, None] < size])
    return tables[np.diff(tables, prepend=-1) != 0][:limit]


def classical_optimum(
    fset: FunctionSet, max_strategies: int = 16
) -> tuple[Rational, list[ClassicalStrategy]]:
    """Exact classical optimum by enumerating decoding signs.

    Given the encoding ω(x), question y scores best with z = ω ⊕ c_y: a
    constant guess wins exactly half of a balanced question, never more.
    With g[x, y] = (-1)^{f_y(x)} this gives

        wins = (2^n k + max_s Σ_x |Σ_y s_y g[x, y]|) / 2

    over sign vectors s ∈ {±1}^k with s_0 = +1, which costs
    O(2^(k-1) · 2^n) additions instead of a scan over all 2^(2^n) encodings.
    An encoding is optimal iff ω(x) = [h_s(x) < 0], h_s = Σ_y s_y g[·, y],
    wherever h_s(x) ≠ 0, for some optimal s or its negation.  Returns the
    optimum and the optimal strategies, each with its best_decoding, in
    ascending encoding-table order, capped at max_strategies since optima
    are typically far from unique.  Width is capped at ENUM_MAX_WIDTH.
    """
    if max_strategies < 1:
        raise InvalidInputError(f"max_strategies must be at least 1, got {max_strategies}")
    n = fset.n
    if n > ENUM_MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"exact search only runs for width <= {ENUM_MAX_WIDTH}, got {n}"
        )
    m = 1 << n
    k = len(fset)
    g = sign_matrix(fset)
    # h[i] = h_s for every s with s_0 = +1, built by doubling over the labels
    h = np.empty((1 << (k - 1), m))
    h[0] = g[:, 0]
    for j in range(1, k):
        half = 1 << (j - 1)
        h[half : 2 * half] = h[:half] - g[:, j]
        h[:half] += g[:, j]
    score = np.abs(h).sum(axis=1)
    best = score.max()
    strategies = []
    for t in _optimal_tables(h[score == best], max_strategies):
        enc = BooleanFn(n, int(t))
        dec, _ = best_decoding(enc, fset)
        strategies.append(ClassicalStrategy(enc, dec))
    return Rational((m * k + int(best)) // 2, m * k), strategies


# ---------------------------------------------------------------------------
# Standard (k -> 1) random access codes as a lower-bound subroutine.  These
# act on k independent bits, so they get their own small representation: the
# question-set width cap does not apply to the derived-bit alphabet.

@dataclass(frozen=True)
class RACStrategy:
    """Strategy for the standard k -> 1 random access code.

    encoding holds one message bit per k-bit input b (bit b of the mask,
    b read MSB-first); decoding[p] = (z for ω=0, z for ω=1) when position p
    (0-based from the most significant bit) is asked.
    """

    k: int
    encoding: int
    decoding: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 10:
            raise ValueError(f"RAC size must be in 1..10, got {self.k}")
        if not 0 <= self.encoding < 1 << (1 << self.k):
            raise ValueError("encoding mask wider than 2^k bits")
        if len(self.decoding) != self.k:
            raise ValueError("decoding must list one (z0, z1) pair per position")

    def encode(self, b: int) -> int:
        return (self.encoding >> b) & 1


def rac_value(rac: RACStrategy) -> Rational:
    """Average success of a RAC strategy over uniform inputs and positions."""
    k = rac.k
    wins = 0
    for b in range(1 << k):
        omega = rac.encode(b)
        for p in range(k):
            bit = (b >> (k - 1 - p)) & 1
            if rac.decoding[p][omega] == bit:
                wins += 1
    return Rational(wins, (1 << k) * k)


def optimal_rac_strategy(k: int) -> RACStrategy:
    """Majority encoding with the best per-position decoding; optimal for all k."""
    enc = 0
    for b in range(1 << k):
        if 2 * b.bit_count() > k:
            enc |= 1 << b
    decoding = []
    for p in range(k):
        pair = []
        for omega in (0, 1):
            ones = zeros = 0
            for b in range(1 << k):
                if (enc >> b) & 1 == omega:
                    if (b >> (k - 1 - p)) & 1:
                        ones += 1
                    else:
                        zeros += 1
            pair.append(1 if ones > zeros else 0)
        decoding.append(tuple(pair))
    return RACStrategy(k, enc, tuple(decoding))


def rac_optimum(k: int) -> Rational:
    """Closed-form optimal k -> 1 RAC success count (majority of k-1 free bits)."""
    wins_per_pos = (1 << (k - 1)) + math.comb(k - 1, (k - 1) // 2)
    return Rational(k * wins_per_pos, k << k)


def lift_rac_strategy(
    rac: RACStrategy, fset: FunctionSet, perm: tuple[int, ...] | None = None
) -> ClassicalStrategy:
    """Turn a k -> 1 RAC into a strategy for a k-question parity set.

    Alice feeds the derived string (f_{r}(x) for r in fset, reordered by
    perm) through the RAC encoder; the question for label perm[p] reuses the
    RAC's position-p decoding.
    """
    k = len(fset)
    if rac.k != k:
        raise CardinalityMismatchError(f"RAC size {rac.k} != set size {k}")
    if perm is None:
        perm = tuple(range(k))
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm must permute 0..{k - 1}, got {perm}")
    n = fset.n
    labels = fset.labels
    table = 0
    for x in range(1 << n):
        derived = 0
        for p in range(k):
            derived |= parity(labels[perm[p]].r, x) << (k - 1 - p)
        table |= rac.encode(derived) << x
    decoding = {}
    for p in range(k):
        r = labels[perm[p]].r
        decoding[(r, 0)] = rac.decoding[p][0]
        decoding[(r, 1)] = rac.decoding[p][1]
    return ClassicalStrategy(BooleanFn(n, table), decoding)


def best_lift(rac: RACStrategy, fset: FunctionSet) -> tuple[ClassicalStrategy, Rational]:
    """Best ordering of the derived string, by scanning all k! permutations."""
    best_val = None
    best_strat = None
    for perm in permutations(range(len(fset))):
        strat = lift_rac_strategy(rac, fset, perm)
        val = evaluate_classical(strat, fset)
        if best_val is None or val.wins > best_val.wins:
            best_val, best_strat = val, strat
    return best_strat, best_val
