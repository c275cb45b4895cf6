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
from itertools import islice, permutations

import numpy as np

from .errors import (
    CardinalityMismatchError,
    InvalidInputError,
    WidthMismatchError,
    WidthOutOfRangeError,
    check_integer,
    reading,
)
from .mubs import (
    BooleanFn,
    FunctionSet,
    _check_width,
    bits_table,
    bitstring,
    read_bitstring,
    sign_matrix,
    table_bits,
)

# Widest set searched exactly; the see-saws add a classical start only up to here.
ENUM_MAX_WIDTH = 4


@dataclass(frozen=True)
class Rational:
    """Exact success count, stored unreduced so total stays 2^n * k."""

    wins: int
    total: int

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise InvalidInputError("total must be positive")
        if not 0 <= self.wins <= self.total:
            raise InvalidInputError(f"wins must lie in 0..{self.total}, got {self.wins}")

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
    total over the set it is used with.  Each ω and each z is an integer 0
    or 1.
    """

    encoding: BooleanFn
    decoding: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        try:
            bits = [omega for _, omega in self.decoding] + list(self.decoding.values())
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"decoding keys must be pairs (r, ω), got {list(self.decoding)}"
            ) from None
        if set(map(type, bits)) != {int}:  # plain ints, the common case, need no per-entry check
            for bit in bits:
                check_integer("a message or guess", bit)
        bad = set(bits) - {0, 1}
        if bad:
            raise InvalidInputError(f"a message or guess must be 0 or 1, got {min(bad)}")

    def decode(self, r: int, omega: int) -> int:
        try:
            return self.decoding[(r, omega)]
        except KeyError:
            raise InvalidInputError(f"decoding is not defined for label {r}, message {omega}")

    def to_dict(self) -> dict:
        n = self.encoding.n
        dec = {f"{bitstring(r, n)}:{omega}": z for (r, omega), z in sorted(self.decoding.items())}
        return {"encoding": self.encoding.bits(), "decoding": dec}

    @classmethod
    def from_dict(cls, d: dict) -> "ClassicalStrategy":
        with reading("classical strategy"):
            enc = BooleanFn.from_bits(d["encoding"])
            dec = {}
            for key, z in d["decoding"].items():
                label, omega = key.split(":")
                dec[(read_bitstring(label, enc.n), read_bitstring(omega, 1))] = z
        return cls(enc, dec)


def _majority_table(n: int) -> int:
    """Truth-table mask that is 1 on the n-bit strings with more ones than zeros."""
    return sum(1 << x for x in range(1 << n) if 2 * x.bit_count() > n)


def majority_encoding(n: int) -> BooleanFn:
    """Send the majority bit of x; ties (even n) send 0."""
    _check_width(n)
    return BooleanFn(n, _majority_table(n))


def identity_decoding(fset: FunctionSet, invert: tuple[int, ...] = ()) -> dict:
    """Guess z = ω, flipped to z = ω ⊕ 1 on the labels listed in invert.

    Each label in invert is an integer that must be in fset.
    """
    for r in invert:
        check_integer("inverted label", r)
        if r not in fset.ints:
            raise InvalidInputError(f"inverted label {r} is not in the set {fset.ints}")
    return {(r, omega): omega ^ (r in invert) for r in fset.ints for omega in (0, 1)}


def evaluate_classical(strategy: ClassicalStrategy, fset: FunctionSet) -> Rational:
    """Exact average-success count of a strategy on a question set."""
    wins = sum(w.wins for w in per_label_wins(strategy, fset).values())
    return Rational(wins, (1 << fset.n) * len(fset))


def per_label_wins(strategy: ClassicalStrategy, fset: FunctionSet) -> dict[int, Rational]:
    """Success count of each question separately, out of 2^n."""
    if strategy.encoding.n != fset.n:
        raise WidthMismatchError(
            f"encoding width {strategy.encoding.n} != set width {fset.n}"
        )
    m = 1 << fset.n
    sent = table_bits(strategy.encoding.table, m)
    guess = np.array([[strategy.decode(r, omega) for r in fset.ints] for omega in (0, 1)])
    wins = (guess[sent] == (sign_matrix(fset) < 0)).sum(axis=0)
    return {r: Rational(int(w), m) for r, w in zip(fset.ints, wins)}


def _best_decodings(sent: np.ndarray, g: np.ndarray, ints: tuple[int, ...]):
    """Majority decodings of the encodings whose 0/1 tables are the rows of sent.

    sums[t, ω, y], the column sum of g over encoding t's fiber of ω, counts
    zeros minus ones of f_y there; the majority guess wins max(zeros, ones) =
    (zeros + ones + |sums|) / 2.  Returns the decodings and each Σ|sums|.
    """
    sums = np.stack([1 - sent, sent], axis=1) @ g
    decodings = [
        {(r, omega): guess[omega][j] for j, r in enumerate(ints) for omega in (0, 1)}
        for guess in (sums < 0).astype(int).tolist()
    ]
    return decodings, np.abs(sums).sum(axis=(1, 2))


def best_decoding(encoding: BooleanFn, fset: FunctionSet) -> tuple[dict, Rational]:
    """Optimal decoding for a fixed encoding: majority vote on each message fiber.

    Ties break to z = 0; an empty fiber (constant-ish encodings) also
    decodes to 0, which costs nothing since no input lands there.
    """
    if encoding.n != fset.n:
        raise WidthMismatchError(f"encoding width {encoding.n} != set width {fset.n}")
    m = 1 << fset.n
    k = len(fset)
    sent = table_bits(encoding.table, m)[None]
    decodings, score = _best_decodings(sent, sign_matrix(fset), fset.ints)
    return decodings[0], Rational((m * k + int(score[0])) // 2, m * k)


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
    """Exact classical optimum by enumerating decoding signs up to translation.

    Given the encoding ω(x), question y scores best with z = ω ⊕ c_y: a
    constant guess wins exactly half of a balanced question, never more.
    With g[x, y] = (-1)^{f_y(x)} this gives

        wins = (2^n k + max_s Σ_x |h_s(x)|) / 2,   h_s = Σ_y s_y g[·, y],

    over sign vectors s ∈ {±1}^k.  An encoding is optimal iff
    ω(x) = [h_s(x) < 0] wherever h_s(x) ≠ 0, for some optimal s (its
    negation gives the complement).

    Only 2^(k-r) sign vectors are searched, r the rank of the labels' GF(2)
    span.  Translating the input by a flips the signs by a character:
    g[x ⊕ a, y] = (-1)^{a·y} g[x, y], so h_s(x ⊕ a) = h_{s⊙χ_a}(x) with
    χ_a = ((-1)^{a·y})_y, and Σ_x |h_s(x)| is constant on each orbit
    {s⊙χ_a}.  Take as basis the labels, in set order, that are independent
    of those before them.  The values a·b on a basis can be set at will, so
    each orbit holds exactly one s that is +1 on every basis label: a χ_a
    that is +1 on the basis is +1 on its span, hence on every label.  So the
    representatives are the sign vectors that are +1 on the basis, built by
    doubling over the free labels, and each optimal s is the row
    x ↦ h_rep(x ⊕ a) of an optimal representative's orbit, for some a.  The
    search costs O(2^(k-r) · 2^n) additions instead of a scan over all
    2^(2^n) encodings; the orbit rows of the optimal representatives (each
    sign vector 2^(n-r) times) fix the tables.  Returns the optimum and the
    optimal strategies, each with its best_decoding, in ascending
    encoding-table order, capped at max_strategies since optima are
    typically far from unique.  Width is capped at ENUM_MAX_WIDTH.
    """
    check_integer("max_strategies", max_strategies)
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
    basis, free, span = [], [], {0}
    for j, y in enumerate(fset.ints):
        if y in span:
            free.append(j)
        else:
            basis.append(j)
            span |= {v ^ y for v in span}
    # h[i] = h_s for every s that is +1 on the basis, built by doubling over
    # the free labels
    h = np.empty((1 << len(free), m))
    h[0] = g[:, basis].sum(axis=1)
    for i, j in enumerate(free):
        half = 1 << i
        h[half : 2 * half] = h[:half] - g[:, j]
        h[:half] += g[:, j]
    score = np.abs(h).sum(axis=1)
    best = score.max()
    x = np.arange(m)
    orbits = h[score == best][:, x[:, None] ^ x].reshape(-1, m)
    tables = _optimal_tables(orbits, max_strategies)
    decodings, _ = _best_decodings((tables[:, None] >> np.arange(m)) & 1, g, fset.ints)
    strategies = [
        ClassicalStrategy(BooleanFn(n, int(t)), dec) for t, dec in zip(tables, decodings)
    ]
    return Rational((m * k + int(best)) // 2, m * k), strategies


# ---------------------------------------------------------------------------
# Standard (k -> 1) random access codes as a lower-bound subroutine.  These
# act on k independent bits, so they get their own small representation: the
# question-set width cap does not apply to the derived-bit alphabet.

def _check_rac_size(k: int) -> None:
    check_integer("RAC size", k)
    if not 1 <= k <= 10:
        raise InvalidInputError(f"RAC size must be in 1..10, got {k}")


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
        _check_rac_size(self.k)
        check_integer("RAC encoding", self.encoding)
        if not 0 <= self.encoding < 1 << (1 << self.k):
            raise InvalidInputError("encoding mask wider than 2^k bits")
        if len(self.decoding) != self.k:
            raise InvalidInputError("decoding must list one (z0, z1) pair per position")
        for pair in self.decoding:
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise InvalidInputError(f"a decoding entry must be a pair (z0, z1), got {pair!r}")
            for z in pair:
                check_integer("RAC guess", z)
                if z not in (0, 1):
                    raise InvalidInputError(f"a RAC guess must be 0 or 1, got {z}")

    def encode(self, b: int) -> int:
        return (self.encoding >> b) & 1


def rac_value(rac: RACStrategy) -> Rational:
    """Average success of a RAC strategy over uniform inputs and positions.

    bits[b, p] is bit p of input b, counted from the most significant, and
    guess[b, p] is position p's decoding of the message b sends.
    """
    k = rac.k
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    guess = np.array(rac.decoding)[np.arange(k), table_bits(rac.encoding, 1 << k)[:, None]]
    return Rational(int((guess == bits).sum()), (1 << k) * k)


def optimal_rac_strategy(k: int) -> RACStrategy:
    """Majority encoding with the identity decoding z = ω; optimal for all k.

    The identity is every position's majority decode: a string that sends 1
    has more ones than zeros and one that sends 0 has no more, so summed over
    either message's strings the ones outnumber the zeros exactly when the
    message is 1, and by symmetry each position holds an equal share of
    that sum.
    """
    _check_rac_size(k)
    return RACStrategy(k, _majority_table(k), ((0, 1),) * k)


def rac_optimum(k: int) -> Rational:
    """Closed-form optimal k -> 1 RAC success count (majority of k-1 free bits)."""
    check_integer("RAC size", k)
    if k < 1:
        raise InvalidInputError(f"RAC size must be at least 1, got {k}")
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
    if perm is None:
        perm = tuple(range(k))
    order = np.asarray(perm)
    if order.dtype.kind not in "iu" or sorted(order.tolist()) != list(range(k)):
        raise InvalidInputError(f"perm must permute 0..{k - 1}, got {perm}")
    _, sent = _lift_bits(rac, sign_matrix(fset) < 0, order[None])
    labels = np.array(fset.ints)[order].tolist()
    decoding = {
        (r, omega): rac.decoding[p][omega] for p, r in enumerate(labels) for omega in (0, 1)
    }
    return ClassicalStrategy(BooleanFn(fset.n, bits_table(sent[0])), decoding)


def _lift_bits(rac: RACStrategy, f: np.ndarray, orders: np.ndarray):
    """Derived bits and lifted encoding bits of each row of orders, from f = [g < 0].

    derived[i, x, p] is f_{orders[i, p]}(x), read as bit p of the RAC input
    counted from the most significant; sent[i, x] is the RAC's message on it.
    """
    k = f.shape[1]
    if rac.k != k:
        raise CardinalityMismatchError(f"RAC size {rac.k} != set size {k}")
    derived = f[:, orders].transpose(1, 0, 2)
    sent = table_bits(rac.encoding, 1 << k)[derived @ (1 << np.arange(k - 1, -1, -1))]
    return derived, sent


_PERM_CHUNK = 40320  # permutations per batch: all of them up to k = 8; bounds memory above


def best_lift(rac: RACStrategy, fset: FunctionSet) -> tuple[ClassicalStrategy, Rational]:
    """Best ordering of the derived string, scoring all k! permutations from one g.

    Ties go to the first permutation in itertools.permutations order.
    """
    k = len(fset)
    f = sign_matrix(fset) < 0
    decode = np.array(rac.decoding, dtype=bool)
    perms = permutations(range(k))
    best_wins, best_perm = -1, None
    while chunk := list(islice(perms, _PERM_CHUNK)):
        derived, sent = _lift_bits(rac, f, np.array(chunk))
        wins = (decode[np.arange(k), sent[..., None]] == derived).sum(axis=(1, 2))
        i = int(np.argmax(wins))
        if wins[i] > best_wins:
            best_wins, best_perm = int(wins[i]), chunk[i]
    return lift_rac_strategy(rac, fset, best_perm), Rational(best_wins, len(f) * k)
