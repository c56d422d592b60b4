"""Base-b expansions, digit sums, carry counting and block decomposition.

Digits are stored least-significant first; anything shown to a human is
printed most-significant first. The canonical expansion of 0 is the empty
digit sequence.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidBase, ZeroHasNoBlocks


def check_base(base: int) -> None:
    if not isinstance(base, int) or base < 2:
        raise InvalidBase(f"base must be an integer >= 2, got {base!r}")


def int_digit_sum(n: int, base: int) -> int:
    """Digit sum of a nonnegative integer, without building an Expansion."""
    check_base(base)
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = 0
    while n:
        n, d = divmod(n, base)
        s += d
    return s


@dataclass(frozen=True)
class Expansion:
    """A canonical base-b digit string together with its integer value."""

    base: int
    digits: tuple[int, ...]  # least-significant first, no trailing zero

    def __post_init__(self):
        check_base(self.base)
        if any(not (0 <= d < self.base) for d in self.digits):
            raise ValueError(f"digit out of range for base {self.base}")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("non-canonical expansion: most-significant digit is 0")

    def value(self) -> int:
        return digits_value(self.msb_first(), self.base)

    def digit_count(self) -> int:
        return len(self.digits)

    def msb_first(self) -> tuple[int, ...]:
        return tuple(reversed(self.digits))

    def __str__(self) -> str:
        if not self.digits:
            return "0"
        sep = "" if self.base <= 10 else "."
        return sep.join(str(d) for d in self.msb_first())


def digits_value(msb, base: int) -> int:
    """Integer value of base-b digits given most-significant first."""
    v = 0
    for d in msb:
        v = v * base + d
    return v


def expand(n: int, base: int) -> Expansion:
    """Canonical expansion of a nonnegative integer."""
    check_base(base)
    if n < 0:
        raise ValueError("n must be nonnegative")
    ds = []
    while n:
        n, d = divmod(n, base)
        ds.append(d)
    return Expansion(base, tuple(ds))


def digit_sum(e: Expansion) -> int:
    return sum(e.digits)


def drift(n: int, r: int, base: int) -> int:
    """Change of the digit sum when adding r to n: s(n+r) - s(n)."""
    check_base(base)
    return int_digit_sum(n + r, base) - int_digit_sum(n, base)


def carry_count(n: int, r: int, base: int) -> int:
    """Number of carries created by the addition n + r in base b.

    Satisfies drift(n, r, b) == s(r) - carry_count(n, r, b) * (b - 1).
    """
    check_base(base)
    diff = int_digit_sum(r, base) - drift(n, r, base)
    q, rem = divmod(diff, base - 1)
    assert rem == 0, "carry identity violated"
    return q


class BlockKind(Enum):
    ZERO = "zero"  # run of 0's
    MAX = "max"  # run of (b-1)'s
    SINGLE = "single"  # one digit in [1, b-2]


@dataclass(frozen=True)
class Block:
    kind: BlockKind
    digit: int  # the repeated digit (0, b-1, or the single digit value)
    length: int
    position: int  # lsb index of the block's least-significant digit

    def value(self, base: int) -> int:
        """Integer contribution of this block inside the full expansion."""
        run = self.digit * (base**self.length - 1) // (base - 1)
        return run * base**self.position


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal-run decomposition of a nonzero expansion, most-significant first.

    rho counts all blocks, lam only those that are not runs of 0's.
    """

    base: int
    blocks: tuple[Block, ...]
    rho: int
    lam: int


def decompose_blocks(e: Expansion) -> BlockDecomposition:
    """Split an expansion into maximal runs of 0's, runs of (b-1)'s and
    single digits in [1, b-2].

    A run of 0's or (b-1)'s of length 1 still counts as a run, never as a
    single-digit block.
    """
    if not e.digits:
        raise ZeroHasNoBlocks("r = 0 has an empty expansion")
    b = e.base
    msb = e.msb_first()
    n = len(msb)
    blocks = []
    i = 0
    while i < n:
        d = msb[i]
        if d == 0 or d == b - 1:
            j = i
            while j < n and msb[j] == d:
                j += 1
            kind = BlockKind.ZERO if d == 0 else BlockKind.MAX
            blocks.append(Block(kind, d, j - i, n - j))
            i = j
        else:
            blocks.append(Block(BlockKind.SINGLE, d, 1, n - i - 1))
            i += 1
    rho = len(blocks)
    lam = sum(1 for blk in blocks if blk.kind is not BlockKind.ZERO)
    return BlockDecomposition(b, tuple(blocks), rho, lam)


def rho_lambda(r: int, base: int) -> tuple[int, int]:
    """Block counts (rho, lambda) of a nonzero integer."""
    dec = decompose_blocks(expand(r, base))
    return dec.rho, dec.lam


def reverse_expansion(e: Expansion) -> Expansion:
    """Reverse the written digit order, then drop leading zeros.

    Not an involution in general: trailing zeros of the input are lost.
    """
    ds = list(reversed(e.digits))
    while ds and ds[-1] == 0:
        ds.pop()
    return Expansion(e.base, tuple(ds))


def block_prefix_integers(e: Expansion) -> list[int]:
    """Partial integers keeping the first i nonzero blocks (left to right)
    and zeroing the rest; index 0 is 0 and the last entry is value(e).
    """
    dec = decompose_blocks(e)
    b = e.base
    prefixes = [0]
    acc = 0
    for blk in dec.blocks:
        if blk.kind is BlockKind.ZERO:
            continue
        acc += blk.value(b)
        prefixes.append(acc)
    return prefixes
