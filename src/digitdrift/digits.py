"""Base-b expansions, digit sums, carry counting and block decomposition.

Digits are stored least-significant first; anything shown to a human is
printed most-significant first. The canonical expansion of 0 is the empty
digit sequence.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, groupby
from operator import index

from .errors import InvalidBase, ZeroHasNoBlocks

_ASCII_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))
_SPLIT_DIGITS = 64  # digits of the pieces the split below reads with divmod
_MEMO_SIZE = 32  # expansions kept by expand: more than one op reads (r and its block prefixes)


def check_base(base: int) -> None:
    if not isinstance(base, int) or base < 2:
        raise InvalidBase(f"base must be an integer >= 2, got {base!r}")


def _divmod_digits(n: int, base: int, width: int = 0) -> list[int]:
    """Digits of n, least-significant first, zero-padded to width."""
    ds = []
    while n:
        n, d = divmod(n, base)
        ds.append(d)
    ds.extend([0] * (width - len(ds)))
    return ds


def _split_digits(n: int, base: int) -> list[int]:
    """Digits of n, least-significant first, by divide and conquer: split
    by b^(64 * 2^j) down to pieces of 64 digits, so the cost is that of a
    few big divisions instead of quadratic in the digit count."""
    powers = [base**_SPLIT_DIGITS]
    while powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])
    out: list[int] = []

    def read(x, j, pad):  # x < powers[j]; pad to 64 * 2^j digits
        if j == 0:
            out.extend(_divmod_digits(x, base, _SPLIT_DIGITS if pad else 0))
        elif not pad and x < powers[j - 1]:
            read(x, j - 1, False)
        else:
            hi, lo = divmod(x, powers[j - 1])
            read(lo, j - 1, True)
            read(hi, j - 1, pad)

    read(n, len(powers) - 1, False)
    return out


def _read_digits(n: int, base: int):
    """Digits of n >= 0, least-significant first, as bytes (bases 2 and 10)
    or a list: one linear pass through bin or str where it can, the split
    elsewhere. str is refused past the int -> str digit limit, which the
    library does not lift, so base 10 falls back to the split there."""
    if not n:
        return b""
    if base == 2:
        return bin(n)[:1:-1].encode().translate(_ASCII_DIGITS)
    if base == 10:
        try:
            return str(n)[::-1].encode().translate(_ASCII_DIGITS)
        except ValueError:
            pass
    if n.bit_length() <= _SPLIT_DIGITS * (base.bit_length() - 1):  # n < b^64
        return _divmod_digits(n, base)
    return _split_digits(n, base)


def int_digit_sum(n: int, base: int) -> int:
    """Digit sum of a nonnegative integer, without building an Expansion.

    Not memoized: the sampler takes many one-off sums.
    """
    check_base(base)
    if n < 0:
        raise ValueError("n must be nonnegative")
    n = index(n)
    if base == 2:
        return n.bit_count()
    return sum(_read_digits(n, base))


@dataclass(frozen=True)
class Expansion:
    """A canonical base-b digit string together with its integer value."""

    base: int
    digits: tuple[int, ...]  # least-significant first, no trailing zero

    def __post_init__(self):
        check_base(self.base)
        if self.digits and (min(self.digits) < 0 or max(self.digits) >= self.base):
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
    """Canonical expansion of a nonnegative integer.

    Memoized: callers that read the same r share one frozen Expansion.
    """
    check_base(base)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _expansion(n, base)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _expansion(n: int, base: int) -> Expansion:
    # typed: an np.int64 or bool n gets its own entry, not another type's.
    # The digits are in range by construction, so Expansion's check is skipped.
    n = index(n)
    e = object.__new__(Expansion)
    vars(e).update(base=base, digits=tuple(_read_digits(n, base)))
    return e


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

    def run(self, B):
        """The block's digits as a number at position 0, in the type of the
        base B: B**length - 1 for a run of (b-1)'s, else the digit."""
        return B**self.length - 1 if self.kind is BlockKind.MAX else self.digit

    def value(self, base: int) -> int:
        """Integer contribution of this block inside the full expansion."""
        return self.run(base) * base**self.position


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
    """Block counts (rho, lambda) of a nonzero integer, as decompose_blocks
    counts them: each run of 0's or of (b-1)'s is one block, each other
    digit one block of its own. Runs read the same from either end."""
    ds = expand(r, base).digits
    if not ds:
        raise ZeroHasNoBlocks("r = 0 has an empty expansion")
    top = base - 1
    singles = len(ds) - ds.count(0) - ds.count(top)
    runs = [d for d, _ in groupby(ds)]
    maxes = runs.count(top)
    return runs.count(0) + maxes + singles, maxes + singles


def reverse_expansion(e: Expansion) -> Expansion:
    """Reverse the written digit order, then drop leading zeros.

    Not an involution in general: trailing zeros of the input are lost.
    """
    ds = list(reversed(e.digits))
    while ds and ds[-1] == 0:
        ds.pop()
    return Expansion(e.base, tuple(ds))


def _block_prefixes(dec: BlockDecomposition, one):
    """0, t_1, ..., t_lam = r in the type of one, t_i keeping the first i
    nonzero blocks: their values from one lsb-first walk with a running
    power, summed msb first as the iterator is read, each step linear in the
    digit count. Decimal steps take the context current when they run."""
    B = one * dec.base
    power, at, values = one, 0, []
    for blk in reversed(dec.blocks):  # lsb first, power = B**at
        if blk.kind is not BlockKind.ZERO:
            power *= B ** (blk.position - at)
            at = blk.position
            values.append(blk.run(B) * power)
    return accumulate(reversed(values), initial=0 * one)


def block_prefix_integers(e: Expansion) -> list[int]:
    """Partial integers keeping the first i nonzero blocks (left to right)
    and zeroing the rest; index 0 is 0 and the last entry is value(e)."""
    return list(_block_prefixes(decompose_blocks(e), 1))
