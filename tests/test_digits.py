import pytest
from hypothesis import given
from hypothesis import strategies as st

from digitdrift.digits import (
    Block,
    BlockKind,
    Expansion,
    block_prefix_integers,
    carry_count,
    decompose_blocks,
    digits_value,
    drift,
    expand,
    int_digit_sum,
    reverse_expansion,
)
from digitdrift.errors import InvalidBase, ZeroHasNoBlocks

BASES = [2, 3, 10, 16]


def naive_digits(n, b):
    out = []
    while n:
        n, d = divmod(n, b)
        out.append(d)
    return tuple(out)


def test_expand_zero_is_empty():
    assert expand(0, 10).digits == ()
    assert expand(0, 10).value() == 0
    assert str(expand(0, 10)) == "0"


@pytest.mark.parametrize("b", BASES + [200])
def test_digits_value_inverts_expand(b):
    assert digits_value([], b) == 0
    for n in (1, b - 1, b, 118, 5900991, b**9 + 3):
        assert digits_value(expand(n, b).msb_first(), b) == n
    assert digits_value([0, 0, 1], b) == 1  # leading zeros add nothing


def test_expand_examples():
    assert expand(118, 2).digits == (0, 1, 1, 0, 1, 1, 1)
    assert expand(5900991, 10).digits == (1, 9, 9, 0, 0, 9, 5)


def test_expand_rejects_bad_base():
    with pytest.raises(InvalidBase):
        expand(5, 1)
    with pytest.raises(InvalidBase):
        drift(1, 2, 0)


def test_expansion_rejects_non_canonical():
    with pytest.raises(ValueError):
        Expansion(2, (1, 0))
    with pytest.raises(ValueError):
        Expansion(2, (2,))


@given(st.integers(0, 2**256), st.sampled_from(BASES))
def test_expand_round_trip(n, b):
    e = expand(n, b)
    assert e.value() == n
    assert e.digits == naive_digits(n, b)
    if n:
        assert e.digits[-1] != 0


def test_digit_sum_examples():
    assert int_digit_sum(0, 10) == 0
    assert int_digit_sum(118, 2) == 5 == bin(118).count("1")
    assert int_digit_sum(999, 10) == 27


def test_drift_examples():
    assert drift(5, 7, 10) == -2
    assert drift(3, 1, 2) == -1
    for n in (0, 7, 123456):
        assert drift(n, 0, 10) == 0


def test_carry_count_examples():
    assert carry_count(5, 7, 10) == 1
    assert carry_count(3, 1, 2) == 2
    assert carry_count(12345, 0, 10) == 0


@given(
    st.integers(0, 10**30),
    st.integers(0, 10**30),
    st.sampled_from(BASES),
)
def test_carry_identity(n, r, b):
    c = carry_count(n, r, b)
    assert c >= 0
    assert drift(n, r, b) == int_digit_sum(r, b) - c * (b - 1)


@given(
    st.integers(0, 10**24),
    st.integers(0, 10**24),
    st.integers(0, 10**24),
    st.sampled_from(BASES),
)
def test_drift_cocycle(n, t, u, b):
    assert drift(n, t + u, b) == drift(n, t, b) + drift(n + t, u, b)


def test_decompose_118_base2():
    dec = decompose_blocks(expand(118, 2))
    kinds = [(blk.kind, blk.length) for blk in dec.blocks]
    assert kinds == [
        (BlockKind.MAX, 3),
        (BlockKind.ZERO, 1),
        (BlockKind.MAX, 2),
        (BlockKind.ZERO, 1),
    ]
    assert dec.rho == 4
    assert dec.lam == 2


def test_decompose_5900991_base10():
    dec = decompose_blocks(expand(5900991, 10))
    kinds = [(blk.kind, blk.digit, blk.length) for blk in dec.blocks]
    assert kinds == [
        (BlockKind.SINGLE, 5, 1),
        (BlockKind.MAX, 9, 1),
        (BlockKind.ZERO, 0, 2),
        (BlockKind.MAX, 9, 2),
        (BlockKind.SINGLE, 1, 1),
    ]
    assert dec.rho == 5
    assert dec.lam == 4


def test_decompose_single_run():
    dec = decompose_blocks(expand(7, 2))
    assert dec.rho == dec.lam == 1
    assert dec.blocks[0] == Block(BlockKind.MAX, 1, 3, 0)


def test_decompose_rejects_zero():
    with pytest.raises(ZeroHasNoBlocks):
        decompose_blocks(expand(0, 2))


@given(st.integers(1, 10**40), st.sampled_from(BASES))
def test_block_partition(r, b):
    e = expand(r, b)
    dec = decompose_blocks(e)
    assert sum(blk.length for blk in dec.blocks) == e.digit_count()
    assert dec.lam <= dec.rho <= 2 * dec.lam
    # maximality: adjacent runs never share a repeated digit kind
    for a, c in zip(dec.blocks, dec.blocks[1:]):
        if a.kind is not BlockKind.SINGLE and c.kind is not BlockKind.SINGLE:
            assert a.kind != c.kind
    # blocks reassemble the integer
    assert sum(blk.value(b) for blk in dec.blocks) == r


def test_reverse_examples():
    assert reverse_expansion(expand(6, 2)).value() == 3
    assert reverse_expansion(expand(100, 10)).value() == 1
    assert reverse_expansion(expand(121, 10)).value() == 121
    assert reverse_expansion(expand(0, 10)).value() == 0


@given(st.integers(0, 10**30), st.sampled_from(BASES))
def test_reverse_involution_on_nonzero_units(r, b):
    if r % b == 0 and r != 0:
        r += 1  # force a nonzero units digit
    e = expand(r, b)
    assert reverse_expansion(reverse_expansion(e)) == e


def test_block_prefix_examples():
    assert block_prefix_integers(expand(5900991, 10)) == [
        0,
        5000000,
        5900000,
        5900990,
        5900991,
    ]
    assert block_prefix_integers(expand(118, 2)) == [0, 112, 118]
    assert block_prefix_integers(expand(7, 2)) == [0, 7]


@given(st.integers(1, 10**30), st.sampled_from(BASES))
def test_block_prefix_structure(r, b):
    prefixes = block_prefix_integers(expand(r, b))
    dec = decompose_blocks(expand(r, b))
    assert prefixes[0] == 0
    assert prefixes[-1] == r
    assert len(prefixes) == dec.lam + 1
    assert all(a < c for a, c in zip(prefixes, prefixes[1:]))
