"""Counter-based deterministic digit generator.

Every digit is a pure function of (seed, sample_index, digit_index), so
samples are reproducible and the realization order is irrelevant. The
scalar and the numpy paths are bit-compatible; the scalar one is the
reference.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MC1 = 0xBF58476D1CE4E5B9
_MC2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MC1) & _MASK
    z = ((z ^ (z >> 27)) * _MC2) & _MASK
    return z ^ (z >> 31)


def digit_at(seed: int, sample_index: int, digit_index: int, base: int) -> int:
    """Uniform digit in [0, base) keyed by (seed, sample, position)."""
    u = mix64(seed + (sample_index + 1) * _GOLD)
    v = mix64(u + (digit_index + 1) * _GOLD)
    rem = 2**64 % base
    w = mix64(v)
    if rem:
        # rejection keeps the law exactly uniform
        limit = 2**64 - rem
        attempt = 0
        while w >= limit:
            attempt += 1
            w = mix64(v + attempt * _GOLD)
    return w % base


# --- vectorized twin -------------------------------------------------------

_NP_MC1 = np.uint64(_MC1)
_NP_MC2 = np.uint64(_MC2)


def _mix64_np(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied to z in place; tmp is scratch of z's shape."""
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= _NP_MC1
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= _NP_MC2
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def sample_keys(seed: int, n_samples: int, first_index: int = 0) -> np.ndarray:
    """Mixed SplitMix64 keys of samples first_index .. first_index +
    n_samples - 1, as uint64: the per-sample word u of digit_at. One key
    array serves every digit_block call on the same samples."""
    u = np.arange(first_index, first_index + n_samples, dtype=np.uint64)
    u += 1
    u *= _GOLD
    u += seed & _MASK
    return _mix64_np(u, np.empty_like(u))


def digit_block(keys: np.ndarray, base: int, positions) -> np.ndarray:
    """Digit matrix of shape (len(keys), len(positions)) with contiguous
    columns, in the smallest unsigned dtype that holds base - 1.

    keys come from sample_keys; row i holds the digits of the sample keyed
    keys[i] at the requested positions, identical to digit_at entry by
    entry. The position-major array is filled one position at a time, so
    besides the keys and the output only two len(keys)-long buffers are
    live.
    """
    dtype = np.min_scalar_type(base - 1)
    b = np.uint64(base)
    rem = 2**64 % base
    limit = 2**64 - rem
    # a power-of-two base takes the low bits of the word
    mask = None if base & (base - 1) else np.uint64(base - 1)
    offsets = [(int(j) + 1) * _GOLD & _MASK for j in positions]
    out = np.empty((len(offsets), len(keys)), dtype=dtype)
    w = np.empty_like(keys)
    tmp = np.empty_like(keys)
    for row, offset in zip(out, offsets):
        np.add(keys, offset, out=w)
        _mix64_np(_mix64_np(w, tmp), tmp)
        if mask is not None:
            np.bitwise_and(w, mask, out=row, casting="unsafe")
        else:
            # w - (w // b) * b: uint64 floor division by a scalar is much
            # faster than the remainder ufunc
            np.floor_divide(w, b, out=tmp)
            tmp *= b
            np.subtract(w, tmp, out=row, casting="unsafe")
        if rem and w.max(initial=0) >= limit:
            # rejection keeps the law exactly uniform
            bad = np.flatnonzero(w >= limit)
            v = _mix64_np(keys[bad] + offset, np.empty(bad.size, np.uint64))
            attempt = 0
            while bad.size:
                attempt += 1
                w2 = v + (attempt * _GOLD & _MASK)
                _mix64_np(w2, np.empty_like(w2))
                row[bad] = w2 % b
                keep = w2 >= limit
                bad, v = bad[keep], v[keep]
    return out.T
