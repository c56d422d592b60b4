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

_NP_GOLD = np.uint64(_GOLD)
_NP_MC1 = np.uint64(_MC1)
_NP_MC2 = np.uint64(_MC2)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _NP_MC1
    z = (z ^ (z >> np.uint64(27))) * _NP_MC2
    return z ^ (z >> np.uint64(31))


def digit_block(
    seed: int,
    base: int,
    n_samples: int,
    positions,
    first_index: int = 0,
) -> np.ndarray:
    """Digit matrix of shape (n_samples, len(positions)) with contiguous
    columns, in the smallest unsigned dtype that holds base - 1.

    Row i holds the digits of sample first_index + i at the requested
    positions; identical to digit_at entry by entry.
    """
    dtype = np.min_scalar_type(base - 1)
    si = np.arange(first_index, first_index + n_samples, dtype=np.uint64)
    u = _mix64_np(np.uint64(seed & _MASK) + (si + np.uint64(1)) * _NP_GOLD)
    dj = np.asarray(positions, dtype=np.uint64)
    v = _mix64_np(u.reshape(1, -1) + (dj.reshape(-1, 1) + np.uint64(1)) * _NP_GOLD)
    w = _mix64_np(v)
    out = (w % np.uint64(base)).astype(dtype)
    rem = 2**64 % base
    if rem:
        limit = np.uint64(2**64 - rem)
        rejected = w >= limit
        attempt = 1
        while rejected.any():
            w2 = _mix64_np(v[rejected] + np.uint64(attempt * _GOLD & _MASK))
            out[rejected] = (w2 % np.uint64(base)).astype(dtype)
            rejected[rejected] = w2 >= limit
            attempt += 1
    return out.T
