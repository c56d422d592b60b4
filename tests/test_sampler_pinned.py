"""The sampler's outputs, pinned byte for byte.

tests/data/sampler_pinned.json holds the sha256, shape and dtype of
sample_digit_matrix and process_from_digits on a fixed set of cases, and
the exact stdout of the phi and simulate --process commands of the
cli-sampling benchmark for three seeds. Any change to a seeded digit, a
drift value or a printed line shows up here.

Re-record (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_sampler_pinned.py
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from digitdrift import cli, odometer, rng
from digitdrift.mixing import process_from_digits

PINNED = Path(__file__).parent / "data" / "sampler_pinned.json"

# (r, base, samples, seed, first_index). Bases that do not divide 2**64
# reject the raw words past the last whole multiple of the base, 2**64 %
# base of the 2**64: that is 1, 2 and 1 words for bases 3, 7 and 257, so
# they never reject in practice, and 2**60 (1/16 of draws) for 3 * 2**60,
# the one case that covers the rejection branch (see
# test_pinned_rejection_base_draws_rejected_words). It is the sampler's
# largest 3 * 2**k base (a base past 2**62 overflows its int64 sums).
MATRIX_CASES = [
    (5900991, 10, 50_000, 0, 0),
    (int("10" * 16, 2), 2, 5000, 0, 0),
    *(
        (r, base, 4000, 7, first_index)
        for r, base in (
            (int("2120212", 3), 3),
            (int("6543210", 7), 7),
            (200 * 257**2 + 5, 257),
            (5, 3 * 2**60),
        )
        for first_index in (0, 1000)
    ),
]

# the cli-sampling benchmark's two commands, each with --seed appended
CLI_COMMANDS = [
    ["phi", "10" * 16, "--radix-input", "--base", "2", "--k", "3,4", "--p", "1,4", "--samples", "5000"],
    ["simulate", "5900991", "--samples", "50000", "--process"],
]
CLI_SEEDS = (0, 1, 2024)


def _digest(a: np.ndarray) -> dict:
    return {
        "sha256": hashlib.sha256(a.tobytes()).hexdigest(),
        "shape": list(a.shape),
        "dtype": str(a.dtype),
    }


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return out.getvalue()


def sampler_outputs() -> dict:
    matrices = []
    for r, base, n, seed, first_index in MATRIX_CASES:
        X = odometer.sample_digit_matrix(r, base, n, seed, first_index)
        matrices.append(
            {
                "case": [str(r), str(base), n, seed, first_index],
                "sample_digit_matrix": _digest(X),
                "process_from_digits": _digest(process_from_digits(X, r, base)),
            }
        )
    with tempfile.TemporaryDirectory() as cache, mock.patch.dict(os.environ, {"DIGITDRIFT_CACHE": cache}):
        commands = [
            {"argv": argv, "stdout": _stdout(argv)}
            for argv in (cmd + ["--seed", str(seed)] for cmd in CLI_COMMANDS for seed in CLI_SEEDS)
        ]
    return {"matrices": matrices, "commands": commands}


def test_sampler_outputs_match_pinned():
    want = json.loads(PINNED.read_text())
    got = sampler_outputs()
    for g, w in zip(got["matrices"], want["matrices"]):
        assert g == w, w["case"]
    for g, w in zip(got["commands"], want["commands"]):
        assert g == w, w["argv"]
    assert got == want


def test_pinned_rejection_base_draws_rejected_words():
    # the first raw word of position 0, as rng.digit_at draws it
    for r, base, n, seed, first_index in MATRIX_CASES:
        if base != 3 * 2**60:
            continue
        limit = 2**64 - 2**64 % base
        rejected = sum(
            rng.mix64(rng.mix64(rng.mix64(seed + (i + 1) * rng._GOLD) + rng._GOLD)) >= limit
            for i in range(first_index, first_index + n)
        )
        assert rejected > n // 32, (first_index, rejected)  # about n / 16 expected


if __name__ == "__main__":
    PINNED.write_text(json.dumps(sampler_outputs(), indent=1) + "\n")
