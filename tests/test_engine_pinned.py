"""The exact engine's cache files, pinned byte for byte.

tests/data/engine_pinned.json holds the sha256 of the cache file that
`distribution` writes for a fixed set of (base, r, K): bases 2, 3, 10, 16
and 200, r from 0 to 60 digits, the default cutoff K and a K below the
digit count. Every carry numerator and the tail numerator are in that
file, so any change to an atom shows up here.

Re-record (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_engine_pinned.py
"""
import hashlib
import json
import random
import tempfile
from pathlib import Path

from digitdrift.exactdist import cache_key, default_atom_cutoff, DEFAULT_TAIL_EPS, distribution

PINNED = Path(__file__).parent / "data" / "engine_pinned.json"


def _cases() -> list[tuple[int, int, int | None]]:
    """(base, r, atoms): atoms None takes the default cutoff."""
    rng = random.Random(18)
    cases = []
    for base in (2, 3, 10, 16, 200):
        cases.append((base, 0, None))
        for L in (1, 5, 24, 60):
            r = rng.randrange(base ** (L - 1), base**L)
            cases += [(base, r, None), (base, r, L // 2)]
        cases.append((base, base**7 - 1, None))  # one run of top digits
    return cases


def engine_outputs() -> list[dict]:
    out = []
    with tempfile.TemporaryDirectory() as cache:
        for base, r, atoms in _cases():
            distribution(r, base, atoms=atoms, cache_dir=cache)
            K = default_atom_cutoff(r, base, DEFAULT_TAIL_EPS) if atoms is None else atoms
            data = (Path(cache) / cache_key(base, r, K)).read_bytes()
            out.append({"base": base, "r": hex(r), "K": K, "sha256": hashlib.sha256(data).hexdigest()})
    return out


def test_cache_files_match_pinned():
    want = json.loads(PINNED.read_text())
    got = engine_outputs()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, (w["base"], w["r"], w["K"])


if __name__ == "__main__":
    PINNED.write_text(json.dumps(engine_outputs(), indent=1) + "\n")
