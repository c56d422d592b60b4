"""estimate_phi_grid's outputs, pinned bit for bit.

tests/data/phi_pinned.json holds float.hex of estimate and ci, and the
kept event counts, of acceptance criterion 8's 16 (k, p) on a process
matrix of (10)^16 in base 2 at 10^5 samples, whose last 64-bit event word
is ragged. Any change to an event, a count or the argmax order shows up
here.

Re-record (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_phi_pinned.py
"""
import json
from pathlib import Path

from digitdrift.mixing import estimate_phi_grid, process_matrix

PINNED = Path(__file__).parent / "data" / "phi_pinned.json"

R, BASE, SAMPLES, SEED = int("10" * 16, 2), 2, 10**5, 42
KS, PS = range(3, 11), (1, 4)


def phi_outputs() -> list[dict]:
    X = process_matrix(R, BASE, SAMPLES, SEED)
    return [
        {
            "k": est.k,
            "p": est.p,
            "estimate": est.estimate.hex(),
            "ci": est.ci.hex(),
            "a_events": est.a_events,
            "b_events": est.b_events,
        }
        for est in estimate_phi_grid(R, BASE, KS, PS, X)
    ]


def test_phi_outputs_match_pinned():
    want = json.loads(PINNED.read_text())
    got = phi_outputs()
    for g, w in zip(got, want):
        assert g == w, (w["k"], w["p"])
    assert got == want


if __name__ == "__main__":
    PINNED.write_text(json.dumps(phi_outputs(), indent=1) + "\n")
