import argparse
import contextlib
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from digitdrift import exactdist, mixing, odometer, oracle
from digitdrift.cli import _atom_rows, _verify_r_values, main, parse_r, pattern_family, UsageError
from digitdrift.digits import BlockKind, block_prefix_integers, decompose_blocks, expand
from digitdrift.odometer import MAX_CELLS, MAX_SAMPLES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mixing.__file__)))
HUGE_R = "1" + "0" * 4998 + "7"  # 5000 digits, past the int <-> str limit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv, env=None):
    """The CLI in a fresh interpreter, with a 60 s timeout."""
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "digitdrift.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_parse_r_forms():
    assert parse_r("118", 2, False) == 118
    assert parse_r("1110110", 2, True) == 118
    assert parse_r("5900991", 10, True) == 5900991
    with pytest.raises(UsageError):
        parse_r("12", 2, True)
    with pytest.raises(UsageError):
        parse_r("-3", 10, False)
    with pytest.raises(UsageError):
        parse_r("xyz", 10, False)


def test_pattern_family():
    assert pattern_family("10", [2, 4], 2) == [10, 170]
    # the --radix-input digit syntax: dot-separated digits reach past 9
    assert pattern_family("1.15", [2], 16) == [0x1F1F]
    for bad in ("19", "", "1.2.", "1-"):
        with pytest.raises(UsageError):
            pattern_family(bad, [2], 2)


def test_dist_unit_base2(capsys, tmp_cache):
    code, out, _ = run_cli(
        capsys, "dist", "1", "--base", "2", "--atoms", "4", "--cache", tmp_cache
    )
    assert code == 0
    assert "1/2" in out and "1/4" in out and "1/8" in out and "1/16" in out
    assert "tail = 1/16" in out
    # result cached as a JSON document
    files = os.listdir(tmp_cache)
    assert len(files) == 1
    with open(os.path.join(tmp_cache, files[0])) as fh:
        doc = json.load(fh)
    assert doc["r"] == "0x1"
    assert doc["tail"] == hex(2)  # tail 1/16 = 2 / b**(K+1+L), K = 3, L = 1


def test_dist_zero(capsys, tmp_cache):
    code, out, _ = run_cli(
        capsys, "dist", "0", "--base", "7", "--atoms", "3", "--cache", tmp_cache
    )
    assert code == 0
    assert "1/1" in out


def test_dist_header_blocks(capsys, tmp_cache):
    code, out, _ = run_cli(
        capsys, "dist", "5900991", "--base", "10", "--cache", tmp_cache
    )
    assert code == 0
    assert "rho = 5" in out and "lambda = 4" in out


def test_dist_json_and_csv_deterministic(capsys, tmp_cache):
    args = ["dist", "118", "--base", "2", "--atoms", "9", "--cache", tmp_cache]
    code1, out1, _ = run_cli(capsys, *args, "--format", "json")
    code2, out2, _ = run_cli(capsys, *args, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["rho"] == 4 and doc["lambda"] == 2
    code3, out3, _ = run_cli(capsys, *args, "--format", "csv")
    assert code3 == 0
    assert out3.splitlines()[0] == "k,d,mass,decimal"


@given(
    base=st.integers(2, 40000),
    r=st.integers(0, 10**40).map(str),
    atoms=st.none() | st.integers(1, 60),
)
@example(base=7, r="0", atoms=None)  # r = 0: no rho or lambda
@example(base=10, r="5900991", atoms=1)
@example(base=2, r="118", atoms=3)  # K < L: mean_interval is null
@example(base=10, r=HUGE_R, atoms=3)
def test_dist_json_is_the_indent_2_layout(base, r, atoms):
    argv = ["dist", r, "--base", str(base), "--format", "json"]
    argv += [] if atoms is None else ["--atoms", str(atoms)]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as cache, contextlib.redirect_stdout(out):
        assert main(argv + ["--cache", cache]) == 0
    text = out.getvalue()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert ("rho" in doc) == (r != "0")
    assert all(a["decimal"] == float(Fraction(a["mass"])) for a in doc["atoms"])
    assert len(doc["atoms"]) == doc["atom_count"] >= 1


def _atom_row_laws(base, tmp_path):
    """Laws of base for the row test: r = 0, r of 1 and of 6 digits, and
    r = base**6 - 1, at the default cutoff and at K < L, each from the
    engine and from the cache. Each is also built from its Fractions
    scaled by 6/7, whose denominator is no power of base, and by
    den / (den + 1), which leaves each numerator n over den + 1, coprime to
    base: its tail numerators keep their factors of base."""
    for r in (0, base - 1, 3 * base**5 + base**2 + 1, base**6 - 1):
        for K in (None, 2):
            law = exactdist.distribution(r, base, atoms=K)
            K = len(law._numerators[0]) - 1
            exactdist.save_cached_distribution(base, r, *law._numerators, str(tmp_path))
            cached = exactdist.load_cached_distribution(base, r, K, str(tmp_path))
            assert cached is not None
            den = law._numerators[1]
            for u in (law, cached):
                yield u
                for f in (Fraction(6, 7), Fraction(den, den + 1)):
                    yield dataclasses.replace(u, atoms=tuple(m * f for m in u.atoms))


@pytest.mark.parametrize("base", [2, 3, 10, 200, 2**40 + 5])
def test_atom_rows_are_the_reduced_fractions(tmp_path, base):
    for law in _atom_row_laws(base, tmp_path):
        nums, den = law._numerators
        assert list(_atom_rows(law)) == [
            (k, law.position(k), exactdist.rational_str(Fraction(n, den)), float(Fraction(n, den)))
            for k, n in enumerate(nums)
        ]


def test_cache_default_is_read_on_every_call(capsys, monkeypatch, tmp_path):
    for name in ("a", "b"):
        monkeypatch.setenv("DIGITDRIFT_CACHE", str(tmp_path / name))
        code, _, _ = run_cli(capsys, "dist", "5900991", "--atoms", "3")
        assert code == 0
        assert len(os.listdir(tmp_path / name)) == 1
    assert os.listdir(tmp_path / "a") == os.listdir(tmp_path / "b")


def test_parser_reuse_keeps_output(capsys, monkeypatch, tmp_path):
    # a usage error, then a valid call, on the one parser of this process
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, DIGITDRIFT_CACHE=str(tmp_path / "fresh"))
    code, out, _ = run_cli(capsys, "dist", "5", "--format", "yaml")
    assert (code, out) == (2, "")
    argv = ["dist", "5900991", "--format", "json", "--cache", str(tmp_path / "cache")]
    for run_argv in (argv, ["-h"], ["dist", "-h"], ["simulate", "-h"], ["clt", "-h"]):
        code, out, _ = run_cli(capsys, *run_argv)
        proc = run_cli_process(*run_argv, env=env)
        assert code == 0
        assert (code, out) == (proc.returncode, proc.stdout)


@pytest.mark.parametrize("flags", [["--atoms", "100000000"]], ids=["atoms"])
def test_dist_refuses_absurd_cutoff_at_once(flags, tmp_path):
    # 10**8 atoms would build about 10**16 numerator bits; a child process
    # lets the timeout fail this test instead of hanging the suite
    proc = run_cli_process("dist", "1", *flags, "--cache", str(tmp_path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: atom cutoff 99999999 in base 10 needs more than 4294967296 numerator bits\n"
    )
    assert not any(tmp_path.iterdir())


DIST_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "dist_tail_eps_stdout.json").read_text()
)


def _atoms_twin(command: str) -> list[str]:
    """A recorded `dist ... --tail-eps E` command as the --atoms count that
    E selected: the default cutoff for 10^-E, plus one. Beside --atoms,
    --tail-eps was ignored."""
    argv = command.split()
    i = argv.index("--tail-eps")
    exp = int(argv.pop(i + 1))
    argv.pop(i)
    if "--atoms" not in argv:
        base = int(argv[argv.index("--base") + 1]) if "--base" in argv else 10
        cutoff = exactdist.default_atom_cutoff(int(argv[1]), base, Fraction(1, 10**exp))
        argv += ["--atoms", str(cutoff + 1)]
    return argv


@pytest.mark.parametrize("command", sorted(DIST_STDOUT))
def test_dist_tail_eps_stdout_is_pinned(capsys, tmp_path, command):
    # stdout recorded when distribution still took tail_eps and dist took
    # --tail-eps, run through each command's --atoms twin
    code, out, err = run_cli(capsys, *_atoms_twin(command), "--cache", str(tmp_path))
    assert (code, out, err) == (0, DIST_STDOUT[command], "")


@pytest.mark.parametrize(
    "argv",
    [["dist", "5", "--tail-eps", "12"], ["clt", "--list", "f"], ["verify", "1..3", "--seed", "1"]],
    ids=["dist-tail-eps", "clt-list", "verify-seed"],
)
def test_removed_options_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


CLI_STDOUT = json.loads((Path(__file__).parent / "data" / "cli_stdout_pinned.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_STDOUT))
def test_cli_stdout_is_pinned(capsys, tmp_path, command):
    # stdout recorded while every consumer still read the law as one
    # Fraction per atom: dist in all three formats (r = 0, 1, bases 2, 10,
    # 200 and 3 * 2**60), cold and then warm from the cache, and verify.
    # blocks (bases 2, 10, 16 and 3 * 2**60, and a 5000-digit r) was
    # recorded while each consumer still worked out r's blocks on its own
    argv = command.split()
    runs = 2 if argv[0] == "dist" else 1
    if argv[0] == "dist":
        argv += ["--cache", str(tmp_path)]
    for _ in range(runs):
        assert run_cli(capsys, *argv) == (0, CLI_STDOUT[command], "")


def test_dist_bad_base(capsys):
    code, _, err = run_cli(capsys, "dist", "5", "--base", "1")
    assert code == 2


def test_blocks(capsys):
    code, out, _ = run_cli(capsys, "blocks", "5900991", "--base", "10")
    assert code == 0
    assert "rho = 5" in out
    assert "0, 5000000, 5900000, 5900990, 5900991" in out
    code, _, _ = run_cli(capsys, "blocks", "0", "--base", "10")
    assert code == 2


@given(
    st.integers(1, 10**60),
    st.one_of(st.sampled_from([2, 3, 10, 16]), st.integers(2, 2**62)),
    st.integers(0, 40),
)
@example(10**60 - 1, 10, 0)
def test_prefix_strs_print_the_prefix_integers(r, b, shift):
    # blocks prints the Decimal walk and block_prefix_integers returns the int
    # one; the reference sums each nonzero block's value on its own
    n = r * b**shift
    e = expand(n, b)
    values = [blk.value(b) for blk in decompose_blocks(e).blocks if blk.kind is not BlockKind.ZERO]
    want = list(accumulate(values, initial=0))
    assert block_prefix_integers(e) == want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["blocks", str(n), "--base", str(b)]) == 0
    assert f"\nprefix integers: {', '.join(map(str, want))}\n" in out.getvalue()


HUGE3_BLOCKS_SHA256 = "800b33b9f5b849e07c4ffd22cb8aafab0f9857b03f5cc356877f7f9148cde4d2"


def test_blocks_streams_its_prefix_integers():
    # the 30000-digit base-3 r that CI runs: 16821 prefix integers, 240 MB of
    # stdout. Printed one at a time, the process stays near its Decimal block
    # values; a line of all the prefixes at once peaked at 551 MB. The child
    # hashes its own stdout and reports its own peak RSS in KiB: VmHWM, since
    # ru_maxrss keeps the RSS of the process that forked it across exec
    script = (
        "import hashlib, io, random, sys\n"
        "from digitdrift.cli import main\n"
        "g = random.Random(3)\n"
        "r = '1' + ''.join(str(g.randrange(3)) for _ in range(29999))\n"
        "class Sha(io.TextIOBase):\n"
        "    sha = hashlib.sha256()\n"
        "    def write(self, s):\n"
        "        self.sha.update(s.encode())\n"
        "        return len(s)\n"
        "out, sys.stdout = sys.stdout, Sha()\n"
        "code = main(['blocks', r, '--radix-input', '--base', '3'])\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "out.write(f'{code} {Sha.sha.hexdigest()} {hwm}')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    code, sha, peak_kib = proc.stdout.split()
    assert (code, sha) == ("0", HUGE3_BLOCKS_SHA256)
    assert int(peak_kib) < 200 * 1024


def test_verify_range_is_lazy():
    # a list of 10**9 ints would take about 38 GB before the first check
    args = argparse.Namespace(random=None, range="1..1000000000")
    tracemalloc.start()
    try:
        r_values = _verify_r_values(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000
    assert len(r_values) == 10**9
    assert (r_values[0], r_values[-1]) == (1, 10**9)


def test_verify_bounds_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "1..64", "--base", "2", "--checks", "bounds"
    )
    assert code == 0
    assert "failures=0" in out


def test_verify_reverse_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "1..40", "--base", "10", "--checks", "reverse"
    )
    assert code == 0


def test_verify_recursion_random(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--random",
        "12",
        "--digits",
        "30",
        "--base",
        "10",
        "--checks",
        "recursion,bounds",
    )
    assert code == 0


def test_verify_enclosure_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "1..8", "--base", "2", "--checks", "enclosure", "--level", "12"
    )
    assert code == 0


def test_verify_zero_range_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "0..0", "--base", "2")
    assert code == 2


def test_verify_unknown_check(capsys):
    code, _, _ = run_cli(capsys, "verify", "1..4", "--checks", "wat")
    assert code == 2


def _moved_mass(real, r_values):
    """exactdist.distribution, but the law of each r in r_values has the mass
    of atom 0 moved onto its last stored atom, which the recursion check
    always reads: the total stays, the law is wrong."""

    def law(r, base, **kwargs):
        good = real(r, base, **kwargs)
        if r not in r_values:
            return good
        (n0, *mid, last), den = good._numerators
        return exactdist._from_numerators(r, base, [0, *mid, last + n0], den)

    return law


@pytest.mark.parametrize("check", ["recursion", "reverse", "bounds", "enclosure"])
def test_verify_prints_each_failure_and_exits_1(capsys, monkeypatch, check):
    r_values = (12, 13)  # their reverses, 21 and 31, keep the true law
    if check in ("recursion", "reverse"):
        monkeypatch.setattr(exactdist, "distribution", _moved_mass(exactdist.distribution, r_values))
    elif check == "bounds":
        real = exactdist.check_variance_bounds
        monkeypatch.setattr(
            exactdist, "check_variance_bounds",
            lambda r, base: dataclasses.replace(real(r, base), variance=Fraction(0)),
        )
    else:
        monkeypatch.setattr(
            oracle, "check_enclosures",
            lambda dist, level: [oracle.EnclosureViolation(
                dist.r, dist.base, level, 0, dist.s_r, Fraction(1), Fraction(0), Fraction(0)
            )],
        )
    code, out, err = run_cli(capsys, "verify", "12..13", "--checks", check)
    *fails, summary = out.splitlines()
    assert (code, err) == (1, "")
    assert summary == f"verify: 2 values, checks={check}, failures={len(fails)}"
    # every r fails, each failure on one line of its own
    assert {line.split()[2].rstrip(":") for line in fails} == {"r=12", "r=13"}
    assert all(line.startswith(f"FAIL {check} r=1") for line in fails)
    if check != "recursion":  # recursion prints one line per bad point
        assert len(fails) == 2
    else:  # each r reads its last stored atom once, and the text is pinned
        assert fails == [
            "FAIL recursion r=12 d=-42: 450027/625000 != 27/625000",
            "FAIL recursion r=13 d=-41: 6300603/10000000 != 603/10000000",
        ]


def test_verify_recursion_and_reverse_walk_r_once(capsys, monkeypatch):
    # r, r // 10, r // 10 + 1 and reverse(r) are four distinct laws; run
    # alone, recursion walks the first three and reverse the first and last
    calls = []
    real = exactdist._carry_numerators

    def counted(r, base, K):
        calls.append(r)
        return real(r, base, K)

    monkeypatch.setattr(exactdist, "_carry_numerators", counted)
    for checks, walks in (("recursion", 3), ("reverse", 2), ("recursion,reverse", 4)):
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", "123457..123457", "--checks", checks)
        assert (code, len(calls), calls.count(123457)) == (0, walks, 1), checks
        assert out == f"verify: 1 values, checks={checks}, failures=0\n"


def _shifted_first_atom(real, r_values):
    """exactdist.distribution, but the law of each r in r_values has the mass
    of atom 0 moved onto atom 1, whatever its atom count."""

    def law(r, base, **kwargs):
        good = real(r, base, **kwargs)
        if r not in r_values:
            return good
        (n0, n1, *rest), den = good._numerators
        return exactdist._from_numerators(r, base, [0, n0 + n1, *rest], den)

    return law


def test_verify_recursion_and_reverse_together_fail_as_each_alone(capsys, monkeypatch):
    # r's law walked once at the larger cutoff: the same verdicts and the
    # same reduced FAIL text as each check with its own walk
    r_values = range(10, 30)  # two digits, so every law keeps atoms 0 and 1
    monkeypatch.setattr(
        exactdist, "distribution", _shifted_first_atom(exactdist.distribution, r_values)
    )
    alone = {}
    for check in ("recursion", "reverse"):
        code, out, _ = run_cli(capsys, "verify", "10..29", "--checks", check)
        alone[check] = out.splitlines()[:-1]
    code, out, _ = run_cli(capsys, "verify", "10..29", "--checks", "recursion,reverse")
    *fails, summary = out.splitlines()
    want = [
        line
        for r in r_values
        for check in ("recursion", "reverse")
        for line in alone[check]
        if line.split()[2].rstrip(":") == f"r={r}"
    ]
    assert code == 1 and fails == want
    assert {line.split()[1] for line in fails} == {"recursion", "reverse"}


def test_simulate_deterministic(capsys, tmp_cache):
    args = [
        "simulate",
        "7",
        "--base",
        "10",
        "--samples",
        "20000",
        "--seed",
        "42",
        "--cache",
        tmp_cache,
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "carry identity holds for all samples: True" in out1


def test_simulate_process(capsys, tmp_cache):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "118",
        "--base",
        "2",
        "--samples",
        "5000",
        "--seed",
        "1",
        "--process",
        "--cache",
        tmp_cache,
    )
    assert code == 0
    assert "sum(X_i) == delta for all samples: True" in out
    assert "totals histogram identical to drift histogram: True" in out


def test_simulate_process_mismatch_exits_1(capsys, monkeypatch, tmp_cache):
    real = mixing.process_from_digits

    def one_entry_off(*args):
        X = real(*args).copy()
        X[0, 0] += 1
        return X

    monkeypatch.setattr(mixing, "process_from_digits", one_entry_off)
    code, out, err = run_cli(
        capsys, "simulate", "118", "--base", "2", "--samples", "5000", "--seed", "1",
        "--process", "--cache", tmp_cache,
    )
    assert (code, err) == (1, "")
    assert "sum(X_i) == delta for all samples: False" in out
    assert "totals histogram identical to drift histogram: False" in out


def test_clt_family(capsys, tmp_path, tmp_cache):
    out_path = str(tmp_path / "rates.csv")
    args = [
        "clt",
        "--family",
        "10@2,4,8",
        "--base",
        "2",
        "--out",
        out_path,
        "--cache",
        tmp_cache,
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    with open(out_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("r,base,rho,lambda,variance")
    assert len(lines) == 4
    assert [row.split(",")[2] for row in lines[1:]] == ["4", "8", "16"]
    with open(str(tmp_path / "rates.json")) as fh:
        rows = json.load(fh)
    assert rows[0]["rho"] == "4"
    # bit-identical reruns
    first = open(out_path, "rb").read()
    code2, _, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert open(out_path, "rb").read() == first


def test_clt_ratio_gate_exits_1_after_its_csv(capsys, tmp_cache):
    # over rho >= 16 the cubic column of (10)^8 and (10)^256 spans 28.5x,
    # past the cap of 10: the CSV and both ratios print first, then the gate
    code, out, err = run_cli(capsys, "clt", "--family", "10@8,256", "--base", "2",
                             "--cache", tmp_cache)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("r,base,rho,lambda,variance")
    assert [row.split(",")[2] for row in lines[1:3]] == ["16", "512"]
    assert lines[3:] == [
        "ks_times_rho_eighth max/min (rho >= 16): 4.13475349705",
        "smooth_gap_times_sqrt_rho max/min (rho >= 16): 28.490181398",
        "column gap exceeded the ratio cap 10.0",
    ]


def test_clt_empty_family(capsys):
    code, _, _ = run_cli(capsys, "clt", "--family", "10@", "--base", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "clt", "--base", "2")
    assert code == 2


def test_phi_small_run(capsys):
    code, out, _ = run_cli(
        capsys,
        "phi",
        "10101010101010101010",  # (10)^10 pattern
        "--radix-input",
        "--base",
        "2",
        "--k",
        "3,4",
        "--p",
        "1",
        "--samples",
        "30000",
        "--seed",
        "7",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,base,k,p,family_id,estimate,ci,bound,violated"
    assert len(lines) == 3
    # bound column: 2*((b-1)/b)^(k/2-1)
    bound_k3 = float(lines[1].split(",")[7])
    assert bound_k3 == pytest.approx(2 * 0.5 ** 0.5, rel=1e-9)


def test_phi_builds_process_once_and_keeps_output(capsys, monkeypatch):
    builds = []
    real = mixing.process_matrix

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mixing, "process_matrix", counted)
    code, out, _ = run_cli(
        capsys, "phi", "10101010101010101010", "--radix-input", "--base", "2",
        "--k", "3,4", "--p", "1,4", "--samples", "4000", "--seed", "7",
    )
    assert code == 0
    assert len(builds) == 1
    # the bytes printed when every (k, p) pair built its own matrix
    assert out == (
        "r,base,k,p,family_id,estimate,ci,bound,violated\n"
        "699050,2,3,1,default,0.0242282608696,0.0571538844417,1.41421356237,False\n"
        "699050,2,3,4,default,0.106634615385,0.128412873133,1.41421356237,False\n"
        "699050,2,4,1,default,0.023556763285,0.0768136254668,1,False\n"
        "699050,2,4,4,default,0.0768995726496,0.130060591273,1,False\n"
    )


def test_simulate_process_draws_digits_once_and_keeps_output(capsys, monkeypatch, tmp_cache):
    draws = []
    real = odometer.sample_digit_matrix

    def counted(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(odometer, "sample_digit_matrix", counted)
    monkeypatch.setattr(mixing, "sample_digit_matrix", counted)
    code, out, _ = run_cli(
        capsys, "simulate", "118", "--base", "2", "--samples", "4000", "--process",
        "--seed", "7", "--cache", tmp_cache,
    )
    assert code == 0
    assert len(draws) == 1
    # the bytes printed when the drift draws and the process drew separately
    assert out == (
        "r = 118  base = 2  samples = 4000  seed = 7\n"
        "carry identity holds for all samples: True\n"
        "  k    d     count     empirical      exact          z\n"
        "  0    5     119       0.02975       0.03125        -0.55\n"
        "  1    4     121       0.03025       0.03125        -0.36\n"
        "  2    3     289       0.07225       0.078125       -1.38\n"
        "  3    2     476       0.119         0.117188       +0.36\n"
        "  4    1     463       0.11575       0.121094       -1.04\n"
        "  5    0     743       0.18575       0.185547       +0.03\n"
        "  6    -1    916       0.229         0.217773       +1.72\n"
        "  7    -2    420       0.105         0.108887       -0.79\n"
        "  8    -3    242       0.0605        0.0544434      +1.69\n"
        "  9    -4    108       0.027         0.0272217      -0.09\n"
        "  10   -5    56        0.014         0.0136108      +0.21\n"
        "  11   -6    22        0.0055        0.00680542     -1.00\n"
        "  12   -7    13        0.00325       0.00340271     -0.17\n"
        "  13   -8    8         0.002         0.00170135     +0.46\n"
        "  14   -9    2         0.0005        0.000850677    -0.76\n"
        "  15   -10   2         0.0005        0.000425339    +0.23\n"
        "max |z| = 1.72\n"
        "process: lambda = 2, sum(X_i) == delta for all samples: True\n"
        "process totals histogram identical to drift histogram: True\n"
        "per-block means: -0.0090 -0.0305\n"
    )


def test_phi_lambda_too_small(capsys):
    code, _, _ = run_cli(
        capsys, "phi", "1010", "--radix-input", "--base", "2", "--k", "3"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--random", "3", "--digits", "0"],
        ["verify", "--random", "3", "--digits", "-2"],
        ["verify", "--random", "-1", "--digits", "3"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--samples", "0"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--p", "0"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--k", "3",
         "--samples", "10"],
        ["clt", "--family", "10@2,4", "--base", "2", "--out", "{missing}/x.csv",
         "--cache", "{cache}"],
        ["simulate", "0", "--process", "--samples", "10", "--cache", "{cache}"],
        ["clt", "--family", "10@2", "--base", "2", "--out", "{out_json}",
         "--cache", "{cache}"],
        ["clt", "--family", "1a@2", "--base", "16", "--cache", "{cache}"],
        ["simulate", str(2**62 + 1), "--base", str(2**62 + 1), "--samples", "10",
         "--cache", "{cache}"],
        ["simulate", "5", "--base", str(2**64), "--samples", "10", "--cache", "{cache}"],
        ["simulate", str(2**124 + 5), "--base", str(2**62), "--samples", "10",
         "--cache", "{cache}"],
        ["verify", "1..3", "--base", "1099511627776", "--checks", "enclosure"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--k", "3",
         "--p", "1,9,50", "--samples", "4000"],
        ["verify", "--random", "2", "--digits", "3", "--base", "1"],
        ["verify", "--random", "2", "--digits", "3", "--base", "0"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--k", "3,x",
         "--samples", "100"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--p", "a",
         "--samples", "100"],
        ["clt", "--family", "10@-2", "--base", "2", "--cache", "{cache}"],
        ["clt", "--family", "0@2", "--base", "2", "--cache", "{cache}"],
        ["clt", "--family", "00@1,3", "--cache", "{cache}"],
        ["verify", "1..3", "--checks", ""],
        ["verify", "1..3", "--checks", ","],
        ["blocks", "0", "--radix-input", "--base", "1"],
        ["clt", "--family", "1@1", "--base", "1", "--cache", "{cache}"],
        # 2**62 samples: were the bound gone, numpy would refuse the 2**65-byte
        # key array at once instead of starting the run
        ["simulate", "7", "--samples", str(2**62), "--cache", "{cache}"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--k", "3",
         "--samples", str(2**62)],
        # under MAX_SAMPLES, but past MAX_CELLS for a 1000-digit r
        ["simulate", "1" + "0" * 999, "--samples", str(MAX_CELLS // 1000 + 1),
         "--cache", "{cache}"],
        ["phi", "10" * 500, "--radix-input", "--base", "2", "--k", "3",
         "--samples", str(MAX_CELLS // 1000 + 1)],
        # a cache path that cannot be a directory, refused when first written
        ["dist", "5", "--cache", "{a_file}"],
        ["dist", "5", "--cache", "{a_file}/sub"],
        ["simulate", "7", "--samples", "10", "--cache", "{a_file}"],
        ["clt", "--family", "10@2", "--base", "2", "--cache", "{a_file}/sub"],
        ["dist", "5", "--atoms", "0", "--cache", "{cache}"],
        ["verify", "--random", "3"],
        ["verify"],
        ["verify", "5-9"],
        ["verify", "9..5"],
        ["simulate", "5", "--samples", "0", "--cache", "{cache}"],
        ["clt", "--family", "10", "--base", "2", "--cache", "{cache}"],
        ["phi", "0"],
        ["phi", "682", "--base", "2", "--k", ","],
    ],
    ids=[
        "zero-digits",
        "negative-digits",
        "negative-count",
        "zero-samples",
        "zero-past-length",
        "phi-insufficient-samples",
        "clt-unwritable-out",
        "process-needs-positive-r",
        "clt-out-is-its-json-twin",
        "clt-pattern-bad-digit",
        "sampler-base-past-int64",
        "sampler-base-past-uint64",
        "sampler-digit-sums-past-int64",
        "oracle-table-too-large",
        "phi-no-block-past-gap",
        "verify-random-base-1",
        "verify-random-base-0",
        "phi-k-not-integer",
        "phi-p-not-integer",
        "clt-negative-repetitions",
        "clt-zero-family",
        "clt-zero-family-base-10",
        "verify-no-checks",
        "verify-only-commas",
        "blocks-radix-input-base-1",
        "clt-family-base-1",
        "simulate-samples-past-bound",
        "phi-samples-past-bound",
        "simulate-cells-past-bound",
        "phi-cells-past-bound",
        "dist-cache-is-a-file",
        "dist-cache-under-a-file",
        "simulate-cache-is-a-file",
        "clt-cache-under-a-file",
        "dist-zero-atoms",
        "verify-random-without-digits",
        "verify-without-range",
        "verify-bad-range",
        "verify-empty-range",
        "simulate-zero-samples",
        "clt-family-without-repetitions",
        "phi-zero-r",
        "phi-empty-k",
    ],
)
def test_invalid_input_is_usage_error(capsys, tmp_path, argv):
    out_json = tmp_path / "rates.json"
    a_file = tmp_path / "notadir"
    a_file.write_text("")
    argv = [
        a.format(
            missing=tmp_path / "absent.txt",
            cache=tmp_path / "cache",
            out_json=out_json,
            a_file=a_file,
        )
        for a in argv
    ]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not out_json.exists()
    if argv[0] == "clt" and argv[2] in ("0@2", "00@1,3"):
        # a member below 1 is refused by the name of the family
        assert err == f"error: {argv[1]} {argv[2]!r} holds a member below 1\n"
    base = argv[argv.index("--base") + 1] if "--base" in argv else "10"
    if int(base) < 2:
        # the base is at fault before r's digits or the family's pattern
        assert err == f"error: base must be an integer >= 2, got {base}\n"
    n = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 0
    if n > MAX_SAMPLES:
        assert err == f"error: {2**62} samples is past the bound of {MAX_SAMPLES}\n"
    elif n * 1000 > MAX_CELLS:
        bound = f"the bound of {MAX_CELLS} digit cells"
        assert err == f"error: {n} samples of 1000 digits is past {bound}\n"
    cache = argv[argv.index("--cache") + 1] if "--cache" in argv else ""
    if cache.startswith(str(a_file)):
        why = "File exists" if cache == str(a_file) else "Not a directory"
        assert err == f"error: cannot use {cache!r} as the cache directory: {why}\n"
        assert a_file.read_text() == ""


def test_cache_write_failure_is_usage_error(capsys, monkeypatch, tmp_path):
    # a disk that fills between the temp file and its rename: exit 2 with
    # the cache error and no temp file left; any other failure passes as is
    def no_space(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    cache = tmp_path / "cache"
    monkeypatch.setattr(os, "replace", no_space)
    code, out, err = run_cli(capsys, "dist", "5", "--cache", str(cache))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write into {str(cache)!r}: No space left on device\n"
    assert not list(cache.glob("*.tmp"))

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        exactdist.save_cached_distribution(2, 5, [1], 8, str(cache))
    assert not list(cache.glob("*.tmp"))


def test_propagation_cap_exceeded_is_usage_error(capsys, monkeypatch, tmp_path):
    # 20 ones: every row but x = 0 carries past the digits of r, so with no
    # digits allowed past r the sampler refuses the batch
    monkeypatch.setattr(odometer, "PROPAGATION_CAP", 0)
    code, out, err = run_cli(
        capsys, "simulate", "1048575", "--base", "2", "--samples", "4096",
        "--cache", str(tmp_path),
    )
    assert (code, out) == (2, "")
    assert err == "error: batch propagation exceeded cap 0\n"
    assert not any(tmp_path.iterdir())  # refused before the law is cached


def test_clt_refuses_repetition_counts_below_one_by_name(capsys, tmp_cache):
    for reps in ("-2", "0", "2,-1"):
        code, out, err = run_cli(
            capsys, "clt", "--family", f"10@{reps}", "--base", "2", "--cache", tmp_cache
        )
        assert (code, out) == (2, "")
        assert err == "error: repetition counts must be >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--random", "3", "--digits", "9", "--base", "10"],
        ["1..3", "--base", "2", "--level", "300"],
    ],
    ids=["9-digit-r", "level-300"],
)
def test_verify_enclosure_reaches_long_r(capsys, argv):
    # both were refused while the oracle split n in two halves and counted
    # the low one from a table of more than 2**30 entries
    code, out, err = run_cli(capsys, "verify", *argv, "--checks", "enclosure")
    assert (code, err) == (0, "")
    assert out.endswith("checks=enclosure, failures=0\n")


def test_verify_enclosure_refuses_absurd_level_at_once():
    # the count grows about quadratically with the level; a child process lets
    # the timeout fail this test instead of hanging the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(mixing.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for level in ("1001", "100000", "100000000"):
        proc = subprocess.run(
            [sys.executable, "-m", "digitdrift.cli", "verify", "1..1", "--base", "10",
             "--checks", "enclosure", "--level", level],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: tower level must be <= 1000, got {level}\n"


def test_verify_enclosure_refuses_large_base_tower_at_once():
    # every chunk of base 2^20 is one digit of 2^20 values: at level 250 the
    # count took 12 s before it was refused by the values it enumerates
    src = os.path.dirname(os.path.dirname(os.path.abspath(mixing.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "digitdrift.cli", "verify", "1..1", "--base", str(2**20),
         "--checks", "enclosure", "--level", "250"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: tower level 250 in base 1048576 enumerates 263192576 chunk values, "
        "more than 16777216\n"
    )


def test_verify_enclosure_refuses_base_below_two_at_once():
    # with a base below 2 the enclosure's level search would never end; a
    # child process lets the timeout fail this test instead of hanging the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(mixing.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for base in ("1", "0", "-3"):
        proc = subprocess.run(
            [sys.executable, "-m", "digitdrift.cli", "verify", "1..3", "--base", base,
             "--checks", "enclosure"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: base must be an integer >= 2")


def test_simulate_refuses_base_before_caching(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, out, err = run_cli(
        capsys, "simulate", "5", "--base", str(2**62 + 1), "--cache", str(cache)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not cache.exists() or not any(cache.iterdir())


def test_bad_r_error_is_one_short_line(capsys):
    text = "12x" + "1" * 5000
    for r_args in ([text], [text, "--radix-input"]):
        code, out, err = run_cli(capsys, "dist", *r_args, "--atoms", "3")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and len(err) < 100
        assert "12x111" in err and "..." in err


@pytest.mark.parametrize("radix", [False, True], ids=["decimal", "radix-input"])
def test_r_beyond_str_digit_limit(capsys, tmp_cache, radix):
    # 5000 digits is past Python's 4300-digit int <-> str conversion limit
    text = "1" + "0" * 4998 + "7"
    r_args = [text, "--radix-input"] if radix else [text]
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "blocks", *r_args)
    assert code == 0
    assert out.startswith(f"r = {text}  base = 10  digits = {text}\n")
    code, out, _ = run_cli(
        capsys, "dist", *r_args, "--atoms", "3", "--format", "json", "--cache", tmp_cache
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == text
    assert len(doc["atoms"]) == 3
    assert sys.get_int_max_str_digits() == limit


def test_parse_r_radix_validation():
    assert parse_r("1.15.3", 16, True) == 1 * 256 + 15 * 16 + 3
    with pytest.raises(UsageError):
        parse_r("1a0", 2, True)
    with pytest.raises(UsageError):
        parse_r("1.16.3", 16, True)
