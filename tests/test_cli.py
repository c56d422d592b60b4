import json
import os
import subprocess
import sys

import pytest

from digitdrift import mixing, odometer
from digitdrift.cli import main, parse_r, pattern_family, UsageError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ["dist", "5", "--tail-eps", "-3"],
        ["clt", "--list", "{missing}"],
        ["clt", "--list", "{not_int}"],
        ["verify", "--random", "3", "--digits", "0"],
        ["verify", "--random", "3", "--digits", "-2"],
        ["verify", "--random", "-1", "--digits", "3"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--samples", "0"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--p", "0"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--k", "3",
         "--samples", "10"],
        ["clt", "--family", "10@2,4", "--base", "2", "--out", "{missing}/x.csv",
         "--cache", "{cache}"],
        ["simulate", "0", "--cap", "-1", "--cache", "{cache}"],
        ["simulate", "0", "--process", "--samples", "10", "--cache", "{cache}"],
        ["simulate", "1048575", "--base", "2", "--samples", "4096", "--cap", "0",
         "--cache", "{cache}"],
        ["clt", "--family", "10@2", "--base", "2", "--out", "{out_json}",
         "--cache", "{cache}"],
        ["clt", "--family", "1a@2", "--base", "16", "--cache", "{cache}"],
        ["simulate", str(2**62 + 1), "--base", str(2**62 + 1), "--samples", "10",
         "--cache", "{cache}"],
        ["simulate", "5", "--base", str(2**64), "--samples", "10", "--cache", "{cache}"],
        ["simulate", str(2**124 + 5), "--base", str(2**62), "--samples", "10",
         "--cache", "{cache}"],
        ["verify", "1..3", "--base", "2", "--checks", "enclosure", "--level", "300"],
        ["verify", "--random", "3", "--digits", "9", "--base", "10", "--checks", "enclosure"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--k", "3",
         "--p", "1,9,50", "--samples", "4000"],
        ["verify", "--random", "2", "--digits", "3", "--base", "1"],
        ["verify", "--random", "2", "--digits", "3", "--base", "0"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--k", "3,x",
         "--samples", "100"],
        ["phi", "10101010101010101010", "--radix-input", "--base", "2", "--p", "a",
         "--samples", "100"],
        ["clt", "--list", "{negative}", "--cache", "{cache}"],
        ["clt", "--family", "10@-2", "--base", "2", "--cache", "{cache}"],
    ],
    ids=[
        "negative-tail-eps",
        "missing-list",
        "non-integer-list",
        "zero-digits",
        "negative-digits",
        "negative-count",
        "zero-samples",
        "zero-past-length",
        "phi-insufficient-samples",
        "clt-unwritable-out",
        "negative-cap",
        "process-needs-positive-r",
        "cap-exceeded",
        "clt-out-is-its-json-twin",
        "clt-pattern-bad-digit",
        "sampler-base-past-int64",
        "sampler-base-past-uint64",
        "sampler-digit-sums-past-int64",
        "oracle-table-too-large",
        "oracle-table-past-memory",
        "phi-no-block-past-gap",
        "verify-random-base-1",
        "verify-random-base-0",
        "phi-k-not-integer",
        "phi-p-not-integer",
        "negative-list",
        "clt-negative-repetitions",
    ],
)
def test_invalid_input_is_usage_error(capsys, tmp_path, argv):
    not_int = tmp_path / "members.txt"
    not_int.write_text("5\nseven\n")
    negative = tmp_path / "negative.txt"
    negative.write_text("5\n-3\n")
    out_json = tmp_path / "rates.json"
    argv = [
        a.format(
            missing=tmp_path / "absent.txt",
            not_int=not_int,
            negative=negative,
            cache=tmp_path / "cache",
            out_json=out_json,
        )
        for a in argv
    ]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not out_json.exists()


def test_clt_refuses_repetition_counts_below_one_by_name(capsys, tmp_cache):
    for reps in ("-2", "0", "2,-1"):
        code, out, err = run_cli(
            capsys, "clt", "--family", f"10@{reps}", "--base", "2", "--cache", tmp_cache
        )
        assert (code, out) == (2, "")
        assert err == "error: repetition counts must be >= 1\n"


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
