"""Tests of the benchmark harness itself: python3 -m pytest benchmarks/tests"""
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import harness  # noqa: E402
from harness import CheckFailed, Context, percentile, run_op, timed_phase  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(tracer, name, parent, start, end):
    tracer.name_ids.append(tracer._name_id(name))
    tracer.parents.append(parent)
    tracer.ops.append(0)
    tracer.starts.append(start)
    tracer.ends.append(end)
    return len(tracer.starts) - 1


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    root = _span(t, "bench.op", -1, 0.0, 10.0)
    a = _span(t, "cli.main", root, 1.0, 4.0)
    _span(t, "exactdist.distribution", a, 2.0, 3.0)
    _span(t, "cli.main", root, 5.0, 6.0)
    self_s = t.self_times()
    assert self_s["bench"] == pytest.approx(6.0)  # 10 - 3 - 1
    assert self_s["cli"] == pytest.approx(3.0)  # (3 - 1) + 1
    assert self_s["exactdist"] == pytest.approx(1.0)
    assert t.calls()["cli"] == 2
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_wrapped_calls_nest_and_same_module_calls_add_no_span():
    t = Tracer()

    def inner():
        time.sleep(0.02)

    def helper():
        pass

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_helper()

    inner.__module__ = "digitdrift.digits"
    helper.__module__ = __name__  # called from this module: no boundary
    outer.__module__ = "digitdrift.cltdiag"
    wrapped_inner = t.wrap("digits.inner", inner)
    wrapped_helper = t.wrap("cltdiag.helper", helper)
    call = t.op(0, "test", t.wrap("cltdiag.outer", outer))
    call()
    wrapped_inner()  # outside an op: not recorded
    assert [t.names[i] for i in t.name_ids] == ["bench.test", "cltdiag.outer", "digits.inner"]
    assert list(t.parents) == [-1, 0, 1]
    self_s = t.self_times()
    assert self_s["digits"] >= 0.02
    assert 0.01 <= self_s["cltdiag"] < 0.02


def test_install_patches_every_binding_and_uninstall_restores():
    from digitdrift import cltdiag, exactdist, mixing, odometer

    originals = (odometer.sample_digit_matrix, mixing.sample_digit_matrix, cltdiag.distribution)
    t = Tracer()
    t.install()
    try:
        assert mixing.sample_digit_matrix is odometer.sample_digit_matrix
        assert cltdiag.distribution is exactdist.distribution
        assert mixing.sample_digit_matrix is not originals[0]
        t.op(0, "phi", lambda: mixing.process_matrix(int("10" * 8, 2), 2, 100, 1))()
    finally:
        t.uninstall()
    assert (odometer.sample_digit_matrix, mixing.sample_digit_matrix, cltdiag.distribution) == originals
    assert t.counters["mixing.process_builds"] == 1
    assert t.counters["odometer.samples"] == 100
    assert "odometer.sample_digit_matrix" in t.names


def test_percentiles_on_a_known_vector():
    xs = [7, 1, 10, 3, 5, 2, 9, 4, 8, 6]
    assert percentile(xs, 50) == 5
    assert percentile(xs, 90) == 9
    assert percentile(xs, 100) == 10
    assert percentile([4.0], 90) == 4.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_input_digest(name):
    w = WORKLOADS[name]
    assert harness.input_digest(w(), 3) == harness.input_digest(w(), 3)
    assert harness.input_digest(w(), 3) != harness.input_digest(w(), 4)


class _Toy:
    """ok passes, boom raises, wrong returns output its check rejects."""

    REFERENCE = ("interp",)

    def rounds(self, seed):
        while True:
            yield [("ok",), ("boom",), ("wrong",)]

    def prepare(self, ctx, op):
        def call():
            if op[0] == "boom":
                raise RuntimeError("boom")
            return op[0]

        return call

    def check(self, op, result):
        if result == "wrong":
            raise CheckFailed("wrong output")
        return result


def test_exception_and_wrong_output_both_count_as_failures(tmp_path):
    assert run_op("boom", lambda: 1 / 0, str).error.startswith("ZeroDivisionError")

    def reject(_):
        raise CheckFailed("bad")

    assert run_op("wrong", lambda: 1, reject).error == "check failed: bad"
    assert run_op("ok", lambda: "x", str).error is None
    ctx = Context(str(tmp_path))
    try:
        phase = timed_phase(_Toy(), ctx, seed=0, seconds=0.0)
    finally:
        ctx.close()
    n = len(phase.outcomes)
    assert n >= harness.MIN_OPS and n % 3 == 0  # whole rounds only
    assert phase.failed == 2 * n // 3
    assert harness.end_to_end(phase, 1.0, 1.0)["success_ratio"] == pytest.approx(1 / 3)


def test_min_ops_runs_whole_rounds_past_it(tmp_path):
    ctx = Context(str(tmp_path))
    try:
        phase = timed_phase(_Toy(), ctx, seed=0, seconds=0.0, min_ops=7)
    finally:
        ctx.close()
    assert len(phase.outcomes) == 9


def test_reference_runs_only_the_named_parts():
    ref = harness.Reference()
    ran = []
    ref.mem = lambda: ran.append("mem")
    timed = ref.seconds(("interp",))
    assert ran == [] and timed["mem"] == harness.REF_S["mem"]
    assert timed["interp"] != harness.REF_S["interp"]


def test_scales_follow_the_reference_around_each_op():
    nominal = dict(harness.REF_S)
    slow = {p: 2 * s for p, s in nominal.items()}
    refs = [nominal] * 5 + [slow] * 5
    got = harness.scales(refs, ("interp", "mem"), window=1)
    assert got[:4] == [1.0] * 4
    assert got[-4:] == [0.5] * 4
    mixed = {"interp": nominal["interp"], "mem": 2 * nominal["mem"]}
    assert harness.scales([mixed], ("interp",)) == [1.0]
    assert harness.scales([mixed], ("mem",)) == [0.5]


def test_setup_is_the_median_of_scaled_import_plus_warm_up():
    nominal = dict(harness.REF_S)
    slow = {p: 2 * s for p, s in nominal.items()}
    ref = harness.IMPORT_REF_S
    imports = [(0.2, ref), (0.4, 2 * ref), (0.9, ref)]
    warmups = [0.1, 0.2, 0.1]
    refs = [nominal, slow, nominal]
    assert harness.setup_seconds(imports, warmups, refs, scaled=False) == pytest.approx(0.6)
    # window 2 spans all three reps, so every warm-up is scaled by 1
    assert harness.setup_seconds(imports, warmups, refs) == pytest.approx(0.4)
    assert harness.setup_seconds(imports[:2], warmups[:2], [slow, slow]) == pytest.approx(0.275)


def test_digest_mismatch_fails_and_counts_as_a_regression():
    good = run_op("ok", lambda: "x", str)
    bad = run_op("ok", lambda: "y", str, expected_digest=good.digest)
    assert bad.error.startswith("digest mismatch")
    assert harness.regressed([good, bad], [good.digest, good.digest]) == 1
    # an op that failed when the digests were recorded is no regression
    assert harness.regressed([bad], [None]) == 0
