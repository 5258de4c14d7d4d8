"""Tests of the benchmark itself: percentile rule, self-time arithmetic,
failure accounting, and a short end-to-end run of every workload.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.serve import Refusal, RefusalReason  # noqa: E402
from tally import Tally, pass_tail, percentile, tail_percentile  # noqa: E402
from tracing import NAME, PARENT, Tracer, covered, layer_of, self_times  # noqa: E402


# -- percentile rule ----------------------------------------------------------


def test_nearest_rank_percentile():
    ordered = list(range(1, 101))
    assert percentile(ordered, 50) == 50
    assert percentile(ordered, 99) == 99
    assert percentile(ordered, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, pct", [
    (19, None),      # p50 would have only 9 samples beyond it
    (20, 50.0),
    (99, 50.0),      # p90 has 9 beyond
    (100, 90.0),
    (999, 90.0),     # p99 has 9 beyond
    (1000, 99.0),
    (10000, 99.9),
    (100000, 99.99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    got_pct, value, count = tail_percentile([float(i) for i in range(n)])
    assert (got_pct, count) == (pct, n)
    if pct is not None:
        assert value == percentile([float(i) for i in range(n)], pct)
        beyond = sum(1 for i in range(n) if i > value)
        assert beyond >= 10


def test_pass_tail_is_the_median_of_each_pass_tail():
    calm = [float(i) for i in range(1000)]
    stalled = [x + 500.0 for x in calm]
    # p99 of each pass (ten samples beyond it); one stalled pass of three
    # does not move the median.
    assert pass_tail([calm, stalled, calm]) == (99.0, 989.0)
    # Passes of different sizes are read at the percentile all support.
    assert pass_tail([calm, calm[:100]]) == (90.0, (899.0 + 89.0) / 2)


def test_pass_tail_pools_single_sample_passes():
    passes = [[float(i)] for i in range(20)]
    assert pass_tail(passes) == (50.0, 9.0)
    assert pass_tail([[1.0]] * 5) == (None, None)


# -- host-speed calibration ---------------------------------------------------


def test_times_are_divided_by_the_slowdown_around_them():
    assert run.slowdown([2.0 * run.REFERENCE_KERNEL_S] * 3,
                        [4.0 * run.REFERENCE_KERNEL_S] * 3) == pytest.approx(3.0)
    tally = Tally()
    tally.ok(0.4)
    tally.ok(0.6)
    tally.cut(2.0)
    tally.fail()
    tally.cut(1.0)
    assert tally.passes() == [pytest.approx([0.2, 0.3]), [math.inf]]
    assert tally.latencies == [0.4, 0.6, math.inf]
    phase = run.Phase()
    phase.seconds = [1.0, 2.0, 4.0]
    phase.work = [10, 10, 10]
    phase.slowdowns = [1.0, 2.0, 1.0]
    assert phase.scaled == [1.0, 1.0, 4.0]
    assert phase.rate == pytest.approx(30 / 6.0)
    assert phase.raw_rate == pytest.approx(30 / 7.0)


def test_stopwatch_times_and_traces_each_step_but_not_the_probe():
    tracer = Tracer()
    watch = run.Stopwatch(tracer)
    assert watch(lambda x: x + 1, 1) == 2
    assert watch(sum, [1, 2]) == 3
    assert [s[NAME] for s in tracer.spans] == ["bench.pass", "bench.pass"]
    spans = sum(s[2] - s[1] for s in tracer.spans)
    assert 0.0 < watch.seconds <= spans
    # A probe runs many kernels; none of them sits inside a step.
    assert watch.seconds < run.REFERENCE_KERNEL_S
    assert watch.slowdown == pytest.approx(watch.seconds / watch.scaled)


# -- self-time arithmetic -----------------------------------------------------


def span(name, start, end, parent):
    return [name, start, end, parent, None, 0]


def test_self_time_subtracts_nested_children():
    spans = [span("bench.pass", 0.0, 10.0, -1),
             span("serve.policy", 1.0, 4.0, 0),
             span("sim.drain", 2.0, 3.0, 1),
             span("serve.admit", 5.0, 9.0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)
    out = run.layer_metrics(spans, wall=10.0, passes=1, rounds=1, counts={},
                            fingerprint={}, overhead=0.0)
    assert [out[f"self_s.{layer}"] for layer in run.LAYERS] == pytest.approx(
        [3.0, 6.0, 0.0, 0.0, 0.0, 1.0])


def test_covered_time_is_the_union_clipped_to_the_parent():
    assert covered([(1, 4), (3, 6)], 0, 10) == pytest.approx(5.0)
    assert covered([(3, 6), (1, 4), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert covered([], 0, 10) == 0.0
    spans = [span("bench.pass", 0.0, 10.0, -1),
             span("core.apply.get", 1.0, 4.0, 0),
             span("core.apply.get", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_core_self_time_is_the_ops_layer():
    assert layer_of("core.apply.get") == "ops"
    assert layer_of("core.batch_upsert") == "ops"
    assert layer_of("recovery.note_success") == "recovery"


def test_wrapped_calls_nest_and_carry_the_batch_id():
    ticks = iter(range(100))
    batch = [7]
    tracer = Tracer(batch_id=lambda: batch[0], clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    obj = Layer()
    tracer.wrap(obj, "inner", "sim.drain")
    tracer.wrap(obj, "outer", "core.apply",
                describe=lambda x: (f"core.apply.{x}", x))
    with tracer.span("bench.pass"):
        assert obj.outer(3) == 8
    assert [s[NAME] for s in tracer.spans] == [
        "bench.pass", "core.apply.3", "sim.drain"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1]
    assert all(s[4] == 7 for s in tracer.spans)
    assert tracer.spans[1][5] == 3
    assert sum(self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1])


def test_layer_metrics_attribute_the_whole_pass():
    spans = [span("bench.pass", 0.0, 10.0, -1),
             span("serve.policy", 1.0, 4.0, 0),
             span("recovery.run", 1.5, 3.5, 1),
             span("core.apply.get", 2.0, 3.0, 2),
             span("sim.drain", 2.2, 2.8, 3)]
    spans[1][5] = 12
    out = run.layer_metrics(spans, wall=10.0, passes=2, rounds=6,
                            counts={}, fingerprint={"rounds": 6.0},
                            overhead=0.1, loop_layer="serve")
    assert out["trace.attributed_frac"] == pytest.approx(1.0)
    assert out["serve.policy_s"] == pytest.approx(1.5)
    assert out["serve.loop_s"] == pytest.approx(3.5)
    assert out["serve.items_per_batch"] == pytest.approx(12.0)
    assert out["ops.host_s"] == pytest.approx(0.2)
    assert out["sim.host_us_per_round"] == pytest.approx(0.6 / 6 * 1e6)
    assert out["core.items.get"] == 0.0
    # The root's self time is the serve loop's, not unattributed time.
    assert out["self_s.bench"] == 0.0
    assert out["self_s.serve"] == pytest.approx((7.0 + 1.0) / 2)


def test_time_no_layer_covers_fails_the_attribution_gate():
    spans = [span("bench.pass", 0.0, 10.0, -1),
             span("core.apply.get", 1.0, 4.0, 0),
             span("sim.drain", 2.0, 3.0, 1)]
    out = run.layer_metrics(spans, wall=10.0, passes=1, rounds=1, counts={},
                            fingerprint={}, overhead=0.0)
    assert out["self_s.bench"] == pytest.approx(7.0)
    assert out["trace.attributed_frac"] == pytest.approx(0.3)
    report = {"failed": 0, "problems": [], "attempted": 1, "layers": out}
    assert not run.result_line(report, True)["correct"]


# -- failure accounting -------------------------------------------------------


def test_a_refusal_counts_as_failed_and_misses_the_latency_limit():
    tally = Tally()
    tally.ok(0.010)
    tally.ok(0.020)
    tally.fail()
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_frac == pytest.approx(1 / 3)
    assert tally.met_limit_frac(1.0) == pytest.approx(2 / 3)
    assert percentile(sorted(tally.latencies), 99) == math.inf


def test_warm_up_calls_count_without_a_latency_sample():
    tally = Tally()
    tally.ok(None, weight=5)
    tally.ok(0.5, weight=5)
    assert (tally.attempted, tally.latencies) == (10, [0.5])


class TinyServe(workloads.ServeMixed):
    clients = 3
    per_client = 4
    key_space = 64


class TinyDurable(workloads.ServeDurable):
    clients = 4
    per_client = 4
    key_space = 128


class TinyRestart(workloads.ColdRestart):
    key_space = 256
    snapshot_keys = 64
    records = 16
    hot_keys = 16


class TinyModel(workloads.ModelBatch):
    num_modules = 8
    key_space = 1 << 10
    initial_keys = 1 << 8


def test_serve_refusal_is_a_failure_with_infinite_latency(tmp_path):
    wl = TinyServe(seed=3, workdir=str(tmp_path))
    wl.setup()
    inputs = wl.prepare(0)
    output, work = wl.execute(inputs)
    assert work == 12
    op, _, latency = output[0][0]
    output[0].append((op, Refusal(op, wl.tenants[0],
                                  RefusalReason.OVERLOADED, "test"), 0.001))
    wl.account(0, inputs, output, 0.1, True)
    wl.finish()
    assert (wl.tally.attempted, wl.tally.failed) == (13, 1)
    assert math.inf in wl.tally.latencies
    assert wl.tally.met_limit_frac(60.0) == pytest.approx(12 / 13)


def test_serve_wrong_answer_is_a_failure(tmp_path):
    wl = TinyServe(seed=4, workdir=str(tmp_path))
    wl.setup()
    inputs = wl.prepare(0)
    output, _ = wl.execute(inputs)
    reads = [i for i, (op, outcome, _) in enumerate(output[1]) if op == "get"]
    i = reads[0] if reads else 0
    op, outcome, latency = output[1][i]
    output[1][i] = (op, ["not", "this"], latency)
    wl.account(0, inputs, output, 0.1, True)
    wl.finish()
    assert wl.tally.failed == 1
    assert wl.problems


def test_serve_exception_is_a_failure(tmp_path):
    wl = TinyServe(seed=4, workdir=str(tmp_path))
    wl.setup()
    inputs = wl.prepare(0)
    output, _ = wl.execute(inputs)
    output[2].append(("get", RuntimeError("scheduler died"), 0.001))
    wl.account(0, inputs, output, 0.1, True)
    wl.finish()
    assert (wl.tally.attempted, wl.tally.failed) == (13, 1)
    assert any("scheduler died" in p for p in wl.problems)


def test_model_batch_exception_fails_the_batch_keys(tmp_path):
    wl = TinyModel(seed=4, workdir=str(tmp_path))
    wl.setup()
    inner = wl.sl.apply_batch

    def broken(op, payload):
        if op == "successor":
            raise RuntimeError("engine fault")
        return inner(op, payload)

    wl.sl.apply_batch = broken
    inputs = wl.prepare(0)
    output, _ = wl.execute(inputs)
    wl.account(0, inputs, output, 0.1, True)
    assert wl.tally.failed == wl.search_size
    assert math.inf in wl.tally.latencies
    assert any("engine fault" in p for p in wl.problems)


def test_cold_restart_refusing_a_damaged_log_is_a_failure(tmp_path):
    wl = TinyRestart(seed=4, workdir=str(tmp_path))
    wl.setup()
    inputs = wl.prepare(0)
    run_dir = inputs[0]
    wal = [f for f in os.listdir(run_dir) if f.startswith("wal-")][0]
    path = os.path.join(run_dir, wal)
    data = bytearray(open(path, "rb").read())
    data[len(data) // 3] ^= 0xFF
    open(path, "wb").write(bytes(data))
    output, work = wl.execute(inputs)
    wl.account(0, inputs, output, 0.1, True)
    assert work == 0
    assert (wl.tally.attempted, wl.tally.failed) == (1, 1)
    assert "WalCorruption" in wl.problems[0]


# -- every workload, small ----------------------------------------------------


@pytest.mark.parametrize("cls", [TinyServe, TinyDurable, TinyRestart,
                                 TinyModel])
@pytest.mark.parametrize("trace", [False, True])
def test_short_run_is_correct_and_fully_attributed(cls, trace, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    wl = cls(seed=5, workdir=str(tmp_path))
    report = run.measure(wl, 0.2, trace)
    line = run.result_line(report, trace)
    assert line["correct"], report["problems"]
    assert line["failed"] == 0 and line["attempted"] > 0
    assert report["fingerprint"]["rounds"] > 0
    if trace:
        layers = report["layers"]
        assert (abs(layers["trace.attributed_frac"] - 1.0)
                <= run.ATTRIBUTION_TOLERANCE)
        assert layers["sim.rounds"] == report["fingerprint"]["rounds"]
        assert layers["sim.drains"] > 0
        assert os.path.exists(os.path.join(str(tmp_path), report["spans_file"]))
    else:
        assert set(line["metrics"]) == {
            "setup_s", "throughput_per_s", "latency_p50_ms",
            "latency_tail_ms", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_fingerprint_repeats_for_a_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    prints = [run.measure(TinyServe(seed=6, workdir=str(tmp_path)), 0.05,
                          trace)["fingerprint"] for trace in (False, True)]
    assert prints[0] == prints[1]


def test_missing_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "serve_mixed", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
