"""Wall-clock benchmark of the serve, durable-write, cold-restart and
model-batch paths, with a traced run that splits the time by layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

One run sets the workload up at least ``MIN_SETUPS`` times and until
``SETUP_SHARE`` of ``--seconds`` has gone (the median is ``setup_s``),
runs one untimed warm-up pass, then timed passes until ``--seconds`` have
passed, each after a full collection.  Inputs come from ``--seed``; every
answer is checked against the sequential oracle outside the timed window.

- ``--trace 0`` prints the end-to-end metrics, measured with no tracing:
  ``setup_s``; ``throughput_per_s``, the workload's unit of work (requests,
  keys, or WAL records brought back) per host second over all timed
  passes; ``latency_p50_ms`` and ``latency_tail_ms`` of one call (a
  request, a pass of batches, or a restart up to its first answer), the
  tail taken per pass at the highest percentile with ten samples beyond
  it, and its median over the passes (see ``tally.pass_tail``); and
  ``peak_rss_mb`` after the first timed pass.
  Every time is scaled to the reference host speed (see ``slowdown``).
- ``--trace 1`` runs the first half of the window untraced and the second
  half traced, and prints the per-layer metrics: span time per pass, self
  time per layer, the simulated-statistics fingerprint of the first timed
  pass, and the tracing overhead (traced over untraced median pass time).
  The spans are written to ``.perfbench/spans-<workload>.jsonl``.

Human-readable detail goes to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` next to this directory; without it
the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional

from tally import LADDER, MIN_BEYOND, beyond, pass_tail, percentile
from tracing import (END, ITEMS, NAME, PARENT, START, Tracer, layer_of,
                     self_times, write_jsonl)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Set-ups per run: at least ``MIN_SETUPS``, then more until
#: ``SETUP_SHARE`` of ``--seconds`` has gone; ``setup_s`` is their median.
MIN_SETUPS = 5
SETUP_SHARE = 0.25
#: Kernel runs timed before and after every timed span (see ``probe``).
PROBES = 4
#: Median time of one ``kernel`` run on an otherwise idle core of a 2-vCPU
#: x86-64 Linux VM under CPython 3.11: the reference speed.
REFERENCE_KERNEL_S = 1.25e-3
#: The layers' self times must cover the traced wall time within this
#: share; the rest is time under the pass root that no layer span covers.
ATTRIBUTION_TOLERANCE = 0.01
OPS = ("get", "successor", "range", "upsert", "delete")
LAYERS = ("bench", "serve", "recovery", "durable", "ops", "sim")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(workload: Any) -> Dict[str, Any]:
    import numpy
    from repro.core.storage import resolve_storage
    from repro.sim.config import resolve_backend
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": resolve_backend(None),
        "storage": resolve_storage(None),
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "fsync": workload.fsync,
        "round_log": False,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel() -> int:
    """A fixed piece of interpreter work: dict updates, tuples, a sort."""
    table: Dict[int, int] = {}
    pairs = []
    for i in range(3000):
        key = (i * 40503) & 2047
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort()
    return len(pairs) + len(table)


def probe() -> List[float]:
    """Times of ``PROBES`` kernel runs, taken next to a timed span."""
    clock = time.perf_counter
    out = []
    for _ in range(PROBES):
        start = clock()
        kernel()
        out.append(clock() - start)
    return out


def slowdown(before: List[float], after: List[float]) -> float:
    """How much slower than the reference the host ran a span: the median
    kernel time around it over ``REFERENCE_KERNEL_S``.

    On a virtual machine whose cores other tenants share, the speed one
    process gets swings by up to 2x for seconds at a time, in wall and
    CPU time alike, and a raw median moves with it.  Every
    end-to-end time is divided by the slowdown measured around it, so it
    reads as seconds at the reference speed; the raw seconds go to the
    detail report.
    """
    return median(before + after) / REFERENCE_KERNEL_S


class Stopwatch:
    """Times the steps of one pass (or one set-up) that a workload hands it.

    Each step gets the host-speed probe around it and, in a traced run, a
    ``bench.pass`` root span, so probe time is never traced or timed.
    ``seconds`` sums the raw step times, ``scaled`` the same at the
    reference speed.
    """

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.seconds = 0.0
        self.scaled = 0.0

    def __call__(self, fn: Any, *args: Any) -> Any:
        clock = time.perf_counter
        tracer = self.tracer
        before = probe()
        root = tracer.open("bench.pass") if tracer is not None else None
        start = clock()
        try:
            return fn(*args)
        finally:
            took = clock() - start
            if root is not None:
                tracer.close(root)
            self.seconds += took
            self.scaled += took / slowdown(before, probe())

    @property
    def slowdown(self) -> float:
        return self.seconds / self.scaled


class Phase:
    """Timed passes of one phase (untraced or traced)."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.work: List[int] = []
        self.slowdowns: List[float] = []

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def scaled(self) -> List[float]:
        """Pass times at the reference speed."""
        return [s / f for s, f in zip(self.seconds, self.slowdowns)]

    @property
    def rate(self) -> float:
        """Work per second at the reference speed over the whole phase, so
        pauses that hit some passes and not others (full collections,
        snapshots) count in proportion."""
        return sum(self.work) / sum(self.scaled)

    @property
    def raw_rate(self) -> float:
        return sum(self.work) / self.wall


def run_passes(wl: Any, phase: Phase, deadline: float, first_index: int,
               tracer: Any = None, on_first: Any = None) -> int:
    """Timed passes until ``deadline`` (at least one); returns next index."""
    clock = time.perf_counter
    index = first_index
    while True:
        inputs = wl.prepare(index)
        # Start every pass from a collected heap, so full collections the
        # previous pass's checks and this pass's inputs would set off do
        # not land in the timed window; the program's own still do.
        gc.collect()
        watch = Stopwatch(tracer)
        output, work = wl.execute(inputs, watch)
        if on_first is not None and index == first_index:
            on_first()
        wl.account(index, inputs, output, watch.seconds, True)
        wl.tally.cut(watch.slowdown)
        phase.seconds.append(watch.seconds)
        phase.work.append(work)
        phase.slowdowns.append(watch.slowdown)
        index += 1
        if clock() >= deadline:
            return index


def layer_metrics(spans: List[list], wall: float, passes: int,
                  rounds: float, counts: Dict[str, float],
                  fingerprint: Dict[str, float],
                  overhead: float, loop_layer: Optional[str] = None,
                  ) -> Dict[str, float]:
    """The per-layer metrics, per traced pass (see BENCHMARK.json).

    The self time of the ``bench.pass`` root is time no layer span
    covers.  On a workload whose pass is a layer's event loop
    (``loop_layer``, the serve scheduler) it is that layer's; otherwise
    it stays ``self_s.bench`` and counts against ``trace.attributed_frac``.
    """
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    items: Dict[str, int] = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    restore = replay = host = checkpoint = 0.0
    replayed = 0
    own = self_times(spans)
    for span, self_s in zip(spans, own):
        name, dur = span[NAME], span[END] - span[START]
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        items[name] = items.get(name, 0) + span[ITEMS]
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
        if layer == "ops":
            host += self_s
        if name == "recovery.note_success":
            checkpoint += self_s
        if span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "recovery.open":
            if name == "core.batch_upsert":
                restore += dur
            elif name.startswith("core.apply."):
                replay += dur
                replayed += 1
    n = float(passes)
    t = lambda name: total.get(name, 0.0) / n  # noqa: E731
    c = lambda name: calls.get(name, 0) / n  # noqa: E731
    serve_busy = sum(total.get(k, 0.0) for k in
                     ("serve.admit", "serve.coalesce", "serve.policy"))
    batches = calls.get("serve.policy", 0)
    out = {
        "serve.admit_s": t("serve.admit"),
        "serve.coalesce_s": t("serve.coalesce"),
        "serve.policy_s": t("serve.policy"),
        "serve.loop_s": (wall - serve_busy) / n if batches else 0.0,
        "serve.batches": c("serve.policy"),
        "serve.items_per_batch": (items.get("serve.policy", 0) / batches
                                  if batches else 0.0),
        "recovery.run_s": t("recovery.run"),
        "recovery.checkpoint_s": checkpoint / n,
        "recovery.checkpoints": counts.get("checkpoints", 0) / n,
        "durable.append_s": t("durable.append"),
        "durable.appends": c("durable.append"),
        "durable.fsyncs": counts.get("fsyncs", 0) / n,
        "durable.snapshot_s": t("durable.snapshot"),
        "durable.snapshots": c("durable.snapshot"),
        "durable.wal_bytes_per_item": (
            counts["wal_bytes"] / counts["wal_items"]
            if counts.get("wal_items") else 0.0),
        "durable.open_s": t("durable.open"),
        "recovery.restore_s": restore / n,
        "recovery.replay_s": replay / n,
        "recovery.replayed_records": replayed / n,
    }
    for op in OPS:
        out[f"core.apply_s.{op}"] = t(f"core.apply.{op}")
        out[f"core.items.{op}"] = items.get(f"core.apply.{op}", 0) / n
    drain = total.get("sim.drain", 0.0)
    out.update({
        "ops.host_s": host / n,
        "sim.drain_s": drain / n,
        "sim.drains": c("sim.drain"),
        "sim.host_us_per_round": drain / rounds * 1e6 if rounds else 0.0,
    })
    out.update({f"sim.{k}": v for k, v in fingerprint.items()})
    if loop_layer is not None:
        by_layer[loop_layer] += by_layer["bench"]
        by_layer["bench"] = 0.0
    out.update({f"self_s.{layer}": v / n for layer, v in by_layer.items()})
    out["trace.attributed_frac"] = (
        sum(v for layer, v in by_layer.items() if layer != "bench") / wall)
    out["trace.overhead_frac"] = overhead
    return out


def measure(wl: Any, seconds: float, trace: bool) -> Dict[str, Any]:
    clock = time.perf_counter
    setups: List[float] = []
    setup_slowdowns: List[float] = []
    setup_end = clock() + seconds * SETUP_SHARE
    while len(setups) < MIN_SETUPS or clock() < setup_end:
        wl.teardown()
        gc.collect()
        watch = Stopwatch()
        watch(wl.setup)
        setups.append(watch.seconds)
        setup_slowdowns.append(watch.slowdown)
    inputs = wl.prepare(0)
    output, _ = wl.execute(inputs)
    wl.account(0, inputs, output, 0.0, False)

    fingerprint: Dict[str, float] = {}
    rss: List[float] = []
    before = wl.fleet.counters()

    def after_first_pass() -> None:
        after = wl.fleet.counters()
        fingerprint.update({k: after[k] - before[k] for k in after})
        # Taken at a fixed amount of work, so a faster run that goes on to
        # do more passes reads the same.
        rss.append(peak_rss_mb())

    begin = clock()
    plain = Phase()
    index = run_passes(wl, plain, begin + (seconds / 2 if trace else seconds),
                       1, on_first=after_first_pass)
    report: Dict[str, Any] = {
        "setup_s": [t / f for t, f in zip(setups, setup_slowdowns)],
        "setup_raw_s": setups, "setup_slowdowns": setup_slowdowns,
        "passes": len(plain.seconds)}
    if trace:
        tracer = Tracer()
        wl.trace(tracer)
        counts0 = wl.trace_counters()
        rounds0 = wl.fleet.counters()["rounds"]
        traced = Phase()
        run_passes(wl, traced, begin + seconds, index, tracer=tracer)
        counts1 = wl.trace_counters()
        counts = {k: counts1[k] - counts0.get(k, 0) for k in counts1}
        rounds = wl.fleet.counters()["rounds"] - rounds0
        overhead = median(traced.scaled) / median(plain.scaled) - 1.0
        report["layers"] = layer_metrics(
            tracer.spans, traced.wall, len(traced.seconds), rounds, counts,
            fingerprint, overhead, wl.loop_layer)
        report["traced_passes"] = len(traced.seconds)
        report["spans"] = len(tracer.spans)
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"spans-{wl.name}.jsonl")
        write_jsonl(tracer.spans, spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    wl.finish()

    tally = wl.tally
    # Every sample at the reference speed of the pass it came from.
    passes = tally.passes()
    scaled = sorted(x for group in passes for x in group)
    tail_pct, tail = pass_tail(passes)
    report.update({
        "fingerprint": fingerprint,
        "throughput_per_s": plain.rate,
        "raw_throughput_per_s": plain.raw_rate,
        "pass_seconds": plain.seconds,
        "pass_slowdowns": plain.slowdowns,
        "pass_work": plain.work,
        "unit": wl.unit,
        "latency_p50_s": median(scaled),
        "latency_tail_pct": tail_pct,
        "latency_tail_s": tail if tail is not None else median(scaled),
        "latency_samples": len(scaled),
        # Every percentile of the pooled samples with ten beyond it.
        "latency_ladder_s": {pct: percentile(scaled, pct) for pct in LADDER
                             if beyond(len(scaled), pct) >= MIN_BEYOND},
        "latency_limit_s": wl.latency_limit_s,
        "met_limit_frac": tally.met_limit_frac(wl.latency_limit_s),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed_frac,
        "problems": wl.problems,
        "peak_rss_mb": rss[0],
        **wl.detail(),
    })
    return report


def result_line(report: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    correct = report["failed"] == 0 and not report["problems"]
    if trace:
        attributed = report["layers"]["trace.attributed_frac"]
        correct = correct and abs(attributed - 1.0) <= ATTRIBUTION_TOLERANCE
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in report["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": median(report["setup_s"]), "unit": "s"},
            "throughput_per_s": {"value": report["throughput_per_s"],
                                 "unit": "1/s"},
            "latency_p50_ms": {"value": report["latency_p50_s"] * 1e3,
                               "unit": "ms"},
            "latency_tail_ms": {"value": report["latency_tail_s"] * 1e3,
                                "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


#: Units of the per-layer metrics that are not per-pass times or counts.
LAYER_UNITS = {
    "serve.items_per_batch": "items/batch",
    "durable.wal_bytes_per_item": "bytes/item",
    "sim.host_us_per_round": "us/round",
    "sim.rounds": "count",
    "sim.io_time": "model_steps",
    "sim.pim_time": "model_steps",
    "sim.cpu_work": "model_steps",
    "trace.attributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s/pass" if name.endswith("_s") or "_s." in name else "count/pass"


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        report = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": wl.why,
              "environment": environment(wl), **report}
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
