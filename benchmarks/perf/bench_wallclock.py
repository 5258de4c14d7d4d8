"""Simulator wall-clock benchmark: how fast does the round engine run?

Unlike the model benchmarks under ``benchmarks/``, which measure the
*simulated* machine (rounds, h-relations, PIM time), this harness measures
the *simulator*: wall-clock seconds, tasks/sec and rounds/sec of the round
engine (:class:`repro.sim.machine.PIMMachine`) on six scenarios chosen to
stress different engine paths:

- ``macro_successor`` -- the acceptance macro scenario: a P=128 skip list
  serving batched-successor sessions (dominated by search-step forwards
  and per-round module activation);
- ``pointer_walk`` -- search+successor only: raw search messages against
  a prebuilt list, resolved to successors from the replies, with no pivot
  machinery in the way (the per-hop walk over the node graph is the
  whole probe);
- ``engine_echo`` -- many tiny rounds of CPU-issued sends with small
  fanout (stresses send/step fixed overhead at low occupancy);
- ``forward_chain`` -- long module-to-module continuation chains
  (stresses the forward path and drain loop);
- ``fanout_broadcast`` -- one CPU broadcast per round to every module
  (the high-fanout dispatch-stress case);
- ``mixed_dispatch`` -- many distinct function ids per round, issued in
  per-fn runs (stresses per-task dispatch across many handlers).

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_wallclock.py [--quick]
        [--repeat N] [--profile] [--out PATH]

Writes ``benchmarks/perf/BENCH_simwall.json``::

    {
      "config": {"quick": false, "repeat": 3},
      "backends": {
        "object": {"scenarios": {"<name>": {"seconds": ..., "tasks": ...,
                                            "rounds": ..., "tasks_per_sec": ...,
                                            "rounds_per_sec": ..., "params": {...}}}}
      },
      "handler_profile": {"<fn>": {"seconds": ..., "calls": ...}}  # --profile
    }

``"object"`` names the one round engine; the ``backends`` level keeps the
committed baseline's layout, which ``check_regression.py`` reads.

``--quick`` shrinks every scenario to a seconds-scale smoke run (used by
CI); full runs are the numbers quoted in EXPERIMENTS.md.  Round logging
is disabled (``trace_rounds=False``) -- these are throughput runs and the
per-round log objects are pure overhead; model metrics are unaffected.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Any, Dict, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.core.ops_search import search_message
from repro.core.skiplist import PIMSkipList
from repro.sim.machine import PIMMachine
from repro.sim.profiling import HandlerProfile, ThroughputProbe

OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_simwall.json")


def macro_successor(probe_machine, *, P=128, n=4096, batches=4, seed=7,
                    fault_plan=None):
    """The ISSUE acceptance scenario: P=128 batched-successor session.

    ``fault_plan`` optionally installs a chaos plan after the build (the
    regression gate uses a zero-rate plan to price the reliable-delivery
    protocol's envelope overhead against the fault-free fast path).
    """
    machine = PIMMachine(num_modules=P, seed=seed, trace_rounds=False)
    sl = PIMSkipList(machine, name="bench")
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10 * n), n))
    sl.build([(k, k) for k in keys])
    if fault_plan is not None:
        machine.install_fault_plan(fault_plan)
    B = sl.min_search_batch
    queries = [[rng.randrange(10 * n) for _ in range(B)] for _ in range(batches)]
    with probe_machine(machine) as probe:
        for qs in queries:
            sl.batch_successor(qs)
    return probe


def pointer_walk(probe_machine, *, P=128, n=8192, B=4096, batches=3,
                 seed=13):
    """Search+successor only: the raw walk throughput.

    Each batch issues ``B`` search messages straight at the prebuilt
    list (no pivot machinery, no hint derivation) and resolves every
    reply to its successor pair -- the walk itself is the whole probe.
    """
    machine = PIMMachine(num_modules=P, seed=seed, trace_rounds=False)
    sl = PIMSkipList(machine, name="bench")
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10 * n), n))
    sl.build([(k, k) for k in keys])
    struct = sl.struct
    queries = [[rng.randrange(10 * n) for _ in range(B)]
               for _ in range(batches)]
    with probe_machine(machine) as probe:
        for qs in queries:
            msgs = [search_message(struct, k, opid=i)
                    for i, k in enumerate(qs)]
            machine.send_all(msgs)
            succ = [None] * len(qs)
            for r in machine.drain():
                _tag, opid, pred, right = r.payload
                if not pred.is_sentinel and pred.key == qs[opid]:
                    succ[opid] = (pred.key, pred.value)
                elif right is not None:
                    succ[opid] = (right.key, right.value)
    return probe


def engine_echo(probe_machine, *, P=64, rounds=400, fanout=16, seed=3):
    machine = PIMMachine(num_modules=P, seed=seed, trace_rounds=False)

    def echo(ctx, x, tag=None):
        ctx.charge(1)
        ctx.reply(x, tag=tag)

    machine.register("echo", echo)
    rng = random.Random(seed)
    plan = [[(rng.randrange(P), i) for i in range(fanout)]
            for _ in range(rounds)]
    with probe_machine(machine) as probe:
        for msgs in plan:
            for dest, i in msgs:
                machine.send(dest, "echo", (i,))
            machine.step()
    return probe


def forward_chain(probe_machine, *, P=64, chains=256, hops=48, seed=5):
    machine = PIMMachine(num_modules=P, seed=seed, trace_rounds=False)

    def hop(ctx, remaining, opid, tag=None):
        ctx.charge(1)
        if remaining == 0:
            ctx.reply(opid)
        else:
            ctx.forward((ctx.mid * 31 + opid + 1) % ctx.num_modules,
                        "hop", (remaining - 1, opid))

    machine.register("hop", hop)
    with probe_machine(machine) as probe:
        for c in range(chains):
            machine.send(c % P, "hop", (hops, c))
        machine.drain()
    return probe


def fanout_broadcast(probe_machine, *, P=256, rounds=400, seed=9):
    """High-fanout dispatch stress: one CPU broadcast per round.

    Every module charges one unit per broadcast: P context dispatches
    per round.
    """
    machine = PIMMachine(num_modules=P, seed=seed, trace_rounds=False)

    def accum(ctx, i, tag=None):
        ctx.charge(1)

    machine.register("accum", accum)
    with probe_machine(machine) as probe:
        for i in range(rounds):
            machine.broadcast("accum", (i,))
            machine.step()
    return probe


def mixed_dispatch(probe_machine, *, P=64, fns=24, per_fn=12, rounds=120,
                   seed=11):
    """Many-distinct-function-id dispatch stress.

    Each round issues ``fns`` runs of ``per_fn`` messages (one run per
    function id): ``fns * per_fn`` context dispatches per round across
    ``fns`` handlers.
    """
    machine = PIMMachine(num_modules=P, seed=seed, trace_rounds=False)

    def make_scalar(j):
        def h(ctx, x, tag=None):
            ctx.charge(1)
            ctx.reply(x + j, tag=tag)
        return h

    names = []
    for j in range(fns):
        name = f"mix{j}"
        names.append(name)
        machine.register(name, make_scalar(j))
    rng = random.Random(seed)
    plan = []
    for _ in range(rounds):
        msgs = []
        for name in names:
            msgs.extend((rng.randrange(P), name, (rng.randrange(1000),), None)
                        for _ in range(per_fn))
        plan.append(msgs)
    with probe_machine(machine) as probe:
        for msgs in plan:
            machine.send_all(msgs)
            machine.step()
    return probe


SCENARIOS = {
    "macro_successor": (macro_successor,
                        {"P": 128, "n": 4096, "batches": 4, "seed": 7},
                        {"P": 32, "n": 512, "batches": 1, "seed": 7}),
    "pointer_walk": (pointer_walk,
                     {"P": 128, "n": 8192, "B": 4096, "batches": 3,
                      "seed": 13},
                     {"P": 32, "n": 512, "B": 256, "batches": 1,
                      "seed": 13}),
    "engine_echo": (engine_echo,
                    {"P": 64, "rounds": 400, "fanout": 16, "seed": 3},
                    {"P": 64, "rounds": 40, "fanout": 16, "seed": 3}),
    "forward_chain": (forward_chain,
                      {"P": 64, "chains": 256, "hops": 48, "seed": 5},
                      {"P": 64, "chains": 32, "hops": 16, "seed": 5}),
    "fanout_broadcast": (fanout_broadcast,
                         {"P": 256, "rounds": 400, "seed": 9},
                         {"P": 64, "rounds": 40, "seed": 9}),
    "mixed_dispatch": (mixed_dispatch,
                       {"P": 64, "fns": 24, "per_fn": 12, "rounds": 120,
                        "seed": 11},
                       {"P": 32, "fns": 8, "per_fn": 6, "rounds": 12,
                        "seed": 11}),
}


def run(quick: bool = False, repeat: int = 3, profile: bool = False,
        out_path: Optional[str] = OUT_PATH) -> Dict[str, Any]:
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    handler_profile = HandlerProfile() if profile else None

    def probe_machine(machine):
        if handler_profile is not None:
            machine.set_profiler(handler_profile)
        return ThroughputProbe(machine)

    results: Dict[str, Any] = {}
    for name, (fn, full, small) in SCENARIOS.items():
        params = small if quick else full
        best = None
        for _ in range(repeat):
            probe = fn(probe_machine, **params)
            if best is None or probe.seconds < best["seconds"]:
                best = probe.as_dict()
        best["params"] = dict(params)
        results[name] = best
        print(f"{name:<18} {best['seconds']:8.3f}s  "
              f"{best['tasks_per_sec']:>12.0f} tasks/s  "
              f"{best['rounds_per_sec']:>10.0f} rounds/s")

    doc: Dict[str, Any] = {
        "config": {"quick": quick, "repeat": repeat},
        "backends": {"object": {"scenarios": results}},
    }
    if handler_profile is not None:
        doc["handler_profile"] = handler_profile.as_dict()
        print("\nhottest handlers:\n" + handler_profile.top())
    if out_path:
        with open(out_path, "w") as f:
            json.dump(doc, f, indent=2)
        print(f"\nwrote {out_path}")
    return doc


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="shrunk scenarios (CI smoke run)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="repeats per scenario; best is reported (default 3)")
    ap.add_argument("--profile", action="store_true",
                    help="per-handler wall-time attribution (slows the run)")
    ap.add_argument("--out", default=OUT_PATH,
                    help="output JSON path (default BENCH_simwall.json)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error(f"--repeat must be >= 1, got {args.repeat}")
    run(quick=args.quick, repeat=args.repeat, profile=args.profile,
        out_path=args.out)


if __name__ == "__main__":
    main()
