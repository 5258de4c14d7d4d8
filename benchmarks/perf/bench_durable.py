"""Durability wall-clock benchmark: what do the WAL and restart cost?

Measures :mod:`repro.recovery.durable` end to end:

- ``wal_append`` -- sustained records/sec through
  :meth:`DurableStore.append` (serialize, checksum, write, modeled
  fsync boundary).  The store runs with ``os_fsync=False`` so the
  number prices the durability *code path*, not the host's disk
  hardware -- CI runners and laptops then agree within noise.  A
  second (informational, never gated) cell re-runs with real
  ``os.fsync`` to show the physical-disk multiplier.
- ``rto_log_length`` -- restart time (RTO) as a function of WAL length:
  a state dir with one snapshot and N logged records is reopened
  through a :class:`RecoveryManager` (scan, verify, fold the tail onto
  the snapshot, restore the net state in one batch).  RTO grows with
  the distinct keys the tail touches, not with its record count; every
  record here writes fresh keys, so that is still N times the batch.
- ``rto_checkpoint_interval`` -- RTO at a fixed mutation count as the
  in-memory checkpoint cadence tightens.  Past the first snapshot the
  interval no longer sets the disk cadence: a checkpoint is published
  only once the WAL since the newest snapshot holds as many items as
  that snapshot (``DurableStore.snapshot_due``), so the folded tail is
  bounded by the last snapshot's size plus one interval, and tighter
  intervals only tighten that bound's second term.

Every recovery cell also verifies the restart (restored range scan ==
the expected oracle state) and records that verdict in ``ok`` -- a fast
restart to the wrong state is not a benchmark win.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_durable.py [--quick]
        [--repeat N] [--out PATH]

Writes ``benchmarks/perf/BENCH_durable.json``; ``--quick`` shrinks the
log lengths to a seconds-scale smoke run (used by CI) and refuses to
overwrite a committed full-parameter baseline with quick numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro.core.skiplist import PIMSkipList  # noqa: E402
from repro.recovery import Checkpoint, RecoveryManager  # noqa: E402
from repro.recovery.durable import (  # noqa: E402
    DurabilityPolicy,
    DurableStore,
)
from repro.sim.machine import PIMMachine  # noqa: E402

OUT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_durable.json")

#: (records, pairs-per-record) for the append-throughput cell.
APPEND_FULL = (20_000, 8)
APPEND_QUICK = (2_000, 8)

#: WAL lengths for the RTO-vs-log-length sweep (checkpointing off).
LOG_LENGTHS_FULL = [32, 128, 512]
LOG_LENGTHS_QUICK = [16, 64]

#: Snapshot cadences for the RTO-vs-checkpoint-interval sweep.
INTERVALS_FULL = [1, 4, 16, 64]
INTERVALS_QUICK = [1, 8]

#: Mutating batches driven through the manager for the interval sweep.
INTERVAL_MUTATIONS_FULL = 128
INTERVAL_MUTATIONS_QUICK = 24

NUM_MODULES = 8
BATCH_KEYS = 8
INITIAL_ITEMS = [(k * 64, k) for k in range(1, 257)]


def bench_wal_append(records: int, pairs: int, *,
                     os_fsync: bool) -> Dict[str, Any]:
    """Append ``records`` batches straight into a DurableStore."""
    root = tempfile.mkdtemp(prefix="repro-bench-wal-")
    try:
        store = DurableStore.open(root, DurabilityPolicy(
            fsync_every=1, os_fsync=os_fsync))
        store.bootstrap(Checkpoint(kind="skiplist", name="bench",
                                   payload=list(INITIAL_ITEMS)))
        payloads = [[[i * pairs + j, j] for j in range(pairs)]
                    for i in range(records)]
        start = time.perf_counter()
        for payload in payloads:
            store.append("upsert", payload)
        seconds = time.perf_counter() - start
        stats = store.stats()
        store.close()
        wal_bytes = sum(
            os.path.getsize(os.path.join(root, n))
            for n in os.listdir(root) if n.endswith(".log"))
        return {
            "records": records,
            "pairs_per_record": pairs,
            "os_fsync": os_fsync,
            "seconds": seconds,
            "records_per_sec": records / seconds if seconds > 0 else 0.0,
            "fsyncs": stats["fsyncs"],
            "wal_bytes": wal_bytes,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _durable_manager(root: str, checkpoint_every: int,
                     ) -> Tuple[RecoveryManager, DurableStore]:
    store = DurableStore.open(root, DurabilityPolicy(os_fsync=False))

    def rebuild() -> PIMSkipList:
        return PIMSkipList(PIMMachine(num_modules=NUM_MODULES, seed=3))

    live = rebuild()
    if store.report.created:
        live.build(INITIAL_ITEMS)
    manager = RecoveryManager(live, rebuild,
                              checkpoint_every=checkpoint_every,
                              durable=store)
    return manager, store


def _populate(root: str, mutations: int, checkpoint_every: int,
              ) -> List[Tuple[int, int]]:
    """Drive ``mutations`` upsert batches through a durable manager;
    returns the expected final (key, value) state."""
    manager, store = _durable_manager(root, checkpoint_every)
    state = dict(INITIAL_ITEMS)
    for i in range(mutations):
        payload = [(1_000_000 + i * BATCH_KEYS + j, i)
                   for j in range(BATCH_KEYS)]
        manager.run("upsert", payload)
        state.update(payload)
    store.close()
    return sorted(state.items())


def bench_restart(mutations: int, checkpoint_every: int,
                  repeat: int) -> Dict[str, Any]:
    """Populate once, then time ``repeat`` cold restarts of the dir."""
    root = tempfile.mkdtemp(prefix="repro-bench-rto-")
    try:
        expected = _populate(root, mutations, checkpoint_every)
        lo, hi = expected[0][0], expected[-1][0]
        best = None
        replayed = 0
        ok = True
        for _ in range(repeat):
            start = time.perf_counter()
            manager, store = _durable_manager(root, checkpoint_every)
            seconds = time.perf_counter() - start
            replayed = len(store.report.records)
            got = manager.run("range", [(lo, hi)])
            ok = ok and got == [expected] and manager.restored_from_disk
            store.close()
            if best is None or seconds < best:
                best = seconds
        return {
            "mutations": mutations,
            "checkpoint_every": checkpoint_every,
            "replayed_records": replayed,
            "rto_seconds": best,
            "records_per_sec": (replayed / best) if best else 0.0,
            "ok": ok,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run(quick: bool = False, repeat: int = 3,
        out_path: Optional[str] = OUT_PATH) -> Dict[str, Any]:
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    records, pairs = APPEND_QUICK if quick else APPEND_FULL
    lengths = LOG_LENGTHS_QUICK if quick else LOG_LENGTHS_FULL
    intervals = INTERVALS_QUICK if quick else INTERVALS_FULL
    interval_mutations = (INTERVAL_MUTATIONS_QUICK if quick
                          else INTERVAL_MUTATIONS_FULL)

    best = None
    for _ in range(repeat):
        rec = bench_wal_append(records, pairs, os_fsync=False)
        if best is None or rec["seconds"] < best["seconds"]:
            best = rec
    print(f"wal_append         {best['seconds']:7.3f}s  "
          f"{best['records_per_sec']:>9.0f} rec/s  "
          f"({best['records']} records, modeled fsync)")
    fsynced = bench_wal_append(min(records, 2_000), pairs, os_fsync=True)
    print(f"wal_append+fsync   {fsynced['seconds']:7.3f}s  "
          f"{fsynced['records_per_sec']:>9.0f} rec/s  "
          f"(informational: real os.fsync)")

    log_sweep = []
    for length in lengths:
        # snapshot cadence far beyond the log: every mutation replays
        cell = bench_restart(length, length + 1, repeat)
        log_sweep.append(cell)
        print(f"rto log={length:<5}      {cell['rto_seconds']:7.3f}s  "
              f"replayed {cell['replayed_records']:>4d} records  "
              f"{'ok' if cell['ok'] else 'RESTART WRONG'}")

    interval_sweep = []
    for interval in intervals:
        # Stop one mutation short of the next checkpoint boundary; the
        # tail left on disk also depends on when the last checkpoint
        # was published (see the module docstring).
        worst_case = (interval_mutations
                      - interval_mutations % interval + interval - 1)
        cell = bench_restart(worst_case, interval, repeat)
        interval_sweep.append(cell)
        print(f"rto interval={interval:<3}   {cell['rto_seconds']:7.3f}s  "
              f"replayed {cell['replayed_records']:>4d} records  "
              f"{'ok' if cell['ok'] else 'RESTART WRONG'}")

    doc = {
        "config": {"quick": quick, "repeat": repeat,
                   "num_modules": NUM_MODULES, "batch_keys": BATCH_KEYS},
        "wal_append": best,
        "wal_append_fsync": fsynced,
        "rto_log_length": log_sweep,
        "rto_checkpoint_interval": interval_sweep,
    }
    if out_path:
        if quick and os.path.exists(out_path):
            with open(out_path) as f:
                committed = json.load(f)
            if not committed.get("config", {}).get("quick", True):
                print(f"\nrefusing to overwrite the full-parameter "
                      f"baseline {out_path} with --quick numbers; "
                      f"pass --out to write elsewhere")
                return doc
        with open(out_path, "w") as f:
            json.dump(doc, f, indent=2)
        print(f"\nwrote {out_path}")
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="shrunk log lengths (CI smoke run)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="repeats per cell; best is reported (default 3)")
    ap.add_argument("--out", default=OUT_PATH,
                    help="output JSON path (default BENCH_durable.json)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error(f"--repeat must be >= 1, got {args.repeat}")
    doc = run(quick=args.quick, repeat=args.repeat, out_path=args.out)
    cells = doc["rto_log_length"] + doc["rto_checkpoint_interval"]
    return 0 if all(c["ok"] for c in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
