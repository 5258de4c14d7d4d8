"""The benchmark's workloads, driven through the library's public entry points.

Each workload generates its inputs from the seed before a pass starts,
runs the pass (the timed part), and checks every answer afterwards
against :class:`repro.verify.oracle.SequentialOracle`.  No workload
passes ``backend=`` or ``storage=``: they run the defaults a user gets.
The one default changed is the simulator's per-round log
(``trace_rounds``), off as in the repository's other wall-clock benchmarks.

- ``serve_mixed`` -- ``Server.submit`` from 256 closed-loop clients,
  90% reads, no state dir.
- ``serve_durable`` -- the same server with a state dir, real fsync and
  the default checkpoint cadence; 64 clients, 90% writes.
- ``cold_restart`` -- ``DurableStore.open`` + ``RecoveryManager`` over a
  snapshot and a long WAL tail on a hot key set, up to the first answer.
- ``model_batch`` -- ``PIMSkipList.apply_batch`` at P=128 with batches
  at the paper's minimum sizes (P log P gets, P log^2 P the rest).

Both serve workloads draw the soak harness's traffic
(``repro.verify.soak._client_op``) rescaled to their read share: reads in
soak's get:multi-get:range:successor ratio 40:10:10:5, writes in its
upsert:delete ratio 25:10, multi-gets of 2-4 keys, ranges of span 1-8.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import time
from contextlib import nullcontext
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from repro.core.skiplist import PIMSkipList
from repro.recovery import DegradedResult, RecoveryManager
from repro.recovery.durable import DurableStore
from repro.recovery.durable.wal import encode_record
from repro.serve import Refusal, Server, ServerConfig
from repro.sim.machine import PIMMachine
from repro.verify.oracle import SequentialOracle

from tally import Tally
from tracing import Tracer, observe

VALUE_SPACE = 1 << 30
SIM_COUNTERS = ("rounds", "io_time", "pim_time", "cpu_work")
#: Relative shares of the soak harness's reads and writes.
SOAK_READS = (("get", 40), ("mget", 10), ("range", 10), ("successor", 5))
SOAK_WRITES = (("upsert", 25), ("delete", 10))


def soak_mix(read_share: float) -> Tuple[Tuple[str, float], ...]:
    """Soak's shares rescaled so reads are ``read_share`` of the requests."""
    reads = sum(w for _, w in SOAK_READS)
    writes = sum(w for _, w in SOAK_WRITES)
    return (tuple((op, read_share * w / reads) for op, w in SOAK_READS)
            + tuple((op, (1.0 - read_share) * w / writes)
                    for op, w in SOAK_WRITES))


def _rng(seed: int, *salt: object) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed,) + salt))


def _initial(rng: random.Random, key_space: int,
             count: int) -> List[Tuple[int, int]]:
    keys = sorted(rng.sample(range(key_space), count))
    return [(k, rng.randrange(VALUE_SPACE)) for k in keys]


class Fleet:
    """Every skip list (and so every machine) one set-up creates.

    ``structure`` is also the standby factory handed to the recovery
    layer, so structures the library builds on its own (restores,
    failovers) are counted and traced like the benchmark's.
    """

    def __init__(self, num_modules: int, seed: int) -> None:
        self.num_modules = num_modules
        self.seed = seed
        self.structures: List[PIMSkipList] = []
        self.retired = dict.fromkeys(SIM_COUNTERS, 0.0)
        self.tracer: Optional[Tracer] = None

    def structure(self) -> PIMSkipList:
        # No per-round log: it is an unbounded list kept for the round
        # timeline reports, and the collector's full passes over it would
        # make a run's pauses grow with the number of passes it made.
        sl = PIMSkipList(PIMMachine(num_modules=self.num_modules,
                                    seed=self.seed, trace_rounds=False))
        self.structures.append(sl)
        if self.tracer is not None:
            trace_structure(self.tracer, sl)
        return sl

    def trace(self, tracer: Tracer) -> None:
        """Instrument every structure made so far and from now on."""
        self.tracer = tracer
        for sl in self.structures:
            trace_structure(tracer, sl)

    def counters(self) -> Dict[str, float]:
        """Simulated statistics summed over every machine so far."""
        out = dict(self.retired)
        for sl in self.structures:
            for name in SIM_COUNTERS:
                out[name] += getattr(sl.machine.metrics, name)
        return out

    def release(self) -> None:
        """Fold the current machines into ``retired`` and drop them."""
        self.retired = self.counters()
        self.structures = []


def trace_structure(tracer: Tracer, sl: PIMSkipList) -> None:
    tracer.wrap(sl, "apply_batch", "core.apply",
                describe=lambda op, payload: (f"core.apply.{op}", len(payload)))
    tracer.wrap(sl, "batch_upsert", "core.batch_upsert",
                describe=lambda pairs: ("core.batch_upsert", len(pairs)))
    tracer.wrap(sl.machine, "drain", "sim.drain")


def untimed(fn: Any, *args: Any) -> Any:
    return fn(*args)


class Workload:
    """Set-up, passes and checks of one workload (see module docstring).

    ``run.py`` calls ``setup`` (several times; the last one is used),
    then per pass ``prepare`` (untimed), ``execute`` (the steps it runs
    through ``run.py``'s stopwatch are timed) and ``account`` (untimed),
    and ``finish`` once at the end.
    """

    name = ""
    why = ""
    #: Latency a correct answer must beat to meet the workload's limit.
    latency_limit_s = 1.0
    #: What ``execute`` returns as its unit of work.
    unit = ""
    #: Whether the workload writes with real fsync (None: no disk writes).
    fsync: Optional[bool] = None
    #: Layer whose event loop a pass is: the self time of the pass root.
    loop_layer: Optional[str] = None

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.problems: List[str] = []
        self.fleet: Fleet
        self.tracer: Optional[Tracer] = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> Any:
        raise NotImplementedError

    def execute(self, inputs: Any, step: Any = untimed) -> Tuple[Any, int]:
        """Run one pass; returns ``(output, units of work done)``.

        The timed part is what the pass runs through ``step(fn, *args)``,
        which returns ``fn(*args)``: ``run.py`` passes a stopwatch.
        """
        raise NotImplementedError

    def account(self, index: int, inputs: Any, output: Any,
                seconds: float, timed: bool) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release the previous set-up's resources (untimed)."""

    def finish(self) -> None:
        """Release resources and run the end-of-run checks."""

    def trace(self, tracer: Tracer) -> None:
        """Instrument every instance this workload created or will create."""
        self.tracer = tracer
        self.fleet.trace(tracer)

    def trace_counters(self) -> Dict[str, float]:
        """Cumulative counts that spans do not carry."""
        return {}

    def detail(self) -> Dict[str, Any]:
        """Workload-specific figures for the human-readable report."""
        return {}

    def _span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)


# ---------------------------------------------------------------------------
# serve


class ServeWorkload(Workload):
    """Closed-loop asyncio clients against one in-process ``Server``.

    Every client is a coroutine that submits its next request when the
    previous one resolves.  A pass is ``per_client`` requests from each
    client; the server, its tenants and its journal persist across
    passes.  Latency is ``submit`` to resolve.
    """

    unit = "requests"
    latency_limit_s = 0.25
    loop_layer = "serve"
    num_modules = 8
    clients = 0
    per_client = 0
    key_space = 0
    #: Share of reads in :func:`soak_mix`.
    read_share = 0.0
    durable = False

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.server: Optional[Server] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.setups = 0
        mix = soak_mix(self.read_share)
        self.ops = [op for op, _ in mix]
        self.weights = [share for _, share in mix]
        # Start at the key density the write mix holds steady.
        upserts, deletes = (w for _, w in SOAK_WRITES)
        self.present = upserts / (upserts + deletes)

    def setup(self) -> None:
        self.setups += 1
        rng = _rng(self.seed, self.name, "keys")
        self.initial = _initial(rng, self.key_space,
                                int(self.key_space * self.present))
        self.oracle = SequentialOracle(self.initial)
        self.fleet = Fleet(self.num_modules, self.seed)
        live = self.fleet.structure()
        live.build(self.initial)
        state_dir = None
        if self.durable:
            state_dir = os.path.join(self.workdir, f"state-{self.setups}")
        self.server = Server(live, self.fleet.structure,
                             ServerConfig(seed=self.seed, state_dir=state_dir))
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.server.start())
        self.tenants = [f"c{c:04d}" for c in range(self.clients)]
        self.programs = [_rng(self.seed, self.name, "client", c)
                         for c in range(self.clients)]

    def teardown(self) -> None:
        if self.server is None:
            return
        server, self.server = self.server, None
        try:
            self.loop.run_until_complete(server.stop())
        except Exception as exc:  # the scheduler failed: stop re-raises it
            self.problems.append(f"server failed: {exc!r}")
        finally:
            self.loop.close()

    def _draw(self, rng: random.Random) -> Tuple[str, list]:
        op = rng.choices(self.ops, self.weights)[0]
        key = rng.randrange(self.key_space)
        if op == "mget":
            return "get", [key] + [rng.randrange(self.key_space)
                                   for _ in range(1 + rng.randrange(3))]
        if op == "range":
            span = 1 + rng.randrange(8)
            return "range", [(key, min(self.key_space - 1, key + span))]
        if op == "upsert":
            return "upsert", [(key, rng.randrange(VALUE_SPACE))]
        return op, [key]

    def prepare(self, index: int) -> List[List[Tuple[str, list]]]:
        return [[self._draw(rng) for _ in range(self.per_client)]
                for rng in self.programs]

    def execute(self, inputs: List[List[Tuple[str, list]]], step=untimed):
        server = self.server
        clock = time.perf_counter

        async def client(tenant: str, program, out: list) -> None:
            for op, payload in program:
                start = clock()
                try:
                    outcome = await server.submit(tenant, op, payload)
                except Exception as exc:  # counted as a failed request
                    outcome = exc
                out.append((op, outcome, clock() - start))

        async def drive() -> List[list]:
            outs: List[list] = [[] for _ in self.tenants]
            await asyncio.gather(*(client(t, p, o) for t, p, o
                                   in zip(self.tenants, inputs, outs)))
            return outs

        outs = step(self.loop.run_until_complete, drive())
        return outs, sum(len(o) for o in outs)

    def account(self, index, inputs, output, seconds, timed) -> None:
        """Replay this pass's journal entries through the oracle and match
        each tenant's answers against its slices, in program order.

        The server is idle between passes and the checked entries are
        dropped, so the pass's answers are exactly the journal's entries.
        """
        journal = self.server.journal
        expect: Dict[str, List[tuple]] = {}
        for entry in journal:
            answers = self.oracle.apply_batch(entry.op, list(entry.items))
            for _, tenant, lo, hi in entry.slices:
                expect.setdefault(tenant, []).append(
                    (entry.op, None if answers is None else answers[lo:hi],
                     entry.kind))
        # Drop the checked entries: the journal grows with every batch,
        # and the collector's full passes would slow with it.
        del journal[:]
        tally = self.tally
        for tenant, out in zip(self.tenants, output):
            slots = expect.get(tenant, [])
            cursor = 0
            for op, outcome, latency in out:
                if isinstance(outcome, (Refusal, DegradedResult, Exception)):
                    tally.fail()
                    if isinstance(outcome, Exception) and len(self.problems) < 5:
                        self.problems.append(f"{tenant} {op}: {outcome!r}")
                    continue
                if cursor >= len(slots):
                    tally.fail()
                    self.problems.append(f"{tenant}: answer missing from journal")
                    continue
                want_op, want, kind = slots[cursor]
                cursor += 1
                if want_op != op or kind != "live" or outcome != want:
                    tally.fail()
                    if len(self.problems) < 5:
                        self.problems.append(
                            f"{tenant} {op}: got {outcome!r}, want {want!r}")
                    continue
                tally.ok(latency if timed else None)
            if cursor != len(slots):
                self.problems.append(
                    f"{tenant}: {len(slots) - cursor} journaled slice(s) "
                    f"with no answered request")

    def finish(self) -> None:
        server = self.server
        self.teardown()
        if server.journal:
            self.problems.append("journal entries after the last pass")
        final = server.manager.structure.to_dict()
        if final != self.oracle.data:
            diff = set(final.items()) ^ set(self.oracle.data.items())
            self.problems.append(
                f"final state differs from the oracle in {len(diff)} pair(s)")

    def trace(self, tracer: Tracer) -> None:
        server = self.server
        tracer.batch_id = lambda: server.batches_served
        tracer.wrap(server.admission, "admit", "serve.admit")
        tracer.wrap(server.coalescer, "next_batch", "serve.coalesce")
        tracer.wrap(server.policy, "execute", "serve.policy",
                    describe=lambda batch, tick: ("serve.policy",
                                                  len(batch.items)))
        manager = server.manager
        self.checkpoints = 0
        last = [manager.checkpoint]

        def count_checkpoint(result, *args) -> None:
            if manager.checkpoint is not last[0]:
                last[0] = manager.checkpoint
                self.checkpoints += 1

        observe(manager, "_note_success", count_checkpoint)
        tracer.wrap(manager, "run", "recovery.run")
        tracer.wrap(manager, "_note_success", "recovery.note_success")
        self.wal_records: List[Any] = []
        if server.durable is not None:
            observe(server.durable, "append",
                    lambda record, *args: self.wal_records.append(record))
            tracer.wrap(server.durable, "append", "durable.append")
            tracer.wrap(server.durable, "snapshot", "durable.snapshot")
        super().trace(tracer)

    def trace_counters(self) -> Dict[str, float]:
        durable = self.server.durable
        records = self.wal_records
        return {
            "checkpoints": self.checkpoints,
            "fsyncs": durable.stats()["fsyncs"] if durable else 0,
            "wal_bytes": sum(len(encode_record(r)) for r in records),
            "wal_items": sum(len(r.payload) for r in records),
        }


class ServeMixed(ServeWorkload):
    name = "serve_mixed"
    why = ("In-memory Server, P=8, 256 closed-loop clients over 2^15 keys; "
           "soak's mix rescaled to 90% reads (get:mget:range:successor "
           "40:10:10:5), 10% writes (upsert:delete 25:10); durable idle")
    clients = 256
    per_client = 16
    key_space = 1 << 15
    read_share = 0.9


class ServeDurable(ServeWorkload):
    name = "serve_durable"
    why = ("Server with a state dir, real fsync, default checkpoint cadence; "
           "64 clients over 2^13 keys; soak's mix rescaled to 90% writes "
           "(upsert:delete 25:10): WAL append+fsync per write, snapshots")
    clients = 64
    per_client = 16
    key_space = 1 << 13
    durable = True
    fsync = True
    read_share = 0.1


# ---------------------------------------------------------------------------
# cold restart


class ColdRestart(Workload):
    """Reopen a state dir and answer one read; one pass is one restart.

    The state dir holds snapshot 0 (``snapshot_keys`` keys) and a WAL
    tail of ``records`` mutation records of ``record_items`` items each,
    all on ``hot_keys`` keys.  Each pass restarts from a fresh copy.
    """

    name = "cold_restart"
    unit = "records"
    latency_limit_s = 5.0
    fsync = True
    num_modules = 8
    key_space = 1 << 11
    snapshot_keys = 1 << 10
    records = 512
    record_items = 8
    hot_keys = 64
    why = ("Snapshot of 1024 keys + 512-record WAL tail of 8 items on 64 hot "
           "keys (distinct keys/records 0.125); open -> restore -> replay -> "
           "first correct get; no serve layer")

    def setup(self) -> None:
        rng = _rng(self.seed, self.name)
        self.fleet = Fleet(self.num_modules, self.seed)
        initial = _initial(rng, self.key_space, self.snapshot_keys)
        self.hot = sorted(rng.sample(range(self.key_space), self.hot_keys))
        self.pristine = os.path.join(self.workdir, "pristine")
        shutil.rmtree(self.pristine, ignore_errors=True)
        live = self.fleet.structure()
        live.build(initial)
        oracle = SequentialOracle(initial)
        store = DurableStore.open(self.pristine)
        try:
            manager = RecoveryManager(live, self.fleet.structure,
                                      checkpoint_every=self.records + 1,
                                      durable=store)
            for _ in range(self.records):
                if rng.randrange(4):
                    op, payload = "upsert", [
                        (k, rng.randrange(VALUE_SPACE))
                        for k in rng.sample(self.hot, self.record_items)]
                else:
                    op, payload = "delete", rng.sample(self.hot,
                                                       self.record_items)
                manager.run(op, payload)
                oracle.apply_batch(op, payload)
        finally:
            store.close()
        self.state = oracle.data
        self.first_answer = [oracle.get(k) for k in self.hot]
        self.fleet.release()

    def prepare(self, index: int) -> Tuple[str, PIMSkipList]:
        run_dir = os.path.join(self.workdir, "restart")
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.copytree(self.pristine, run_dir)
        # The structure a restarting process passes in; the manager
        # replaces it with a restored standby.
        return run_dir, self.fleet.structure()

    def execute(self, inputs, step=untimed):
        return step(self._restart, *inputs)

    def _restart(self, run_dir: str, placeholder: PIMSkipList):
        store = manager = None
        try:
            with self._span("durable.open"):
                store = DurableStore.open(run_dir)
            with self._span("recovery.open"):
                manager = RecoveryManager(placeholder, self.fleet.structure,
                                          durable=store)
            if self.tracer is not None:
                self.tracer.wrap(manager, "run", "recovery.run")
            answer = manager.run("get", self.hot)
        except Exception as exc:  # counted as a failed restart
            answer = exc
        done = len(store.report.records) if manager is not None else 0
        return (store, manager, answer), done

    def account(self, index, inputs, output, seconds, timed) -> None:
        store, manager, answer = output
        if store is not None:
            store.close()
        ok = (manager is not None and answer == self.first_answer
              and len(store.report.records) == self.records
              and manager.structure.to_dict() == self.state)
        if ok:
            self.tally.ok(seconds if timed else None)
        else:
            self.tally.fail()
            cause = (repr(answer) if isinstance(answer, Exception)
                     else "state differs from the oracle over the acked records")
            self.problems.append(f"restart {index}: {cause}")
        self.fleet.release()
        shutil.rmtree(inputs[0], ignore_errors=True)

    def finish(self) -> None:
        shutil.rmtree(self.pristine, ignore_errors=True)


# ---------------------------------------------------------------------------
# model batch


class ModelBatch(Workload):
    """Direct ``apply_batch`` on one P=128 skip list.

    A pass is one get batch of ``P log P`` keys and one successor, upsert
    and delete batch of ``P log^2 P`` keys each.  The delete batch removes
    exactly the keys the upsert inserted (plus absent keys), so the key
    count stays at ``initial_keys``.  The latency sample is the pass.
    """

    name = "model_batch"
    unit = "keys"
    latency_limit_s = 5.0
    num_modules = 128
    key_space = 1 << 17
    initial_keys = 1 << 15
    why = ("PIMSkipList at P=128 with 2^15 of 2^17 keys; get batches of "
           "1024 >= P log P and successor/upsert/delete of 6272 = P log^2 P "
           "keys: sim and core only")

    def setup(self) -> None:
        self.fleet = Fleet(self.num_modules, self.seed)
        rng = _rng(self.seed, self.name, "keys")
        initial = _initial(rng, self.key_space, self.initial_keys)
        self.sl = self.fleet.structure()
        self.sl.build(initial)
        self.oracle = SequentialOracle(initial)
        self.rng = _rng(self.seed, self.name, "batches")
        self.batch_seconds: Dict[str, List[float]] = {}
        self.get_size = max(1024, self.sl.min_point_batch)
        self.search_size = self.sl.min_search_batch

    def prepare(self, index: int):
        rng, oracle, space = self.rng, self.oracle, self.key_space
        present = list(oracle.data)
        gets = ([present[rng.randrange(len(present))]
                 for _ in range(self.get_size // 2)]
                + [rng.randrange(space) for _ in range(self.get_size // 2)])
        succs = [rng.randrange(space) for _ in range(self.search_size)]
        upserts = [(k, rng.randrange(VALUE_SPACE))
                   for k in rng.sample(range(space), self.search_size)]
        fresh = [k for k, _ in upserts if k not in oracle.data]
        expected = [oracle.apply_batch("get", gets),
                    oracle.apply_batch("successor", succs)]
        state = dict(oracle.data)
        state.update(upserts)
        absent = set()
        while len(fresh) + len(absent) < self.search_size:
            k = rng.randrange(space)
            if k not in state:
                absent.add(k)
        deletes = fresh + sorted(absent)
        rng.shuffle(deletes)
        # The state after the deletes, built afresh: the oracle deletes
        # one key at a time from a sorted list, which takes seconds here.
        for k in fresh:
            del state[k]
        self.oracle = SequentialOracle(state.items())
        batches = [("get", gets), ("successor", succs), ("upsert", upserts),
                   ("delete", deletes)]
        return batches, expected

    def execute(self, inputs, step=untimed):
        batches, _ = inputs
        clock = time.perf_counter

        def apply(op: str, payload: list) -> Tuple[Any, float]:
            start = clock()
            try:
                result = self.sl.apply_batch(op, payload)
            except Exception as exc:  # counted against the batch's keys
                result = exc
            return result, clock() - start

        # One step per batch: a pass takes seconds, and the host's speed
        # is probed between its batches.
        out = [step(apply, op, payload) for op, payload in batches]
        return out, sum(len(p) for _, p in batches)

    def account(self, index, inputs, output, seconds, timed) -> None:
        batches, expected = inputs
        wrong = 0
        for i, ((op, payload), (result, latency)) in enumerate(
                zip(batches, output)):
            if timed:
                self.batch_seconds.setdefault(op, []).append(latency)
            if isinstance(result, Exception):
                self.problems.append(f"pass {index} {op}: {result!r}")
                wrong += len(payload)
                continue
            if i >= len(expected):
                continue  # mutations: checked through the final state
            bad = sum(1 for got, want in zip(result, expected[i]) if got != want)
            bad += abs(len(result) - len(expected[i]))
            if bad:
                self.problems.append(f"pass {index} {op}: {bad} wrong answer(s)")
            wrong += bad
        if self.sl.size != len(self.oracle):
            self.problems.append(f"pass {index}: {self.sl.size} keys stored, "
                                 f"{len(self.oracle)} expected")
        keys = sum(len(payload) for _, payload in batches)
        if wrong:
            self.tally.fail(wrong)
            self.tally.ok(None, keys - wrong)
        else:
            self.tally.ok(seconds if timed else None, keys)

    def detail(self) -> Dict[str, Any]:
        return {"batch_p50_s": {op: median(v)
                                for op, v in self.batch_seconds.items()}}

    def finish(self) -> None:
        final = self.sl.to_dict()
        if final != self.oracle.data:
            diff = len(set(final.items()) ^ set(self.oracle.data.items()))
            self.tally.fail(diff)
            self.problems.append(f"final state differs in {diff} pair(s)")


WORKLOADS = {cls.name: cls for cls in (ServeMixed, ServeDurable, ColdRestart,
                                       ModelBatch)}
