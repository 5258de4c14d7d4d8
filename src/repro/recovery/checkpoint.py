"""Logical checkpoints of PIM data structures.

A checkpoint is a *logical* snapshot: the structure's contents in a
canonical, structure-specific form, not a byte image of module memory.
Capture is diagnostic and cost-free -- the model's checkpoint stream
leaves over the same out-of-band bulk channel that ``bulk_build`` uses
for initial loading (the paper assumes the input "starts evenly divided
among the PIM modules"; a checkpoint drain is the reverse of that bulk
load).  *Restore* is the opposite: it re-enters the machine through the
ordinary batched operations and is charged honestly (rounds, messages,
PIM work, words).  For the ordered maps a restore can also fold a log
of later upsert/delete batches onto the checkpoint first, so the net
state enters the machine in one batch.

Canonical payloads:

- :class:`~repro.core.skiplist.PIMSkipList` -- sorted ``(key, value)``
  list.
- :class:`~repro.structures.lsm.PIMLSMStore` -- dict with the delta's
  items (tombstones included), the run blocks keyed by block id, fences,
  block ownership, generation and run size.  The extra physical detail
  exists for in-place module repair (:mod:`repro.recovery.repair`);
  logical restore uses :func:`merged_lsm_items`.
- :class:`~repro.structures.fifo.PIMQueue` -- queued values oldest
  first.  A restore re-enqueues them, so sequence counters restart at
  zero; FIFO semantics are unchanged.
- :class:`~repro.structures.priority_queue.PIMPriorityQueue` --
  ``(priority, value)`` pairs in extraction order.  A restore re-inserts
  them in that order, so fresh tiebreaks preserve FIFO among equal
  priorities.
- :class:`~repro.structures.pimtree.PIMTree` -- sorted ``(key, value)``
  list, drained leaf by leaf along the chain.  A restore bulk-loads an
  empty tree (shadow promotions restart cold -- they are a cache).
  Unlike the skip list (whose object graph is CPU-visible), the tree's
  leaves live *only* in module DRAM, so capture from a machine with a
  wiped-and-unrepaired module raises :class:`CheckpointUnavailable`;
  the recovery manager keeps its previous checkpoint + log instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.skiplist import PIMSkipList
from repro.structures.fifo import PIMQueue
from repro.structures.lsm import TOMBSTONE, PIMLSMStore
from repro.structures.pimtree import PIMTree
from repro.structures.priority_queue import PIMPriorityQueue

__all__ = [
    "Checkpoint",
    "CheckpointUnavailable",
    "checkpoint_structure",
    "merged_lsm_items",
    "restore_structure",
]


class CheckpointUnavailable(RuntimeError):
    """Capture would read a wiped (unreadable) module; the caller should
    keep its previous checkpoint and try again after the next batch."""


@dataclass(frozen=True)
class Checkpoint:
    """One logical snapshot of one structure.

    ``kind`` names the structure family (``skiplist`` / ``lsm`` /
    ``fifo`` / ``pq``), ``name`` is the instance name on its machine,
    ``payload`` the canonical contents (see module docstring), and
    ``batches`` the number of mutating batches the owner had applied at
    capture time (bookkeeping for :class:`repro.recovery.manager.RecoveryManager`).
    """

    kind: str
    name: str
    payload: Any
    batches: int = 0

    def item_count(self) -> int:
        """Logical item count (merged and tombstone-free for LSM)."""
        if self.kind == "lsm":
            return len(merged_lsm_items(self))
        return len(self.payload)


def checkpoint_structure(obj: Any, batches: int = 0) -> Checkpoint:
    """Capture a logical checkpoint of ``obj`` (diagnostic, cost-free)."""
    if isinstance(obj, PIMSkipList):
        items = [(n.key, n.value) for n in obj.struct.iter_level(0)]
        return Checkpoint("skiplist", obj.struct.name, items, batches)
    if isinstance(obj, PIMLSMStore):
        blocks: Dict[int, List[Tuple[Any, Any]]] = {}
        for module in obj.machine.modules:
            for bid, block in module.state.get(obj.name, {}).items():
                blocks[bid] = [tuple(entry) for entry in block]
        payload = {
            "delta": [(n.key, n.value) for n in obj.delta.struct.iter_level(0)],
            "blocks": blocks,
            "fences": list(obj.fences),
            "block_owner": list(obj.block_owner),
            "generation": obj.generation,
            "run_size": obj.run_size,
        }
        return Checkpoint("lsm", obj.name, payload, batches)
    if isinstance(obj, PIMQueue):
        values = [
            obj.machine.modules[obj._owner(seq)].state[obj.name][seq]
            for seq in range(obj.head, obj.tail)
        ]
        return Checkpoint("fifo", obj.name, values, batches)
    if isinstance(obj, PIMPriorityQueue):
        pairs = [(n.key[0], n.value) for n in obj.sl.struct.iter_level(0)]
        return Checkpoint("pq", obj.name, pairs, batches)
    if isinstance(obj, PIMTree):
        items: List[Tuple[Any, Any]] = []
        lid = obj.first_leaf
        while lid is not None:
            owner = obj.leaf_owner[lid]
            if owner in obj.machine.wiped_modules:
                raise CheckpointUnavailable(
                    f"pimtree leaf {lid} lives on wiped module {owner}")
            state = obj.machine.modules[owner].state.get(obj.name)
            if state is None or lid not in state["leaf"]:
                raise CheckpointUnavailable(
                    f"pimtree leaf {lid} unreadable on module {owner}")
            items.extend(tuple(p) for p in state["leaf"][lid])
            lid = obj.leaf_next[lid]
        return Checkpoint("pimtree", obj.name, items, batches)
    raise TypeError(f"no checkpoint support for {type(obj).__name__}")


def merged_lsm_items(chk: Checkpoint) -> List[Tuple[Any, Any]]:
    """An LSM checkpoint's logical contents: run blocks merged with the
    delta, delta shadowing the run, tombstones dropped; sorted."""
    if chk.kind != "lsm":
        raise ValueError(f"not an LSM checkpoint: {chk.kind!r}")
    merged: Dict[Any, Any] = {}
    for bid in sorted(chk.payload["blocks"]):
        for key, value in chk.payload["blocks"][bid]:
            merged[key] = value
    for key, value in chk.payload["delta"]:
        if value == TOMBSTONE:
            merged.pop(key, None)
        else:
            merged[key] = value
    return sorted(merged.items())


def _fold(items: Iterable[Tuple[Any, Any]],
          log: Iterable[Tuple[str, Sequence]]) -> List[Tuple[Any, Any]]:
    """Net state of ordered-map ``items`` after the mutating batches in
    ``log``, sorted: ``upsert`` sets (the last duplicate in a batch
    wins), ``delete`` pops (an absent key is a no-op)."""
    state: Dict[Any, Any] = dict(items)
    for op, payload in log:
        if op == "upsert":
            state.update(payload)
        elif op == "delete":
            for key in payload:
                state.pop(key, None)
        else:
            raise ValueError(f"cannot fold logged op {op!r}")
    return sorted(state.items())


def restore_structure(chk: Checkpoint, target: Any,
                      log: Sequence[Tuple[str, Sequence]] = ()) -> int:
    """Load ``chk`` with the mutating batches ``log`` folded on top into
    the freshly built, *empty* structure ``target``.

    The log (``(op, payload)`` pairs of ``upsert`` / ``delete``
    batches, oldest first) is folded on the host into the net state,
    and that state is loaded in one batch -- a restart or failover
    needs the logical contents, not the model cost of re-deriving them
    batch by batch.  Only the ordered maps (skip list, LSM, PIM-tree)
    accept a non-empty log.

    The load re-enters the machine through the structure's ordinary
    batched operations, so it is charged honestly on ``target``'s
    machine (this is the "re-replicate onto standby hardware" leg of
    recovery -- run it on a clean machine).  Returns the number of
    logical items restored.
    """
    if isinstance(target, PIMSkipList):
        if chk.kind != "skiplist":
            raise ValueError(f"checkpoint kind {chk.kind!r} != skiplist")
        if target.size != 0:
            raise ValueError("restore requires an empty structure")
        items = _fold(chk.payload, log)
        if items:
            target.batch_upsert(items)
        return len(items)
    if isinstance(target, PIMLSMStore):
        if chk.kind != "lsm":
            raise ValueError(f"checkpoint kind {chk.kind!r} != lsm")
        if target.size_estimate != 0:
            raise ValueError("restore requires an empty structure")
        items = _fold(merged_lsm_items(chk), log)
        if items:
            target.batch_upsert(items)
        return len(items)
    if isinstance(target, (PIMQueue, PIMPriorityQueue)) and log:
        raise ValueError(
            f"{type(target).__name__} restore takes no replay log")
    if isinstance(target, PIMQueue):
        if chk.kind != "fifo":
            raise ValueError(f"checkpoint kind {chk.kind!r} != fifo")
        if len(target) != 0:
            raise ValueError("restore requires an empty queue")
        if chk.payload:
            target.enqueue_batch(list(chk.payload))
        return len(chk.payload)
    if isinstance(target, PIMPriorityQueue):
        if chk.kind != "pq":
            raise ValueError(f"checkpoint kind {chk.kind!r} != pq")
        if len(target) != 0:
            raise ValueError("restore requires an empty queue")
        if chk.payload:
            target.insert_batch(list(chk.payload))
        return len(chk.payload)
    if isinstance(target, PIMTree):
        if chk.kind != "pimtree":
            raise ValueError(f"checkpoint kind {chk.kind!r} != pimtree")
        if target.first_leaf is not None:
            raise ValueError("restore requires an empty tree")
        items = _fold(chk.payload, log)
        if items:
            target.build(items)
        return len(items)
    raise TypeError(f"no restore support for {type(target).__name__}")
