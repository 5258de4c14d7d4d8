"""Checkpoint + log recovery driver for batched structures.

:class:`RecoveryManager` wraps one structure on one (possibly
fault-injected) machine and makes its batch stream survive module
crashes:

- it takes a logical checkpoint at start and after every
  ``checkpoint_every`` successful *mutating* batches,
- it logs every successful mutating batch since the last checkpoint,
- when a batch dies with :class:`~repro.sim.errors.ModuleCrashed` or
  :class:`~repro.sim.errors.DeliveryTimeout`, it rebuilds the structure
  on a *clean* standby machine (the ``rebuild`` factory), restores the
  checkpoint with the log folded on top (the net state, loaded in one
  batch), retries the failed batch there, and continues on the new
  machine.

The failed batch may have partially executed on the faulty machine
(some modules applied their slice before the crash surfaced); retrying
it against checkpoint + log is still exactly-once *semantically*
because the restored state contains no effect of the failed batch --
the faulty machine is abandoned wholesale, never read again.

Read-only batches get one cheaper escape hatch first: a
:class:`~repro.sim.errors.DeliveryTimeout` on a non-mutating batch may
be retried **in place** (``read_retry_attempts``) with backoff charged
as idle rounds, because reads leave no partial state behind.  Mutating
batches never retry in place -- a timed-out mutation may have spliced
half its pointers, and only wholesale abandonment is safe.

With ``allow_restore=False`` (or after ``max_recoveries`` failovers)
the manager degrades instead: the structure is quiesced and every
subsequent batch returns a typed :class:`DegradedResult` rather than a
possibly-wrong answer.

The serving layer (:mod:`repro.serve`) drives its circuit breaker and
health state machine off the ``on_failure`` / ``on_recovery`` /
``on_degrade`` hooks; the manager itself stays policy-free.

With a :class:`~repro.recovery.durable.store.DurableStore` attached
(``durable=``), the checkpoint + log additionally survive *host*
crashes: every successful mutating batch is appended to the on-disk
WAL **before** ``run`` returns (so an acked write is a durable write,
RPO = 0).  An in-memory checkpoint is published as a disk snapshot
only when :meth:`~repro.recovery.durable.store.DurableStore.snapshot_due`
says so -- once the WAL since the last snapshot holds as many items
as that snapshot -- so snapshot bytes stay O(1) amortised per logged
item instead of a full rewrite every ``checkpoint_every`` batches.
Between publications disk keeps the older snapshot plus the whole WAL
after it, which describes the same state as the newer in-memory
checkpoint plus its shorter log.  Constructing a manager over a state
dir with prior state restores it onto a fresh ``rebuild()`` structure
instead of using the one passed in: the WAL tail is folded onto the
snapshot's items on the host and the net state is loaded once, so
restart cost grows with the distinct keys the tail touches, not with
its records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.recovery.checkpoint import (
    Checkpoint,
    CheckpointUnavailable,
    checkpoint_structure,
    restore_structure,
)
from repro.recovery.durable.store import DurableStore
from repro.sim.errors import DeliveryTimeout, ModuleCrashed

__all__ = ["DegradedReason", "DegradedResult", "MUTATING_OPS",
           "RecoveryEvent", "RecoveryManager"]

#: ``apply_batch`` ops that change structure state (and so must be
#: logged and folded into a restore).  Reads are never logged.
MUTATING_OPS = frozenset({"upsert", "delete"})


class DegradedReason(Enum):
    """Machine-readable reason a :class:`DegradedResult` was returned.

    - ``QUIESCED`` -- the manager already degraded earlier; every
      subsequent batch is refused without touching hardware.
    - ``RESTORE_DISABLED`` -- a batch failed and the manager was
      constructed with ``allow_restore=False``.
    - ``RECOVERY_EXHAUSTED`` -- a batch failed after ``max_recoveries``
      failovers had already been spent.
    - ``STALE_READ`` -- the serving layer answered a read from the last
      checkpoint while its circuit breaker holds the backend open
      (:mod:`repro.serve.policy`); the payload rides in ``value``.
    """

    QUIESCED = "quiesced"
    RESTORE_DISABLED = "restore_disabled"
    RECOVERY_EXHAUSTED = "recovery_exhausted"
    STALE_READ = "stale_read"


@dataclass(frozen=True)
class DegradedResult:
    """Typed refusal: a degraded answer, never a wrong one.

    This class is the *single* authoritative definition of degraded
    behaviour (DESIGN.md §12 and the serving layer reference it):

    - ``bool(DegradedResult(...))`` is **always False** -- code that
      truth-tests a batch result treats degradation as "no answer",
      even when ``value`` carries a best-effort stale payload.
    - ``op`` is the refused batch op (``get`` / ``upsert`` / ...).
    - ``reason`` is a machine-readable :class:`DegradedReason` member;
      dispatch on it, never on the human-readable ``cause``.
    - ``cause`` is free-text context (the original exception, etc.).
    - ``value`` is ``None`` except for ``STALE_READ``, where it holds
      the checkpoint-derived read results (stale by construction; the
      caller opted into them by reading while degraded).

    Returned (never raised) so a degraded batch stream stays a stream
    of values -- the contract is "a correct answer or a typed refusal,
    never a wrong answer".
    """

    op: str
    reason: DegradedReason
    cause: str = ""
    value: Any = None

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class RecoveryEvent:
    """One failover: what failed, and what the rebuild restored.

    ``checkpoint_items`` is the checkpoint's logical item count and
    ``replayed_batches`` the number of logged mutating batches folded
    into the restore.
    """

    op: str
    cause: str
    checkpoint_items: int
    replayed_batches: int


def _default_backoff(attempt: int) -> int:
    """Capped exponential in-place retry backoff (idle rounds)."""
    return min(1 << (attempt - 1), 8)


def _wal_payload(payload: Sequence) -> list:
    """Batch payload -> JSON-safe WAL form (pair tuples become lists)."""
    return [list(p) if isinstance(p, tuple) else p for p in payload]


class RecoveryManager:
    """Run batches with crash recovery (see module docstring).

    ``rebuild`` is a zero-argument factory returning a fresh, *empty*
    structure on a clean machine (no fault plan) -- the standby
    hardware.  The structure must implement ``apply_batch(op, payload)``
    (both :class:`~repro.core.skiplist.PIMSkipList` and
    :class:`~repro.structures.lsm.PIMLSMStore` do).

    ``read_retry_attempts`` allows that many in-place retries of a
    *read* batch on :class:`~repro.sim.errors.DeliveryTimeout` before a
    failover is spent; ``retry_backoff`` maps the attempt number (1-based)
    to idle rounds charged on the structure's machine between attempts
    (default: capped exponential; the serving layer passes a jittered
    curve).  The ``on_failure(op, exc)``, ``on_recovery(event)`` and
    ``on_degrade(result)`` hooks observe the failure stream without
    being able to alter it.
    """

    def __init__(self, structure: Any, rebuild: Callable[[], Any], *,
                 checkpoint_every: int = 4, allow_restore: bool = True,
                 max_recoveries: int = 4,
                 read_retry_attempts: int = 0,
                 retry_backoff: Optional[Callable[[int], int]] = None,
                 on_failure: Optional[Callable[[str, Exception], None]] = None,
                 on_recovery: Optional[Callable[["RecoveryEvent"], None]] = None,
                 on_degrade: Optional[Callable[[DegradedResult], None]] = None,
                 durable: Optional[DurableStore] = None,
                 ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if read_retry_attempts < 0:
            raise ValueError("read_retry_attempts must be >= 0")
        self.structure = structure
        self.rebuild = rebuild
        self.checkpoint_every = checkpoint_every
        self.allow_restore = allow_restore
        self.max_recoveries = max_recoveries
        self.read_retry_attempts = read_retry_attempts
        self.retry_backoff = retry_backoff or _default_backoff
        self.on_failure = on_failure
        self.on_recovery = on_recovery
        self.on_degrade = on_degrade
        self.degraded = False
        self.degraded_reason = ""
        self.events: List[RecoveryEvent] = []
        self.read_retries = 0  # in-place read retries actually spent
        self._log: List[Tuple[str, list]] = []
        self._mutations = 0
        self.durable = durable
        self.checkpoint: Checkpoint
        if durable is not None and not durable.report.created:
            # Reopened state dir: disk is the source of truth.  The
            # passed-in structure is discarded; the WAL tail is folded
            # onto the snapshot and the net state loaded once onto
            # clean hardware.
            assert durable.report.checkpoint is not None
            self.checkpoint = durable.report.checkpoint
            self._log = [(r.op, r.payload) for r in durable.report.records]
            self._mutations = len(self._log)
            self.structure = rebuild()
            restore_structure(self.checkpoint, self.structure, self._log)
            return
        self.checkpoint = checkpoint_structure(structure)
        if durable is not None:
            durable.bootstrap(self.checkpoint)

    @property
    def restored_from_disk(self) -> bool:
        """True when this manager's state came from a reopened state
        dir rather than the structure passed to the constructor."""
        return self.durable is not None and not self.durable.report.created

    # -- introspection ---------------------------------------------------

    @property
    def healthy(self) -> bool:
        """True while batches run on live (original or standby) hardware."""
        return not self.degraded

    @property
    def recoveries(self) -> int:
        """Failovers performed so far."""
        return len(self.events)

    @property
    def log_size(self) -> int:
        """Mutating batches logged since the last checkpoint."""
        return len(self._log)

    # -- batch driver ----------------------------------------------------

    def run(self, op: str, payload: Sequence) -> Any:
        """Apply one batch; recover or degrade on module failure."""
        if self.degraded:
            return DegradedResult(op, DegradedReason.QUIESCED,
                                  self.degraded_reason)
        attempt = 0
        while True:
            try:
                result = self.structure.apply_batch(op, list(payload))
            except (ModuleCrashed, DeliveryTimeout) as exc:
                if self.on_failure is not None:
                    self.on_failure(op, exc)
                if (op not in MUTATING_OPS
                        and isinstance(exc, DeliveryTimeout)
                        and attempt < self.read_retry_attempts):
                    # A timed-out read left no partial state; a cheap
                    # in-place retry may beat a full failover when the
                    # fault was transient (message loss, a straggler).
                    attempt += 1
                    self.read_retries += 1
                    self._idle(self.retry_backoff(attempt))
                    continue
                return self._recover(op, payload, exc)
            self._note_success(op, payload)
            return result

    # -- internals -------------------------------------------------------

    def _idle(self, rounds: int) -> None:
        machine = getattr(self.structure, "machine", None)
        if machine is not None and rounds > 0:
            machine.idle_rounds(rounds)

    def _note_success(self, op: str, payload: Sequence) -> None:
        if op not in MUTATING_OPS:
            return
        self._log.append((op, list(payload)))
        self._mutations += 1
        if self.durable is not None:
            # Durable-before-ack: run() only returns (and the serving
            # layer only acks) after this record survives a crash.
            self.durable.append(op, _wal_payload(payload))
        if self._mutations >= self.checkpoint_every:
            try:
                self.checkpoint = checkpoint_structure(self.structure)
            except CheckpointUnavailable:
                # A wiped module holds part of the structure and no
                # traffic has tripped failover yet.  The previous
                # checkpoint + the (still-growing) log remain a correct
                # recovery recipe; capture retries after the next
                # mutation.
                return
            self._log.clear()
            self._mutations = 0
            if self.durable is not None and self.durable.snapshot_due():
                self.durable.snapshot(self.checkpoint)

    def _recover(self, op: str, payload: Sequence, exc: Exception) -> Any:
        cause = f"{type(exc).__name__}: {exc}"
        if not self.allow_restore:
            return self._degrade(op, DegradedReason.RESTORE_DISABLED, cause)
        if self.recoveries >= self.max_recoveries:
            return self._degrade(op, DegradedReason.RECOVERY_EXHAUSTED,
                                 cause)

        standby = self.rebuild()
        restore_structure(self.checkpoint, standby, self._log)
        event = RecoveryEvent(
            op=op, cause=cause,
            checkpoint_items=self.checkpoint.item_count(),
            replayed_batches=len(self._log))
        self.events.append(event)
        self.structure = standby
        if self.on_recovery is not None:
            self.on_recovery(event)
        # Retry the failed batch on the standby.  A clean machine cannot
        # crash, but the factory may hand back faulty hardware; recurse
        # so a second failure consumes another recovery (or degrades).
        try:
            result = standby.apply_batch(op, list(payload))
        except (ModuleCrashed, DeliveryTimeout) as retry_exc:
            if self.on_failure is not None:
                self.on_failure(op, retry_exc)
            return self._recover(op, payload, retry_exc)
        self._note_success(op, payload)
        return result

    def _degrade(self, op: str, reason: DegradedReason,
                 cause: str) -> DegradedResult:
        self.degraded = True
        self.degraded_reason = cause
        result = DegradedResult(op, reason, cause)
        if self.on_degrade is not None:
            self.on_degrade(result)
        return result
