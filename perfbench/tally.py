"""Sample statistics for the wall-clock benchmark.

- :func:`percentile` -- nearest-rank percentile of a sorted sample.
- :func:`tail_percentile` -- the highest percentile of :data:`LADDER` that has
  at least :data:`MIN_BEYOND` samples beyond it, with the sample count.
- :func:`pass_tail` -- that percentile taken per pass, and the median of
  the passes' values.
- :class:`Tally` -- failure accounting: a call that failed or was
  refused counts its operations against the attempts *and* records an
  infinite latency, so it misses every latency limit and pushes every
  percentile up.
"""

from __future__ import annotations

import math
from statistics import median
from typing import List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
LADDER: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9, 99.99)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def rank(n: int, pct: float) -> int:
    """Nearest-rank position (1-based) of the ``pct``-th percentile of n."""
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[rank(len(ordered), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the ``pct``-th percentile's rank."""
    return n - rank(n, pct)


def tail_percentile(values: Sequence[float]
                    ) -> Tuple[Optional[float], Optional[float], int]:
    """``(pct, value, n)`` for the highest supported percentile.

    A percentile is supported when at least :data:`MIN_BEYOND` samples lie
    beyond it.  ``(None, None, n)`` when not even the lowest rung is.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in LADDER:
        if n and beyond(n, pct) >= MIN_BEYOND:
            best = pct
    if best is None:
        return None, None, n
    return best, percentile(ordered, best), n


def pass_tail(passes: Sequence[Sequence[float]]
              ) -> Tuple[Optional[float], Optional[float]]:
    """``(pct, value)``: the highest percentile every pass supports, taken
    per pass, and the median of those values.

    A pause that stalls every client at once (a full collection, a
    snapshot) lifts a whole pass's tail; the median over passes reads
    the tail of a typical pass, where a pooled percentile would move
    with how many pauses a run happened to time.  Where some pass
    supports no percentile (a pass that is one restart or one round of
    batches, a single sample), it is the pooled samples'
    :func:`tail_percentile`.
    """
    rungs = [tail_percentile(p)[0] for p in passes]
    if rungs and None not in rungs:
        pct = min(rungs)
        return pct, median(percentile(sorted(p), pct) for p in passes)
    pct, value, _ = tail_percentile([x for p in passes for x in p])
    return pct, value


class Tally:
    """Attempts, failures and per-operation latencies (seconds)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.cuts: List[int] = []
        self.slowdowns: List[float] = []

    def cut(self, slowdown: float = 1.0) -> None:
        """End a pass that ran ``slowdown`` times slower than the
        reference speed: later samples belong to the next one."""
        self.cuts.append(len(self.latencies))
        self.slowdowns.append(slowdown)

    def passes(self) -> List[List[float]]:
        """The samples of each pass ended by :meth:`cut`, in order, at the
        reference speed (divided by the pass's slowdown)."""
        bounds = [0] + self.cuts
        return [[x / f for x in self.latencies[lo:hi]]
                for lo, hi, f in zip(bounds, bounds[1:], self.slowdowns)]

    def ok(self, latency_s: Optional[float], weight: int = 1) -> None:
        """``weight`` operations completed correctly by one call that took
        ``latency_s``; ``None`` counts them without a sample (warm-up)."""
        self.attempted += weight
        if latency_s is not None:
            self.latencies.append(latency_s)

    def fail(self, weight: int = 1) -> None:
        """``weight`` operations refused, degraded, raised or answered
        wrongly by one call: its sample is infinite."""
        self.attempted += weight
        self.failed += weight
        self.latencies.append(math.inf)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def met_limit_frac(self, limit_s: float) -> float:
        """Share of latency samples (calls) answered correctly within the limit."""
        if not self.latencies:
            return 0.0
        return (sum(1 for lat in self.latencies if lat <= limit_s)
                / len(self.latencies))
