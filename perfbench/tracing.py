"""Spans for the benchmark's traced run.

A :class:`Tracer` records one span per call into a layer: name, start,
end, parent span and the serve batch in progress.  Spans come from the
benchmark's own code only -- :meth:`Tracer.wrap` replaces a method on an
instance the benchmark created, and :meth:`Tracer.span` brackets a call
the benchmark makes.  Nothing in the library is changed.

Spans stay in memory; :func:`write_jsonl` writes them out at the end.
A span's *self time* is its duration minus the part of it that its
children cover (:func:`self_times`).  The wrapped calls are synchronous,
so children nest inside their parent and the self times of all spans
under a root sum to the root's duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# Span record fields (plain lists keep the per-call cost low).
NAME, START, END, PARENT, BATCH, ITEMS = range(6)


def layer_of(name: str) -> str:
    """Layer a span's self time belongs to.

    The skip list's host-side work (plan, route, aggregate) runs inside
    the op pipeline, so the self time of ``core.*`` spans is the ``ops``
    layer's; ``sim.drain`` children carry the engine's share.
    """
    layer = name.split(".", 1)[0]
    return "ops" if layer == "core" else layer


class Tracer:
    """Collects spans; ``batch_id()`` tags each with the serve batch."""

    def __init__(self, batch_id: Callable[[], Optional[int]] = lambda: None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[list] = []
        self.batch_id = batch_id
        self.clock = clock
        self._stack: List[int] = []

    def open(self, name: str, items: int = 0) -> int:
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0,
                           stack[-1] if stack else -1,
                           self.batch_id(), items])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order ({popped})")

    @contextmanager
    def span(self, name: str, items: int = 0) -> Iterator[int]:
        idx = self.open(name, items)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, obj: Any, attr: str, name: str,
             describe: Optional[Callable[..., Tuple[str, int]]] = None) -> None:
        """Replace ``obj.attr`` with a wrapper recording one span per call.

        ``describe(*args, **kwargs)`` may return ``(name, items)`` to name
        the span after its arguments (e.g. the batch op) and count items.
        """
        inner = getattr(obj, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if describe is None:
                idx = tracer.open(name)
            else:
                idx = tracer.open(*describe(*args, **kwargs))
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.close(idx)

        setattr(obj, attr, traced)


def observe(obj: Any, attr: str,
            after: Callable[..., None]) -> None:
    """Replace ``obj.attr`` so ``after(result, *args)`` runs after each call."""
    inner = getattr(obj, attr)

    def observed(*args: Any, **kwargs: Any) -> Any:
        result = inner(*args, **kwargs)
        after(result, *args, **kwargs)
        return result

    setattr(obj, attr, observed)


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    return [span[END] - span[START]
            - covered(children.get(i, ()), span[START], span[END])
            for i, span in enumerate(spans)]


def write_jsonl(spans: Sequence[list], path: str) -> None:
    """One JSON object per span; times in seconds from the first span."""
    origin = spans[0][START] if spans else 0.0
    with open(path, "w") as out:
        for idx, span in enumerate(spans):
            out.write(json.dumps({
                "id": idx, "name": span[NAME],
                "start": span[START] - origin, "end": span[END] - origin,
                "parent": span[PARENT], "batch": span[BATCH],
                "items": span[ITEMS]}) + "\n")
