"""The skip-list search walk (shared by Successor/Predecessor/Upsert).

A search for key ``k`` finds the leaf holding the largest key <= ``k``
(the predecessor leaf; the successor is that leaf or its right neighbor).
The upper part is replicated, so the descent from the root to the
upper-part leaf is local on whatever module executes it (``search_entry``)
and costs ``O(log n)`` whp local work.  Entering the lower part, every hop
to a node owned by a different module is a ``TaskSend`` continuation --
one message, one round -- realizing the paper's "push each query one node
further per step" execution; runs of same-module (or replicated sentinel)
nodes are walked locally.

When ``record`` is set, every visited lower-part node is streamed back to
shared memory (one constant-size message per node), which is how stage 1
of the batched Successor saves the pivots' lower-part search paths.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

from repro.core.node import Node, UPPER
from repro.core.structure import SkipListStructure
from repro.ops import cached_handlers
from repro.sim.task import Reply


def make_handlers(sl: SkipListStructure) -> Dict[str, Any]:
    """PIM-side handlers for the search walk on ``sl``.

    ``lower_walk`` is registered directly as the ``search_step`` handler
    (the hottest function in the whole simulator): it walks the run of
    locally-available nodes (this module's, plus replicated sentinels),
    then either forwards to the next owner or replies
    ``("done", opid, pred_leaf, pred_right)``.  Work is charged once per
    run (same total as per-node charging) and per-node touches are
    skipped entirely when neither tracing nor qrqw needs them.
    """
    fn_step = sl.fn_search_step

    def lower_walk(ctx, x, key, opid, record, tag=None):
        hops = 0
        tracing = ctx.tracing
        while True:
            hops += 1
            if tracing:
                ctx.touch(x.nid)
            if record:
                ctx.reply(("path", opid, x, x.level, x.right), size=1)
            r = x.right
            if r is not None and r.key <= key:
                nxt = r
            elif x.level > 0:
                nxt = x.down
            else:
                module = ctx.module
                module.work += hops
                module.round_work += hops
                # Inlined ctx.reply: the "done" reply ends every search.
                ctx._replies.append(Reply(("done", opid, x, r),
                                          None, ctx.mid))
                ctx._sent_size += 1
                return
            owner = nxt.owner
            if owner == UPPER or owner == ctx.mid:
                x = nxt
            else:
                module = ctx.module
                module.work += hops
                module.round_work += hops
                # Equivalent to ctx.forward(owner, fn_step, ...), staged
                # directly: the continuation handler is this function and
                # the destination comes from the placement hash, so the
                # per-hop registry lookup and bounds check are skipped.
                staged = ctx.machine._staged
                entry = (lower_walk, (nxt, key, opid, record), None, fn_step)
                slot = staged.get(owner)
                if slot is None:
                    staged[owner] = [1, [], [entry]]
                else:
                    slot[0] += 1
                    slot[2].append(entry)
                ctx._sent_size += 1
                return

    def h_search_entry(ctx, key, opid, record, tag=None):
        # Upper-part descent is local: all touched nodes are replicated.
        u = sl.upper_descend(key, ctx.charge)
        x = u.down  # first lower-part node on the path
        if x.owner == UPPER or x.owner == ctx.mid:
            lower_walk(ctx, x, key, opid, record)
        else:
            ctx.forward(x.owner, fn_step, (x, key, opid, record))

    return {
        sl.fn_search_entry: h_search_entry,
        fn_step: lower_walk,
    }


def handlers_for(sl: SkipListStructure) -> Dict[str, Any]:
    """The search-walk handler dict, created once per structure."""
    return cached_handlers(sl, "search", lambda: make_handlers(sl))


def search_message(sl: SkipListStructure, key: Hashable, opid: Any,
                   record: bool = False,
                   start: Optional[Node] = None) -> tuple:
    """Build the message that launches one search: from ``start`` (a
    lower-part hint node) if given, else from the root on a random
    module.

    The destination draw consumes the machine's seeded RNG stream at
    *build* time, so callers must construct messages in launch order.
    The returned tuple is ``send_all`` format, ready to be yielded in a
    :class:`~repro.ops.BatchOp` route stage.
    """
    machine = sl.machine
    if start is not None:
        dest = start.owner if start.owner != UPPER else machine.random_module()
        return (dest, sl.fn_search_step, (start, key, opid, record), None)
    return (machine.random_module(), sl.fn_search_entry,
            (key, opid, record), None)
