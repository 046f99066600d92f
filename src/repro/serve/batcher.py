"""Dynamic micro-batching with weighted-fair, priority-aware release.

The admission queue groups compatible work items (same inference
strategy, per-sample shape and dtype -- a batch must stack into one
array, or share one replica task) and releases a group as soon as it
fills to ``max_batch``, a replica is idle, *or* its oldest item has
waited ``max_delay_s``.  Batching is work-conserving: the deadline only
binds while every replica is busy, because holding a partial batch
back from an idle replica buys no throughput and costs its whole wait
in latency.
Batching amortises the per-invocation dispatch cost (queue hand-off,
pickling across the process boundary, one task per batch); the
per-sample forward time itself is batch-invariant because replicas run
the bit-identical per-sample/per-chunk loop (:mod:`repro.serve.replica`).

A sliding-window request arrives here as patch chunks, so release
order is no longer plain FIFO: items carry a ``request_id`` and a
priority ``weight``, and the batcher interleaves items of *different*
requests by **stride scheduling** (weighted fair queuing): each request
has a virtual ``pass`` value advanced by ``1 / weight`` per released
item, and the next slot always goes to the request with the smallest
pass.  A newly arrived request starts at the scheduler's current
virtual clock, so it neither starves nor jumps ahead of credit others
already consumed.  A chunk item (``strategy="sw_chunks"``) already
holds ``sw_batch_size`` patches, so it is a full batch on its own and
leaves as a batch of one; full-volume items coalesce up to
``max_batch``.  The server admits a scattered request's chunks a few
at a time (at most one per live replica, see
:mod:`repro.serve.server`), so a small request behind a large one
waits behind at most one chunk, never the large request's backlog.
Items of the *same* request always release in arrival (chunk) order,
and with one item per request (classic full-volume traffic) the
schedule degenerates to exact FIFO.

``due(now, limit=..., idle=...)`` lets the server cap how many batches
leave per step (dispatch credits) and say how many replicas have
nothing to do (``idle``): whatever is not released keeps accumulating
here -- where arrival order and fairness state live -- instead of
head-of-line-blocking the replicas' shared FIFO task queue.

Pure logic over caller-supplied monotonic timestamps -- no clock reads,
no threads -- so tests drive it with synthetic time exactly like the
health board in :mod:`repro.telemetry.live`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatchKey", "MicroBatcher"]


@dataclass(frozen=True)
class BatchKey:
    """What must match for work items to share a batch."""

    strategy: str            # "full_volume" | "sw_chunks"
    shape: tuple             # per-sample (C, D, H, W) / per-patch shape
    dtype: str


@dataclass
class _Item:
    item_id: str
    arrival: float
    request_id: str
    weight: float


class MicroBatcher:
    """Work-conserving micro-batching with weighted-fair ordering.

    >>> mb = MicroBatcher(max_batch=4, max_delay_s=0.01)
    >>> mb.add("r0", key, now=0.0)
    >>> mb.due(now=0.005)          # neither full nor expired
    []
    >>> mb.due(now=0.005, idle=1)  # ... but a replica has nothing to do
    [(key, ['r0'])]
    >>> mb.add("r1", key, now=0.006)
    >>> mb.due(now=0.02)           # all busy: deadline flush, partial
    [(key, ['r1'])]
    """

    def __init__(self, max_batch: int = 4, max_delay_s: float = 0.01):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        # key -> [_Item], arrival order preserved within the group
        self._groups: dict[BatchKey, list[_Item]] = {}
        # weighted-fair state, global across groups: one virtual pass
        # per request with pending items, advanced 1/weight per release
        self._pass: dict[str, float] = {}
        self._vclock = 0.0

    def add(self, item_id: str, key: BatchKey, now: float,
            request_id: str | None = None, weight: float = 1.0) -> None:
        """Admit one work item.  ``request_id`` groups items for the
        fair scheduler (chunks of one request share it; default: the
        item is its own request); ``weight`` scales its share of
        release slots (priority weight, higher = more slots)."""
        if weight <= 0:
            raise ValueError("weight must be > 0")
        rid = item_id if request_id is None else request_id
        # a request joins (or rejoins) at the current virtual clock so
        # it neither starves nor erases credit it already consumed
        if rid not in self._pass:
            self._pass[rid] = self._vclock
        self._groups.setdefault(key, []).append(
            _Item(item_id, float(now), rid, float(weight)))

    def depth(self) -> int:
        """Work items admitted but not yet released to a replica."""
        return sum(len(g) for g in self._groups.values())

    def pending_requests(self) -> int:
        """Distinct requests with at least one item still held here."""
        return len({it.request_id
                    for g in self._groups.values() for it in g})

    def _oldest(self, group: list[_Item]) -> float:
        return min(it.arrival for it in group)

    def _batch_limit(self, key: BatchKey) -> int:
        """Items per released batch: a patch chunk already holds a full
        ``model.predict`` batch, so it leaves alone; anything else
        coalesces up to ``max_batch``."""
        return 1 if key.strategy == "sw_chunks" else self.max_batch

    def _due_at(self, key: BatchKey, group: list[_Item]) -> float:
        """A full batch is due at its oldest item's arrival, a partial
        one ``max_delay_s`` later."""
        oldest = self._oldest(group)
        return (oldest if len(group) >= self._batch_limit(key)
                else oldest + self.max_delay_s)

    def next_deadline(self) -> float | None:
        """Monotonic time of the earliest pending release.

        A group already holding a *full* batch is due **now**: its
        entry is the (past) arrival of its oldest item, so a caller
        sleeping until the returned instant wakes immediately instead
        of stalling a releasable batch for up to ``max_delay_s``.
        """
        deadlines = [self._due_at(key, group)
                     for key, group in self._groups.items() if group]
        return min(deadlines) if deadlines else None

    # -- weighted-fair selection --------------------------------------------
    def _take_fair(self, key: BatchKey, count: int) -> list[str]:
        """Remove and return up to ``count`` item ids from ``key``'s
        group in stride-scheduled order: the next slot goes to the
        pending request with the smallest virtual pass (ties: earliest
        head-item arrival, then request id), whose pass then advances
        by ``1 / weight``.  Items of one request leave in arrival
        order."""
        group = self._groups[key]
        heads: dict[str, list[_Item]] = {}
        for it in group:
            heads.setdefault(it.request_id, []).append(it)
        taken: list[str] = []
        for _ in range(min(count, len(group))):
            rid = min(
                heads,
                key=lambda r: (self._pass[r], heads[r][0].arrival, r))
            item = heads[rid].pop(0)
            if not heads[rid]:
                del heads[rid]
            self._vclock = max(self._vclock, self._pass[rid])
            self._pass[rid] += 1.0 / item.weight
            taken.append(item.item_id)
        taken_set = set(taken)
        self._groups[key] = [it for it in group
                             if it.item_id not in taken_set]
        return taken

    def _prune_pass(self) -> None:
        """Drop fair-scheduler state for requests with nothing pending
        (a request resubmitting later re-enters at the virtual clock)."""
        live = {it.request_id
                for g in self._groups.values() for it in g}
        for rid in [r for r in self._pass if r not in live]:
            del self._pass[rid]

    def due(self, now: float, limit: int | None = None,
            idle: int = 0) -> list[tuple[BatchKey, list[str]]]:
        """Release batches that are full or past their deadline, plus
        partial ones for ``idle`` replicas; at most ``limit`` batches
        (None = all).

        Eligibility is by deadline: a full batch is due at its oldest
        item's *arrival*, a partial one at ``oldest + max_delay_s``; a
        chunk item is always a full batch of one.
        Batching is work-conserving: while fewer than ``idle`` batches
        have left in this call, groups that are not yet due are
        eligible too, so a replica with nothing to do never waits for
        a deadline.  Full and deadline-due batches leave ahead of early
        ones and use up ``idle`` first, so a partial batch is never
        pushed behind work that was due anyway.  The deadline therefore
        binds only while every replica is busy (``idle=0``: the
        saturated-load bound the capacity model in
        :mod:`repro.perf.deployment` assumes).  *Order* among eligible
        groups is by the weighted-fair scheduler, not FIFO: the next
        batch comes from the group holding the request with the
        smallest virtual pass, so a fresh small request's group
        outranks the chunk group of a large request that has already
        consumed release slots -- cross-group head-of-line blocking is
        bounded by one batch, not by the large request's backlog.
        Whatever ``limit`` leaves behind stays here, still
        accumulating, and is re-offered next call.
        """
        released: list[tuple[BatchKey, list[str]]] = []
        while limit is None or len(released) < limit:
            early = len(released) < idle
            best_key = None
            best_rank = None
            for key, group in self._groups.items():
                if not group:
                    continue
                due_at = self._due_at(key, group)
                if due_at > now and not early:
                    continue
                # due groups rank ahead of early ones, fair order within
                rank = (due_at > now,) + min(
                    (self._pass[it.request_id], it.arrival, it.request_id)
                    for it in group)
                if best_rank is None or rank < best_rank:
                    best_rank = rank
                    best_key = key
            if best_key is None:
                break
            released.append((best_key, self._take_fair(
                best_key, self._batch_limit(best_key))))
            if not self._groups[best_key]:
                del self._groups[best_key]
        self._prune_pass()
        return released

    def flush(self) -> list[tuple[BatchKey, list[str]]]:
        """Release everything pending (server drain/shutdown), in fair
        order, split at ``max_batch`` (chunk items one by one)."""
        released: list[tuple[BatchKey, list[str]]] = []
        for key in list(self._groups):
            while self._groups[key]:
                released.append(
                    (key, self._take_fair(key, self._batch_limit(key))))
            del self._groups[key]
        self._prune_pass()
        return released
