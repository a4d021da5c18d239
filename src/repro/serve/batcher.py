"""Dynamic micro-batching of single-sample inference requests.

Crossbar MVMs amortize beautifully over a batch dimension (one im2col, one
GEMM per layer instead of N), so the serving hot path wants single-sample
requests fused into batches.  The :class:`MicroBatcher` implements the
classic dynamic policy: a batch is released as soon as ``max_batch``
requests are pending, or once the oldest pending request has waited
``max_wait`` ticks — trading a bounded latency hit for throughput.

Determinism: within one release event the pending requests are ordered
canonically by request id before batches are cut.  Arrival *order* inside a
batching window therefore never changes batch composition — only arrival
*ticks* do — which is what makes fleet serving reproducible (see
``tests/test_serve_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Request:
    """One inference request: id, single input sample, arrival tick, deadline.

    ``deadline`` is the absolute tick by which the request must complete
    (``None`` = best effort).  It rides with the request through batching,
    retry parking, and replay, so every layer can race it against the
    clock: the batcher force-releases a partial batch rather than let a
    deadline lapse in the queue, and the engine dead-letters a request
    whose deadline has already passed instead of wasting fleet time on it.
    """

    id: str
    payload: np.ndarray
    arrival: int = 0
    deadline: int | None = None

    def sort_key(self) -> tuple:
        return (self.arrival, self.id)


@dataclass
class Batch:
    """A group of requests fused into one batched forward pass."""

    requests: list[Request]
    formed: int

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def ids(self) -> list[str]:
        return [request.id for request in self.requests]

    def inputs(self) -> np.ndarray:
        """Stacked payloads: shape (size, *sample_shape)."""
        return np.stack([np.asarray(request.payload) for request in self.requests])

    def max_queue_ticks(self) -> int:
        """Worst queueing delay inside this batch (formed - earliest arrival)."""
        return self.formed - min(request.arrival for request in self.requests)

    def min_deadline(self) -> int | None:
        """The tightest absolute deadline in this batch (None = none carried)."""
        deadlines = [
            request.deadline for request in self.requests if request.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def headroom(self) -> int | None:
        """Ticks of slack between batch formation and the tightest deadline.

        ``None`` when no request carries a deadline; can be negative when a
        deadline has already lapsed in the queue.  This is the urgency
        signal the ``latency-aware`` scheduling policy dispatches on.
        """
        deadline = self.min_deadline()
        return None if deadline is None else deadline - self.formed


class MicroBatcher:
    """Request queue with size- and deadline-triggered batch release.

    ``max_batch`` caps the fused batch size; ``max_wait`` is the number of
    ticks a request may sit in the queue before a partial batch is forced
    out (``0`` releases every poll, i.e. no artificial batching delay).
    Deadlines tighten both rules: :meth:`poll` force-releases a partial
    batch once the tightest queued deadline is due, and :meth:`ready`
    (the continuous-batching path) lets a full batch dispatch mid-tick,
    the moment its last member arrives.

    ``observer`` is an optional hook called with every cut
    :class:`Batch` the moment it is formed — the engine wires it to count
    a ``batch`` stage event, without the batcher knowing anything about
    observability.
    """

    def __init__(
        self,
        max_batch: int = 32,
        max_wait: int = 4,
        observer=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.observer = observer
        self._pending: list[Request] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> list[Request]:
        """Snapshot of the queued requests (a copy, in arrival order)."""
        return list(self._pending)

    def submit(self, request: Request) -> None:
        """Enqueue one request."""
        self._pending.append(request)

    def _cut(self, now: int) -> Batch:
        # Canonical order: by (arrival tick, id).  Ids break intra-tick ties,
        # so any permutation of same-tick submissions forms the same batches.
        self._pending.sort(key=Request.sort_key)
        batch = Batch(self._pending[: self.max_batch], formed=now)
        del self._pending[: self.max_batch]
        if self.observer is not None:
            self.observer(batch)
        return batch

    def ready(self, now: int) -> list[Batch]:
        """Release only the batches that are already full at tick ``now``.

        The continuous-batching admission path: the engine calls this on
        every ``submit`` (when ``ServeConfig.continuous`` is on), so a
        request that completes a batch dispatches *the moment it arrives*
        instead of waiting for the next tick barrier — and late arrivals
        keep joining the still-partial tail batch until it fills or a
        deadline forces it out.
        """
        batches = []
        while len(self._pending) >= self.max_batch:
            batches.append(self._cut(now))
        return batches

    def _deadline_due(self, now: int) -> bool:
        """True when waiting one more tick would lapse a queued deadline."""
        deadlines = [
            request.deadline
            for request in self._pending
            if request.deadline is not None
        ]
        return bool(deadlines) and min(deadlines) <= now

    def poll(self, now: int) -> list[Batch]:
        """Release every batch that is due at tick ``now``.

        Full batches are always released; a partial batch is released when
        its oldest request has aged past ``max_wait`` — or, deadline-aware,
        when the tightest queued deadline is at ``now`` or already past, so
        a request is never left to expire waiting for a fuller batch.
        """
        batches = []
        while len(self._pending) >= self.max_batch:
            batches.append(self._cut(now))
        if self._pending and (
            now - min(request.arrival for request in self._pending) >= self.max_wait
            or self._deadline_due(now)
        ):
            batches.append(self._cut(now))
        return batches

    def flush(self, now: int) -> list[Batch]:
        """Force everything pending into batches (drain/shutdown path)."""
        batches = []
        while self._pending:
            batches.append(self._cut(now))
        return batches
