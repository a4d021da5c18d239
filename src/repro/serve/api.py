"""Async request gateway: the client-facing front end of the serving stack.

Everything below this module is tick-driven and trace-fed — the
:class:`~repro.serve.engine.InferenceEngine` consumes pre-built
:class:`~repro.serve.trace.ArrivalTrace` schedules, which is perfect for
reproducible experiments and useless for a client that just has a request
in hand.  The :class:`Gateway` closes that gap with the
api-layer-over-workflow-core shape: an asyncio surface
(``await gateway.submit(sample, deadline=...)``) over the unchanged
deterministic core.

What the gateway adds on top of the engine:

* **continuous batching** — it runs the engine with
  ``ServeConfig.continuous`` on, so a submission that fills a batch
  dispatches *inside* the submit call instead of waiting for the next
  tick barrier, and late arrivals keep joining the still-partial tail
  batch;
* **deadlines / SLOs** — ``submit(..., deadline=n)`` gives the request a
  budget of ``n`` ticks (default: ``GatewayConfig.default_slo``); the
  engine races it through batching, scheduling (the ``latency-aware``
  policy), retry parking, and SLO telemetry;
* **admission control & backpressure** — a bounded queue: once the
  engine's :attr:`~repro.serve.engine.InferenceEngine.queue_depth`
  reaches ``GatewayConfig.max_queue``, new submissions are rejected with
  :class:`Overloaded` instead of growing the queue without bound;
* **replayability** — every *accepted* request's arrival tick and
  deadline are recorded, and :meth:`Gateway.compiled_trace` freezes them
  into a :class:`~repro.serve.trace.ReplayTrace`, so an async session can
  be re-run offline through ``engine.run_trace`` bit-for-bit — the bridge
  that keeps the chaos and parity suites honest against the async path.

Determinism: the gateway adds no randomness and reads no wall clock for
control decisions.  Ticks advance only through :meth:`Gateway.pump` (or
the background serve loop, which just calls ``pump``), rejection depends
only on queue depth, and queue depth is a pure function of the submission
sequence — so the same submission sequence accepts, rejects, and serves
identically on every run.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.serve.engine import InferenceEngine, ServedRequest
from repro.serve.faults import DeadLetter
from repro.serve.trace import ReplayTrace
from repro.validation import require_int, require_real


class Overloaded(RuntimeError):
    """Raised by :meth:`Gateway.submit` when admission control rejects.

    The fleet's queue (pending batches plus retry-parked requests) is at
    ``GatewayConfig.max_queue``; the client should back off and retry —
    the request was *not* enqueued.  ``queue_depth`` carries the depth
    observed at rejection time.
    """

    def __init__(self, queue_depth: int, max_queue: int) -> None:
        super().__init__(
            f"gateway overloaded: queue depth {queue_depth} >= bound {max_queue}"
        )
        self.queue_depth = queue_depth
        self.max_queue = max_queue


class RequestFailed(RuntimeError):
    """Raised by :meth:`Gateway.submit` when the fleet gave up on a request.

    Wraps the engine's terminal :class:`~repro.serve.faults.DeadLetter`
    record (``letter``): retry budget exhausted, timeout, or a lapsed
    deadline.  The awaitable never hangs — every accepted request either
    resolves to a :class:`~repro.serve.engine.ServedRequest` or raises.
    """

    def __init__(self, letter: DeadLetter) -> None:
        super().__init__(
            f"request {letter.id} dead-lettered: {letter.reason} ({letter.cause})"
        )
        self.letter = letter


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway knobs: admission bound, default SLO, serve-loop pacing.

    ``max_queue`` bounds the engine's queue depth (pending + retry-parked
    requests) at admission time — the backpressure limit behind
    :class:`Overloaded`.  ``default_slo`` is the per-request deadline
    budget in ticks applied when ``submit`` is not given one (``None`` =
    best effort).  ``tick_seconds`` paces the background serve loop
    (:meth:`Gateway.start`): how long the loop sleeps between engine
    ticks; ``0.0`` just yields to the event loop, which is what tests and
    the quickstart want.

    The fields are checked at construction: ``max_queue`` is an int >= 1,
    ``default_slo`` ``None`` or an int >= 1, and ``tick_seconds`` a finite
    real >= 0.
    """

    max_queue: int = 256
    default_slo: int | None = None
    tick_seconds: float = 0.0

    def __post_init__(self) -> None:
        require_int("max_queue", self.max_queue, minimum=1)
        if self.default_slo is not None:
            require_int("default_slo", self.default_slo, minimum=1)
        require_real("tick_seconds", self.tick_seconds, minimum=0.0)


class Gateway:
    """Asyncio request/response front end over an :class:`InferenceEngine`.

    Typical use — the README quickstart::

        async with Gateway(engine) as gateway:
            served = await gateway.submit(sample, deadline=12)
        print(served.chip_id, served.output.argmax())

    ``async with`` starts a background serve loop that advances the engine
    one tick per event-loop turn, so awaited submissions resolve without
    any manual stepping.  Deterministic tests drive the clock by hand
    instead: submit via ``asyncio.create_task``, yield once so the
    coroutine reaches admission, then call :meth:`pump`/:meth:`drain`.

    The engine should be configured with ``ServeConfig(continuous=True)``
    so full batches dispatch at submit time (the constructor does not
    mutate the engine; a tick-barrier engine still works, it just batches
    on :meth:`pump` boundaries only).
    """

    def __init__(
        self, engine: InferenceEngine, config: GatewayConfig = GatewayConfig()
    ) -> None:
        self.engine = engine
        self.config = config
        #: Engine tick the gateway session started at; recorded arrivals
        #: and deadlines are relative to it, so the compiled trace replays
        #: on a fresh engine starting at tick 0.
        self.t0 = engine.now
        self._futures: dict[str, asyncio.Future] = {}
        self._arrivals: list[tuple[int, int | None]] = []
        self._accepted_ids: list[str] = []
        self._serve_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    async def submit(
        self,
        payload: np.ndarray,
        request_id: str | None = None,
        deadline: int | None = None,
    ) -> ServedRequest:
        """Submit one sample and await its result.

        ``deadline`` is the request's SLO budget in ticks from now
        (``None`` falls back to ``GatewayConfig.default_slo``; both
        ``None`` = best effort).  Returns the
        :class:`~repro.serve.engine.ServedRequest` once the fleet serves
        it.  Raises :class:`Overloaded` when admission control rejects
        (the request is not enqueued) and :class:`RequestFailed` when the
        engine dead-letters it (retries exhausted, timeout, deadline
        lapsed while queued or parked).
        """
        engine = self.engine
        budget = deadline if deadline is not None else self.config.default_slo
        if budget is not None and budget < 1:
            raise ValueError(f"deadline budget must be >= 1 tick, got {budget}")
        with engine.obs.span("admit"):
            depth = engine.queue_depth
            if depth >= self.config.max_queue:
                engine.telemetry.record_rejection()
                raise Overloaded(depth, self.config.max_queue)
            absolute = None if budget is None else engine.now + budget
            request = engine.submit(payload, request_id, deadline=absolute)
        self._arrivals.append(
            (
                engine.now - self.t0,
                None if absolute is None else absolute - self.t0,
            )
        )
        self._accepted_ids.append(request.id)
        future = asyncio.get_running_loop().create_future()
        self._futures[request.id] = future
        # Continuous batching may have served (or dead-lettered) the
        # request inside engine.submit — settle before the first await.
        self._settle()
        return await future

    def pump(self, ticks: int = 1) -> None:
        """Advance the engine ``ticks`` ticks and settle finished futures.

        The manual clock for deterministic tests and custom drive loops;
        the background serve loop is nothing but ``pump(1)`` per event-loop
        turn.
        """
        self.engine.step(ticks)
        self._settle()

    async def drain(self) -> None:
        """Pump until every accepted request has resolved or failed.

        Terminates for the same reason ``engine.drain`` does: every parked
        request has a bounded retry budget, so the backlog always empties.
        """
        await asyncio.sleep(0)  # let freshly created submit tasks reach admission
        while self._futures or self.engine.queue_depth:
            self.pump()
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Background serve loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background serve loop (one ``pump`` per iteration)."""
        if self._serve_task is None or self._serve_task.done():
            self._serve_task = asyncio.get_running_loop().create_task(
                self._serve_loop()
            )

    async def close(self) -> None:
        """Stop the background serve loop and fail any unresolved futures."""
        if self._serve_task is not None:
            self._serve_task.cancel()
            try:
                await self._serve_task
            except asyncio.CancelledError:
                pass
            self._serve_task = None

    async def _serve_loop(self) -> None:
        while True:
            self.pump()
            await asyncio.sleep(self.config.tick_seconds)

    async def __aenter__(self) -> "Gateway":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Settlement and replay
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Resolve futures for requests the engine has finished with."""
        completed = self.engine._completed
        letters = self.engine._dead_letters
        for request_id in list(self._futures):
            future = self._futures[request_id]
            if future.done():
                del self._futures[request_id]
                continue
            if request_id in completed:
                future.set_result(completed[request_id])
                del self._futures[request_id]
            elif request_id in letters:
                future.set_exception(RequestFailed(letters[request_id]))
                del self._futures[request_id]

    @property
    def accepted(self) -> int:
        """How many submissions passed admission control so far."""
        return len(self._accepted_ids)

    @property
    def accepted_ids(self) -> list[str]:
        """Accepted request ids in admission order (the replay order)."""
        return list(self._accepted_ids)

    def compiled_trace(self) -> ReplayTrace:
        """Freeze the accepted session into a replayable arrival trace.

        Returns a :class:`~repro.serve.trace.ReplayTrace` carrying every
        accepted request's arrival tick and deadline (relative to the
        session start), in admission order.  Feeding it — with the same
        payloads, ids (:attr:`accepted_ids`), and engine configuration —
        to ``engine.run_trace`` reproduces the live async run bit-for-bit,
        which is how an interactive session becomes a deterministic
        offline experiment.
        """
        return ReplayTrace(
            ticks=tuple(tick for tick, _ in self._arrivals),
            deadlines=(
                None
                if all(deadline is None for _, deadline in self._arrivals)
                else tuple(deadline for _, deadline in self._arrivals)
            ),
        )

    def __repr__(self) -> str:
        return (
            f"Gateway(accepted={self.accepted}, pending={len(self._futures)}, "
            f"max_queue={self.config.max_queue}, tick={self.engine.now})"
        )
