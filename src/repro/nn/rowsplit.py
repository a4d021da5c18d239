"""Row-split numpy kernels on the host's spare cores.

Two kernels dominate a stacked serving forward: the merged :func:`im2col
<repro.nn.conv.im2col>` gather and the per-chip GEMM slices of
:func:`~repro.backends.fused._sliced_matmul`.  Each writes disjoint row
ranges of one preallocated output, and ``np.take`` and ``np.matmul``
release the interpreter lock, so :func:`run` computes the ranges side by
side: the calling thread takes the first part and a process-wide pool of
:data:`SPARE` worker threads takes the rest.

* A part is the call the unsplit kernel makes, on whole units of its
  rows: ``np.take`` over a range of samples, ``np.matmul`` over whole
  chip slices.  A GEMM is never cut inside a chip's slice, because the
  row count picks the BLAS kernel and so the output bits.  So every
  output is bit-identical to the unsplit kernel's, on any core count.
* Workers run only those numpy calls into preallocated outputs, never
  repro code: the engine, telemetry, the obs meters, autograd's grad
  mode and perfbench's span tracer all assume one thread.
* Kernels below :data:`FLOOR_BYTES` run as one part on the caller, and so
  does every kernel when the affinity mask leaves no spare CPU.

The pool is created at the first split, not at import, and the caller
waits for every part; a part's exception re-raises in the caller.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Worker threads of the pool: the CPUs this process may run on, less the
#: caller's.  ``taskset -c 0`` leaves none, and every kernel runs inline.
SPARE = _cpus() - 1

#: Smallest kernel that is split, in bytes of the patch matrix it writes
#: (a gather) or reads (a GEMM).  Medians of 60 interleaved calls, one
#: thread against two, on a 2-vCPU host (NumPy 2.4, OpenBLAS 0.3.31 with
#: one BLAS thread), lenet5-mini shapes: the conv1 gather gained 1.50x at
#: 96 rows (14.4 MiB), 1.51x at 32 rows (4.8 MiB) and 1.22x at 16 rows
#: (2.4 MiB); the conv2 gather 1.74x at 96 rows (5.5 MiB); three 32-row
#: GEMM slices 1.41x on conv1 and on conv2.  A hand-off to a worker costs
#: about 60-75 us, so at 4 MiB each of two parts still runs some 0.3 ms.
FLOOR_BYTES = 4 << 20

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _workers() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(SPARE, thread_name_prefix="repro-rowsplit")
        return _pool


def _call_all(calls: Sequence[Callable[[], object]]) -> None:
    for call in calls:
        call()


def _nearest(bounds: Sequence[int], rows: float) -> int:
    """Index of the unit boundary nearest to ``rows``, the later one on a tie."""
    cut = bisect_left(bounds, rows)
    if cut and rows - bounds[cut - 1] < bounds[cut] - rows:
        return cut - 1
    return cut


def run(
    bounds: Sequence[int],
    nbytes: int,
    calls: Callable[[int, int], Sequence[Callable[[], object]]],
) -> None:
    """Run a kernel's numpy calls over contiguous runs of its units.

    ``bounds[u]`` is the first output row of unit ``u`` and ``bounds[-1]``
    the row count, so there are ``len(bounds) - 1`` units (samples of a
    gather, chip slices of a GEMM).  ``calls(first, stop)`` returns the
    zero-argument numpy calls that write units ``[first, stop)``; each
    part runs the calls of one run.  At ``nbytes`` of at least
    :data:`FLOOR_BYTES` there are up to ``SPARE + 1`` runs, cut at the
    unit boundaries nearest to equal shares of the rows; otherwise one run
    covers every unit and runs on the caller.  Returns when every part is
    done.
    """
    units = len(bounds) - 1
    parts = min(SPARE + 1, units) if nbytes >= FLOOR_BYTES else 1
    if parts < 2:
        _call_all(calls(0, units))
        return
    cuts = {_nearest(bounds, bounds[-1] * i / parts) for i in range(1, parts)}
    cuts = [0, *sorted(cuts - {0, units}), units]
    head, *rest = [calls(first, stop) for first, stop in zip(cuts[:-1], cuts[1:])]
    futures = [_workers().submit(_call_all, part) for part in rest]
    try:
        _call_all(head)
    finally:
        wait(futures)
    for future in futures:
        future.result()
