"""The row splitter: how kernels split, the pool's contract, and the one-thread rule.

:func:`repro.nn.rowsplit.run` hands runs of a kernel's units to a pool of
worker threads.  Its outputs must not depend on the part count, its
workers must run only numpy calls, and the caller must wait for every
part and see every part's exception.  The ``forced_split`` fixture
(``conftest.py``) splits every kernel over 1 or 3 spare workers.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.backends import FusedFleetForward, base, fused
from repro.backends.fused import _sliced_matmul
from repro.datasets.loaders import batch_iterator
from repro.datasets.synthetic import make_pattern_dataset
from repro.models import build_model
from repro.nn import conv, init, module, pooling, rowsplit
from repro.nn.conv import im2col
from repro.pim import converters
from repro.quant import qlayers
from repro.quant.calibration import calibrate_model
from repro.quant.ptq import convert_to_quantized
from repro.quant.qconfig import QConfig
from repro.serve import InferenceEngine, ServeConfig
from repro.serve.telemetry import ServeTelemetry
from repro.variability.models import WeightProportionalVariance
from repro.variability.sampler import VariabilitySpec


def _parts(bounds, nbytes=0):
    """The ``(first, stop)`` runs :func:`rowsplit.run` makes, with their threads."""
    seen = []
    lock = threading.Lock()

    def calls(first, stop):
        def record():
            with lock:
                seen.append((first, stop, threading.current_thread()))

        return [record]

    rowsplit.run(bounds, nbytes, calls)
    return sorted(seen, key=lambda part: part[0])


def test_below_the_floor_one_part_runs_on_the_caller(monkeypatch):
    monkeypatch.setattr(rowsplit, "SPARE", 3)
    monkeypatch.setattr(rowsplit, "_pool", None)
    assert _parts(range(9), rowsplit.FLOOR_BYTES - 1) == [(0, 8, threading.main_thread())]
    assert rowsplit._pool is None


def test_without_a_spare_cpu_every_kernel_runs_inline(monkeypatch):
    monkeypatch.setattr(rowsplit, "SPARE", 0)
    monkeypatch.setattr(rowsplit, "FLOOR_BYTES", 0)
    monkeypatch.setattr(rowsplit, "_pool", None)
    assert _parts(range(97), 1 << 30) == [(0, 96, threading.main_thread())]
    assert rowsplit._pool is None


def test_parts_are_contiguous_runs_of_whole_units(forced_split):
    """Up to ``SPARE + 1`` non-empty runs cover every unit in order, the
    first on the caller and the rest on the pool."""
    for bounds in (range(97), (0, 32, 64, 96), (0, 3, 4, 40, 41, 42, 90), (0, 50, 51)):
        parts = _parts(bounds)
        assert 1 < len(parts) <= min(forced_split + 1, len(bounds) - 1)
        assert [first for first, _, _ in parts] == [0] + [stop for _, stop, _ in parts[:-1]]
        assert parts[-1][1] == len(bounds) - 1
        assert all(first < stop for first, stop, _ in parts)
        assert parts[0][2] is threading.main_thread()
        assert all(thread is not threading.main_thread() for _, _, thread in parts[1:])


def test_runs_balance_rows_at_unit_boundaries(forced_split):
    """Each cut is the unit boundary nearest to an equal share of rows."""
    if forced_split == 1:
        assert [part[:2] for part in _parts((0, 32, 64, 96))] == [(0, 2), (2, 3)]
        assert [part[:2] for part in _parts((0, 3, 4, 40, 41, 42, 90))] == [(0, 5), (5, 6)]
        assert [part[:2] for part in _parts(range(97))] == [(0, 48), (48, 96)]
    else:
        assert [part[:2] for part in _parts((0, 32, 64, 96))] == [(0, 1), (1, 2), (2, 3)]
        assert [part[:2] for part in _parts(range(97))] == [(0, 24), (24, 48), (48, 72), (72, 96)]
        assert [part[:2] for part in _parts((0, 3, 4, 40, 41, 42, 90))] == [(0, 3), (3, 5), (5, 6)]


def test_fewer_units_than_parts_and_no_units(forced_split):
    assert [part[:2] for part in _parts(range(3))] == [(0, 1), (1, 2)]
    assert [part[:2] for part in _parts((0,))] == [(0, 0)]
    assert [part[:2] for part in _parts((0, 0, 0))] == [(0, 2)]


def test_a_worker_exception_reraises_in_the_caller(forced_split):
    def calls(first, stop):
        if first == 0:
            return [lambda: None]

        def fail():
            raise RuntimeError(f"part {first}-{stop} failed")

        return [fail]

    with pytest.raises(RuntimeError, match="failed"):
        rowsplit.run(range(9), 0, calls)


def test_the_caller_waits_for_every_part_even_when_its_own_raises(forced_split):
    finished = []

    def calls(first, stop):
        if first == 0:
            def fail():
                raise ValueError("caller's part")

            return [fail]

        def slow():
            time.sleep(0.05)
            finished.append(stop)

        return [slow]

    with pytest.raises(ValueError, match="caller's part"):
        rowsplit.run(range(9), 0, calls)
    assert len(finished) == forced_split


def test_sliced_matmul_is_bit_identical_and_never_cuts_a_chip_slice(
    rng, forced_split, monkeypatch
):
    """Unequal chip slices in a permuted stack order give each chip's own
    2-D GEMM bits, and every GEMM a part runs is one whole slice."""
    scale, k, n = 5, 18, 7
    bounds = (0, 3, 4, 9, 17)
    idx = (3, 0, 2, 1)
    stacks = [np.ascontiguousarray(rng.normal(size=(n, k))).T for _ in range(4)]
    flat = rng.normal(size=(bounds[-1] * scale, k))
    rows_run = []
    real = rowsplit._call_all

    def spy(calls):
        rows_run.extend(call.args[0].shape[0] for call in calls)
        real(calls)

    monkeypatch.setattr(rowsplit, "_call_all", spy)
    got = _sliced_matmul(flat, idx, bounds, scale, stacks)
    want = np.concatenate(
        [
            flat[start * scale : stop * scale] @ stacks[pos]
            for pos, start, stop in zip(idx, bounds[:-1], bounds[1:])
        ]
    )
    assert got.tobytes() == want.tobytes()
    slices = [(stop - start) * scale for start, stop in zip(bounds[:-1], bounds[1:])]
    assert sorted(rows_run) == sorted(slices)


def test_concurrent_callers_under_rapid_switching_get_their_own_rows(rng, forced_split):
    """More caller threads and workers than cores, switching every
    microsecond: every split gather still equals the serial one, and the
    first-use pool creation races no second pool into being."""
    inputs = [rng.normal(size=(9, 2, 7, 7)) for _ in range(4)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rowsplit, "SPARE", 0)
        serial = [im2col(x, (3, 3), 1, 1).tobytes() for x in inputs]
    assert rowsplit._pool is None
    pools, failures = set(), []

    def caller(index):
        for _ in range(25):
            if im2col(inputs[index], (3, 3), 1, 1).tobytes() != serial[index]:
                failures.append(index)
            pools.add(id(rowsplit._pool))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(pools) == 1


@pytest.fixture(scope="module")
def served_model():
    init.seed(0)
    dataset = make_pattern_dataset(5, 16, (1, 28, 28), seed=7, max_shift=1, noise=0.2)
    model = build_model("lenet5-mini", num_classes=5, in_channels=1)
    convert_to_quantized(model, QConfig.from_notation("A4W2"))
    calibrate_model(model, batch_iterator(dataset, 16, shuffle=False), max_batches=3)
    model.eval()
    return model, dataset


def _stacked_session(model, dataset, backend):
    """Two ticks of stacked serving on three chips, a lone batch, then a
    probe sweep."""
    engine = InferenceEngine(
        model,
        VariabilitySpec.mixed(0.2, WeightProportionalVariance()),
        num_chips=3,
        config=ServeConfig(max_batch=4, max_wait=2, seed=5, backend=backend),
    )
    for i, sample in enumerate(np.concatenate([dataset.images] * 2)[:26]):
        engine.submit(sample, request_id=f"r{i:03d}")
        if (i + 1) % 12 == 0:
            engine.step()
    engine.drain()
    probes = engine.probe_fleet(dataset, k=2, batch_size=32)
    return engine.telemetry.digest(), probes, engine.telemetry.fused_groups


def _record_threads(monkeypatch, owner, attr, name, calls):
    original = owner.__dict__[attr]

    def wrapper(*args, **kwargs):
        calls.append((name, threading.get_ident()))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


@pytest.mark.parametrize("backend", ["fake-quant", "circuit"])
def test_nothing_the_tracer_wraps_runs_off_the_main_thread(
    served_model, forced_split, monkeypatch, backend
):
    """perfbench's span tracer assumes single-threaded, strictly nested
    calls.  With every kernel split, each entry point it wraps still runs
    on the main thread, the pool still runs parts, and the outputs equal
    a run without spare workers."""
    model, dataset = served_model
    calls = []
    wrapped = [
        (module.Module, "__call__", "Module.__call__"),
        (converters.DAC, "convert", "DAC.convert"),
        (converters.ADC, "convert", "ADC.convert"),
        (base.ProgrammedChip, "forward", "ProgrammedChip.forward"),
        (FusedFleetForward, "forward", "FusedFleetForward.forward"),
        *((owner, "im2col", "im2col") for owner in (conv, pooling, qlayers, fused)),
        *(
            (ServeTelemetry, attr, f"ServeTelemetry.{attr}")
            for attr in vars(ServeTelemetry)
            if attr.startswith("record_")
        ),
    ]
    for owner, attr, name in wrapped:
        _record_threads(monkeypatch, owner, attr, name, calls)
    parts = []
    real = rowsplit._call_all

    def spy(part):
        parts.append(threading.get_ident())
        real(part)

    monkeypatch.setattr(rowsplit, "_call_all", spy)

    digest, probes, groups = _stacked_session(model, dataset, backend)

    main = threading.main_thread().ident
    called = {name for name, _ in calls}
    expected = {"Module.__call__", "ProgrammedChip.forward", "FusedFleetForward.forward", "im2col"}
    if backend == "circuit":
        expected |= {"DAC.convert", "ADC.convert"}
    assert expected <= called
    assert any(name.startswith("ServeTelemetry.record_") for name in called)
    assert {name for name, thread in calls if thread != main} == set()
    assert groups > 0
    assert any(thread != main for thread in parts)

    monkeypatch.setattr(rowsplit, "SPARE", 0)
    assert _stacked_session(model, dataset, backend)[:2] == (digest, probes)

