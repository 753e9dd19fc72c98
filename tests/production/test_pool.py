"""Persistent-pool and zero-copy shared-wafer suite.

The contract under test: the :class:`~repro.production.pool.WorkerPool` /
:class:`~repro.production.pool.SharedWaferBuffer` substrate is *purely a
scheduling layer*.  A warm pool, a freshly forked pool and a shared-memory
wafer all produce byte-identical engine results —
and the lifecycle is airtight: closing a pool kills its workers, closing
a buffer leaves nothing in ``/dev/shm``, and the whole suite runs clean
under ``warnings.simplefilter("error")`` (a leaked segment would surface
as a ``resource_tracker`` UserWarning at interpreter exit; here we assert
the stronger property that the name is gone immediately).
"""

import glob
import os
import threading
import time
import warnings

import numpy as np
import pytest

from harness import assert_batch_results_identical, draw_wafer
from repro.core import BistConfig
from repro.production import (
    AUTO_SHARE_MIN_BYTES,
    BatchBistEngine,
    ExecutionPlan,
    SharedWaferBuffer,
    SliceRef,
    WorkerPool,
    as_slice_ref,
    close_default_pool,
    current_pool,
    get_default_pool,
    share_wafer,
    shared_pool,
)
from repro.production.pool import _SEGMENTS, dispatch_pool


def _bist_config(noise: float = 0.05) -> BistConfig:
    return BistConfig(n_bits=6, counter_bits=7, dnl_spec_lsb=1.0,
                      transition_noise_lsb=noise,
                      deglitch_depth=3 if noise > 0 else 0)


def _repro_shm_entries():
    return glob.glob("/dev/shm/repro_*")


def _assert_processes_gone(pids, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, OSError):
                break
            if time.monotonic() > deadline:
                pytest.fail(f"worker {pid} survived pool close")
            time.sleep(0.05)


@pytest.fixture(autouse=True)
def _clean_pool_state():
    """Every test starts and ends with no default pool and no segments."""
    close_default_pool()
    yield
    close_default_pool()
    assert not _SEGMENTS
    assert not _repro_shm_entries()


class TestSharedWaferBuffer:
    def test_from_array_round_trip(self):
        matrix = np.random.default_rng(3).normal(size=(40, 63))
        with SharedWaferBuffer.from_array(matrix) as buffer:
            assert buffer.name.startswith("repro_")
            np.testing.assert_array_equal(buffer.array, matrix)

    def test_as_slice_ref_detects_segment_views_only(self):
        private = np.random.default_rng(1).normal(size=(20, 63))
        assert as_slice_ref(private) is None
        with SharedWaferBuffer.from_array(private) as buffer:
            view = buffer.array[3:9]
            ref = as_slice_ref(view)
            assert isinstance(ref, SliceRef)
            np.testing.assert_array_equal(ref.resolve(), private[3:9])
            # Non-contiguous views must ship by value, not descriptor.
            assert as_slice_ref(buffer.array[:, ::2]) is None
            assert as_slice_ref(private.copy()) is None

    def test_shared_wafer_round_trips_through_slice_refs(self):
        wafer = draw_wafer(60, "flash", seed=8)
        buffer, shared = share_wafer(wafer)
        with buffer:
            assert shared.wafer_id == wafer.wafer_id
            np.testing.assert_array_equal(shared.transitions,
                                          wafer.transitions)
            ref = as_slice_ref(shared.transitions[10:20])
            assert ref is not None and ref.name == buffer.name

    @pytest.mark.parametrize("shape", [(0, 63), (10, 0)])
    def test_empty_matrix_is_refused(self, shape):
        with pytest.raises(ValueError, match="empty shared buffer"):
            SharedWaferBuffer.from_array(np.zeros(shape))

    def test_close_is_idempotent_and_invalidates_views(self):
        buffer = SharedWaferBuffer.from_array(np.ones((10, 63)))
        name = buffer.name
        buffer.close()
        buffer.close()
        assert buffer.closed
        assert name not in _SEGMENTS
        with pytest.raises(ValueError):
            _ = buffer.array

    def test_slice_ref_pickles_by_value(self):
        import pickle

        matrix = np.random.default_rng(7).normal(size=(20, 63))
        with SharedWaferBuffer.from_array(matrix) as buffer:
            ref = as_slice_ref(buffer.array[3:11])
            clone = pickle.loads(pickle.dumps(ref))
            assert clone == ref
            np.testing.assert_array_equal(clone.resolve(), matrix[3:11])


class TestWorkerPool:
    def test_workers_persist_across_dispatches(self):
        wafer = draw_wafer(256, "flash", seed=2)
        engine = BatchBistEngine(_bist_config())
        plan = ExecutionPlan(workers=2, shard_devices=64)
        first = engine.run_wafer(wafer, rng=0, plan=plan)
        pool = current_pool() or get_default_pool(2)
        pids = sorted(pool.worker_pids())
        assert len(pids) == 2
        second = engine.run_wafer(wafer, rng=0, plan=plan)
        assert sorted(pool.worker_pids()) == pids
        assert_batch_results_identical(first, second)

    def test_close_kills_workers(self):
        pool = WorkerPool(2).warm_up()
        pids = pool.worker_pids()
        assert pids
        pool.close()
        assert pool.closed
        _assert_processes_gone(pids)
        with pytest.raises(RuntimeError):
            pool.dispatch(sorted, [((3, 1, 2),)])

    def test_dispatch_preserves_order(self):
        with WorkerPool(2) as pool:
            results = pool.dispatch(len, [(("a" * n),) for n in range(8)])
            assert results == list(range(8))

    def test_shared_pool_installs_and_restores_ambient(self):
        assert current_pool() is None
        with shared_pool(workers=2) as pool:
            assert current_pool() is pool
            with shared_pool(pool=pool):
                assert current_pool() is pool
        assert current_pool() is None
        assert pool.closed

    def test_borrowed_pool_survives_the_block(self):
        with WorkerPool(1) as pool:
            with shared_pool(pool=pool):
                pass
            assert not pool.closed
        with pytest.raises(ValueError):
            with shared_pool():
                pass

    def test_default_pool_grows_but_never_shrinks(self):
        small = get_default_pool(1)
        assert get_default_pool(1) is small
        large = get_default_pool(2)
        assert large is not small and small.closed
        assert get_default_pool(1) is large
        assert large.workers == 2

    def test_dispatch_pool_is_the_innermost_shared_pool(self):
        with shared_pool(workers=1) as outer:
            assert dispatch_pool(2) is outer
            with shared_pool(workers=1) as inner:
                assert dispatch_pool(2) is inner
            assert dispatch_pool(2) is outer
        default = dispatch_pool(2)
        assert default is get_default_pool(2)
        assert default.workers == 2 and not default.closed

    def test_dispatch_pool_skips_a_closed_shared_pool(self):
        pool = WorkerPool(1)
        with shared_pool(pool=pool):
            pool.close()
            assert dispatch_pool(1) is get_default_pool(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestPoolIsScheduling:
    """Warm, cold, shared-memory, 4-worker: all byte-identical."""

    def test_cold_pool_matches_warm_pool(self):
        wafer = draw_wafer(200, "sar", seed=6)
        engine = BatchBistEngine(_bist_config())
        plan = ExecutionPlan(workers=2, shard_devices=50)
        warm = engine.run_wafer(wafer, rng=1, plan=plan)
        with shared_pool(workers=2):
            cold = engine.run_wafer(wafer, rng=1, plan=plan)
        serial = engine.run_wafer(wafer, rng=1, plan=ExecutionPlan(
            workers=1, shard_devices=50))
        assert_batch_results_identical(serial, warm)
        assert_batch_results_identical(serial, cold)

    def test_four_worker_grid_matches_serial(self):
        wafer = draw_wafer(260, "flash", seed=12)
        engine = BatchBistEngine(_bist_config())
        serial = engine.run_wafer(wafer, rng=3, plan=ExecutionPlan(
            workers=1, shard_devices=32))
        for chunk in (None, 23):
            candidate = engine.run_wafer(wafer, rng=3, plan=ExecutionPlan(
                workers=4, chunk_size=chunk, shard_devices=32))
            assert_batch_results_identical(serial, candidate)

    def test_shared_memory_wafer_matches_private_wafer(self):
        wafer = draw_wafer(180, "flash", seed=4)
        engine = BatchBistEngine(_bist_config())
        plan = ExecutionPlan(workers=2, shard_devices=48)
        private = engine.run_wafer(wafer, rng=2, plan=plan)
        buffer, shared = share_wafer(wafer)
        with buffer:
            zero_copy = engine.run_wafer(shared, rng=2, plan=plan)
        assert_batch_results_identical(private, zero_copy)

    def test_large_private_matrices_are_auto_staged(self):
        """A multi-worker run of a big private wafer stages it into a
        transient segment (and cleans it up) without changing results."""
        n_devices = AUTO_SHARE_MIN_BYTES // (63 * 8) + 64
        wafer = draw_wafer(n_devices, "flash", seed=9)
        assert wafer.transitions.nbytes >= AUTO_SHARE_MIN_BYTES
        engine = BatchBistEngine(_bist_config(0.0))
        serial = engine.run_wafer(wafer, rng=0, plan=ExecutionPlan(
            workers=1, shard_devices=128))
        staged = engine.run_wafer(wafer, rng=0, plan=ExecutionPlan(
            workers=2, shard_devices=128))
        assert_batch_results_identical(serial, staged)
        assert not _repro_shm_entries()


class TestThreadSafety:
    """Interleaved scenario threads mutate the module globals while
    other threads read them — the exact traffic pattern of an
    interleaved multi-scenario campaign with auto-staged wafers."""

    def test_warm_up_forks_every_worker(self):
        """warm_up must leave *all* workers forked, not just the first —
        on 3.9/3.10 the executor spawns on demand, so a lazy warm-up
        would fork the rest mid-campaign, after threads exist."""
        with WorkerPool(4) as pool:
            pool.warm_up()
            assert len(pool.worker_pids()) == 4

    def test_as_slice_ref_survives_concurrent_registration(self):
        """Registering/unregistering segments on some threads while
        others iterate the registry must never raise 'dictionary
        changed size during iteration'."""
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    with SharedWaferBuffer.from_array(np.zeros((4, 63))):
                        pass
            except Exception as exc:  # pragma: no cover - regression
                errors.append(exc)

        def probe():
            private = np.zeros((2, 63))
            try:
                while not stop.is_set():
                    as_slice_ref(private)
            except Exception as exc:  # pragma: no cover - regression
                errors.append(exc)

        threads = ([threading.Thread(target=churn) for _ in range(2)]
                   + [threading.Thread(target=probe) for _ in range(2)])
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors

    def test_concurrent_default_pool_requests_share_one_pool(self):
        """Two threads racing get_default_pool must not each create a
        pool (the loser would leak its workers until atexit)."""
        n = 8
        pools = [None] * n
        barrier = threading.Barrier(n)

        def grab(i):
            barrier.wait()
            pools[i] = get_default_pool(2)

        threads = [threading.Thread(target=grab, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(pool is pools[0] for pool in pools)

    def test_shared_pool_blocks_interleave_across_threads(self):
        """Concurrent shared_pool blocks on different threads exit by
        identity, so one thread's pop can never evict another's pool."""
        with WorkerPool(1) as keeper, WorkerPool(1) as other:
            release = threading.Event()
            entered = threading.Event()

            def hold():
                with shared_pool(pool=other):
                    entered.set()
                    release.wait(5.0)

            thread = threading.Thread(target=hold)
            with shared_pool(pool=keeper):
                thread.start()
                assert entered.wait(5.0)
                # Inner (other thread's) block exits first; ours must
                # still be installed afterwards.
                release.set()
                thread.join()
                assert current_pool() is keeper
            assert current_pool() is None


class TestNoLeaks:
    def test_lifecycle_is_warning_clean(self):
        """Pool + shared-buffer lifecycle under an escalated warning
        filter: a resource_tracker complaint (leaked segment, double
        unlink) would fail the test immediately."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wafer = draw_wafer(120, "flash", seed=1)
            engine = BatchBistEngine(_bist_config())
            buffer, shared = share_wafer(wafer)
            with buffer, shared_pool(workers=2) as pool:
                pool.warm_up()
                pids = pool.worker_pids()
                result = engine.run_wafer(shared, rng=0, plan=ExecutionPlan(
                    workers=2, shard_devices=30))
            assert result.n_devices == 120
            _assert_processes_gone(pids)
            close_default_pool()
        assert not _repro_shm_entries()
        assert not _SEGMENTS

    def test_garbage_collected_buffer_unlinks_its_segment(self):
        buffer = SharedWaferBuffer.from_array(np.ones((8, 63)))
        name = buffer.name
        assert os.path.exists(f"/dev/shm/{name}")
        del buffer
        import gc

        gc.collect()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert name not in _SEGMENTS
