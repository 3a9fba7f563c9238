import itertools
import sys
import threading
import time

import numpy as np
import pytest

from starmem import (
    EmptyMemoryError,
    FrameOrderError,
    MemoryHandle,
    StreamSource,
    query_snapshot,
    run_frame_handler,
    snapshot,
)

from conftest import make_frame, small_config


def make_source(n, dim=3, fps=1.0, rng=None):
    rng = rng or np.random.default_rng(0)
    frames = [make_frame(i, dim=dim, rng=rng, timestamp=i / fps) for i in range(n)]
    return StreamSource(frames=frames, fps=fps)


class TestFrameHandler:
    def test_finite_source_fast_mode(self):
        handle = MemoryHandle(small_config())
        m = run_frame_handler(make_source(100), handle)
        assert m.epochs_completed == 100
        assert handle.latest().epoch == 100
        assert len(m.write_latencies_s) == 100
        assert len(m.tokens_per_epoch) == 100

    def test_empty_source(self):
        handle = MemoryHandle(small_config())
        m = run_frame_handler(StreamSource(frames=[], fps=1.0), handle)
        assert m.epochs_completed == 0
        assert m.write_latencies_s == []
        with pytest.raises(EmptyMemoryError):
            query_snapshot(handle)

    def test_out_of_order_timestamps_abort(self):
        frames = [
            make_frame(0, dim=3, timestamp=0.0),
            make_frame(1, dim=3, timestamp=2.0),
            make_frame(2, dim=3, timestamp=1.0),
        ]
        handle = MemoryHandle(small_config())
        with pytest.raises(FrameOrderError):
            run_frame_handler(StreamSource(frames=frames, fps=1.0), handle)
        assert handle.latest().epoch == 2

    def test_concurrent_writers_are_serialised(self):
        handle = MemoryHandle(small_config())
        indices = itertools.count()
        returned = []

        def writer():
            for _ in range(100):
                i = next(indices)
                try:
                    handle.write(make_frame(i, dim=3))
                except FrameOrderError:
                    continue  # another writer published a later frame first
                returned.append(i)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        mem = handle.latest()
        assert mem.epoch == len(returned)
        assert mem.temporal.total_weight == len(returned)

    @pytest.mark.slow
    def test_realtime_pacing(self):
        handle = MemoryHandle(small_config())
        t0 = time.perf_counter()
        run_frame_handler(make_source(5, fps=1.0), handle, realtime=True)
        assert time.perf_counter() - t0 >= 4.0


class TestQuerySnapshot:
    def test_single_threaded_epoch(self):
        handle = MemoryHandle(small_config())
        run_frame_handler(make_source(7), handle)
        assert query_snapshot(handle).epoch == 7

    def test_snapshot_arrays_are_read_only(self):
        handle = MemoryHandle(small_config())
        run_frame_handler(make_source(5), handle)
        s = query_snapshot(handle)
        for a in (s.tokens, s.temporal_weights, s.temporal_newest):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_one_snapshot_per_version(self):
        handle = MemoryHandle(small_config())
        for f in make_source(30):
            handle.write(f)
            s = query_snapshot(handle)
            assert query_snapshot(handle) is s
            mem = handle.latest()
            assert s.epoch == mem.epoch
            fresh = snapshot(mem)
            assert s.tokens.tobytes() == fresh.tokens.tobytes()
            assert s.temporal_weights.tobytes() == fresh.temporal_weights.tobytes()
            assert s.temporal_newest.tobytes() == fresh.temporal_newest.tobytes()
            assert (s.store_counts, s.retrieved_frame_indices,
                    s.retrieved_cluster_indices, s.retrieved_cluster_ranks) == (
                fresh.store_counts, fresh.retrieved_frame_indices,
                fresh.retrieved_cluster_indices, fresh.retrieved_cluster_ranks)

    def test_concurrent_reads_are_consistent(self):
        handle = MemoryHandle(small_config())
        torn = []
        monotonic_violations = []

        def reader():
            last = 0
            for _ in range(2000):
                try:
                    s = query_snapshot(handle)
                except EmptyMemoryError:
                    continue
                if len(set(s.store_epochs)) != 1:
                    torn.append(s.store_epochs)
                # Frame i has frame_index i and weight 1, so a snapshot of one
                # version holds exactly epoch frames, the newest epoch - 1.
                if (s.temporal_weights.sum() != s.epoch
                        or s.temporal_newest[-1] != s.epoch - 1):
                    torn.append((s.epoch, s.temporal_weights.sum(), s.temporal_newest[-1]))
                if s.epoch < last:
                    monotonic_violations.append((last, s.epoch))
                last = s.epoch

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        run_frame_handler(make_source(300), handle)
        for t in threads:
            t.join()
        assert torn == []
        assert monotonic_violations == []
        assert query_snapshot(handle).epoch == 300

    def test_readers_take_no_lock(self):
        handle = MemoryHandle(small_config())
        run_frame_handler(make_source(3), handle)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(query_snapshot(handle)), daemon=True
        )
        with handle._lock:  # a writer mid-write
            reader.start()
            reader.join(timeout=5.0)
            finished = not reader.is_alive()
        assert finished
        assert got[0].epoch == 3

    def test_readers_do_not_stall_writer(self):
        cfg = small_config()
        # baseline writer latency, no readers
        handle = MemoryHandle(cfg)
        base = run_frame_handler(make_source(200), handle)

        handle2 = MemoryHandle(cfg)
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    query_snapshot(handle2)
                except EmptyMemoryError:
                    pass

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        loaded = run_frame_handler(make_source(200), handle2)
        stop.set()
        for t in threads:
            t.join()
        # readers must not serialize the writer
        assert loaded.median_write_latency_s() <= 2 * max(
            base.median_write_latency_s(), 1e-4
        )
