"""Tests for streaming a sweep through the worker pool
(``SweepRunner.stream`` / ``run`` with ``workers > 1``).

Each worker returns its whole :class:`CellResult` on its own future,
so every field must come back as the worker built it.  The pool keeps
at most a window of futures in flight, yields every cell exactly once,
and can be abandoned mid-grid.  As a marked-``slow`` soak, a 1000-cell
grid must stream to completion with flat parent memory; a worker crash
must surface as failed cells rather than a hang; and one cell whose
result cannot travel back must fail alone without abandoning the grid.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import tracemalloc

import pytest

import repro.sweep as sweep_mod
from repro.core.history import WindowHeadroomStats
from repro.supervise.executor import pool_iter
from repro.sweep import CellResult, SweepCell, SweepRunner

# fork start method: the stubbed run_cell must be inherited by the workers
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method",
)


def _stub_run_cell(cell):
    return CellResult(
        scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
        repeat=cell.repeat, jitter_seed=cell.jitter_seed,
        fingerprint=f"fp|{cell.scenario}|{cell.seed}|{cell.mode}",
        deliveries=1, wall_seconds=0.0,
    )


def _crashing_run_cell(cell):
    if cell.seed == 13:
        os._exit(17)  # hard worker death: no exception, no cleanup
    return _stub_run_cell(cell)


class _Unpicklable(str):
    """A fingerprint that cannot be pickled back to the parent."""

    def __reduce__(self):
        raise ValueError("result refuses to pickle")


def _unpicklable_run_cell(cell):
    if cell.seed == 7:
        # the worker's future carries the pickling error, but the pool
        # stays healthy
        return CellResult(
            scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
            fingerprint=_Unpicklable("fp"),
        )
    return _stub_run_cell(cell)


_HEADROOM = WindowHeadroomStats(
    window_us=150_000, late_count=7, max_deficit_us=216_276,
    p50_deficit_us=144_529, p90_deficit_us=144_533, p99_deficit_us=216_276,
)


def _result(**overrides) -> CellResult:
    base = dict(
        scenario="flap-storm", seed=3, mode="defined", repeat=1,
        jitter_seed=77, fingerprint="ab" * 32, replay_fingerprint="ab" * 32,
        invariant_ok=True, expected_ok=None, late_deliveries=2, rollbacks=9,
        deliveries=12345, recording_bytes=4096, headroom=_HEADROOM,
        wall_seconds=0.25,
    )
    base.update(overrides)
    return CellResult(**base)


def _per_node(names) -> dict:
    return {
        name: WindowHeadroomStats(
            window_us=150_000, late_count=1 + i, max_deficit_us=1_000 * (i + 1),
            p50_deficit_us=500 * (i + 1), p90_deficit_us=900 * (i + 1),
            p99_deficit_us=1_000 * (i + 1),
        )
        for i, name in enumerate(names)
    }


def _through_pool(monkeypatch, result: CellResult) -> CellResult:
    """Have a pool worker return ``result`` and hand back what the
    parent received."""
    monkeypatch.setattr(sweep_mod, "run_cell", lambda cell: result)
    (received,) = SweepRunner(
        scenarios=["flap-storm"], seeds=(3,), workers=2
    ).run_cells([SweepCell("flap-storm", seed=3, mode="defined")])
    return received


@needs_fork
class TestRecordCodec:
    """The result record's codec is pickle on the worker's future: the
    parent receives the record the worker built, field for field, with
    no fixed widths to truncate or reject anything."""

    def test_round_trip(self, monkeypatch):
        sent = _result(node_headroom=_per_node(["r1", "r2"]))
        assert _through_pool(monkeypatch, sent) == sent

    def test_round_trip_no_headroom(self, monkeypatch):
        sent = _result(headroom=None)
        received = _through_pool(monkeypatch, sent)
        assert received.headroom is None
        assert received == sent

    def test_round_trip_node_headroom(self, monkeypatch):
        per_node = _per_node(["r1", "r2"])
        per_node["r2"] = WindowHeadroomStats(
            window_us=150_000, late_count=2, max_deficit_us=44_529,
            p50_deficit_us=44_529, p90_deficit_us=44_529,
            p99_deficit_us=44_529, unmeasured_count=1,
        )
        received = _through_pool(monkeypatch, _result(node_headroom=per_node))
        assert received.node_headroom == per_node

    def test_round_trip_none_fields(self, monkeypatch):
        received = _through_pool(monkeypatch, _result(
            replay_fingerprint=None, invariant_ok=None, expected_ok=False,
            recording_bytes=None,
        ))
        assert received.replay_fingerprint is None
        assert received.invariant_ok is None
        assert received.expected_ok is False
        assert received.recording_bytes is None

    def test_unmeasured_count_round_trips_in_pooled_headroom(self, monkeypatch):
        hr = WindowHeadroomStats(
            window_us=150_000, late_count=9, max_deficit_us=216_276,
            p50_deficit_us=144_529, p90_deficit_us=144_533,
            p99_deficit_us=216_276, unmeasured_count=3,
        )
        received = _through_pool(monkeypatch, _result(headroom=hr))
        assert received.headroom == hr
        assert received.headroom.unmeasured_count == 3

    def test_node_headroom_keeps_every_late_node(self, monkeypatch):
        per_node = _per_node([f"node-{i:02d}" for i in range(20)])
        received = _through_pool(monkeypatch, _result(node_headroom=per_node))
        assert received.node_headroom == per_node

    def test_long_node_ids_come_back_whole(self, monkeypatch):
        names = ["router-" + "x" * 40, "router-" + "x" * 39 + "y"]
        per_node = _per_node(names)
        received = _through_pool(monkeypatch, _result(node_headroom=per_node))
        assert sorted(received.node_headroom) == sorted(names)
        assert received.node_headroom == per_node

    def test_wide_fingerprint_comes_back_whole(self, monkeypatch):
        sent = _result(fingerprint="f" * 130, replay_fingerprint="e" * 130)
        received = _through_pool(monkeypatch, sent)
        assert received.fingerprint == "f" * 130
        assert received.replay_fingerprint == "e" * 130


def _slow_run_cell(cell):
    time.sleep(0.02)
    return _stub_run_cell(cell)


def _first_seed_last_run_cell(cell):
    # seed 0 is submitted first but finishes after every other cell
    time.sleep(0.5 if cell.seed == 0 else 0.01)
    return _stub_run_cell(cell)


def _cells(n: int):
    return [SweepCell("flap-storm", seed=i, mode="vanilla") for i in range(n)]


@needs_fork
class TestWindowedPool:
    def test_empty_grid_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("an empty grid must not start a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        ctx = multiprocessing.get_context("fork")
        assert list(pool_iter([], workers=2, ctx=ctx)) == []

    def test_every_cell_yielded_exactly_once(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_cell", _stub_run_cell)
        cells = _cells(50)
        ctx = multiprocessing.get_context("fork")
        yielded = list(pool_iter(cells, workers=2, ctx=ctx))
        assert sorted(index for index, _ in yielded) == list(range(50))
        for index, result in yielded:
            assert result.seed == cells[index].seed
            assert (result.outcome, result.attempts) == ("completed", 1)

    def test_in_flight_futures_bounded_by_window(self, monkeypatch):
        """At most max(4*workers, 16) futures are outstanding, and more
        than one per worker, so workers never wait on the parent."""
        import concurrent.futures
        import threading

        real_pool = concurrent.futures.ProcessPoolExecutor
        lock = threading.Lock()
        in_flight = [0]
        peak = [0]

        class CountingPool(real_pool):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                with lock:
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])

                def finished(_future):
                    with lock:
                        in_flight[0] -= 1

                future.add_done_callback(finished)
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(sweep_mod, "run_cell", _slow_run_cell)
        ctx = multiprocessing.get_context("fork")
        yielded = list(pool_iter(_cells(60), workers=2, ctx=ctx))
        assert len(yielded) == 60
        assert 2 < peak[0] <= 16, f"peak in-flight futures {peak[0]}"

    def test_progress_fires_once_per_yielded_result(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_cell", _stub_run_cell)
        seen = []
        ctx = multiprocessing.get_context("fork")
        yielded = [
            result for _, result
            in pool_iter(_cells(30), workers=2, ctx=ctx, progress=seen.append)
        ]
        assert seen == yielded

    def test_stream_yields_in_completion_order_run_in_grid_order(
        self, monkeypatch
    ):
        monkeypatch.setattr(sweep_mod, "run_cell", _first_seed_last_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(6)),
            modes=("vanilla",), workers=2,
        )
        streamed = [result.seed for result in runner.stream()]
        assert sorted(streamed) == list(range(6))
        assert streamed[-1] == 0, streamed
        assert [c.seed for c in runner.run().cells] == list(range(6))

    def test_abandoning_the_stream_does_not_wait_for_the_grid(
        self, monkeypatch
    ):
        monkeypatch.setattr(sweep_mod, "run_cell", _slow_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(400)),
            modes=("vanilla",), workers=2,
        )
        start = time.monotonic()
        stream = runner.stream()
        first = next(stream)
        stream.close()
        # the whole grid takes >= 4 s of worker time; closing cancels
        # the queued futures instead of draining them
        assert time.monotonic() - start < 3.0
        assert first.error is None


@needs_fork
@pytest.mark.slow
class TestStreamedGridSoak:
    def test_1000_cell_grid_streams_with_flat_parent_memory(self, monkeypatch):
        """A 1000-cell grid must stream to completion through the pool
        with the parent's scheduling+aggregation footprint bounded (the
        consumer folds results instead of retaining them)."""
        monkeypatch.setattr(sweep_mod, "run_cell", _stub_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(250)),
            modes=("vanilla", "defined"), repeats=2, workers=2,
        )
        assert len(runner.grid()) == 1000
        seen = []
        tracemalloc.start()
        try:
            count = 0
            fingerprints = set()
            for result in runner.stream(progress=seen.append):
                count += 1
                fingerprints.add(result.fingerprint)
                assert result.error is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1000 and len(seen) == 1000
        # 250 seeds x 2 modes (repeats collapse onto one fingerprint)
        assert len(fingerprints) == 500
        # flat: orders of magnitude under "retain 1000 results + 1000
        # futures"; the bound is generous to stay unflaky under pytest
        assert peak < 8 * 1024 * 1024, f"parent peak {peak} bytes"


@needs_fork
class TestWorkerCrash:
    def test_worker_crash_surfaces_as_failed_cell_not_hang(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_cell", _crashing_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(20)),
            modes=("vanilla",), workers=2,
        )
        start = time.monotonic()
        report = runner.run()
        assert time.monotonic() - start < 60, "crash handling must not hang"
        assert len(report.cells) == 20
        dead = [c for c in report.cells if c.error is not None]
        assert dead, "the crashed cell must surface as an error"
        assert any("worker process died" in c.error for c in dead)
        # cells finished before the crash still made it back
        assert any(c.error is None for c in report.cells)
        assert {c.outcome for c in report.cells} == {"completed"}
        assert not report.ok()

    def test_single_cell_transport_failure_does_not_abandon_grid(
        self, monkeypatch
    ):
        """A per-cell reporting failure (here: an unpicklable result) is
        not pool breakage: the failing cell surfaces with its own error
        and every other cell still runs to completion."""
        monkeypatch.setattr(sweep_mod, "run_cell", _unpicklable_run_cell)
        runner = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(30)),
            modes=("vanilla",), workers=2,
        )
        report = runner.run()
        assert len(report.cells) == 30
        dead = [c for c in report.cells if c.error is not None]
        assert len(dead) == 1 and dead[0].seed == 7
        assert "failed to report its result" in dead[0].error
        assert "ValueError" in dead[0].error
        # the healthy 29 cells all completed despite the one failure
        assert sum(1 for c in report.cells if c.error is None) == 29
