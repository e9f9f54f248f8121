"""Window-envelope benchmarks: mapping throughput and the pool the
grids ride.

Envelope grids are larger than ordinary sweeps (they add a window axis
on top of scenario x jitter x seed).  Two measurements:

* the real per-cell cost of mapping a small envelope (simulation +
  headroom capture, replay checks off);
* inline vs. pooled wall clock on an envelope-shaped grid with stubbed
  (free) cells -- isolating the result path, same methodology as the
  sweep pool bench -- plus the bit-for-bit equality of the two runs'
  headroom payloads, per-node headroom included.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from _bench import FULL, emit

import repro.sweep as sweep_mod
from repro.analysis.report import render_table
from repro.core.history import WindowHeadroomStats
from repro.envelope import EnvelopeRunner
from repro.sweep import CellResult

#: Mapping cells exhaust their windows on purpose.
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.core.shim.HistoryWindowWarning"
)


def _small_runner(**overrides) -> EnvelopeRunner:
    kwargs = dict(
        scenarios=["latency-jitter"],
        jitters_us=(0, 300_000),
        windows_us=(100_000, 1_000_000),
        seeds=(1,),
    )
    kwargs.update(overrides)
    return EnvelopeRunner(**kwargs)


def test_envelope_mapping_throughput(benchmark):
    """Real cells: one serial mapping pass over a 4-cell diamond grid
    (two jitters x two windows), replay checks off."""

    def map_once():
        return _small_runner().map()

    cells = benchmark.pedantic(map_once, rounds=3, iterations=1)
    assert len(cells) == 4
    assert all(c.error is None for c in cells)
    late = sum(c.headroom.late_count for c in cells if c.headroom)
    emit(render_table(
        "envelope mapping throughput (diamond, 4 cells)",
        ["metric", "value"],
        [
            ["grid cells", len(cells)],
            ["cells with deficits",
             sum(1 for c in cells if c.headroom and not c.headroom.clean)],
            ["total late deliveries", late],
        ],
    ))
    # the undersized-window x heavy-jitter corner must actually measure
    # something, or the bench is timing an empty envelope
    assert late > 0


def _fast_envelope_cell(cell) -> CellResult:
    """Pool-bench stub: free cells with a synthetic headroom payload --
    global and for a dozen nodes -- so results carry the full record,
    not a degenerate one."""
    deficit = max(0, 500_000 - (cell.window_us or 0)) if cell.jitter_us else 0

    def stats(scale: int) -> WindowHeadroomStats:
        return WindowHeadroomStats(
            window_us=cell.window_us or 0,
            late_count=1 if deficit else 0,
            max_deficit_us=deficit * scale,
            p50_deficit_us=deficit * scale,
            p90_deficit_us=deficit * scale,
            p99_deficit_us=deficit * scale,
        )

    return CellResult(
        scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
        repeat=cell.repeat, jitter_seed=cell.jitter_seed,
        window_us=cell.window_us, jitter_us=cell.jitter_us,
        fingerprint=f"fp|{cell.scenario}|{cell.seed}|{cell.window_us}",
        deliveries=100,
        headroom=stats(1),
        node_headroom=(
            {f"n{i:03d}": stats(i + 1) for i in range(12)} if deficit else None
        ),
        wall_seconds=0.0,
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool bench stubs run_cell via fork inheritance",
)
def test_envelope_grid_inline_vs_pool(monkeypatch):
    """Inline vs. two-worker pool on an envelope-shaped grid: identical
    cell payloads (per-node headroom included), bounded wall clock.
    """
    monkeypatch.setattr(sweep_mod, "run_cell", _fast_envelope_cell)
    seeds = tuple(range(125 if not FULL else 250))
    runner_kwargs = dict(
        scenarios=["flap-storm"],
        jitters_us=(0, 300_000),
        windows_us=(250_000, 500_000),
        seeds=seeds,
    )

    def one_pass(workers):
        runner = _small_runner(workers=workers, **runner_kwargs)
        start = time.perf_counter()
        cells = runner.map()
        return cells, time.perf_counter() - start

    inline_cells, inline_wall = one_pass(1)
    pool_cells, pool_wall = one_pass(2)
    grid_cells = len(seeds) * 4
    assert len(inline_cells) == len(pool_cells) == grid_cells

    def payload(cells):
        return [
            (c.scenario, c.seed, c.window_us, c.jitter_us, c.fingerprint,
             c.headroom, c.node_headroom)
            for c in cells
        ]

    assert any(c.node_headroom for c in pool_cells)
    assert payload(inline_cells) == payload(pool_cells), (
        "worker count must not change a cell's payload, headroom included"
    )
    emit(render_table(
        "envelope grid: inline vs pool",
        ["metric", "value"],
        [
            ["grid cells", grid_cells],
            ["inline wall (s)", inline_wall],
            ["2-worker pool wall (s)", pool_wall],
            ["ratio (pool/inline)", pool_wall / max(inline_wall, 1e-9)],
        ],
    ))
    # free cells on a grid this size: neither path may be pathological
    assert inline_wall < 30 and pool_wall < 30
