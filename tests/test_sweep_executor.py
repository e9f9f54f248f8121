"""Tests for the sweep executor's inline loop and for how
:class:`~repro.sweep.SweepRunner` picks between its two execution paths.

``workers=1`` without a deadline runs in the calling process; a pool
(``workers > 1``, or a deadline that needs a process to reap) runs in
worker processes.  There is no third path and no transport option.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os

import pytest

import repro.sweep as sweep_mod
from repro.envelope import EnvelopeRunner
from repro.supervise import SupervisionPolicy, inline_iter
from repro.sweep import CellResult, SweepCell, SweepRunner

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the stubbed run_cell reaches workers by fork inheritance",
)

#: Fast backoff so retry tests do not sleep.
_POLICY = SupervisionPolicy(retries=2, backoff_base_s=0.001, backoff_cap_s=0.001)


def _ok(cell) -> CellResult:
    return CellResult(
        scenario=cell.scenario, seed=cell.seed, mode=cell.mode,
        fingerprint=f"fp|{cell.seed}",
    )


def _pid_run_cell(cell) -> CellResult:
    return dataclasses.replace(_ok(cell), fingerprint=str(os.getpid()))


class _Scripted:
    """A run_cell that returns ``errors[k]`` on its k-th call (then
    clean results), counting calls."""

    def __init__(self, *errors):
        self.errors = list(errors)
        self.calls = 0

    def __call__(self, cell) -> CellResult:
        self.calls += 1
        error = self.errors.pop(0) if self.errors else None
        return dataclasses.replace(_ok(cell), error=error)


def _cells(n: int):
    return [SweepCell("flap-storm", seed=i, mode="vanilla") for i in range(n)]


class TestInlineLoop:
    def test_yields_in_cell_order_with_progress_in_step(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_cell", _ok)
        seen = []
        yielded = list(inline_iter(_cells(5), progress=seen.append))
        assert [index for index, _ in yielded] == list(range(5))
        assert [result.seed for _, result in yielded] == list(range(5))
        assert seen == [result for _, result in yielded]

    def test_transient_failure_retries_then_succeeds(self, monkeypatch):
        run = _Scripted("MemoryError: synthetic OOM")
        monkeypatch.setattr(sweep_mod, "run_cell", run)
        ((_, result),) = inline_iter(_cells(1), _POLICY)
        assert result.error is None
        assert result.attempts == 2 and run.calls == 2

    def test_exhausted_retry_budget_quarantines(self, monkeypatch):
        run = _Scripted(*["MemoryError: synthetic OOM"] * 5)
        monkeypatch.setattr(sweep_mod, "run_cell", run)
        policy = dataclasses.replace(_POLICY, retries=1)
        ((_, result),) = inline_iter(_cells(1), policy)
        assert result.outcome == "quarantined"
        assert result.error.startswith(
            "quarantined after 2 consecutive transient failures"
        )
        assert run.calls == 2

    def test_deterministic_failure_is_final(self, monkeypatch):
        run = _Scripted("ValueError: scenario rejected the seed")
        monkeypatch.setattr(sweep_mod, "run_cell", run)
        ((_, result),) = inline_iter(_cells(1), _POLICY)
        assert result.error == "ValueError: scenario rejected the seed"
        assert result.attempts == 1 and run.calls == 1

    def test_without_a_policy_nothing_retries(self, monkeypatch):
        run = _Scripted("MemoryError: synthetic OOM")
        monkeypatch.setattr(sweep_mod, "run_cell", run)
        ((_, result),) = inline_iter(_cells(1))
        assert result.error == "MemoryError: synthetic OOM"
        assert result.attempts == 1 and run.calls == 1


class TestExecutionPathChoice:
    def test_single_worker_without_deadline_runs_in_this_process(
        self, monkeypatch
    ):
        monkeypatch.setattr(sweep_mod, "run_cell", _pid_run_cell)
        report = SweepRunner(
            scenarios=["flap-storm"], seeds=(1, 2), modes=("vanilla",),
        ).run()
        assert {c.fingerprint for c in report.cells} == {str(os.getpid())}

    @needs_fork
    def test_single_worker_with_deadline_runs_in_a_worker(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_cell", _pid_run_cell)
        report = SweepRunner(
            scenarios=["flap-storm"], seeds=(1, 2), modes=("vanilla",),
            cell_timeout_s=30.0,
        ).run()
        assert report.coverage()["completed"] == 2
        assert str(os.getpid()) not in {c.fingerprint for c in report.cells}

    @needs_fork
    def test_pool_runs_every_cell_in_a_worker(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "run_cell", _pid_run_cell)
        report = SweepRunner(
            scenarios=["flap-storm"], seeds=tuple(range(8)),
            modes=("vanilla",), workers=2,
        ).run()
        pids = {c.fingerprint for c in report.cells}
        assert str(os.getpid()) not in pids
        assert len(report.cells) == 8


class TestNoTransportOption:
    def test_envelope_runner_rejects_transport(self):
        with pytest.raises(TypeError):
            EnvelopeRunner(scenarios=["flap-storm"], transport="shm")

    @pytest.mark.parametrize("command", ["sweep", "envelope"])
    def test_cli_rejects_transport_flag(self, command, capsys):
        from repro.cli import build_parser

        argv = [command, "--transport", "shm"]
        if command == "envelope":
            argv[1:1] = ["--scenarios", "flap-storm"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "--transport" in capsys.readouterr().err
