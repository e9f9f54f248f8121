"""The sweep executor: one inline loop and one windowed pool loop.

:class:`~repro.sweep.SweepRunner` runs every grid through one of two
functions here.  :func:`inline_iter` executes cells in the calling
process (``workers=1`` without a deadline).  :func:`pool_iter` fans
them out to a process pool with at most ``max(4*workers, 16)`` futures
in flight; each worker returns its :class:`~repro.sweep.CellResult` on
its own future, so a cell's reported outcome is the same whatever the
worker count.

Both take an optional :class:`SupervisionPolicy`.  ``None`` is the
inert case: no heartbeat board, no retries, and a broken pool ends the
grid with ``worker process died before reporting this cell`` error
results.  A policy adds:

* **watchdog**: workers stamp each cell's start on a
  :class:`~repro.supervise.heartbeat.HeartbeatBoard`; the parent polls
  it, confirms an overdue reading across two polls (so a torn slot read
  cannot reap an innocent), SIGKILLs the hung worker, and surfaces the
  cell as ``timed_out``.  A timeout is treated as a *deterministic*
  outcome -- a cell that hangs once will hang again -- so it is never
  retried, and the rest of the grid continues on a replacement pool.
* **classified retries**: failures that are positively environmental
  (see :mod:`repro.supervise.classify`) are re-submitted with bounded
  exponential backoff + deterministic jitter; everything else -- real
  divergences, expectation failures, scenario exceptions -- is final on
  first delivery.  A cell that fails transiently more times than the
  retry budget is **quarantined**: parked with its failure history
  (archived for triage when an artifact directory is configured) so a
  crash-looping cell cannot burn the grid's wall-clock budget.
* **pool generations**: any pool breakage (a reap, an OOM kill, a hard
  crash) ends the current *generation* -- collect every future that
  finished, settle every in-flight cell (reaped => timed out;
  otherwise => transient failure), then rebuild the pool with a fresh
  heartbeat board and keep going.  One hung worker costs one
  generation, not the grid.

The parent's scheduling state stays O(window + workers); the per-cell
bookkeeping is a few integers per cell -- the same order as the result
list the caller is accumulating anyway.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.supervise.classify import TRANSIENT, classify_error
from repro.supervise.heartbeat import HeartbeatBoard
from repro.supervise.journal import archive_quarantine, cell_fingerprint

#: Default retry budget when supervision is enabled without an explicit
#: ``retries``: a cell may be re-executed this many times after
#: transient failures before quarantine.
DEFAULT_RETRIES = 2
#: Backoff ladder: base * 2^(failure-1), capped, then jittered into
#: [0.5x, 1.5x) by a fingerprint-seeded stream.
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0
#: The parent's poll/confirmation cadence.
_POLL_S = 0.05


@dataclass(frozen=True)
class SupervisionPolicy:
    """What the supervised executor enforces.

    ``cell_timeout_s=None`` disables the watchdog (retries still apply);
    ``retries=0`` disables re-execution (the first transient failure
    quarantines).  Either knob being set is what activates supervision
    in :class:`~repro.sweep.SweepRunner`.
    """

    cell_timeout_s: Optional[float] = None
    retries: int = DEFAULT_RETRIES
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S

    def __post_init__(self) -> None:
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError("cell timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base_s <= 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff ladder must satisfy 0 < base <= cap")


def backoff_delay(
    policy: SupervisionPolicy, fingerprint: str, failures: int
) -> float:
    """Delay before retry number ``failures`` of one cell.

    Exponential in the consecutive-failure count, capped by the policy,
    then jittered into ``[0.5x, 1.5x)`` so simultaneous failers do not
    retry in lockstep.  The jitter stream is seeded from the cell's
    content fingerprint and the failure ordinal -- deterministic for a
    given (cell, attempt), per the repo's no-ambient-entropy contract.
    """
    exponential = min(
        policy.backoff_cap_s,
        policy.backoff_base_s * (2 ** max(failures - 1, 0)),
    )
    rng = random.Random(f"supervise-backoff|{fingerprint}|{failures}")
    return exponential * (0.5 + rng.random())


def _quarantined(cell, errors: List[str], artifact_dir: Optional[str]):
    """The parked result of a cell that exhausted its retry budget."""
    from repro.sweep import cell_result

    archive_quarantine(artifact_dir or cell.artifact_dir, cell, errors)
    return cell_result(
        cell,
        error=f"quarantined after {len(errors)} consecutive transient "
        f"failures; last: {errors[-1]}",
        outcome="quarantined",
    )


# ----------------------------------------------------------------------
# the inline loop
# ----------------------------------------------------------------------

def inline_iter(
    cells: Sequence,
    policy: Optional[SupervisionPolicy] = None,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable] = None,
):
    """Run ``cells`` in this process; yield ``(index, result)`` in order.

    With a policy, transient in-cell failures retry with backoff and
    exhaustion quarantines, as in :func:`pool_iter`; a deadline needs a
    separate process to reap, so the runner sends those grids to the
    pool even single-worker.
    """
    import repro.sweep as sweep

    for index, cell in enumerate(cells):
        # looked up per call: tests and the perf tracer patch run_cell
        result = sweep.run_cell(cell)
        attempts = 1
        errors: List[str] = []
        while (
            policy is not None
            and result.error is not None
            and classify_error(result.error) == TRANSIENT
        ):
            errors.append(result.error)
            if len(errors) > policy.retries:
                result = _quarantined(cell, errors, artifact_dir)
                break
            time.sleep(backoff_delay(policy, cell_fingerprint(cell), len(errors)))
            result = sweep.run_cell(cell)
            attempts += 1
        if attempts > 1:
            result = replace(result, attempts=attempts)
        if progress is not None:
            progress(result)
        yield index, result


# ----------------------------------------------------------------------
# worker-process plumbing (module-level so it pickles by reference)
# ----------------------------------------------------------------------

_WORKER_BOARD: Optional[HeartbeatBoard] = None
_WORKER_SLOT: Optional[int] = None


def _claim_slot(board_name: str, claim_dir: str) -> None:
    """Pool initializer under a policy: claim a heartbeat slot.

    Slot claiming must not touch any cross-process lock: pool breakage
    SIGTERMs sibling workers at arbitrary instructions, and a worker
    killed inside a (non-robust) semaphore's critical section poisons it
    for every later pool generation -- the exact hang this layer exists
    to prevent.  Instead each slot is claimed by ``O_CREAT | O_EXCL`` on
    a per-generation lockfile: atomic in the kernel, never blocking, and
    a corpse's claim simply retires its slot for the generation.  Boards
    (and claim directories) are per pool generation, so a replacement
    pool never fights a dead predecessor for slots.
    """
    global _WORKER_BOARD, _WORKER_SLOT
    board = HeartbeatBoard.attach(board_name)
    pid = os.getpid()
    for slot in range(board.slots):
        try:
            fd = os.open(
                os.path.join(claim_dir, f"slot-{slot:04d}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            continue
        try:
            os.write(fd, f"{pid}\n".encode("ascii"))
        finally:
            os.close(fd)
        board.claim(slot, pid)
        _WORKER_BOARD = board
        _WORKER_SLOT = slot
        return
    raise RuntimeError(
        f"no free heartbeat slot on board of {board.slots} (pool oversubscribed?)"
    )


def run_pool_cell(index: int, cell):
    """Execute one cell in a pool worker and return its result, under
    heartbeat cover when the worker claimed a slot."""
    import repro.sweep as sweep

    if _WORKER_BOARD is None:
        return sweep.run_cell(cell)
    pid = os.getpid()
    _WORKER_BOARD.begin(_WORKER_SLOT, pid, index)
    try:
        return sweep.run_cell(cell)
    finally:
        _WORKER_BOARD.clear(_WORKER_SLOT, pid)


# ----------------------------------------------------------------------
# the pool loop
# ----------------------------------------------------------------------

def pool_iter(
    cells: Sequence,
    *,
    workers: int,
    ctx,
    policy: Optional[SupervisionPolicy] = None,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable] = None,
):
    """Run ``cells`` on a worker pool; yield ``(index, result)``.

    Yields in completion order.  Every cell is eventually yielded with
    exactly one of the outcomes ``completed`` (a result arrived, error
    or not), ``timed_out`` (reaped past the deadline), or
    ``quarantined`` (transient retry budget exhausted).
    """
    from concurrent.futures import ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    from repro.sweep import cell_result

    cells = list(cells)
    if not cells:
        return
    done = [False] * len(cells)
    attempts = [0] * len(cells)      # executions submitted so far
    #: Consecutive transient failures, for cells that had any.
    errors: Dict[int, List[str]] = {}
    #: Cells waiting out a retry backoff -> monotonic instant of release.
    retry_at: Dict[int, float] = {}
    outbox: List = []
    window = max(4 * workers, 16)

    def flush():
        while outbox:
            index, result = outbox.pop(0)
            if progress is not None:
                progress(result)
            yield index, result

    def deliver(index: int, result, outcome: str = "completed") -> None:
        if done[index]:
            return
        done[index] = True
        retry_at.pop(index, None)
        outbox.append((
            index,
            replace(result, attempts=max(attempts[index], 1), outcome=outcome),
        ))

    def transient_failure(index: int, error: str) -> None:
        if done[index]:
            return
        failed = errors.setdefault(index, [])
        failed.append(error)
        if len(failed) > policy.retries:
            deliver(
                index,
                _quarantined(cells[index], failed, artifact_dir),
                outcome="quarantined",
            )
        else:
            retry_at[index] = time.monotonic() + backoff_delay(
                policy, cell_fingerprint(cells[index]), len(failed)
            )

    def settle(index: int, result) -> None:
        """A result arrived: final unless a policy retries its transient
        error."""
        if (
            policy is not None
            and result.error is not None
            and classify_error(result.error) == TRANSIENT
        ):
            transient_failure(index, result.error)
        else:
            deliver(index, result)

    def settle_future(index: int, future) -> None:
        exc = future.exception()
        if exc is None:
            settle(index, future.result())
        else:  # e.g. an unpicklable result: the pool itself is healthy
            settle(index, cell_result(
                cells[index],
                error="cell failed to report its result: "
                f"{type(exc).__name__}: {exc}",
            ))

    #: Consecutive generations that broke without advancing any cell's
    #: state: a pool that cannot even start (initializer crash, fork
    #: failure) must become a loud error, not an infinite rebuild loop.
    barren_generations = 0

    def _progress_marker() -> tuple:
        return (
            sum(attempts),
            sum(len(failed) for failed in errors.values()),
            sum(done),
        )

    while not all(done):
        # -- one pool generation ------------------------------------------
        before = _progress_marker()
        board = claim_dir = None
        initargs = ()
        if policy is not None:
            try:
                board = HeartbeatBoard.create(workers)
            except OSError as exc:
                raise RuntimeError(
                    "supervised sweep execution (cell_timeout_s/retries on a "
                    f"worker pool) needs shared memory for its heartbeat "
                    f"board: {exc}"
                ) from exc
            claim_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")
            initargs = (board.name, claim_dir)
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_claim_slot if board is not None else None,
            initargs=initargs,
        )
        pending: Dict = {}          # future -> cell index
        in_flight: Set[int] = set()
        reaped: Dict[int, int] = {}  # cell index -> reaped worker pid
        prev_overdue: Set = set()
        broken: Optional[BaseException] = None
        backlog = deque(
            index
            for index in range(len(cells))
            if not done[index] and index not in retry_at
        )
        try:
            while True:
                now = time.monotonic()
                for index in sorted(retry_at):
                    if retry_at[index] <= now:
                        del retry_at[index]
                        backlog.append(index)
                while broken is None and backlog and len(pending) < window:
                    index = backlog.popleft()
                    if done[index]:
                        continue
                    try:
                        future = pool.submit(run_pool_cell, index, cells[index])
                    except Exception as exc:  # pool broke mid-submit
                        broken = exc
                        backlog.appendleft(index)
                        break
                    attempts[index] += 1
                    pending[future] = index
                    in_flight.add(index)
                if not pending:
                    yield from flush()
                    if broken is not None or all(done):
                        break
                    if backlog:
                        continue
                    if retry_at:
                        next_retry = min(retry_at.values())
                        time.sleep(
                            min(max(next_retry - time.monotonic(), 0.0), _POLL_S)
                        )
                        continue
                    break  # pragma: no cover - defensive: no work left
                finished, _ = wait(list(pending), timeout=_POLL_S)
                for future in finished:
                    if isinstance(future.exception(), BrokenProcessPool):
                        # the pool broke under this cell -- leave it
                        # pending so teardown settles it
                        if broken is None:
                            broken = future.exception()
                        continue
                    index = pending.pop(future)
                    in_flight.discard(index)
                    settle_future(index, future)
                yield from flush()
                if board is not None and policy.cell_timeout_s is not None \
                        and broken is None:
                    overdue = set(board.overdue(policy.cell_timeout_s))
                    # reap only readings stable across two polls: a
                    # torn slot read must not kill an innocent worker
                    for slot, pid, index, start_ns in overdue & prev_overdue:
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except (ProcessLookupError, PermissionError):
                            pass
                        reaped[index] = pid
                        if broken is None:
                            broken = RuntimeError(
                                f"hung worker pid {pid} reaped "
                                f"(cell {index} past deadline)"
                            )
                    prev_overdue = overdue
                if broken is not None:
                    break
        except GeneratorExit:
            pool.shutdown(wait=False, cancel_futures=True)
            _discard_board(board, claim_dir)
            raise
        # -- generation teardown ------------------------------------------
        # join workers only when the pool is healthy; after a reap or
        # hard crash the executor's own cleanup handles the corpses
        pool.shutdown(wait=broken is None, cancel_futures=True)
        # results that arrived before the breakage still count, and must
        # win over the synthesized outcomes below
        for future, index in pending.items():
            if future.done() and not future.cancelled() \
                    and future.exception() is None:
                in_flight.discard(index)
                settle(index, future.result())
        if policy is None:
            # inert: a broken pool ends the grid
            for index in range(len(cells)):
                if not done[index]:
                    deliver(index, cell_result(
                        cells[index],
                        error="worker process died before reporting this "
                        f"cell: {broken}",
                    ))
            yield from flush()
            return
        # the board knows which in-flight cells were actually *executing*
        # when the generation died: their slots are still stamped (a
        # crashed worker never reaches clear()).  Cells whose futures
        # broke while merely queued are collateral -- they go back to the
        # backlog with no failure mark, so a crash-looping neighbour
        # cannot quarantine innocents.
        executing = {entry[2] for entry in board.active()}
        executing.update(reaped)
        for index in sorted(in_flight):
            pid = reaped.get(index)
            if pid is not None:
                deliver(
                    index,
                    cell_result(
                        cells[index],
                        error=f"cell exceeded the {policy.cell_timeout_s:g}s "
                        f"wall-clock deadline (worker pid {pid} reaped)",
                    ),
                    outcome="timed_out",
                )
            elif index in executing:
                transient_failure(
                    index,
                    "worker pool broken while the cell was executing"
                    + (f": {broken}" if broken is not None else ""),
                )
            # else: queued when the pool broke -- next generation's
            # backlog rebuild resubmits it, penalty-free
        _discard_board(board, claim_dir)
        if broken is not None and _progress_marker() == before:
            barren_generations += 1
            if barren_generations >= 3:
                for index in range(len(cells)):
                    if not done[index]:
                        deliver(index, cell_result(
                            cells[index],
                            error="supervised worker pool failed to start "
                            f"after {barren_generations} attempts: {broken}",
                        ))
        else:
            barren_generations = 0
        yield from flush()


def _discard_board(board: Optional[HeartbeatBoard], claim_dir: Optional[str]) -> None:
    if board is not None:
        board.destroy()
        shutil.rmtree(claim_dir, ignore_errors=True)
