"""Supervised sweep execution: deadlines, classified retries, journals.

The grid runner's crash-isolation story (one bad cell cannot sink a
sweep) stops short of three failure shapes this package covers:

* a *hung* worker -- an infinite loop or a wedged syscall -- stalls the
  whole grid forever, because nothing ever reaps it;
* a *transient* infrastructure failure (worker SIGKILLed by the OOM
  killer, a pool broken under the cell) is indistinguishable in the
  report from a real Theorem-1 divergence; and
* an *interrupted* sweep throws away every completed cell, even though
  cells are pure functions of their identity and therefore idempotent.

:mod:`repro.supervise` adds, respectively: a heartbeat-based watchdog
with per-cell wall-clock deadlines (:mod:`.heartbeat`,
:mod:`.executor`), a failure classifier + bounded-backoff retry loop
with crash-loop quarantine (:mod:`.classify`, :mod:`.executor`), and a
durable append-only cell journal keyed by content fingerprint that makes
``repro sweep --resume`` skip completed cells (:mod:`.journal`).

It also owns the sweep's two execution loops (:mod:`.executor`):
:func:`inline_iter` and :func:`pool_iter`.  Supervision is a policy over
them: :class:`~repro.sweep.SweepRunner` passes one when a deadline or
retry budget is configured and ``None`` otherwise.
"""

from repro.supervise.classify import (
    DETERMINISTIC,
    TRANSIENT,
    classify_error,
)
from repro.supervise.executor import (
    SupervisionPolicy,
    backoff_delay,
    inline_iter,
    pool_iter,
)
from repro.supervise.heartbeat import HeartbeatBoard
from repro.supervise.journal import (
    CellJournal,
    SKIPPABLE_OUTCOMES,
    cell_fingerprint,
    load_completed,
    load_records,
    payload_to_result,
    result_to_payload,
)

__all__ = [
    "DETERMINISTIC",
    "TRANSIENT",
    "classify_error",
    "SupervisionPolicy",
    "backoff_delay",
    "inline_iter",
    "pool_iter",
    "HeartbeatBoard",
    "CellJournal",
    "SKIPPABLE_OUTCOMES",
    "cell_fingerprint",
    "load_completed",
    "load_records",
    "payload_to_result",
    "result_to_payload",
]
