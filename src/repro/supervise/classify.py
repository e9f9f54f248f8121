"""Failure classification: deterministic result vs transient infrastructure.

The retry loop must never re-run a cell whose outcome is a property of
the *cell* -- a Theorem-1 divergence, an expectation failure, a scenario
bug -- because retrying it burns budget to reproduce the same answer
and, worse, makes the report's execution count lie.  It must retry a
cell whose failure is a property of the *infrastructure* -- the worker
was OOM-killed, the pool broke under it -- because the cell itself never
got to answer.

Divergences and expectation failures are easy: they arrive as
*successful* results (``error is None``, ``invariant_ok``/``expected_ok``
carrying the verdict) and never enter the classifier at all.  What is
left is error text: ``run_cell`` converts in-worker exceptions to
``"TypeName: message"``, and the pool loop wraps a future that failed
to carry its result the same way.  Classification is substring-based
over that text.

The default is **deterministic**: an unrecognized failure is assumed to
be the cell's own, so it surfaces immediately instead of being retried
into the report three times slower.  Only failure shapes positively
known to be environmental are transient.
"""

from __future__ import annotations

from typing import Optional

#: Classifier verdicts.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: Substrings of error text that identify environmental failures.  Each
#: entry is a failure the cell did not cause and a re-run can outlive:
#:
#: * ``MemoryError`` -- in-worker allocation failure under memory
#:   pressure (the python-level cousin of an OOM kill);
#: * ``worker process died`` / ``BrokenProcessPool`` / ``pool broken`` --
#:   the worker was killed out from under the cell (OOM killer, operator
#:   SIGKILL, pool teardown).
TRANSIENT_MARKERS = (
    "MemoryError",
    "worker process died",
    "BrokenProcessPool",
    "pool broken",
)


def classify_error(error: Optional[str]) -> str:
    """Classify one cell-failure text as transient or deterministic.

    ``None`` (no failure) classifies deterministic: a clean result is
    final by definition.
    """
    if error is None:
        return DETERMINISTIC
    for marker in TRANSIENT_MARKERS:
        if marker in error:
            return TRANSIENT
    return DETERMINISTIC
