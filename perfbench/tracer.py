"""In-memory span tracer for the benchmark's traced runs.

Wrappers are installed from this file around public entry points of the
program's layers (and around a few private ones where a layer has no
public entry point), only for the traced run, and removed afterwards:
the untraced run installs none.  Each call records a span (name, start,
end, parent, op id); spans stay in memory and are written out at exit.
A layer's self time is its spans' durations minus the part their child
spans cover.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, owner module, owner attribute path, span name) for every
#: wrapped call.  ``owner attribute path`` is "Class.method" or a
#: module-level function name.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("simnet", "repro.simnet.engine", "Simulator.run", "simnet.run"),
    ("shim", "repro.core.shim", "DefinedShim.on_wire", "shim.on_wire"),
    ("shim", "repro.core.shim", "DefinedShim.on_external", "shim.on_external"),
    ("shim", "repro.core.shim", "DefinedShim.send", "shim.send"),
    ("shim", "repro.core.shim", "DefinedShim._rollback", "shim.rollback"),
    ("store", "repro.core.statestore", "StateStore.snapshot", "store.snapshot"),
    ("store", "repro.core.statestore", "StateStore.restore", "store.restore"),
    ("store", "repro.core.statestore", "Namespace.__setitem__", "store.write"),
    ("ospf", "repro.routing.ospf", "OspfDaemon.on_message", "ospf.on_message"),
    ("ospf", "repro.routing.ospf", "OspfDaemon.on_timer", "ospf.on_timer"),
    ("ospf", "repro.routing.ospf", "OspfDaemon.on_external", "ospf.on_external"),
    ("ospf", "repro.routing.ospf", "OspfDaemon.on_start", "ospf.on_start"),
    # the name OspfDaemon._run_spf resolves, not the defining module's
    ("spf", "repro.routing.ospf", "dijkstra", "spf.dijkstra"),
    ("lockstep", "repro.core.lockstep", "LockstepCoordinator.advance_cycle", "lockstep.cycle"),
    ("lockstep", "repro.core.lockstep", "LockstepCoordinator._start_group", "lockstep.group"),
    ("lockstep", "repro.core.lockstep", "LockstepStack.on_wire", "lockstep.on_wire"),
    ("lockstep", "repro.core.lockstep", "LockstepStack.send", "lockstep.send"),
    ("fingerprint", "repro.simnet.network", "Network.execution_fingerprint", "fingerprint.network"),
    ("fingerprint", "repro.core.fingerprint", "DeliveryLog.node_digest", "fingerprint.node"),
    ("debugger", "repro.core.debugger", "Debugger.step", "debugger.step"),
    ("debugger", "repro.core.debugger", "Debugger.step_group", "debugger.step_group"),
    ("debugger", "repro.core.debugger", "Debugger.run", "debugger.run"),
    ("debugger", "repro.core.debugger", "Debugger.inspect", "debugger.inspect"),
    ("debugger", "repro.core.debugger", "Debugger.break_on_delivery", "debugger.break"),
    # a sweep cell is one sweep-mix op: its span delimits the op
    ("op", "repro.sweep", "run_cell", "op.cell"),
)

#: Layers with self time; spans named "op.*" only delimit operations.
LAYERS = ("simnet", "shim", "store", "ospf", "spf", "lockstep", "debugger", "fingerprint")


class Tracer:
    """Records spans for wrapped calls while installed."""

    def __init__(self) -> None:
        #: name -> layer
        self.layer_of: Dict[str, str] = {}
        #: flat span records: (name, start_ns, end_ns, parent index, op id)
        self.spans: List[list] = []
        self.op = -1
        #: simulator events executed inside traced ``Simulator.run`` calls
        self.sim_events = 0
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span; an "op.*" span also starts the next op."""
        if name.startswith("op."):
            self.op += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        if name == "simnet.run":
            tracer = self

            def traced(sim, *args, **kwargs):  # noqa: F811 - counts events too
                before = sim.events_executed
                index = begin(name)
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    end(index)
                    tracer.sim_events += sim.events_executed - before

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        import importlib

        for layer, module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            owner: object = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
            self.layer_of[name] = layer

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- analysis ---------------------------------------------------------
    def self_times(self, scale: Optional[Callable[[int], float]] = None) -> Dict[str, float]:
        """Self time per span name in milliseconds.  ``scale(op)`` gives
        the host-speed factor of the op a span belongs to."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            factor = scale(op) if scale is not None else 1.0
            if name.startswith("op."):
                continue
            out[name] = out.get(name, 0.0) + (end - start - child_ns[i]) * factor / 1e6
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def covered_ns(self) -> Dict[int, int]:
        """Per op, the time covered by layer spans that no other layer
        span encloses."""
        spans = self.spans
        out: Dict[int, int] = {}
        for name, start, end, parent, op in spans:
            if name.startswith("op."):
                continue
            if parent < 0 or spans[parent][0].startswith("op."):
                out[op] = out.get(op, 0) + end - start
        return out

    def layer_self_ms(self, scale: Optional[Callable[[int], float]] = None) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, ms in self.self_times(scale).items():
            layer = self.layer_of.get(name, name.split(".", 1)[0])
            if layer in out:
                out[layer] += ms
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (gzip)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with gzip.open(tmp, "wt", compresslevel=1) as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")
        os.replace(tmp, path)
