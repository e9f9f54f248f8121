"""The benchmark's three workloads.

Every workload is a closed loop: one client issues an operation, waits
for it to finish, and only then issues the next.  Each returns a
:class:`Outcome` holding raw and normalised timings, the per-unit
counts the determinism check compares, and the correctness tally.

Host time is normalised with :class:`Meter`: every timed stretch is
bracketed by runs of the frozen reference kernel (see ``refkernel``),
and its duration is scaled by ``NOMINAL_MS / mean(kernel before,
kernel after)``.
"""

from __future__ import annotations

import io
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import refkernel
from tracer import Tracer

pc = time.perf_counter

#: The ROADMAP ladder's middle rung and its workload seed.  The
#: benchmark's ``--seed`` draws the production network's timing (link
#: jitter and processing-cost samples): it changes every rollback, and,
#: by Theorem 1, no fingerprint.
LADDER_SCENARIO = "flap-storm@40"
LADDER_WORKLOAD_SEED = 1
#: Workload seeds of one sweep-mix pass (SweepRunner's default grid);
#: ``--seed`` draws each cell's network timing (its jitter seed).
SWEEP_WORKLOAD_SEEDS = (1, 2, 3)
SWEEP_WORKERS = 2
#: Each workload seed's grid runs as this many ``run_cells()`` calls
#: (every other cell), so one kernel bracket spans ~0.75 s.
SWEEP_CHUNKS = 2
#: ls-session: raw seconds of session time between kernel brackets.
LS_BRACKET_S = 0.1
#: Set-ups measured per ls-session session, each one sample of setup_s.
LS_SETUPS_PER_SESSION = 3


# ----------------------------------------------------------------------
# host-speed normalisation
# ----------------------------------------------------------------------
class Meter:
    """Runs the reference kernel and converts raw host time to
    reference-host time."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        refkernel.run_once()  # a process's first run is slower: untimed

    def kernel(self) -> float:
        ms = refkernel.measure_ms()
        self.samples.append(ms)
        return ms

    def kernel_pair(self, pair: "_KernelPair") -> float:
        """The speed both cores offer a 2-worker pool: the median of three
        kernel runs in each of two processes at once, averaged."""
        both = pair.measure()
        self.samples.extend(both)
        return sum(both) / 2

    @staticmethod
    def factor(before_ms: float, after_ms: float) -> float:
        return refkernel.NOMINAL_MS / ((before_ms + after_ms) / 2)


def _kernel_server(conn) -> None:
    refkernel.run_once()  # a process's first run is slower: untimed
    while conn.recv():
        conn.send(statistics.median(refkernel.measure_ms() for _ in range(3)))


class _KernelPair:
    """Two spawned processes that run the kernel on request, at once.
    Plain processes and pipes: the parent gets no helper threads, since
    the sweep's pool forks it."""

    def __init__(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        self._conns, self._procs = [], []
        for _ in range(2):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_kernel_server, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def measure(self) -> List[float]:
        for conn in self._conns:
            conn.send(True)
        return [conn.recv() for conn in self._conns]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()


@dataclass
class Outcome:
    """What one workload run measured."""

    #: per-operation latency, normalised seconds
    op_norm: List[float] = field(default_factory=list)
    #: per-unit set-up time, seconds
    setup_raw: List[float] = field(default_factory=list)
    setup_norm: List[float] = field(default_factory=list)
    #: per-unit host time per delivery, microseconds
    upd_raw: List[float] = field(default_factory=list)
    upd_norm: List[float] = field(default_factory=list)
    recording_bytes: int = 0
    recording_events: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: counts that must repeat exactly for this seed
    counts: Dict[str, int] = field(default_factory=dict)
    #: per-layer metrics (traced runs)
    layers: Dict[str, float] = field(default_factory=dict)

    def note_unit(self, counts: Dict[str, int], label: str) -> None:
        """Fold one repetition's counts in; flag any that moved."""
        for key, value in counts.items():
            if key in self.counts and self.counts[key] != value:
                self.problems.append(
                    f"determinism: {label} {key}={value}, earlier {self.counts[key]}"
                )
            self.counts.setdefault(key, value)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.problems.append(why)


def _reset_peak_rss() -> None:
    """Restart the peak-RSS watermark so input generation is excluded."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb(include_children: bool = False) -> float:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak_kb = int(line.split()[1])
    except OSError:
        pass
    if include_children:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# rb-flap: DEFINED-RB production, one op per external event
# ----------------------------------------------------------------------
class _EventProbe:
    """The op boundary of rb-flap: at each ``Network.apply_event`` it
    records a timestamp, runs the reference kernel (its time is outside
    every op) and records a second timestamp.  This is the only hook
    the untraced run installs."""

    def __init__(self, meter: Meter, tracer: Optional[Tracer]) -> None:
        self.meter = meter
        self.tracer = tracer
        self.marks: List[Tuple[float, float, float]] = []

    def __enter__(self) -> "_EventProbe":
        from repro.simnet.network import Network

        self._original = Network.__dict__["apply_event"]
        original, marks, meter, tracer = self._original, self.marks, self.meter, self.tracer

        def apply_event(net, event):
            t0 = pc()
            kernel_ms = meter.kernel()
            marks.append((t0, kernel_ms, pc()))
            if tracer is not None:
                tracer.op = len(marks) - 1
            return original(net, event)

        Network.apply_event = apply_event
        return self

    def __exit__(self, *exc) -> None:
        from repro.simnet.network import Network

        Network.apply_event = self._original


@dataclass
class _Production:
    result: object
    setup_raw: float
    setup_norm: float
    ops: List[Tuple[float, float]]  # (raw s, factor)
    total_raw: float
    total_norm: float
    deliveries: int


def _ladder_inputs():
    from repro.sweep import get_scenario

    scenario = get_scenario(LADDER_SCENARIO)
    graph = scenario.topology(LADDER_WORKLOAD_SEED)
    schedule = scenario.schedule(graph, LADDER_WORKLOAD_SEED)
    return scenario, graph, schedule


def _timed_production(inputs, net_seed: int, mode: str, meter: Meter,
                      tracer: Optional[Tracer] = None) -> _Production:
    from repro.harness import run_production

    scenario, graph, schedule = inputs
    before_ms = meter.kernel()
    with _EventProbe(meter, tracer) as probe:
        if tracer is not None:
            tracer.op = -1
            tracer.install()
        try:
            start = pc()
            result = run_production(
                graph, schedule, mode=mode, seed=net_seed,
                jitter_us=scenario.jitter_us, ordering=scenario.ordering,
                measure_convergence=False, settle_us=scenario.settle_us,
                tail_us=scenario.tail_us,
            )
            end = pc()
        finally:
            if tracer is not None:
                tracer.uninstall()
    after_ms = meter.kernel()
    marks = probe.marks
    if not marks:
        raise RuntimeError("rb-flap: production applied no external events")
    setup_raw = marks[0][0] - start
    setup_factor = meter.factor(before_ms, marks[0][1])
    ops = []
    for (_, k_a, t_a), (t_b, k_b, _) in zip(marks, marks[1:]):
        ops.append((t_b - t_a, meter.factor(k_a, k_b)))
    ops.append((end - marks[-1][2], meter.factor(marks[-1][1], after_ms)))
    total_raw = setup_raw + sum(raw for raw, _ in ops)
    total_norm = setup_raw * setup_factor + sum(raw * f for raw, f in ops)
    return _Production(
        result=result,
        setup_raw=setup_raw,
        setup_norm=setup_raw * setup_factor,
        ops=ops,
        total_raw=total_raw,
        total_norm=total_norm,
        deliveries=sum(len(log) for log in result.logs.values()),
    )


def _shim_counts(result) -> Dict[str, int]:
    stats = result.network.run_stats.per_node.values()
    return {
        "deliveries": sum(len(log) for log in result.logs.values()),
        "simnet.events": result.network.sim.events_executed,
        "shim.rollbacks": sum(s.rollbacks for s in stats),
        "shim.rolled_back_msgs": sum(s.messages_rolled_back for s in stats),
        "shim.unsends": sum(s.unsends_sent for s in stats),
        "shim.annihilated": sum(s.annihilated for s in stats),
        "recorder.bytes": result.recording.size_bytes() if result.recording else 0,
        "recorder.events": len(result.recording.events) if result.recording else 0,
    }


def _fold_production(out: Outcome, prod: _Production, reference_fp: str) -> None:
    out.attempted += len(prod.ops)
    out.op_norm.extend(raw * f for raw, f in prod.ops)
    out.setup_raw.append(prod.setup_raw)
    out.setup_norm.append(prod.setup_norm)
    out.upd_raw.append(prod.total_raw * 1e6 / prod.deliveries)
    out.upd_norm.append(prod.total_norm * 1e6 / prod.deliveries)
    if prod.result.fingerprint != reference_fp:
        out.fail(len(prod.ops), "rb-flap: production fingerprint differs from the first production's")


def _replay_gate(out: Outcome, inputs, prod: _Production) -> None:
    """One untimed DEFINED-LS replay must reproduce production (Theorem 1)."""
    from repro.harness import run_ls_replay

    scenario, graph, _ = inputs
    replay = run_ls_replay(graph, prod.result.recording, ordering=scenario.ordering)
    out.note_unit({"replay.cycles": replay.cycles}, "replay")
    if replay.fingerprint != prod.result.fingerprint:
        out.fail(len(prod.ops), "rb-flap: LS replay fingerprint differs from production (Theorem 1)")


def _net_seed(seed: int, rep: int) -> int:
    """The network timing of a run's ``rep``-th production.  Each
    production draws its own, so a run's tail latencies sample several
    timings rather than repeating one."""
    return seed * 1_000 + rep


def _unit_counts(prod: _Production, rep: int) -> Dict[str, int]:
    """A production's counts, keyed by its repetition: productions of
    one run differ in timing, so each is compared with the same
    repetition of earlier runs of the seed (and a traced production
    with repetition 0 of its own run)."""
    return {f"rep{rep}.{k}": v for k, v in _shim_counts(prod.result).items()}


def rb_flap(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    meter = Meter()
    inputs = _ladder_inputs()
    _reset_peak_rss()
    deadline = pc() + seconds
    first: Optional[_Production] = None
    defined_norm: List[float] = []
    ratios: List[float] = []
    # untraced: at least four productions (160 ops); traced: at least
    # two defined/vanilla pairs, then one traced production
    min_units = 2 if trace else 4
    budget = deadline - seconds / 2 if trace else deadline
    while True:
        rep = len(defined_norm)
        if trace:
            vanilla = _timed_production(inputs, _net_seed(seed, rep), "vanilla", meter)
        prod = _timed_production(inputs, _net_seed(seed, rep), "defined", meter)
        if first is None:
            first = prod
        _fold_production(out, prod, first.result.fingerprint)
        out.note_unit(_unit_counts(prod, rep), f"production {rep}")
        defined_norm.append(prod.total_norm * 1e6 / prod.deliveries)
        if trace:
            ratios.append(prod.total_norm / vanilla.total_norm)
        if len(defined_norm) == 2:
            # a fixed amount of work, however many units the run fits
            out.peak_rss_mb = _peak_rss_mb()
        if len(defined_norm) >= min_units and pc() >= budget:
            break
    out.recording_bytes = first.result.recording.size_bytes()
    out.recording_events = len(first.result.recording.events)
    if trace:
        tracer = Tracer()
        traced = _timed_production(inputs, _net_seed(seed, 0), "defined", meter, tracer)
        out.attempted += len(traced.ops)
        if traced.result.fingerprint != first.result.fingerprint:
            out.fail(len(traced.ops), "rb-flap: traced production changed the fingerprint")
        counts = _shim_counts(traced.result)
        out.note_unit(_unit_counts(traced, 0), "traced production")
        factors = {op: f for op, (_, f) in enumerate(traced.ops)}
        factors[-1] = traced.setup_norm / traced.setup_raw
        layers = _layer_metrics(
            tracer, lambda op: factors.get(op, 1.0),
            op_raw_ns={op: raw * 1e9 for op, (raw, _) in enumerate(traced.ops)},
        )
        layers.update(_shim_layer(counts))
        layers["harness.defined_over_vanilla"] = _median(ratios)
        layers["trace.overhead_frac"] = (
            traced.total_norm * 1e6 / traced.deliveries / _median(defined_norm) - 1
        )
        out.layers = layers
        tracer.dump(_spans_path("rb-flap", seed))
        _note_span_counts(out, tracer)
    _replay_gate(out, inputs, first)
    _host_layers(out, meter)
    return out


# ----------------------------------------------------------------------
# ls-session: a scripted DEFINED-LS troubleshooting session
# ----------------------------------------------------------------------
def _session_script(rng: random.Random, debugger, recording, nodes: List[str]):
    """Yield console commands until the recording is exhausted: mostly
    ``step``, with ``inspect <node>`` every 15th and ``group`` every 30th
    command, and two delivery breakpoints followed by ``run``.  The mix
    is fixed; the seed picks the inspected nodes."""
    coordinator = debugger.coordinator
    events = sorted(recording.events, key=lambda ev: (ev.group, ev.node, ev.seq))
    issued = 0
    while not debugger.finished:
        issued += 1
        if issued in (120, 260):
            # break on the next LSA of a router that a recorded external
            # event a few groups ahead will make re-originate
            ahead = [
                ev for ev in events
                if ev.group >= coordinator.current_group + 4 and ev.node in nodes
            ]
            if ahead:
                node = ahead[0].node
                seq = coordinator.network.nodes[node].daemon.my_seq + 1
                yield f"break \"('lsa', '{node}', {seq},\""
                yield "run"
                continue
        if issued % 30 == 0:
            yield "group"
        elif issued % 15 == 0:
            yield f"inspect {rng.choice(nodes)}"
        else:
            yield "step"


def _ls_setup(graph, scenario, recording_path: str, net_seed: int):
    from repro.core.debugger import Debugger
    from repro.core.lockstep import LockstepCoordinator
    from repro.core.ordering import make_ordering
    from repro.core.recorder import Recording
    from repro.harness import ospf_daemon_factory
    from repro.repl import DebugConsole
    from repro.topology import to_network

    recording = Recording.load(recording_path)
    net = to_network(graph, seed=net_seed, jitter_us=200)
    coordinator = LockstepCoordinator(net, recording, ordering=make_ordering(scenario.ordering))
    coordinator.attach(ospf_daemon_factory(graph), snapshots="cow")
    coordinator.start()
    debugger = Debugger(coordinator)
    console = DebugConsole(debugger, output=io.StringIO())
    return recording, coordinator, debugger, console


@dataclass
class _Session:
    ops: List[Tuple[str, float, float]]  # (command, raw s, factor)
    setup_raw: List[float]
    setup_norm: List[float]
    total_raw: float
    total_norm: float
    deliveries: int
    fingerprint: str
    cycles: int
    groups: int


def _timed_session(graph, scenario, recording_path: str, seed: int, meter: Meter,
                   tracer: Optional[Tracer] = None) -> _Session:
    net_seed = 1_000 + seed
    setup_raw, setup_norm = [], []
    for _ in range(LS_SETUPS_PER_SESSION):
        before_ms = meter.kernel()
        start = pc()
        recording, coordinator, debugger, console = _ls_setup(
            graph, scenario, recording_path, net_seed
        )
        elapsed = pc() - start
        after_ms = meter.kernel()
        setup_raw.append(elapsed)
        setup_norm.append(elapsed * meter.factor(before_ms, after_ms))
    nodes = sorted(coordinator.stacks)
    rng = random.Random(f"ls-session|{seed}")
    pending: List[Tuple[str, float]] = []  # this bracket's (command, raw s)
    ops: List[Tuple[str, float, float]] = []
    bracket_ms = meter.kernel()
    bracket_raw = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for line in _session_script(rng, debugger, recording, nodes):
            command = line.split()[0]
            if tracer is not None:
                span = tracer.begin(f"op.{command}")
            start = pc()
            console.dispatch(line)
            raw = pc() - start
            if tracer is not None:
                tracer.end(span)
            pending.append((command, raw))
            bracket_raw += raw
            if bracket_raw >= LS_BRACKET_S:
                next_ms = meter.kernel()  # calls no wrapped code
                factor = meter.factor(bracket_ms, next_ms)
                ops.extend((c, r, factor) for c, r in pending)
                pending, bracket_ms, bracket_raw = [], next_ms, 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if pending:
        factor = meter.factor(bracket_ms, meter.kernel())
        ops.extend((c, r, factor) for c, r in pending)
    net = coordinator.network
    return _Session(
        ops=ops,
        setup_raw=setup_raw,
        setup_norm=setup_norm,
        total_raw=sum(r for _, r, _ in ops),
        total_norm=sum(r * f for _, r, f in ops),
        deliveries=sum(len(log) for log in net.delivery_logs().values()),
        fingerprint=net.execution_fingerprint(),
        cycles=coordinator.steps_executed,
        groups=coordinator.current_group,
    )


def ls_session(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.harness import run_production

    out = Outcome()
    meter = Meter()
    scenario, graph, schedule = _ladder_inputs()
    # input generation (not set-up): the recording a troubleshooter
    # receives from the production site
    production = run_production(
        graph, schedule, mode="defined", seed=seed, jitter_us=scenario.jitter_us,
        ordering=scenario.ordering, measure_convergence=False,
        settle_us=scenario.settle_us, tail_us=scenario.tail_us,
    )
    recording_path = os.path.join(state_dir(), f"ls-session-{seed}.recording.json")
    production.recording.save(recording_path)
    out.recording_bytes = production.recording.size_bytes()
    out.recording_events = len(production.recording.events)
    _reset_peak_rss()

    def fold(session: _Session) -> None:
        out.attempted += len(session.ops)
        out.op_norm.extend(r * f for _, r, f in session.ops)
        out.setup_raw.extend(session.setup_raw)
        out.setup_norm.extend(session.setup_norm)
        out.upd_raw.append(session.total_raw * 1e6 / session.deliveries)
        out.upd_norm.append(session.total_norm * 1e6 / session.deliveries)
        out.note_unit(
            {
                "deliveries": session.deliveries,
                "lockstep.cycles": session.cycles,
                "lockstep.groups": session.groups,
                "session.commands": len(session.ops),
            },
            "session",
        )
        if session.fingerprint != production.fingerprint:
            out.fail(len(session.ops), "ls-session: session did not end on the production fingerprint")

    deadline = pc() + (seconds / 2 if trace else seconds)
    sessions: List[_Session] = []
    while len(sessions) < (1 if trace else 2) or pc() < deadline:
        sessions.append(_timed_session(graph, scenario, recording_path, seed, meter))
        fold(sessions[-1])
        if len(sessions) == 1:
            out.peak_rss_mb = _peak_rss_mb()
    if trace:
        tracer = Tracer()
        traced = _timed_session(graph, scenario, recording_path, seed, meter, tracer)
        out.attempted += len(traced.ops)
        if traced.fingerprint != production.fingerprint:
            out.fail(len(traced.ops), "ls-session: traced session did not end on the production fingerprint")
        factors = {i: f for i, (_, _, f) in enumerate(traced.ops)}
        layers = _layer_metrics(
            tracer, lambda op: factors.get(op, 1.0),
            op_raw_ns={i: r * 1e9 for i, (_, r, _) in enumerate(traced.ops)},
        )
        per_command: Dict[str, List[float]] = {}
        for command, raw, factor in traced.ops:
            per_command.setdefault(command, []).append(raw * factor * 1e3)
        for command in ("step", "inspect", "break", "run", "group"):
            layers[f"debugger.{command}_ms"] = _median(per_command.get(command, []))
        layers["lockstep.cycles"] = traced.cycles
        layers["lockstep.groups"] = traced.groups
        layers["recorder.bytes"] = out.recording_bytes
        layers["recorder.events"] = out.recording_events
        layers["trace.overhead_frac"] = (
            traced.total_norm / traced.deliveries
            / statistics.median(s.total_norm / s.deliveries for s in sessions) - 1
        )
        out.layers = layers
        tracer.dump(_spans_path("ls-session", seed))
        _note_span_counts(out, tracer)
    _host_layers(out, meter)
    return out


# ----------------------------------------------------------------------
# sweep-mix: the builtin catalogue through SweepRunner, 2 pool workers
# ----------------------------------------------------------------------
def _events_per_cell(name: str, seed: int, cache: Dict) -> int:
    from repro.sweep import get_scenario

    key = (name, seed)
    if key not in cache:
        scenario = get_scenario(name)
        cache[key] = len(scenario.schedule(scenario.topology(seed), seed).sorted())
    return cache[key]


@dataclass
class _Grid:
    grid_seed: int
    part: int
    cells: list
    wall_raw: float
    factor: float
    setup_raw: float
    deliveries: int


def _timed_grid(grid_seed: int, seed: int, part: Optional[int], workers: int,
                meter: Meter, kernels, tracer: Optional[Tracer] = None) -> _Grid:
    """Run one ``run_cells()`` call, bracketed by ``kernels`` (a 2-process
    pool) while its own pool is down.  ``part`` picks every
    SWEEP_CHUNKS-th cell of the workload seed's grid; None runs it all."""
    from dataclasses import replace

    from repro.sweep import SweepRunner

    before_ms = meter.kernel_pair(kernels)
    first: List[Tuple[float, float]] = []  # (time, wall s) of the first result
    if tracer is not None:
        tracer.install()
    try:
        start = pc()
        runner = SweepRunner(seeds=(grid_seed,), workers=workers)
        cells = [replace(c, jitter_seed=seed * 1_000 + grid_seed) for c in runner.grid()]
        if part is not None:
            cells = cells[part::SWEEP_CHUNKS]
        results = runner.run_cells(
            cells, progress=lambda cell: first or first.append((pc(), cell.wall_seconds))
        )
        wall = pc() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    after_ms = meter.kernel_pair(kernels)
    # set-up: runner construction and pool start, i.e. time to the first
    # result minus that cell's own execution
    setup = first[0][0] - start - first[0][1]
    return _Grid(
        grid_seed=grid_seed,
        part=-1 if part is None else part,
        cells=results,
        wall_raw=wall,
        factor=meter.factor(before_ms, after_ms),
        setup_raw=max(setup, 0.0),
        deliveries=sum(c.deliveries for c in results),
    )


def sweep_mix(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.sweep import SweepRunner, _ensure_builtins

    _ensure_builtins()
    out = Outcome()
    meter = Meter()
    seeds = SWEEP_WORKLOAD_SEEDS
    events_cache: Dict = {}
    for grid_seed in seeds:  # input generation, outside every timing
        for cell in SweepRunner(seeds=(grid_seed,)).grid():
            if cell.mode == "defined":
                _events_per_cell(cell.scenario, grid_seed, events_cache)
    kernels = _KernelPair()
    try:
        _sweep_measure(out, meter, kernels, seed, seconds, trace, events_cache)
    finally:
        kernels.close()
    _host_layers(out, meter)
    return out


def _sweep_measure(out: Outcome, meter: Meter, kernels: _KernelPair, seed: int,
                   seconds: float, trace: bool, events_cache: Dict) -> None:
    seeds = SWEEP_WORKLOAD_SEEDS
    _reset_peak_rss()
    deadline = pc() + (seconds / 2 if trace else seconds)
    passes: List[List[_Grid]] = []
    while len(passes) < 1 or pc() < deadline:
        grids = [
            _timed_grid(s, seed, part, SWEEP_WORKERS, meter, kernels)
            for s in seeds
            for part in range(SWEEP_CHUNKS)
        ]
        passes.append(grids)
        norm = sum(g.wall_raw * g.factor for g in grids)
        raw = sum(g.wall_raw for g in grids)
        deliveries = sum(g.deliveries for g in grids)
        out.upd_raw.append(raw * 1e6 / deliveries)
        out.upd_norm.append(norm * 1e6 / deliveries)
        for grid in grids:
            out.attempted += len(grid.cells)
            out.op_norm.extend(c.wall_seconds * grid.factor for c in grid.cells)
            out.setup_raw.append(grid.setup_raw)
            out.setup_norm.append(grid.setup_raw * grid.factor)
            bad = [c for c in grid.cells if not c.ok]
            if bad:
                out.fail(len(bad), f"sweep-mix: {len(bad)} cell(s) not ok, e.g. {bad[0].scenario}/{bad[0].mode}: {bad[0].error}")
            label = f"grid{grid.grid_seed}.{grid.part}"
            out.note_unit({f"{label}.{k}": v for k, v in _grid_counts(grid).items()}, label)
        if len(passes) == 1:
            out.peak_rss_mb = _peak_rss_mb(include_children=True)
    rec_bytes = rec_events = 0
    for grid in passes[0]:
        for cell in grid.cells:
            if cell.mode == "defined":
                rec_bytes += cell.recording_bytes or 0
                rec_events += _events_per_cell(cell.scenario, grid.grid_seed, events_cache)
    out.recording_bytes, out.recording_events = rec_bytes, rec_events
    if not trace:
        return
    layers: Dict[str, float] = {}
    last = passes[-1]
    cell_s = sum(c.wall_seconds * g.factor for g in last for c in g.cells)
    wall_s = sum(g.wall_raw * g.factor for g in last)
    layers["sweep.cells"] = sum(len(g.cells) for g in last)
    layers["sweep.cell_ms_sum"] = cell_s * 1e3
    layers["sweep.overhead_ms"] = (SWEEP_WORKERS * wall_s - cell_s) * 1e3
    layers["sweep.busy_frac"] = cell_s / (SWEEP_WORKERS * wall_s)
    # spans need one process: the first workload seed's whole grid,
    # inline, untraced and then traced
    plain = _timed_grid(seeds[0], seed, None, 1, meter, kernels)
    tracer = Tracer()
    import repro.sweep as sweep_module

    # the shim's counters live on each production's network: keep the
    # defined cells' sums as the traced grid runs
    run_production = sweep_module.run_production
    shim_totals: Dict[str, int] = {}

    def counting_production(*args, **kwargs):
        result = run_production(*args, **kwargs)
        if result.mode == "defined":
            for key, value in _shim_counts(result).items():
                shim_totals[key] = shim_totals.get(key, 0) + value
        return result

    sweep_module.run_production = counting_production
    try:
        traced = _timed_grid(seeds[0], seed, None, 1, meter, kernels, tracer)
    finally:
        sweep_module.run_production = run_production
    layers.update(_shim_layer(shim_totals))
    out.attempted += len(traced.cells)
    for a, b in zip(plain.cells, traced.cells):
        if a.fingerprint != b.fingerprint or not b.ok:
            out.fail(1, f"sweep-mix: traced cell {b.scenario}/{b.mode} differs or failed")
    cell_ns = {
        op: end - start
        for name, start, end, _parent, op in tracer.spans
        if name == "op.cell"
    }
    out.layers = _layer_metrics(tracer, lambda op: traced.factor, op_raw_ns=cell_ns)
    out.layers.update(layers)
    out.layers["trace.overhead_frac"] = (
        traced.wall_raw * traced.factor / traced.deliveries
        / (plain.wall_raw * plain.factor / plain.deliveries) - 1
    )
    tracer.dump(_spans_path("sweep-mix", seed))
    _note_span_counts(out, tracer)


def _grid_counts(grid: _Grid) -> Dict[str, int]:
    return {
        "cells": len(grid.cells),
        "deliveries": grid.deliveries,
        "shim.rollbacks": sum(c.rollbacks for c in grid.cells),
        "recorder.bytes": sum(c.recording_bytes or 0 for c in grid.cells),
    }


# ----------------------------------------------------------------------
# per-layer metrics from a tracer
# ----------------------------------------------------------------------
def _layer_metrics(tracer: Tracer, scale: Callable[[int], float],
                   op_raw_ns: Dict[int, float]) -> Dict[str, float]:
    """Layer times and counts from one traced unit of work; ``op_raw_ns``
    holds each op's raw duration."""
    self_ms = tracer.self_times(scale)
    counts = tracer.counts()
    layer_ms = tracer.layer_self_ms(scale)
    out: Dict[str, float] = {
        f"{layer}.self_ms": layer_ms[layer]
        for layer in ("simnet", "shim", "ospf", "lockstep", "debugger")
    }
    out["store.snapshots"] = counts.get("store.snapshot", 0)
    out["store.restores"] = counts.get("store.restore", 0)
    out["store.writes"] = counts.get("store.write", 0)
    out["store.snapshot_ms"] = self_ms.get("store.snapshot", 0.0)
    out["store.restore_ms"] = self_ms.get("store.restore", 0.0)
    out["store.write_ms"] = self_ms.get("store.write", 0.0)
    out["ospf.handler_calls"] = sum(
        counts.get(f"ospf.{handler}", 0)
        for handler in ("on_message", "on_timer", "on_external", "on_start")
    )
    out["spf.runs"] = counts.get("spf.dijkstra", 0)
    out["spf.ms"] = layer_ms["spf"]
    out["spf.us_per_run"] = out["spf.ms"] * 1e3 / out["spf.runs"] if out["spf.runs"] else 0.0
    out["fingerprint.ms"] = layer_ms["fingerprint"]
    out["simnet.events"] = tracer.sim_events
    out["simnet.us_per_event"] = (
        out["simnet.self_ms"] * 1e3 / tracer.sim_events if tracer.sim_events else 0.0
    )
    covered = tracer.covered_ns()
    total = sum(op_raw_ns.values())
    uncovered = sum(max(ns - covered.get(op, 0), 0) for op, ns in op_raw_ns.items())
    out["trace.unattributed_frac"] = uncovered / total if total else 0.0
    return out


def _shim_layer(counts: Dict[str, int]) -> Dict[str, float]:
    deliveries = counts["deliveries"]
    rolled = counts["shim.rolled_back_msgs"]
    return {
        "recorder.bytes": counts["recorder.bytes"],
        "recorder.events": counts["recorder.events"],
        "shim.rollbacks": counts["shim.rollbacks"],
        "shim.rolled_back_msgs": rolled,
        "shim.unsends": counts["shim.unsends"],
        "shim.annihilated": counts["shim.annihilated"],
        "shim.useful_frac": deliveries / (deliveries + rolled),
    }


def _note_span_counts(out: Outcome, tracer: Tracer) -> None:
    """Span counts of the traced unit join the determinism check."""
    out.note_unit({f"calls.{name}": n for name, n in tracer.counts().items()}, "traced unit")


def _host_layers(out: Outcome, meter: Meter) -> None:
    samples = meter.samples
    quartiles = statistics.quantiles(samples, n=4) if len(samples) >= 2 else [0, 0, 0]
    out.layers["host.ref_kernel_ms_p50"] = statistics.median(samples)
    out.layers["host.ref_kernel_iqr_frac"] = (quartiles[2] - quartiles[0]) / quartiles[1]
    out.layers["raw.us_per_delivery"] = _median(out.upd_raw)
    out.layers["raw.setup_s"] = _median(out.setup_raw)


# ----------------------------------------------------------------------
# files the benchmark leaves in its checkout
# ----------------------------------------------------------------------
def state_dir() -> str:
    path = os.path.join(os.getcwd(), ".perfbench-out")
    os.makedirs(path, exist_ok=True)
    return path


def _spans_path(workload: str, seed: int) -> str:
    return os.path.join(state_dir(), f"spans-{workload}-{seed}.jsonl.gz")


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "rb-flap": rb_flap,
    "ls-session": ls_session,
    "sweep-mix": sweep_mix,
}
