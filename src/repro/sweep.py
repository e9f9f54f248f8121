"""Scenario-sweep subsystem: diverse failure environments, checked in bulk.

The paper's evaluation runs one recorded workload through the vanilla,
DEFINED-RB and DEFINED-LS stacks and compares bit-for-bit fingerprints.
This module scales that methodology from two hand-built case studies to a
whole *grid*:

* a :class:`Scenario` descriptor bundles everything one failure
  environment needs -- a topology factory, an external-event schedule
  factory, an optional daemon factory and an expected-outcome predicate
  -- with every random choice derived from the cell's seed, so a grid
  cell is a pure function of ``(scenario, seed, mode)``;
* a registry (:func:`register` / :func:`get_scenario`) names scenarios so
  grid cells stay picklable and the CLI can address them;
* a family of parameterized fault-injection generators synthesizes
  link-flap storms, node crash/restarts, network partitions,
  link-latency jitter and DDoS-overload variants (the last built on the
  stop-and-wait :mod:`repro.baselines.ddos` stack);
* :class:`SweepRunner` shards the scenario x seed x mode grid across
  cores with :class:`concurrent.futures.ProcessPoolExecutor` -- each
  worker builds its own :class:`~repro.simnet.engine.Simulator`, so
  per-run determinism is untouched -- and aggregates a
  divergence/determinism report, verifying the Theorem-1 invariant
  (``replay.fingerprint == defined.fingerprint``) for every DEFINED cell;
* :func:`compose` overlays any registered scenarios into a new one
  (merged schedules on seed-split RNG streams, widest topology, AND-ed
  expectations, mode intersection), so every pair of scenarios is itself
  a scenario -- ``partition`` during a ``flap-storm``, a crash in the
  middle of a ``ddos-overload`` burst;
* :func:`jittered` wraps any scenario in the **boundary-jitter fuzzer**:
  every external event is snapped onto a beacon-group boundary +/- a few
  seed-derived microseconds, the exact regime where group tagging,
  per-group ordering and anti-message retraction hand off;
* :class:`FuzzRunner` sweeps jittered grids across (scenario, seed,
  jitter) and shrinks any divergence to the smallest failing triple.

Composed, sized and jittered scenarios are addressable *by name* without
prior registration: ``a+b`` composes, ``a@40`` re-scales ``a`` onto a
40-node topology (:meth:`Scenario.sized`), ``a~j2us`` fuzzes with 2 us
of boundary jitter, and they nest -- ``flap_storm@40+partition@40~j2us``
is a 40-node flap storm overlaid with a 40-node partition, fuzzed.  Name
resolution is a pure function of the builtin catalogue, so the names
travel to worker processes regardless of the multiprocessing start
method.

Two scale-out mechanisms round the grid machinery out:

* ``SweepRunner(..., repeats=K)`` is the **seed-invariance probe**: each
  ``(scenario, seed, mode)`` cell is re-run under ``K`` seed-split
  *jitter seeds* -- same topology, same external schedule, different
  network timing -- and for the deterministic modes (``defined``,
  ``ddos``) the ``K`` fingerprints must collapse to one.  A split is a
  first-class divergence (:meth:`SweepReport.invariance_splits`).
* with ``workers > 1`` cells run on a process pool with a bounded
  window of futures in flight (:func:`repro.supervise.pool_iter`); each
  worker returns its whole :class:`CellResult` on its future, so
  1000+-cell grids report progress live, the parent's state stays flat,
  and a cell reports the same result at any worker count.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_matrix, render_table
from repro.core.history import WindowHeadroomStats
from repro.harness import (
    ProductionResult,
    burst_schedule,
    flappable_links,
    run_ls_replay,
    run_production,
)
from repro.simnet.engine import SECOND
from repro.simnet.events import (
    LINK_DOWN,
    LINK_UP,
    NODE_DOWN,
    NODE_UP,
    EventSchedule,
    ExternalEvent,
)
from repro.simnet.faults import NetworkTuning
from repro.simnet.network import DEFAULT_TIME_UNIT_US
from repro.topology import TopologyGraph, waxman_family

TopologyFactory = Callable[[int], TopologyGraph]
ScheduleFactory = Callable[[TopologyGraph, int], EventSchedule]
DaemonBuilder = Callable[[TopologyGraph], Optional[Callable]]
ExpectPredicate = Callable[[ProductionResult], bool]
TuningFactory = Callable[[TopologyGraph, int], NetworkTuning]

#: Modes a scenario runs in by default.  ``defined`` cells additionally
#: run a DEFINED-LS replay and check the Theorem-1 invariant.
DEFAULT_MODES: Tuple[str, ...] = ("vanilla", "defined")

#: Modes that guarantee timing-independent execution: the same workload
#: must produce the same fingerprint under *any* jitter seed.  The
#: seed-invariance probe (``repeats > 1``) only demands fingerprint
#: collapse in these modes.
DETERMINISTIC_MODES: Tuple[str, ...] = ("defined", "ddos")


@dataclass(frozen=True)
class Scenario:
    """One reproducible failure environment.

    Everything is a factory taking the cell seed, so the same descriptor
    yields a *family* of concrete environments -- same failure shape,
    different topologies/timings -- while each cell stays a deterministic
    function of its seed.
    """

    name: str
    description: str
    topology: TopologyFactory
    schedule: ScheduleFactory
    #: Builds a per-node daemon factory for a concrete topology; ``None``
    #: falls back to the harness's OSPF daemon.
    daemon: Optional[DaemonBuilder] = None
    #: Scenario-level sanity predicate over the finished run (outcome
    #: shape, not determinism -- the runner checks determinism itself).
    expect: Optional[ExpectPredicate] = None
    modes: Tuple[str, ...] = DEFAULT_MODES
    jitter_us: int = 200
    ordering: str = "OO"
    settle_us: int = 3 * SECOND
    tail_us: int = 2 * SECOND
    #: Optional continuous-perturbation factory (chaos DSL fault
    #: families): maps the concrete topology and the *workload* seed to a
    #: :class:`~repro.simnet.faults.NetworkTuning` (per-node clock skew,
    #: link-layer duplication/reordering, gray loss) installed on the
    #: production network before boot.  Keyed on the workload seed -- not
    #: the jitter seed -- so the perturbation *configuration* is part of
    #: the workload and the seed-invariance probe varies only its timing
    #: draws.
    tuning: Optional[TuningFactory] = None
    #: Nominal node count of ``topology`` (None: unknown / not meaningful).
    base_nodes: Optional[int] = None
    #: Size-parameterization hook: maps a node count to a re-scaled
    #: scenario of the same family (topology re-based to ``n`` nodes,
    #: schedule event counts scaled proportionally).  Installed by the
    #: scenario-family constructors; ``None`` means :meth:`sized` refuses
    #: (the paper case studies are bound to their fixed topologies).
    sizer: Optional[Callable[[int], "Scenario"]] = None

    def sized(self, n: int) -> "Scenario":
        """Derive the ``n``-node variant of this scenario (``name@N``).

        The sizer re-builds the family at ``n`` nodes -- topology factory
        re-scaled, schedule event counts scaled proportionally to
        ``n / base_nodes`` -- and the derived schedule runs on a
        seed-split RNG stream keyed on the sized name, so every size is
        an independent, deterministic function of the cell seed.
        """
        if "@" in self.name:
            raise ValueError(
                f"scenario {self.name!r} is already size-parameterized; "
                "derive sizes from the base scenario"
            )
        if self.sizer is None:
            raise ValueError(
                f"scenario {self.name!r} is not size-parameterized: it is "
                "bound to a fixed topology (no sizer hook)"
            )
        if n < 2:
            raise ValueError("sized() needs at least two nodes")
        if "+" in self.name or "~j" in self.name:
            # composed/jittered scenario: the sizer re-derives the sized
            # variant itself -- compositions re-compose per-component
            # sized variants, jitter wrappers size the base and re-wrap
            # -- so the result already carries the canonical
            # "a@N+b@N" / "a@N~jJus" name and the matching seed-split
            # streams ("(a+b)@N" is the same scenario as "a@N+b@N",
            # fingerprints included)
            return self.sizer(n)
        derived = self.sizer(n)
        sized_name = f"{self.name}@{n}"
        base_schedule = derived.schedule

        def schedule(graph: TopologyGraph, seed: int) -> EventSchedule:
            return base_schedule(graph, seed_split(seed, sized_name))

        return replace(
            derived,
            name=sized_name,
            description=f"{derived.description} [sized to {n} nodes]",
            schedule=schedule,
            base_nodes=n,
            sizer=None,
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Scenario] = {}
_BUILTINS_LOADED = False
_BUILTIN_NAMES: frozenset = frozenset()


def register(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the global registry (idempotent per name)."""
    if scenario.name in _REGISTRY and not replace:
        existing = _REGISTRY[scenario.name]
        if existing is not scenario:
            raise ValueError(f"scenario {scenario.name!r} already registered")
        return existing
    if scenario.name in _REGISTRY:
        # cached compositions may close over the scenario being replaced
        _DYNAMIC_CACHE.clear()
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)
    # composed/jittered resolutions may close over the removed scenario
    _DYNAMIC_CACHE.clear()


def _ensure_builtins() -> None:
    """Importing :mod:`repro.scenarios` registers the builtin scenario
    set (case studies + fault-injection family) exactly once."""
    global _BUILTINS_LOADED, _BUILTIN_NAMES
    if not _BUILTINS_LOADED:
        import repro.scenarios  # noqa: F401  (import-time registration)

        _BUILTINS_LOADED = True
        _BUILTIN_NAMES = frozenset(_REGISTRY)


#: ``name~j<N>us`` -- the boundary-jitter fuzzing suffix.
_JITTER_SUFFIX = re.compile(r"^(?P<base>.+)~j(?P<us>\d+)us$")

#: ``name@<N>`` -- the size-parameterization suffix (per component).
_SIZE_SUFFIX = re.compile(r"^(?P<base>.+)@(?P<n>\d+)$")

#: ``(a+b)@<N>`` -- whole-composition sizing; expands to the
#: per-component form (``a@N~j..+b@N``, size binding inside any
#: per-component jitter), which it is identical to.
_PAREN_SIZE = re.compile(r"^\((?P<base>[^()]+)\)@(?P<n>\d+)$")

#: ``(a+b)`` / ``(a+b)@<N>`` -- an explicitly grouped composition.  A
#: jitter suffix after the closing paren is unambiguously
#: whole-composition jitter, even when components carry their own.
_PAREN_SPEC = re.compile(r"^\((?P<base>[^()]+)\)(?:@(?P<n>\d+))?$")


def _split_trailing_jitter(spec: str) -> "Tuple[str, Optional[int]]":
    """Strip one trailing ``~j<N>us`` suffix; reject stacked suffixes.

    ``a~j1us~j2us`` (and ``(a+b)~j1us~j2us``) are genuinely ambiguous --
    jitter does not compose with itself on one target -- so they fail
    here with a parse error instead of resolving to something surprising.
    """
    match = _JITTER_SUFFIX.match(spec)
    if not match:
        return spec, None
    base = match.group("base")
    if _JITTER_SUFFIX.match(base):
        raise ValueError(
            f"{spec!r} stacks more than one ~j<N>us jitter suffix on the "
            "same target; jitter binds per component (a~j1us+b~j5us) or "
            "once over the whole composition ((a+b)~j1us), never twice"
        )
    return base, int(match.group("us"))


def _expand_paren_size(spec: str) -> str:
    """Rewrite ``(a+b)@N`` as ``a@N+b@N``; other specs pass through.

    The size binds *inside* any per-component jitter suffix:
    ``(a~j1us+b)@40`` is ``a@40~j1us+b@40``.
    """
    match = _PAREN_SIZE.match(spec)
    if not match:
        return spec
    n = match.group("n")
    parts = []
    for part in match.group("base").split("+"):
        base, jitter = _split_trailing_jitter(part)
        if _SIZE_SUFFIX.match(base):
            raise ValueError(
                f"component {part!r} already carries a size; "
                f"cannot re-size the composition with @{n}"
            )
        sized = f"{base}@{n}"
        parts.append(f"{sized}~j{jitter}us" if jitter is not None else sized)
    return "+".join(parts)

#: Cache for dynamically resolved (composed / sized / jittered)
#: scenarios, kept out of the registry so lookups don't grow
#: ``scenario_names()``.
_DYNAMIC_CACHE: Dict[str, Scenario] = {}

#: Scenario-file components (chaos DSL documents) are recognized by
#: extension anywhere a scenario name is accepted.  Paths containing
#: ``+`` are unsupported -- ``+`` is the composition operator.
_SCENARIO_FILE_SUFFIXES = (".yaml", ".yml", ".json")


def _is_scenario_file(name: str) -> bool:
    return name.endswith(_SCENARIO_FILE_SUFFIXES)


def _load_scenario_file(path: str) -> Scenario:
    """Compile a chaos DSL document into a :class:`Scenario`.

    Deferred import: :mod:`repro.chaos` imports this module for the
    Scenario/seed_split machinery, so the dependency must stay one-way at
    import time.  The loader caches on ``(path, mtime, size)``, which is
    why file components bypass :data:`_DYNAMIC_CACHE` -- an edited file
    must recompile.
    """
    from repro.chaos import load_scenario_file

    return load_scenario_file(path)


def _resolve_component(part: str) -> Optional[Scenario]:
    """Resolve one composition component: ``name[@N][~jJus]``.

    Raises :class:`ValueError` for malformed size/jitter combinations
    (stacked jitter, size outside the jitter suffix, base not
    size-parameterized) -- clearer failures than "unknown scenario".
    Returns ``None`` for unknown base names.
    """
    if part in _REGISTRY:
        return _REGISTRY[part]
    base, jitter = _split_trailing_jitter(part)
    size = None
    if base not in _REGISTRY and not _is_scenario_file(base):
        size_match = _SIZE_SUFFIX.match(base)
        if size_match:
            inner = size_match.group("base")
            if _JITTER_SUFFIX.match(inner):
                raise ValueError(
                    f"component {part!r}: the size binds inside the jitter "
                    "suffix -- write 'name@N~jJus', not 'name~jJus@N'"
                )
            base, size = inner, int(size_match.group("n"))
    if _is_scenario_file(base):
        scenario = _load_scenario_file(base)
    else:
        base = base if base in _REGISTRY else base.replace("_", "-")
        if base not in _REGISTRY:
            return None
        scenario = _REGISTRY[base]
    if size is not None:
        scenario = scenario.sized(size)
    if jitter is not None:
        scenario = jittered(scenario, jitter_us=jitter)
    return scenario


def _resolve_dynamic(name: str) -> Optional[Scenario]:
    """Resolve a composed/sized/jittered scenario name against the registry.

    Grammar: ``spec := comps ['~j' J 'us'] | '(' comps ')' ['@' N]
    ['~j' J 'us']; comps := comp ('+' comp)*; comp := name ['@' N]
    ['~j' J 'us']`` -- a size suffix applies per component (binding
    *inside* that component's jitter suffix), ``(a+b)@N`` sizes the
    whole composition (identical to ``a@N+b@N``), and jitter binds per
    component: ``a~j1us+b~j5us`` jitters each component's schedule
    before the merge.  A single *trailing* suffix on an unparenthesized
    composition (``a+b~j1us``) keeps its historical whole-composition
    meaning -- unless another component carries its own jitter, in which
    case it binds to the final component like the others.
    Whole-composition jitter over per-component jitter must be spelled
    with parens (``(a~j1us+b)~j5us``); stacked suffixes
    (``(a+b)~j1us~j2us``) are rejected with a parse error.  Unknown
    component names make the whole resolution fail (returns ``None``).
    Resolution only reads the registry, so any process that can import
    the builtin catalogue can resolve the same name to the same
    scenario, regardless of the multiprocessing start method.
    """
    cached = _DYNAMIC_CACHE.get(name)
    if cached is not None:
        return cached
    spec, trailing = _split_trailing_jitter(name)
    paren = _PAREN_SPEC.match(spec)
    if paren:
        inner, n = paren.group("base"), paren.group("n")
        spec = _expand_paren_size(f"({inner})@{n}") if n else inner
    else:
        spec = _expand_paren_size(spec)
    parts = spec.split("+")
    if (
        trailing is not None and paren is None and len(parts) > 1
        and any(_JITTER_SUFFIX.match(p) for p in parts)
    ):
        # mixed form "a~j1us+b~j5us": once any component carries its own
        # jitter, the trailing suffix binds to the final component too
        parts[-1] = f"{parts[-1]}~j{trailing}us"
        trailing = None
    components = []
    for part in parts:
        component = _resolve_component(part)
        if component is None:
            return None
        components.append(component)
    # resolve under the *canonical* name (registered component spellings)
    # -- the name seeds the composition's RNG streams, so an underscore
    # alias must produce the same schedules as the hyphenated spelling
    if len(components) > 1:
        scenario = compose(*components)
    else:
        scenario = components[0]
    if trailing is not None:
        jitter_name = None
        if any(_JITTER_SUFFIX.match(p) for p in parts):
            # keep the parens in the fuzz name: "a~j1us+b~j5us" would
            # re-parse as per-component jitter, a different scenario
            jitter_name = f"({scenario.name})~j{trailing}us"
        scenario = jittered(scenario, jitter_us=trailing, name=jitter_name)
    if not any(_is_scenario_file(p.split("@")[0].split("~j")[0]) for p in parts):
        # file components recompile when the file changes (the loader
        # caches on mtime); memoizing them here would pin the first parse
        _DYNAMIC_CACHE[name] = scenario
    return scenario


def _canonical_component(part: str) -> str:
    """Canonical spelling of one component: registered base spelling
    (underscores normalize to hyphens) with its ``@N`` / ``~jJus``
    suffixes re-attached.  Unresolvable bases pass through unchanged."""
    if part in _REGISTRY:
        return part
    base, jitter = _split_trailing_jitter(part)
    suffix = f"~j{jitter}us" if jitter is not None else ""
    size = ""
    if base not in _REGISTRY:
        size_match = _SIZE_SUFFIX.match(base)
        if size_match and not _JITTER_SUFFIX.match(size_match.group("base")):
            base, size = size_match.group("base"), f"@{size_match.group('n')}"
    if base not in _REGISTRY and base.replace("_", "-") in _REGISTRY:
        base = base.replace("_", "-")
    return base + size + suffix


def canonical_scenario_name(name: str) -> str:
    """The canonical spelling of a scenario spec: each component takes
    its registered spelling (underscores normalize to hyphens), ``@N``
    size and ``~jNus`` jitter suffixes are kept (per-component jitter
    stays on its component; parens survive only where they disambiguate
    whole-composition jitter from per-component jitter).  Unresolvable
    parts pass through unchanged so unknown names still fail later with
    the full lookup error; malformed suffix stacks fail here."""
    _ensure_builtins()
    spec, trailing = _split_trailing_jitter(name)
    paren = _PAREN_SPEC.match(spec)
    if paren:
        inner, n = paren.group("base"), paren.group("n")
        spec = _expand_paren_size(f"({inner})@{n}") if n else inner
    else:
        spec = _expand_paren_size(spec)
    parts = [_canonical_component(part) for part in spec.split("+")]
    if (
        trailing is not None and paren is None and len(parts) > 1
        and any(_JITTER_SUFFIX.match(p) for p in parts)
    ):
        parts[-1] = f"{parts[-1]}~j{trailing}us"
        trailing = None
    canonical = "+".join(parts)
    if trailing is None:
        return canonical
    if any(_JITTER_SUFFIX.match(p) for p in parts):
        return f"({canonical})~j{trailing}us"
    return f"{canonical}~j{trailing}us"


def sized_spec(name: str, n: int) -> str:
    """Append ``@n`` to every component of a scenario spec.

    ``sized_spec("flap_storm+partition~j2us", 40)`` is
    ``"flap-storm@40+partition@40~j2us"`` -- the whole composition
    re-scaled onto 40-node topologies.  The size binds *inside* any
    per-component jitter suffix (``a~j1us`` sizes to ``a@40~j1us``), so
    every valid jittered spec stays valid under sizing.  Components that
    already carry a size are rejected (re-sizing would be ambiguous)."""
    canonical = canonical_scenario_name(name)
    spec, trailing = _split_trailing_jitter(canonical)
    paren = _PAREN_SPEC.match(spec)
    if paren:
        if paren.group("n"):
            raise ValueError(
                f"composition {spec!r} already carries a size; cannot re-size"
            )
        spec = paren.group("base")
    parts = []
    for part in spec.split("+"):
        base, jitter = _split_trailing_jitter(part)
        if _SIZE_SUFFIX.match(base):
            raise ValueError(
                f"component {part!r} already carries a size; cannot re-size"
            )
        sized = f"{base}@{n}"
        parts.append(f"{sized}~j{jitter}us" if jitter is not None else sized)
    sized = "+".join(parts)
    if trailing is None:
        return sized
    if paren:
        return f"({sized})~j{trailing}us"
    return f"{sized}~j{trailing}us"


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario, or resolve a composed/sized/
    jittered spec (``a+b``, ``a@40``, ``(a+b)@40``, ``a~j1us``,
    ``a@40+b@40~j2us``) from registered components.  A component ending
    in ``.yaml`` / ``.yml`` / ``.json`` is loaded as a chaos DSL scenario
    file (:mod:`repro.chaos`) and participates in the same grammar:
    ``examples/skew.yaml~j1us`` fuzzes a file scenario."""
    _ensure_builtins()
    if name in _REGISTRY:
        return _REGISTRY[name]
    if _is_scenario_file(name):
        return _load_scenario_file(name)
    dynamic = _resolve_dynamic(name)
    if dynamic is not None:
        return dynamic
    raise KeyError(
        f"unknown scenario {name!r}; registered: {scenario_names()} "
        "(or compose with 'a+b', size with 'a@<N>', fuzz with 'a~j<N>us')"
    )


def scenario_names(include_sized: bool = True) -> List[str]:
    """Registered scenario names.  ``include_sized=False`` drops the
    ``name@N`` size variants -- the default grid for sweeps, which would
    otherwise quietly pull 80-node cells into every smoke run."""
    _ensure_builtins()
    names = sorted(_REGISTRY)
    if not include_sized:
        names = [n for n in names if "@" not in n]
    return names


# ----------------------------------------------------------------------
# scenario composition and the boundary-jitter fuzzer
# ----------------------------------------------------------------------

def seed_split(seed: int, tag: str) -> int:
    """Derive an independent child seed from ``(seed, tag)``.

    Composition overlays several generators that may share RNG tags (two
    flap storms on the same graph, say); splitting the cell seed per
    component keeps their streams independent while the whole cell stays
    a pure function of its seed.  ``zlib.crc32`` rather than ``hash()``:
    the latter is salted per process and would desynchronize workers.
    """
    return zlib.crc32(f"{tag}|{seed}".encode()) & 0x7FFFFFFF


def compose(
    *components: "Scenario | str",
    name: Optional[str] = None,
    offsets_us: Optional[Sequence[int]] = None,
) -> Scenario:
    """Overlay two or more scenarios into one composed scenario.

    * **schedule**: each component's schedule is built with a seed-split
      RNG stream (:func:`seed_split` over the composed name and component
      index), optionally shifted by its entry in ``offsets_us``, then
      merged via :meth:`EventSchedule.merged`;
    * **topology**: widest-topology resolution -- per seed, every
      component's topology is built and the one with the most nodes (then
      edges) hosts the composition, so every component's fault generator
      has room to act;
    * **expect**: the AND of every component predicate;
    * **modes**: the intersection, in the first component's order (a
      component with a restricted mode list narrows the composition);
    * **knobs**: most adversarial wins -- max ``jitter_us``, min
      ``settle_us``, max ``tail_us``.

    Scenarios with custom daemons (the paper case studies) are not
    composable: their daemons close over their own fixed topologies.
    """
    if len(components) < 2:
        raise ValueError("compose() needs at least two scenarios")
    comps: List[Scenario] = [
        get_scenario(c) if isinstance(c, str) else c for c in components
    ]
    for comp in comps:
        if comp.daemon is not None:
            raise ValueError(
                f"scenario {comp.name!r} declares a custom daemon bound to "
                "its own topology and cannot be composed"
            )
    orderings = {comp.ordering for comp in comps}
    if len(orderings) > 1:
        raise ValueError(f"components disagree on ordering: {sorted(orderings)}")
    modes = tuple(
        m for m in comps[0].modes if all(m in c.modes for c in comps[1:])
    )
    if not modes:
        raise ValueError(
            "composed scenarios share no modes: "
            + "; ".join(f"{c.name}={c.modes}" for c in comps)
        )
    offsets = tuple(offsets_us) if offsets_us is not None else (0,) * len(comps)
    if len(offsets) != len(comps):
        raise ValueError("offsets_us must match the component count")
    composed_name = name or "+".join(c.name for c in comps)

    def topology(seed: int) -> TopologyGraph:
        graphs = [c.topology(seed) for c in comps]
        return max(graphs, key=lambda g: (g.node_count(), g.edge_count()))

    def schedule(graph: TopologyGraph, seed: int) -> EventSchedule:
        parts = []
        for i, (comp, offset) in enumerate(zip(comps, offsets)):
            part = comp.schedule(
                graph, seed_split(seed, f"{composed_name}#{i}:{comp.name}")
            )
            parts.append(part.shifted(offset) if offset else part)
        return parts[0].merged(*parts[1:])

    predicates = [c.expect for c in comps if c.expect is not None]

    def expect(result: ProductionResult) -> bool:
        return all(predicate(result) for predicate in predicates)

    # continuous perturbations merge like schedules: each component
    # builds its tuning on the same seed-split stream its schedule uses,
    # then skews sum per node and fault windows concatenate
    tuning_comps = [(i, c) for i, c in enumerate(comps) if c.tuning is not None]
    tuning: Optional[TuningFactory] = None
    if tuning_comps:
        def tuning(graph: TopologyGraph, seed: int) -> NetworkTuning:
            merged = NetworkTuning()
            for i, comp in tuning_comps:
                merged = merged.merged(
                    comp.tuning(
                        graph, seed_split(seed, f"{composed_name}#{i}:{comp.name}")
                    )
                )
            return merged

    # size-parameterized iff every component is: "(a+b)@N" re-composes
    # the components' own sized variants, so it resolves to exactly the
    # same scenario as "a@N+b@N" (same canonical name, same seed-split
    # schedule streams)
    sizer: Optional[Callable[[int], Scenario]] = None
    if all(c.sizer is not None for c in comps):
        def sizer(n: int) -> Scenario:
            return compose(*(c.sized(n) for c in comps), offsets_us=offsets)

    return Scenario(
        name=composed_name,
        description="composed: " + " + ".join(c.description for c in comps),
        topology=topology,
        schedule=schedule,
        expect=expect if predicates else None,
        modes=modes,
        tuning=tuning,
        jitter_us=max(c.jitter_us for c in comps),
        ordering=comps[0].ordering,
        settle_us=min(c.settle_us for c in comps),
        tail_us=max(c.tail_us for c in comps),
        sizer=sizer,
    )


def jittered(
    base: "Scenario | str",
    jitter_us: int = 1,
    boundary_us: int = DEFAULT_TIME_UNIT_US,
    name: Optional[str] = None,
) -> Scenario:
    """The boundary-jitter fuzzer: ``base`` with every external event
    snapped onto a beacon-group boundary +/- ``jitter_us`` of seed-derived
    jitter (see :meth:`EventSchedule.boundary_jittered`).

    Group boundaries are where external-event tagging, the per-group
    ordering function and anti-message retraction hand off, so this is
    the adversarial placement for the DEFINED machinery; Theorem 1 must
    hold regardless.
    """
    scenario = get_scenario(base) if isinstance(base, str) else base
    if name is not None:
        fuzz_name = name
    elif "~j" in scenario.name:
        # parenthesize so the name re-parses as whole-composition jitter:
        # "a~j1us+b~j5us" would re-resolve as per-component jitter, a
        # different scenario
        fuzz_name = f"({scenario.name})~j{jitter_us}us"
    else:
        fuzz_name = f"{scenario.name}~j{jitter_us}us"
    base_schedule = scenario.schedule

    def schedule(graph: TopologyGraph, seed: int) -> EventSchedule:
        return base_schedule(graph, seed).boundary_jittered(
            boundary_us,
            seed_split(seed, fuzz_name),
            jitter_us=jitter_us,
            tag=f"fuzz|{fuzz_name}",
        )

    # sizing happens *inside* the jitter wrapper: "a~j1us" sizes to
    # "a@20~j1us" by sizing the base and re-wrapping, so the grammar is
    # closed under @N and a sized jittered spec can never silently
    # resolve to an unjittered scenario
    sizer: Optional[Callable[[int], Scenario]] = None
    if scenario.sizer is not None:
        def sizer(n: int) -> Scenario:
            return jittered(
                scenario.sized(n), jitter_us=jitter_us, boundary_us=boundary_us
            )

    return replace(
        scenario,
        name=fuzz_name,
        description=(
            f"{scenario.name} with events snapped to beacon-group "
            f"boundaries +/-{jitter_us}us"
        ),
        schedule=schedule,
        sizer=sizer,
    )


# ----------------------------------------------------------------------
# fault-injection generators (each a deterministic function of its seed)
# ----------------------------------------------------------------------

def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"sweep|{tag}|{seed}")


def flap_storm_schedule(
    graph: TopologyGraph,
    seed: int,
    n_flaps: int = 4,
    start_us: int = 4 * SECOND + 97_000,
    min_hold_us: int = SECOND // 2,
    max_hold_us: int = 3 * SECOND,
    gap_us: int = SECOND + 217_000,
    links: Optional[Sequence[Tuple[str, str]]] = None,
) -> EventSchedule:
    """A storm of independent link flaps; every link heals by the end.

    Victims are drawn per flap from ``links`` when given (an explicit
    target list, validated against the graph -- how damping scenarios
    concentrate a storm on one known link) or from the flappable set
    otherwise.  Hold times and gaps stay seed-drawn either way.
    """
    rng = _rng(f"flap|{graph.name}", seed)
    if links is not None:
        chosen = [tuple(link) for link in links]
        for a, b in chosen:
            if not any(
                (a, b) == (x, y) or (a, b) == (y, x) for x, y, _d in graph.edges
            ):
                raise ValueError(
                    f"flap storm names a link not in {graph.name}: {a}-{b}"
                )
        links = sorted(chosen)
    else:
        links = flappable_links(graph)
    if not links:
        raise ValueError(f"topology {graph.name} has no flappable links")
    schedule = EventSchedule()
    t = start_us
    for _ in range(n_flaps):
        link = links[rng.randrange(len(links))]
        hold = rng.randrange(min_hold_us, max_hold_us)
        schedule.add(ExternalEvent(time_us=t, kind=LINK_DOWN, target=link))
        schedule.add(ExternalEvent(time_us=t + hold, kind=LINK_UP, target=link))
        t += gap_us + rng.randrange(0, 311_000)
    return schedule


def crash_restart_schedule(
    graph: TopologyGraph,
    seed: int,
    n_crashes: int = 1,
    start_us: int = 4 * SECOND + 211_000,
    down_for_us: int = 3 * SECOND,
    gap_us: int = 5 * SECOND,
    nodes: Optional[Sequence[str]] = None,
) -> EventSchedule:
    """Routers die and come back: a ``node_down`` / ``node_up`` cycle per
    victim, victims drawn deterministically from the seed -- from an
    explicit ``nodes`` target list when given, the whole graph
    otherwise."""
    rng = _rng(f"crash|{graph.name}", seed)
    if nodes is not None:
        victims_pool = sorted(nodes)
        unknown = [node for node in victims_pool if node not in graph.nodes]
        if unknown:
            raise ValueError(
                f"crash/restart names nodes not in {graph.name}: {unknown}"
            )
        nodes = victims_pool
    else:
        nodes = sorted(graph.nodes)
    schedule = EventSchedule()
    t = start_us
    for _ in range(n_crashes):
        victim = nodes[rng.randrange(len(nodes))]
        schedule.add(ExternalEvent(time_us=t, kind=NODE_DOWN, target=victim))
        schedule.add(
            ExternalEvent(time_us=t + down_for_us, kind=NODE_UP, target=victim)
        )
        t += gap_us + rng.randrange(0, 293_000)
    return schedule


def partition_schedule(
    graph: TopologyGraph,
    seed: int,
    at_us: int = 4 * SECOND + 157_000,
    heal_after_us: int = 4 * SECOND,
) -> EventSchedule:
    """Cut the network into two halves, then heal it.

    A random bipartition (seed-derived) selects one side; every crossing
    link goes down at ``at_us`` and comes back ``heal_after_us`` later.
    """
    rng = _rng(f"partition|{graph.name}", seed)
    nodes = sorted(graph.nodes)
    if len(nodes) < 2:
        raise ValueError("cannot partition fewer than two nodes")
    side_size = rng.randrange(1, len(nodes))
    side = set(rng.sample(nodes, side_size))
    crossing = [
        (a, b) for a, b, _d in graph.edges if (a in side) != (b in side)
    ]
    schedule = EventSchedule()
    for link in crossing:
        schedule.add(ExternalEvent(time_us=at_us, kind=LINK_DOWN, target=link))
        schedule.add(
            ExternalEvent(time_us=at_us + heal_after_us, kind=LINK_UP, target=link)
        )
    return schedule


def zone_blackout_schedule(
    graph: TopologyGraph,
    seed: int,
    size: int = 2,
    nodes: Optional[Sequence[str]] = None,
    at_us: int = 4 * SECOND + 131_000,
    duration_us: int = 3 * SECOND,
) -> EventSchedule:
    """A correlated zone failure: several routers go dark *simultaneously*
    (shared power/cooling domain), then all restart together.

    Victims are either named explicitly or drawn seed-deterministically;
    at least one node always survives so the network keeps existing.
    """
    pool = sorted(graph.nodes)
    if nodes is not None:
        victims = sorted(nodes)
        unknown = [v for v in victims if v not in graph.nodes]
        if unknown:
            raise ValueError(
                f"zone blackout names nodes not in {graph.name}: {unknown}"
            )
        if len(victims) >= len(pool):
            raise ValueError("zone blackout must leave at least one node up")
    else:
        rng = _rng(f"zone|{graph.name}", seed)
        victims = sorted(rng.sample(pool, min(size, len(pool) - 1)))
    schedule = EventSchedule()
    for victim in victims:
        schedule.add(ExternalEvent(time_us=at_us, kind=NODE_DOWN, target=victim))
        schedule.add(
            ExternalEvent(time_us=at_us + duration_us, kind=NODE_UP, target=victim)
        )
    return schedule


def srlg_schedule(
    graph: TopologyGraph,
    seed: int,
    size: int = 2,
    links: Optional[Sequence[Tuple[str, str]]] = None,
    at_us: int = 4 * SECOND + 173_000,
    duration_us: int = 2 * SECOND,
) -> EventSchedule:
    """A shared-risk link group: several links fail *as one* (a common
    conduit cut) and are repaired together.

    The correlated simultaneous failure is the point -- independent flaps
    give each LSA wave time to converge, an SRLG cut does not.  Links are
    either named explicitly or drawn seed-deterministically from the
    flappable set (both endpoints keep degree >= 1).
    """
    if links is not None:
        group = [tuple(link) for link in links]
        for a, b in group:
            if not any(
                (a, b) == (x, y) or (a, b) == (y, x) for x, y, _d in graph.edges
            ):
                raise ValueError(f"SRLG names a link not in {graph.name}: {a}-{b}")
        group.sort()
    else:
        eligible = flappable_links(graph)
        if not eligible:
            raise ValueError(f"topology {graph.name} has no flappable links")
        rng = _rng(f"srlg|{graph.name}", seed)
        group = sorted(rng.sample(eligible, min(size, len(eligible))))
    schedule = EventSchedule()
    for link in group:
        schedule.add(ExternalEvent(time_us=at_us, kind=LINK_DOWN, target=link))
        schedule.add(
            ExternalEvent(time_us=at_us + duration_us, kind=LINK_UP, target=link)
        )
    return schedule


def ddos_overload_schedule(
    graph: TopologyGraph,
    seed: int,
    events_per_second: int = 8,
    n_events: int = 10,
    start_us: int = 4 * SECOND,
) -> EventSchedule:
    """An event-rate overload: a fixed-rate link-flap burst far above the
    normal workload, the regime where stop-and-wait delivery (the DDOS
    baseline stack) pays its worst-case holds."""
    return burst_schedule(
        graph, events_per_second, n_events, start_us=start_us, seed=seed
    )


# ----------------------------------------------------------------------
# builtin scenario families
# ----------------------------------------------------------------------

def _waxman_topology(tag: str, n: int) -> TopologyFactory:
    """Seed-varied Waxman graphs: each cell seed gets its own topology."""
    return waxman_family(tag, n)


def _scale_count(base_count: int, base_nodes: int, n: int) -> int:
    """Scale a schedule event count proportionally with the node count."""
    return max(1, round(base_count * n / base_nodes))


def _diamond_topology(seed: int) -> TopologyGraph:
    """The fixed four-node diamond used by the determinism tests."""
    del seed
    return TopologyGraph(
        name="diamond",
        nodes=["a", "b", "c", "d"],
        edges=[
            ("a", "b", 2_000),
            ("b", "c", 3_000),
            ("c", "d", 2_500),
            ("a", "d", 4_000),
            ("b", "d", 3_500),
        ],
    )


def flap_storm_scenario(
    name: str = "flap-storm",
    nodes: int = 8,
    n_flaps: int = 4,
) -> Scenario:
    return Scenario(
        name=name,
        description=f"{n_flaps} randomized link flaps on a {nodes}-node Waxman graph",
        topology=_waxman_topology(name, nodes),
        schedule=lambda graph, seed: flap_storm_schedule(graph, seed, n_flaps=n_flaps),
        expect=_expect_all_links_healed,
        tail_us=3 * SECOND,
        base_nodes=nodes,
        sizer=lambda n: flap_storm_scenario(
            name=name, nodes=n, n_flaps=_scale_count(n_flaps, nodes, n)
        ),
    )


def crash_restart_scenario(
    name: str = "crash-restart",
    nodes: int = 6,
    n_crashes: int = 1,
) -> Scenario:
    return Scenario(
        name=name,
        description=f"{n_crashes} router crash/restart cycle(s) on a {nodes}-node Waxman graph",
        topology=_waxman_topology(name, nodes),
        schedule=lambda graph, seed: crash_restart_schedule(
            graph, seed, n_crashes=n_crashes
        ),
        expect=_expect_all_nodes_up,
        tail_us=3 * SECOND,
        base_nodes=nodes,
        sizer=lambda n: crash_restart_scenario(
            name=name, nodes=n, n_crashes=_scale_count(n_crashes, nodes, n)
        ),
    )


def partition_scenario(
    name: str = "partition",
    nodes: int = 8,
) -> Scenario:
    return Scenario(
        name=name,
        description=f"random bipartition + heal on a {nodes}-node Waxman graph",
        topology=_waxman_topology(name, nodes),
        schedule=partition_schedule,
        expect=_expect_all_links_healed,
        tail_us=3 * SECOND,
        base_nodes=nodes,
        # the cut scales with the topology itself: every crossing link of
        # a seed-derived bipartition flaps, however many there are
        sizer=lambda n: partition_scenario(name=name, nodes=n),
    )


#: Node count of the fixed diamond topology the delay-stress scenarios
#: default to; their sizers re-base onto Waxman graphs from here.
_DIAMOND_NODES = 4


def latency_jitter_scenario(
    name: str = "latency-jitter",
    jitter_us: int = 2_500,
    nodes: Optional[int] = None,
    n_flaps: int = 2,
) -> Scenario:
    """Heavy per-packet link jitter: stresses the delay-sensitive ordering
    into actual rollbacks while determinism must still hold.

    Defaults to the fixed diamond topology the determinism tests use;
    ``nodes`` (or :meth:`Scenario.sized`) re-bases it onto an ``n``-node
    Waxman graph with the flap count scaled proportionally.
    """
    return Scenario(
        name=name,
        description=(
            f"{n_flaps} link flap(s) under {jitter_us}us per-packet latency jitter"
            + (f" on a {nodes}-node Waxman graph" if nodes else "")
        ),
        topology=(
            _diamond_topology if nodes is None else _waxman_topology(name, nodes)
        ),
        schedule=lambda graph, seed: flap_storm_schedule(
            graph, seed, n_flaps=n_flaps,
            min_hold_us=2 * SECOND, max_hold_us=4 * SECOND,
        ),
        jitter_us=jitter_us,
        tail_us=3 * SECOND,
        base_nodes=nodes if nodes is not None else _DIAMOND_NODES,
        sizer=lambda n: latency_jitter_scenario(
            name=name, jitter_us=jitter_us, nodes=n,
            n_flaps=_scale_count(n_flaps, nodes or _DIAMOND_NODES, n),
        ),
    )


def ddos_overload_scenario(
    name: str = "ddos-overload",
    events_per_second: int = 8,
    n_events: int = 8,
    nodes: Optional[int] = None,
) -> Scenario:
    """Event-rate overload, also run through the stop-and-wait DDOS
    baseline stack (:mod:`repro.baselines.ddos`) to contrast blocking
    determinism with DEFINED-RB's speculation under load."""
    return Scenario(
        name=name,
        description=(
            f"{events_per_second}/s link-event burst; includes the DDOS "
            "stop-and-wait baseline mode"
            + (f" (on a {nodes}-node Waxman graph)" if nodes else "")
        ),
        topology=(
            _diamond_topology if nodes is None else _waxman_topology(name, nodes)
        ),
        schedule=lambda graph, seed: ddos_overload_schedule(
            graph, seed, events_per_second=events_per_second, n_events=n_events
        ),
        expect=_expect_all_links_healed,
        modes=("vanilla", "defined", "ddos"),
        tail_us=4 * SECOND,
        base_nodes=nodes if nodes is not None else _DIAMOND_NODES,
        sizer=lambda n: ddos_overload_scenario(
            name=name, events_per_second=events_per_second,
            n_events=_scale_count(n_events, nodes or _DIAMOND_NODES, n),
            nodes=n,
        ),
    )


def _expect_all_links_healed(result: ProductionResult) -> bool:
    return all(link.up for link in result.network.links.values())


def _expect_all_nodes_up(result: ProductionResult) -> bool:
    return all(node.up for node in result.network.nodes.values())


def _expect_damping(
    min_suppressed: Optional[int] = None,
    released_by_end: Optional[bool] = None,
) -> Callable[[ProductionResult], bool]:
    """Build a route-flap-damping expectation predicate.

    Replays the run's observed link-down transitions (one virtual-time
    unit per beacon interval) through a reference
    :class:`~repro.routing.damping.FlapDampener` at its paper defaults:

    * ``min_suppressed``: at least this many downs land while the link
      is suppressed -- pins that the storm is dense enough to trip
      damping at all;
    * ``released_by_end``: by run end the penalty has decayed below the
      reuse threshold on every link -- pins that the scenario's tail is
      long enough for suppression to release.

    The dampener is a pure function of the transition log, so the
    predicate is as deterministic as the run that produced it.
    """

    def predicate(result: ProductionResult) -> bool:
        from repro.routing.damping import FlapDampener

        network = result.network
        unit = network.time_unit_us
        dampener = FlapDampener()
        links_seen = set()
        suppressed_downs = 0
        for time_us, link_id, up in network.link_transitions:
            if up:
                continue
            links_seen.add(link_id)
            if dampener.flap(link_id, time_us // unit):
                suppressed_downs += 1
        if min_suppressed is not None and suppressed_downs < min_suppressed:
            return False
        if released_by_end:
            end_vt = network.sim.now // unit
            if any(dampener.poll(link_id, end_vt) for link_id in sorted(links_seen)):
                return False
        return True

    return predicate


# ----------------------------------------------------------------------
# grid cells and the worker (module-level, so it pickles)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: a pure function of these fields.

    ``seed`` drives the *workload* (topology + external schedule).
    ``jitter_seed``, when set, re-seeds only the network timing (link
    jitter, cost sampling) -- the seed-invariance probe runs the same
    workload under several jitter seeds and checks that deterministic
    modes collapse to one fingerprint.  ``repeat`` disambiguates the
    probe's re-executions in reports.

    ``window_us`` / ``jitter_us`` override the shim's history window and
    the scenario's per-packet delivery jitter for this one cell -- the
    two axes the window-envelope mapper (:mod:`repro.envelope`) grids
    over.  ``check_invariant=False`` skips the DEFINED-LS replay of a
    ``defined`` cell: envelope *mapping* cells run deliberately
    undersized windows where late deliveries forfeit determinism, so a
    Theorem-1 check would only measure the mis-configuration; the
    verification re-run at the suggested window turns it back on."""

    scenario: str
    seed: int
    mode: str
    repeat: int = 0
    jitter_seed: Optional[int] = None
    window_us: Optional[int] = None
    jitter_us: Optional[int] = None
    check_invariant: bool = True
    #: Checkpoint mechanism override for the DEFINED stacks ("cow" /
    #: "deepcopy"; None = the harness default).  The differential
    #: snapshot tests sweep the same grid under both values and demand
    #: bit-identical fingerprints.
    snapshots: Optional[str] = None
    #: When set, a ``defined`` cell whose Theorem-1 check fails archives
    #: both executions as content-addressed run bundles in this
    #: directory (the production bundle embeds the recording, so the
    #: divergence is replayable offline with ``repro diff``).  Workers
    #: write the bundles themselves.
    artifact_dir: Optional[str] = None

    @property
    def network_seed(self) -> int:
        """The seed the simulated network's timing draws from."""
        return self.seed if self.jitter_seed is None else self.jitter_seed


@dataclass(frozen=True)
class CellResult:
    """The picklable outcome of one grid cell."""

    scenario: str
    seed: int
    mode: str
    repeat: int = 0
    #: Jitter seed the network timing actually ran under (None: same as
    #: ``seed``); carried so seed-invariance splits are attributable.
    jitter_seed: Optional[int] = None
    #: The cell's overrides, echoed back (None: scenario defaults) so
    #: envelope grids can group results by their (window, jitter) axes.
    window_us: Optional[int] = None
    jitter_us: Optional[int] = None
    #: Checkpoint mechanism the cell ran under (None: harness default).
    snapshots: Optional[str] = None
    fingerprint: str = ""
    replay_fingerprint: Optional[str] = None
    #: Theorem-1 check (``defined`` cells only): replay == production.
    invariant_ok: Optional[bool] = None
    #: Scenario-level expected-outcome predicate, when one is declared.
    expected_ok: Optional[bool] = None
    #: Deterministic-delivery check for instrumented modes: no ordering
    #: misses slipped through (late deliveries are rollback-repaired in
    #: ``defined`` mode, so they must net out to zero only for ``ddos``).
    late_deliveries: int = 0
    rollbacks: int = 0
    deliveries: int = 0
    recording_bytes: Optional[int] = None
    #: Measured history-window headroom (``defined`` cells only): the
    #: slack-deficit distribution plus the *effective* window the run
    #: used -- the envelope mapper's raw material.
    headroom: Optional[WindowHeadroomStats] = None
    #: Per-node headroom for every node that went late.  Keys are node
    #: ids; lets the envelope recommend per-node windows.
    node_headroom: Optional[Dict[str, WindowHeadroomStats]] = None
    wall_seconds: float = 0.0
    error: Optional[str] = None
    #: Executions this result took (supervised retries; 1 elsewhere).
    attempts: int = 1
    #: Coverage accounting (see :meth:`SweepReport.coverage`):
    #: ``completed`` -- the cell executed to a final answer (error or
    #: not); ``timed_out`` -- reaped past the supervised deadline;
    #: ``quarantined`` -- parked after exhausting transient retries;
    #: ``resumed`` -- replayed from a journal instead of executed.
    outcome: str = "completed"

    @property
    def key(self) -> Tuple[str, int, str]:
        return (self.scenario, self.seed, self.mode)

    @property
    def network_seed_label(self) -> int:
        return self.seed if self.jitter_seed is None else self.jitter_seed

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.invariant_ok is not False
            and self.expected_ok is not False
        )


def cell_result(cell: SweepCell, **fields) -> CellResult:
    """A :class:`CellResult` carrying ``cell``'s identity plus ``fields``."""
    return CellResult(
        scenario=cell.scenario,
        seed=cell.seed,
        mode=cell.mode,
        repeat=cell.repeat,
        jitter_seed=cell.jitter_seed,
        window_us=cell.window_us,
        jitter_us=cell.jitter_us,
        snapshots=cell.snapshots,
        **fields,
    )


def _archive_divergence(cell: SweepCell, production, replay) -> None:
    """Write both sides of a failed Theorem-1 check as run bundles.

    Bundle writing must never sink the cell: the divergence itself is
    the result, the artifact is a debugging convenience, so I/O errors
    degrade to a warning.
    """
    from repro.artifact import RunBundle

    context = {
        "scenario": cell.scenario,
        "seed": cell.seed,
        "jitter_seed": cell.jitter_seed,
        "window_us": cell.window_us,
        "jitter_us": cell.jitter_us,
        "snapshots": cell.snapshots,
    }
    try:
        os.makedirs(cell.artifact_dir, exist_ok=True)
        RunBundle.from_production(production, context=context).save(
            cell.artifact_dir
        )
        RunBundle.from_replay(replay, context=context).save(cell.artifact_dir)
    except OSError as exc:  # pragma: no cover - disk-full/permission paths
        import warnings

        warnings.warn(
            f"could not archive divergence bundles for "
            f"{cell.scenario}/seed={cell.seed}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one grid cell in the current process.

    Builds a fresh topology, schedule and :class:`Simulator` from the
    cell's seed, runs the production network, and -- for ``defined``
    cells -- replays the partial recording through DEFINED-LS and checks
    the Theorem-1 invariant.  The workload (topology + schedule) always
    derives from ``cell.seed``; the network's timing draws from
    ``cell.network_seed``, so the seed-invariance probe can vary timing
    under a pinned workload.  Never raises: failures come back as
    ``error`` so one bad cell cannot sink a whole sweep.
    """
    _ensure_builtins()
    start = time.perf_counter()
    try:
        scenario = get_scenario(cell.scenario)
        graph = scenario.topology(cell.seed)
        schedule = scenario.schedule(graph, cell.seed)
        daemon_factory = scenario.daemon(graph) if scenario.daemon else None
        snapshots = cell.snapshots if cell.snapshots is not None else "cow"
        # like the schedule, the tuning is workload: same cell.seed under
        # a different jitter seed must perturb the same nodes/links
        tuning = (
            scenario.tuning(graph, cell.seed) if scenario.tuning is not None else None
        )
        result = run_production(
            graph,
            schedule,
            mode=cell.mode,
            seed=cell.network_seed,
            jitter_us=(
                cell.jitter_us if cell.jitter_us is not None
                else scenario.jitter_us
            ),
            ordering=scenario.ordering,
            daemon_factory=daemon_factory,
            measure_convergence=False,
            settle_us=scenario.settle_us,
            tail_us=scenario.tail_us,
            window_us=cell.window_us,
            snapshots=snapshots,
            tuning=tuning,
        )
        replay_fp: Optional[str] = None
        invariant: Optional[bool] = None
        recording_bytes: Optional[int] = None
        if cell.mode == "defined":
            assert result.recording is not None
            recording_bytes = result.recording.size_bytes()
            if cell.check_invariant:
                replay = run_ls_replay(
                    graph,
                    result.recording,
                    ordering=scenario.ordering,
                    daemon_factory=daemon_factory,
                    snapshots=snapshots,
                )
                replay_fp = replay.fingerprint
                invariant = replay_fp == result.fingerprint
                if invariant is False and cell.artifact_dir:
                    _archive_divergence(cell, result, replay)
        expected = scenario.expect(result) if scenario.expect else None
        return cell_result(
            cell,
            fingerprint=result.fingerprint,
            replay_fingerprint=replay_fp,
            invariant_ok=invariant,
            expected_ok=expected,
            late_deliveries=result.late_deliveries,
            rollbacks=result.rollbacks,
            deliveries=sum(len(log) for log in result.logs.values()),
            recording_bytes=recording_bytes,
            headroom=result.headroom,
            node_headroom=result.node_headroom or None,
            wall_seconds=time.perf_counter() - start,
        )
    except Exception as exc:  # pragma: no cover - exercised via error cells
        return cell_result(
            cell,
            wall_seconds=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )


def _spawn_portable(name: str) -> bool:
    """Whether a spawned worker (fresh interpreter, builtin catalogue
    only) can resolve this scenario name: either it is a builtin, or it
    is a composed/sized/jittered spec over builtin components."""
    if name in _BUILTIN_NAMES:
        return True
    try:
        spec, _ = _split_trailing_jitter(name)
    except ValueError:
        return False  # malformed: resolution will fail loudly anyway
    paren = _PAREN_SPEC.match(spec)
    if paren:
        spec = paren.group("base")

    def portable_part(part: str) -> bool:
        if part in _BUILTIN_NAMES:
            return True
        try:
            part, _ = _split_trailing_jitter(part)
        except ValueError:
            return False
        size_match = _SIZE_SUFFIX.match(part)
        if size_match:
            part = size_match.group("base")
        if _is_scenario_file(part):
            # workers share the filesystem; a missing/invalid file fails
            # loudly in the worker the same way it would in the parent
            return True
        return (
            part in _BUILTIN_NAMES
            or part.replace("_", "-") in _BUILTIN_NAMES
        )

    return all(portable_part(part) for part in spec.split("+"))


# ----------------------------------------------------------------------
# the runner and its report
# ----------------------------------------------------------------------

@dataclass
class SweepReport:
    """Aggregated sweep results plus the determinism verdicts."""

    cells: List[CellResult]
    seeds: Tuple[int, ...]
    workers: int
    repeats: int
    wall_seconds: float = 0.0

    # -- verdicts ------------------------------------------------------
    def errors(self) -> List[CellResult]:
        return [c for c in self.cells if c.error is not None]

    def invariant_violations(self) -> List[CellResult]:
        """DEFINED cells where the replay diverged from production."""
        return [c for c in self.cells if c.invariant_ok is False]

    def expectation_failures(self) -> List[CellResult]:
        return [c for c in self.cells if c.expected_ok is False]

    def ordering_misses(self) -> List[CellResult]:
        """Instrumented cells that delivered out of deterministic order.
        ``defined`` repairs late arrivals by rollback, so only ``ddos``
        (which cannot roll back) counts here."""
        return [
            c for c in self.cells if c.mode == "ddos" and c.late_deliveries > 0
        ]

    def invariance_splits(self) -> List[Tuple[str, int, str]]:
        """Seed-invariance breaches: (scenario, seed, mode) groups whose
        re-executions under different jitter seeds produced more than one
        fingerprint in a *deterministic* mode.

        ``defined`` and ``ddos`` guarantee timing-independence -- the
        same workload must fingerprint identically under any jitter seed.
        ``vanilla``/``logging`` carry no such guarantee (their splits are
        the paper's motivation), so they are reported in the distinct-
        fingerprint matrix but are not failures."""
        seen: Dict[Tuple[str, int, str], str] = {}
        bad: List[Tuple[str, int, str]] = []
        for c in self.cells:
            if c.error is not None or c.mode not in DETERMINISTIC_MODES:
                continue
            prior = seen.setdefault(c.key, c.fingerprint)
            if prior != c.fingerprint and c.key not in bad:
                bad.append(c.key)
        return bad

    # backwards-compatible alias (pre-probe name)
    repeat_mismatches = invariance_splits

    # -- coverage accounting -------------------------------------------
    def timed_out(self) -> List[CellResult]:
        """Cells the supervised watchdog reaped past their deadline."""
        return [c for c in self.cells if c.outcome == "timed_out"]

    def quarantined(self) -> List[CellResult]:
        """Cells parked after exhausting their transient-retry budget."""
        return [c for c in self.cells if c.outcome == "quarantined"]

    def resumed(self) -> List[CellResult]:
        """Cells replayed from a resume journal instead of executed."""
        return [c for c in self.cells if c.outcome == "resumed"]

    def coverage(self) -> Dict[str, int]:
        """What the grid actually did, cell by cell.

        A partial report must never masquerade as a full one: any
        non-zero ``timed_out``/``quarantined`` count means coverage
        gaps, and ``resumed`` says how much of the grid was inherited
        from a journal rather than executed here.
        """
        counts = {"completed": 0, "resumed": 0, "timed_out": 0, "quarantined": 0}
        for c in self.cells:
            counts[c.outcome] = counts.get(c.outcome, 0) + 1
        counts["cells"] = len(self.cells)
        return counts

    def semantic_digest(self) -> str:
        """Order-insensitive content hash of the grid's semantic outcomes.

        Covers exactly what the grid *computed* -- cell identities,
        fingerprints, verdicts, counters, headroom -- and excludes how
        it was computed: wall seconds, attempt counts, worker topology,
        and outcome provenance (``resumed`` vs ``completed``).  An
        interrupted grid resumed from its journal must therefore digest
        identically to the same grid run uninterrupted; the CI
        interrupted-grid job pins this.
        """
        from repro.artifact.bundle import canonical_json

        rows = []
        for c in self.cells:
            rows.append({
                "scenario": c.scenario,
                "seed": c.seed,
                "mode": c.mode,
                "repeat": c.repeat,
                "jitter_seed": c.jitter_seed,
                "window_us": c.window_us,
                "jitter_us": c.jitter_us,
                "snapshots": c.snapshots,
                "fingerprint": c.fingerprint,
                "replay_fingerprint": c.replay_fingerprint,
                "invariant_ok": c.invariant_ok,
                "expected_ok": c.expected_ok,
                "late_deliveries": c.late_deliveries,
                "rollbacks": c.rollbacks,
                "deliveries": c.deliveries,
                "recording_bytes": c.recording_bytes,
                "headroom": (
                    c.headroom.to_dict() if c.headroom is not None else None
                ),
                "node_headroom": (
                    {n: hr.to_dict() for n, hr in sorted(c.node_headroom.items())}
                    if c.node_headroom
                    else None
                ),
                "error": c.error,
            })
        rows.sort(key=canonical_json)
        doc = {"seeds": list(self.seeds), "repeats": self.repeats, "cells": rows}
        return hashlib.sha256(canonical_json(doc).encode("ascii")).hexdigest()

    def ok(self) -> bool:
        return not (
            self.errors()
            or self.invariant_violations()
            or self.expectation_failures()
            or self.ordering_misses()
            or self.invariance_splits()
        )

    # -- aggregation ---------------------------------------------------
    def fingerprint_index(self) -> Dict[Tuple[str, int, str, int], str]:
        """(scenario, seed, mode, repeat) -> fingerprint, for equivalence
        checks between serial and parallel executions."""
        return {
            (c.scenario, c.seed, c.mode, c.repeat): c.fingerprint
            for c in self.cells
        }

    def scenario_names(self) -> List[str]:
        return sorted({c.scenario for c in self.cells})

    def modes(self) -> List[str]:
        order = {"vanilla": 0, "defined": 1, "ddos": 2, "logging": 3}
        return sorted({c.mode for c in self.cells}, key=lambda m: (order.get(m, 9), m))

    def distinct_fingerprints(self, scenario: str, mode: str) -> int:
        fps = {
            c.fingerprint
            for c in self.cells
            if c.scenario == scenario and c.mode == mode and c.error is None
        }
        return len(fps)

    def _group(self, scenario: str, mode: str) -> List[CellResult]:
        return [c for c in self.cells if c.scenario == scenario and c.mode == mode]

    # -- rendering -----------------------------------------------------
    def summary_rows(self) -> List[List]:
        rows = []
        for scenario in self.scenario_names():
            for mode in self.modes():
                group = self._group(scenario, mode)
                if not group:
                    continue
                errors = sum(1 for c in group if c.error is not None)
                invariant = [c for c in group if c.invariant_ok is not None]
                rows.append([
                    scenario,
                    mode,
                    len(group),
                    self.distinct_fingerprints(scenario, mode),
                    ("-" if not invariant
                     else f"{sum(1 for c in invariant if c.invariant_ok)}/{len(invariant)}"),
                    sum(c.rollbacks for c in group),
                    sum(c.late_deliveries for c in group),
                    errors,
                    sum(c.wall_seconds for c in group),
                ])
        return rows

    def render(self) -> str:
        parts = [
            render_table(
                "scenario sweep: divergence / determinism",
                ["scenario", "mode", "cells", "fingerprints",
                 "theorem1", "rollbacks", "late", "errors", "wall (s)"],
                self.summary_rows(),
            )
        ]
        matrix = {
            scenario: {
                mode: (str(self.distinct_fingerprints(scenario, mode))
                       if self._group(scenario, mode) else "-")
                for mode in self.modes()
            }
            for scenario in self.scenario_names()
        }
        parts.append("")
        parts.append(render_matrix(
            f"distinct fingerprints across {len(self.seeds)} seed(s) "
            f"x {self.repeats} jitter-seed repeat(s)  "
            "[defined/ddos: 1 per seed == seed-invariant]",
            "scenario",
            self.modes(),
            matrix,
        ))
        verdict = []
        for label, items in [
            ("errors", self.errors()),
            ("Theorem-1 violations", self.invariant_violations()),
            ("expectation failures", self.expectation_failures()),
            ("ordering misses (ddos)", self.ordering_misses()),
            ("seed-invariance splits", self.invariance_splits()),
        ]:
            if items:
                verdict.append(f"{label}: {len(items)}")
        parts.append("")
        parts.append(
            f"grid: {len(self.cells)} cells, {self.workers} worker(s), "
            f"{self.wall_seconds:.2f}s wall"
        )
        coverage = self.coverage()
        if (
            coverage["timed_out"]
            or coverage["quarantined"]
            or coverage["resumed"]
        ):
            parts.append(
                "coverage: "
                f"{coverage['completed']} completed, "
                f"{coverage['resumed']} resumed from journal, "
                f"{coverage['timed_out']} timed out, "
                f"{coverage['quarantined']} quarantined"
            )
        parts.append(
            "verdict: OK -- every DEFINED cell reproduced bit-for-bit"
            if self.ok()
            else "verdict: FAILED -- " + "; ".join(verdict)
        )
        return "\n".join(parts)

    def to_dict(self) -> Dict:
        """JSON-serializable divergence report (the CI artifact).

        Summarizes the grid and carries every divergence in full --
        errors, Theorem-1 violations, expectation failures, ordering
        misses, and seed-invariance splits (with the per-jitter-seed
        fingerprints that refused to collapse)."""
        def cell_dict(c: CellResult) -> Dict:
            return {
                "scenario": c.scenario,
                "seed": c.seed,
                "mode": c.mode,
                "repeat": c.repeat,
                "error": c.error,
                "outcome": c.outcome,
                "attempts": c.attempts,
                "invariant_ok": c.invariant_ok,
                "expected_ok": c.expected_ok,
                "late_deliveries": c.late_deliveries,
                "snapshots": c.snapshots,
                "fingerprint": c.fingerprint,
                "replay_fingerprint": c.replay_fingerprint,
                "headroom": (
                    c.headroom.to_dict() if c.headroom is not None else None
                ),
                "node_headroom": (
                    {n: hr.to_dict() for n, hr in sorted(c.node_headroom.items())}
                    if c.node_headroom else None
                ),
            }

        splits = []
        for scenario, seed, mode in self.invariance_splits():
            group = [
                c for c in self.cells
                if c.key == (scenario, seed, mode) and c.error is None
            ]
            splits.append({
                "scenario": scenario,
                "seed": seed,
                "mode": mode,
                "fingerprints": {
                    str(c.network_seed_label): c.fingerprint for c in group
                },
            })

        return {
            "ok": self.ok(),
            "grid_cells": len(self.cells),
            "seeds": list(self.seeds),
            "repeats": self.repeats,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "coverage": self.coverage(),
            "semantic_digest": self.semantic_digest(),
            "timed_out": [cell_dict(c) for c in self.timed_out()],
            "quarantined": [cell_dict(c) for c in self.quarantined()],
            "errors": [cell_dict(c) for c in self.errors()],
            "theorem1_violations": [
                cell_dict(c) for c in self.invariant_violations()
            ],
            "expectation_failures": [
                cell_dict(c) for c in self.expectation_failures()
            ],
            "ordering_misses": [cell_dict(c) for c in self.ordering_misses()],
            "invariance_splits": splits,
        }


class SweepRunner:
    """Shard a scenario x seed x mode grid across worker processes.

    ``workers=1`` runs everything inline (same process, deterministic
    order); ``workers>1`` fans cells out to a process pool, where each
    worker returns its result on its own future and at most a window of
    futures is in flight, so progress callbacks fire in *completion*
    order.  Either way :meth:`run` returns results ordered by the grid,
    and a cell's result does not depend on the worker count.

    ``repeats=K`` arms the **seed-invariance probe**: every
    (scenario, seed, mode) cell runs under ``K`` jitter seeds (repeat 0
    uses the workload seed itself; later repeats use seed-split
    derivations), and :meth:`SweepReport.invariance_splits` demands the
    deterministic modes collapse to one fingerprint per cell.
    """

    def __init__(
        self,
        scenarios: Optional[Sequence[str]] = None,
        seeds: Sequence[int] = (1, 2, 3),
        modes: Optional[Sequence[str]] = None,
        workers: int = 1,
        repeats: int = 1,
        snapshots: Optional[str] = None,
        artifact_dir: Optional[str] = None,
        cell_timeout_s: Optional[float] = None,
        retries: Optional[int] = None,
        journal_dir: Optional[str] = None,
        resume_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        #: Supervision policy (see :mod:`repro.supervise`): armed when a
        #: per-cell deadline or a retry budget is configured, ``None``
        #: (inert) otherwise.
        self.policy = None
        if cell_timeout_s is not None or retries is not None:
            from repro.supervise import SupervisionPolicy
            from repro.supervise.executor import DEFAULT_RETRIES

            self.policy = SupervisionPolicy(
                cell_timeout_s=cell_timeout_s,
                retries=retries if retries is not None else DEFAULT_RETRIES,
            )
        #: Cell-journal directory (append-only, crash-safe): every
        #: finished cell is durably recorded so an interrupted grid can
        #: be resumed.  ``resume_dir`` replays completed cells from an
        #: existing journal *and* keeps journaling into it (unless a
        #: separate ``journal_dir`` is given), so a twice-interrupted
        #: grid keeps one linear history.
        self.journal_dir = journal_dir
        self.resume_dir = resume_dir
        if snapshots is not None:
            from repro.core.statestore import SnapshotStrategy

            snapshots = SnapshotStrategy.of(snapshots).value  # fail fast
        # the default grid: every registered scenario except the @N size
        # variants, which opt in by name (an 80-node cell takes minutes;
        # pulling it into every smoke sweep would be a footgun)
        self.scenario_names = (
            list(scenarios)
            if scenarios is not None
            else scenario_names(include_sized=False)
        )
        for name in self.scenario_names:
            get_scenario(name)  # fail fast on unknown names
        self.seeds = tuple(seeds)
        self.modes = tuple(modes) if modes is not None else None
        self.workers = workers
        self.repeats = repeats
        self.snapshots = snapshots
        #: Directory Theorem-1 divergences are archived into as run
        #: bundles (None: no archiving); see :attr:`SweepCell.artifact_dir`.
        self.artifact_dir = artifact_dir

    def _worker_context(self):
        """Multiprocessing context for the pool.

        Workers rebuild the registry by importing :mod:`repro.scenarios`,
        which only covers the builtin catalogue -- scenarios registered at
        runtime by the caller exist solely in this process.  A forked
        worker inherits them; a spawned/forkserver worker does not (the
        default on macOS/Windows, and on Linux from Python 3.14).  Prefer
        fork where available; otherwise runtime-registered scenarios
        cannot cross the process boundary, so fail loudly instead of
        erroring on every cell.
        """
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            custom = sorted(
                name for name in self.scenario_names if not _spawn_portable(name)
            )
            if custom:
                raise ValueError(
                    f"scenarios {custom} are registered at runtime and cannot "
                    "reach spawn-based worker processes; run with workers=1 or "
                    "register them at import time in repro.scenarios"
                )
            return None

    def grid(self) -> List[SweepCell]:
        cells = []
        for name in self.scenario_names:
            scenario = get_scenario(name)
            modes = self.modes if self.modes is not None else scenario.modes
            for seed in self.seeds:
                for mode in modes:
                    for repeat in range(self.repeats):
                        # repeat 0 keeps the legacy identity (network
                        # seeded by the workload seed); later repeats are
                        # the invariance probe's extra jitter seeds
                        jitter_seed = (
                            None if repeat == 0
                            else seed_split(seed, f"jitter-repeat|{repeat}")
                        )
                        cells.append(
                            SweepCell(
                                name, seed, mode, repeat, jitter_seed,
                                snapshots=self.snapshots,
                                artifact_dir=self.artifact_dir,
                            )
                        )
        return cells

    def run(self, progress: Optional[Callable[[CellResult], None]] = None) -> SweepReport:
        """Run the whole grid and aggregate a :class:`SweepReport`.

        ``progress`` fires once per finished cell -- in grid order
        inline, in completion order on a pool.  The report's cell list
        is always grid-ordered.
        """
        cells = self.grid()
        start = time.perf_counter()
        return SweepReport(
            cells=self.run_cells(cells, progress=progress),
            seeds=self.seeds,
            workers=self.workers,
            repeats=self.repeats,
            wall_seconds=time.perf_counter() - start,
        )

    def run_cells(
        self,
        cells: Sequence[SweepCell],
        progress: Optional[Callable[[CellResult], None]] = None,
    ) -> List[CellResult]:
        """Execute an explicit cell list (same execution as :meth:`run`),
        returning results in the given cell order.

        This is the execution surface for callers that build their own
        grids with per-cell overrides -- the window-envelope mapper grids
        (scenario, jitter, window, seed) rather than this runner's
        (scenario, seed, mode, repeat)."""
        by_index: Dict[int, CellResult] = {}
        for index, result in self._iter_results(list(cells), progress):
            by_index[index] = result
        return [by_index[i] for i in range(len(cells))]

    def stream(
        self, progress: Optional[Callable[[CellResult], None]] = None
    ):
        """Yield :class:`CellResult` objects as cells finish, without
        retaining them: the constant-memory consumption surface for very
        large grids (aggregate on the fly, or ship each record
        elsewhere).  Ordering follows :meth:`run`'s ``progress`` rules.
        """
        for _index, result in self._iter_results(self.grid(), progress):
            yield result

    # -- execution strategies ------------------------------------------
    def _iter_results(
        self,
        cells: Sequence[SweepCell],
        progress: Optional[Callable[[CellResult], None]],
    ):
        """The journal/resume wrapper around :meth:`_execute`.

        Without a journal or resume directory this is a pass-through.
        With one, completed cells from the resume journal are yielded
        first (outcome ``resumed``, no execution), and every newly
        executed cell is durably journaled before it is yielded -- so a
        sweep killed at any instant can resume from its journal.
        """
        cells = list(cells)
        journal_dir = self.journal_dir or self.resume_dir
        if journal_dir is None and self.resume_dir is None:
            yield from self._execute(cells, progress)
            return

        from repro.supervise.journal import (
            CellJournal,
            cell_fingerprint,
            load_completed,
            payload_to_result,
        )

        resumed: Dict[int, CellResult] = {}
        if self.resume_dir is not None:
            completed = load_completed(self.resume_dir)
            for index, cell in enumerate(cells):
                record = completed.get(cell_fingerprint(cell))
                if record is not None:
                    resumed[index] = payload_to_result(cell, record["result"])
        journal = CellJournal(journal_dir)
        for index, result in resumed.items():
            if progress is not None:
                progress(result)
            yield index, result
        todo = [index for index in range(len(cells)) if index not in resumed]
        if not todo:
            return
        # progress fires here (after journaling), not in the inner path,
        # so a callback exception can never lose a journal write
        for sub_index, result in self._execute([cells[i] for i in todo], None):
            index = todo[sub_index]
            journal.record(cells[index], result)
            if progress is not None:
                progress(result)
            yield index, result

    def _execute(
        self,
        cells: Sequence[SweepCell],
        progress: Optional[Callable[[CellResult], None]],
    ):
        """The two execution paths: inline, or a windowed worker pool.

        A deadline needs a separate process to reap, so a grid with one
        runs on the pool even single-worker.
        """
        from repro.supervise.executor import inline_iter, pool_iter

        policy = self.policy
        if not cells or (
            self.workers == 1 and (policy is None or policy.cell_timeout_s is None)
        ):
            yield from inline_iter(
                cells, policy, artifact_dir=self.artifact_dir, progress=progress
            )
        else:
            import multiprocessing

            yield from pool_iter(
                cells,
                workers=self.workers,
                ctx=self._worker_context() or multiprocessing.get_context(),
                policy=policy,
                artifact_dir=self.artifact_dir,
                progress=progress,
            )


# ----------------------------------------------------------------------
# boundary-jitter fuzzing: jittered grids + divergence minimization
# ----------------------------------------------------------------------

def _parse_fuzz_name(name: str) -> Tuple[str, int]:
    """Split ``base~jNus`` into ``(base, N)``; plain names get jitter 0."""
    match = _JITTER_SUFFIX.match(name)
    if match is None:
        return name, 0
    return match.group("base"), int(match.group("us"))


@dataclass
class FuzzReport:
    """Outcome of a boundary-jitter fuzzing campaign.

    ``minimized`` is the smallest failing ``(scenario, seed, jitter_us)``
    triple found by shrinking the first (smallest-jitter) divergence;
    ``None`` when every cell upheld its invariants.
    """

    base_scenarios: Tuple[str, ...]
    seeds: Tuple[int, ...]
    jitters_us: Tuple[int, ...]
    mode: str
    cells: List[CellResult] = field(default_factory=list)
    minimized: Optional[Tuple[str, int, int]] = None
    shrink_runs: int = 0
    wall_seconds: float = 0.0

    def failures(self) -> List[CellResult]:
        bad = [c for c in self.cells if not c.ok]
        return sorted(
            bad, key=lambda c: (_parse_fuzz_name(c.scenario)[1], c.seed, c.scenario)
        )

    def ok(self) -> bool:
        return not self.failures()

    def summary_rows(self) -> List[List]:
        rows = []
        for base in self.base_scenarios:
            for jitter in self.jitters_us:
                group = [
                    c for c in self.cells
                    if _parse_fuzz_name(c.scenario) == (base, jitter)
                ]
                if not group:
                    continue
                bad = sum(1 for c in group if not c.ok)
                rows.append([
                    base,
                    jitter,
                    len(group),
                    sum(1 for c in group if c.invariant_ok),
                    sum(c.rollbacks for c in group),
                    bad,
                    "FAIL" if bad else "ok",
                ])
        return rows

    def render(self) -> str:
        parts = [render_table(
            f"boundary-jitter fuzz ({self.mode} mode, "
            f"{len(self.seeds)} seed(s))",
            ["scenario", "jitter (us)", "cells", "theorem1", "rollbacks",
             "failures", "verdict"],
            self.summary_rows(),
        )]
        parts.append("")
        if self.ok():
            parts.append(
                f"verdict: OK -- {len(self.cells)} jittered cells, every "
                "fingerprint reproduced bit-for-bit "
                f"({self.wall_seconds:.2f}s wall)"
            )
        else:
            first = self.failures()[0]
            parts.append(
                f"verdict: FAILED -- {len(self.failures())} divergent cell(s)"
            )
            if self.minimized is not None:
                base, seed, jitter = self.minimized
                parts.append(
                    f"minimized: scenario={base!r} seed={seed} "
                    f"jitter_us={jitter} (after {self.shrink_runs} shrink "
                    f"runs); reproduce with run_cell(SweepCell("
                    f"'{base}~j{jitter}us', {seed}, '{self.mode}'))"
                )
            parts.append(
                f"first failure: {first.scenario} seed={first.seed}: "
                + (first.error or "fingerprint divergence")
            )
        return "\n".join(parts)

    def to_dict(self) -> Dict:
        """JSON-serializable divergence report (the CI artifact)."""
        def cell_dict(c: CellResult) -> Dict:
            base, jitter = _parse_fuzz_name(c.scenario)
            return {
                "scenario": base,
                "jitter_us": jitter,
                "seed": c.seed,
                "mode": c.mode,
                "error": c.error,
                "invariant_ok": c.invariant_ok,
                "expected_ok": c.expected_ok,
                "fingerprint": c.fingerprint,
                "replay_fingerprint": c.replay_fingerprint,
            }

        return {
            "ok": self.ok(),
            "mode": self.mode,
            "base_scenarios": list(self.base_scenarios),
            "seeds": list(self.seeds),
            "jitters_us": list(self.jitters_us),
            "grid_cells": len(self.cells),
            "wall_seconds": self.wall_seconds,
            "failures": [cell_dict(c) for c in self.failures()],
            "minimized": (
                None if self.minimized is None else {
                    "scenario": self.minimized[0],
                    "seed": self.minimized[1],
                    "jitter_us": self.minimized[2],
                    "shrink_runs": self.shrink_runs,
                }
            ),
        }


class FuzzRunner:
    """Sweep jittered variants of scenarios over (seed, jitter) grids.

    Every ``(scenario, jitter)`` pair becomes the dynamic scenario
    ``scenario~j<jitter>us`` and runs through the ordinary sweep
    machinery in ``mode`` (``defined`` by default, so each cell carries
    the full Theorem-1 production-vs-replay check).  When a cell fails,
    the runner shrinks the first failure to the smallest failing
    ``(scenario, seed, jitter)`` triple: binary search over the jitter
    magnitude (assuming the usual monotone failure envelope), then a
    linear scan for the smallest failing seed.
    """

    def __init__(
        self,
        scenarios: Optional[Sequence[str]] = None,
        seeds: Sequence[int] = (1, 2, 3, 4),
        jitters_us: Sequence[int] = (0, 1, 2, 5),
        mode: str = "defined",
        workers: int = 1,
        minimize: bool = True,
    ) -> None:
        if any(j < 0 for j in jitters_us):
            raise ValueError("jitter magnitudes cannot be negative")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if scenarios is None:
            # base catalogue only: no pre-jittered variants (the runner
            # owns the jitter axis) and no @N size variants (an 80-node
            # jitter grid is an explicit opt-in, not a default)
            scenarios = [
                n for n in scenario_names() if "~" not in n and "@" not in n
            ]
        else:
            # the runner owns the jitter axis: strip any ~jNus suffix the
            # caller passed (e.g. a registered '*~j1us' builtin) so grids
            # never double-jitter or build unresolvable names
            scenarios = list(dict.fromkeys(
                _parse_fuzz_name(name)[0] for name in scenarios
            ))
        for name in scenarios:
            scenario = get_scenario(name)  # fail fast on unknown names
            if mode not in scenario.modes:
                raise ValueError(
                    f"scenario {name!r} does not run in mode {mode!r} "
                    f"(modes: {scenario.modes})"
                )
        self.base_scenarios = tuple(scenarios)
        self.seeds = tuple(seeds)
        self.jitters_us = tuple(sorted(set(jitters_us)))
        self.mode = mode
        self.workers = workers
        self.minimize = minimize

    def grid_names(self) -> List[str]:
        return [
            f"{base}~j{jitter}us"
            for base in self.base_scenarios
            for jitter in self.jitters_us
        ]

    def run(
        self, progress: Optional[Callable[[CellResult], None]] = None
    ) -> FuzzReport:
        start = time.perf_counter()
        sweep = SweepRunner(
            scenarios=self.grid_names(),
            seeds=self.seeds,
            modes=(self.mode,),
            workers=self.workers,
        )
        cells = sweep.run(progress=progress).cells
        report = FuzzReport(
            base_scenarios=self.base_scenarios,
            seeds=self.seeds,
            jitters_us=self.jitters_us,
            mode=self.mode,
            cells=cells,
        )
        failures = report.failures()
        if failures and self.minimize:
            report.minimized, report.shrink_runs = self._shrink(failures[0], cells)
        report.wall_seconds = time.perf_counter() - start
        return report

    def _shrink(
        self, cell: CellResult, cells: Sequence[CellResult]
    ) -> Tuple[Tuple[str, int, int], int]:
        """Smallest failing (scenario, seed, jitter) reachable from ``cell``."""
        base, jitter = _parse_fuzz_name(cell.scenario)
        seed = cell.seed
        runs = 0

        def fails(jitter_us: int, cell_seed: int) -> bool:
            nonlocal runs
            runs += 1
            result = run_cell(
                SweepCell(f"{base}~j{jitter_us}us", cell_seed, self.mode)
            )
            return not result.ok

        # binary search the smallest failing jitter in [0, jitter].  The
        # grid already evaluated this (base, seed) at every smaller grid
        # jitter -- and they all passed, or ``cell`` would not be the
        # smallest failure -- so start the bracket from the largest of
        # them instead of re-running full simulations below it.
        known_passing = [
            _parse_fuzz_name(c.scenario)[1]
            for c in cells
            if c.ok
            and c.seed == seed
            and _parse_fuzz_name(c.scenario)[0] == base
            and _parse_fuzz_name(c.scenario)[1] < jitter
        ]
        lo, hi = max(known_passing, default=-1), jitter
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fails(mid, seed):
                hi = mid
            else:
                lo = mid
        jitter = hi
        # then the smallest failing seed at that jitter
        for candidate in sorted(self.seeds):
            if candidate >= seed:
                break
            if fails(jitter, candidate):
                seed = candidate
                break
        return (base, seed, jitter), runs
