"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rb-flap --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: The seed the benchmark's claims are made on; any failed check at this
#: seed makes the command exit non-zero.
DEFAULT_SEED = 1

#: metric name -> unit, for ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "us_per_delivery": "us",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "recording_bytes_per_event": "B/event",
}


def _layer_units() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def check_kernel_is_standalone() -> None:
    """The yardstick must not import the program it measures."""
    with open(os.path.join(HERE, "refkernel.py")) as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        for name in names:
            if name == "repro" or name.startswith("repro."):
                raise SystemExit(f"refkernel.py imports {name}: the reference kernel must stand alone")


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The sweep's shared-memory transport and the spawned kernel processes
    start it; left alone it outlives this process until it reads end of
    file on its pipe.  Every process that holds that pipe (pool workers,
    kernel servers) has been joined by the time this runs."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is None:
        return
    tracker = module._resource_tracker
    if hasattr(tracker, "_stop"):  # Python 3.12.? and later
        tracker._stop()
        return
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if pid is None:
            return
        tracker._fd = tracker._pid = None
        os.close(fd)
        deadline = time.monotonic() + 30
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _check_counts(workload: str, seed: int, counts: dict) -> list:
    """Compare this run's per-unit counts with earlier runs of the same
    seed (kept in the checkout) and return the keys that drifted."""
    from workloads import state_dir

    path = os.path.join(state_dir(), f"counts-{workload}-{seed}.json")
    try:
        with open(path) as handle:
            earlier = json.load(handle)
    except (OSError, ValueError):
        earlier = {}
    drift = [
        f"{key}={value}, an earlier run had {earlier[key]}"
        for key, value in sorted(counts.items())
        if key in earlier and earlier[key] != value
    ]
    merged = dict(counts)
    merged.update(earlier)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(merged, handle, sort_keys=True, indent=0)
    os.replace(tmp, path)
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    check_kernel_is_standalone()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()

    drift = _check_counts(args.workload, args.seed, out.counts)
    out.problems.extend(f"determinism: {line}" for line in drift)
    drift_count = sum(p.startswith("determinism:") for p in out.problems)
    correct = out.failed == 0 and drift_count == 0

    if args.trace:
        units = _layer_units()
        values = dict(out.layers)
        values["determinism.drifts"] = drift_count
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in units.items()}
    else:
        values = {
            "setup_s": statistics.median(out.setup_norm),
            "us_per_delivery": statistics.median(out.upd_norm),
            "op_ms_p50": statistics.median(out.op_norm) * 1e3,
            "op_ms_p90": _percentile(out.op_norm, 90) * 1e3,
            "peak_rss_mb": out.peak_rss_mb,
            "recording_bytes_per_event": out.recording_bytes / out.recording_events,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    failed_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{out.attempted} ops, {out.failed} failed (failed_frac {failed_frac:.4f})")
    for line in out.problems:
        print(f"  problem: {line}")
    diagnostics = {k: v for k, v in out.layers.items() if k.startswith(("host.", "raw."))}
    for name, value in list(metrics.items()) + [(k, {"value": v, "unit": ""}) for k, v in diagnostics.items() if k not in metrics]:
        print(f"  {name:32s} {value['value']:14.6g} {value['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    if not correct and args.seed == DEFAULT_SEED:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
