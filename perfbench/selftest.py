"""Self-test of the benchmark's tracer and its per-layer predictions.

    python3 perfbench/selftest.py [--seconds 1]

1. Installing the tracer rebinds every ``repro.*`` alias of a wrapped
   function (``from x import f`` copies); ``layers.install`` raises if
   it left one behind.
2. Each workload's traced run is correct, and every layer records work
   where the workload should use it and none where it should be bypassed:
   ``tracker.*``/``hungarian.*`` on ``fleet_autoscale``, ``metrics.*``
   everywhere but ``offline_catdet``, ``api.cache.*`` and
   ``utils.parmap.*`` everywhere but ``tune_replay``.  On ``tune_replay``
   the replayed frames come from worker-process spans, so a nonzero
   ``serve.trace.replayed_frac`` also proves those spans were collected.

Exits 1 and lists every failed expectation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

ALL = ("offline_catdet", "serve_live", "tune_replay", "fleet_autoscale")

NONZERO = {
    "offline_catdet": (
        "datasets.build_s", "datasets.annotations.calls", "simdet.invocations",
        "boxes.calls", "detections.constructed", "tracker.updates",
        "hungarian.calls", "engine.steps", "metrics.evaluate.self_s",
        "utils.rng.child.calls",
    ),
    "serve_live": (
        "datasets.build_s", "datasets.annotations.calls", "simdet.invocations",
        "boxes.calls", "detections.constructed", "tracker.updates",
        "hungarian.calls", "engine.steps", "serve.loop.self_s", "serve.batches",
        "serve.batcher.decide.calls", "serve.loadgen_s", "utils.rng.child.calls",
        "obs.calls",
    ),
    "tune_replay": (
        "datasets.build_s", "serve.batches", "serve.trace.replayed_frac",
        "serve.trace.load_s", "serve.trace.store_s", "serve.trace.bytes",
        "api.cache.lookups", "api.cache.store_s", "api.cache.bytes_written",
        "utils.parmap.startup_s", "utils.parmap.wall_s", "utils.parmap.items",
        "utils.parmap.efficiency",
    ),
    "fleet_autoscale": (
        "datasets.build_s", "simdet.invocations", "boxes.calls", "engine.steps",
        "fleet.loop.self_s", "fleet.router.calls", "fleet.autoscaler.ticks",
        "fleet.scale_events", "obs.calls", "query.observe.calls",
    ),
}

#: (metric prefix, workloads where it must read zero)
ZERO = (
    (("tracker.", "hungarian."), ("fleet_autoscale",)),
    (("metrics.",), ("serve_live", "tune_replay", "fleet_autoscale")),
    (("api.cache.", "utils.parmap."), ("offline_catdet", "serve_live", "fleet_autoscale")),
)

#: Needs a second core: with one, the sweep runs serially and no pool starts.
PARALLEL_ONLY = ("utils.parmap.",)


def check_aliases(failures):
    """``layers.install`` raises if any ``repro.*`` alias is left unwrapped."""
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from tracer import Tracer

    try:
        layers.install(Tracer())
    except RuntimeError as exc:
        failures.append(f"tracer: {exc}")


def check_workload(name, seconds, cpus, failures):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "0",
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        failures.append(f"{name}: traced run failed\n{out.stderr}")
        return
    for line in lines[:-1]:
        print(f"  {line}")
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  trace.overhead_frac={metrics['trace.overhead_frac']:.3f} "
          f"trace.coverage={metrics['trace.coverage']:.3f}")
    if not result["correct"]:
        failures.append(f"{name}: outputs differ from the reference")
    for metric in NONZERO[name]:
        if cpus < 2 and metric.startswith(PARALLEL_ONLY):
            continue
        if not metrics[metric] > 0:
            failures.append(f"{name}: {metric} is {metrics[metric]}, expected > 0")
    for prefixes, where in ZERO:
        if name not in where:
            continue
        for metric, value in metrics.items():
            if metric.startswith(prefixes) and value != 0:
                failures.append(f"{name}: {metric} is {value}, expected 0")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--workload", action="append", choices=ALL)
    args = p.parse_args(argv)

    failures = []
    check_aliases(failures)
    from repro.engine.scheduler import effective_cpu_count

    cpus = effective_cpu_count()
    if cpus < 2:
        print("note: 1 CPU, so tune_replay runs serially; utils.parmap.* not checked")
    for name in args.workload or ALL:
        print(f"{name}:")
        check_workload(name, args.seconds, cpus, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
