"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload serve_live --seed 3 --seconds 22 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics from the traced ones (see ``layers.py``).  Every call's
outputs are compared with ``reference.json``; a call that raises or
differs counts all its frames as failed.  The last stdout line is::

    {"correct": ..., "attempted": <frames>, "failed": <frames>, "metrics": {...}}

``--out FILE`` also appends ``{"workload", "seed", "trace", "host",
"result"}`` to FILE for ``compare.py``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedMeter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
#: Set-up takes under a second, so its probes come four times as often
#: as during calls; :func:`measure_setup` subtracts their time.
SETUP_SAMPLE_INTERVAL_S = 0.05
MIN_CALLS = 3
#: No call starts later than this after process start, so a run of a much
#: slower program still ends well within three minutes.
DEADLINE_S = 120.0
_T0 = time.perf_counter()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import the checkout's ``repro`` and the workloads, or explain why not."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return None
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return None
    return workloads


def declared_units(section: str):
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def measure_setup(args) -> float:
    """``setup_s``: median over :data:`SETUP_REPEATS` fresh processes of
    the time from process start to the end of set-up (import, dataset
    synthesis, load generation, system construction).

    Each child runs this script with ``--setup-only`` (see
    :func:`setup_only`).  Its time, less its probes' time, is divided by
    the host slowdown it sampled.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise RuntimeError("set-up failed in a fresh process")
        end, slowdown, probe_s = map(float, out.stdout.split())
        times.append((end - start - probe_s) / slowdown)
    return statistics.median(times)


def setup_only(args) -> int:
    """Import the program and set the workload up, then print the
    monotonic clock (which all processes share on Linux) at the end of
    set-up, the host slowdown sampled meanwhile, and the probes' seconds.

    The probe runs here, amid the set-up work, every
    :data:`SETUP_SAMPLE_INTERVAL_S`: a probe in the parent, or one run
    after set-up in an idle process, reads a different speed.
    """
    meter = SpeedMeter(SETUP_SAMPLE_INTERVAL_S)
    with meter:
        workloads = _import_program()
        if workloads is None:
            return 2
        workload = workloads.WORKLOADS[args.workload]
        workload.setup(workload.spec(args.seed % workloads.INSTANCES))
        end = time.perf_counter()
    print(end, meter.slowdown, meter.probe_s)
    return 0


def host_record():
    import multiprocessing
    import platform

    import numpy

    from repro.engine.scheduler import effective_cpu_count

    return {
        "cpus": effective_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0  # ru_maxrss is in KiB on Linux


def _before_deadline() -> bool:
    return time.perf_counter() - _T0 < DEADLINE_S


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=True)


class Calls:
    """Timed, checked workload calls and their frame accounting.

    Call ``i`` of a run uses input instance ``(first + i) % instances``,
    so a run cycles through the instances and its figures average over
    them instead of resting on one input.
    """

    def __init__(self, workload, first, instances, reference, workdir, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.first = first
        self.instances = instances
        self.reference = reference
        self.specs = {}
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.meter = SpeedMeter()

    def instance(self, i: int) -> int:
        return (self.first + i) % self.instances

    def run(self, instance: int, *, traced: bool = False):
        """One call on ``instance``; returns ``(frames, wall_s, cpu_s,
        slowdown)`` or ``None`` on failure.

        ``slowdown`` is the host slowdown the speed meter measured during
        the call (see ``speed.py``).  ``traced`` records spans during the
        call itself, not while its outputs are checked.
        """
        if instance not in self.specs:
            self.specs[instance] = self.workload.spec(instance)
        self.workload.prepare(self.specs[instance])
        expected = self.reference.get(str(instance))
        if expected is None:
            print(f"perfbench: no reference for {self.workload.name} instance {instance}",
                  file=sys.stderr)
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        if traced:
            self.tracer.enabled = True
        try:
            with self.meter:
                output, frames = self.workload.call(self.specs[instance], self.workdir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            output = None
        finally:
            if traced:
                self.tracer.enabled = False
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
        slowdown = self.meter.slowdown
        self.workload.cleanup(self.workdir)
        ok = output is not None and expected is not None
        if ok:
            got = _canon(self.workload.canonical(output))
            ok = got == _canon(expected)
            if not ok:
                self.mismatches.append(got)
        if output is None:
            frames = (expected or {}).get("frames", 1)
        self.attempted += frames
        self.failed += 0 if ok else frames
        return (frames, wall, cpu, slowdown) if ok else None


def measure(calls: Calls, seconds: float):
    """End-to-end metrics over calls made for ``seconds`` of measured time.

    Each call's wall and CPU seconds are divided by its slowdown; the
    rates are total frames over those totals.
    """
    samples = []
    measured = 0.0
    while (len(samples) < MIN_CALLS or measured < seconds) and _before_deadline():
        sample = calls.run(calls.instance(len(samples)))
        if sample is None:
            break  # the program is wrong or broken; stop measuring it
        samples.append(sample)
        measured += sample[1]
    peak = _peak_rss_mb()
    if not samples:
        return {"frames_per_s": 0.0, "cpu_ms_per_frame": 0.0, "peak_rss_mb": peak}
    frames = sum(f for f, _, _, _ in samples)
    return {
        "frames_per_s": frames / sum(w / k for _, w, _, k in samples),
        "cpu_ms_per_frame": sum(c / k for _, _, c, k in samples) * 1e3 / frames,
        "peak_rss_mb": peak,
        "calls": len(samples),
    }


def measure_traced(calls: Calls, seconds: float, setup_spans, spans_dir, units):
    """Per-layer metrics: alternate untraced and traced calls."""
    import layers

    tracer = calls.tracer
    untraced, traced, call_spans = [], [], []
    frames = 0
    spent = 0.0
    while (len(traced) < 2 or spent < seconds) and _before_deadline():
        instance = calls.instance(len(traced))
        plain = calls.run(instance)
        sample = calls.run(instance, traced=True)
        spans = tracer.take()
        if plain is None or sample is None:
            break
        untraced.append((plain[1], plain[3]))
        traced.append((sample[1], sample[3]))
        call_spans.append(spans)
        frames += sample[0]
        spent += plain[1] + sample[1]
    if not traced:
        return dict.fromkeys(units, 0.0)
    chunks = tracer.worker_chunks()
    with open(spans_dir / "spans-parent.json", "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_spans, "calls": call_spans}, fh)
    for line in layers.coverage_table(call_spans, [w for w, _ in traced]):
        print(line)
    return layers.layer_metrics(
        setup_spans,
        call_spans,
        chunks,
        frames=frames,
        max_batch_size=calls.workload.max_batch_size,
        traced=traced,
        untraced=untraced,
        units=units,
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_only:
        return setup_only(args)
    workloads = _import_program()
    if workloads is None:
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    first = args.seed % workloads.INSTANCES
    reference = workloads.load_reference().get(workload.name, {})
    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spec = workload.spec(first)
        if args.trace:
            from tracer import Tracer

            import layers

            spans_dir = WORK / "trace" / workload.name
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
            tracer = Tracer(flush_dir=spans_dir)
            layers.install(tracer)
            calls = Calls(workload, first, workloads.INSTANCES, reference, workdir, tracer)
            tracer.enabled = True
            for _ in range(SETUP_REPEATS):
                workload.setup(spec)
            tracer.enabled = False
            units = declared_units("per_layer")
            values = measure_traced(calls, args.seconds, tracer.take(), spans_dir, units)
        else:
            calls = Calls(workload, first, workloads.INSTANCES, reference, workdir)
            setup_s = measure_setup(args)
            values = measure(calls, args.seconds)
            n_calls = values.pop("calls", 0)
            values["success_rate"] = 1.0 - calls.failed / max(calls.attempted, 1)
            values["setup_s"] = setup_s
            units = declared_units("end_to_end")
            print(f"{workload.name}: {n_calls} measured calls from instance {first}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for got in calls.mismatches[:1]:
        print(f"perfbench: output differs from the reference: {got}", file=sys.stderr)
    result = {
        "correct": calls.attempted > 0 and calls.failed == 0,
        "attempted": max(calls.attempted, 1),
        "failed": calls.failed if calls.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    if args.out is not None:
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "host": host_record(),
            "result": result,
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
