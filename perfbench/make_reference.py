"""Regenerate ``reference.json`` (and ``host.json``) from the serial,
uncached path.

    python3 perfbench/make_reference.py [--workload NAME ...]

Every instance of every workload runs once in this process with no
result cache; ``tune_replay`` runs its sweep with ``workers=1``, so the
benchmark's parallel sweeps are checked against the serial one.  Only
regenerate when a change is *meant* to alter the program's outputs.
"""

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)

    reference = workloads.load_reference()
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        table = {}
        for instance in range(workloads.INSTANCES):
            output, _ = workload.call(workload.spec(instance), workdir, workers=1)
            workload.cleanup(workdir)
            table[str(instance)] = workload.canonical(output)
            print(f"{name} {instance}: {table[str(instance)]['frames']} frames",
                  file=sys.stderr)
        reference[name] = table
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True, allow_nan=True) + "\n"
    )
    (BENCH / "host.json").write_text(json.dumps(run.host_record(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
